"""One measurement in a fresh interpreter; started by run.py, one at a time.

    python3 child.py setup SPEC
        time ``import photonstack.cli`` plus ``ScanSpec.from_file(SPEC)``
        from interpreter start, then probe the machine speed (speed.py);
        prints one JSON object.
    python3 child.py scan JOB_JSON
        warm up, then repeat run_scan + output check for the job's
        seconds, and at least ``min_rounds`` times; prints one JSON object.
    python3 child.py trace JOB_JSON
        the same, in rounds of one untraced and one traced operation, and
        writes the spans of every traced operation to the job's directory.

photonstack must be importable (run.py puts the checkout's ``src`` first
on PYTHONPATH). Nothing heavy is imported before the set-up clock starts.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(spec_path: str) -> dict:
    import photonstack.cli  # noqa: F401  (what every `photonstack` run loads)
    from photonstack.scan import ScanSpec

    ScanSpec.from_file(spec_path)
    setup_s = time.perf_counter() - _T0
    from speed import SpeedProbe

    speed = SpeedProbe()
    speed.after(setup_s)
    return {"setup_s": setup_s, "probes": speed.samples}


class _Operation:
    """One run_scan plus its output check; failures are recorded, not raised."""

    def __init__(self, workload: str, workloads, reference: dict | None):
        from photonstack.scan import run_scan
        from speed import SpeedProbe

        self.run_scan = run_scan
        self.workload = workload
        self.workloads = workloads
        self.reference = reference
        self.durations: list[float] = []
        self.failures: list[str] = []
        self.speed = SpeedProbe()
        self.first_sha: str | None = None
        self.info: dict = {}

    def __call__(self, spec, around=None) -> float:
        wl = self.workloads
        t0 = time.perf_counter()
        try:
            if around is None:
                result = self.run_scan(spec, threads=1)
            else:
                with around():
                    result = self.run_scan(spec, threads=1)
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            self.durations.append(dt)
            self.failures.append(f"run_scan raised {type(exc).__name__}: {exc}")
            self.speed.after(dt)
            return dt
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        self.speed.after(dt)

        problems = wl.check(self.workload, result.quantities, result.energies_ev,
                            result.data)
        sha = wl.sha256_file(result.path)
        if self.first_sha is None:
            self.first_sha = sha
            self.info = {
                "spec_sha256": wl.sha256_text(spec.canonical_json()),
                "csv_sha256": sha,
                "rows": int(result.data.shape[0] * result.data.shape[1]),
                "csv_bytes": result.path.stat().st_size,
                "csv_identical": None,
            }
            if self.reference is not None:
                self.info["csv_identical"] = sha == self.reference["csv_sha256"]
                problems += wl.compare_summary(
                    wl.summarize(result.quantities, result.data),
                    self.reference["summary"])
        elif sha != self.first_sha:
            problems.append("CSV bytes differ from the first scan of this run")
        if problems:
            self.failures.append("; ".join(problems))
        return dt


def _prepare(job: dict):
    """Import, load the specs and warm up; returns (operation, spec)."""
    import photonstack
    import photonstack.cli  # noqa: F401
    from photonstack.scan import ScanSpec, run_scan

    src = Path(job["src"]).resolve()
    if src not in Path(photonstack.__file__).resolve().parents:
        raise SystemExit(f"photonstack imported from {photonstack.__file__}, not {src}")
    import workloads

    reference = None
    if job["seed"] == 0:
        reference = workloads.load_reference(job["root"])[job["workload"]]
    t0 = time.perf_counter()
    run_scan(ScanSpec.from_file(job["warmup_spec"]), threads=1)
    op = _Operation(job["workload"], workloads, reference)
    op.speed.after(time.perf_counter() - t0)   # the block before the first scan
    return op, ScanSpec.from_file(job["spec"])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scan(job: dict) -> dict:
    op, spec = _prepare(job)
    start = time.perf_counter()
    while (len(op.durations) < job["min_rounds"]
           or time.perf_counter() - start < job["seconds"]):
        op(spec)
    return {"durations": op.durations, "failures": op.failures,
            "speed_scale": op.speed.scale(), "peak_rss_mb": _peak_rss_mb(), **op.info}


def _trace(job: dict) -> dict:
    t0 = time.perf_counter()
    import photonstack.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import tracer as tracing
    from photonstack.scan import ScanSpec

    op, spec = _prepare(job)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced_s: list[float] = []
    ops: list[dict] = []
    start = time.perf_counter()
    pair = 0
    while pair < job["min_rounds"] or time.perf_counter() - start < job["seconds"]:
        # alternate which side of the pair runs first
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced:
                untraced.append(op(spec))
                continue
            tracer.reset()
            tracer.install()
            try:
                with tracer.span("scan.ScanSpec.from_file"):
                    traced_spec = ScanSpec.from_file(job["spec"])
                traced_s.append(op(traced_spec,
                                   around=lambda: tracer.span("scan.run_scan")))
            finally:
                tracer.uninstall()
            ops.append({"spans": [s.__dict__ for s in tracer.spans],
                        "counters": dict(tracer.counters)})
        pair += 1
    spans_path = Path(job["dir"]) / "spans.json"
    spans_path.write_text(json.dumps(ops))
    return {"durations": op.durations, "failures": op.failures,
            "untraced_s": untraced, "traced_s": traced_s, "import_s": import_s,
            "spans_file": str(spans_path), "peak_rss_mb": _peak_rss_mb(),
            **op.info}


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "setup":
        result = _setup(argv[2])
    else:
        job = json.loads(Path(argv[2]).read_text())
        result = _scan(job) if mode == "scan" else _trace(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""photonstack scan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a photonstack checkout; the library is imported
from that checkout's ``src``. Every scan runs through the public API
(``ScanSpec.from_file`` then ``run_scan``) with ``threads=1``, in child
processes started one at a time.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time to
  ``import photonstack.cli`` and run ``ScanSpec.from_file`` on the
  workload's spec; what every ``photonstack scan`` pays before physics.
* ``scan_s``: median wall time of one ``run_scan`` (CSV write included)
  in a warm process; a warm-up scan on a tiny grid is excluded. The
  highest percentile with at least ten samples beyond it is printed with
  the sample count.
* ``peak_rss_mb``: peak resident memory of the scanning child.

Both times are wall times rescaled to a fixed machine speed measured
during the same run (speed.py); the raw wall medians and the scale are
printed beside them.

One operation is one ``run_scan`` plus its output check; a raised
exception or a failed check is a failure, reported as ``failed`` out of
``attempted`` and printed as ``fail_frac``.

``--trace 1`` runs the same scan in pairs, one untraced and one traced
(the order alternates), records spans around the calls photonstack's
modules make into each other (see tracer.py), and reports the per-layer
metrics: call counts and self times per module function, the summed
balance sweeps, and the tracing overhead.

``--threads`` process scaling is not measured: the machine this was
written on has 2 shared cores, too few to tell scaling from contention.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"

SETUP_SAMPLES = 5       # fresh interpreters per run, after one discarded
MIN_SCAN_OPS = 2        # even when one scan outlasts --seconds
MIN_TRACE_PAIRS = 1
RUN_LIMIT_S = 170.0     # whole run, children included

# What each workload should show in the trace: modules whose calls made
# directly from run_scan (inclusive time; "scan" is run_scan's own
# formatting, writing and orchestration) should hold most of the scan.
PREDICTIONS = {
    "field_map": ("scan",),
    "force_map": ("mechanics", "thermo"),
}

# per-layer metric -> (module function, caller or None for all callers)
_TIMED = {
    "stack.build_stack": None,
    "spectral.ldos": None,
    "spectral.ldos_gradient": None,
    "spectral.photon_numbers": None,
    "spectral.occupation_sums": None,
    "spectral.effective_temperatures": None,
    "mechanics.force_density": None,
    "mechanics.energy_pressure": None,
    "greens.region_integrals.from_spectral": ("greens.region_integrals", "spectral"),
    "greens.region_integrals.from_thermo": ("greens.region_integrals", "thermo"),
    "greens.solve_bases": None,
    "greens.solve_wave_basis": None,
    "thermo.solve_self_consistent": None,
}


_LAYER_NAMES = {f"{m}.{kind}" for m in _TIMED for kind in ("calls", "self_s")} | {
    "scan.run_scan.self_s", "scan.ScanSpec.from_file.self_s", "thermo.sweeps",
    "trace.scan_s"}


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def _child(args: list[str], deadline: float) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {args[0]} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _tail(values: list[float]) -> tuple[float, str] | None:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    if len(s) < 11:
        return None
    k = len(s) - 11
    return s[k], f"p{100.0 * (k + 1) / len(s):.0f}"


def _unit(metric: str) -> str:
    return "count" if metric.endswith(".calls") or metric == "thermo.sweeps" else "s"


def _layer_metrics(ops: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of the traced operations, each the median over
    operations, and the figures the report checks them with: traced
    scan_s, the sum of self times under run_scan, and each module's
    inclusive share of run_scan (``share.<module>``)."""
    per_op: dict[str, list[float]] = {}
    for op in ops:
        spans = [tracing.Span(**s) for s in op["spans"]]
        agg = tracing.aggregate(spans)
        values = {}
        for metric, key in _TIMED.items():
            name, caller = key if key else (metric, None)
            hits = [e for e in agg.values()
                    if e["name"] == name and (caller is None or e["caller"] == caller)]
            values[f"{metric}.calls"] = float(sum(e["calls"] for e in hits))
            values[f"{metric}.self_s"] = float(sum(e["self_s"] for e in hits))
        for name in ("scan.run_scan", "scan.ScanSpec.from_file"):
            values[f"{name}.self_s"] = sum(e["self_s"] for e in agg.values()
                                           if e["name"] == name)
        values["thermo.sweeps"] = float(op["counters"].get("thermo.sweeps", 0))
        root = next(i for i, s in enumerate(spans) if s.name == "scan.run_scan")
        values["trace.scan_s"] = spans[root].end - spans[root].start
        values["self_sum_s"] = _subtree_self_sum(spans, root)
        for mod, share in tracing.top_level_shares(spans, root).items():
            values[f"share.{mod}"] = share
        for k, v in values.items():
            per_op.setdefault(k, []).append(v)
    med = {k: statistics.median(v) for k, v in per_op.items()}
    layer = {k: v for k, v in med.items() if k in _LAYER_NAMES}
    return layer, {k: v for k, v in med.items() if k not in layer}


def _subtree_self_sum(spans: list[tracing.Span], root: int) -> float:
    own = tracing.self_times(spans)
    total = 0.0
    for i, s in enumerate(spans):
        j = i
        while j is not None and j != root:
            j = spans[j].parent
        if j == root:
            total += own[i]
    return total


def _prepare_inputs(args) -> tuple[Path, Path, Path]:
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    stack, spec = workloads.generate(ROOT, args.workload, args.seed)
    spec_path = workloads.write_inputs(work, stack, spec, "scan")
    warm_path = workloads.write_inputs(work, stack, workloads.shrink(spec), "warmup")
    return work, spec_path, warm_path


def _write_job(work: Path, args, spec_path: Path, warm_path: Path, min_rounds: int) -> Path:
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "min_rounds": min_rounds, "root": str(ROOT), "src": str(ROOT / "src"),
        "dir": str(work), "spec": str(spec_path), "warmup_spec": str(warm_path),
    }
    path = work / "job.json"
    path.write_text(json.dumps(job))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "photonstack" / "__init__.py",
                   ROOT / "configs" / wl.spec_file):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a "
                  "photonstack checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work, spec_path, warm_path = _prepare_inputs(args)
    machine = _machine()
    report = [
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"seconds {args.seconds:g}",
        "machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
        "scope: every scan runs with threads=1; --threads process scaling is "
        f"not measured ({machine['nproc']} shared cores)",
    ]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine}

    if args.trace == 0:
        _child(["setup", str(spec_path)], deadline)   # fills the file cache
        setup, speed = [], SpeedProbe()
        for _ in range(SETUP_SAMPLES):
            out = json.loads(_child(["setup", str(spec_path)], deadline))
            setup.append(out["setup_s"])
            speed.blocks.append(out["probes"])
        job = _write_job(work, args, spec_path, warm_path, MIN_SCAN_OPS)
        res = json.loads(_child(["scan", str(job)], deadline))
        durations = res["durations"]
        scale = res["speed_scale"]
        metrics = {
            "scan_s": (statistics.median(durations) * scale, "s"),
            "setup_s": (statistics.median(setup) * speed.scale(), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        tail = _tail(durations)
        report.append(
            f"wall: scan median {statistics.median(durations):.6g} s over "
            f"{len(durations)} scans, setup median {statistics.median(setup):.6g} s; "
            f"speed scale {scale:.4g} (scan), {speed.scale():.4g} (setup)")
        report.append(
            f"scan_s_tail = {tail[0] * scale:.6g} s ({tail[1]} of {len(durations)} samples)"
            if tail else
            f"scan_s_tail = n/a (no percentile has ten of {len(durations)} samples beyond it)")
        record["setup_samples_s"] = setup
        record["speed_scale"] = {"scan": scale, "setup": speed.scale()}
    else:
        job = _write_job(work, args, spec_path, warm_path, MIN_TRACE_PAIRS)
        res = json.loads(_child(["trace", str(job)], deadline))
        ops = json.loads(Path(res["spans_file"]).read_text())
        layer, extra = _layer_metrics(ops)
        overhead = statistics.median(res["traced_s"]) - statistics.median(res["untraced_s"])
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
        metrics["scan.rows"] = (float(res["rows"]), "count")
        metrics["scan.csv_bytes"] = (float(res["csv_bytes"]), "bytes")
        metrics["cli.import_s"] = (res["import_s"], "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        gap = layer["trace.scan_s"] - extra["self_sum_s"]
        report.append(
            f"trace: {len(ops)} traced and {len(res['untraced_s'])} untraced scans; "
            f"self times sum to {extra['self_sum_s']:.6g} s against traced "
            f"scan_s {layer['trace.scan_s']:.6g} s (gap {gap:.3g} s, overhead "
            f"{overhead:.3g} s): {'within' if abs(gap) <= abs(overhead) else 'OUTSIDE'}")
        shares = {k[len("share."):]: v for k, v in extra.items() if k.startswith("share.")}
        report.append("inclusive shares of calls made from run_scan: " + ", ".join(
            f"{m} {v:.1%}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        want = PREDICTIONS[args.workload]
        got = sum(shares.get(m, 0.0) for m in want)
        report.append(
            f"prediction: {' + '.join(want)} dominate {args.workload}: "
            f"{got:.1%} -> {'holds' if got > 0.5 else 'MISMATCH'}")
        record["shares"] = shares
        record["untraced_s"] = res["untraced_s"]
        record["traced_s"] = res["traced_s"]

    attempted = len(res["durations"])
    failed = len(res["failures"])
    report.append(f"spec_sha256 {res.get('spec_sha256')}")
    report.append(f"csv_sha256 {res.get('csv_sha256')} csv_identical "
                  f"{res.get('csv_identical') if args.seed == 0 else 'n/a (seed != 0)'}")
    report.append(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    report.extend(f"failure: {f}" for f in res["failures"][:5])
    report.extend(f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items())

    record.update({k: res.get(k) for k in ("spec_sha256", "csv_sha256", "csv_identical",
                                          "rows", "csv_bytes", "failures")})
    record["durations_s"] = res["durations"]
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

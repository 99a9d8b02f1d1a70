"""Fast self-test of the benchmark's input generator, checks and tracer.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs every workload on tiny grids (a few seconds in all) and exits
non-zero on the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path

import numpy as np
import photonstack
from photonstack.scan import ScanSpec, run_scan

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work" / "selftest"


def expect(cond, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def tiny_scan(name: str, seed: int):
    stack, spec = workloads.generate(ROOT, name, seed)
    path = workloads.write_inputs(WORK / f"{name}-{seed}", stack,
                                  workloads.shrink(spec), "scan")
    return run_scan(ScanSpec.from_file(path), threads=1)


def test_seed_zero_is_the_bundled_spec() -> None:
    for name, wl in workloads.WORKLOADS.items():
        stack, spec = workloads.generate(ROOT, name, 0)
        got = ScanSpec.from_file(workloads.write_inputs(WORK / "seed0", stack, spec, name))
        bundled = ScanSpec.from_file(ROOT / "configs" / wl.spec_file)
        if wl.balance:
            bundled = dataclasses.replace(bundled, balance={**bundled.balance, **wl.balance})
        expect(got.canonical_json() == bundled.canonical_json(),
               f"{name}: seed 0 differs from configs/{wl.spec_file}")


def test_seeds_change_values_not_work() -> None:
    for name in workloads.WORKLOADS:
        base_stack, base_spec = workloads.generate(ROOT, name, 0)
        expect(workloads.generate(ROOT, name, 7) == workloads.generate(ROOT, name, 7),
               f"{name}: seed 7 is not reproducible")
        expect(workloads.generate(ROOT, name, 7) != workloads.generate(ROOT, name, 8),
               f"{name}: seeds 7 and 8 give the same inputs")
        for seed in (1, 7, 123):
            stack, spec = workloads.generate(ROOT, name, seed)
            expect(stack != base_stack and spec["energies"] != base_spec["energies"],
                   f"{name} seed {seed}: nothing perturbed")
            for key in ("positions", "energies"):
                if key in base_spec:
                    expect(spec[key]["count"] == base_spec[key]["count"],
                           f"{name} seed {seed}: {key} count changed")
            expect(spec.get("balance") == base_spec.get("balance"),
                   f"{name} seed {seed}: balance settings changed")
            expect([(l["thickness"], l.get("temperature")) for l in stack["layers"]]
                   == [(l["thickness"], l.get("temperature")) for l in base_stack["layers"]],
                   f"{name} seed {seed}: layer geometry or temperatures changed")


def test_tiny_scans_pass_their_checks() -> None:
    for name in workloads.WORKLOADS:
        for seed in (0, 5):
            r = tiny_scan(name, seed)
            problems = workloads.check(name, r.quantities, r.energies_ev,
                                       r.data)
            expect(problems == [], f"{name} seed {seed}: {problems}")


def test_checks_catch_bad_output() -> None:
    r = tiny_scan("field_map", 0)
    q = list(r.quantities)

    def problems(name, result, data):
        return workloads.check(name, result.quantities, result.energies_ev,
                               data)

    bad = r.data.copy()
    bad[0, 0, q.index("ldos_e")] = np.nan
    expect(problems("field_map", r, bad), "a NaN passed")
    bad = r.data.copy()
    bad[1, 2, q.index("n_tot")] = 1.01 * workloads.bose_einstein(r.energies_ev[2], 400.0)
    expect(problems("field_map", r, bad), "n above the 400 K occupancy passed")
    bad = r.data.copy()
    bad[2, 1, q.index("T_m")] = 299.0
    expect(problems("field_map", r, bad), "T below 300 K passed")

    f = tiny_scan("force_map", 0)
    bad = f.data.copy()
    bad[0, 0, list(f.quantities).index("u")] = 0.0
    expect(problems("force_map", f, bad), "u = 0 passed")

    summary = workloads.summarize(f.quantities, f.data)
    expect(workloads.compare_summary(summary, summary) == [], "summary differs from itself")
    moved = {k: list(v) for k, v in summary.items()}
    moved["u"][2] *= 1.0 + 10 * workloads.REF_RTOL
    expect(workloads.compare_summary(moved, summary), "a moved mean passed")


def test_tracer_attributes_every_call() -> None:
    stack, spec = workloads.generate(ROOT, "force_map", 0)
    path = workloads.write_inputs(WORK / "trace", stack, workloads.shrink(spec), "scan")
    originals = {m: vars(getattr(photonstack, m)).copy() for m in tracing.CALLERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("scan.run_scan"):
            run_scan(ScanSpec.from_file(path), threads=1)
    finally:
        tracer.uninstall()
    for m, before in originals.items():
        expect(vars(getattr(photonstack, m)) == before, f"uninstall left {m} patched")
    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s.name == "scan.run_scan")
    own = tracing.self_times(spans)
    expect(abs(sum(own) - (spans[root].end - spans[root].start)) < 1e-9,
           "self times do not sum to the root span")
    expect(all(t >= -1e-9 for t in own), "a negative self time")
    agg = tracing.aggregate(spans)
    for key in ("greens.region_integrals|spectral", "greens.region_integrals|thermo",
                "greens.solve_wave_basis|greens", "greens.solve_wave_basis|thermo",
                "mechanics.force_density|scan", "spectral.occupation_sums|mechanics",
                "thermo.solve_self_consistent|scan", "stack.build_stack|scan"):
        expect(agg.get(key, {}).get("calls", 0) > 0, f"no calls recorded for {key}")
    expect(tracer.counters.get("thermo.sweeps", 0) > 0, "no balance sweeps counted")


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    t0 = time.perf_counter()
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()

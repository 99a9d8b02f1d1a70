"""The parts of the package the benchmark harness in ``perfbench/`` relies
on: the functions its tracer wraps, the scan-result fields it reads, and
the seed-0 values its reference holds."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from photonstack.scan import ScanSpec, run_scan
from photonstack.thermo import BalanceResult

ROOT = Path(__file__).resolve().parents[1]


def _load(monkeypatch, name):
    """``perfbench/<name>.py``, which is not a package, as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_module(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    missing = [f"{owner}.{name}"
               for owner, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"photonstack.{owner}"),
                                       name, None))]
    assert missing == []
    for caller in tracer.CALLERS:
        importlib.import_module(f"photonstack.{caller}")
    # the tracer counts balance sweeps from each solve's result
    assert "iterations" in {f.name for f in dataclasses.fields(BalanceResult)}


CAVITY = {"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 10.0, "n": 1.0},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]}


def test_the_tracer_sees_every_pointwise_evaluation(monkeypatch, tmp_path):
    """The tracer only sees calls made through the module-global names it
    replaces, so a scan that reached the spectral or mechanics functions
    some other way would vanish from the benchmark's per-layer numbers."""
    tracer_mod = _load(monkeypatch, "tracer")
    spec = ScanSpec.from_mapping({
        "stack": CAVITY,
        "quantities": ["u", "p", "zcf", "tcf", "ncf", "T_tot"],
        "positions": {"start": 2.0, "stop": 8.0, "count": 2},
        "energies": {"start": 0.05, "stop": 0.2, "count": 3},
    })
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        run_scan(spec, output=tmp_path / "traced.csv", threads=1)
    finally:
        tracer.uninstall()
    # photon_numbers is the library's one-call form of
    # occupation_sums(...).numbers; no scan calls it
    expected = {f"{owner}.{name}" for owner in ("spectral", "mechanics")
                for name in tracer_mod.TRACED[owner]} - {"spectral.photon_numbers"}
    assert expected - {span.name for span in tracer.spans} == set()
    # the source weights read the edge fluxes once per source layer
    assert ("greens.region_integrals", "spectral") in {(span.name, span.caller)
                                                       for span in tracer.spans}


def test_scan_result_has_the_fields_the_harness_reads(tmp_path):
    spec = ScanSpec.from_mapping({
        "stack": CAVITY,
        "quantities": ["ldos_tot", "n_tot"],
        "positions": {"start": 2.0, "stop": 8.0, "count": 2},
        "energies": {"start": 0.05, "stop": 0.2, "count": 3},
    })
    result = run_scan(spec, output=tmp_path / "tiny.csv", threads=1)
    assert result.quantities == ("ldos_tot", "n_tot")
    assert np.array_equal(result.energies_ev, spec.energies.values())
    assert result.data.shape == (2, 3, 2)
    assert result.path == tmp_path / "tiny.csv" and result.path.stat().st_size > 0


@pytest.mark.parametrize("name", ["field_map", "force_map"])
def test_seed_zero_workloads_match_the_benchmark_reference(monkeypatch, tmp_path, name):
    """The benchmark counts a seed-0 scan as failed when its output check
    fails or its summary is more than REF_RTOL off ``reference.json``; a
    library change that moves a value that far fails here first."""
    workloads = _load(monkeypatch, "workloads")
    stack, spec = workloads.generate(ROOT, name, 0)
    spec_path = workloads.write_inputs(tmp_path, stack, spec, name)
    result = run_scan(ScanSpec.from_file(spec_path), threads=1)
    assert workloads.check(name, result.quantities, result.energies_ev, result.data) == []
    summary = workloads.summarize(result.quantities, result.data)
    reference = workloads.load_reference(ROOT)[name]["summary"]
    assert workloads.compare_summary(summary, reference) == []

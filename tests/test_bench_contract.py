"""The parts of the package the benchmark harness in ``perfbench/`` relies
on: the functions its tracer wraps and the scan-result fields it reads."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from photonstack.scan import ScanSpec, run_scan
from photonstack.thermo import BalanceResult

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_module(monkeypatch):
    tracer = _load_tracer(monkeypatch)
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
    tracer_mod = _load_tracer(monkeypatch)
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

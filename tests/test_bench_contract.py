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


def test_scan_result_has_the_fields_the_harness_reads(tmp_path):
    spec = ScanSpec.from_mapping({
        "stack": {"layers": [
            {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
            {"thickness": 10.0, "n": 1.0},
            {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
        ]},
        "quantities": ["ldos_tot", "n_tot"],
        "positions": {"start": 2.0, "stop": 8.0, "count": 2},
        "energies": {"start": 0.05, "stop": 0.2, "count": 3},
    })
    result = run_scan(spec, output=tmp_path / "tiny.csv", threads=1)
    assert result.quantities == ("ldos_tot", "n_tot")
    assert np.array_equal(result.energies_ev, spec.energies.values())
    assert result.data.shape == (2, 3, 2)
    assert result.path == tmp_path / "tiny.csv" and result.path.stat().st_size > 0

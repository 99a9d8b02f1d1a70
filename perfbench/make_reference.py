"""Rewrite perfbench/reference.json from seed-0 scans of every workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout whose output is trusted. The reference
holds, per workload, the generated spec's hash, the CSV's sha256 and a
min/max/mean summary of each column; run.py compares seed-0 scans to it.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from photonstack.scan import ScanSpec, run_scan

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    out = {}
    work = ROOT / "perfbench" / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    for name in workloads.WORKLOADS:
        stack, spec = workloads.generate(ROOT, name, 0)
        spec = ScanSpec.from_file(workloads.write_inputs(work / name, stack, spec, "scan"))
        result = run_scan(spec, threads=1)
        problems = workloads.check(name, result.quantities, result.energies_ev,
                                   result.data)
        if problems:
            raise SystemExit(f"{name}: seed-0 output fails its checks: {problems}")
        out[name] = {
            "spec_sha256": workloads.sha256_text(spec.canonical_json()),
            "csv_sha256": workloads.sha256_file(result.path),
            "summary": workloads.summarize(result.quantities, result.data),
        }
        print(f"{name}: {out[name]['csv_sha256']}")
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

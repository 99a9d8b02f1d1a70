"""Seeded scan inputs and the output checks applied after every scan.

Each workload starts from one bundled scan spec under ``configs/``.
Seed 0 reproduces that spec exactly (``force_map`` additionally sets
``balance.slices`` to 32). Any other seed perturbs the energy-grid
endpoints and every distinct refractive index by up to ``_REL_JITTER``
and shifts the position grid by up to ``_GRID_SHIFT`` of a step. Grid
sizes, layer count, reservoir temperatures and slice count never change,
so every seed asks for the same amount of work, and the reservoir
temperatures the checks rely on stay at 300 K and 400 K.

The library only ever sees the generated files: a stack config and a
scan spec that refers to it, the same layout as the bundled configs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

_REL_JITTER = 0.03
_GRID_SHIFT = 0.4          # of a step; keeps force probes off the interfaces
_K_B_EV = 8.617333262e-5   # Boltzmann constant, eV/K (CODATA 2018)
T_COLD, T_HOT = 300.0, 400.0

# A summary value agrees with the seed-0 reference when it is within
# REF_RTOL times the column's largest reference magnitude.
REF_RTOL = 1e-6
# Slack on the Bose-Einstein and temperature bounds, for roundoff only.
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    spec_file: str
    balance: dict | None


WORKLOADS = {
    w.name: w
    for w in (
        # 9 ldos/n/T maps on 200x200, no self-consistent layer: run_scan's
        # own CSV formatting and the per-position spectral calls do the
        # work, thermo and mechanics none. Moves with the CSV writer and
        # position batching; a balance-solver change should show nothing.
        Workload("field_map", "cavity_field_map.yaml", None),
        # u, p, zcf, tcf, ncf on 100x100 over 34 source regions (gradient
        # region integrals), after one coupled 32-slice balance solve
        # (1088 region integrals, 25 sweeps). The grid hits four slice
        # boundaries at seed 0; that is kept on purpose.
        Workload("force_map", "passive_cavity_forces.yaml", {"slices": 32}),
        # configs/absorbing_slab_force.yaml (one balance solve per slab
        # width, ~97% in thermo) is left out for now: one scan takes about
        # 17 s, a run fits two, and their median moved by 15% or more from
        # run to run on a shared 2-vCPU host. Thermo is still measured
        # here, through force_map's balance solve.
    )
}


def _complex(raw) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    return complex(str(raw).replace(" ", "").replace("i", "j"))


def _index_text(value: complex):
    if value.imag == 0.0:
        return float(value.real)
    return f"{value.real!r}+{value.imag!r}i"


def generate(root: Path, name: str, seed: int) -> tuple[dict, dict]:
    """Return (stack config, scan spec) for one workload and seed.

    The spec's ``stack`` and ``output`` keys are left for
    :func:`write_inputs` to fill in.
    """
    workload = WORKLOADS[name]
    configs = Path(root) / "configs"
    spec = yaml.safe_load((configs / workload.spec_file).read_text())
    stack = yaml.safe_load((configs / spec["stack"]).read_text())
    spec = dict(spec)
    if workload.balance is not None:
        spec["balance"] = dict(workload.balance)
    if seed == 0:
        return stack, spec

    rng = random.Random(f"{name}:{seed}")

    def jitter(value: float) -> float:
        return value * (1.0 + _REL_JITTER * rng.uniform(-1.0, 1.0))

    # one factor per distinct index, so layers that share a material still
    # share it afterwards, and lossless stays lossless
    factors: dict[complex, tuple[float, float]] = {}
    layers = []
    for layer in stack["layers"]:
        n = _complex(layer["n"])
        if n not in factors:
            factors[n] = (jitter(1.0), jitter(1.0))
        re_f, im_f = factors[n]
        layers.append({**layer, "n": _index_text(complex(n.real * re_f, n.imag * im_f))})
    stack = {**stack, "layers": layers}

    energies = dict(spec["energies"])
    energies["start"] = jitter(float(energies["start"]))
    energies["stop"] = jitter(float(energies["stop"]))
    spec["energies"] = energies

    if "positions" in spec:
        pos = dict(spec["positions"])
        step = (float(pos["stop"]) - float(pos["start"])) / (int(pos["count"]) - 1)
        shift = _GRID_SHIFT * step * rng.uniform(-1.0, 1.0)
        pos["start"] = float(pos["start"]) + shift
        pos["stop"] = float(pos["stop"]) + shift
        spec["positions"] = pos
    return stack, spec


def shrink(spec: dict) -> dict:
    """The same spec on a tiny grid: used to warm a process up and by
    the self-test. Keeps the endpoints, the stack and the balance."""
    small = dict(spec)
    for key, count in (("positions", 4), ("energies", 5)):
        if key in small:
            small[key] = {**small[key], "count": count}
    return small


def write_inputs(directory: Path, stack: dict, spec: dict, tag: str) -> Path:
    """Write ``<tag>.stack.yaml`` and ``<tag>.yaml``; return the spec path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stack_path = directory / f"{tag}.stack.yaml"
    stack_path.write_text(yaml.safe_dump(stack, sort_keys=False))
    spec = {**spec, "stack": stack_path.name, "output": f"{tag}.csv"}
    spec_path = directory / f"{tag}.yaml"
    spec_path.write_text(yaml.safe_dump(spec, sort_keys=False))
    return spec_path


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bose_einstein(energy_ev, temperature: float):
    return 1.0 / np.expm1(np.asarray(energy_ev, float) / (_K_B_EV * temperature))


def check(name: str, quantities, energies_ev, data) -> list[str]:
    """Physical checks on one scan's data[axis, energy, quantity].

    Returns one line per violated check; an empty list means the output
    passed.
    """
    problems = []
    if not np.isfinite(data).all():
        problems.append(f"{int((~np.isfinite(data)).sum())} non-finite values")
        return problems
    cols = {q: data[:, :, i] for i, q in enumerate(quantities)}
    if name == "field_map":
        lo = bose_einstein(energies_ev, T_COLD) * (1.0 - BOUND_RTOL)
        hi = bose_einstein(energies_ev, T_HOT) * (1.0 + BOUND_RTOL)
        for q in ("n_e", "n_m", "n_tot"):
            bad = int(((cols[q] < lo) | (cols[q] > hi)).sum())
            if bad:
                problems.append(f"{q}: {bad} values outside the 300 K..400 K "
                                "Bose-Einstein band")
        for q in ("T_e", "T_m", "T_tot"):
            v = cols[q]
            bad = int(((v < T_COLD * (1.0 - BOUND_RTOL))
                       | (v > T_HOT * (1.0 + BOUND_RTOL))).sum())
            if bad:
                problems.append(f"{q}: {bad} values outside [300, 400] K")
    elif name == "force_map":
        bad = int((cols["u"] <= 0.0).sum())
        if bad:
            problems.append(f"u: {bad} values <= 0")
    return problems


def summarize(quantities, data) -> dict:
    """Compact per-column summary: min, max and mean of each quantity."""
    return {
        q: [float(data[:, :, i].min()), float(data[:, :, i].max()),
            float(data[:, :, i].mean())]
        for i, q in enumerate(quantities)
    }


def compare_summary(summary: dict, reference: dict) -> list[str]:
    problems = []
    if sorted(summary) != sorted(reference):
        return [f"columns {sorted(summary)} differ from the reference {sorted(reference)}"]
    for q, got in summary.items():
        want = reference[q]
        scale = max(abs(want[0]), abs(want[1]))
        for label, a, b in zip(("min", "max", "mean"), got, want):
            if abs(a - b) > REF_RTOL * scale:
                problems.append(f"{q} {label} {a!r} differs from reference {b!r}")
    return problems


def load_reference(root: Path) -> dict:
    path = Path(root) / "perfbench" / "reference.json"
    return json.loads(path.read_text())

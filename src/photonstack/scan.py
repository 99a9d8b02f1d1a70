"""Grid scans over position and photon energy, written as plot-ready CSV.

Two modes, selected by the quantity list. A pointwise scan samples field
quantities (LDOS, photon numbers, effective temperatures, energy density,
pressure, force densities) on a position grid. A slab scan sweeps the
width of the central layer of a five-layer template, keeping the wall
separation fixed and the slab centered, and reports the net spectral
force on the slab from the pressure difference at the midpoints of the
two host segments.

Output is deterministic: fixed column order, x-major rows, 9 significant
digits, and a metadata block whose embedded spec suffices to reproduce
the data section byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, PhotonStackError
from .greens import solve_wave_basis
from .mechanics import (
    _INTERFACE_CLEARANCE,
    _edge_distance,
    energy_pressure,
    fd_residual,
    force_density,
    net_force,
)
from .spectral import effective_temperatures, ldos, occupation_sums
from .stack import (
    Layer,
    LayerStack,
    TemperatureProfile,
    _read_yaml,
    build_stack,
    load_stack,
    serialize_stack,
)
from .thermo import check_balance_settings, solve_self_consistent
from .units import LDOS_UNIT, MICRON, omega_from_ev

# name -> (paper-units tag, SI tag, attribute path on _PointValues); only
# the LDOS columns differ between unit systems, and slab_force is computed
# by the slab scan, not at points
_QUANTITY_TABLE = {
    "ldos_e": ("2/(pi c S)", "s/m^3", "densities.electric"),
    "ldos_m": ("2/(pi c S)", "s/m^3", "densities.magnetic"),
    "ldos_tot": ("2/(pi c S)", "s/m^3", "densities.total"),
    "n_e": ("1", "1", "numbers.electric"),
    "n_m": ("1", "1", "numbers.magnetic"),
    "n_tot": ("1", "1", "numbers.total"),
    "T_e": ("K", "K", "temperatures.electric"),
    "T_m": ("K", "K", "temperatures.magnetic"),
    "T_tot": ("K", "K", "temperatures.total"),
    "u": ("J s/m^3", "J s/m^3", "energy.energy_density"),
    "p": ("N s/m^2", "N s/m^2", "energy.pressure"),
    "zcf": ("N s/m^3", "N s/m^3", "force.zero_point"),
    "tcf": ("N s/m^3", "N s/m^3", "force.thermal"),
    "ncf": ("N s/m^3", "N s/m^3", "force.occupation"),
    "slab_force": ("N s/m^2", "N s/m^2", None),
}
QUANTITIES = tuple(_QUANTITY_TABLE)
POINTWISE_QUANTITIES = tuple(q for q in QUANTITIES if _QUANTITY_TABLE[q][2])

_FORCE_QUANTITIES = frozenset({"zcf", "tcf", "ncf"})

_BALANCE_DEFAULTS = {
    "slices": 16,
    "tolerance_K": 1e-3,
    "max_iterations": 100,
    "relaxation": 0.5,
}


def _integer(value, where: str) -> int:
    # int() would truncate 2.7 and accept True or "16"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, not {value!r}")
    return int(value)


def _real(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, not {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Inclusive 1D grid; log scale spaces points geometrically."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    @classmethod
    def from_mapping(cls, data, where: str) -> "GridSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: grid must be a mapping")
        unknown = set(data) - {"start", "stop", "count", "scale"}
        if unknown:
            raise ConfigError(f"{where}: unknown grid keys {sorted(unknown)}")
        missing = {"start", "stop", "count"} - set(data)
        if missing:
            raise ConfigError(
                f"{where}: grid needs start/stop/count (missing {sorted(missing)})"
            )
        start = _real(data["start"], f"{where}: start")
        stop = _real(data["stop"], f"{where}: stop")
        count = _integer(data["count"], f"{where}: count")
        scale = data.get("scale", "linear")
        if scale not in ("linear", "log"):
            raise ConfigError(f"{where}: scale must be 'linear' or 'log'")
        if count < 1:
            raise ConfigError(f"{where}: count must be >= 1")
        if count > 1 and not stop > start:
            raise ConfigError(f"{where}: stop must exceed start")
        if count == 1 and stop != start:
            raise ConfigError(f"{where}: a single-point grid needs stop == start")
        if scale == "log" and start <= 0.0:
            raise ConfigError(f"{where}: log grids need start > 0")
        return cls(start, stop, count, scale)

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)

    def mapping(self) -> dict:
        return {
            "start": float(self.start),
            "stop": float(self.stop),
            "count": int(self.count),
            "scale": self.scale,
        }


_SPEC_KEYS = {"stack", "quantities", "positions", "energies", "widths",
              "units", "balance", "output"}


@dataclass(frozen=True)
class ScanSpec:
    """A validated scan request with the stack config embedded inline."""

    stack: dict
    quantities: tuple[str, ...]
    energies: GridSpec
    positions: GridSpec | None = None
    widths: GridSpec | None = None
    units: str = "paper"
    balance: dict = dataclasses.field(default_factory=lambda: dict(_BALANCE_DEFAULTS))
    output: str | None = None

    @property
    def mode(self) -> str:
        return "slab" if "slab_force" in self.quantities else "pointwise"

    @classmethod
    def from_mapping(cls, data, *, base_dir=None) -> "ScanSpec":
        if not isinstance(data, dict):
            raise ConfigError("scan spec must be a mapping")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown scan keys {sorted(unknown)}")

        raw_stack = data.get("stack")
        base = Path(base_dir) if base_dir is not None else None
        if isinstance(raw_stack, str):
            path = Path(raw_stack)
            if base is not None and not path.is_absolute():
                path = base / path
            stack = load_stack(path)
        elif isinstance(raw_stack, dict):
            stack = build_stack(raw_stack, base_dir=base)
        else:
            raise ConfigError("scan spec needs 'stack': a config path or inline mapping")
        normalized = serialize_stack(stack)

        quantities = data.get("quantities")
        if not isinstance(quantities, list) or not quantities:
            raise ConfigError("scan spec needs a nonempty 'quantities' list")
        bad = [q for q in quantities if q not in QUANTITIES]
        if bad:
            raise ConfigError(f"unknown quantities {bad}; valid: {list(QUANTITIES)}")
        if len(set(quantities)) != len(quantities):
            raise ConfigError("duplicate quantities in scan spec")
        quantities = tuple(quantities)

        if "energies" not in data:
            raise ConfigError("scan spec needs an 'energies' grid (eV)")
        energies = GridSpec.from_mapping(data["energies"], "energies")
        if energies.start <= 0.0:
            raise ConfigError("energies: photon energies must be positive")

        positions = widths = None
        if "positions" in data:
            positions = GridSpec.from_mapping(data["positions"], "positions")
        if "widths" in data:
            widths = GridSpec.from_mapping(data["widths"], "widths")
            if widths.start < 0.0:
                raise ConfigError("widths: slab widths must be >= 0")

        if "slab_force" in quantities:
            if len(quantities) != 1:
                raise ConfigError("slab_force cannot be combined with pointwise quantities")
            if widths is None:
                raise ConfigError("slab_force scans need a 'widths' grid (um)")
            if positions is not None:
                raise ConfigError("slab_force scans take no 'positions' grid")
        else:
            if positions is None:
                raise ConfigError("pointwise scans need a 'positions' grid (um)")
            if widths is not None:
                raise ConfigError("'widths' only applies to slab_force scans")

        units = data.get("units", "paper")
        if units not in ("paper", "si"):
            raise ConfigError("units must be 'paper' or 'si'")

        balance = dict(_BALANCE_DEFAULTS)
        if "balance" in data:
            overrides = data["balance"]
            if not isinstance(overrides, dict):
                raise ConfigError("balance settings must be a mapping")
            unknown = set(overrides) - set(_BALANCE_DEFAULTS)
            if unknown:
                raise ConfigError(f"unknown balance keys {sorted(unknown)}")
            balance.update(overrides)
        for key in ("slices", "max_iterations"):
            balance[key] = _integer(balance[key], f"balance {key}")
        for key in ("tolerance_K", "relaxation"):
            balance[key] = _real(balance[key], f"balance {key}")
        check_balance_settings(**balance)

        output = data.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a path string")
        if output is not None and base is not None and not Path(output).is_absolute():
            output = str(base / output)

        return cls(normalized, quantities, energies, positions, widths,
                   units, balance, output)

    @classmethod
    def from_file(cls, path) -> "ScanSpec":
        p = Path(path)
        return cls.from_mapping(_read_yaml(p, "scan spec"), base_dir=p.parent)

    @classmethod
    def from_metadata(cls, csv_path) -> "ScanSpec":
        """Rebuild the spec embedded in a scan's own metadata block."""
        p = Path(csv_path)
        try:
            lines = p.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read scan output {p}: {exc}") from None
        for line in lines:
            if not line.startswith("#"):
                break
            body = line.lstrip("#").strip()
            if body.startswith("spec: "):
                try:
                    data = json.loads(body[len("spec: "):])
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"corrupt spec metadata in {p}: {exc}") from None
                return cls.from_mapping(data)
        raise ConfigError(f"no spec metadata block found in {p}")

    def canonical_mapping(self) -> dict:
        out = {
            "stack": self.stack,
            "quantities": list(self.quantities),
            "energies": self.energies.mapping(),
            "positions": self.positions.mapping() if self.positions else None,
            "widths": self.widths.mapping() if self.widths else None,
            "units": self.units,
            "balance": dict(self.balance),
        }
        return {k: v for k, v in out.items() if v is not None}

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_mapping(), sort_keys=True,
                          separators=(",", ":"))

    def stack_sha256(self) -> str:
        blob = json.dumps(self.stack, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class ScanResult:
    """In-memory copy of one finished scan: data[axis, energy, quantity]."""

    axis_name: str
    energies_ev: np.ndarray
    quantities: tuple[str, ...]
    data: np.ndarray
    path: Path | None
    fd_residual_max: float | None = None


class _PointValues:
    """Lazy evaluation at a 1-D array of positions in one layer: the mode
    densities and the occupation sums are computed at most once, in one
    call each, and every quantity is built from them. The sums carry
    field-point derivatives only when a force is wanted."""

    def __init__(self, stack, basis, profile, x, forces):
        self.stack = stack
        self.basis = basis
        self.profile = profile
        self.x = x
        self.forces = forces

    @cached_property
    def densities(self):
        return ldos(self.stack, self.basis, self.x)

    @cached_property
    def sums(self):
        return occupation_sums(self.stack, self.basis, self.profile, self.x,
                               gradient=self.forces)

    @property
    def numbers(self):
        return self.sums.numbers

    @cached_property
    def temperatures(self):
        return effective_temperatures(self.numbers, self.basis.omega)

    @cached_property
    def energy(self):
        return energy_pressure(self.basis.omega, self.densities, self.numbers)

    @cached_property
    def force(self):
        return force_density(self.stack, self.basis, self.densities, self.sums)


def _pointwise_chunk(payload):
    """Evaluate one chunk of positions over the whole energy grid, one
    pass per layer; top-level for pickling. With ``fd_check`` the second
    result holds the finite-difference residual per (position, energy),
    NaN where no check was made."""
    xs, stack, profile, omega, quantities, units, fd_check = payload
    basis = solve_wave_basis(stack, omega)
    block = np.empty((len(xs), omega.size, len(quantities)))
    fd = np.full((len(xs), omega.size), np.nan) if fd_check else None
    ldos_scale = LDOS_UNIT if units == "paper" else 1.0
    forces = not _FORCE_QUANTITIES.isdisjoint(quantities)
    layers = stack.layer_index(xs)
    for j in np.unique(layers):
        rows = layers == j
        pv = _PointValues(stack, basis, profile, xs[rows], forces)
        for q_i, q in enumerate(quantities):
            vals = attrgetter(_QUANTITY_TABLE[q][2])(pv)
            if q.startswith("ldos_"):
                vals = vals / ldos_scale
            block[rows, :, q_i] = vals
        if fd_check:
            fd[rows] = fd_residual(stack, basis, profile, pv.x, pv.force.total)
    return block, fd


@dataclass(frozen=True)
class _SlabTemplate:
    """Five-layer wall/host/slab/host/wall geometry with a fixed wall gap."""

    wall_left: Layer
    wall_right: Layer
    host: Layer
    slab: Layer
    gap: float

    @classmethod
    def from_stack(cls, stack: LayerStack) -> "_SlabTemplate":
        layers = stack.layers
        if len(layers) != 5:
            raise ConfigError(
                "slab_force scans need a five-layer stack: wall, host, slab, host, wall"
            )
        left, host_l, slab, host_r, right = layers
        problems = []
        if host_l.lossy or host_r.lossy:
            problems.append("host layers (1 and 3) must be lossless")
        if host_l.index != host_r.index:
            problems.append("host layers (1 and 3) must share one index")
        if problems:
            raise ConfigError("; ".join(problems))
        gap = host_l.thickness + slab.thickness + host_r.thickness
        return cls(left, right, host_l, slab, gap)

    def at_width(self, width: float) -> LayerStack:
        if not 0.0 <= width < self.gap:
            raise ConfigError(
                f"slab width {width / MICRON:g} um must lie in [0, {self.gap / MICRON:g}) um"
            )
        if width == 0.0:
            layers = [
                self.wall_left,
                dataclasses.replace(self.host, thickness=self.gap),
                self.wall_right,
            ]
        else:
            side = 0.5 * (self.gap - width)
            layers = [
                self.wall_left,
                dataclasses.replace(self.host, thickness=side),
                dataclasses.replace(self.slab, thickness=width),
                dataclasses.replace(self.host, thickness=side),
                self.wall_right,
            ]
        return LayerStack.assemble(layers)

    def probes(self, width: float) -> tuple[float, float]:
        # midpoints of the two host segments, measured from the left wall
        quarter = 0.25 * (self.gap - width)
        return quarter, self.gap - quarter


def _profile(stack: LayerStack, balance: dict) -> TemperatureProfile:
    """The stack's fixed temperatures, with self-consistent layers solved."""
    if any(layer.self_consistent for layer in stack.layers):
        return solve_self_consistent(stack, **balance).profile
    return TemperatureProfile.from_stack(stack)


def _slab_chunk(payload):
    widths, template, omega, balance = payload
    block = np.empty((len(widths), omega.size, 1))
    for i, w in enumerate(widths):
        stack = template.at_width(w)
        profile = _profile(stack, balance)
        basis = solve_wave_basis(stack, omega)
        x1, x2 = template.probes(w)
        block[i, :, 0] = net_force(stack, basis, profile, x1, x2)
    return block, None


def _chunks(values, n: int):
    bounds = np.linspace(0, len(values), n + 1).astype(int)
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _run_chunks(worker, payloads):
    """One process per payload, so a thread count above the axis length
    forks no idle workers."""
    if len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        return list(pool.map(worker, payloads))


def run_scan(
    spec: ScanSpec,
    *,
    output=None,
    threads: int = 1,
    fd_check: bool = False,
) -> ScanResult:
    """Execute a scan and write its CSV.

    ``threads`` (at least 1) splits the positions (pointwise scans) or
    the widths (slab scans) into that many ordered chunks, at most one
    per axis point and one process each; every process sees the whole
    energy grid and the chunks are joined in order, so the output bytes,
    fd-check line included, do not depend on the thread count.
    ``fd_check`` needs a force-density quantity to check. A failed run
    leaves no partial output file behind.
    """
    target = output if output is not None else spec.output
    if target is None:
        raise ConfigError("scan spec has no output path and none was given")
    target = Path(target)
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1, not {threads}")
    if fd_check and _FORCE_QUANTITIES.isdisjoint(spec.quantities):
        raise ConfigError("--fd-check needs a force-density quantity (zcf, tcf or ncf)")

    stack = build_stack(spec.stack)
    energies_ev = spec.energies.values()
    omega = omega_from_ev(energies_ev)
    meta = [
        f"photonstack {__version__} scan",
        f"stack-sha256: {spec.stack_sha256()}",
        f"mode: {spec.mode}",
        f"units: {spec.units}",
    ]
    if any(layer.self_consistent for layer in stack.layers):
        meta.append(
            "solver: slices={slices} tolerance_K={tolerance_K:g} "
            "max_iterations={max_iterations} relaxation={relaxation:g}".format(**spec.balance)
        )
    if spec.mode == "slab":
        template = _SlabTemplate.from_stack(stack)
        axis_name, axis_values = "width_um", spec.widths.values()
        if axis_values[-1] * MICRON >= template.gap:
            raise ConfigError(
                f"widths reach {axis_values[-1]:g} um but the wall gap is only "
                f"{template.gap / MICRON:g} um"
            )
        worker, context = _slab_chunk, (template, omega, spec.balance)
    else:
        axis_name, axis_values = "x_um", spec.positions.values()
        if _FORCE_QUANTITIES & set(spec.quantities):
            dist = _edge_distance(axis_values * MICRON, stack.interfaces)
            on = np.flatnonzero(dist < _INTERFACE_CLEARANCE)
            if on.size:
                raise ConfigError(
                    f"position {axis_values[on[0]]:g} um lies on a layer interface; "
                    "force densities are undefined there (shift the grid)"
                )
        worker = _pointwise_chunk
        context = (stack, _profile(stack, spec.balance), omega, spec.quantities,
                   spec.units, fd_check)
    # each payload is one ordered chunk of the axis (in metres), then the
    # context every chunk shares
    payloads = [(chunk, *context)
                for chunk in _chunks(axis_values * MICRON, threads)]
    results = _run_chunks(worker, payloads)
    data = np.concatenate([r[0] for r in results], axis=0)
    fd_max = None
    if results[0][1] is not None:
        # a position counts as unchecked when any of its residuals is NaN
        fd = np.concatenate([r[1] for r in results], axis=0)
        unchecked = np.isnan(fd).any(axis=1)
        fd_max = float(np.max(fd[~unchecked], initial=0.0))
        meta.append(f"fd-check: max-rel-residual={fd_max:.3e} "
                    f"unchecked={np.count_nonzero(unchecked)}")

    if not np.isfinite(data).all():
        raise PhotonStackError("scan produced non-finite values; refusing to write")

    tag = 0 if spec.units == "paper" else 1
    col_units = [f"{axis_name} [um]", "E_eV [eV]"]
    col_units += [f"{q} [{_QUANTITY_TABLE[q][tag]}]" for q in spec.quantities]
    meta.append("columns: " + ", ".join(col_units))
    meta.append("spec: " + spec.canonical_json())

    _write_csv(target, meta, axis_name, axis_values, energies_ev,
               spec.quantities, data)
    return ScanResult(axis_name, energies_ev, spec.quantities, data, target, fd_max)


def _write_csv(target: Path, meta, axis_name, axis_values, energies_ev,
               quantities, data) -> None:
    tmp = target.with_name(target.name + ".part")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            for line in meta:
                f.write(f"# {line}\n")
            f.write(",".join([axis_name, "E_eV", *quantities]) + "\n")
            # one axis value's rows at a time keeps the memory flat; adding
            # 0.0 turns -0.0 into 0.0, which %.9g writes as "0"
            block = np.empty((len(energies_ev), 2 + len(quantities)))
            block[:, 1] = energies_ev
            for a, values in zip(axis_values, data):
                block[:, 0] = a
                block[:, 2:] = values
                block += 0.0
                np.savetxt(f, block, fmt="%.9g", delimiter=",")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_scan_csv(path):
    """Read back a scan CSV: (metadata lines, header columns, float array)."""
    meta, header, rows = [], None, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line.lstrip("#").strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise ConfigError(f"{path} has no header row")
    return meta, header, np.array(rows)

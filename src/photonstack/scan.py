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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, PhotonStackError
from .greens import solve_wave_basis
from .mechanics import PointField, check_off_interfaces, fd_residual, net_force
from .stack import (Layer, LayerStack, _brief, _count, _integer, _mapping, _read_text,
                    _read_yaml, _real, build_stack, load_stack, serialize_stack)
from .thermo import check_balance_settings, solve_self_consistent
from .units import LDOS_UNIT, MICRON, omega_from_ev

# name -> (paper-units tag, SI tag, attribute path on PointField); only
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
    "u": ("J s/m^3", "J s/m^3", "energy"),
    "p": ("N s/m^2", "N s/m^2", "energy"),
    "zcf": ("N s/m^3", "N s/m^3", "force.zero_point"),
    "tcf": ("N s/m^3", "N s/m^3", "force.thermal"),
    "ncf": ("N s/m^3", "N s/m^3", "force.occupation"),
    "slab_force": ("N s/m^2", "N s/m^2", None),
}
QUANTITIES = tuple(_QUANTITY_TABLE)
POINTWISE_QUANTITIES = tuple(q for q in QUANTITIES if _QUANTITY_TABLE[q][2])

_FORCE_QUANTITIES = frozenset({"zcf", "tcf", "ncf"})

@dataclass(frozen=True)
class GridSpec:
    """Inclusive 1D grid; log scale spaces points geometrically. Building one
    checks it; a fault is a one-line ConfigError led by ``where``."""

    start: float
    stop: float
    count: int
    scale: str = "linear"
    where: str = dataclasses.field(default="grid", kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        start, stop, where = self.start, self.stop, self.where
        if not np.all(np.isfinite([start, stop])):
            raise ConfigError(f"{where}: start and stop must be finite")
        if not np.isfinite(stop - start):
            raise ConfigError(f"{where}: the span stop - start must be finite")
        count = _count(self.count, f"{where}: count")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"{where}: scale must be 'linear' or 'log'")
        if count > 1 and not stop > start:
            raise ConfigError(f"{where}: stop must exceed start")
        if count == 1 and stop != start:
            raise ConfigError(f"{where}: a single-point grid needs stop == start")
        if self.scale == "log" and start <= 0.0:
            raise ConfigError(f"{where}: log grids need start > 0")

    @classmethod
    def from_mapping(cls, data, where: str) -> "GridSpec":
        _mapping(data, {"start", "stop", "count", "scale"}, "grid", where,
                 required=("start", "stop", "count"))
        return cls(_real(data["start"], f"{where}: start"), _real(data["stop"], f"{where}: stop"),
                   data["count"], data.get("scale", "linear"), where=where)

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


def _check_output(path) -> None:
    """The one output-path rule, checked before any work is done."""
    if not isinstance(path, (str, os.PathLike)) or not os.fspath(path):
        raise ConfigError("output must be a nonempty path string")


@dataclass(frozen=True)
class ScanSpec:
    """A scan request with the stack config embedded inline, valid by
    construction however it is built (``dataclasses.replace`` included),
    without building a grid. It holds the LayerStack of ``stack`` and, for
    a slab scan, the five-layer template."""

    stack: dict
    quantities: tuple[str, ...]
    energies: GridSpec
    positions: GridSpec | None = None
    widths: GridSpec | None = None
    units: str = "paper"
    balance: dict = dataclasses.field(default_factory=dict)
    output: str | None = None
    layer_stack: LayerStack = dataclasses.field(init=False, repr=False, compare=False)
    template: _SlabTemplate | None = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        quantities = self.quantities
        if not isinstance(quantities, (list, tuple)) or not quantities:
            raise ConfigError("scan spec needs a nonempty 'quantities' list")
        bad = [q for q in quantities if q not in QUANTITIES]
        if bad:
            raise ConfigError(f"unknown quantities {_brief(bad)}; valid: {list(QUANTITIES)}")
        if len(set(quantities)) != len(quantities):
            raise ConfigError("duplicate quantities in scan spec")
        if self.energies.start <= 0.0:
            raise ConfigError("energies: photon energies must be positive")
        if self.widths is not None and self.widths.start < 0.0:
            raise ConfigError("widths: slab widths must be >= 0")

        slab = "slab_force" in quantities
        if slab and len(quantities) != 1:
            raise ConfigError("slab_force cannot be combined with pointwise quantities")
        if slab and self.widths is None:
            raise ConfigError("slab_force scans need a 'widths' grid (um)")
        if slab and self.positions is not None:
            raise ConfigError("slab_force scans take no 'positions' grid")
        if not slab and self.positions is None:
            raise ConfigError("pointwise scans need a 'positions' grid (um)")
        if not slab and self.widths is not None:
            raise ConfigError("'widths' only applies to slab_force scans")

        if self.units not in ("paper", "si"):
            raise ConfigError("units must be 'paper' or 'si'")
        balance = check_balance_settings(self.balance)
        if self.output is not None:
            _check_output(self.output)

        stack = build_stack(self.stack)
        template = _SlabTemplate.from_stack(stack) if slab else None
        # a grid's last point is its stop, so the widths need not be built
        if slab and self.widths.stop * MICRON >= template.gap:
            raise ConfigError(
                f"widths reach {self.widths.stop:g} um but the wall gap is only "
                f"{template.gap / MICRON:g} um"
            )
        for name, value in (("quantities", tuple(quantities)), ("balance", balance),
                            ("layer_stack", stack), ("template", template)):
            object.__setattr__(self, name, value)

    @property
    def mode(self) -> str:
        return "slab" if "slab_force" in self.quantities else "pointwise"

    @classmethod
    def from_mapping(cls, data, *, base_dir=None) -> "ScanSpec":
        """Parse a spec mapping: its keys, numbers and paths, and the stack
        (a config path or an inline mapping); construction checks the rest.
        Relative paths are resolved against ``base_dir``."""
        _mapping(data, _SPEC_KEYS, "scan", required=("stack", "quantities", "energies"))
        raw_stack = data["stack"]
        base = Path(base_dir) if base_dir is not None else None
        if isinstance(raw_stack, str):
            stack = load_stack(base / raw_stack if base is not None else raw_stack)
        elif isinstance(raw_stack, dict):
            stack = build_stack(raw_stack, base_dir=base)
        else:
            raise ConfigError("scan spec needs 'stack': a config path or inline mapping")
        grids = {where: GridSpec.from_mapping(data[where], where)
                 for where in ("energies", "positions", "widths") if where in data}
        output = data.get("output")
        if isinstance(output, str) and output and base is not None:
            output = str(base / output)
        return cls(serialize_stack(stack), data["quantities"], units=data.get("units", "paper"),
                   balance=data.get("balance", {}), output=output, **grids)

    @classmethod
    def from_file(cls, path) -> "ScanSpec":
        p = Path(path)
        return cls.from_mapping(_read_yaml(p, "scan spec"), base_dir=p.parent)

    @classmethod
    def from_metadata(cls, csv_path) -> "ScanSpec":
        """Rebuild the spec embedded in a scan's own metadata block."""
        for line in _read_text(csv_path, "scan output").splitlines():
            if not line.startswith("#"):
                break
            body = line.lstrip("#").strip()
            if body.startswith("spec: "):
                try:
                    data = json.loads(body[len("spec: "):])
                except ValueError as exc:  # bad JSON, or an integer too long to convert
                    raise ConfigError(f"corrupt spec metadata in {csv_path}: {exc}") from None
                return cls.from_mapping(data)
        raise ConfigError(f"no spec metadata block found in {csv_path}")

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


def _pointwise_chunk(payload):
    """Evaluate one chunk of positions over the whole energy grid, one
    pass per layer; top-level for pickling. With ``fd_check`` the second
    result holds the finite-difference residual per (position, energy),
    NaN where no check was made."""
    xs, profile, omega, quantities, units, fd_check = payload
    basis = solve_wave_basis(profile.stack, omega)
    block = np.empty((len(xs), omega.size, len(quantities)))
    fd = np.full((len(xs), omega.size), np.nan) if fd_check else None
    ldos_scale = LDOS_UNIT if units == "paper" else 1.0
    forces = not _FORCE_QUANTITIES.isdisjoint(quantities)
    layers = basis.stack.layer_index(xs)
    for j in np.unique(layers):
        rows = layers == j
        pv = PointField(basis, profile, xs[rows], gradient=forces)
        for q_i, q in enumerate(quantities):
            vals = attrgetter(_QUANTITY_TABLE[q][2])(pv)
            if q.startswith("ldos_"):
                vals = vals / ldos_scale
            block[rows, :, q_i] = vals
        if fd_check:
            fd[rows] = fd_residual(basis, profile, pv.points.x, pv.force.total)
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
        return LayerStack(layers)

    def probes(self, width: float) -> tuple[float, float]:
        # midpoints of the two host segments, measured from the left wall
        quarter = 0.25 * (self.gap - width)
        return quarter, self.gap - quarter


def _slab_chunk(payload):
    widths, template, omega, balance = payload
    block = np.empty((len(widths), omega.size, 1))
    for i, w in enumerate(widths):
        stack = template.at_width(w)
        profile = solve_self_consistent(stack, **balance).profile
        basis = solve_wave_basis(stack, omega)
        x1, x2 = template.probes(w)
        block[i, :, 0] = net_force(basis, profile, x1, x2)
    return block, None


def _chunks(values, n: int):
    # more chunks than values would only add empty ones
    bounds = np.linspace(0, len(values), min(n, len(values)) + 1).astype(int)
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
    _check_output(target)
    target = Path(target)
    if _integer(threads, "--threads") < 1:
        raise ConfigError(f"--threads must be at least 1, not {threads}")
    if fd_check and _FORCE_QUANTITIES.isdisjoint(spec.quantities):
        raise ConfigError("--fd-check needs a force-density quantity (zcf, tcf or ncf)")

    stack = spec.layer_stack
    energies_ev = spec.energies.values()
    omega = omega_from_ev(energies_ev)
    meta = [
        f"photonstack {__version__} scan",
        f"stack-sha256: {spec.stack_sha256()}",
        f"mode: {spec.mode}",
        f"units: {spec.units}",
    ]
    if any(layer.self_consistent for layer in stack.layers):
        meta.append("solver: " + " ".join(  # integers in full, not as 1.23457e+06
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in spec.balance.items()))
    if spec.mode == "slab":
        axis_name, axis_values = "width_um", spec.widths.values()
        worker, context = _slab_chunk, (spec.template, omega, spec.balance)
    else:
        axis_name, axis_values = "x_um", spec.positions.values()
        if _FORCE_QUANTITIES & set(spec.quantities):
            check_off_interfaces(stack, axis_values * MICRON)
        worker = _pointwise_chunk
        context = (solve_self_consistent(stack, **spec.balance).profile, omega,
                   spec.quantities, spec.units, fd_check)
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

    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        a, e, q = bad[0]
        raise PhotonStackError(
            f"scan produced a non-finite {spec.quantities[q]} at {axis_name} = "
            f"{axis_values[a]:g}, E_eV = {energies_ev[e]:g}; refusing to write")

    tag = 0 if spec.units == "paper" else 1
    col_units = [f"{axis_name} [um]", "E_eV [eV]"]
    col_units += [f"{q} [{_QUANTITY_TABLE[q][tag]}]" for q in spec.quantities]
    meta.append("columns: " + ", ".join(col_units))
    meta.append("spec: " + spec.canonical_json())

    _write_csv(target, meta, axis_name, axis_values, energies_ev,
               spec.quantities, data)
    return ScanResult(axis_name, energies_ev, spec.quantities, data, target, fd_max)


def _write_file(target, chunks) -> None:
    """The one file write: ``chunks`` (bytes) go to ``target`` through a
    ``.part`` file; on any failure it is removed and ``target`` is kept."""
    tmp = Path(f"{target}.part")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(target: Path, meta, axis_name, axis_values, energies_ev,
               quantities, data) -> None:
    def chunks():
        yield "".join(f"# {line}\n" for line in meta).encode()
        yield (",".join([axis_name, "E_eV", *quantities]) + "\n").encode()
        # each cell is C-printf %.9g of value + 0.0 (-0.0 reads "0"); one
        # bytes % per axis block (a str % raised the peak RSS by ~2 MB)
        rows = [b",%.9g" % e + b",%.9g" * len(quantities)
                for e in (energies_ev + 0.0).tolist()]
        for a, values in zip((axis_values + 0.0).tolist(), data):
            a = b"%.9g" % a
            block = a + (b"\n" + a).join(rows) + b"\n"
            yield block % tuple((values + 0.0).ravel().tolist())

    _write_file(target, chunks())


def read_scan_csv(path):
    """Read back a scan CSV: (metadata lines, header columns, float array)."""
    meta, header, rows = [], None, []
    try:
        for line in _read_text(path, "scan output").splitlines():
            if line.startswith("#"):
                meta.append(line.lstrip("#").strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
        data = np.array(rows)
    except ValueError:  # a cell that is not a number, or rows of unequal length
        raise ConfigError(f"{path}: malformed data row") from None
    if header is None:
        raise ConfigError(f"{path} has no header row")
    return meta, header, data

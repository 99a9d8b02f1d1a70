"""Grid scans over position and photon energy, written as plot-ready CSV.

Two modes, selected by the quantity list. A pointwise scan samples field
quantities (LDOS, photon numbers, effective temperatures, energy density,
pressure, force densities) on a position grid. A slab scan sweeps the
width of the central layer of a five-layer template, keeping the wall
separation fixed and the slab centered, and reports the net spectral
force on the slab from the pressure difference at the midpoints of the
two host segments. It solves its widths in ascending order, in one
process; ``run_scan``'s ``threads`` keyword must be the integer 1.

Output is deterministic: fixed column order, x-major rows, 9 significant
digits, and a three-line metadata block (the version, the column units
and the spec) whose spec line suffices to reproduce the file byte for
byte.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, PhotonStackError
from .greens import solve_wave_basis
from .mechanics import PointField, check_off_interfaces, fd_residual, net_force
from .stack import (Layer, LayerStack, _brief, _count, _mapping, _read_text,
                    _read_yaml, _real, build_stack, load_stack, serialize_stack)
from .thermo import check_balance_settings, solve_self_consistent
from .units import EV, LDOS_UNIT, MICRON, hbar, omega_from_ev

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

# Pointwise scans work in passes of whole positions, as many as fit in
# about this many cells, so a pass's temporaries stay bounded whatever the
# grid. The evaluation counts (position, energy) pairs, a few hundred
# bytes of temporaries each; the CSV writer counts formatted values. Its
# per-value uint64 temporaries (at most 64 KB) stay under glibc's 128 KB
# mmap threshold, but a pass's (values, 3) cell array and its assembled
# rows do not: 172.8 and 217.6 KB for 4 positions of a 200-energy,
# 9-quantity map (writer passes of 2**15 cells were slower and raised
# the peak RSS).
_PASS_CELLS = 2 ** 13

@dataclass(frozen=True)
class GridSpec:
    """Inclusive 1D grid; log scale spaces points geometrically. Building one
    checks it and stores its bounds as floats and its count as an int; a
    fault is a one-line ConfigError led by ``where``."""

    start: float
    stop: float
    count: int
    scale: str = "linear"
    where: str = dataclasses.field(default="grid", kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        where = self.where
        start, stop = _real(self.start, f"{where}: start"), _real(self.stop, f"{where}: stop")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{where}: start and stop must be finite")
        if not math.isfinite(stop - start):
            raise ConfigError(f"{where}: the span stop - start must be finite")
        count = _count(self.count, f"{where}: count")
        for name, value in (("start", start), ("stop", stop), ("count", count)):
            object.__setattr__(self, name, value)
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
        return cls(data["start"], data["stop"], data["count"], data.get("scale", "linear"),
                   where=where)

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)

    def mapping(self) -> dict:
        return {"start": self.start, "stop": self.stop, "count": self.count,
                "scale": self.scale}


_SPEC_KEYS = {"stack", "quantities", "positions", "energies", "widths",
              "units", "balance", "output"}
_JSON = {"sort_keys": True, "separators": (",", ":")}  # the canonical form of a spec line


def _check_output(path) -> None:
    """The one output-path rule, checked before any work is done."""
    if not isinstance(path, (str, os.PathLike)) or not os.fspath(path):
        raise ConfigError("output must be a nonempty path string")
    if "\0" in os.fsdecode(path):
        raise ConfigError("output path must not contain a NUL character")


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
        for where in ("energies", "positions", "widths"):
            grid = getattr(self, where)
            if not isinstance(grid, GridSpec) and (grid is not None or where == "energies"):
                raise ConfigError(f"{where}: expected a grid, not {_brief(grid)}")
        if self.energies.start <= 0.0:
            raise ConfigError("energies: photon energies must be positive")
        # the grid ascends, so its stop gives its largest omega
        if not math.isfinite(self.energies.stop * (EV / hbar)):
            raise ConfigError(f"energies: stop {self.energies.stop:g} eV overflows the "
                              "angular frequency")
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
        return cls.from_mapping(read_spec(csv_path, "scan"))

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
        return json.dumps(self.canonical_mapping(), **_JSON)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """In-memory copy of one finished scan: data[axis, energy, quantity]."""

    axis_name: str
    energies_ev: np.ndarray
    quantities: tuple[str, ...]
    data: np.ndarray
    path: Path | None
    fd_residual_max: float | None = None
    fd_unchecked: int | None = None


def _pointwise(basis, xs, profile, quantities, units, fd_check):
    """Evaluate the positions ``xs`` (m) over the whole energy grid of
    ``basis`` in passes of at most ``_PASS_CELLS`` cells, each within one
    layer, into one block. With ``fd_check`` the second result holds the
    finite-difference residual per (position, energy), NaN where no check
    was made."""
    block = np.empty((len(xs), basis.omega.size, len(quantities)))
    fd = np.full((len(xs), basis.omega.size), np.nan) if fd_check else None
    ldos_scale = LDOS_UNIT if units == "paper" else 1.0
    # the positions ascend, so each layer's positions are one run
    runs = np.flatnonzero(np.diff(basis.stack.layer_index(xs))) + 1
    step = max(1, _PASS_CELLS // basis.omega.size)
    for lo, hi in zip([0, *runs], [*runs, len(xs)]):
        for a in range(lo, hi, step):
            rows = slice(a, min(a + step, hi))
            pv = PointField(basis, profile, xs[rows])
            for q_i, q in enumerate(quantities):
                vals = attrgetter(_QUANTITY_TABLE[q][2])(pv)
                if q.startswith("ldos_"):
                    vals = vals / ldos_scale
                block[rows, :, q_i] = vals
            if fd_check:
                fd[rows] = fd_residual(basis, profile, pv.points.x, pv.force.total)
            del pv, vals  # a pass's arrays are gone before the next pass builds its own
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
        entries = serialize_stack(stack)["layers"]
        if entries[1]["n"] != entries[3]["n"]:
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


def run_scan(
    spec: ScanSpec,
    *,
    output=None,
    threads: int = 1,
    fd_check: bool = False,
) -> ScanResult:
    """Execute a scan and write its CSV.

    A slab scan solves its widths in ascending order, each with its own
    balance solve, all in this process. ``threads`` must be the integer
    1; the keyword goes once the benchmark stops passing it. ``fd_check``
    needs a force-density quantity and reports on the result, never in the
    file. The scan grid's wave basis is solved before any balance. A
    failed run leaves no partial output file behind.
    """
    target = output if output is not None else spec.output
    if target is None:
        raise ConfigError("scan spec has no output path and none was given")
    _check_target(target)
    target = Path(target)
    if type(threads) is not int or threads != 1:
        raise ConfigError(f"threads must be the integer 1, not {_brief(threads)}")
    if fd_check and _FORCE_QUANTITIES.isdisjoint(spec.quantities):
        raise ConfigError("--fd-check needs a force-density quantity (zcf, tcf or ncf)")

    stack = spec.layer_stack
    energies_ev = spec.energies.values()
    omega = omega_from_ev(energies_ev)
    if spec.mode == "slab":
        axis_name, axis_values = "width_um", spec.widths.values()
        template, rows = spec.template, []
        for w in axis_values * MICRON:
            at_w = template.at_width(w)
            basis = solve_wave_basis(at_w, omega)
            profile = solve_self_consistent(at_w, **spec.balance).profile
            rows.append(net_force(basis, profile, *template.probes(w)))
        data, fd = np.stack(rows)[:, :, None], None
    else:
        axis_name, axis_values = "x_um", spec.positions.values()
        xs = axis_values * MICRON
        if _FORCE_QUANTITIES & set(spec.quantities):
            check_off_interfaces(stack, xs)
        basis = solve_wave_basis(stack, omega)
        profile = solve_self_consistent(stack, **spec.balance).profile
        data, fd = _pointwise(basis, xs, profile, spec.quantities, spec.units, fd_check)
    fd_record = ()
    if fd_check:
        # a position counts as unchecked when any of its residuals is NaN
        unchecked = np.isnan(fd).any(axis=1)
        fd_record = float(np.max(fd[~unchecked], initial=0.0)), np.count_nonzero(unchecked)

    # a NaN or an infinity reaches data.min() or data.max(), and neither
    # builds a mask the size of data
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        a, e, q = np.argwhere(~np.isfinite(data))[0]
        raise PhotonStackError(
            f"scan produced a non-finite {spec.quantities[q]} at {axis_name} = "
            f"{axis_values[a]:g}, E_eV = {energies_ev[e]:g}; refusing to write")

    tag = 0 if spec.units == "paper" else 1
    col_units = [f"{axis_name} [um]", "E_eV [eV]"]
    col_units += [f"{q} [{_QUANTITY_TABLE[q][tag]}]" for q in spec.quantities]
    _write_csv(target, _header("scan", col_units, spec.canonical_mapping()), axis_name,
               axis_values, energies_ev, spec.quantities, data)
    return ScanResult(axis_name, energies_ev, spec.quantities, data, target, *fd_record)


def _header(kind: str, columns, spec: dict) -> str:
    """The comment block of every file photonstack writes; ``read_spec`` reads it."""
    return (f"# photonstack {__version__} {kind}\n# columns: {', '.join(columns)}\n"
            f"# spec: {json.dumps(spec, **_JSON)}\n")


def _check_target(target) -> None:
    """The output-path rule, then, before any solve, the OSError that
    writing ``target`` would raise if its directory is missing or it is one."""
    _check_output(target)
    target = Path(target)
    if not target.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target.parent))
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))


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


# A significand this close to a rounding tie is left to C printf; the
# float error of the scaling is about 2e-7.
_TIE_BAND = 1e-5
_TEN = 10.0 ** np.arange(-300, 301)                                # _TEN[300 + k] = 10**k
_LOW = np.array([(1 << 8 * j) - 1 for j in range(9)], np.uint64)  # the low j bytes
_DOT = np.uint64(ord(".") << 56)


def _layouts():
    """%g's layout of nine digits d0 d1..d8 per decimal exponent X (row
    X + 300). A cell is three little-endian words of NUL-padded bytes:
    comma, sign, lead "0." to "0.000" (-4 <= X < 0) and d0 in byte 7, or
    d0 and its dot in bytes 6 and 7 (exponent notation); the digits d1..
    before the dot, which takes byte 7; the digits after it, or "e+XX".
    Columns: word 0's fixed bytes, d0's shift, the dot after d0, how many
    of d1.. are always written, how many precede word 1's dot (8: no dot)
    and the exponent bytes."""
    rows = []
    for x in range(-300, 301):
        if 0 <= x < 9:
            lead, shift, dot, keep, split, tail = b"", 56, 0, x, x, b""
        elif -4 <= x < 0:
            lead, shift, dot, keep, split, tail = b"0." + b"0" * (-x - 1), 56, 0, 0, 8, b""
        else:
            lead, shift, dot, keep, split, tail = b"", 48, int(_DOT), 0, 8, b"e%+03d" % x
        rows.append((ord(",") | int.from_bytes(lead, "little") << 16, shift, dot, keep,
                     split, int.from_bytes(tail, "little")))
    head, shift, dot, keep, split, tail = (np.array(c, np.uint64) for c in zip(*rows))
    return head, shift, dot, keep.astype(np.intp), split.astype(np.intp), tail


_HEAD, _D0_SHIFT, _D0_DOT, _KEEP, _SPLIT, _TAIL = _layouts()


def _printf_cells(values) -> np.ndarray:
    """The cells of ``values`` by C printf itself: what the fast path leaves out."""
    cells = b"".join((b",%.9g" % v).ljust(24, b"\0") for v in values.tolist())
    return np.frombuffer(cells, "<u8").reshape(-1, 3)


def _cells(values) -> np.ndarray:
    """``b",%.9g" % (v + 0.0)`` for each value, as the (n, 3) words of
    NUL-padded cells (see _layouts). Values near a rounding tie and
    magnitudes outside [1e-280, 1e280) go to C printf."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    inrange = (a >= 1e-280) & (a < 1e280)
    a1 = np.where(inrange, a, 1.0)
    # the significand s = a * 10**(8 - e) in [1e8, 1e9): log10 may give
    # e one too high, so step down if s < 1e8; an s that rounds to 1e9
    # carries into the next decade, and one above that goes to C printf
    e = np.floor(np.log10(a1)).astype(np.intp)
    e -= a1 * _TEN[308 - e] < 1e8
    s = a1 * _TEN[308 - e]
    m = np.rint(s)
    slow = np.flatnonzero((np.abs(s - m) > 0.5 - _TIE_BAND) | (m > 1e9)
                          | (~inrange & (a != 0)))
    carry = m == 1e9
    e += carry
    m[carry] = 1e8
    m = (m * (a != 0)).astype(np.uint64)  # zero: all digits 0, e = 0
    d0 = m // 100_000_000
    rest = m - d0 * 100_000_000
    # SWAR: the digits d1..d8 as the bytes of one word, d1 lowest
    q = rest // 10_000
    x = q | (rest - q * 10_000) << 32                  # two 4-digit lanes
    q = ((x * 5243) >> 19) & 0x0000007F0000007F       # // 100
    x = q | (x - q * 100) << 16                        # four 2-digit lanes
    q = ((x * 103) >> 10) & 0x000F000F000F000F        # // 10
    digits = q | (x - q * 10) << 8
    # bytes up to the last nonzero digit, from the word's bit length
    count = (np.frexp(digits.astype(np.float64))[1] + 7) >> 3
    row = e + 300
    digits = (digits + 0x3030303030303030) & _LOW[np.maximum(count, _KEEP[row])]
    split = _SPLIT[row]
    before, after = digits & _LOW[split], digits >> (8 * split).astype(np.uint64)
    cells = np.empty((v.size, 3), np.uint64)
    cells[:, 0] = (_HEAD[row] | (v < 0) * np.uint64(ord("-") << 8)
                   | (d0 + ord("0")) << _D0_SHIFT[row] | (digits != 0) * _D0_DOT[row])
    cells[:, 1] = before | (after != 0) * _DOT
    cells[:, 2] = after | _TAIL[row]
    if slow.size:
        cells[slow] = _printf_cells(v[slow])
    return cells


def _write_csv(target: Path, head: str, axis_name, axis_values, energies_ev,
               quantities, data) -> None:
    def chunks():
        yield (head + ",".join([axis_name, "E_eV", *quantities]) + "\n").encode()
        # each row: axis cell (its comma dropped), energy cell, quantity
        # cells, newline; the NUL padding goes in one translate per pass
        n_e, n_q = len(energies_ev), len(quantities)
        axis_cells = _cells(axis_values)
        axis_cells[:, 0] &= ~np.uint64(0xFF)
        energy_cells = _cells(energies_ev)
        step = max(1, _PASS_CELLS // (n_e * n_q))
        for a in range(0, len(axis_values), step):
            block = data[a:a + step]
            rows = np.empty((len(block), n_e, 3 * n_q + 7), np.uint64)
            rows[:, :, :3] = axis_cells[a:a + step, None]
            rows[:, :, 3:6] = energy_cells
            rows[:, :, 6:-1] = _cells(block).reshape(len(block), n_e, 3 * n_q)
            rows[:, :, -1] = ord("\n")
            yield rows.astype("<u8", copy=False).tobytes().translate(None, b"\0")

    _write_file(target, chunks())


def read_spec(path, kind: str) -> dict:
    """The spec of a photonstack ``kind`` file, or a ConfigError naming the file."""
    lines = _read_text(path, "photonstack output").splitlines()
    for line in lines:
        if not line.startswith("#"):
            break
        body = line.lstrip("#").strip()
        if body.startswith("spec: "):
            try:
                data = json.loads(body[len("spec: "):])
            except (ValueError, RecursionError) as exc:
                # bad JSON, an integer too long to convert, or nesting too deep
                raise ConfigError(f"corrupt spec metadata in {path}: {exc}") from None
            if not lines[0].endswith(f" {kind}"):  # the version line names the kind
                raise ConfigError(f"{path} is not a photonstack {kind} file: {lines[0]}")
            return data
    raise ConfigError(f"no spec metadata block found in {path}")


def read_scan_csv(path):
    """Read back any CSV photonstack writes: (metadata lines, header columns, floats)."""
    meta, header, rows = [], None, []
    try:
        for line in _read_text(path, "photonstack output").splitlines():
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

"""Layer geometry, material model, and temperature assignment.

A stack is a finite sequence of homogeneous layers along x. The global
origin sits at the first interface, so the left semi-infinite layer
occupies x < 0. An interface point belongs to the layer on its right;
every position lookup in the package follows that convention.

Stacks are described by a small YAML schema (see the repository README):
a ``layers`` list in which each entry carries ``thickness`` (um, or
``inf`` for the two outer layers), ``n`` (a real number, a complex
literal such as ``1.5+0.3i``, or ``{table: file.csv}`` for dispersive
data), and an optional ``temperature`` (kelvin, ``self-consistent``, or
``none``). Parsing is strict: unknown keys are rejected.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, MissingTemperatureError
from .units import MICRON, ev_from_omega, omega_from_ev

SELF_CONSISTENT = "self-consistent"

_TOP_KEYS = {"name", "layers"}
_LAYER_KEYS = {"thickness", "n", "temperature"}
_TABLE_COLUMNS = ("E_eV", "n_re", "n_im")


@dataclass(frozen=True)
class ConstantIndex:
    """Frequency-independent complex refractive index."""

    value: complex

    def at(self, omega):
        return complex(self.value)

    @property
    def values(self) -> np.ndarray:
        """The index as a one-node table, the shape of TabulatedIndex.values."""
        return np.array([complex(self.value)])


@dataclass(frozen=True, eq=False)
class TabulatedIndex:
    """Complex index sampled on a photon-energy grid, interpolated linearly.

    Requests outside the tabulated range raise instead of extrapolating.
    """

    omega: np.ndarray
    values: np.ndarray
    origin: str = ""

    def at(self, omega):
        w = np.asarray(omega, dtype=float)
        if np.any(w < self.omega[0]) or np.any(w > self.omega[-1]):
            raise ConfigError(
                f"index table {self.origin or '<inline>'} does not cover the "
                "requested frequency range"
            )
        out = np.interp(w, self.omega, self.values.real) + 1j * np.interp(
            w, self.omega, self.values.imag
        )
        return out if out.shape else complex(out)


@dataclass(frozen=True)
class Layer:
    """One homogeneous layer: thickness in meters (inf at the stack ends),
    an index model, and an optional thermal assignment."""

    thickness: float
    index: ConstantIndex | TabulatedIndex
    temperature: float | None = None
    self_consistent: bool = False

    @property
    def semi_infinite(self) -> bool:
        return self.thickness == math.inf

    @property
    def losses(self) -> np.ndarray:
        """Im[n^2] = 2 Re[n] Im[n] at the index model's nodes. Between two
        nodes it is a product of two nonnegative linear functions, so its
        minimum there is a node value and it vanishes on a segment only if
        it vanishes at both ends."""
        n = self.index.values
        return (n * n).imag

    @property
    def lossy(self) -> bool:
        """Whether the layer absorbs, and so emits, at some frequency of
        its index model: Im[n^2] > 0 at any node."""
        return bool(np.any(self.losses > 0.0))

    @property
    def has_assignment(self) -> bool:
        return self.temperature is not None or self.self_consistent


def _kelvin(t) -> bool:
    """The one temperature rule: t is a positive real number (a bool or a
    numeric string is not) within the finite float range."""
    return (not isinstance(t, bool) and isinstance(t, numbers.Real)
            and 0 < t <= sys.float_info.max)


def _increasing(values) -> bool:
    """Whether ``values`` are real numbers, each below the next; compared,
    not subtracted, so nothing overflows, and a NaN is below nothing."""
    return (all(isinstance(v, numbers.Real) for v in values)
            and all(a < b for a, b in zip(values, values[1:])))


_EMITTERS_ONLY = ("a temperature assignment requires a lossy medium (Im[n^2] > 0), "
                  "since only lossy layers emit")


def _check_layer(i: int, layer: Layer, last: int, problems: list[str]) -> None:
    outer = i == 0 or i == last
    if outer:
        if not layer.semi_infinite:
            problems.append(f"layer {i}: outer layers must have thickness inf")
    else:
        if not (layer.thickness > 0 and math.isfinite(layer.thickness)):
            problems.append(f"layer {i}: interior thickness must be finite and > 0")
    index = layer.index
    if isinstance(index, TabulatedIndex) and not np.all(np.isfinite(index.omega)):
        problems.append(f"layer {i}: tabulated energies must be finite")
    n = index.values
    if not np.all(np.isfinite(n)):
        problems.append(f"layer {i}: refractive index must be finite")
    if np.any(n.real <= 0) or np.any(n.imag < 0):
        problems.append(f"layer {i}: refractive index must have Re[n] > 0 and "
                        "Im[n] nonnegative (passive media)")
    if layer.temperature is not None and layer.self_consistent:
        problems.append(f"layer {i}: temperature cannot be both fixed and self-consistent")
    if layer.temperature is not None and not _kelvin(layer.temperature):
        problems.append(f"layer {i}: temperature must be positive and finite")
    if layer.has_assignment and not layer.lossy:
        problems.append(f"layer {i}: {_EMITTERS_ONLY}")
    if layer.self_consistent and layer.semi_infinite:
        problems.append(f"layer {i}: a semi-infinite layer cannot be self-consistent")


@dataclass(frozen=True, eq=False)
class LayerStack:
    """An ordered sequence of layers with interface positions; building one
    validates it and raises one ConfigError listing every problem.

    ``interfaces[m]`` separates layer m from layer m+1; the first entry
    is the coordinate origin. ``allow_lossless_bounds`` relaxes the
    requirement that the outer layers absorb, which is only meant for
    idealized structures in analysis code (photon-number integrals over
    such a stack do not converge).
    """

    layers: tuple[Layer, ...]
    allow_lossless_bounds: bool = field(default=False, kw_only=True)
    interfaces: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        problems: list[str] = []
        if len(self.layers) < 2:
            problems.append("a stack needs at least two layers")
        else:
            last = len(self.layers) - 1
            for i, layer in enumerate(self.layers):
                _check_layer(i, layer, last, problems)
            if not self.allow_lossless_bounds:
                for i in (0, last):
                    if not np.all(self.layers[i].losses > 0.0):
                        problems.append(
                            f"layer {i}: outer layers must be lossy at every "
                            "energy so that photon-number integrals converge"
                        )
        if problems:
            raise ConfigError("; ".join(problems))
        interfaces = [0.0]
        for i, layer in enumerate(self.layers[1:-1], start=1):
            x = interfaces[-1] + layer.thickness
            if x == interfaces[-1]:
                problems.append(
                    f"layer {i}: thickness {layer.thickness:g} m is too thin to "
                    f"separate its interfaces at x = {x:g} m"
                )
            interfaces.append(x)
        if problems:
            raise ConfigError("; ".join(problems))
        object.__setattr__(self, "interfaces", tuple(interfaces))

    def layer_index(self, x):
        """Index of the layer holding x; for an array of points, an integer
        array of the same shape."""
        return np.searchsorted(self.interfaces, x, side="right")

    def layer_of(self, x) -> int:
        """Index of the one layer holding every point of x (a point or a
        1-D array of points); raises ValueError if they span several."""
        found = self.layer_index(x)
        if np.size(found) == 0 or np.min(found) != np.max(found):
            raise ValueError("field points must lie within one layer")
        return int(np.min(found))

    def layer_bounds(self, j: int) -> tuple[float, float]:
        lo = -math.inf if j == 0 else self.interfaces[j - 1]
        hi = math.inf if j == len(self.layers) - 1 else self.interfaces[j]
        return lo, hi

    @property
    def span(self) -> tuple[float, float]:
        return self.interfaces[0], self.interfaces[-1]


# ---------------------------------------------------------------------------
# configuration ingestion: one helper per input rule, shared by every reader

# the most float64 values an array can hold; numpy refuses more outright
_MAX_COUNT = np.iinfo(np.intp).max // 8


def _brief(value) -> str:
    # reprlib bounds a repr's length, but an integer past 4300 digits raises
    try:
        return reprlib.repr(value)
    except ValueError:
        return type(value).__name__


def _read_text(path, what: str) -> str:
    """The one file read: the text of ``path`` decoded as UTF-8, or a
    one-line ConfigError naming ``what`` and the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path, undecodable text
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _mapping(data, keys, what: str = "", where: str = "", required=()) -> dict:
    """``data``, checked to be a mapping with no key outside ``keys`` and
    every key of ``required``; the one-line ConfigError leads with
    ``where`` and names the kind of mapping, ``what``."""
    head, kind = (f"{where}: " if where else ""), (f"{what} " if what else "")
    if not isinstance(data, dict):
        raise ConfigError(f"{head}expected a {kind}mapping, not {_brief(data)}")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{head}unknown {kind}keys {_brief(sorted(unknown, key=_brief))}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ConfigError(f"{head}{kind}needs {'/'.join(required)} (missing {missing})")
    return data


def _integer(value, where: str) -> int:
    # int() would truncate 2.7 and accept True or "16"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, not {_brief(value)}")
    return int(value)


def _count(value, where: str) -> int:
    """A positive integer that can size an array."""
    count = _integer(value, where)
    if not 1 <= count <= _MAX_COUNT:
        raise ConfigError(f"{where} must be >= 1" if count < 1
                          else f"{where} is more than an array can hold")
    return count


def _real(value, where: str, words=()):
    """The one number rule: a float for an int, a float, a numpy scalar or
    a numeric string such as the 1e1 that PyYAML leaves unconverted (a
    bool is not a number), or the one of ``words`` that a string spells in
    any case; anything else is a one-line ConfigError naming ``where``."""
    if isinstance(value, str) and value.strip().lower() in words:
        return value.strip().lower()
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # integers beyond the float range
            raise ConfigError(f"{where}: number out of range") from None
        except ValueError:
            pass
    expected = " or ".join(["a number", *map(repr, words)])
    raise ConfigError(f"{where} must be {expected}, not {_brief(value)}")


def _parse_complex(raw, where: str) -> complex:
    if not isinstance(raw, str):
        return complex(_real(raw, f"{where}: refractive index"))
    text = raw.strip().replace(" ", "")
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise ConfigError(
            f"{where}: cannot parse complex index {_brief(raw)}; use e.g. 1.5+0.3i"
        ) from None


def _index_table(columns, where: str, origin: str = "") -> TabulatedIndex:
    """The tabulated index of three columns (E_eV, n_re, n_im): equal-length
    numeric lists of at least two rows, with strictly increasing energies."""
    try:
        if not all(isinstance(c, list) for c in columns):
            raise TypeError
        energies, re, im = (np.array([_real(v, where) for v in c], dtype=float)
                            for c in columns)
    except (TypeError, ConfigError):
        raise ConfigError(f"{where}: index table entries must be numeric lists") from None
    if not len(energies) == len(re) == len(im) >= 2:
        raise ConfigError(f"{where}: index table columns must match and have >= 2 rows")
    if np.any(energies[1:] <= energies[:-1]):
        raise ConfigError(f"{where}: table energies must be strictly increasing")
    with np.errstate(over="ignore"):  # _check_layer rejects the infinite frequency
        omega = np.asarray(omega_from_ev(energies))
    return TabulatedIndex(omega, re + 1j * im, origin)


def _load_index_table(path: Path, where: str) -> TabulatedIndex:
    lines = [ln.strip() for ln in _read_text(path, "index table").splitlines() if ln.strip()]
    if not lines or tuple(s.strip() for s in lines[0].split(",")) != _TABLE_COLUMNS:
        raise ConfigError(
            f"{where}: index table {path} must start with header "
            + ",".join(_TABLE_COLUMNS)
        )
    rows = [ln.split(",") for ln in lines[1:]]
    for ln, row in zip(lines[1:], rows):
        if len(row) != 3:
            raise ConfigError(f"{where}: malformed table row {_brief(ln)} in {path}")
    return _index_table([[row[k] for row in rows] for k in range(3)], where, str(path))


def _parse_layer(i: int, entry, base_dir: Path | None) -> Layer:
    where = f"layer {i}"
    _mapping(entry, _LAYER_KEYS, where=where, required=("thickness", "n"))

    thickness = _real(entry["thickness"], f"{where}: thickness", ("inf",))
    thickness = math.inf if thickness == "inf" else thickness * MICRON

    raw_n = entry["n"]
    if not isinstance(raw_n, dict):
        index = ConstantIndex(_parse_complex(raw_n, where))
    elif "table" not in _mapping(raw_n, {"table", *_TABLE_COLUMNS}, "index", where):
        index = _index_table([raw_n.get(k) for k in _TABLE_COLUMNS], where)
    elif len(raw_n) != 1:
        raise ConfigError(f"{where}: 'table' cannot mix with inline columns")
    elif not isinstance(raw_n["table"], str):
        raise ConfigError(f"{where}: 'table' must be a file path")
    else:
        path = Path(raw_n["table"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        index = _load_index_table(path, where)

    t = entry.get("temperature")
    if t is not None:
        t = _real(t, f"{where}: temperature", ("none", SELF_CONSISTENT))
    return Layer(thickness, index, None if isinstance(t, str) else t, t == SELF_CONSISTENT)


def build_stack(config, *, base_dir: Path | str | None = None) -> LayerStack:
    """Build a validated LayerStack from a parsed configuration mapping.

    ``base_dir`` resolves relative index-table paths. All validation
    problems are reported together in a single ConfigError.
    """
    entries = _mapping(config, _TOP_KEYS, "top-level").get("layers")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config needs a nonempty 'layers' list")
    base = Path(base_dir) if base_dir is not None else None
    layers = [_parse_layer(i, e, base) for i, e in enumerate(entries)]
    return LayerStack(layers)


def _read_yaml(path: Path, what: str):
    """Parse a YAML file; unreadable or malformed files give a one-line
    ConfigError naming the problem and, when known, its line and column."""
    try:
        return yaml.safe_load(_read_text(path, what))
    except ValueError as exc:  # an integer literal too long to convert
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    except RecursionError:  # PyYAML's composer recurses once per nesting level
        raise ConfigError(f"invalid YAML in {path}: nested too deeply") from None
    except yaml.YAMLError as exc:
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"invalid YAML in {path}: {problem}{where}") from None


def load_stack(path) -> LayerStack:
    """Load and build a stack from a YAML config file."""
    p = Path(path)
    return build_stack(_read_yaml(p, "stack config"), base_dir=p.parent)


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return repr(float(v.real))
    return f"{float(v.real)!r}+{float(v.imag)!r}i"


def serialize_stack(stack: LayerStack) -> dict:
    """Serialize a stack back to its configuration mapping.

    Tabulated indices are emitted inline so the result is self-contained;
    numeric values round-trip through repr.
    """
    out_layers = []
    for layer in stack.layers:
        entry: dict = {}
        entry["thickness"] = "inf" if layer.semi_infinite else layer.thickness / MICRON
        if isinstance(layer.index, ConstantIndex):
            entry["n"] = _format_complex(complex(layer.index.value))
        else:
            tab = layer.index
            entry["n"] = {
                "E_eV": [float(v) for v in ev_from_omega(tab.omega)],
                "n_re": [float(v) for v in tab.values.real],
                "n_im": [float(v) for v in tab.values.imag],
            }
        if layer.self_consistent:
            entry["temperature"] = SELF_CONSISTENT
        elif layer.temperature is not None:
            entry["temperature"] = layer.temperature
        out_layers.append(entry)
    return {"layers": out_layers}


# ---------------------------------------------------------------------------
# temperature profiles

@dataclass(frozen=True)
class LayerSlices:
    """Uniform-width temperature slices tiling one finite layer."""

    boundaries: tuple[float, ...]
    temperatures: tuple[float, ...]


@dataclass(frozen=True)
class TemperatureProfile:
    """The thermal state of one stack, per layer: a fixed kelvin value, a
    sliced interior profile, or None. Building one checks it against the
    stack and raises a one-line ConfigError for an entry list of the wrong
    length, a temperature that is not a finite positive number, slices
    that do not tile their layer, or an entry on a layer that does not
    emit; no invalid profile exists.

    ``edges`` lists the interfaces and the interior slice boundaries, in
    order: the occupancy gradient jumps across each of them.
    """

    stack: LayerStack
    entries: tuple[float | LayerSlices | None, ...]
    edges: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != len(self.stack.layers):
            raise ConfigError("profile length does not match the stack")
        edges = list(self.stack.interfaces)
        for j, (layer, entry) in enumerate(zip(self.stack.layers, self.entries)):
            if entry is None:
                continue
            if not layer.lossy:
                raise ConfigError(f"layer {j}: {_EMITTERS_ONLY}")
            if isinstance(entry, LayerSlices):
                b = entry.boundaries
                if len(b) != len(entry.temperatures) + 1:
                    raise ConfigError(f"layer {j}: slice boundaries do not match")
                if (b[0], b[-1]) != self.stack.layer_bounds(j) or not _increasing(b):
                    raise ConfigError(f"layer {j}: slices must exactly tile the layer")
                if not all(map(_kelvin, entry.temperatures)):
                    raise ConfigError(
                        f"layer {j}: slice temperatures must be finite positive numbers")
                edges.extend(b[1:-1])
            elif not _kelvin(entry):
                raise ConfigError(f"layer {j}: temperature must be a finite positive "
                                  f"number, not {_brief(entry)}")
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @classmethod
    def from_stack(cls, stack: LayerStack) -> "TemperatureProfile":
        """The stack's own fixed temperatures; a layer still marked
        self-consistent raises MissingTemperatureError."""
        for i, layer in enumerate(stack.layers):
            if layer.self_consistent:
                raise MissingTemperatureError(
                    f"layer {i} is marked {SELF_CONSISTENT}; run the balance "
                    "solver to resolve its temperature first"
                )
        return cls(stack, [layer.temperature for layer in stack.layers])

    @classmethod
    def uniform(cls, stack: LayerStack, temperature: float) -> "TemperatureProfile":
        """Assign one temperature to every lossy layer (thermal equilibrium)."""
        if not _kelvin(temperature):
            raise ConfigError("temperature must be a finite positive number, "
                              f"not {_brief(temperature)}")
        return cls(stack, [temperature if layer.lossy else None for layer in stack.layers])

    @classmethod
    def sliced(cls, stack: LayerStack, edges: dict, temps) -> "TemperatureProfile":
        """The stack's fixed temperatures, with each self-consistent layer j
        cut at ``edges[j]`` into slices at the matching row of ``temps``."""
        entries = [layer.temperature for layer in stack.layers]
        for (j, layer_edges), layer_temps in zip(edges.items(), temps):
            entries[j] = LayerSlices(tuple(float(b) for b in layer_edges),
                                     tuple(float(t) for t in layer_temps))
        return cls(stack, entries)

    @cached_property
    def sources(self) -> tuple[tuple[int, tuple[float, ...], tuple[float, ...]], ...]:
        """The emitting layers, left to right, each as ``(layer, edges,
        temperatures)``: the uniform-temperature regions between
        consecutive edges, a sliced layer's slices or a fixed layer whole.

        Raises MissingTemperatureError if a lossy layer has no entry:
        photon-number integrals need every emitter's temperature, but the
        mode densities of such a stack do not.
        """
        sources = []
        for j, (layer, entry) in enumerate(zip(self.stack.layers, self.entries)):
            if isinstance(entry, LayerSlices):
                sources.append((j, entry.boundaries, tuple(map(float, entry.temperatures))))
            elif entry is not None:
                sources.append((j, self.stack.layer_bounds(j), (float(entry),)))
            elif layer.lossy:
                raise MissingTemperatureError(
                    f"layer {j} is lossy but has no temperature assignment")
        return tuple(sources)

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
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, MissingTemperatureError

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

    def loss_floor(self) -> float:
        # smallest Im[n^2] over the validity range
        return (self.value * self.value).imag


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

    def loss_floor(self) -> float:
        # Im[n^2] = 2 Re[n] Im[n] is quadratic between nodes with its
        # extrema on the nodes, so the node minimum bounds the segment.
        return float(np.min((self.values * self.values).imag))


@dataclass(frozen=True)
class Layer:
    """One homogeneous layer: thickness in meters (inf at the stack ends),
    an index model, and an optional thermal assignment."""

    thickness: float
    index: ConstantIndex | TabulatedIndex
    temperature: float | None = None
    self_consistent: bool = False

    def n_at(self, omega):
        return self.index.at(omega)

    @property
    def semi_infinite(self) -> bool:
        return math.isinf(self.thickness)

    @property
    def lossy(self) -> bool:
        return self.index.loss_floor() > 0.0

    @property
    def has_assignment(self) -> bool:
        return self.temperature is not None or self.self_consistent


def _check_layer(i: int, layer: Layer, last: int, problems: list[str]) -> None:
    outer = i == 0 or i == last
    if outer:
        if not layer.semi_infinite:
            problems.append(f"layer {i}: outer layers must have thickness inf")
    else:
        if not (layer.thickness > 0 and math.isfinite(layer.thickness)):
            problems.append(f"layer {i}: interior thickness must be finite and > 0")
    if isinstance(layer.index, ConstantIndex):
        v = complex(layer.index.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            problems.append(f"layer {i}: refractive index must be finite")
        if v.real <= 0:
            problems.append(f"layer {i}: Re[n] must be positive (passive media)")
        if v.imag < 0:
            problems.append(f"layer {i}: Im[n] must be nonnegative (passive media)")
    else:
        tab = layer.index
        if np.any(tab.values.real <= 0) or np.any(tab.values.imag < 0):
            problems.append(
                f"layer {i}: tabulated index must have Re[n] > 0 and Im[n] >= 0"
            )
    if layer.temperature is not None and layer.self_consistent:
        problems.append(f"layer {i}: temperature cannot be both fixed and self-consistent")
    if layer.temperature is not None and not layer.temperature > 0:
        problems.append(f"layer {i}: temperature must be positive")
    if layer.has_assignment and not layer.lossy:
        problems.append(
            f"layer {i}: a temperature assignment requires a lossy medium "
            "(Im[n^2] > 0); only lossy layers emit"
        )
    if layer.self_consistent and layer.semi_infinite:
        problems.append(f"layer {i}: a semi-infinite layer cannot be self-consistent")


@dataclass(frozen=True, eq=False)
class LayerStack:
    """An ordered, validated sequence of layers with interface positions.

    ``interfaces[m]`` separates layer m from layer m+1; the first entry
    is the coordinate origin. ``allow_lossless_bounds`` relaxes the
    requirement that the outer layers absorb, which is only meant for
    idealized structures in analysis code (photon-number integrals over
    such a stack do not converge).
    """

    layers: tuple[Layer, ...]
    interfaces: tuple[float, ...]
    allow_lossless_bounds: bool = False

    @classmethod
    def assemble(cls, layers, *, allow_lossless_bounds: bool = False) -> "LayerStack":
        layers = tuple(layers)
        problems: list[str] = []
        if len(layers) < 2:
            problems.append("a stack needs at least two layers")
        else:
            last = len(layers) - 1
            for i, layer in enumerate(layers):
                _check_layer(i, layer, last, problems)
            if not allow_lossless_bounds:
                for i in (0, last):
                    if not layers[i].lossy:
                        problems.append(
                            f"layer {i}: outer layers must be lossy so that "
                            "photon-number integrals converge"
                        )
        if problems:
            raise ConfigError("; ".join(problems))
        x = 0.0
        interfaces = [0.0]
        for layer in layers[1:-1]:
            x += layer.thickness
            interfaces.append(x)
        return cls(layers, tuple(interfaces), allow_lossless_bounds)

    def layer_index(self, x: float) -> int:
        return bisect_right(self.interfaces, float(x))

    def layer_bounds(self, j: int) -> tuple[float, float]:
        lo = -math.inf if j == 0 else self.interfaces[j - 1]
        hi = math.inf if j == len(self.layers) - 1 else self.interfaces[j]
        return lo, hi

    @property
    def span(self) -> tuple[float, float]:
        return self.interfaces[0], self.interfaces[-1]


def refractive_index(stack: LayerStack, x: float, omega):
    """Complex refractive index at position x (interface points take the
    right layer) for angular frequency omega (scalar or array, rad/s)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise ConfigError("omega must be positive")
    return stack.layers[stack.layer_index(x)].n_at(omega)


# ---------------------------------------------------------------------------
# configuration ingestion

def _parse_complex(raw, where: str) -> complex:
    if isinstance(raw, bool):
        raise ConfigError(f"{where}: refractive index must be a number or a string")
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, str):
        text = raw.strip().replace(" ", "")
        if text.endswith("i"):
            text = text[:-1] + "j"
        try:
            return complex(text)
        except ValueError:
            raise ConfigError(
                f"{where}: cannot parse complex index {raw!r}; use e.g. 1.5+0.3i"
            ) from None
    raise ConfigError(f"{where}: unsupported index value {raw!r}")


def _load_index_table(path: Path, where: str) -> TabulatedIndex:
    from .units import omega_from_ev

    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{where}: cannot read index table {path}: {exc}") from None
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(s.strip() for s in lines[0].split(",")) != _TABLE_COLUMNS:
        raise ConfigError(
            f"{where}: index table {path} must start with header "
            + ",".join(_TABLE_COLUMNS)
        )
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{where}: malformed table row {ln!r} in {path}")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(f"{where}: malformed table row {ln!r} in {path}") from None
    if len(rows) < 2:
        raise ConfigError(f"{where}: index table {path} needs at least two rows")
    arr = np.array(rows, dtype=float)
    energies = arr[:, 0]
    if np.any(np.diff(energies) <= 0):
        raise ConfigError(f"{where}: table energies must be strictly increasing")
    return TabulatedIndex(
        omega=np.asarray(omega_from_ev(energies)),
        values=arr[:, 1] + 1j * arr[:, 2],
        origin=str(path),
    )


def _table_from_mapping(data, where: str) -> TabulatedIndex:
    from .units import omega_from_ev

    keys = set(data)
    if keys != set(_TABLE_COLUMNS):
        raise ConfigError(f"{where}: inline table needs keys {_TABLE_COLUMNS}")
    try:
        energies = np.asarray([float(v) for v in data["E_eV"]], dtype=float)
        re = np.asarray([float(v) for v in data["n_re"]], dtype=float)
        im = np.asarray([float(v) for v in data["n_im"]], dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: inline table entries must be numeric lists") from None
    if not (len(energies) == len(re) == len(im)) or len(energies) < 2:
        raise ConfigError(f"{where}: inline table columns must match and have >= 2 rows")
    if np.any(np.diff(energies) <= 0):
        raise ConfigError(f"{where}: table energies must be strictly increasing")
    return TabulatedIndex(omega=np.asarray(omega_from_ev(energies)), values=re + 1j * im)


def _parse_layer(i: int, entry, base_dir: Path | None) -> Layer:
    where = f"layer {i}"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: each layer must be a mapping")
    unknown = set(entry) - _LAYER_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if "thickness" not in entry or "n" not in entry:
        raise ConfigError(f"{where}: 'thickness' and 'n' are required")

    from .units import MICRON

    raw_t = entry["thickness"]
    if isinstance(raw_t, str) and raw_t.strip().lower() == "inf":
        thickness = math.inf
    elif isinstance(raw_t, (int, float)) and not isinstance(raw_t, bool):
        if math.isinf(raw_t):
            thickness = math.inf
        else:
            thickness = float(raw_t) * MICRON
    else:
        raise ConfigError(f"{where}: thickness must be a number in um or 'inf'")

    raw_n = entry["n"]
    if isinstance(raw_n, dict):
        unknown = set(raw_n) - {"table"} - set(_TABLE_COLUMNS)
        if unknown:
            raise ConfigError(f"{where}: unknown index keys {sorted(unknown)}")
        if "table" in raw_n:
            if len(raw_n) != 1:
                raise ConfigError(f"{where}: 'table' cannot mix with inline columns")
            path = Path(raw_n["table"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            index = _load_index_table(path, where)
        else:
            index = _table_from_mapping(raw_n, where)
    else:
        index = ConstantIndex(_parse_complex(raw_n, where))

    temperature = None
    self_consistent = False
    raw_T = entry.get("temperature")
    if raw_T is None or (isinstance(raw_T, str) and raw_T.strip().lower() == "none"):
        pass
    elif isinstance(raw_T, str) and raw_T.strip().lower() == SELF_CONSISTENT:
        self_consistent = True
    elif isinstance(raw_T, (int, float)) and not isinstance(raw_T, bool):
        temperature = float(raw_T)
    else:
        raise ConfigError(
            f"{where}: temperature must be kelvin, '{SELF_CONSISTENT}', or 'none'"
        )
    return Layer(thickness, index, temperature, self_consistent)


def build_stack(config, *, base_dir: Path | str | None = None) -> LayerStack:
    """Build a validated LayerStack from a parsed configuration mapping.

    ``base_dir`` resolves relative index-table paths. All validation
    problems are reported together in a single ConfigError.
    """
    if not isinstance(config, dict):
        raise ConfigError("stack config must be a mapping")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    entries = config.get("layers")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config needs a nonempty 'layers' list")
    base = Path(base_dir) if base_dir is not None else None
    layers = [_parse_layer(i, e, base) for i, e in enumerate(entries)]
    return LayerStack.assemble(layers)


def load_stack(path) -> LayerStack:
    """Load and build a stack from a YAML config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path, undecodable text
        raise ConfigError(f"cannot read stack config {p}: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {p}: {exc}") from None
    return build_stack(data, base_dir=p.parent)


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return repr(float(v.real))
    return f"{float(v.real)!r}+{float(v.imag)!r}i"


def serialize_stack(stack: LayerStack, name: str | None = None) -> dict:
    """Serialize a stack back to its configuration mapping.

    Tabulated indices are emitted inline so the result is self-contained;
    numeric values round-trip through repr.
    """
    from .units import MICRON, ev_from_omega

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
    out: dict = {"layers": out_layers}
    if name:
        out = {"name": name, "layers": out_layers}
    return out


# ---------------------------------------------------------------------------
# temperature profiles

@dataclass(frozen=True)
class LayerSlices:
    """Uniform-width temperature slices tiling one finite layer."""

    boundaries: tuple[float, ...]
    temperatures: tuple[float, ...]


@dataclass(frozen=True)
class Region:
    """One uniform-temperature source region used in emission integrals."""

    layer: int
    lo: float
    hi: float
    temperature: float


@dataclass(frozen=True)
class TemperatureProfile:
    """Per-layer thermal state: a fixed kelvin value, a sliced interior
    profile, or None for layers that do not emit."""

    entries: tuple[float | LayerSlices | None, ...]

    @classmethod
    def from_stack(cls, stack: LayerStack) -> "TemperatureProfile":
        entries: list[float | LayerSlices | None] = []
        for i, layer in enumerate(stack.layers):
            if layer.self_consistent:
                raise MissingTemperatureError(
                    f"layer {i} is marked {SELF_CONSISTENT}; run the balance "
                    "solver to resolve its temperature first"
                )
            entries.append(layer.temperature)
        return cls(tuple(entries))

    @classmethod
    def uniform(cls, stack: LayerStack, temperature: float) -> "TemperatureProfile":
        """Assign one temperature to every lossy layer (thermal equilibrium)."""
        if not temperature > 0:
            raise ConfigError("temperature must be positive")
        return cls(
            tuple(temperature if layer.lossy else None for layer in stack.layers)
        )

    def replaced(self, layer: int, entry) -> "TemperatureProfile":
        entries = list(self.entries)
        entries[layer] = entry
        return TemperatureProfile(tuple(entries))

    def validate(self, stack: LayerStack) -> None:
        if len(self.entries) != len(stack.layers):
            raise ConfigError("profile length does not match the stack")
        for j, entry in enumerate(self.entries):
            if entry is None:
                continue
            if isinstance(entry, LayerSlices):
                lo, hi = stack.layer_bounds(j)
                b = entry.boundaries
                if len(b) != len(entry.temperatures) + 1:
                    raise ConfigError(f"layer {j}: slice boundaries do not match")
                if b[0] != lo or b[-1] != hi or np.any(np.diff(b) <= 0):
                    raise ConfigError(f"layer {j}: slices must exactly tile the layer")
                if any(not t > 0 for t in entry.temperatures):
                    raise ConfigError(f"layer {j}: slice temperatures must be positive")
            elif not entry > 0:
                raise ConfigError(f"layer {j}: temperature must be positive")

    def temperature_at(self, stack: LayerStack, x: float) -> float | None:
        j = stack.layer_index(x)
        entry = self.entries[j]
        if entry is None:
            return None
        if isinstance(entry, LayerSlices):
            i = bisect_right(entry.boundaries, float(x)) - 1
            i = min(max(i, 0), len(entry.temperatures) - 1)
            return entry.temperatures[i]
        return float(entry)

    def source_regions(self, stack: LayerStack) -> list[Region]:
        """Enumerate uniform-temperature emitting regions, left to right.

        Raises MissingTemperatureError if a lossy layer has no assignment:
        photon-number integrals need every emitter's temperature.
        """
        regions: list[Region] = []
        for j, layer in enumerate(stack.layers):
            entry = self.entries[j]
            if not layer.lossy:
                continue
            if entry is None:
                raise MissingTemperatureError(
                    f"layer {j} is lossy but has no temperature assignment"
                )
            lo, hi = stack.layer_bounds(j)
            if isinstance(entry, LayerSlices):
                for i, t in enumerate(entry.temperatures):
                    regions.append(
                        Region(j, entry.boundaries[i], entry.boundaries[i + 1], float(t))
                    )
            else:
                regions.append(Region(j, lo, hi, float(entry)))
        return regions

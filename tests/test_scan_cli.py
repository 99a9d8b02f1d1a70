import copy
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.constants
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import photonstack
import photonstack.greens as greens_mod
import photonstack.mechanics as mechanics_mod
import photonstack.scan as scan_mod
import photonstack.spectral as spectral_mod
import photonstack.thermo as thermo_mod
from photonstack import cli, units
from photonstack.errors import ConfigError, InterfacePointError, PhotonStackError
from photonstack.scan import GridSpec, ScanSpec, read_scan_csv, read_spec, run_scan
from photonstack.thermo import BALANCE_DEFAULTS
from photonstack.units import LDOS_UNIT

from oracles import savetxt_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CAVITY = {
    "layers": [
        {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
        {"thickness": 10.0, "n": 1.0},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ],
}

SLAB_5 = {
    "layers": [
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 400.0},
        {"thickness": 3.75, "n": 1.0},
        {"thickness": 2.5, "n": 1.5},
        {"thickness": 3.75, "n": 1.0},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ],
}

PASSIVE = {
    "layers": [
        {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
        {"thickness": 10.0, "n": "1.1+0.1i", "temperature": "self-consistent"},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ],
}


def write_spec(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


def small_pointwise(output="out.csv"):
    return {
        "stack": dict(CAVITY),
        "quantities": ["ldos_e", "ldos_tot", "u", "p"],
        "positions": {"start": 0.5, "stop": 9.5, "count": 6},
        "energies": {"start": 0.05, "stop": 0.2, "count": 7},
        "output": output,
    }


def small_slab(output="slab.csv"):
    return {
        "stack": dict(SLAB_5),
        "quantities": ["slab_force"],
        "widths": {"start": 0.5, "stop": 4.0, "count": 5},
        "energies": {"start": 0.06, "stop": 0.18, "count": 4},
        "output": output,
    }


def on_slab(change):
    """A spec edit that replaces the spec with a copy of ``small_slab()``
    and then applies ``change`` to it."""
    def mutate(spec):
        spec.clear()
        spec.update(copy.deepcopy(small_slab()))
        change(spec)
    return mutate


def host_table(last_n_re=1.2):
    """A lossless inline index table for a slab host layer."""
    return {"E_eV": [0.01, 0.1, 1.0], "n_re": [1.0, 1.1, last_n_re], "n_im": [0.0, 0.0, 0.0]}


# --- grid and spec validation ----------------------------------------------

def test_grid_values_linear_and_log():
    lin = GridSpec.from_mapping({"start": 0.0, "stop": 2.0, "count": 5}, "g")
    assert np.allclose(lin.values(), [0.0, 0.5, 1.0, 1.5, 2.0])
    log = GridSpec.from_mapping(
        {"start": 0.01, "stop": 1.0, "count": 3, "scale": "log"}, "g")
    assert np.allclose(log.values(), [0.01, 0.1, 1.0])
    single = GridSpec.from_mapping({"start": 3.0, "stop": 3.0, "count": 1}, "g")
    assert single.values().tolist() == [3.0]


@pytest.mark.parametrize("mapping, fragment", [
    ({"start": 0.0, "stop": 1.0}, "start/stop/count"),
    ({"start": 0.0, "stop": 1.0, "count": 0}, ">= 1"),
    ({"start": 1.0, "stop": 0.5, "count": 4}, "stop must exceed"),
    ({"start": 2.0, "stop": 3.0, "count": 1}, "stop == start"),
    ({"start": 0.0, "stop": 1.0, "count": 4, "scale": "log"}, "start > 0"),
    ({"start": 0.0, "stop": 1.0, "count": 4, "scale": "cubic"}, "linear"),
    ({"start": 0.0, "stop": 1.0, "count": 4, "step": 2}, "unknown grid keys"),
    ({"start": 0.0, "stop": 1.0, "count": 4, "step": 2, 1: 2}, "unknown grid keys"),
])
def test_grid_validation_errors(mapping, fragment):
    with pytest.raises(ConfigError, match=fragment):
        GridSpec.from_mapping(mapping, "g")


@pytest.mark.parametrize("mutate, fragment", [
    (lambda s: s.pop("quantities"), "quantities"),
    (lambda s: s.update(quantities=[]), "nonempty 'quantities' list"),
    (lambda s: s.update(quantities=["ldos_e", "vorticity"]), "unknown quantities"),
    (lambda s: s.update(quantities=["u", "u"]), "duplicate"),
    (lambda s: s.pop("energies"), "energies"),
    (lambda s: s.update(energies={"start": -0.1, "stop": 0.2, "count": 3}),
     "positive"),
    (lambda s: s.pop("positions"), "positions"),
    (lambda s: s.update(widths={"start": 0.0, "stop": 2.0, "count": 3}),
     "slab_force"),
    (lambda s: s.update(units="cgs"), "units"),
    (lambda s: s.update(balance={"slices": 8, "seed": 1}), "balance keys"),
    (lambda s: s.update(balance={1: 2, "seed": 1}), "unknown balance keys"),
    (lambda s: s.update(balance={"relaxation": 0.5}), "relaxation"),
    (lambda s: s.update(balance={"tolerance_K": 0.0}), "tolerance_K"),
    (lambda s: s.update(balance={"max_iterations": 0}), "max_iterations"),
    (lambda s: s.update(flavor="mild"), "unknown scan keys"),
    (lambda s: s.update({1: 2, "flavor": "mild"}), "scan keys"),
    (on_slab(lambda s: s["stack"]["layers"].pop(2)),
     "slab_force scans need a five-layer stack: wall, host, slab, host, wall"),
    (on_slab(lambda s: s["stack"]["layers"][1].update(n="1.0+0.1i")),
     "host layers .1 and 3. must be lossless"),
    (on_slab(lambda s: s["stack"]["layers"][3].update(n=1.2)),
     "host layers .1 and 3. must share one index"),
    (on_slab(lambda s: [s["stack"]["layers"][j].update(n=host_table(1.0 + j / 30))
                        for j in (1, 3)]),
     "^host layers \\(1 and 3\\) must share one index$"),
    (on_slab(lambda s: s["widths"].update(start=-1.0)), "widths: slab widths must be >= 0"),
    (on_slab(lambda s: s.pop("widths")), "slab_force scans need a 'widths' grid"),
])
def test_spec_validation_errors(mutate, fragment):
    data = small_pointwise()
    mutate(data)
    with pytest.raises(ConfigError, match=fragment):
        ScanSpec.from_mapping(data)


@pytest.mark.parametrize("mutate", [
    lambda s: s.update(balance={"slices": "abc"}),
    lambda s: s.update(balance={"slices": 2.7}),
    lambda s: s.update(balance={"slices": True}),
    lambda s: s.update(balance={"max_iterations": 2.7}),
    lambda s: s["positions"].update(count=2.7),
    lambda s: s["energies"].update(count="7"),
])
def test_integer_spec_fields_reject_non_integers(mutate):
    data = small_pointwise()
    mutate(data)
    with pytest.raises(ConfigError, match="must be an integer"):
        ScanSpec.from_mapping(data)


def test_cli_scan_non_integer_slices_exits_one(tmp_path, capsys):
    mapping = small_pointwise()
    mapping["balance"] = {"slices": "abc"}
    spec_path = write_spec(tmp_path, "scan.yaml", mapping)
    assert cli.main(["scan", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: balance slices must be an integer")
    assert err.count("\n") == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
_FIELDS = (
    [(key,) for key in sorted(scan_mod._SPEC_KEYS)]
    + [(grid, key) for grid in ("positions", "energies", "widths")
       for key in ("start", "stop", "count", "scale")]
    + [("balance", key) for key in sorted(BALANCE_DEFAULTS)]
)


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(slab=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(_FIELDS), _JSON), max_size=4),
       raw=st.none() | st.dictionaries(st.text(max_size=8), _JSON, max_size=4))
def test_from_mapping_returns_a_spec_or_raises_config_error(slab, edits, raw):
    """Valid specs with some fields replaced by arbitrary JSON-like values,
    and arbitrary mappings, either fail with a ConfigError or parse to a
    spec that its canonical JSON rebuilds, output aside (as from_metadata
    does)."""
    data = small_slab() if slab else small_pointwise()
    for path, value in edits:
        target = data
        for key in path[:-1]:
            if not isinstance(target.get(key), dict):
                target[key] = {}
            target = target[key]
        target[path[-1]] = value
    for mapping in (data, raw):
        if mapping is None:
            continue
        try:
            spec = ScanSpec.from_mapping(mapping)
        except ConfigError:
            continue
        rebuilt = ScanSpec.from_mapping(json.loads(spec.canonical_json()))
        assert rebuilt == dataclasses.replace(spec, output=None)


@pytest.mark.parametrize("change, fragment", [
    (lambda: {"units": "SI"}, "units must be"),
    (lambda: {"quantities": ("bogus",)}, "unknown quantities"),
    (lambda: {"positions": GridSpec(8.0, 2.0, 3)}, "stop must exceed start"),
    (lambda: {"balance": {"slices": 0}}, "balance slices"),
    (lambda: {"output": ""}, "output"),
    (lambda: {"energies": GridSpec(0.1, 1.0e300, 3)}, "^energies: stop 1e\\+300 eV"),
    (lambda: {"positions": GridSpec("x", 2.0, 3)}, "^grid: start must be a number, not 'x'$"),
    (lambda: {"positions": GridSpec(None, 2.0, 3)}, "^grid: start must be a number, not None$"),
    (lambda: {"positions": dataclasses.replace(GridSpec(2.0, 8.0, 3, where="positions"),
                                               start=True)},
     "^positions: start must be a number, not True$"),
    (lambda: {"energies": {"start": 0.1, "stop": 0.2, "count": 3}},
     "^energies: expected a grid, not {'count': 3, 'start': 0.1, 'stop': 0.2}$"),
    (lambda: {"widths": (1, 2)}, "^widths: expected a grid, not \\(1, 2\\)$"),
    (lambda: {"positions": [0, 1]}, "^positions: expected a grid, not \\[0, 1\\]$"),
], ids=["units", "quantities", "descending_grid", "balance", "empty_output",
        "overflowing_omega", "string_grid_start", "none_grid_start", "bool_grid_start",
        "mapping_energies", "tuple_widths", "list_positions"])
def test_replace_cannot_build_an_invalid_spec(change, fragment):
    """A spec checks itself however it is built, dataclasses.replace
    included, and so does each of its grids: a direct build gives the
    error that from_mapping gives."""
    spec = ScanSpec.from_mapping(small_pointwise())
    with pytest.raises(ConfigError, match=fragment) as info:
        dataclasses.replace(spec, **change())
    assert "\n" not in str(info.value)


def test_building_a_spec_builds_no_grid(monkeypatch):
    """Construction checks grids, the wall gap included, from their bounds
    alone, so a count beyond any memory still gives a spec."""
    monkeypatch.setattr(GridSpec, "values", lambda self: pytest.fail("a grid was built"))
    for data, axis in ((small_pointwise(), "positions"), (small_slab(), "widths")):
        data[axis]["count"] = 2**40
        assert ScanSpec.from_mapping(data).mode == ("slab" if axis == "widths" else "pointwise")


def test_slab_hosts_with_equal_index_tables_scan(tmp_path):
    """Two host tables with the same entries are one index: each layer
    reads its own table object, and the hosts are compared by value."""
    data = copy.deepcopy(small_slab())
    for j in (1, 3):
        data["stack"]["layers"][j]["n"] = host_table()
    spec = ScanSpec.from_mapping(data)
    run_scan(spec, output=tmp_path / "slab.csv")
    _, header, rows = read_scan_csv(tmp_path / "slab.csv")
    assert header == ["width_um", "E_eV", "slab_force"] and rows.shape == (5 * 4, 3)
    assert np.all(np.isfinite(rows))


def test_slab_spec_cannot_mix_quantities_or_take_positions():
    data = small_slab()
    data["quantities"] = ["slab_force", "u"]
    with pytest.raises(ConfigError, match="cannot be combined"):
        ScanSpec.from_mapping(data)
    data = small_slab()
    data["positions"] = {"start": 1.0, "stop": 2.0, "count": 2}
    with pytest.raises(ConfigError, match="no 'positions'"):
        ScanSpec.from_mapping(data)


# --- determinism and round trips -------------------------------------------

def test_pointwise_rerun_is_byte_identical(tmp_path):
    spec = ScanSpec.from_mapping(small_pointwise())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scan(spec, output=a)
    run_scan(spec, output=b)
    assert a.read_bytes() == b.read_bytes()


def test_slab_scan_solves_its_widths_in_order_in_this_process(tmp_path, monkeypatch):
    """A slab scan solves the balance once per width, in ascending width
    order, all in the calling process."""
    solved = []
    original = scan_mod.solve_self_consistent

    def recorded(stack, **kwargs):
        solved.append((stack.layers[2].thickness, os.getpid()))
        return original(stack, **kwargs)
    monkeypatch.setattr(scan_mod, "solve_self_consistent", recorded)
    spec = ScanSpec.from_mapping(small_slab())
    run_scan(spec, output=tmp_path / "slab.csv")
    widths = (spec.widths.values() * units.MICRON).tolist()
    assert widths == sorted(widths)
    assert solved == [(w, os.getpid()) for w in widths]
    _, header, rows = read_scan_csv(tmp_path / "slab.csv")
    assert header == ["width_um", "E_eV", "slab_force"]
    assert rows.shape == (5 * 4, 3)


@pytest.mark.parametrize("mapping, fd_check", [
    (small_pointwise(), False),
    (small_slab(), False),
    ({**small_pointwise(), "stack": dict(PASSIVE), "quantities": ["T_e", "ncf"],
      "balance": {"slices": 2, "tolerance_K": 0.5, "max_iterations": 1234567}}, False),
    ({**small_pointwise(), "units": "si"}, False),
    ({**small_pointwise(), "stack": {"layers": [
        CAVITY["layers"][0], {"thickness": 10.0, "n": host_table()}, CAVITY["layers"][2]]}},
     False),
    ({**small_pointwise(), "quantities": ["u", "zcf", "tcf", "ncf"]}, True),
], ids=["pointwise", "slab", "self_consistent", "si", "inline_table", "fd_check"])
def test_embedded_spec_reproduces_the_file(tmp_path, mapping, fd_check):
    """Every scan file, fd-checked or not, is a function of its own spec
    line: rebuilding the spec from it and running it again writes the
    same bytes."""
    first = tmp_path / "first.csv"
    run_scan(ScanSpec.from_mapping(mapping), output=first, fd_check=fd_check)
    rebuilt = ScanSpec.from_metadata(first)
    second = tmp_path / "second.csv"
    run_scan(rebuilt, output=second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("config, slices", [("passive_cavity", 16), ("passive_cavity", 32),
                                            ("absorbing_slab", 16)])
def test_a_balance_file_rebuilds_itself(tmp_path, capsys, config, slices):
    """A balance file, written to --output or printed to stdout, is a
    function of its own spec line: the balance command run from the spec
    that read_spec returns writes the same bytes, to a file or to stdout."""
    argv = ["balance", str(CONFIGS / f"{config}.yaml"), "--slices", str(slices)]
    written = tmp_path / "written.csv"
    assert cli.main(argv + ["--output", str(written)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {written}: {slices} slice temperatures")
    assert cli.main(argv) == 0
    printed = tmp_path / "printed.csv"
    printed.write_text(capsys.readouterr().out, encoding="utf-8")
    assert printed.read_bytes() == written.read_bytes()
    rebuilt = tmp_path / "rebuilt.csv"
    for source in (written, printed):
        spec = read_spec(source, "balance")
        assert cli._run_balance(spec, rebuilt) == 0
        assert rebuilt.read_bytes() == source.read_bytes()
        capsys.readouterr()
        assert cli._run_balance(spec, None) == 0
        assert capsys.readouterr().out.encode("utf-8") == source.read_bytes()


def test_read_scan_csv_reads_a_balance_file(tmp_path):
    out = tmp_path / "balance.csv"
    assert cli.main(["balance", str(CONFIGS / "passive_cavity.yaml"), "--output", str(out)]) == 0
    meta, header, rows = read_scan_csv(out)
    assert [line.split(":")[0] for line in meta] == [
        f"photonstack {photonstack.__version__} balance", "columns", "spec"]
    assert header == ["x_um", "T_K"]
    assert rows.shape == (16, 2)


def test_a_damaged_or_foreign_spec_is_one_config_error_naming_the_file(tmp_path):
    """A truncated or hand-edited spec line, a 0.3.4 balance file (which
    has no spec line) and a file of the other kind are each refused with
    one ConfigError line that names the file; the kind is named too."""
    balance = tmp_path / "balance.csv"
    assert cli.main(["balance", str(CONFIGS / "passive_cavity.yaml"), "--slices", "2",
                     "--output", str(balance)]) == 0
    scan = tmp_path / "scan.csv"
    run_scan(ScanSpec.from_mapping(small_pointwise()), output=scan)
    text = balance.read_text(encoding="utf-8")
    spec_line = text.splitlines()[2]
    damaged = {
        "truncated": text.replace(spec_line, spec_line[:-40]),
        "hand_edited": text.replace('"slices":2', '"slices":two'),
        "v0_3_4": "# photonstack 0.3.4 balance\n# slices: 16\n# iterations: 25\n"
                  "x_um,T_K\n0.3125,377.107706\n",
    }
    calls = [(lambda p: read_spec(p, "balance"), tmp_path / f"{name}.csv", None)
             for name in damaged]
    for name, body in damaged.items():
        (tmp_path / f"{name}.csv").write_text(body, encoding="utf-8")
    calls += [(ScanSpec.from_metadata, balance, "balance"),
              (lambda p: read_spec(p, "balance"), scan, "scan")]
    for call, path, kind in calls:
        with pytest.raises(ConfigError) as info:
            call(path)
        message = str(info.value)
        assert str(path) in message and "\n" not in message
        assert kind is None or f"photonstack {photonstack.__version__} {kind}" in message


def test_metadata_block_contents(tmp_path):
    """The metadata is the version line, the column units and the spec."""
    out = tmp_path / "out.csv"
    spec = ScanSpec.from_mapping(small_pointwise())
    result = run_scan(spec, output=out)
    meta, header, rows = read_scan_csv(out)
    assert meta == [
        f"photonstack {photonstack.__version__} scan",
        "columns: x_um [um], E_eV [eV], ldos_e [2/(pi c S)], ldos_tot [2/(pi c S)], "
        "u [J s/m^3], p [N s/m^2]",
        "spec: " + spec.canonical_json(),
    ]
    assert header == ["x_um", "E_eV", "ldos_e", "ldos_tot", "u", "p"]
    assert rows.shape == (6 * 7, 6)
    # x-major ordering: energy cycles fastest
    assert np.allclose(rows[:7, 0], rows[0, 0])
    assert rows[0, 1] < rows[1, 1]
    assert result.data.shape == (6, 7, 4)


def test_writer_bytes_for_zeros_tiny_and_large_values(tmp_path):
    out = tmp_path / "w.csv"
    data = np.array([
        [[-0.0, 0.0, 5e-324], [1.0e-300, -2.5, 1.23456789012e300]],
        [[123456.7891, -0.0, 0.1], [0.0, -1e-7, 6.02214076e23]],
    ])
    scan_mod._write_csv(out, "# head\n# spec: {}\n", "x_um",
                        np.array([-0.0, 2.5]), np.array([0.0, 0.125]),
                        ("a", "b", "c"), data)
    assert out.read_bytes() == (
        b"# head\n"
        b"# spec: {}\n"
        b"x_um,E_eV,a,b,c\n"
        b"0,0,0,0,4.94065646e-324\n"
        b"0,0.125,1e-300,-2.5,1.23456789e+300\n"
        b"2.5,0,123456.789,0,0.1\n"
        b"2.5,0.125,0,-1e-07,6.02214076e+23\n"
    )


# zeros of both signs, subnormals, the ends of the float range, integral
# floats and values that round up at the ninth significant digit
_EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-308, -1e-308,
               1e308, -1e308, 1.7976931348623157e308, 3.0, -42.0, 1e16,
               999999999.5, -999999999.5, 9999999995.0, 0.999999999951]
_CELLS = st.one_of(st.sampled_from(_EDGE_CELLS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _scan_tables(draw):
    n_a, n_e, n_q = (draw(st.integers(1, n)) for n in (4, 5, 4))

    def cells(n):
        return np.array(draw(st.lists(_CELLS, min_size=n, max_size=n)))

    return cells(n_a), cells(n_e), cells(n_a * n_e * n_q).reshape(n_a, n_e, n_q)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_scan_tables())
@example(table=(np.array([-0.0]), np.array([999999999.5]), np.array([[[-5e-324]]])))
def test_writer_bytes_equal_the_savetxt_reference(tmp_path, table):
    axis, energies, data = table
    quantities = tuple(f"q{i}" for i in range(data.shape[2]))
    args = ("# head\n# spec: {}\n", "x_um", axis, energies, quantities, data)
    scan_mod._write_csv(tmp_path / "new.csv", *args)
    savetxt_csv(tmp_path / "ref.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _with_neighbours(values, ulps=2):
    """``values`` and the floats up to ``ulps`` steps above and below each."""
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_cell_formatter_is_exactly_printf(monkeypatch):
    """The writer's vectorized cells are byte for byte C printf's %.9g, on
    every power of ten and its neighbours, the switches of notation and of
    carry, the carry ties 9.999999995e(k) of every decade, exact rounding
    ties, zeros, subnormals and random bit patterns. The ties go to the
    printf fallback, but few other values do, so the fast path is what is
    checked."""
    powers = np.array([10.0 ** k for k in range(-323, 309)])
    switches = np.array([9.9999999949e-5, 9.9999999951e-5, 99999999.95, 999999999.4,
                         999999999.5, 999999999.6, 1e-280, 1e280])
    carries = np.array([9.999999995 * 10.0 ** k for k in range(-280, 280)])
    rng = np.random.default_rng(20)
    odd = 2 * rng.integers(10**8, 5 * 10**8, 300) + 1  # nine digits, ten when halved
    ties = np.array([int(m) * 10**k / 2 for m in odd for k in range(7)])
    tiny = np.array([0.0, -0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308])
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([_with_neighbours(powers), _with_neighbours(switches),
                             _with_neighbours(carries), ties,
                             tiny, bits[np.isfinite(bits)]])
    values = np.concatenate([values, -values])

    fallback = []
    printf_cells = scan_mod._printf_cells

    def counted(v):
        fallback.extend(v.tolist())
        return printf_cells(v)

    monkeypatch.setattr(scan_mod, "_printf_cells", counted)
    cells = scan_mod._cells(values).astype("<u8").tobytes()
    got = [cells[i:i + 24].replace(b"\0", b"") for i in range(0, len(cells), 24)]
    assert got == [b",%.9g" % (v + 0.0) for v in values.tolist()]

    tie_set = set(ties) | set(-ties)
    near_ties = tie_set | set(_with_neighbours(carries)) | set(-_with_neighbours(carries))
    in_range = [v for v in fallback if 1e-280 <= abs(v) < 1e280]
    assert tie_set <= set(in_range)
    others = sum(v not in near_ties for v in in_range)
    assert 0 < others < 1e-3 * np.count_nonzero((np.abs(values) >= 1e-280)
                                                & (np.abs(values) < 1e280))


class _Unformattable:
    """A cell that survives adding 0.0 but that %.9g cannot print."""

    def __add__(self, other):
        return self


@pytest.mark.parametrize("failure, error", [("replace", RuntimeError),
                                            ("format", TypeError)])
def test_a_failed_write_keeps_the_old_file_and_no_part_file(tmp_path, monkeypatch,
                                                            failure, error):
    """run_scan's promise: a failed run leaves no partial output behind;
    an existing target keeps its bytes whether the final rename fails or
    a cell fails to format in the middle of the second axis block."""
    def refuse(src, dst):
        raise RuntimeError("rename refused")

    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(error):
        if failure == "replace":
            monkeypatch.setattr(scan_mod.os, "replace", refuse)
            run_scan(ScanSpec.from_mapping(small_pointwise()), output=target)
        else:
            # one axis block of 2 * 4096 cells per pass: the first pass is
            # written to the .part file before the second one fails
            data = np.ones((3, 4096, 2), dtype=object)
            data[1, 2048, 0] = _Unformattable()
            scan_mod._write_csv(target, "# head\n", "x_um", np.arange(3.0),
                                np.arange(4096.0), ("a", "b"), data)
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_each_position_is_evaluated_once(tmp_path, monkeypatch):
    """A scan asking for every pointwise quantity builds one field-point
    record per pass and computes the mode densities and the occupation
    sums from it once, in one call for all positions of the pass; a pass
    lies within one layer and here holds all of that layer's positions.
    Each pass reads the edge fluxes of each source layer (the two walls)
    once, and evaluates the sums' derivatives once when it asks for a
    force and never when it does not. A balance solve builds one record
    per self-consistent layer and reads each source layer's edge fluxes
    once for it."""
    calls = {}
    original_at = greens_mod.WaveBasis.at
    original_regions = spectral_mod.region_integrals
    original_record = spectral_mod.OccupationSums

    def counted_at(self, x):
        calls.setdefault("at", []).append(np.size(x))
        return original_at(self, x)

    def counted_regions(points, j, edges):
        calls.setdefault("region_integrals", []).append(j)
        return original_regions(points, j, edges)

    def counted_record(*fields):  # n_sq, d_e, f_e, d_m, f_m, primes
        def counted_primes():
            calls.setdefault("primes", []).append(len(fields[1]))
            return fields[-1]()
        return original_record(*fields[:-1], counted_primes)
    monkeypatch.setattr(greens_mod.WaveBasis, "at", counted_at)
    monkeypatch.setattr(spectral_mod, "region_integrals", counted_regions)
    monkeypatch.setattr(spectral_mod, "OccupationSums", counted_record)
    for mod in (scan_mod, mechanics_mod):
        for name in ("ldos", "occupation_sums", "photon_numbers"):
            original = getattr(mod, name, None)
            if original is None:
                continue

            def counted(points, *args, _name=name, _original=original, **kwargs):
                calls.setdefault(_name, []).append(points.x.size)
                return _original(points, *args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    data = small_pointwise()
    data["quantities"] = list(scan_mod.POINTWISE_QUANTITIES)
    # one position in each wall, four in the gap
    data["positions"] = {"start": -1.5, "stop": 11.5, "count": 6}
    per_pass = {"at": [1, 4, 1], "ldos": [1, 4, 1], "occupation_sums": [1, 4, 1],
                "region_integrals": [0, 2] * 3}
    run_scan(ScanSpec.from_mapping(data), output=tmp_path / "all.csv")
    assert calls == {**per_pass, "primes": [1, 4, 1]}

    calls.clear()
    data["quantities"] = [q for q in data["quantities"] if q not in ("zcf", "tcf", "ncf")]
    run_scan(ScanSpec.from_mapping(data), output=tmp_path / "no_force.csv")
    assert calls == per_pass

    calls.clear()
    two_layers = photonstack.build_stack({"layers": [
        {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
        {"thickness": 2.0, "n": "1.1+0.1i", "temperature": "self-consistent"},
        {"thickness": 1.0, "n": 1.0},
        {"thickness": 3.0, "n": "1.2+0.2i", "temperature": "self-consistent"},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ]})
    photonstack.solve_self_consistent(two_layers, slices=4)
    assert calls == {"at": [4, 4], "region_integrals": [0, 1, 3, 4] * 2}


def test_pass_size_leaves_the_output_unchanged(tmp_path, monkeypatch):
    """On a self-consistent cavity with every pointwise quantity, one
    position in each wall and seven in the gap, passes of one position
    and passes that split the gap as 3 + 3 + 1 give the data, the fd
    residuals and the CSV bytes of the default run, where each layer is
    one pass."""
    mapping = small_pointwise()
    mapping.update(stack=dict(PASSIVE), quantities=list(scan_mod.POINTWISE_QUANTITIES),
                   positions={"start": -1.5, "stop": 11.5, "count": 9},
                   energies={"start": 0.05, "stop": 0.2, "count": 5}, balance={"slices": 4})
    spec = ScanSpec.from_mapping(mapping)
    residuals = []
    original = scan_mod.fd_residual

    def recorded(*args, **kwargs):
        residuals.append(original(*args, **kwargs))
        return residuals[-1]
    monkeypatch.setattr(scan_mod, "fd_residual", recorded)

    def run(name):
        residuals.clear()
        result = run_scan(spec, output=tmp_path / name, fd_check=True)
        return result.data, np.concatenate(residuals), len(residuals), (tmp_path / name).read_bytes()

    data, fd, passes, csv = run("default.csv")
    assert passes == 3
    for cells, expected_passes in ((1, 9), (3 * spec.energies.count, 5)):
        monkeypatch.setattr(scan_mod, "_PASS_CELLS", cells)
        other_data, other_fd, other_passes, other_csv = run(f"cells{cells}.csv")
        assert other_passes == expected_passes
        assert np.array_equal(other_data, data)
        assert np.array_equal(other_fd, fd, equal_nan=True)
        assert other_csv == csv


def test_scan_memory_is_bounded_by_its_result(tmp_path):
    """Doubling the positions of a pointwise scan adds its result array
    and next to nothing else: after a warm-up scan, the traced peak beyond
    data.nbytes grows by less than a tenth of what data.nbytes grows by."""
    data = small_pointwise()
    data["quantities"] = list(scan_mod.POINTWISE_QUANTITIES)
    data["energies"]["count"] = 64
    run_scan(ScanSpec.from_mapping(data), output=tmp_path / "warm.csv")
    extra, sizes = [], []
    for count in (200, 400):
        data["positions"] = {"start": 0.5, "stop": 9.5, "count": count}
        spec = ScanSpec.from_mapping(data)
        tracemalloc.start()
        try:
            result = run_scan(spec, output=tmp_path / f"{count}.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes.append(result.data.nbytes)
        extra.append(peak - result.data.nbytes)
        del result
    assert extra[1] - extra[0] < 0.1 * (sizes[1] - sizes[0])


def test_a_0_3_3_header_still_rebuilds_its_spec(tmp_path):
    """Files written before 0.3.4 carry four more header lines (stack
    hash, mode, units, solver), and 0.3.4 files an older version line;
    the spec line alone is read."""
    spec = ScanSpec.from_mapping({**small_pointwise(), "stack": dict(PASSIVE),
                                  "quantities": ["T_e"], "units": "si",
                                  "balance": {"slices": 2, "max_iterations": 1234567}})
    old = tmp_path / "old.csv"
    for version, extra in (("0.3.3", ["# stack-sha256: " + "0" * 64, "# mode: pointwise",
                                      "# units: si",
                                      "# solver: slices=2 max_iterations=1234567"]),
                           ("0.3.4", [])):
        old.write_text("\n".join([
            f"# photonstack {version} scan",
            *extra,
            "# columns: x_um [um], E_eV [eV], T_e [K]",
            "# spec: " + spec.canonical_json(),
            "x_um,E_eV,T_e",
            "0.5,0.05,350",
        ]) + "\n")
        assert ScanSpec.from_metadata(old) == dataclasses.replace(spec, output=None)


def test_missing_spec_metadata_is_an_error(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("# photonstack scan\nx_um,E_eV,u\n0,0.1,1\n")
    with pytest.raises(ConfigError, match="no spec metadata"):
        ScanSpec.from_metadata(bare)


def test_read_scan_csv_requires_header(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# only comments\n")
    with pytest.raises(ConfigError, match="header"):
        read_scan_csv(empty)


# --- guard rails ------------------------------------------------------------

def test_force_grid_must_avoid_interfaces(tmp_path):
    data = small_pointwise()
    data["quantities"] = ["zcf", "tcf", "ncf"]
    data["positions"] = {"start": 0.0, "stop": 10.0, "count": 5}
    spec = ScanSpec.from_mapping(data)
    with pytest.raises(ConfigError, match="interface"):
        run_scan(spec, output=tmp_path / "x.csv")


def test_a_point_within_1_pm_of_an_interface_is_rejected_on_both_paths(tmp_path):
    """force_density and the scan's up-front grid check apply one rule: a
    point 1e-13 m from an interface is as undefined as one on it."""
    stack = photonstack.build_stack(CAVITY)
    points = photonstack.solve_wave_basis(stack, units.omega_from_ev(np.array([0.1]))).at(1e-13)
    sums = photonstack.occupation_sums(points, photonstack.TemperatureProfile.from_stack(stack))
    with pytest.raises(InterfacePointError, match="within 1 pm of an interface"):
        photonstack.force_density(points, photonstack.ldos(points), sums)
    data = small_pointwise()
    data["quantities"] = ["tcf"]
    data["positions"] = {"start": 1e-7, "stop": 9.5, "count": 3}
    with pytest.raises(InterfacePointError, match="within 1 pm of an interface"):
        run_scan(ScanSpec.from_mapping(data), output=tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_widths_must_fit_inside_the_wall_gap():
    data = small_slab()
    data["widths"] = {"start": 0.0, "stop": 10.0, "count": 3}
    with pytest.raises(ConfigError, match="wall gap"):
        ScanSpec.from_mapping(data)


def test_scan_without_output_path_is_rejected():
    data = small_pointwise()
    data.pop("output")
    spec = ScanSpec.from_mapping(data)
    with pytest.raises(ConfigError, match="output"):
        run_scan(spec)


def test_non_finite_refusal_names_where(tmp_path):
    """10 mm deep in a lossy half-space the wave values overflow, so the
    photon numbers there are not finite; the refusal names the first
    failing position, energy and quantity, and no file is written."""
    data = {
        "stack": CAVITY,
        "quantities": ["n_tot"],
        "positions": {"start": 5.0, "stop": 10010.0, "count": 2},
        "energies": {"start": 1.0, "stop": 5.0, "count": 5},
    }
    target = tmp_path / "nan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(PhotonStackError) as err:
            run_scan(ScanSpec.from_mapping(data), output=target)
    assert str(err.value) == ("scan produced a non-finite n_tot at x_um = 10010, "
                              "E_eV = 1; refusing to write")
    assert list(tmp_path.iterdir()) == []


def test_a_thick_absorber_beside_the_gap_scans_without_overflow(tmp_path):
    """A 50 um absorber at 350 K beside the 10 um gap of the hot-cold
    cavity: the source integrals over it are flux differences at its
    edges, with no interval exponential that overflows at high energies,
    so the gap scan writes its CSV with no RuntimeWarning and the
    effective temperature lies between the sources'."""
    data = {
        "stack": {"layers": [
            {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
            {"thickness": 10.0, "n": 1.0},
            {"thickness": 50.0, "n": "2+0.5i", "temperature": 350.0},
            {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
        ]},
        "quantities": ["ldos_tot", "n_e", "n_m", "n_tot", "T_tot"],
        "positions": {"start": 0.5, "stop": 9.5, "count": 10},
        "energies": {"start": 0.1, "stop": 5.0, "count": 50},
    }
    target = tmp_path / "thick.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_scan(ScanSpec.from_mapping(data), output=target)
    _, header, table = read_scan_csv(target)
    t_tot = table[:, header.index("T_tot")]
    assert table.shape == (10 * 50, 7)
    assert np.all((300.0 <= t_tot) & (t_tot <= 400.0)), (t_tot.min(), t_tot.max())


COLD_CAVITY = {"layers": [{**CAVITY["layers"][0], "temperature": 20.0},
                          CAVITY["layers"][1],
                          {**CAVITY["layers"][2], "temperature": 20.0}]}


def _cold_scan(quantities, count=3):
    """The cavity in equilibrium at 20 K, at x = 5 um from 1 eV up: at 2
    and 3 eV the occupancy, about e^-1160, is below the float range."""
    return ScanSpec.from_mapping({
        "stack": COLD_CAVITY, "quantities": quantities,
        "positions": {"start": 5.0, "stop": 5.0, "count": 1},
        "energies": {"start": 1.0, "stop": float(count), "count": count}})


def test_an_underflowed_occupancy_is_refused_not_written_as_zero_kelvin(tmp_path):
    target = tmp_path / "cold.csv"
    with pytest.raises(PhotonStackError) as err:
        run_scan(_cold_scan(["n_tot", "T_tot", "T_e"]), output=target)
    assert str(err.value) == ("scan produced a non-finite T_tot at x_um = 5, "
                              "E_eV = 2; refusing to write")
    assert list(tmp_path.iterdir()) == []
    # where the occupancy is still a float, the equilibrium temperature is read
    result = run_scan(_cold_scan(["n_tot", "T_tot", "T_e"], count=1), output=target)
    np.testing.assert_allclose(result.data[0, 0, 1:], 20.0, rtol=1e-9)


def test_an_underflowed_occupancy_without_temperature_columns_writes_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scan(_cold_scan(["n_tot", "ldos_e"]), output=tmp_path / "cold.csv")
    assert result.data[0, 0, 0] > 0.0
    assert np.array_equal(result.data[0, 1:, 0], [0.0, 0.0])


def test_a_scan_evaluates_each_index_table_once_per_wave_basis(tmp_path, monkeypatch):
    """Two tables, one of them self-consistent: one basis for the balance
    solve and one for the scan, and each table is evaluated once in each,
    however many quantities, passes and fd-check probes read the index."""
    calls, bases = [], []
    table_at = photonstack.TabulatedIndex.at

    def counted(index, omega):
        calls.append(index)
        return table_at(index, omega)

    def solved(stack, omega):
        bases.append(stack)
        return greens_mod.solve_wave_basis(stack, omega)

    monkeypatch.setattr(photonstack.TabulatedIndex, "at", counted)
    for module in (scan_mod, thermo_mod):
        monkeypatch.setattr(module, "solve_wave_basis", solved)
    monkeypatch.setattr(scan_mod, "_PASS_CELLS", 8)
    stack = _table_stack((0.001, 1.0), (0.0005, 2.0))
    stack["layers"][4]["temperature"] = "self-consistent"
    spec = ScanSpec.from_mapping({
        "stack": stack, "balance": {"slices": 4},
        "quantities": ["ldos_tot", "n_e", "T_tot", "u", "zcf", "ncf"],
        "positions": {"start": 0.25, "stop": 6.25, "count": 5},
        "energies": {"start": 0.1, "stop": 0.3, "count": 4}})
    run_scan(spec, output=tmp_path / "tables.csv", fd_check=True)
    tables = [layer.index for layer in spec.layer_stack.layers
              if isinstance(layer.index, photonstack.TabulatedIndex)]
    assert len(bases) == 2 and len(tables) == 2
    assert sorted(map(id, calls)) == sorted(2 * list(map(id, tables)))


def test_failed_replace_leaves_no_files(tmp_path, monkeypatch):
    def boom(src, dst):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(scan_mod.os, "replace", boom)
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        run_scan(ScanSpec.from_mapping(small_pointwise()), output=target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# --- command line -----------------------------------------------------------

def test_cli_validate_clean_config(tmp_path, capsys):
    config = write_spec(tmp_path, "stack.yaml", CAVITY)
    assert cli.main(["validate", str(config)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out and "3 layers" in out


def test_cli_validate_lists_each_problem(tmp_path, capsys):
    broken = {
        "layers": [
            {"thickness": "inf", "n": 1.0, "temperature": 400.0},
            {"thickness": 10.0, "n": 1.0, "temperature": 350.0},
            {"thickness": "inf", "n": 1.0, "temperature": 300.0},
        ],
    }
    config = write_spec(tmp_path, "bad.yaml", broken)
    assert cli.main(["validate", str(config)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 2
    # one line per problem, each naming its layer
    assert all(line.startswith("invalid: layer ") for line in lines)


def test_cli_validate_warns_about_a_lossy_layer_without_temperature(tmp_path, capsys):
    """The stack is valid and LDOS-only scans of it work, so validate
    still exits 0, but it names the layer every other scan will reject."""
    stack = {"layers": [
        {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
        {"thickness": 2.0, "n": "1.2+0.1i"},
        {"thickness": 5.0, "n": "1.1+0.1i", "temperature": "self-consistent"},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ]}
    config = write_spec(tmp_path, "stack.yaml", stack)
    assert cli.main(["validate", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("warning: ")] == [
        "warning: layer 1 is lossy but has no temperature; every scan quantity "
        "except ldos_* and every balance solve will reject it"]
    assert "clean" in lines[-1]


@pytest.mark.parametrize("name", ["hot_cold_cavity", "passive_cavity",
                                  "transparent_slab", "absorbing_slab"])
def test_cli_validate_is_clean_on_every_bundled_stack(name, capsys):
    assert cli.main(["validate", str(CONFIGS / f"{name}.yaml")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "clean" in lines[0]


def test_cli_validate_rejects_a_nan_closure_residual(tmp_path, capsys):
    """A 5 mm absorber overflows the source integrals at the closure
    energy, so every residual is NaN; NaN is no pass."""
    stack = {"layers": [
        {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
        {"thickness": 10.0, "n": 1.0},
        {"thickness": 5000.0, "n": "2+0.5i", "temperature": 350.0},
        {"thickness": 10.0, "n": 1.0},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ]}
    config = write_spec(tmp_path, "thick.yaml", stack)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli.main(["validate", str(config)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("invalid: layer ") for line in lines)
    assert "greens-closure residual nan" in lines[0]


# lossless at its first node, lossy at the other two: it absorbs at 0.11 eV
PARTLY_LOSSY = {"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 2.0, "n": 1.0},
    {"thickness": 3.0, "n": {"E_eV": [0.01, 0.05, 0.3], "n_re": [1.5, 1.5, 1.5],
                             "n_im": [0.0, 0.2, 0.2]}},
    {"thickness": 2.0, "n": 1.0},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]}


def test_a_partly_lossy_table_is_a_source(tmp_path, capsys):
    """A tabulated layer that absorbs at some of its nodes emits: it takes
    a temperature, validate asks for one, the closure check counts it,
    and it enters the photon numbers."""
    config = write_spec(tmp_path, "bare.yaml", PARTLY_LOSSY)
    assert cli.main(["validate", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("warning: layer 2 is lossy but has no temperature")
    assert len(lines) == 2 and "clean" in lines[1]

    hot = {"layers": [dict(layer) for layer in PARTLY_LOSSY["layers"]]}
    hot["layers"][2]["temperature"] = 350.0
    config = write_spec(tmp_path, "hot.yaml", hot)
    assert cli.main(["validate", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "clean" in lines[0]

    stack = photonstack.build_stack(hot)
    assert [layer.lossy for layer in stack.layers] == [True, False, True, False, True]
    om = units.omega_from_ev(np.linspace(0.02, 0.25, 12))
    basis = photonstack.solve_wave_basis(stack, om)
    profile = photonstack.TemperatureProfile.uniform(stack, 300.0)
    assert profile.entries[2] == 300.0
    bose = photonstack.source_occupation(om, 300.0)
    for x in (-1e-6, 1e-6, 3.5e-6, 6e-6, 8e-6):
        nums = photonstack.photon_numbers(basis.at(x), profile)
        for n in nums:
            np.testing.assert_allclose(n, bose, rtol=1e-9)


def _table_stack(*ranges_ev):
    """The cavity with one 350 K absorbing index table per (start, stop)
    range, each table 2 um thick between 1 um vacuum spacers."""
    layers = [{"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0}]
    for start, stop in ranges_ev:
        layers += [{"thickness": 1.0, "n": 1.0},
                   {"thickness": 2.0, "temperature": 350.0,
                    "n": {"E_eV": [start, stop], "n_re": [1.5, 1.5], "n_im": [0.2, 0.2]}}]
    layers += [{"thickness": 1.0, "n": 1.0},
               {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0}]
    return {"layers": layers}


@pytest.mark.parametrize("ranges_ev, closure_ev", [
    ([(0.01, 0.3)], 0.11),                 # every table covers 0.11 eV
    ([(0.2, 0.5)], 0.35),                  # else the middle of the shared range
    ([(0.2, 0.5), (0.05, 0.3)], 0.25),
])
def test_cli_validate_checks_closure_inside_every_index_table(tmp_path, capsys, monkeypatch,
                                                              ranges_ev, closure_ev):
    seen = []

    def recorded(stack, omega):
        seen.append(units.ev_from_omega(omega))
        return greens_mod.solve_wave_basis(stack, omega)

    monkeypatch.setattr(cli, "solve_wave_basis", recorded)
    config = write_spec(tmp_path, "tables.yaml", _table_stack(*ranges_ev))
    assert cli.main(["validate", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "clean" in lines[0]
    assert len(seen) == 1 and seen[0] == pytest.approx([closure_ev], rel=1e-12)


def test_cli_validate_rejects_index_tables_that_share_no_energy(tmp_path, capsys):
    config = write_spec(tmp_path, "apart.yaml", _table_stack((0.2, 0.5), (0.05, 0.15)))
    assert cli.main(["validate", str(config)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid: the index tables share no photon energy (one starts at 0.2 eV, "
        "another ends at 0.15 eV)"]


def test_cli_validate_rejects_index_tables_that_miss_the_balance_grid(tmp_path, capsys):
    """A stack with a self-consistent layer is clean only if every index
    covers the balance grid (1 meV to 1 eV), as its balance solve needs;
    the same table passes once the layer has a fixed temperature."""
    (tmp_path / "sc.csv").write_text("E_eV,n_re,n_im\n0.01,1.1,0.1\n2.0,1.1,0.1\n")
    stack = {"layers": [dict(layer) for layer in PASSIVE["layers"]]}
    stack["layers"][1]["n"] = {"table": "sc.csv"}
    assert cli.main(["validate", str(write_spec(tmp_path, "sc.yaml", stack))]) == 1
    assert capsys.readouterr().out == (
        f"invalid: index table {tmp_path / 'sc.csv'} does not cover the requested frequency "
        "range (0.001 to 1 eV; the table spans 0.01 to 2 eV)\n")
    stack["layers"][1]["temperature"] = 350.0
    assert cli.main(["validate", str(write_spec(tmp_path, "fixed.yaml", stack))]) == 0
    assert "clean" in capsys.readouterr().out


def test_index_table_range_error_names_both_ranges_and_the_table(tmp_path, capsys):
    """A table that misses the balance grid (1 meV to 1 eV) says so with
    both ranges; a balance and a scan, whose specs embed the table, name its
    layer."""
    (tmp_path / "sc.csv").write_text("E_eV,n_re,n_im\n0.01,1.1,0.1\n2.0,1.1,0.1\n")
    stack = {"layers": [dict(layer) for layer in PASSIVE["layers"]]}
    stack["layers"][1]["n"] = {"table": "sc.csv"}
    config = write_spec(tmp_path, "sc.yaml", stack)
    spec = write_spec(tmp_path, "scan.yaml", {**small_pointwise(), "stack": "sc.yaml"})
    for argv in (["balance", str(config)], ["scan", str(spec)]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: index table layer 1 does not cover the requested frequency range "
            "(0.001 to 1 eV; the table spans 0.01 to 2 eV)\n")


@pytest.mark.parametrize("mapping, layer", [(small_pointwise(), 1), (small_slab(), 2)],
                         ids=["pointwise", "slab"])
def test_a_table_that_misses_the_scan_energies_fails_before_any_balance(tmp_path, monkeypatch,
                                                                         mapping, layer):
    """The scan grid's wave basis, the first evaluation of every index at
    the scan energies, is solved before any balance solve, in both modes."""
    mapping = copy.deepcopy(mapping)
    mapping["stack"]["layers"][layer].update(
        n={"E_eV": [0.0005, 2.0], "n_re": [1.1, 1.1], "n_im": [0.1, 0.1]},
        temperature="self-consistent")
    mapping.update(balance={"slices": 2}, energies={"start": 1.5, "stop": 2.5, "count": 3})
    solved = []
    original = scan_mod.solve_self_consistent

    def recorded(stack, **kwargs):
        solved.append(stack)
        return original(stack, **kwargs)
    monkeypatch.setattr(scan_mod, "solve_self_consistent", recorded)
    with pytest.raises(ConfigError) as info:
        run_scan(ScanSpec.from_mapping(mapping), output=tmp_path / "out.csv")
    assert str(info.value) == (
        f"index table layer {layer} does not cover the requested frequency range "
        "(1.5 to 2.5 eV; the table spans 0.0005 to 2 eV)")
    assert solved == []


def test_cli_scan_writes_file_and_reports(tmp_path, capsys):
    mapping = small_pointwise(output="fields.csv")
    spec_path = write_spec(tmp_path, "scan.yaml", mapping)
    assert cli.main(["scan", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "42 rows" in out and "x_um x E_eV = 6 x 7" in out
    # relative output paths land next to the spec file
    assert (tmp_path / "fields.csv").exists()


def test_cli_scan_units_override(tmp_path):
    """The spec's units key sets the unit system of the LDOS columns."""
    paper, si = tmp_path / "paper.csv", tmp_path / "si.csv"
    for name, out in (("paper", paper), ("si", si)):
        spec_path = write_spec(tmp_path, f"{name}.yaml", {**small_pointwise(), "units": name})
        assert cli.main(["scan", str(spec_path), "--output", str(out)]) == 0
    _, header, rows_p = read_scan_csv(paper)
    _, _, rows_s = read_scan_csv(si)
    i_ldos, i_u = header.index("ldos_tot"), header.index("u")
    assert np.allclose(rows_s[:, i_ldos], rows_p[:, i_ldos] * LDOS_UNIT,
                       rtol=1e-12)
    assert np.array_equal(rows_s[:, i_u], rows_p[:, i_u])


def test_cli_scan_bad_spec_exits_one(tmp_path, capsys):
    mapping = small_pointwise()
    mapping["quantities"] = ["entropy"]
    spec_path = write_spec(tmp_path, "scan.yaml", mapping)
    assert cli.main(["scan", str(spec_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, fragment", [
    ("stack: [1", "(line 1, column 10)"),
    ("layers: " + "1" * 5000, "integer string conversion"),
], ids=["truncated", "huge_integer"])
@pytest.mark.parametrize("command", ["scan", "balance"])
def test_cli_malformed_yaml_gives_one_line_error(tmp_path, capsys, command, text, fragment):
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text(text)
    assert cli.main([command, str(malformed)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "invalid YAML" in err and fragment in err


def test_cli_scan_undecodable_files_exit_one(tmp_path, capsys):
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    mapping = small_pointwise()
    mapping["stack"] = "binary.yaml"
    for spec_path in (binary, write_spec(tmp_path, "scan.yaml", mapping)):
        assert cli.main(["scan", str(spec_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read")


def test_cli_scan_unwritable_output_exits_three(tmp_path, capsys):
    spec_path = write_spec(tmp_path, "scan.yaml", small_pointwise())
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli.main(["scan", str(spec_path), "--output", str(missing)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan_spec", "scan_option", "balance_option"])
def test_cli_empty_output_path_exits_one_before_any_solve(tmp_path, capsys, monkeypatch,
                                                          command):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    for mod in (scan_mod, cli):
        monkeypatch.setattr(mod, "solve_self_consistent", no_solve)
    monkeypatch.setattr(scan_mod, "solve_wave_basis", no_solve)
    spec = write_spec(tmp_path, "s.yaml",
                      small_pointwise(output="" if command == "scan_spec" else "out.csv"))
    argv = {
        "scan_spec": ["scan", str(spec)],
        "scan_option": ["scan", str(spec), "--output", ""],
        "balance_option": ["balance", str(write_spec(tmp_path, "p.yaml", PASSIVE)),
                           "--output", ""],
    }[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output must be a nonempty path") and err.count("\n") == 1
    assert all(p.suffix == ".yaml" for p in tmp_path.iterdir())


@pytest.mark.parametrize("target", ["missing_directory", "a_directory"])
@pytest.mark.parametrize("command", ["scan_pointwise", "scan_slab", "balance"])
def test_cli_unwritable_output_exits_three_before_any_solve(tmp_path, capsys, monkeypatch,
                                                            command, target):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output directory was checked")

    for mod in (scan_mod, cli):
        monkeypatch.setattr(mod, "solve_self_consistent", no_solve)
    monkeypatch.setattr(scan_mod, "solve_wave_basis", no_solve)
    argv = {
        "scan_pointwise": ["scan", str(write_spec(tmp_path, "s.yaml", small_pointwise()))],
        "scan_slab": ["scan", str(write_spec(tmp_path, "s.yaml", small_slab()))],
        "balance": ["balance", str(write_spec(tmp_path, "p.yaml", PASSIVE))],
    }[command]
    if target == "missing_directory":
        output, named = tmp_path / "missing" / "out.csv", tmp_path / "missing"
    else:
        output = named = tmp_path / "out.csv"
        output.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv + ["--output", str(output)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {str(named)!r}\n")
    assert err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_balance_failed_write_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    """balance --output writes through the scan's writer: a refused rename
    exits 3, the old file keeps its bytes and no .part file is left."""
    def refuse(src, dst):
        raise PermissionError("rename refused")

    config = write_spec(tmp_path, "in.yaml", PASSIVE)
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    monkeypatch.setattr(scan_mod.os, "replace", refuse)
    assert cli.main(["balance", str(config), "--slices", "2", "--output", str(target)]) == 3
    assert "rename refused" in capsys.readouterr().err
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(tmp_path.iterdir()) == [config, target]


@pytest.mark.parametrize("command, solver", [("scan", "run_scan"),
                                             ("balance", "solve_self_consistent")])
def test_cli_out_of_memory_gives_one_line(tmp_path, capsys, monkeypatch, command, solver):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, solver, exhausted)
    path = write_spec(tmp_path, "in.yaml",
                      small_pointwise() if command == "scan" else PASSIVE)
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "grid counts" in err and "balance slices" in err


def test_cli_scan_nonconvergent_balance_exits_two(tmp_path, capsys):
    mapping = {
        "stack": dict(PASSIVE),
        "quantities": ["n_tot"],
        "positions": {"start": 3.0, "stop": 7.0, "count": 2},
        "energies": {"start": 0.1, "stop": 0.12, "count": 2},
        "balance": {"slices": 4, "max_iterations": 1},
        "output": "never.csv",
    }
    spec_path = write_spec(tmp_path, "scan.yaml", mapping)
    assert cli.main(["scan", str(spec_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_fd_check_counts_points_on_slice_boundaries(tmp_path, capsys):
    """Positions on balance slice boundaries leave no room for a finite-
    difference step: they are counted as unchecked, not reported as a
    residual, and their force values are still written. The check
    reports on the result and the terminal, and writes the file a plain
    run writes."""
    mapping = {
        "stack": dict(PASSIVE),
        "quantities": ["u", "ncf"],
        "positions": {"start": 1.25, "stop": 8.75, "count": 7},
        "energies": {"start": 0.1, "stop": 0.14, "count": 3},
        "balance": {"slices": 4, "tolerance_K": 0.5},
        "output": "fd.csv",
    }
    out, plain = tmp_path / "fd.csv", tmp_path / "plain.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_scan(ScanSpec.from_mapping(mapping), output=out, fd_check=True)
    _, _, rows = read_scan_csv(out)
    # 2.5, 5.0 and 7.5 um sit on the boundaries of the four slices
    assert result.fd_unchecked == 3
    assert result.fd_residual_max < 1e-4
    assert rows.shape == (7 * 3, 4) and np.all(np.isfinite(rows))
    run_scan(ScanSpec.from_mapping(mapping), output=plain)
    assert out.read_bytes() == plain.read_bytes()
    spec_path = write_spec(tmp_path, "fd.yaml", mapping)
    assert cli.main(["scan", str(spec_path), "--fd-check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"fd-check: max relative residual {result.fd_residual_max:.3e}, "
        "3 positions unchecked")
    assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("mapping", [small_slab(), small_pointwise()],
                         ids=["slab", "pointwise_without_forces"])
def test_cli_fd_check_without_a_force_quantity_exits_one(tmp_path, capsys, mapping):
    """A scan with nothing for --fd-check to check is refused before any
    work, rather than silently skipping the check (slab scans) or
    counting every position as unchecked (pointwise scans)."""
    spec_path = write_spec(tmp_path, "scan.yaml", mapping)
    assert cli.main(["scan", str(spec_path), "--fd-check"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --fd-check needs a force-density quantity (zcf, tcf or ncf)"]
    assert list(tmp_path.iterdir()) == [spec_path]


def test_cli_balance_without_a_self_consistent_layer_exits_one(tmp_path, capsys, monkeypatch):
    """A stack with nothing to balance is refused before any solve with
    one error line, rather than printing a table with no rows."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a stack with nothing to balance")

    monkeypatch.setattr(cli, "solve_self_consistent", no_solve)
    config = write_spec(tmp_path, "cavity.yaml", CAVITY)
    assert cli.main(["balance", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {config} has no self-consistent layer to balance"]


def test_cli_lossy_layer_without_temperature_exits_one(tmp_path, capsys):
    """A lossy layer with no temperature next to a self-consistent one is
    a source the balance and the photon numbers both need: the balance
    solve and a scan each stop with one line naming the layer."""
    stack = {"layers": [
        {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
        {"thickness": 2.0, "n": "1.2+0.1i"},
        {"thickness": 5.0, "n": "1.1+0.1i", "temperature": "self-consistent"},
        {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
    ]}
    config = write_spec(tmp_path, "stack.yaml", stack)
    spec_path = write_spec(tmp_path, "scan.yaml", {
        "stack": "stack.yaml",
        "quantities": ["n_tot"],
        "positions": {"start": 3.0, "stop": 5.0, "count": 2},
        "energies": {"start": 0.1, "stop": 0.12, "count": 2},
        "balance": {"slices": 2},
        "output": "out.csv",
    })
    expected = ["error: layer 1 is lossy but has no temperature assignment"]
    assert cli.main(["balance", str(config), "--slices", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == expected
    assert cli.main(["scan", str(spec_path)]) == 1
    assert capsys.readouterr().err.splitlines() == expected
    assert not (tmp_path / "out.csv").exists()


def test_self_consistent_scan_records_solver_settings(tmp_path):
    mapping = {
        "stack": dict(PASSIVE),
        "quantities": ["T_e"],
        "positions": {"start": 3.0, "stop": 7.0, "count": 3},
        "energies": {"start": 0.1, "stop": 0.14, "count": 3},
        "balance": {"slices": 2, "tolerance_K": 0.5, "max_iterations": 1234567},
        "output": "sc.csv",
    }
    out = tmp_path / "sc.csv"
    run_scan(ScanSpec.from_mapping(mapping), output=out)
    _, _, rows = read_scan_csv(out)
    # the integer survives in full, not as 1.23457e+06
    assert ScanSpec.from_metadata(out).balance == {
        "slices": 2, "tolerance_K": 0.5, "max_iterations": 1234567}
    assert np.all((rows[:, 2] > 300.0) & (rows[:, 2] < 400.0))


def test_cli_balance_emits_slice_temperatures(tmp_path, capsys):
    config = write_spec(tmp_path, "passive.yaml", PASSIVE)
    assert cli.main(["balance", str(config), "--slices", "4"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[:2] == [f"# photonstack {photonstack.__version__} balance",
                         "# columns: x_um [um], T_K [K]"]
    assert json.loads(lines[2].removeprefix("# spec: "))["balance"] == {
        "slices": 4, "tolerance_K": 1e-3, "max_iterations": 100}
    assert lines[3] == "x_um,T_K"
    # the sweep count goes to stderr, so stdout carries the file alone
    assert err.startswith("4 slice temperatures in ") and err.endswith(" sweeps\n")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines if line and not line.startswith(("#", "x_um"))])
    assert data.shape == (4, 2)
    assert np.all((data[:, 0] > 0.0) & (data[:, 0] < 10.0))
    assert np.all((data[:, 1] > 300.0) & (data[:, 1] < 400.0))
    assert np.all(np.diff(data[:, 1]) < 0.0)


# --- runtime dependencies --------------------------------------------------

def _modules_loaded_by_cli_import():
    """The modules a fresh interpreter holds after ``import photonstack.cli``."""
    src = Path(photonstack.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import photonstack.cli; "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_no_scipy():
    """The package runs on numpy and PyYAML alone; scipy is a test oracle."""
    assert not [m for m in _modules_loaded_by_cli_import() if m.split(".")[0] == "scipy"]


def test_cli_import_loads_no_process_pool():
    """Every scan runs in one process, so importing the CLI loads neither
    a process pool nor multiprocessing."""
    loaded = _modules_loaded_by_cli_import()
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


def test_constants_are_the_si_definitions():
    assert units.c == 299792458.0
    assert units.e == 1.602176634e-19
    assert units.k_B == 1.380649e-23
    assert units.hbar == 6.62607015e-34 / (2 * np.pi)
    assert units.epsilon_0 == 8.8541878188e-12
    # exact in every CODATA release since the 2019 SI redefinition
    assert (units.c, units.e, units.k_B, units.hbar) == (
        scipy.constants.c, scipy.constants.e, scipy.constants.k, scipy.constants.hbar)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonstack.errors import ConfigError, MissingTemperatureError
from photonstack.greens import solve_wave_basis
from photonstack.mechanics import PointField, net_force
from photonstack.spectral import photon_numbers
from photonstack.stack import (
    ConstantIndex,
    Layer,
    LayerSlices,
    LayerStack,
    TabulatedIndex,
    TemperatureProfile,
    build_stack,
    load_stack,
    serialize_stack,
)
from photonstack.units import omega_from_ev

from conftest import INF, cavity_stack, passive_cavity_stack
from oracles import temperature_at


def test_interfaces_and_layer_lookup():
    stack = cavity_stack()
    assert stack.interfaces == (0.0, 10e-6)
    assert stack.layer_index(-1e-6) == 0
    assert stack.layer_index(5e-6) == 1
    assert stack.layer_index(15e-6) == 2
    # interface points belong to the right layer
    assert stack.layer_index(0.0) == 1
    assert stack.layer_index(10e-6) == 2
    assert stack.span == (0.0, 10e-6)
    assert stack.layer_bounds(0) == (-math.inf, 0.0)
    assert stack.layer_bounds(1) == (0.0, 10e-6)
    assert stack.layer_bounds(2) == (10e-6, math.inf)


def test_assemble_collects_all_problems():
    with pytest.raises(ConfigError) as err:
        LayerStack([
            Layer(5e-6, ConstantIndex(1.5), None),
            Layer(-1e-6, ConstantIndex(1.0)),
            Layer(INF, ConstantIndex(2.5 + 0.5j), -10.0),
        ])
    msg = str(err.value)
    assert "layer 0" in msg and "thickness inf" in msg
    assert "layer 1" in msg and "interior thickness" in msg
    assert "layer 2" in msg and "temperature must be positive" in msg


def test_outer_layers_must_be_lossy():
    layers = [
        Layer(INF, ConstantIndex(1.0)),
        Layer(5e-6, ConstantIndex(1.5)),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ]
    with pytest.raises(ConfigError, match="outer layers must be lossy"):
        LayerStack(layers)
    stack = LayerStack(layers, allow_lossless_bounds=True)
    assert stack.allow_lossless_bounds
    # a table lossless at one node makes a source, but not a half-space
    partly = TabulatedIndex(omega_from_ev(np.array([0.01, 0.05, 0.3])),
                            np.array([1.5, 1.5 + 0.2j, 1.5 + 0.2j]))
    layers[0] = Layer(INF, partly, 400.0)
    with pytest.raises(ConfigError, match="outer layers must be lossy"):
        LayerStack(layers)


def test_gain_media_rejected():
    with pytest.raises(ConfigError, match="nonnegative"):
        LayerStack([
            Layer(INF, ConstantIndex(1.5 - 0.3j), 400.0),
            Layer(5e-6, ConstantIndex(1.0)),
            Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
        ])


def test_assignment_on_transparent_layer_rejected():
    with pytest.raises(ConfigError, match="requires a lossy medium"):
        LayerStack([
            Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
            Layer(5e-6, ConstantIndex(1.0), 350.0),
            Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
        ])


def test_self_consistent_semi_infinite_rejected():
    with pytest.raises(ConfigError, match="self-consistent"):
        LayerStack([
            Layer(INF, ConstantIndex(1.5 + 0.3j), self_consistent=True),
            Layer(5e-6, ConstantIndex(1.0)),
            Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
        ])


def test_tabulated_index_interpolation_and_bounds():
    om = omega_from_ev(np.array([0.05, 0.10, 0.20]))
    tab = TabulatedIndex(om, np.array([1.5 + 0.1j, 1.7 + 0.3j, 1.9 + 0.5j]))
    mid = tab.at(omega_from_ev(0.15))
    assert mid == pytest.approx(1.8 + 0.4j)
    assert min(Layer(5e-6, tab).losses) == pytest.approx(((1.5 + 0.1j) ** 2).imag)
    with pytest.raises(ConfigError, match="does not cover"):
        tab.at(omega_from_ev(0.3))


def test_build_stack_from_mapping():
    config = {
        "layers": [
            {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
            {"thickness": 10.0, "n": 1.0},
            {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
        ]
    }
    stack = build_stack(config)
    assert stack.layers[0].index.at(1.0) == 1.5 + 0.3j
    assert stack.layers[1].thickness == pytest.approx(10e-6)
    assert stack.layers[2].temperature == 300.0


def test_build_stack_parse_errors_name_the_field():
    base = {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0}
    with pytest.raises(ConfigError, match="layer 1: thickness"):
        build_stack({"layers": [base, {"thickness": "wide", "n": 1.0}, base]})
    with pytest.raises(ConfigError, match="layer 1: cannot parse complex index"):
        build_stack({"layers": [base, {"thickness": 5.0, "n": "one"}, base]})
    with pytest.raises(ConfigError, match="layer 1: unknown keys"):
        build_stack({"layers": [base, {"thickness": 5.0, "n": 1.0, "temp": 3}, base]})
    # YAML keys need not be strings; listing them must not compare int with str
    with pytest.raises(ConfigError, match="layer 1: unknown keys"):
        build_stack({"layers": [base, {"thickness": 5.0, "n": 1.0, 1: 3, "temp": 3}, base]})
    with pytest.raises(ConfigError, match="layer 1: unknown index keys"):
        build_stack({"layers": [base, {"thickness": 5.0, "n": {1: 3, "x": 3}}, base]})
    with pytest.raises(ConfigError, match="unknown top-level keys"):
        build_stack({"layers": [base, base], 1: 3, "x": 3})
    with pytest.raises(ConfigError, match="layer 1: temperature"):
        build_stack({"layers": [base, {"thickness": 5.0, "n": "1.0+0.1i",
                                       "temperature": "warm"}, base]})


def test_yaml_numbers_without_a_dot_read_as_numbers(tmp_path):
    """PyYAML leaves 1e1 (no dot) a string; thickness, temperature and n
    read it as the number it spells, like every other number in a config."""
    rows = {"plain": ("10.0", "300.0", "1.0"), "dotless": ("1e1", "3e2", "1e0")}
    built = {}
    for name, (thickness, temperature, n) in rows.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(
            "layers:\n"
            f"  - {{thickness: inf, n: 1.5+0.3i, temperature: {temperature}}}\n"
            f"  - {{thickness: {thickness}, n: {n}}}\n"
            "  - {thickness: inf, n: 2.5+0.5i, temperature: 4e2}\n"
        )
        built[name] = serialize_stack(load_stack(cfg))
    assert built["dotless"] == built["plain"]
    assert built["plain"]["layers"][1]["thickness"] == 10.0


def test_self_consistent_marker_parsed():
    config = {
        "layers": [
            {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
            {"thickness": 10.0, "n": "1.1+0.1i", "temperature": "self-consistent"},
            {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
        ]
    }
    stack = build_stack(config)
    assert stack.layers[1].self_consistent
    assert stack.layers[1].temperature is None


def test_serialize_round_trip():
    stack = cavity_stack()
    mapping = serialize_stack(stack)
    rebuilt = build_stack(mapping)
    assert rebuilt.interfaces == stack.interfaces
    for a, b in zip(rebuilt.layers, stack.layers):
        assert a == b


def test_serialize_round_trip_tabulated():
    om = omega_from_ev(np.array([0.05, 0.10, 0.20]))
    tab = TabulatedIndex(om, np.array([1.5 + 0.1j, 1.7 + 0.3j, 1.9 + 0.5j]))
    stack = LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
        Layer(5e-6, tab, 350.0),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ])
    rebuilt = build_stack(serialize_stack(stack))
    probe = omega_from_ev(0.12)
    assert rebuilt.layers[1].index.at(probe) == pytest.approx(tab.at(probe))


def test_load_stack_from_yaml(tmp_path):
    cfg = tmp_path / "stack.yaml"
    cfg.write_text(
        "layers:\n"
        "  - {thickness: inf, n: 1.5+0.3i, temperature: 400.0}\n"
        "  - {thickness: 10.0, n: 1.0}\n"
        "  - {thickness: inf, n: 2.5+0.5i, temperature: 300.0}\n"
    )
    stack = load_stack(cfg)
    assert stack.layers[0].index.at(1.0) == 1.5 + 0.3j
    with pytest.raises(ConfigError, match="cannot read"):
        load_stack(tmp_path / "missing.yaml")


def test_index_table_csv(tmp_path):
    table = tmp_path / "n.csv"
    table.write_text("E_eV,n_re,n_im\n0.05,1.5,0.1\n0.25,1.9,0.5\n")
    config = {
        "layers": [
            {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
            {"thickness": 5.0, "n": {"table": "n.csv"}, "temperature": 350.0},
            {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
        ]
    }
    stack = build_stack(config, base_dir=tmp_path)
    mid = stack.layers[1].index.at(omega_from_ev(0.15))
    assert mid == pytest.approx(1.7 + 0.3j)

    table.write_text("energy,re,im\n0.05,1.5,0.1\n")
    with pytest.raises(ConfigError, match="must start with header"):
        build_stack(config, base_dir=tmp_path)


def test_profile_from_stack_and_uniform():
    stack = cavity_stack()
    profile = TemperatureProfile.from_stack(stack)
    assert profile.entries == (400.0, None, 300.0)
    assert temperature_at(profile, -1e-6) == 400.0
    assert temperature_at(profile, 5e-6) is None
    assert temperature_at(profile, 11e-6) == 300.0

    eq = TemperatureProfile.uniform(stack, 350.0)
    assert eq.entries == (350.0, None, 350.0)
    assert eq.stack is stack and eq.edges == stack.interfaces


def test_profile_requires_solved_self_consistent():
    stack = LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
        Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ])
    with pytest.raises(MissingTemperatureError):
        TemperatureProfile.from_stack(stack)


def test_source_regions_enumerate_lossy_layers():
    stack = cavity_stack()
    profile = TemperatureProfile.from_stack(stack)
    assert profile.sources == ((0, (-math.inf, 0.0), (400.0,)),
                               (2, (10e-6, math.inf), (300.0,)))


def test_sliced_profile_lookup_and_validation():
    stack = LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
        Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ])
    slices = LayerSlices(
        boundaries=tuple(np.linspace(0.0, 10e-6, 5)),
        temperatures=(380.0, 360.0, 340.0, 320.0),
    )
    profile = TemperatureProfile(stack, (400.0, slices, 300.0))
    assert temperature_at(profile, 1e-6) == 380.0
    assert temperature_at(profile, 9.9e-6) == 320.0
    assert profile.sources == ((0, (-math.inf, 0.0), (400.0,)),
                               (1, slices.boundaries, (380.0, 360.0, 340.0, 320.0)),
                               (2, (10e-6, math.inf), (300.0,)))
    assert profile.edges == (0.0, *slices.boundaries[1:-1], 10e-6)

    with pytest.raises(ConfigError, match="slice boundaries"):
        TemperatureProfile(
            stack, (400.0, LayerSlices((0.0, 10e-6), (350.0, 340.0)), 300.0))
    with pytest.raises(ConfigError, match="exactly tile"):
        TemperatureProfile(stack, (400.0, LayerSlices((1e-6, 10e-6), (350.0,)), 300.0))


def test_profile_reports_a_lossy_layer_without_temperature_on_read():
    """A lossy layer left without a temperature still makes a profile,
    since mode densities need none; reading its sources raises."""
    stack = cavity_stack()
    profile = TemperatureProfile(stack, (None, None, 300.0))
    with pytest.raises(MissingTemperatureError, match="layer 0"):
        profile.sources


@pytest.mark.parametrize("make_stack, entries, fragment", [
    (passive_cavity_stack, (400.0, LayerSlices((0.0, 10e-6), (350.0, 340.0)), 300.0),
     "slice boundaries"),
    (passive_cavity_stack, (400.0, LayerSlices((0.0, 4e-6), (350.0,)), 300.0),
     "exactly tile"),
    (passive_cavity_stack,
     (400.0, LayerSlices((0.0, 6e-6, 4e-6, 10e-6), (350.0, 340.0, 330.0)), 300.0),
     "exactly tile"),
    (passive_cavity_stack, (400.0, LayerSlices((0.0, math.nan, 10e-6), (350.0, 340.0)), 300.0),
     "exactly tile"),
    (passive_cavity_stack, (400.0, LayerSlices((0.0, "5e-6", 10e-6), (350.0, 340.0)), 300.0),
     "exactly tile"),
    (passive_cavity_stack, (400.0, LayerSlices((0.0, None, 10e-6), (350.0, 340.0)), 300.0),
     "exactly tile"),
    (passive_cavity_stack, (400.0, LayerSlices((0.0, 10e-6), (350.0,))), "profile length"),
    (passive_cavity_stack, (400.0, None, "300"), "positive number"),
    (passive_cavity_stack, (400.0, None, True), "positive number"),
    (passive_cavity_stack, (math.inf, None, 300.0), "positive number"),
    (passive_cavity_stack, (400.0, LayerSlices((0.0, 10e-6), ("350",)), 300.0),
     "positive numbers"),
    (cavity_stack, (400.0, 5000.0, 300.0), "layer 1: a temperature assignment requires"),
    (cavity_stack, (400.0, LayerSlices((0.0, 5e-6, 10e-6), (1.0, 9000.0)), 300.0),
     "layer 1: a temperature assignment requires"),
], ids=["count_mismatch", "partial_cover", "overlapping", "nan_boundary",
        "string_boundary", "none_boundary", "short",
        "string_temperature", "bool_temperature", "infinite_temperature",
        "string_slice_temperature", "lossless_layer_temperature",
        "lossless_layer_slices"])
def test_photon_numbers_reject_a_profile_that_does_not_fit(make_stack, entries, fragment):
    """A hand-built profile is checked when it is built, so no photon
    number is computed from a profile that leaves part of a layer dark,
    counts a part twice, runs past the stack, cuts it at a boundary that
    is not a number in order, holds a temperature that is not a finite
    positive number or gives one to a layer that does not emit (which no
    source region would read); the error is one line."""
    with pytest.raises(ConfigError, match=fragment) as info:
        TemperatureProfile(make_stack(), entries)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("evaluate", [
    lambda basis, profile: photon_numbers(basis.at(5e-6), profile),
    lambda basis, profile: net_force(basis, profile, 2e-6, 8e-6),
    lambda basis, profile: PointField(basis, profile, 5e-6).temperatures,
], ids=["photon_numbers", "net_force", "PointField_temperatures"])
def test_a_profile_of_another_stack_is_rejected(evaluate):
    """Two equal stacks are still two stacks: a profile is read only with
    field points of its own stack, so a basis solved for an edited copy
    never meets a profile built for the original."""
    basis = solve_wave_basis(cavity_stack(), omega_from_ev(np.array([0.05, 0.1])))
    profile = TemperatureProfile.from_stack(cavity_stack())
    with pytest.raises(ConfigError, match="another stack") as info:
        evaluate(basis, profile)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("layer, fragment", [
    ({"thickness": 10**400, "n": 1.0}, "out of range"),
    ({"thickness": 5.0, "n": 10**400}, "out of range"),
    ({"thickness": 5.0, "n": "1.5+0.1i", "temperature": 10**400}, "out of range"),
    ({"thickness": 5.0, "n": "1.5+0.1i", "temperature": float("inf")}, "finite"),
    ({"thickness": 5.0, "n": {"E_eV": [0.01, float("nan")], "n_re": [1.5, 1.6],
                              "n_im": [0.1, 0.1]}}, "must be finite"),
    ({"thickness": 5.0, "n": {"E_eV": [0.01, 0.5], "n_re": [1.5, float("inf")],
                              "n_im": [0.1, 0.1]}}, "must be finite"),
    ({"thickness": 5.0, "n": {"E_eV": [0.01, 0.5], "n_re": [1.5, 10**400],
                              "n_im": [0.1, 0.1]}}, "numeric lists"),
    ({"thickness": 5.0, "n": {"E_eV": "12", "n_re": "34", "n_im": "11"}}, "numeric lists"),
    ({"thickness": 5.0, "n": {"table": 3}}, "file path"),
    ({"thickness": 5.0, "n": {"table": "n\x00.csv"}}, "cannot read index table"),
    ({"thickness": 5.0, "n": {"E_eV": [1.0, 1.7e308], "n_re": [1.5, 1.6],
                              "n_im": [0.1, 0.1]}}, "energies must be finite"),
    ({"thickness": 5.0, "n": {"E_eV": [-1.7e308, 1.7e308], "n_re": [1.5, 1.6],
                              "n_im": [0.1, 0.1]}}, "energies must be finite"),
    # a bool is not a number, wherever it stands
    ({"thickness": True, "n": 1.0}, "layer 1: thickness must be a number or 'inf', not True"),
    ({"thickness": 5.0, "n": True}, "layer 1: refractive index must be a number, not True"),
    ({"thickness": 5.0, "n": "1.5+0.1i", "temperature": True},
     "layer 1: temperature must be a number or 'none' or 'self-consistent', not True"),
    ({"thickness": 5.0, "n": {"E_eV": [True, 2.0], "n_re": [1.5, 1.6],
                              "n_im": [0.1, 0.1]}}, "numeric lists"),
])
def test_build_stack_rejects_out_of_range_and_non_finite_values(layer, fragment):
    outer = {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0}
    with pytest.raises(ConfigError, match=fragment):
        build_stack({"layers": [outer, layer, outer]})


def test_outer_layer_thickness_must_be_plus_inf():
    inner = {"thickness": 5.0, "n": 1.0}
    outer = {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0}
    with pytest.raises(ConfigError, match="outer layers must have thickness inf"):
        build_stack({"layers": [dict(outer, thickness=float("-inf")), inner, outer]})


def test_build_stack_rejects_a_layer_too_thin_to_separate_its_interfaces():
    """A 1e-20 um layer after a 5 um one adds nothing to the interface
    position in double precision; the stack would hold a layer no point
    can lie in."""
    outer = {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0}
    layers = [outer, {"thickness": 5.0, "n": 1.0}, {"thickness": 1e-20, "n": 1.0}, outer]
    with pytest.raises(ConfigError, match="layer 2: .* too thin to separate its interfaces"):
        build_stack({"layers": layers})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
_LAYER_FIELDS = ["thickness", "n", "temperature", "extra"]
_TABLE_FIELDS = ["E_eV", "n_re", "n_im", "table"]


def _valid_config():
    return {
        "name": "probe",
        "layers": [
            {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
            {"thickness": 5.0, "n": {"E_eV": [0.01, 0.5], "n_re": [1.5, 1.7],
                                     "n_im": [0.1, 0.2]},
             "temperature": "self-consistent"},
            {"thickness": 2.0, "n": 1.0},
            {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
        ],
    }


def _assert_valid(stack):
    assert isinstance(stack, LayerStack)
    assert len(stack.layers) >= 2
    assert all(math.isfinite(x) for x in stack.interfaces)
    assert all(b > a for a, b in zip(stack.interfaces, stack.interfaces[1:]))
    for layer in stack.layers:
        index = layer.index
        if isinstance(index, ConstantIndex):
            values = np.array([index.value])
        else:
            assert np.all(np.isfinite(index.omega)) and np.all(np.diff(index.omega) > 0)
            values = index.values
        assert np.all(np.isfinite(values))
        assert np.all(values.real > 0) and np.all(values.imag >= 0)
        if layer.temperature is not None:
            assert math.isfinite(layer.temperature) and layer.temperature > 0


@settings(max_examples=300, deadline=None, database=None, print_blob=True)
@given(edits=st.lists(
           st.tuples(st.integers(0, 4), st.sampled_from(_LAYER_FIELDS + _TABLE_FIELDS),
                     _JSON),
           max_size=4),
       top=st.none() | st.tuples(st.sampled_from(["name", "layers", "extra"]), _JSON),
       raw=st.none() | st.dictionaries(st.text(max_size=8), _JSON, max_size=4))
def test_build_stack_returns_a_valid_stack_or_raises_config_error(tmp_path_factory,
                                                                  edits, top, raw):
    """A valid config with some fields replaced by arbitrary JSON-like
    values, and arbitrary mappings, either build a valid stack or fail
    with a ConfigError."""
    config = _valid_config()
    layers = config["layers"]
    for i, key, value in edits:
        if i >= len(layers):
            layers.append(value)
        elif not isinstance(layers[i], dict):
            continue
        elif key in _TABLE_FIELDS:
            if not isinstance(layers[i].get("n"), dict):
                layers[i]["n"] = {}
            layers[i]["n"][key] = value
        else:
            layers[i][key] = value
    if top is not None:
        config[top[0]] = top[1]
    base = tmp_path_factory.getbasetemp()
    for mapping in (config, raw):
        if mapping is None:
            continue
        try:
            stack = build_stack(mapping, base_dir=base)
        except ConfigError:
            continue
        _assert_valid(stack)

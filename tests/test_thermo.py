import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.integrate import trapezoid

import photonstack
from photonstack import cli, scan
from photonstack.errors import ConfigError, ConvergenceError, PhotonStackError
from photonstack.greens import solve_wave_basis
from photonstack.spectral import ldos, source_occupation
from photonstack.stack import (
    ConstantIndex,
    Layer,
    LayerSlices,
    LayerStack,
    TemperatureProfile,
    build_stack,
)
from photonstack import thermo
from photonstack.thermo import default_balance_grid, solve_self_consistent
from photonstack.units import ev_from_omega, hbar, omega_from_ev

from conftest import INF, cavity_stack, passive_cavity_stack, slab_stack
from oracles import _scalar_balance, net_emission


def test_default_grid_is_logarithmic():
    grid = default_balance_grid()
    ev = ev_from_omega(grid)
    assert grid.size == 256
    assert ev[0] == pytest.approx(1e-3)
    assert ev[-1] == pytest.approx(1.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


# --- pointwise exchange ----------------------------------------------------

def test_no_exchange_in_lossless_material(cavity, cavity_basis, cavity_profile):
    sample = net_emission(cavity_basis, cavity_profile, 5e-6)
    assert np.array_equal(sample, np.zeros(cavity_basis.omega.shape))


def test_equilibrium_exchange_vanishes(cavity, cavity_basis, cavity_profile):
    eq = TemperatureProfile.uniform(cavity, 350.0)
    for x in (-2e-6, 11e-6):
        sample = net_emission(cavity_basis, eq, x)
        # eta - n_e cancels to roundoff when every source sits at 350 K;
        # the 400/300 K profile at the same point sets the honest scale
        driven = net_emission(cavity_basis, cavity_profile, x)
        assert np.abs(sample).max() < 1e-8 * np.abs(driven).max()


def test_hot_reservoir_is_net_emitter(cavity, cavity_basis, cavity_profile):
    hot = net_emission(cavity_basis, cavity_profile, -0.5e-6)
    cold = net_emission(cavity_basis, cavity_profile, 10.5e-6)
    assert np.all(hot > 0)
    assert np.all(cold < 0)


def test_missing_temperature_raises(cavity, cavity_basis):
    profile = TemperatureProfile(cavity, (None, None, 300.0))
    with pytest.raises(ConfigError, match="no temperature assigned"):
        net_emission(cavity_basis, profile, -1e-6)


# --- self-consistent solve -------------------------------------------------

def test_solver_without_passive_layers_is_trivial(cavity):
    result = solve_self_consistent(cavity)
    assert result.iterations == 0
    assert result.temperatures.size == 0
    assert result.profile.entries == (400.0, None, 300.0)


def test_solver_needs_a_reservoir():
    stack = LayerStack(
        [Layer(INF, ConstantIndex(1.5 + 0.3j)),
         Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
         Layer(INF, ConstantIndex(2.5 + 0.5j))],
    )
    with pytest.raises(ConfigError, match="fixed-temperature reservoir"):
        solve_self_consistent(stack)


# a 200 um absorber whose region integrals overflow at the top of the
# balance grid: a NaN exchange must not pass as the hot reservoir's 400 K
THICK = {"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 200.0, "n": "1.5+1i", "temperature": "self-consistent"},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]}
THICK_ERROR = "balance exchange is not finite at x = 25 um, E = 0.703168 eV; refusing to solve"


def test_a_non_finite_exchange_raises():
    # the suite turns a RuntimeWarning into an error: the overflow is silent
    with pytest.raises(PhotonStackError) as info:
        solve_self_consistent(build_stack(THICK), slices=4)
    assert str(info.value) == THICK_ERROR


def test_balance_cli_refuses_a_non_finite_exchange(tmp_path, capsys):
    config = tmp_path / "thick.yaml"
    config.write_text(yaml.safe_dump(THICK))
    out = tmp_path / "out.csv"
    code = cli.main(["balance", str(config), "--slices", "4", "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {THICK_ERROR}\n"
    assert list(tmp_path.iterdir()) == [config]


def test_balance_command_refuses_a_non_finite_exchange_in_one_line(tmp_path):
    """Outside the test suite's warning filters too, the command prints
    its one error line and no numpy warning before it."""
    config = tmp_path / "thick.yaml"
    config.write_text(yaml.safe_dump(THICK))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = Path(photonstack.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "photonstack.cli", "balance", str(config), "--slices", "4"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert run.stderr == f"error: {THICK_ERROR}\n"


def test_scan_refuses_a_non_finite_exchange_before_the_pointwise_solve(
        tmp_path, capsys, monkeypatch):
    def pointwise(*args):
        raise AssertionError("the pointwise solve ran")

    monkeypatch.setattr(scan, "_pointwise", pointwise)
    spec = tmp_path / "s.yaml"
    spec.write_text(yaml.safe_dump({
        "stack": THICK, "quantities": ["T_e"], "balance": {"slices": 4},
        "positions": {"start": -1.0, "stop": 1.0, "count": 2},
        "energies": {"start": 0.1, "stop": 0.2, "count": 2},
        "output": str(tmp_path / "out.csv")}))
    assert cli.main(["scan", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {THICK_ERROR}\n"
    assert list(tmp_path.iterdir()) == [spec]


def test_equilibrium_reservoirs_give_flat_profile():
    stack = LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 350.0),
        Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 350.0),
    ])
    result = solve_self_consistent(stack, slices=4)
    # a bracket of one temperature returns it exactly
    assert np.all(result.temperatures == 350.0)


def test_passive_cavity_profile(passive_balance):
    result = passive_balance
    assert result.iterations <= 100
    # strictly between the reservoirs, hotter on the hot side
    assert np.all(result.temperatures > 300.0)
    assert np.all(result.temperatures < 400.0)
    assert result.temperatures[0] > result.temperatures[-1]
    # monotone decline from the 400 K wall to the 300 K wall
    assert np.all(np.diff(result.temperatures) < 0)


def test_passive_cavity_profile_entry_is_sliced(passive_balance, passive_cavity):
    entry = passive_balance.profile.entries[1]
    assert isinstance(entry, LayerSlices)
    assert entry.boundaries[0] == 0.0
    assert entry.boundaries[-1] == pytest.approx(10e-6)
    assert passive_balance.profile.stack is passive_cavity
    # slice positions are the midpoints of the tiling
    mids = 0.5 * (np.array(entry.boundaries[:-1]) + np.array(entry.boundaries[1:]))
    assert np.allclose(np.array(passive_balance.slice_positions), mids)


def test_solved_profile_zeroes_integrated_exchange(passive_balance, passive_cavity):
    """At the solved temperatures each slice midpoint's frequency-
    integrated exchange is small compared to the unbalanced scale."""
    om = default_balance_grid()
    basis = solve_wave_basis(passive_cavity, om)
    profile = passive_balance.profile
    unbalanced = TemperatureProfile(passive_cavity, (400.0, 350.0, 300.0))
    for x in np.array(passive_balance.slice_positions)[[0, 7, 15]]:
        solved = trapezoid(net_emission(basis, profile, x), om)
        flat = trapezoid(net_emission(basis, unbalanced, x), om)
        assert abs(solved) < 2e-3 * abs(flat)


def test_single_slice_balance_shows_profile_curvature(passive_cavity):
    """An M = 1 solve balances the layer as a whole, but its pointwise
    integrated exchange stays visibly nonzero: the true profile curves."""
    result = solve_self_consistent(passive_cavity, slices=1)
    t_flat = result.temperatures[0]
    assert 300.0 < t_flat < 400.0

    om = default_balance_grid()
    basis = solve_wave_basis(passive_cavity, om)
    q_edge = trapezoid(
        net_emission(basis, result.profile, 0.3e-6), om)
    q_mid = trapezoid(
        net_emission(basis, result.profile, 5.0e-6), om)
    assert abs(q_edge) > 10 * abs(q_mid)


def test_convergence_failure_raises(passive_cavity):
    with pytest.raises(ConvergenceError):
        solve_self_consistent(passive_cavity, max_iterations=1)


@pytest.mark.parametrize("settings, fragment", [
    ({"max_iterations": 0}, "max_iterations"),
    ({"slices": 0}, "slices"),
    ({"tolerance_K": 0.0}, "tolerance_K"),
    ({"tolerance_K": float("nan")}, "tolerance_K"),
    ({"tolerance_K": float("inf")}, "tolerance_K"),
    # under-relaxation is fixed at thermo.RELAXATION: no value is a setting
    ({"relaxation": 0.0}, "relaxation"),
    ({"relaxation": 1.5}, "relaxation"),
    # library calls get the scan spec's type checks and messages
    ({"slices": 2.5}, "balance slices must be an integer"),
    ({"slices": "4"}, "balance slices must be an integer"),
    ({"slices": True}, "balance slices must be an integer"),
    ({"max_iterations": 2.5}, "balance max_iterations must be an integer"),
    ({"tolerance_K": "fine"}, "balance tolerance_K must be a number"),
    ({"relaxation": 0.5}, "unknown balance keys"),
    ({"slice": 4}, "unknown balance keys"),
    ({"tolerance_K": True}, "balance tolerance_K must be a number, not True"),
])
def test_out_of_range_settings_raise_config_error(passive_cavity, monkeypatch,
                                                  settings, fragment):
    def started(*args, **kwargs):
        raise AssertionError("the balance solve started")

    # a solve that got past the settings check would iterate, possibly forever
    monkeypatch.setattr(thermo, "solve_wave_basis", started)
    with pytest.raises(ConfigError, match=fragment) as info:
        solve_self_consistent(passive_cavity, **settings)
    assert "\n" not in str(info.value)


def test_settings_are_completed_and_coerced_like_a_spec():
    # PyYAML reads 1e-3 (no dot) as a string; the library reads it the same way
    assert thermo.check_balance_settings({"tolerance_K": "1e-3", "slices": np.int64(8)}) == {
        "slices": 8, "tolerance_K": 1e-3, "max_iterations": 100}
    assert thermo.check_balance_settings({}) == thermo.BALANCE_DEFAULTS


def test_newton_stops_at_float_resolution(passive_cavity, monkeypatch):
    """A correction or bracket a few ulps wide cannot shrink any further,
    so a tolerance below that still ends each sweep's Newton solve; the
    solve then runs out of iterations instead of iterating forever."""
    calls = 0
    occupation = thermo.source_occupation

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise AssertionError("the Newton solve does not stop")
        return occupation(*args)

    # one occupation per Newton step and per sweep's absorption
    monkeypatch.setattr(thermo, "source_occupation", counted)
    with pytest.raises(ConvergenceError, match="after 2 iterations"):
        solve_self_consistent(passive_cavity, tolerance_K=1e-300, max_iterations=2)
    # two reservoirs, then per sweep one absorption and at most 8 Newton
    # or halving steps to 4 ulps of 400 K
    assert calls <= 2 + 2 * (1 + 8)


def _exchange_scale(stack, result):
    """Every slice's integral of |kernel| eta(T) over the balance grid at
    the solved temperatures: the size of the terms whose difference an
    integrated balance is, and so the scale of its roundoff."""
    om = default_balance_grid()
    basis = solve_wave_basis(stack, om)
    scale = []
    for x, t in zip(result.slice_positions, result.temperatures):
        im_n2 = (stack.layers[stack.layer_index(x)].index.at(om) ** 2).imag
        kernel = hbar * om**2 * im_n2 * ldos(basis.at(x)).electric
        scale.append(trapezoid(np.abs(kernel) * source_occupation(om, t), om))
    return np.array(scale)


# two self-consistent layers of different indices, and one whose Im[n^2]
# varies over the balance grid: the operator scales each slice row by its
# own layer's Im[n^2] at each frequency. Where that is 0 (below 10 meV in
# the last stack) the slices neither emit nor absorb, and their zero rows
# are no refusal.
TWO_LAYERS = build_stack({"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 2.0, "n": "1.1+0.1i", "temperature": "self-consistent"},
    {"thickness": 1.0, "n": 1.0},
    {"thickness": 3.0, "n": "1.2+0.2i", "temperature": "self-consistent"},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]})
TABULATED = build_stack({"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 5.0, "temperature": "self-consistent",
     "n": {"E_eV": [0.0005, 0.3, 2], "n_re": [1.1, 1.4, 1.2], "n_im": [0.02, 0.3, 0.05]}},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]})
TRANSPARENT_BELOW_10_MEV = build_stack({"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 5.0, "temperature": "self-consistent",
     "n": {"E_eV": [0.0005, 0.01, 0.3, 2], "n_re": [1.1, 1.1, 1.4, 1.2],
           "n_im": [0.0, 0.0, 0.3, 0.05]}},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]})


@pytest.mark.parametrize("stack, slices", [
    (passive_cavity_stack(), 16),
    (slab_stack(2.5e-6, 1.5 + 0.3j, self_consistent=True), 8),
    (TWO_LAYERS, 4),
    (TABULATED, 8),
    (TRANSPARENT_BELOW_10_MEV, 8),
], ids=["passive_cavity", "absorbing_slab", "two_layers", "tabulated", "transparent_band"])
def test_lockstep_newton_matches_the_scalar_bisection(stack, slices):
    """Batched weights and the lockstep Newton solve find the roots of the
    slice-by-slice bisection to well within the tolerance, and report as
    residuals its balances at the solved temperatures to roundoff: the
    exchange operator sums in another order than its scalar integrals,
    and the bisection's kernel takes rho_e from the Green's function."""
    for tolerance_K, bound in ((1e-7, 1e-8), (1e-3, 5e-5)):
        result = solve_self_consistent(stack, slices=slices, tolerance_K=tolerance_K)
        temps, balances = _scalar_balance(stack, slices, tolerance_K)
        assert np.max(np.abs(result.temperatures - temps)) < bound
        roundoff = 64 * np.finfo(float).eps * _exchange_scale(stack, result)
        assert np.all(np.abs(result.residuals - balances(result.temperatures)) <= roundoff)


def test_a_sweep_reuses_its_occupancies_for_the_first_newton_step(passive_cavity, monkeypatch):
    """The sweep's first Newton step reuses the occupancies that gave the
    slices' absorption, and the residuals take their emission and their
    absorption from one evaluation: one passive_cavity solve at 16 slices
    makes at most 66 occupancy evaluations in its 25 sweeps (92 when
    every step evaluated its own)."""
    calls = 0
    occupation = thermo.source_occupation

    def counted(*args):
        nonlocal calls
        calls += 1
        return occupation(*args)

    monkeypatch.setattr(thermo, "source_occupation", counted)
    result = solve_self_consistent(passive_cavity, slices=16)
    assert result.iterations == 25
    assert calls <= 66

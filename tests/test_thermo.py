import numpy as np
import pytest
from scipy.integrate import trapezoid

from photonstack.errors import ConfigError, ConvergenceError
from photonstack.greens import region_integrals, solve_wave_basis
from photonstack.spectral import electric_density, source_occupation
from photonstack.stack import (
    ConstantIndex,
    Layer,
    LayerSlices,
    LayerStack,
    TemperatureProfile,
)
from photonstack import thermo
from photonstack.thermo import default_balance_grid, solve_self_consistent
from photonstack.units import ev_from_omega, hbar, omega_from_ev

from conftest import INF, cavity_stack, passive_cavity_stack, slab_stack
from oracles import net_emission


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
    sample = net_emission(cavity, cavity_basis, cavity_profile, 5e-6)
    assert np.array_equal(sample, np.zeros(cavity_basis.omega.shape))


def test_equilibrium_exchange_vanishes(cavity, cavity_basis, cavity_profile):
    eq = TemperatureProfile.uniform(cavity, 350.0)
    for x in (-2e-6, 11e-6):
        sample = net_emission(cavity, cavity_basis, eq, x)
        # eta - n_e cancels to roundoff when every source sits at 350 K;
        # the 400/300 K profile at the same point sets the honest scale
        driven = net_emission(cavity, cavity_basis, cavity_profile, x)
        assert np.abs(sample).max() < 1e-8 * np.abs(driven).max()


def test_hot_reservoir_is_net_emitter(cavity, cavity_basis, cavity_profile):
    hot = net_emission(cavity, cavity_basis, cavity_profile, -0.5e-6)
    cold = net_emission(cavity, cavity_basis, cavity_profile, 10.5e-6)
    assert np.all(hot > 0)
    assert np.all(cold < 0)


def test_missing_temperature_raises(cavity, cavity_basis):
    profile = TemperatureProfile((None, None, 300.0))
    with pytest.raises(ConfigError, match="no temperature assigned"):
        net_emission(cavity, cavity_basis, profile, -1e-6)


# --- self-consistent solve -------------------------------------------------

def test_solver_without_passive_layers_is_trivial(cavity):
    result = solve_self_consistent(cavity)
    assert result.iterations == 0
    assert result.temperatures.size == 0
    assert result.profile.entries == (400.0, None, 300.0)


def test_solver_needs_a_reservoir():
    stack = LayerStack.assemble(
        [Layer(INF, ConstantIndex(1.5 + 0.3j)),
         Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
         Layer(INF, ConstantIndex(2.5 + 0.5j))],
    )
    with pytest.raises(ConfigError, match="fixed-temperature reservoir"):
        solve_self_consistent(stack)


def test_equilibrium_reservoirs_give_flat_profile():
    stack = LayerStack.assemble([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 350.0),
        Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 350.0),
    ])
    result = solve_self_consistent(stack, slices=4)
    assert np.max(np.abs(result.temperatures - 350.0)) < 1e-2


def test_passive_cavity_profile(passive_balance):
    result = passive_balance
    assert result.iterations <= 100
    assert len(result.update_history) == result.iterations
    assert result.update_history[-1] < 1e-3
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
    passive_balance.profile.validate(passive_cavity)
    # slice positions are the midpoints of the tiling
    mids = 0.5 * (np.array(entry.boundaries[:-1]) + np.array(entry.boundaries[1:]))
    assert np.allclose(np.array(passive_balance.slice_positions), mids)


def test_solved_profile_zeroes_integrated_exchange(passive_balance, passive_cavity):
    """At the solved temperatures each slice midpoint's frequency-
    integrated exchange is small compared to the unbalanced scale."""
    om = default_balance_grid()
    basis = solve_wave_basis(passive_cavity, om)
    profile = passive_balance.profile
    unbalanced = TemperatureProfile(
        (400.0, 350.0, 300.0))
    for x in np.array(passive_balance.slice_positions)[[0, 7, 15]]:
        solved = trapezoid(net_emission(passive_cavity, basis, profile, x), om)
        flat = trapezoid(net_emission(passive_cavity, basis, unbalanced, x), om)
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
        net_emission(passive_cavity, basis, result.profile, 0.3e-6), om)
    q_mid = trapezoid(
        net_emission(passive_cavity, basis, result.profile, 5.0e-6), om)
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
    ({"relaxation": 0.0}, "relaxation"),
    ({"relaxation": 1.5}, "relaxation"),
])
def test_out_of_range_settings_raise_config_error(passive_cavity, monkeypatch,
                                                  settings, fragment):
    def started(*args, **kwargs):
        raise AssertionError("the balance sweep started")

    # a solve that got past the settings check would bisect, possibly forever
    monkeypatch.setattr(thermo, "_bisect_all", started)
    with pytest.raises(ConfigError, match=fragment):
        solve_self_consistent(passive_cavity, **settings)


def test_bisection_stops_at_float_resolution():
    """A bracket a few ulps wide cannot be halved, so a tolerance below
    that still ends the bisection, at the root."""
    calls = 0

    def balance(t, m):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise AssertionError("bisection does not stop")
        return t - 350.0

    roots = thermo._bisect_all(balance, 1, 300.0, 400.0, 1e-20)
    assert abs(roots[0] - 350.0) < 1e-12


def _scalar_balance(stack, slices, tolerance_K=1e-3, relaxation=0.5):
    """Reference solve, one slice and one source region at a time: the
    weights from per-midpoint region integrals and every slice bisected
    on its own with scalar trapezoid integrals."""
    om = default_balance_grid()
    basis = solve_wave_basis(stack, om)
    fixed = [layer.temperature for layer in stack.layers if layer.temperature is not None]
    t_lo, t_hi = min(fixed), max(fixed)
    regions = [(j, *stack.layer_bounds(j), layer.temperature)
               for j, layer in enumerate(stack.layers)
               if layer.lossy and not layer.self_consistent]
    n_fixed = len(regions)
    midpoints = []
    for j, layer in enumerate(stack.layers):
        if layer.self_consistent:
            edges = np.linspace(*stack.layer_bounds(j), slices + 1)
            for m in range(slices):
                midpoints.append((j, float(0.5 * (edges[m] + edges[m + 1]))))
                regions.append((j, float(edges[m]), float(edges[m + 1]), None))
    n2im = lambda j: (stack.layers[j].n_at(om) ** 2).imag  # noqa: E731
    weights = np.array([[n2im(r[0]) * region_integrals(basis, x, r[0], r[1], r[2]).gg
                         for r in regions] for _, x in midpoints])
    kernel = np.array([hbar * om**2 * n2im(j) * electric_density(basis, x)
                       for j, x in midpoints])
    denom = weights.sum(axis=1)
    eta_fixed = [source_occupation(om, r[3]) for r in regions[:n_fixed]]

    def field_numbers(temps):
        filled = np.array(eta_fixed + [source_occupation(om, t) for t in temps])
        return np.einsum("mrw,rw->mw", weights, filled) / denom

    def balance(m, t, n_e):
        return float(trapezoid(kernel[m] * (source_occupation(om, t) - n_e[m]), om))

    def bisect(f, tol):
        if t_hi - t_lo <= tol or f(t_lo) >= 0.0:
            return t_lo
        if f(t_hi) <= 0.0:
            return t_hi
        lo, hi = t_lo, t_hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if f(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    temps = np.full(len(midpoints), 0.5 * (t_lo + t_hi))
    while True:
        n_e = field_numbers(temps)
        roots = np.array([bisect(lambda t, m=m: balance(m, t, n_e), 0.1 * tolerance_K)
                          for m in range(len(midpoints))])
        update = relaxation * (roots - temps)
        temps = temps + update
        if np.max(np.abs(update)) < tolerance_K:
            break
    n_e = field_numbers(temps)
    residuals = np.array([balance(m, float(temps[m]), n_e) for m in range(len(temps))])
    return temps, residuals


@pytest.mark.parametrize("stack, slices", [
    (passive_cavity_stack(), 16),
    (slab_stack(2.5e-6, 1.5 + 0.3j, self_consistent=True), 8),
], ids=["passive_cavity", "absorbing_slab"])
def test_lockstep_bisection_matches_the_scalar_solve(stack, slices):
    """Batched weights and lockstep bisection reproduce the slice-by-slice
    solve bit for bit."""
    result = solve_self_consistent(stack, slices=slices)
    temps, residuals = _scalar_balance(stack, slices)
    assert np.array_equal(result.temperatures, temps)
    assert np.array_equal(result.residuals, residuals)

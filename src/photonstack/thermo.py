"""Matter-field energy exchange and self-consistent layer temperatures.

A lossy layer at temperature T emits into the field in proportion to the
gap between its own Bose-Einstein occupancy and the electric-field photon
number at its location; the net spectral exchange rate is

    q(x, omega) = hbar omega^2 Im[n^2] rho_e(x) (eta(T, omega) - n_e(x)).

Layers marked self-consistent are cut into uniform slices, and every
slice temperature is driven to the root of its net exchange integrated
over a photon-energy grid (a conduction-coupled slab thermalizes each
slice to one temperature). The reservoirs bracket each root, which
bisection finds. ``spectral.region_weights`` fills in once per solve how
strongly each source region of the sliced profile illuminates each slice
midpoint; each sweep bisects all slice balances at once on a (slices,
omega) array, and an under-relaxed update converges their mutual
illumination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .greens import solve_wave_basis
from .spectral import electric_density, region_weights, source_occupation
from .stack import LayerStack, TemperatureProfile, _count, _integer, _mapping, _real
from .units import hbar, omega_from_ev


def default_balance_grid():
    """The balance integrals' photon-energy grid as angular frequencies:
    256 points spaced logarithmically from 1 meV to 1 eV."""
    return omega_from_ev(np.geomspace(1e-3, 1.0, 256))


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Solved slice temperatures and convergence record."""

    profile: TemperatureProfile
    slice_positions: tuple[float, ...]
    temperatures: np.ndarray
    residuals: np.ndarray
    iterations: int
    update_history: tuple[float, ...]


BALANCE_DEFAULTS = {
    "slices": 16,
    "tolerance_K": 1e-3,
    "max_iterations": 100,
    "relaxation": 0.5,
}


def check_balance_settings(settings) -> dict:
    """The complete balance settings, in the order of BALANCE_DEFAULTS:
    ``settings`` over the defaults, with integer slices and
    max_iterations and real tolerance_K and relaxation. Raise ConfigError
    for an unknown key, a value of the wrong type, or one out of range:
    fewer than one slice or iteration, more slices than an array can
    hold, a tolerance that is not positive and finite, or a relaxation
    outside (0, 1]."""
    merged = {**BALANCE_DEFAULTS, **_mapping(settings, BALANCE_DEFAULTS, "balance")}
    slices = _count(merged["slices"], "balance slices")
    max_iterations = _integer(merged["max_iterations"], "balance max_iterations")
    tolerance_K = _real(merged["tolerance_K"], "balance tolerance_K")
    relaxation = _real(merged["relaxation"], "balance relaxation")
    if max_iterations < 1:
        raise ConfigError("balance max_iterations must be >= 1")
    if not 0.0 < tolerance_K < np.inf:
        raise ConfigError("balance tolerance_K must be positive and finite")
    if not 0.0 < relaxation <= 1.0:
        raise ConfigError("balance relaxation must lie in (0, 1]")
    return {"slices": slices, "tolerance_K": tolerance_K,
            "max_iterations": max_iterations, "relaxation": relaxation}


def _bisect_all(balance, n: int, t_lo: float, t_hi: float, tol: float):
    """Roots of n monotonically increasing balance functions on [t_lo,
    t_hi], each clamped to the bracket when its root lies outside it.

    ``balance(t, m)`` evaluates the functions with indices ``m`` at the
    temperatures ``t``. All brackets are halved in lockstep, but each one
    keeps its own early exits and stops once narrower than ``tol``, so
    every root is exactly what a bisection of that function alone finds.
    A ``tol`` below a few ulps of ``t_hi`` is raised to that, since such
    a bracket cannot be halved any further.
    """
    tol = max(tol, 4.0 * np.spacing(t_hi))
    roots = np.full(n, t_lo)
    if t_hi - t_lo <= tol:
        return roots
    live = np.flatnonzero(~(balance(roots, np.arange(n)) >= 0.0))
    at_hi = balance(np.full(live.size, t_hi), live) <= 0.0
    roots[live[at_hi]] = t_hi
    live = live[~at_hi]
    lo = np.full(live.size, t_lo)
    hi = np.full(live.size, t_hi)
    while True:
        moving = np.flatnonzero(hi - lo > tol)
        if moving.size == 0:
            break
        mid = 0.5 * (lo[moving] + hi[moving])
        up = balance(mid, live[moving]) >= 0.0
        hi[moving[up]] = mid[up]
        lo[moving[~up]] = mid[~up]
    roots[live] = 0.5 * (lo + hi)
    return roots


def solve_self_consistent(stack: LayerStack, **settings) -> BalanceResult:
    """Find slice temperatures that zero each slice's integrated exchange.

    ``settings`` override BALANCE_DEFAULTS: ``slices`` per self-consistent
    layer, ``tolerance_K``, ``max_iterations`` and ``relaxation``. Each
    iteration fills the midpoints' source weights with the current
    occupancies and bisects all slice balances in lockstep between the
    coldest and hottest reservoir, each with its own clamping and its own
    stop at a bracket of ``0.1 * tolerance_K`` (so the roots are those of
    a slice-by-slice bisection). The update is under-relaxed; the solve
    converges once the largest update is below ``tolerance_K``, or raises
    ConvergenceError after ``max_iterations``; unusable settings (see
    ``check_balance_settings``) raise ConfigError.
    """
    slices, tolerance_K, max_iterations, relaxation = (
        check_balance_settings(settings).values())
    sc_layers = [j for j, layer in enumerate(stack.layers) if layer.self_consistent]
    if not sc_layers:
        return BalanceResult(
            profile=TemperatureProfile.from_stack(stack),
            slice_positions=(),
            temperatures=np.empty(0),
            residuals=np.empty(0),
            iterations=0,
            update_history=(),
        )
    fixed = [
        layer.temperature for layer in stack.layers if layer.temperature is not None
    ]
    if not fixed:
        raise ConfigError(
            "self-consistent layers need at least one fixed-temperature reservoir"
        )
    t_lo, t_hi = min(fixed), max(fixed)

    om = default_balance_grid()
    basis = solve_wave_basis(stack, om)

    t_init = 0.5 * (t_lo + t_hi)
    slice_edges = {j: np.linspace(*stack.layer_bounds(j), slices + 1) for j in sc_layers}
    n_slices = len(sc_layers) * slices
    temps = np.full(n_slices, t_init)
    initial = TemperatureProfile.sliced(stack, slice_edges, temps.reshape(-1, slices))
    # reservoirs before slices: the balance temperatures depend on this summation order
    regions = sorted(initial.regions,
                     key=lambda reg: stack.layers[reg.layer].self_consistent)

    # one field-point record per layer over all of its slice midpoints,
    # whose rows of the weight matrix are filled in place
    weights = np.empty((n_slices, len(regions), om.size))
    kernel = np.empty((n_slices, om.size))
    midpoints = []
    for i, j in enumerate(sc_layers):
        x_m = 0.5 * (slice_edges[j][:-1] + slice_edges[j][1:])
        midpoints.append(x_m)
        points = basis.at(x_m)
        rows = slice(i * slices, (i + 1) * slices)
        region_weights(points, regions, weights[rows])
        kernel[rows] = hbar * om**2 * (points.n ** 2).imag * electric_density(points)

    denom = weights.sum(axis=1)
    eta_fixed = np.array([source_occupation(om, reg.temperature)
                          for reg in regions[:-n_slices]])

    def field_numbers(t_slices):
        filled = np.concatenate([eta_fixed, source_occupation(om, t_slices[:, None])])
        return np.einsum("mrw,rw->mw", weights, filled) / denom

    def integrated_balance(t, m, n_e):
        # net exchange of slices m at temperatures t, over the (m, omega) grid
        eta = source_occupation(om, t[:, None])
        return np.trapezoid(kernel[m] * (eta - n_e[m]), om, axis=-1)

    history: list[float] = []
    for iterations in range(1, max_iterations + 1):
        n_e = field_numbers(temps)
        roots = _bisect_all(
            lambda t, m: integrated_balance(t, m, n_e),
            n_slices,
            t_lo,
            t_hi,
            0.1 * tolerance_K,
        )
        update = relaxation * (roots - temps)
        temps = temps + update
        step = float(np.max(np.abs(update)))
        history.append(step)
        if step < tolerance_K:
            break
    else:
        raise ConvergenceError(
            f"balance sweep still moving {history[-1]:.3e} K after "
            f"{max_iterations} iterations (tolerance {tolerance_K:g} K)"
        )

    residuals = integrated_balance(temps, np.arange(n_slices), field_numbers(temps))

    return BalanceResult(
        profile=TemperatureProfile.sliced(stack, slice_edges, temps.reshape(-1, slices)),
        slice_positions=tuple(float(x) for x in np.concatenate(midpoints)),
        temperatures=temps,
        residuals=residuals,
        iterations=iterations,
        update_history=tuple(history),
    )

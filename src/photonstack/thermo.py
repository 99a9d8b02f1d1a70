"""Matter-field energy exchange and self-consistent layer temperatures.

A lossy layer at temperature T emits into the field in proportion to the
gap between its own Bose-Einstein occupancy and the electric-field photon
number at its location; the net spectral exchange rate is

    q(x, omega) = hbar omega^2 Im[n^2] rho_e(x) (eta(T, omega) - n_e(x)).

Layers marked self-consistent are assigned the temperature profile that
balances this exchange: each layer is cut into uniform slices, and every
slice temperature is driven to the root of its frequency-integrated net
exchange. The balance is integrated over a photon-energy grid rather
than enforced per frequency, which is the regime of a conduction-coupled
slab that thermalizes each slice to a single temperature.

The fixed-temperature reservoirs bound the attainable slice temperatures,
so each root is bracketed and found by bisection. The source regions
(reservoirs and slices) come from the sliced temperature profile, as
for every other photon-number evaluation. The geometry behind the
exchange (how strongly every source region illuminates every slice
midpoint) is evaluated once per solve with ``spectral.source_weights``,
one call per (self-consistent layer, source region) covering all of the
layer's midpoints. Each sweep then bisects every slice's balance at
once on a (slices, omega) array, and an under-relaxed update of all
slices converges the mutual illumination between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import ConfigError, ConvergenceError
from .greens import solve_wave_basis
from .spectral import electric_density, source_occupation, source_weights
from .stack import LayerSlices, LayerStack, TemperatureProfile
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


def check_balance_settings(slices, tolerance_K, max_iterations, relaxation):
    """Raise ConfigError unless the balance settings are usable: at least
    one slice and one iteration, a positive finite tolerance, and a
    relaxation in (0, 1]."""
    if not (slices >= 1 and max_iterations >= 1):
        raise ConfigError("balance slices and max_iterations must be >= 1")
    if not 0.0 < tolerance_K < np.inf:
        raise ConfigError("balance tolerance_K must be positive and finite")
    if not 0.0 < relaxation <= 1.0:
        raise ConfigError("balance relaxation must lie in (0, 1]")


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


def _sliced_profile(stack: LayerStack, edges: dict, temps) -> TemperatureProfile:
    """The stack's fixed temperatures, with each self-consistent layer j
    cut at ``edges[j]`` into slices at the matching row of ``temps``."""
    entries = [layer.temperature for layer in stack.layers]
    for (j, layer_edges), layer_temps in zip(edges.items(), temps):
        entries[j] = LayerSlices(tuple(float(b) for b in layer_edges),
                                 tuple(float(t) for t in layer_temps))
    return TemperatureProfile(tuple(entries))


def solve_self_consistent(
    stack: LayerStack,
    *,
    slices: int = 16,
    tolerance_K: float = 1e-3,
    max_iterations: int = 100,
    relaxation: float = 0.5,
) -> BalanceResult:
    """Find slice temperatures that zero each slice's integrated exchange.

    Every layer marked self-consistent is divided into ``slices`` uniform
    slices. The geometry factors (absorption-weighted propagation
    integrals from every source region to every slice midpoint, and the
    per-midpoint emission kernel) are computed once, one region-integral
    call per (layer, source region) over all midpoints of the layer. Each
    iteration reweights them with the current occupancies and bisects
    all slice balances in lockstep between the coldest and hottest
    reservoir: one trapezoid over a (slices, omega) array per step, with
    each slice keeping its own clamping to the bracket and its own stop
    at a bracket of ``0.1 * tolerance_K``, so the roots are exactly those
    of a slice-by-slice bisection. The update is applied with
    under-relaxation; convergence is declared when the largest applied
    update falls below ``tolerance_K``, and exceeding ``max_iterations``
    raises ConvergenceError. Settings out of range (see
    ``check_balance_settings``) raise ConfigError.
    """
    check_balance_settings(slices, tolerance_K, max_iterations, relaxation)
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
    initial = _sliced_profile(stack, slice_edges, temps.reshape(-1, slices))
    # reservoirs before slices: the balance temperatures depend on this summation order
    regions = sorted(initial.source_regions(stack),
                     key=lambda reg: stack.layers[reg.layer].self_consistent)

    # one source-weight call per (layer, source region) over all of the
    # layer's slice midpoints
    weights = np.empty((n_slices, len(regions), om.size))
    kernel = np.empty((n_slices, om.size))
    midpoints = []
    for i, j in enumerate(sc_layers):
        x_m = 0.5 * (slice_edges[j][:-1] + slice_edges[j][1:])
        midpoints.append(x_m)
        rows = slice(i * slices, (i + 1) * slices)
        for r, reg in enumerate(regions):
            weights[rows, r] = source_weights(stack, basis, reg, x_m)[0]
        n2im_m = (stack.layers[j].n_at(om) ** 2).imag
        kernel[rows] = hbar * om**2 * n2im_m * electric_density(basis, x_m)

    denom = weights.sum(axis=1)
    eta_fixed = np.array([source_occupation(om, reg.temperature)
                          for reg in regions[:-n_slices]])

    def field_numbers(t_slices):
        filled = np.concatenate([eta_fixed, source_occupation(om, t_slices[:, None])])
        return np.einsum("mrw,rw->mw", weights, filled) / denom

    def integrated_balance(t, m, n_e):
        # net exchange of slices m at temperatures t, over the (m, omega) grid
        eta = source_occupation(om, t[:, None])
        return trapezoid(kernel[m] * (eta - n_e[m]), om, axis=-1)

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

    profile = _sliced_profile(stack, slice_edges, temps.reshape(-1, slices))
    profile.validate(stack)

    return BalanceResult(
        profile=profile,
        slice_positions=tuple(float(x) for x in np.concatenate(midpoints)),
        temperatures=temps,
        residuals=residuals,
        iterations=iterations,
        update_history=tuple(history),
    )

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
strongly each region of the sliced profile's ``sources`` (the reservoir
layers first, then the sliced ones) illuminates each slice midpoint;
each sweep bisects every slice balance in lockstep on one (slices,
omega) array, and an update under-relaxed by RELAXATION converges their
mutual illumination.
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


BALANCE_DEFAULTS = {
    "slices": 16,
    "tolerance_K": 1e-3,
    "max_iterations": 100,
}

# each sweep moves the slice temperatures half way to their new roots
RELAXATION = 0.5


def check_balance_settings(settings) -> dict:
    """The complete balance settings, in the order of BALANCE_DEFAULTS:
    ``settings`` over the defaults, with integer slices and
    max_iterations and a real tolerance_K. Raise ConfigError for an
    unknown key, a value of the wrong type, or one out of range: fewer
    than one slice or iteration, more slices than an array can hold, or a
    tolerance that is not positive and finite."""
    merged = {**BALANCE_DEFAULTS, **_mapping(settings, BALANCE_DEFAULTS, "balance")}
    slices = _count(merged["slices"], "balance slices")
    max_iterations = _integer(merged["max_iterations"], "balance max_iterations")
    tolerance_K = _real(merged["tolerance_K"], "balance tolerance_K")
    if max_iterations < 1:
        raise ConfigError("balance max_iterations must be >= 1")
    if not 0.0 < tolerance_K < np.inf:
        raise ConfigError("balance tolerance_K must be positive and finite")
    return {"slices": slices, "tolerance_K": tolerance_K,
            "max_iterations": max_iterations}


def solve_self_consistent(stack: LayerStack, **settings) -> BalanceResult:
    """Find slice temperatures that zero each slice's integrated exchange.

    ``settings`` override BALANCE_DEFAULTS: ``slices`` per self-consistent
    layer, ``tolerance_K`` and ``max_iterations``. Each iteration fills
    the midpoints' source weights with the current occupancies and
    bisects every slice balance in lockstep between the coldest and
    hottest reservoir, each slice with its own clamping to that bracket
    and its own stop once its bracket is no wider than ``0.1 *
    tolerance_K`` (or a few ulps), so the roots are those of a
    slice-by-slice bisection. The update is under-relaxed by RELAXATION;
    the solve converges once the largest update is below ``tolerance_K``,
    or raises ConvergenceError after ``max_iterations``; unusable
    settings (see ``check_balance_settings``) raise ConfigError.
    """
    slices, tolerance_K, max_iterations = check_balance_settings(settings).values()
    sc_layers = [j for j, layer in enumerate(stack.layers) if layer.self_consistent]
    if not sc_layers:
        return BalanceResult(
            profile=TemperatureProfile.from_stack(stack),
            slice_positions=(),
            temperatures=np.empty(0),
            residuals=np.empty(0),
            iterations=0,
        )
    fixed = [layer.temperature for layer in stack.layers if layer.temperature is not None]
    if not fixed:
        raise ConfigError("self-consistent layers need at least one fixed-temperature reservoir")
    t_lo, t_hi = min(fixed), max(fixed)
    # a bracket a few ulps wide cannot be halved any further, and one no
    # wider than tol holds the one root t_lo
    tol = max(0.1 * tolerance_K, 4.0 * np.spacing(t_hi))
    t_top = t_hi if t_hi - t_lo > tol else t_lo

    om = default_balance_grid()
    basis = solve_wave_basis(stack, om)

    slice_edges = {j: np.linspace(*stack.layer_bounds(j), slices + 1) for j in sc_layers}
    n_slices = len(sc_layers) * slices
    temps = np.full(n_slices, 0.5 * (t_lo + t_hi))
    initial = TemperatureProfile.sliced(stack, slice_edges, temps.reshape(-1, slices))
    # reservoirs before slices: the balance temperatures depend on this summation order
    sources = sorted(initial.sources, key=lambda src: stack.layers[src[0]].self_consistent)
    reservoirs = [t for _, _, (t,) in sources[:-len(sc_layers)]]

    # one field-point record per layer over all of its slice midpoints,
    # whose rows of the weight matrix are filled in place
    weights = np.empty((n_slices, len(reservoirs) + n_slices, om.size))
    kernel = np.empty((n_slices, om.size))
    midpoints = []
    for i, j in enumerate(sc_layers):
        x_m = 0.5 * (slice_edges[j][:-1] + slice_edges[j][1:])
        midpoints.append(x_m)
        points = basis.at(x_m)
        rows = slice(i * slices, (i + 1) * slices)
        region_weights(points, sources, weights[rows])
        kernel[rows] = hbar * om**2 * (points.n ** 2).imag * electric_density(points)

    denom = weights.sum(axis=1)
    eta_fixed = np.array([source_occupation(om, t) for t in reservoirs])

    def field_numbers(t_slices):
        filled = np.concatenate([eta_fixed, source_occupation(om, t_slices[:, None])])
        return np.einsum("mrw,rw->mw", weights, filled) / denom

    def integrated_balance(t, n_e):
        # net exchange of every slice at its temperature in t
        eta = source_occupation(om, t[:, None])
        return np.trapezoid(kernel * (eta - n_e), om, axis=-1)

    for iterations in range(1, max_iterations + 1):
        n_e = field_numbers(temps)
        # Each slice halves its own bracket until it is no wider than tol,
        # but one whose balance at t_lo is >= 0 (a NaN is not) keeps t_lo,
        # and then one whose balance at the top is <= 0 keeps the top.
        lo, hi = np.full(n_slices, t_lo), np.full(n_slices, t_top)
        at_lo = integrated_balance(lo, n_e) >= 0.0
        at_hi = ~at_lo & (integrated_balance(hi, n_e) <= 0.0)
        hi[at_lo] = t_lo
        lo[at_hi] = t_top
        while (moving := hi - lo > tol).any():
            mid = 0.5 * (lo + hi)
            up = integrated_balance(mid, n_e) >= 0.0
            hi = np.where(moving & up, mid, hi)
            lo = np.where(moving & ~up, mid, lo)
        update = RELAXATION * (0.5 * (lo + hi) - temps)
        temps = temps + update
        step = float(np.max(np.abs(update)))
        if step < tolerance_K:
            break
    else:
        raise ConvergenceError(f"balance sweep still moving {step:.3e} K after {max_iterations} "
                               f"iterations (tolerance {tolerance_K:g} K)")

    residuals = integrated_balance(temps, field_numbers(temps))

    return BalanceResult(
        profile=TemperatureProfile.sliced(stack, slice_edges, temps.reshape(-1, slices)),
        slice_positions=tuple(float(x) for x in np.concatenate(midpoints)),
        temperatures=temps,
        residuals=residuals,
        iterations=iterations,
    )

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
so each root is bracketed and found by bisection; an under-relaxed sweep
over slices then converges the mutual illumination between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import ConfigError, ConvergenceError
from .greens import region_integrals, solve_wave_basis
from .spectral import electric_density, photon_numbers, source_occupation
from .stack import LayerSlices, LayerStack, Region, TemperatureProfile
from .units import hbar, omega_from_ev


@dataclass(frozen=True, eq=False)
class EmissionSample:
    """Net spectral power density handed from matter to the field at x;
    positive while the material runs hotter than the field it sits in."""

    value: np.ndarray
    x: float


def net_emission(
    stack: LayerStack, basis, profile: TemperatureProfile, x: float
) -> EmissionSample:
    """Evaluate the net exchange rate at one point.

    Lossless material exchanges nothing; a lossy layer must carry a
    temperature (fixed or solved) to be evaluated. ``basis`` may be a
    plain normal-variant WaveBasis or a BasisPair.
    """
    basis = getattr(basis, "normal", basis)
    om = basis.omega
    nn = stack.layers[stack.layer_index(x)].n_at(om)
    im_n2 = (nn * nn).imag
    if not np.any(im_n2 != 0.0):
        return EmissionSample(np.zeros(om.shape), x)
    temperature = profile.temperature_at(stack, x)
    if temperature is None:
        raise ConfigError(f"no temperature assigned at x = {x!r}")
    rho_e = electric_density(basis, x)
    n_e = photon_numbers(stack, basis, profile, x).electric
    eta = source_occupation(om, temperature)
    value = hbar * om**2 * im_n2 * rho_e * (eta - n_e)
    return EmissionSample(value, x)


def default_balance_grid(n: int = 256, ev_min: float = 1e-3, ev_max: float = 1.0):
    """Logarithmic photon-energy grid, as angular frequencies."""
    return omega_from_ev(np.geomspace(ev_min, ev_max, n))


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Solved slice temperatures and convergence record."""

    profile: TemperatureProfile
    slice_positions: tuple[float, ...]
    temperatures: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    update_history: tuple[float, ...]


def _bisect_balance(balance, t_lo: float, t_hi: float, tol: float) -> float:
    """Root of a monotonically increasing balance function on [t_lo, t_hi],
    clamped to the bracket when the root lies outside it."""
    if t_hi - t_lo <= tol:
        return t_lo
    if balance(t_lo) >= 0.0:
        return t_lo
    if balance(t_hi) <= 0.0:
        return t_hi
    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if balance(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def solve_self_consistent(
    stack: LayerStack,
    omega_grid=None,
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
    per-midpoint emission kernel) are computed once; each iteration only
    reweights them with the current occupancies, solves every slice's
    scalar balance by bisection between the coldest and hottest
    reservoir, and applies the update with under-relaxation. Convergence
    is declared when the largest applied update falls below
    ``tolerance_K``; exceeding ``max_iterations`` raises
    ConvergenceError.
    """
    sc_layers = [j for j, layer in enumerate(stack.layers) if layer.self_consistent]
    if not sc_layers:
        return BalanceResult(
            profile=TemperatureProfile.from_stack(stack),
            slice_positions=(),
            temperatures=np.empty(0),
            residuals=np.empty(0),
            iterations=0,
            converged=True,
            update_history=(),
        )
    if not slices >= 1:
        raise ConfigError("slices must be a positive integer")
    fixed = [
        layer.temperature for layer in stack.layers if layer.temperature is not None
    ]
    if not fixed:
        raise ConfigError(
            "self-consistent layers need at least one fixed-temperature reservoir"
        )
    t_lo, t_hi = min(fixed), max(fixed)

    om = default_balance_grid() if omega_grid is None else np.asarray(omega_grid, float)
    if om.ndim != 1 or om.size < 2:
        raise ConfigError("omega_grid must be a 1D grid with at least two points")
    basis = solve_wave_basis(stack, om)

    t_init = 0.5 * (t_lo + t_hi)
    fixed_regions = []
    for j, layer in enumerate(stack.layers):
        if layer.self_consistent or not layer.lossy:
            continue
        lo, hi = stack.layer_bounds(j)
        fixed_regions.append(Region(j, lo, hi, layer.temperature))

    slice_edges: dict[int, np.ndarray] = {}
    midpoints: list[float] = []
    slice_regions: list[Region] = []
    for j in sc_layers:
        lo, hi = stack.layer_bounds(j)
        edges = np.linspace(lo, hi, slices + 1)
        slice_edges[j] = edges
        for m in range(slices):
            midpoints.append(float(0.5 * (edges[m] + edges[m + 1])))
            slice_regions.append(Region(j, float(edges[m]), float(edges[m + 1]), t_init))

    n_slices = len(slice_regions)
    regions = fixed_regions + slice_regions

    weights = np.empty((n_slices, len(regions), om.size))
    kernel = np.empty((n_slices, om.size))
    for m, x_m in enumerate(midpoints):
        jm = slice_regions[m].layer
        n2im_m = (stack.layers[jm].n_at(om) ** 2).imag
        for r, reg in enumerate(regions):
            n2im = (stack.layers[reg.layer].n_at(om) ** 2).imag
            ri = region_integrals(basis, x_m, reg.layer, reg.lo, reg.hi)
            weights[m, r] = n2im * ri.gg
        kernel[m] = hbar * om**2 * n2im_m * electric_density(basis, x_m)

    denom = weights.sum(axis=1)
    eta_fixed = [source_occupation(om, reg.temperature) for reg in fixed_regions]

    def field_numbers(t_slices):
        filled = np.array(
            eta_fixed + [source_occupation(om, t) for t in t_slices]
        )
        return np.einsum("mrw,rw->mw", weights, filled) / denom

    def integrated_balance(m, t, n_e_m):
        return float(trapezoid(kernel[m] * (source_occupation(om, t) - n_e_m), om))

    temps = np.full(n_slices, t_init)
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        n_e = field_numbers(temps)
        roots = np.array(
            [
                _bisect_balance(
                    lambda t, m=m: integrated_balance(m, t, n_e[m]),
                    t_lo,
                    t_hi,
                    0.1 * tolerance_K,
                )
                for m in range(n_slices)
            ]
        )
        update = relaxation * (roots - temps)
        temps = temps + update
        step = float(np.max(np.abs(update)))
        history.append(step)
        if step < tolerance_K:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"balance sweep still moving {history[-1]:.3e} K after "
            f"{max_iterations} iterations (tolerance {tolerance_K:g} K)"
        )

    n_e = field_numbers(temps)
    residuals = np.array(
        [integrated_balance(m, float(temps[m]), n_e[m]) for m in range(n_slices)]
    )

    entries: list[float | LayerSlices | None] = [
        layer.temperature for layer in stack.layers
    ]
    offset = 0
    for j in sc_layers:
        entries[j] = LayerSlices(
            boundaries=tuple(float(b) for b in slice_edges[j]),
            temperatures=tuple(float(t) for t in temps[offset : offset + slices]),
        )
        offset += slices
    profile = TemperatureProfile(tuple(entries))
    profile.validate(stack)

    return BalanceResult(
        profile=profile,
        slice_positions=tuple(midpoints),
        temperatures=temps,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        update_history=tuple(history),
    )

"""Matter-field energy exchange and self-consistent layer temperatures.

A lossy layer at temperature T emits into the field in proportion to the
gap between its own Bose-Einstein occupancy and the electric-field photon
number at its location; the net spectral exchange rate is

    q(x, omega) = hbar omega^2 Im[n^2] rho_e(x) (eta(T, omega) - n_e(x)).

Layers marked self-consistent are cut into uniform slices, and every
slice temperature is driven to the root of its net exchange integrated
over a photon-energy grid (a conduction-coupled slab thermalizes each
slice to one temperature). The reservoirs bracket each root, which
Newton steps safeguarded by that bracket find. ``spectral.region_weights``
fills in once per solve the weight W_r with which each region r of the
sliced profile's ``sources`` (the reservoirs first, then the slices)
illuminates each slice midpoint. As rho_e = P sum_r W_r (the closure
identity) and n_e is the W-weighted mean of the sources' eta_r, a slice's
balance is sum_omega sum_r B_r (eta(T) - eta_r) with the exchange operator
B = hbar omega^2 Im[n^2] P W times the trapezoid weights, into which the
weights turn in place: the emission is its row sum. Each sweep solves
all slice balances in lockstep, and an update under-relaxed by
RELAXATION converges their mutual illumination. Weights that are not
finite (an absorber hundreds of absorption lengths thick overflows them)
raise PhotonStackError: a NaN balance would pass for the hot reservoir's
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, PhotonStackError
from .greens import solve_wave_basis
from .spectral import density_per_weight, region_weights, source_occupation
from .stack import LayerStack, TemperatureProfile, _count, _integer, _mapping, _real
from .units import MICRON, ev_from_omega, hbar, k_B, omega_from_ev


def default_balance_grid():
    """The balance integrals' photon-energy grid as angular frequencies:
    256 points spaced logarithmically from 1 meV to 1 eV."""
    return omega_from_ev(np.geomspace(1e-3, 1.0, 256))


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Solved slice temperatures, the sweeps they took (``iterations``)
    and their ``residuals``: each slice's net exchange, the exchange
    operator's sum_r B_mr (eta_m - eta_r) over the balance grid, in W/m^3."""

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
    layer, ``tolerance_K`` and ``max_iterations``. A slice's balance is
    its emission ``own @ eta(T_m)`` (``own``: the row sums of the exchange
    operator B) less its absorption, a part fixed per solve plus B's
    (slices, slices * omega) slice block times the slice occupancies. As
    B >= 0, the reservoirs bracket every root. Each sweep takes Newton
    steps from each slice's temperature (the first on the absorption's
    occupancies), each halving the bracket instead when it would leave it
    or is not under half the one before (the rtsafe rule), until the last
    correction or the bracket is no wider than ``0.1 * tolerance_K`` (or a
    few ulps). The solve converges once the largest update, under-relaxed
    by RELAXATION, is below ``tolerance_K``, or raises ConvergenceError
    after ``max_iterations`` sweeps. Unusable settings (see
    ``check_balance_settings``) raise ConfigError, and an exchange that is
    not finite raises PhotonStackError before any sweep.
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
    # reservoirs first: the slice columns of the operator are one trailing view
    sources = sorted(initial.sources, key=lambda src: stack.layers[src[0]].self_consistent)
    reservoirs = [t for _, _, (t,) in sources[:-len(sc_layers)]]

    # one field-point record per layer over all of its slice midpoints,
    # whose rows of the weight matrix are filled and scaled in place to
    # the exchange operator B: absorption per unit eta
    weights = np.empty((n_slices, len(reservoirs) + n_slices, om.size))
    x_mid = np.concatenate([0.5 * (e[:-1] + e[1:]) for e in slice_edges.values()])
    scale = 0.5 * np.convolve(np.diff(om), [1.0, 1.0]) * hbar * om**2 * density_per_weight(om)
    # an overflow leaves an inf or a NaN, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in enumerate(sc_layers):
            rows = slice(i * slices, (i + 1) * slices)
            region_weights(basis.at(x_mid[rows]), sources, weights[rows])
            weights[rows] *= scale * (basis.n[j] ** 2).imag
        own = weights.sum(axis=1)  # emission per unit eta(T_m)
    # a NaN balance is neither >= 0 nor <= 0, so the root-find would take
    # every slice to the top of its bracket
    bad = ~np.isfinite(own)
    if bad.any():
        s, e = np.argwhere(bad)[0]
        raise PhotonStackError(f"balance exchange is not finite at x = {x_mid[s] / MICRON:g} um, "
                               f"E = {ev_from_omega(om[e]):g} eV; refusing to solve")
    eta_fixed = np.concatenate([source_occupation(om, t) for t in reservoirs])
    by_reservoirs = weights[:, :len(reservoirs)].reshape(n_slices, -1) @ eta_fixed
    coupling = weights[:, len(reservoirs):].reshape(n_slices, -1)
    theta = hbar * om / k_B  # d(eta)/dT = eta (1 + eta) theta / T^2
    for iterations in range(1, max_iterations + 1):
        eta = source_occupation(om, temps[:, None])
        absorbed = by_reservoirs + coupling @ eta.ravel()
        lo, hi = np.full(n_slices, t_lo), np.full(n_slices, t_top)
        # Newton steps from the current temperatures, safeguarded as in
        # rtsafe: a step that leaves the bracket or is not under half the
        # one before halves the bracket instead. A slice stops once its
        # last correction or its bracket is no wider than tol (eta is at t_eta).
        t, t_eta = np.clip(temps, lo, hi), temps
        correction = hi - lo
        while (moving := (hi - lo > tol) & (np.abs(correction) > tol)).any():
            if not np.array_equal(t, t_eta):
                t_eta, eta = t, source_occupation(om, t[:, None])
            balance = np.vecdot(own, eta) - absorbed
            slope = np.vecdot(own, theta * eta * (1.0 + eta)) / t**2
            up = balance >= 0.0
            hi = np.where(moving & up, t, hi)
            lo = np.where(moving & ~up, t, lo)
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope bisects
                newton = balance / slope
            half = 0.5 * (hi - lo)
            ok = ((np.abs(newton) < 0.5 * np.abs(correction))
                  & (lo <= t - newton) & (t - newton <= hi))
            t = np.where(moving, np.where(ok, t - newton, lo + half), t)
            correction = np.where(moving, np.where(ok, newton, half), correction)
        update = RELAXATION * (t - temps)
        temps = temps + update
        step = float(np.max(np.abs(update)))
        if step < tolerance_K:
            break
    else:
        raise ConvergenceError(f"balance sweep still moving {step:.3e} K after {max_iterations} "
                               f"iterations (tolerance {tolerance_K:g} K)")

    eta = source_occupation(om, temps[:, None])
    residuals = np.vecdot(own, eta) - (by_reservoirs + coupling @ eta.ravel())

    return BalanceResult(
        profile=TemperatureProfile.sliced(stack, slice_edges, temps.reshape(-1, slices)),
        slice_positions=tuple(float(x) for x in x_mid),
        temperatures=temps,
        residuals=residuals,
        iterations=iterations,
    )

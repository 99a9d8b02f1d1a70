"""Field fluctuations, energy density, pressure, and Casimir force terms.

Spectral energy density and pressure share one expression,
``hbar omega rho_tot (n_tot + 1/2)``; the force density is its negative
spatial derivative away from interfaces, split into three named pieces:

* zero-point: ``-(hbar omega / 2) d(rho_tot)/dx``,
* thermal: ``-hbar omega d(rho_tot)/dx n_tot``,
* occupation-gradient: ``-hbar omega rho_tot d(n_tot)/dx``.

The last piece vanishes at thermal equilibrium; the first two trade off
against each other through the mode-density gradient.

All spatial derivatives are closed-form (the mode densities through the
coincident Green's-function gradient, the occupancies through the
analytic derivatives of the source integrals), so the decomposition sums
exactly to the energy-density gradient at smooth points. Interfaces
carry delta-function force contributions that pointwise evaluation
cannot see; net forces on a body therefore always use the pressure
difference between two smooth probe points, which includes them
implicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import ConfigError, InterfacePointError
from .greens import WaveBasis, solve_wave_basis
from .spectral import FieldTriplet, OccupationSums, ldos, ldos_gradient, photon_numbers
from .stack import LayerSlices, LayerStack, TemperatureProfile
from .units import c, epsilon_0, hbar

_INTERFACE_CLEARANCE = 1e-12  # meters; force probes must stay off boundaries


def _edge_distance(x, edges):
    """Distance from each of the points x to the nearest of ``edges``."""
    return np.min(np.abs(np.atleast_1d(x)[:, None] - np.asarray(edges)), axis=1)


@dataclass(frozen=True, eq=False)
class EnergyPressureSample:
    """Spectral field fluctuations, energy density, and pressure at a
    point or points in one layer.

    ``energy_density`` and ``pressure`` are one quantity; both names are
    kept because they enter different balances.
    """

    e_fluct: np.ndarray
    b_fluct: np.ndarray
    energy_density: np.ndarray
    pressure: np.ndarray


def energy_pressure(
    omega, densities: FieldTriplet, numbers: FieldTriplet
) -> EnergyPressureSample:
    """Fluctuations, energy density, and pressure from the mode densities
    and photon numbers already evaluated at the same points."""
    e_fluct = (hbar * omega / epsilon_0) * densities.electric * (numbers.electric + 0.5)
    b_fluct = (
        (hbar * omega / (epsilon_0 * c * c)) * densities.magnetic * (numbers.magnetic + 0.5)
    )
    u = hbar * omega * densities.total * (numbers.total + 0.5)
    return EnergyPressureSample(e_fluct, b_fluct, u, u)


def _energy_at(stack, basis, profile, x) -> EnergyPressureSample:
    return energy_pressure(basis.omega, ldos(stack, basis, x),
                           photon_numbers(stack, basis, profile, x))


@dataclass(frozen=True, eq=False)
class ForceDensitySample:
    """The three force-density terms and their sum at smooth points."""

    zero_point: np.ndarray
    thermal: np.ndarray
    occupation: np.ndarray
    total: np.ndarray


def _profile_edges(stack: LayerStack, profile: TemperatureProfile):
    """Interface positions plus any interior slice boundaries; the
    occupancy gradient jumps across each of them."""
    edges = list(stack.interfaces)
    for entry in profile.entries:
        if isinstance(entry, LayerSlices):
            edges.extend(entry.boundaries[1:-1])
    return sorted(edges)


def force_density(
    stack: LayerStack,
    basis: WaveBasis,
    densities: FieldTriplet,
    sums: OccupationSums,
) -> ForceDensitySample:
    """Analytic force-density decomposition at non-interface points.

    ``densities`` and ``sums`` are ``ldos`` and ``occupation_sums(...,
    gradient=True)`` at the points ``sums.x`` (a point or a 1-D array of
    points in one layer), as the caller already holds them.
    """
    x = sums.x
    on = [b for b in stack.interfaces if np.any(x == b)]
    if on:
        raise InterfacePointError(
            f"x = {on[0]!r} lies on an interface where the force density holds a "
            "delta contribution; integrate via the pressure difference instead"
        )
    om = basis.omega
    d_rho_tot = ldos_gradient(stack, basis, x).total
    zcf = -0.5 * hbar * om * d_rho_tot
    tcf = -hbar * om * d_rho_tot * sums.numbers.total
    ncf = -hbar * om * densities.total * sums.total_number_gradient()
    return ForceDensitySample(zcf, tcf, ncf, zcf + tcf + ncf)


def fd_residual(stack: LayerStack, basis: WaveBasis, profile: TemperatureProfile,
                x, total):
    """Relative deviation of the force density ``total`` at x (a point or
    a 1-D array of points in one layer) from a Richardson-extrapolated
    central difference of the energy density under ``profile`` (step:
    local wavelength / 1000, shortened near boundaries so the probes
    never cross one). Points closer than ``_INTERFACE_CLEARANCE`` to an
    interface or a slice boundary leave no room for a step; they are not
    checked and their residual is NaN.
    """
    om = basis.omega
    n_re = max(
        float(np.max(np.real(layer.n_at(om)))) for layer in stack.layers
    )
    lam = 2.0 * np.pi * c / (float(np.max(om)) * n_re)
    xs = np.atleast_1d(x)
    out = np.full(xs.shape + om.shape, np.nan)
    dist = _edge_distance(xs, _profile_edges(stack, profile))
    checked = dist >= _INTERFACE_CLEARANCE
    if checked.any():
        h = lam / 1000.0
        h = np.where(dist < 4.0 * h, dist / 4.0, h)[checked]
        xc = xs[checked]
        def grad(step):
            up = _energy_at(stack, basis, profile, xc + step).energy_density
            dn = _energy_at(stack, basis, profile, xc - step).energy_density
            return (up - dn) / (2.0 * step.reshape((-1,) + (1,) * om.ndim))
        coarse = grad(h)
        fine = grad(0.5 * h)
        fd = -(4.0 * fine - coarse) / 3.0
        tot = np.reshape(total, out.shape)[checked]
        scale = np.maximum(np.abs(tot), np.abs(fd))
        tiny = np.finfo(float).tiny
        out[checked] = np.abs(tot - fd) / np.maximum(scale, tiny)
    return out.reshape(np.shape(x) + om.shape)


def net_force(
    stack: LayerStack,
    basis: WaveBasis,
    profile: TemperatureProfile,
    x1: float,
    x2: float,
):
    """Spectral force per unit area on the material between two smooth
    probe points, positive toward +x; the pressure-difference form keeps
    the interface delta contributions."""
    if not x1 < x2:
        raise InterfacePointError("probe points must satisfy x1 < x2")
    p1 = _energy_at(stack, basis, profile, x1).pressure
    p2 = _energy_at(stack, basis, profile, x2).pressure
    return p1 - p2


@dataclass(frozen=True, eq=False)
class IntegratedForce:
    """Frequency-integrated net force per area, thermal part and finite-
    grid zero-point part reported separately (the latter has no cutoff
    and grows with the grid's upper edge)."""

    thermal: float
    zero_point: float


def frequency_integrated_force(
    stack: LayerStack,
    profile: TemperatureProfile,
    x1: float,
    x2: float,
    omega_grid,
) -> IntegratedForce:
    om = np.asarray(omega_grid, dtype=float)
    if om.ndim != 1 or om.size < 2 or np.any(np.diff(om) <= 0):
        raise ConfigError("frequency grid must be 1D and increasing")
    basis = solve_wave_basis(stack, om)
    rho1 = ldos(stack, basis, x1).total
    rho2 = ldos(stack, basis, x2).total
    n1 = photon_numbers(stack, basis, profile, x1).total
    n2 = photon_numbers(stack, basis, profile, x2).total
    thermal_integrand = hbar * om * (rho1 * n1 - rho2 * n2)
    zero_integrand = 0.5 * hbar * om * (rho1 - rho2)
    peak = float(np.max(np.abs(thermal_integrand)))
    if peak > 0 and abs(float(thermal_integrand[-1])) > 1e-6 * peak:
        warnings.warn(
            "thermal force integrand is not negligible at the grid's upper "
            "edge; widen the frequency grid",
            stacklevel=2,
        )
    return IntegratedForce(
        thermal=float(trapezoid(thermal_integrand, om)),
        zero_point=float(trapezoid(zero_integrand, om)),
    )

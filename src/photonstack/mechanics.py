"""Energy density, pressure, and Casimir force terms.

Spectral energy density and pressure share one expression,
``hbar omega rho_tot (n_tot + 1/2)``; the force density is its negative
spatial derivative away from interfaces, split into three named pieces:

* zero-point: ``-(hbar omega / 2) d(rho_tot)/dx``,
* thermal: ``-hbar omega d(rho_tot)/dx n_tot``,
* occupation-gradient: ``-hbar omega rho_tot d(n_tot)/dx``.

The last piece vanishes at thermal equilibrium; the first two trade off
through the mode-density gradient. All spatial derivatives are analytic,
so the pieces sum exactly to the energy-density gradient at smooth
points. Interfaces carry delta-function force contributions that
pointwise evaluation cannot see, so net forces on a body use the pressure
difference between two smooth probe points, which includes them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InterfacePointError
from .greens import FieldPoints, WaveBasis, solve_wave_basis
from .spectral import (
    FieldTriplet,
    OccupationSums,
    effective_temperatures,
    ldos,
    ldos_gradient,
    occupation_sums,
)
from .stack import LayerStack, TemperatureProfile
from .units import MICRON, c, hbar

_INTERFACE_CLEARANCE = 1e-12  # meters; force probes must stay off boundaries


def _edge_distance(x, edges):
    """Distance from each of the points x to the nearest of ``edges``."""
    return np.min(np.abs(np.atleast_1d(x)[:, None] - np.asarray(edges)), axis=1)


def check_off_interfaces(stack: LayerStack, x) -> None:
    """The one interface rule of the force density: raise
    InterfacePointError if any of the points x (m) lies within
    ``_INTERFACE_CLEARANCE`` of an interface of ``stack``."""
    xs = np.atleast_1d(x)
    on = np.flatnonzero(_edge_distance(xs, stack.interfaces) < _INTERFACE_CLEARANCE)
    if on.size:
        raise InterfacePointError(f"x = {xs[on[0]] / MICRON:g} um lies within 1 pm of an "
                                  "interface, where the force density holds a delta term")


def energy_pressure(omega, densities: FieldTriplet, numbers: FieldTriplet):
    """Spectral energy density from the mode densities and photon numbers
    already evaluated at the same points; in 1D the pressure is the same
    array."""
    return hbar * omega * densities.total * (numbers.total + 0.5)


@dataclass(frozen=True, eq=False)
class ForceDensitySample:
    """The three force-density terms and their sum at smooth points."""

    zero_point: np.ndarray
    thermal: np.ndarray
    occupation: np.ndarray
    total: np.ndarray


def force_density(points: FieldPoints, densities: FieldTriplet,
                  sums: OccupationSums) -> ForceDensitySample:
    """Analytic force-density decomposition at points clear of the interfaces.

    ``densities`` and ``sums`` are ``ldos`` and ``occupation_sums(...,
    gradient=True)`` at ``points``, as the caller already holds them.
    """
    check_off_interfaces(points.basis.stack, points.x)
    om = points.basis.omega
    d_rho_tot = ldos_gradient(points).total
    zcf = -0.5 * hbar * om * d_rho_tot
    tcf = -hbar * om * d_rho_tot * sums.numbers.total
    ncf = -hbar * om * densities.total * sums.total_number_gradient()
    return ForceDensitySample(zcf, tcf, ncf, zcf + tcf + ncf)


class PointField:
    """Lazy evaluation at x (a point or a 1-D array of points in one
    layer) under ``profile``: the field-point record ``points`` is built
    once, the mode densities and the occupation sums are computed from it
    at most once each, and every quantity is built from them. The sums
    carry field-point derivatives only with ``gradient``, which ``force``
    needs."""

    def __init__(self, basis: WaveBasis, profile: TemperatureProfile, x, *,
                 gradient: bool = False):
        self.points = basis.at(x)
        self.profile = profile
        self.gradient = gradient

    @cached_property
    def densities(self) -> FieldTriplet:
        return ldos(self.points)

    @cached_property
    def sums(self) -> OccupationSums:
        return occupation_sums(self.points, self.profile, gradient=self.gradient)

    @property
    def numbers(self) -> FieldTriplet:
        return self.sums.numbers

    @cached_property
    def temperatures(self) -> FieldTriplet:
        # with sources a true photon number is positive: a 0 has underflowed, NaN not 0 K
        temps = effective_temperatures(self.numbers, self.points.basis.omega)
        if not self.sums.has_sources:
            return temps
        return FieldTriplet._make(np.where(n > 0.0, t, np.nan)
                                  for n, t in zip(self.numbers, temps))

    @cached_property
    def energy(self):
        """Spectral energy density, which is also the pressure."""
        return energy_pressure(self.points.basis.omega, self.densities, self.numbers)

    @cached_property
    def force(self) -> ForceDensitySample:
        return force_density(self.points, self.densities, self.sums)


def fd_residual(basis: WaveBasis, profile: TemperatureProfile, x, total):
    """Relative deviation of the force density ``total`` at x (a point or
    a 1-D array of points in one layer) from a Richardson-extrapolated
    central difference of the energy density under ``profile`` (step:
    local wavelength / 1000, shortened near boundaries so the probes
    never cross one). Points closer than ``_INTERFACE_CLEARANCE`` to an
    interface or a slice boundary leave no room for a step; they are not
    checked and their residual is NaN.
    """
    om = basis.omega
    lam = 2.0 * np.pi * c / (float(np.max(om)) * float(np.max(basis.n.real)))
    xs = np.atleast_1d(x)
    out = np.full(xs.shape + om.shape, np.nan)
    dist = _edge_distance(xs, profile.edges)
    checked = dist >= _INTERFACE_CLEARANCE
    if checked.any():
        h = lam / 1000.0
        h = np.where(dist < 4.0 * h, dist / 4.0, h)[checked]
        xc = xs[checked]
        def grad(step):
            up = PointField(basis, profile, xc + step).energy
            dn = PointField(basis, profile, xc - step).energy
            return (up - dn) / (2.0 * step.reshape((-1,) + (1,) * om.ndim))
        coarse = grad(h)
        fine = grad(0.5 * h)
        fd = -(4.0 * fine - coarse) / 3.0
        tot = np.reshape(total, out.shape)[checked]
        scale = np.maximum(np.abs(tot), np.abs(fd))
        tiny = np.finfo(float).tiny
        out[checked] = np.abs(tot - fd) / np.maximum(scale, tiny)
    return out.reshape(np.shape(x) + om.shape)


def _check_probe_order(x1: float, x2: float) -> None:
    if not x1 < x2:
        raise InterfacePointError("probe points must satisfy x1 < x2")


def net_force(basis: WaveBasis, profile: TemperatureProfile, x1: float, x2: float):
    """Spectral force per unit area on the material between two smooth
    probe points, positive toward +x; the pressure-difference form keeps
    the interface delta contributions."""
    _check_probe_order(x1, x2)
    return PointField(basis, profile, x1).energy - PointField(basis, profile, x2).energy


def frequency_integrated_force(profile: TemperatureProfile, x1: float, x2: float,
                               omega_grid) -> float:
    """Thermal net force per unit area on the material of ``profile.stack``
    between two smooth probe points, integrated over ``omega_grid``. The
    zero-point part has no cutoff, so it is not integrated."""
    _check_probe_order(x1, x2)
    om = np.asarray(omega_grid, dtype=float)
    if om.ndim != 1 or om.size < 2 or np.any(np.diff(om) <= 0):
        raise ConfigError("frequency grid must be 1D and increasing")
    basis = solve_wave_basis(profile.stack, om)
    at1 = PointField(basis, profile, x1)
    at2 = PointField(basis, profile, x2)
    thermal_integrand = hbar * om * (at1.densities.total * at1.numbers.total
                                     - at2.densities.total * at2.numbers.total)
    peak = float(np.max(np.abs(thermal_integrand)))
    if peak > 0 and abs(float(thermal_integrand[-1])) > 1e-6 * peak:
        warnings.warn(
            "thermal force integrand is not negligible at the grid's upper "
            "edge; widen the frequency grid",
            stacklevel=2,
        )
    return float(np.trapezoid(thermal_integrand, om))

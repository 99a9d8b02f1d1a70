"""Mode densities and photon occupancies of the layered field.

The electric mode density is read off the imaginary part of the Green's
function at coincidence, the magnetic one off its mixed derivative
d^2 G / dx dx' at coincidence over k0^2; both come from the one wave
basis. Their sum (electric part weighted by |n|^2) is the total mode
density that enters energy and pressure.

Photon occupancies attribute the field at a point to the thermal sources
that radiated it: each lossy region contributes in proportion to its
absorption-weighted propagation integral, filled at the Bose-Einstein
occupancy of its own temperature. Equal source temperatures collapse all
three occupancies to the common Bose-Einstein value; between sources at
different temperatures they interpolate, and the matching effective
temperatures are frequency dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .greens import FieldPoints, region_integrals
from .stack import Region, TemperatureProfile
from .units import CROSS_SECTION, c, hbar, k_B


def source_occupation(omega, temperature):
    """Bose-Einstein occupancy 1 / (e^{hbar omega / k_B T} - 1); an array
    of temperatures broadcasts against omega."""
    if np.less_equal(temperature, 0.0).any():
        raise ConfigError("temperature must be positive")
    x = hbar * np.asarray(omega, dtype=float) / (k_B * temperature)
    return 1.0 / np.expm1(x)


def occupation_temperature(number, omega):
    """Temperature whose Bose-Einstein occupancy equals ``number``.

    Zero occupancy maps to 0 K (nothing radiates at that frequency); a
    NaN occupancy stays NaN, so an undefined number cannot pass as 0 K.
    """
    n = np.asarray(number, dtype=float)
    om = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore"):
        denom = np.log1p(1.0 / np.where(n <= 0, 1.0, n))
    out = np.where(n <= 0, 0.0, hbar * om / (k_B * denom))
    if not out.shape:
        return float(out)
    return out


class FieldTriplet(NamedTuple):
    """Electric, magnetic and total parts of one local quantity (mode
    densities, their x-derivatives, photon numbers or effective
    temperatures), each of shape x.shape + omega.shape."""

    electric: np.ndarray
    magnetic: np.ndarray
    total: np.ndarray


def _mode_density(om, g):
    """Mode density from a coincident Green's function (or its gradient)."""
    return 2.0 * om / (math.pi * c * c * CROSS_SECTION) * g.imag


def electric_density(points: FieldPoints):
    """Electric mode density at the field points."""
    return _mode_density(points.basis.omega, points.coincident_value)


def _densities(om, nn, g_e, g_m) -> FieldTriplet:
    """Electric, magnetic and total densities (or their x-derivatives)
    from the coincident Green's-function values ``g_e`` and ``g_m`` in a
    layer of index ``nn``."""
    electric = _mode_density(om, g_e)
    magnetic = _mode_density(om, g_m)
    return FieldTriplet(electric, magnetic, np.abs(nn) ** 2 * electric + magnetic)


def ldos(points: FieldPoints) -> FieldTriplet:
    """Mode densities at the field points from the coincident Green's
    function and its mixed derivative over k0^2, in SI units (states per
    volume per angular frequency); divide by ``units.LDOS_UNIT`` for
    units of the free-space total."""
    om = points.basis.omega
    return _densities(om, points.n, points.coincident_value,
                      points.coincident_mixed / (om / c) ** 2)


def ldos_gradient(points: FieldPoints) -> FieldTriplet:
    """d/dx of the three mode densities at the field points.
    By the wave equation psi'' = -k^2 psi, d/dx of psi_left' psi_right'
    is -k^2 d/dx of psi_left psi_right, so the magnetic gradient is
    -n^2 times the electric coincident gradient."""
    nn = points.n
    grad = points.coincident_gradient
    return _densities(points.basis.omega, nn, grad, -nn * nn * grad)


@dataclass(frozen=True, eq=False)
class OccupationSums:
    """Absorption-weighted source integrals behind the occupancies at x.

    ``d_*`` are the unfilled (denominator) sums, ``f_*`` the
    occupancy-filled ones; primed entries are field-point derivatives
    when requested. Each sum has shape x.shape + omega.shape. ``n_sq`` is
    |n|^2 in the layer holding x, which weights the electric sums in the
    total. Without any source region every sum is empty and every number
    is zero.
    """

    n_sq: np.ndarray
    has_sources: bool
    d_e: np.ndarray
    f_e: np.ndarray
    d_m: np.ndarray
    f_m: np.ndarray
    d_e_prime: np.ndarray | None = None
    f_e_prime: np.ndarray | None = None
    d_m_prime: np.ndarray | None = None
    f_m_prime: np.ndarray | None = None

    @cached_property
    def numbers(self) -> FieldTriplet:
        """n = f/d for each density; the total weights the electric sums
        by |n|^2, as the total mode density does."""
        if not self.has_sources:
            zero = np.zeros(self.d_e.shape)
            return FieldTriplet(zero, zero.copy(), zero.copy())
        electric = self.f_e / self.d_e
        magnetic = self.f_m / self.d_m
        total = (self.n_sq * self.f_e + self.f_m) / (self.n_sq * self.d_e + self.d_m)
        return FieldTriplet(electric, magnetic, total)

    def total_number_gradient(self):
        """d n_tot/dx; needs the sums evaluated with ``gradient=True``."""
        if not self.has_sources:
            return np.zeros(self.d_e.shape)
        n_sq = self.n_sq
        return (
            n_sq * self.f_e_prime
            + self.f_m_prime
            - self.numbers.total * (n_sq * self.d_e_prime + self.d_m_prime)
        ) / (n_sq * self.d_e + self.d_m)


def source_weights(points: FieldPoints, region: Region, *, gradient: bool = False):
    """Absorption-weighted propagation integrals from one source region to
    the field points: Im[n^2] |G|^2 and Im[n^2] |dG/dx|^2 / k0^2, then
    their x-derivatives with ``gradient``. Only the region's layer and
    bounds are read."""
    om = points.basis.omega
    k0sq = (om / c) ** 2
    n2im = (points.basis.stack.layers[region.layer].n_at(om) ** 2).imag
    ri = region_integrals(points, region.layer, region.lo, region.hi, gradient=gradient)
    weights = [n2im * ri.gg, n2im * ri.dgg / k0sq]
    if gradient:
        weights += [n2im * ri.d_gg, n2im * ri.d_dgg / k0sq]
    return weights


def occupation_sums(points: FieldPoints, profile: TemperatureProfile, *,
                    gradient: bool = False) -> OccupationSums:
    """Accumulate the per-region propagation integrals that weight each
    source's occupancy at the field points, optionally with analytic
    x-derivatives (one region-integral call per source region). The
    profile must be built on the stack of the points' basis."""
    if profile.stack is not points.basis.stack:
        raise ConfigError("the temperature profile belongs to another stack "
                          "than the field points' wave basis")
    regions = profile.regions
    om = points.basis.omega
    # unfilled and occupancy-filled sums for each weight, in the field
    # order of OccupationSums: (d_e, f_e, d_m, f_m[, primes])
    sums = [np.zeros(points.x.shape + om.shape) for _ in range(8 if gradient else 4)]
    for reg in regions:
        eta = source_occupation(om, reg.temperature)
        for i, weight in enumerate(source_weights(points, reg, gradient=gradient)):
            sums[2 * i] += weight
            sums[2 * i + 1] += weight * eta
    return OccupationSums(np.abs(points.n) ** 2, bool(regions), *sums)


def photon_numbers(points: FieldPoints, profile: TemperatureProfile) -> FieldTriplet:
    """Source-resolved mean photon numbers at the field points.

    A structure with no lossy layer has no thermal sources; all three
    numbers are then zero.
    """
    return occupation_sums(points, profile).numbers


def effective_temperatures(numbers: FieldTriplet, omega) -> FieldTriplet:
    """Effective temperatures in kelvin matching each photon number."""
    return FieldTriplet._make(occupation_temperature(n, omega) for n in numbers)


def ldos_closure_residuals(points: FieldPoints):
    """Relative mismatch between the coincident-Green's-function mode
    densities and their source-integral forms: the unfilled sums that the
    photon numbers divide by, over every source region of the stack at a
    uniform temperature. Both should agree to roundoff; a large residual
    flags a broken basis solve or an absorber missing from the sources."""
    om = points.basis.omega
    # the unfilled sums do not depend on the temperature
    sums = occupation_sums(points, TemperatureProfile.uniform(points.basis.stack, 300.0))
    pref = 2.0 * om**3 / (math.pi * c**4 * CROSS_SECTION)
    surf = ldos(points)
    tiny = np.finfo(float).tiny
    res_e = np.abs(surf.electric - pref * sums.d_e) / np.maximum(np.abs(surf.electric), tiny)
    res_m = np.abs(surf.magnetic - pref * sums.d_m) / np.maximum(np.abs(surf.magnetic), tiny)
    return res_e, res_m

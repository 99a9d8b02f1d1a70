"""Mode densities and photon occupancies of the layered field.

The electric mode density is Im G at coincidence, the magnetic one its
mixed derivative d^2 G / dx dx' over k0^2; their sum (electric part
weighted by |n|^2) is the total that enters energy and pressure.

Photon occupancies attribute the field at a point to the thermal sources
that radiated it: each lossy region contributes its absorption-weighted
propagation integral (read off edge fluxes, see ``greens``), filled at
the Bose-Einstein occupancy of its own temperature. Equal temperatures
collapse all three occupancies to that value; between sources they
interpolate, with frequency-dependent effective temperatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .greens import FieldPoints, region_integrals
from .stack import TemperatureProfile, _kelvin
from .units import CROSS_SECTION, c, hbar, k_B


def source_occupation(omega, temperature):
    """Bose-Einstein occupancy 1 / (e^{hbar omega / k_B T} - 1), which
    underflows to its exact limit 0; an array or a list of temperatures
    broadcasts against omega. Each temperature passes ``stack._kelvin``,
    the one temperature rule."""
    t = np.asarray(temperature)
    if not _kelvin(t):
        raise ConfigError("temperature must be a positive and finite real number")
    with np.errstate(over="ignore"):  # e^x = inf gives 1/inf = 0
        return 1.0 / np.expm1(hbar * np.asarray(omega, dtype=float) / (k_B * t))


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
    occupancy-filled ones; ``primes()`` gives their field-point
    derivatives, in that order, evaluated on its first call. Each sum has
    shape x.shape + omega.shape. ``n_sq``, |n|^2 in the layer holding x,
    weights the electric sums in the total.
    """

    n_sq: np.ndarray
    d_e: np.ndarray
    f_e: np.ndarray
    d_m: np.ndarray
    f_m: np.ndarray
    primes: Callable[[], list]

    @cached_property
    def numbers(self) -> FieldTriplet:
        """n = f/d for each density; the total weights the electric sums
        by |n|^2, as the total mode density does."""
        electric = self.f_e / self.d_e
        magnetic = self.f_m / self.d_m
        total = (self.n_sq * self.f_e + self.f_m) / (self.n_sq * self.d_e + self.d_m)
        return FieldTriplet(electric, magnetic, total)

    def total_number_gradient(self):
        """d n_tot/dx."""
        d_e, f_e, d_m, f_m = self.primes()
        n_sq = self.n_sq
        return ((n_sq * f_e + f_m - self.numbers.total * (n_sq * d_e + d_m))
                / (n_sq * self.d_e + self.d_m))


def _coefficients(points: FieldPoints, left: bool, shift):
    """c = phi e^shift / w and c' from phi': psi_right at the points for
    regions left of them (``left``), else psi_left."""
    phi, dphi = (points.phi_r, points.dphi_r) if left else (points.phi_l, points.dphi_l)
    if shift is None:
        return phi / points.w, dphi / points.w
    scale = np.exp(shift) / points.w
    return phi * scale, dphi * scale


def _running(q, eta):
    """Running sums of the integrals q and of q * eta, from zero."""
    return [np.concatenate([np.zeros((1,) + q.shape[1:]), np.cumsum(v, axis=0)])
            for v in (q, q * eta)]


def region_weights(points: FieldPoints, sources, out) -> None:
    """Fill ``out[:, r]`` (shape (points, regions) + omega.shape) with
    Im[n^2] times the integral of |G|^2 over region r from each of the
    field points (a 1-D array), one column at a time. The regions are
    those between consecutive edges of ``sources``, triples ``(layer,
    edges, temperatures)`` as ``TemperatureProfile.sources`` gives them,
    in the order given."""
    col = 0
    for j, edges, _ in sources:
        ri = region_integrals(points, j, edges)
        c_left, c_right = (None if q is None
                           else np.abs(_coefficients(points, left, ri.shift)[0]) ** 2
                           for left, q in ((True, ri.left), (False, ri.right)))
        for r in range(len(edges) - 1):
            if ri.below is None:
                out[:, col + r] = c_left * ri.left[r] if c_right is None else c_right * ri.right[r]
                continue
            left, split = (np.reshape(m, m.shape + (1,) * points.basis.omega.ndim)
                           for m in (ri.below > r, (ri.below == r) & ri.inside))
            out[:, col + r] = np.where(split, c_left * ri.split_left + c_right * ri.split_right,
                                       np.where(left, c_left * ri.left[r], c_right * ri.right[r]))
        col += len(edges) - 1


def occupation_sums(points: FieldPoints, profile: TemperatureProfile) -> OccupationSums:
    """Accumulate the source weights and the occupancy-filled ones at the
    field points; the profile must be built on the stack of the points'
    basis. A weight is a point factor of c and c' (``_coefficients``)
    that depends only on the side of its region, times a region integral.
    So the integrals are summed first, from one ``region_integrals`` call
    per source layer of ``profile.sources`` (whole layers, then the
    points' own layer up to each point), and each sum is one product per
    side, and per later layer with its scale shift. The region a point
    splits is weighted per point. The x-derivatives weight the same
    integrals when the record's ``primes()`` is first called, with the
    derivative kernel's jump across the source."""
    if profile.stack is not points.basis.stack:
        raise ConfigError("the temperature profile belongs to another stack "
                          "than the field points' wave basis")
    if not profile.sources:
        raise ConfigError("photon numbers need a thermal source: the stack has no absorbing layer")
    om = points.basis.omega
    k0sq = (om / c) ** 2
    # occupancies relative to the hottest source's, applied last so none underflows alone
    hottest = source_occupation(om, max(t for _, _, temps in profile.sources for t in temps))
    hottest = np.where(hottest > 0.0, hottest, 1.0)
    # per side the (unfilled, filled) sums of unshifted factors; groups
    # get (side, shift, unfilled, filled) of each later layer
    near, groups, own = {True: [], False: []}, [], None
    for j, edges, temps in profile.sources:
        eta = source_occupation(om, np.reshape(temps, (-1,) + (1,) * om.ndim)) / hottest
        ri = region_integrals(points, j, edges)
        if ri.below is not None:
            own = ri, eta
            near[True].append([v[ri.below] for v in _running(ri.left, eta)])
            above = len(temps) - ri.below - ri.inside
            near[False].append([v[above] for v in _running(ri.right[::-1], eta[::-1])])
        elif ri.shift is None:
            near[True].append([v[-1] for v in _running(ri.left, eta)])
        else:
            groups.append((False, ri.shift, *[v[-1] for v in _running(ri.right, eta)]))
    groups[:0] = [(left, None, *map(sum, zip(*sides))) for left, sides in near.items() if sides]

    def accumulate(factors, jump=0.0):
        """The (unfilled, filled) sums of each of the two point factors
        ``factors(c, c')``: one product per group, then the split region,
        whose second factor's kernel jumps by ``jump`` across the source."""
        sums = [np.zeros(points.x.shape + om.shape) for _ in range(4)]
        unshifted = {}
        for left, shift, d, f in groups:
            pair = factors(*_coefficients(points, left, shift))
            if shift is None:
                unshifted[left] = pair
            for i, factor in enumerate(pair):
                sums[2 * i] += factor * d
                sums[2 * i + 1] += factor * f
        if own is not None:
            ri, eta = own
            parts = [a * ri.split_left + b * ri.split_right
                     for a, b in zip(unshifted[True], unshifted[False])]
            parts[1] += np.where(ri.inside.reshape(ri.inside.shape + (1,) * om.ndim), jump, 0.0)
            eta_x = eta[np.minimum(ri.below, len(eta) - 1)]
            for i, part in enumerate(parts):
                sums[2 * i] += part
                sums[2 * i + 1] += part * eta_x
        for filled in sums[1::2]:
            filled *= hottest
        return sums

    @cache
    def derivatives():
        """The sums' x-derivatives: 2Re(c' c*) and -2Re(k^2 c c'*)/k0^2,
        the derivatives of |c|^2 and |c'|^2/k0^2, weight the same integrals."""
        k2 = points.basis.wavenumbers[points.layer] ** 2
        jump = (np.abs(points.dphi_r / points.w) ** 2 * np.abs(points.phi_l) ** 2
                - np.abs(points.dphi_l / points.w) ** 2 * np.abs(points.phi_r) ** 2)
        return accumulate(lambda cc, dd: (2.0 * (dd * np.conj(cc)).real,
                                          -2.0 * (k2 * cc * np.conj(dd)).real / k0sq),
                          (points.n ** 2).imag * jump / k0sq)

    plain = accumulate(lambda cc, dd: (np.abs(cc) ** 2, np.abs(dd) ** 2 / k0sq))
    return OccupationSums(np.abs(points.n) ** 2, *plain, derivatives)


def photon_numbers(points: FieldPoints, profile: TemperatureProfile) -> FieldTriplet:
    """Source-resolved mean photon numbers at the field points: weighted
    means of the sources' occupancies, so a stack with no source has none."""
    return occupation_sums(points, profile).numbers


def effective_temperatures(numbers: FieldTriplet, omega) -> FieldTriplet:
    """Effective temperatures in kelvin matching each photon number, the
    one inverse of ``source_occupation``; a number that is not positive
    has underflowed, so it maps to NaN, not 0 K."""
    om = np.asarray(omega, dtype=float)
    return FieldTriplet._make(hbar * om / (k_B * np.log1p(1.0 / np.where(n > 0.0, n, np.nan)))
                              for n in numbers)


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

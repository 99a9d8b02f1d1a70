"""Reference routes the tests check the library against, each written
apart from the evaluation path it checks."""

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from photonstack.errors import ConfigError, DivergentSourceError
from photonstack.spectral import (electric_density, ldos, photon_numbers,
                                  source_occupation)
from photonstack.stack import LayerSlices
from photonstack.units import c, hbar


class GreensSample(NamedTuple):
    """G and its field-point derivative at one (field, source) pair."""

    value: np.ndarray
    x_derivative: np.ndarray


def greens_sample(basis, x: float, source: float) -> GreensSample:
    """G(x, source) from psi_left at the lesser point and psi_right at the
    greater one, each read in its own layer's scaling."""
    lo, hi = basis.at(min(x, source)), basis.at(max(x, source))
    cross = np.exp(basis.scale_right[hi.layer] - basis.scale_right[lo.layer])
    value = -lo.phi_l * hi.phi_r * cross / lo.w
    if x < source:
        deriv = -lo.dphi_l * hi.phi_r * cross / lo.w
    else:
        # field point at or right of the source: differentiate psi_right
        deriv = -lo.phi_l * hi.dphi_r * cross / lo.w
    return GreensSample(value, deriv)


def true_wronskian(basis):
    """Physical Wronskian evaluated from the first layer's amplitudes."""
    return basis.wronskian_scaled[0] * np.exp(basis.scale_left[0] + basis.scale_right[0])


def net_force_occupation_route(basis, profile, x1: float, x2: float):
    """Equivalent force expression for probes with equal mode density
    (mirror-symmetric structures): hbar omega rho_tot (n1 - n2)."""
    om = basis.omega
    rho1 = ldos(basis.at(x1)).total
    n1 = photon_numbers(basis.at(x1), profile).total
    n2 = photon_numbers(basis.at(x2), profile).total
    return hbar * om * rho1 * (n1 - n2)


def temperature_at(profile, x: float) -> float | None:
    """The profile's temperature at x: its layer's fixed value, the slice
    holding x, or None for a layer that does not emit."""
    entry = profile.entries[profile.stack.layer_index(x)]
    if entry is None:
        return None
    if isinstance(entry, LayerSlices):
        i = bisect_right(entry.boundaries, float(x)) - 1
        return entry.temperatures[min(max(i, 0), len(entry.temperatures) - 1)]
    return float(entry)


def net_emission(basis, profile, x: float) -> np.ndarray:
    """Net spectral power density handed from matter to the field at x,
    q = hbar omega^2 Im[n^2] rho_e (eta(T) - n_e); positive while the
    material runs hotter than the field it sits in. Lossless material
    exchanges nothing."""
    om = basis.omega
    stack = basis.stack
    nn = stack.layers[stack.layer_index(x)].n_at(om)
    im_n2 = (nn * nn).imag
    if not np.any(im_n2 != 0.0):
        return np.zeros(om.shape)
    temperature = temperature_at(profile, x)
    if temperature is None:
        raise ConfigError(f"no temperature assigned at x = {x!r}")
    n_e = photon_numbers(basis.at(x), profile).electric
    eta = source_occupation(om, temperature)
    return hbar * om**2 * im_n2 * electric_density(basis.at(x)) * (eta - n_e)


def savetxt_csv(path, meta, axis_name, axis_values, energies_ev, quantities, data):
    """The scan CSV as np.savetxt wrote it: the metadata lines, the header,
    then each axis value's rows as one float64 block with -0.0 turned
    into 0.0 by adding 0.0."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in meta:
            f.write(f"# {line}\n")
        f.write(",".join([axis_name, "E_eV", *quantities]) + "\n")
        block = np.empty((len(energies_ev), 2 + len(quantities)))
        block[:, 1] = energies_ev
        for a, values in zip(axis_values, data):
            block[:, 0] = a
            block[:, 2:] = values
            block += 0.0
            np.savetxt(f, block, fmt="%.9g", delimiter=",")


# --- closed-form source integrals --------------------------------------------
# The library takes each region integral from the flux Im(psi* psi') at the
# region's edges (Green's identity). These are the integrals of the
# two-exponential profiles in closed form, as the library computed them up
# to version 0.2.0, with the case split per field point.

_SERIES_THRESHOLD = 1e-6


class ClosedForm(NamedTuple):
    """Integrals of |G|^2 and |dG/dx|^2 over one source region, their
    field-point derivatives (None without ``gradient``), and where the
    squared coefficient underflowed against a nonzero profile integral,
    so that the closed form lost the term."""

    gg: np.ndarray
    dgg: np.ndarray
    d_gg: np.ndarray | None = None
    d_dgg: np.ndarray | None = None
    lost: np.ndarray | None = None


def _exp_int(alpha, t1, t2):
    # int_{t1}^{t2} e^{alpha t} dt for finite bounds; series below the
    # cancellation threshold, exact form otherwise
    span = t2 - t1
    z = alpha * span
    small = np.abs(z) < _SERIES_THRESHOLD
    zsafe = np.where(small, 1.0, z)
    ec = np.where(small, 1.0 + z * 0.5 + z * z / 6.0, (np.exp(zsafe) - 1.0) / zsafe)
    return np.exp(alpha * t1) * span * ec


def _interval_sq(a, b, kk, t1, t2):
    """Integral of |a e^{ikt} + b e^{-ikt}|^2 over [t1, t2]; an infinite
    bound is a scalar, and the coefficient growing toward it must vanish."""
    kappa = kk.imag
    if np.isscalar(t1) and t1 == -math.inf:
        if np.any(a != 0):
            raise DivergentSourceError("left tail carries a growing wave component")
        if np.any(kappa <= 0):
            raise DivergentSourceError("semi-infinite source layer must be lossy")
        return np.abs(b) ** 2 * np.exp(2.0 * kappa * t2) / (2.0 * kappa)
    if np.isscalar(t2) and t2 == math.inf:
        if np.any(b != 0):
            raise DivergentSourceError("right tail carries a growing wave component")
        if np.any(kappa <= 0):
            raise DivergentSourceError("semi-infinite source layer must be lossy")
        return np.abs(a) ** 2 * np.exp(-2.0 * kappa * t1) / (2.0 * kappa)
    out = np.abs(a) ** 2 * _exp_int(-2.0 * kappa + 0j, t1, t2)
    out = out + np.abs(b) ** 2 * _exp_int(2.0 * kappa + 0j, t1, t2)
    out = out + 2.0 * a * np.conj(b) * _exp_int(2j * kk.real, t1, t2)
    return out.real


def closed_form_integrals(points, j: int, lo: float, hi: float, *,
                          gradient: bool = False, magnitude: bool = False) -> ClosedForm:
    """Source integrals of |G|^2 and |dG/dx|^2 over the part of layer j in
    [lo, hi] seen from ``points``, shape x.shape + omega.shape. An interval
    left of x (``hi <= x``) carries psi_left times a coefficient set by
    psi_right at x, one right of it (``lo >= x``) the reverse; an interval
    containing x splits there, and the gradient of ``dgg`` gains the jump
    term of the derivative kernel at x. With ``magnitude``, each result is
    the sum of the magnitudes of those terms instead, the scale of a
    result in which they cancel."""
    basis, A, w = points.basis, points.layer, points.w
    k2 = basis.wavenumbers[A] ** 2
    kj = basis.wavenumbers[j]
    ref = basis.refs[j]

    def one_side(pts, interval_left_of_x, phi, dphi, lo, hi):
        if interval_left_of_x:
            a, b, scale = basis.a_left, basis.b_left, basis.scale_left
        else:
            a, b, scale = basis.a_right, basis.b_right, basis.scale_right
        s = np.exp(scale[j] - scale[A])
        coeff = -phi[pts] * s / w
        dcoeff = -dphi[pts] * s / w
        prof = _interval_sq(a[j], b[j], kj, lo - ref, hi - ref)
        parts = [np.abs(coeff) ** 2 * prof, np.abs(dcoeff) ** 2 * prof]
        if gradient:
            parts.append(2.0 * (dcoeff * np.conj(coeff)).real * prof)
            parts.append(-2.0 * (k2 * coeff * np.conj(dcoeff)).real * prof)
        parts = [np.abs(p) for p in parts] if magnitude else parts
        tiny = np.finfo(float).tiny
        return parts + [(prof != 0) & ((np.abs(coeff) ** 2 < tiny) | (np.abs(dcoeff) ** 2 < tiny))]

    xs = np.atleast_1d(points.x)
    phi_l, dphi_l, phi_r, dphi_r = (
        v.reshape(xs.shape + basis.omega.shape)
        for v in (points.phi_l, points.dphi_l, points.phi_r, points.dphi_r))
    left = hi <= xs
    right = ~left & (lo >= xs)
    split = ~(left | right)
    parts = [np.empty(phi_l.shape) for _ in range(4 if gradient else 2)]
    parts.append(np.empty(phi_l.shape, dtype=bool))
    for pts, side in ((left, (True, phi_r, dphi_r)), (right, (False, phi_l, dphi_l))):
        if pts.any():
            for part, value in zip(parts, one_side(pts, *side, lo, hi)):
                part[pts] = value
    if split.any():
        xsplit = xs[split].reshape((-1,) + (1,) * basis.omega.ndim)
        below = one_side(split, True, phi_r, dphi_r, lo, xsplit)
        above = one_side(split, False, phi_l, dphi_l, xsplit, hi)
        values = [p_lo + p_hi for p_lo, p_hi in zip(below[:-1], above[:-1])]
        values.append(below[-1] | above[-1])
        if gradient:
            # the |dG/dx|^2 boundary terms survive: the derivative kernel
            # jumps across the source
            jump = (np.abs(dphi_r[split] / w) ** 2 * np.abs(phi_l[split]) ** 2,
                    -np.abs(dphi_l[split] / w) ** 2 * np.abs(phi_r[split]) ** 2)
            if magnitude:
                jump = tuple(np.abs(term) for term in jump)
            values[3] = values[3] + jump[0] + jump[1]
        for part, value in zip(parts, values):
            part[split] = value
    shape = points.x.shape + basis.omega.shape
    parts = [part.reshape(shape) for part in parts]
    return ClosedForm(*parts[:-1], *[None] * (4 - len(parts[:-1])), lost=parts[-1])


def closed_form_sums(points, profile, *, gradient: bool = False):
    """The occupation sums (d_e, f_e, d_m, f_m, then the primed four with
    ``gradient``) from one closed-form call per source region, weighted by
    Im[n^2] (and 1/k0^2 for the derivative kernel) and summed region by
    region; then the same sums of the magnitudes of every term (the two
    parts of a split region counted apart), the scale of a sum that
    cancels; then where some term was lost to underflow."""
    om = points.basis.omega
    k0sq = (om / c) ** 2
    count = 8 if gradient else 4
    sums = [np.zeros(points.x.shape + om.shape) for _ in range(count)]
    scales = [np.zeros(points.x.shape + om.shape) for _ in range(count)]
    lost = np.zeros(points.x.shape + om.shape, dtype=bool)
    for j, edges, temps in profile.sources:
        n2im = (profile.stack.layers[j].n_at(om) ** 2).imag
        for lo, hi, t in zip(edges, edges[1:], temps):
            eta = source_occupation(om, t)
            for out, magnitude in ((sums, False), (scales, True)):
                ri = closed_form_integrals(points, j, lo, hi,
                                           gradient=gradient, magnitude=magnitude)
                lost |= ri.lost
                weights = [n2im * ri.gg, n2im * ri.dgg / k0sq]
                if gradient:
                    weights += [n2im * ri.d_gg, n2im * ri.d_dgg / k0sq]
                for i, weight in enumerate(weights):
                    out[2 * i] += weight
                    out[2 * i + 1] += weight * eta
    return sums, scales, lost

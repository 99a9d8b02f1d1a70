"""Reference routes the tests check the library against, each written
apart from the evaluation path it checks."""

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np
from scipy.integrate import trapezoid

from photonstack.errors import ConfigError, DivergentSourceError
from photonstack.greens import region_integrals, solve_wave_basis
from photonstack.spectral import ldos, photon_numbers, source_occupation
from photonstack.stack import LayerSlices
from photonstack.thermo import default_balance_grid
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
    nn = stack.layers[stack.layer_index(x)].index.at(om)
    im_n2 = (nn * nn).imag
    if not np.any(im_n2 != 0.0):
        return np.zeros(om.shape)
    temperature = temperature_at(profile, x)
    if temperature is None:
        raise ConfigError(f"no temperature assigned at x = {x!r}")
    n_e = photon_numbers(basis.at(x), profile).electric
    eta = source_occupation(om, temperature)
    return hbar * om**2 * im_n2 * ldos(basis.at(x)).electric * (eta - n_e)


class EdgeFlux(NamedTuple):
    """The net spectral flux S at one point, positive toward +x, and the
    driven flux: the sum of the magnitudes of its rightward and leftward
    parts."""

    net: np.ndarray
    driven: np.ndarray


def edge_flux(basis, profile, x: float) -> EdgeFlux:
    """The net spectral flux at a region edge x, from the source integrals
    and the flux F = Im(conj(phi) phi')/k0^2 of each solution at x:
    S = [sum over s left of x of eta_s I_L(s)] F_R(x)/|W|^2
      + [sum over s right of x of eta_s I_R(s) e^(2 shift)] F_L(x)/|W|^2.
    A region lies left of x when hi <= x and right of it when lo >= x, so
    x must not lie inside one."""
    points = basis.at(x)
    om = basis.omega
    k0sq, w_sq = (om / c) ** 2, np.abs(points.w) ** 2
    f_left = (np.conj(points.phi_l) * (points.dphi_l / k0sq)).imag / w_sq
    f_right = (np.conj(points.phi_r) * (points.dphi_r / k0sq)).imag / w_sq
    rightward, leftward = np.zeros(om.shape), np.zeros(om.shape)
    for j, edges, temps in profile.sources:
        ri = region_integrals(points, j, edges)
        scale = 1.0 if ri.shift is None else np.exp(2.0 * ri.shift)
        for r, temperature in enumerate(temps):
            if edges[r] < x < edges[r + 1]:
                raise ValueError(f"x = {x!r} lies inside a source region")
            eta = source_occupation(om, temperature)
            if edges[r + 1] <= x:
                rightward = rightward + eta * ri.left[r] * f_right
            else:
                leftward = leftward + eta * ri.right[r] * scale * f_left
    return EdgeFlux(rightward + leftward, np.abs(rightward) + np.abs(leftward))


def savetxt_csv(path, head, axis_values, energies_ev, data):
    """The scan CSV as np.savetxt wrote it: ``head`` (the comment block and
    the header row), then each axis value's rows as one float64 block with
    -0.0 turned into 0.0 by adding 0.0."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(head)
        block = np.empty((len(energies_ev), 2 + data.shape[2]))
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
        n2im = (profile.stack.layers[j].index.at(om) ** 2).imag
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


def _region_weight(basis, x: float, j: int, lo: float, hi: float):
    """Im[n_j^2] times the integral of |G|^2 over [lo, hi] in layer j from
    the one point x: a region integral of psi_left when the region lies
    left of x, of psi_right when it lies right, or both parts of it when
    x splits it, times |psi at x / W|^2 of the other solution."""
    points = basis.at(x)
    ri = region_integrals(points, j, (lo, hi))

    def factor(phi, shift=None):
        if shift is None:
            return np.abs(phi / points.w) ** 2
        return np.abs(phi * (np.exp(shift) / points.w)) ** 2

    if ri.below is None:
        if ri.right is None:
            return factor(points.phi_r, ri.shift) * ri.left[0]
        return factor(points.phi_l, ri.shift) * ri.right[0]
    if ri.inside:
        return (factor(points.phi_r) * ri.split_left + factor(points.phi_l) * ri.split_right)
    if ri.below:
        return factor(points.phi_r) * ri.left[0]
    return factor(points.phi_l) * ri.right[0]


def region_weights(points, sources):
    """The dense weight array, shape (points, regions) + omega.shape:
    Im[n^2] times the integral of |G|^2 over each region from each of the
    field points (a 1-D array), filled one column at a time. The regions
    are those between consecutive edges of ``sources``, triples ``(layer,
    edges, temperatures)`` as ``TemperatureProfile.sources`` gives them,
    in the order given. The balance's exchange operator is this array
    times each row's factor, which ``spectral.slice_exchange`` keeps in
    the factors of the Green's function instead."""
    om = points.basis.omega
    out = np.empty(points.x.shape + (sum(len(e) - 1 for _, e, _ in sources),) + om.shape)

    def factor(phi, shift):
        scale = 1.0 / points.w if shift is None else np.exp(shift) / points.w
        return np.abs(phi * scale) ** 2

    col = 0
    for j, edges, _ in sources:
        ri = region_integrals(points, j, edges)
        c_left = None if ri.left is None else factor(points.phi_r, ri.shift)
        c_right = None if ri.right is None else factor(points.phi_l, ri.shift)
        for r in range(len(edges) - 1):
            if ri.below is None:
                out[:, col + r] = c_left * ri.left[r] if c_right is None else c_right * ri.right[r]
                continue
            left, split = (np.reshape(m, m.shape + (1,) * om.ndim)
                           for m in (ri.below > r, (ri.below == r) & ri.inside))
            out[:, col + r] = np.where(
                split, c_left * ri.split_left + c_right * ri.split_right,
                np.where(left, c_left * ri.left[r], c_right * ri.right[r]))
        col += len(edges) - 1
    return out


def _scalar_balance(stack, slices, tolerance_K=1e-3, relaxation=0.5):
    """Reference solve, one slice and one source region at a time: the
    weights from one region-integral call per (midpoint, region) and
    every slice bisected on its own with scalar trapezoid integrals
    (scipy's, against the solver's exchange operator). Returns the slice
    temperatures and the function that gives every slice's integrated
    balance at given slice temperatures."""
    om = default_balance_grid()
    basis = solve_wave_basis(stack, om)
    fixed = [layer.temperature for layer in stack.layers if layer.temperature is not None]
    t_lo, t_hi = min(fixed), max(fixed)
    regions = [(j, *stack.layer_bounds(j), layer.temperature)
               for j, layer in enumerate(stack.layers)
               if layer.lossy and not layer.self_consistent]
    n_fixed = len(regions)
    midpoints = []
    for j, layer in enumerate(stack.layers):
        if layer.self_consistent:
            edges = np.linspace(*stack.layer_bounds(j), slices + 1)
            for m in range(slices):
                midpoints.append((j, float(0.5 * (edges[m] + edges[m + 1]))))
                regions.append((j, float(edges[m]), float(edges[m + 1]), None))
    n2im = lambda j: (stack.layers[j].index.at(om) ** 2).imag  # noqa: E731
    weights = np.array([[_region_weight(basis, x, *r[:3]) for r in regions]
                        for _, x in midpoints])
    kernel = np.array([hbar * om**2 * n2im(j) * ldos(basis.at(x)).electric
                       for j, x in midpoints])
    denom = weights.sum(axis=1)
    eta_fixed = [source_occupation(om, r[3]) for r in regions[:n_fixed]]

    def field_numbers(temps):
        filled = np.array(eta_fixed + [source_occupation(om, t) for t in temps])
        return np.einsum("mrw,rw->mw", weights, filled) / denom

    def balance(m, t, n_e):
        return float(trapezoid(kernel[m] * (source_occupation(om, t) - n_e[m]), om))

    def balances(temps):
        n_e = field_numbers(temps)
        return np.array([balance(m, float(temps[m]), n_e) for m in range(len(temps))])

    def bisect(f, tol):
        if t_hi - t_lo <= tol or f(t_lo) >= 0.0:
            return t_lo
        if f(t_hi) <= 0.0:
            return t_hi
        lo, hi = t_lo, t_hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if f(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    temps = np.full(len(midpoints), 0.5 * (t_lo + t_hi))
    while True:
        n_e = field_numbers(temps)
        roots = np.array([bisect(lambda t, m=m: balance(m, t, n_e), 0.1 * tolerance_K)
                          for m in range(len(midpoints))])
        update = relaxation * (roots - temps)
        temps = temps + update
        if np.max(np.abs(update)) < tolerance_K:
            break
    return temps, balances

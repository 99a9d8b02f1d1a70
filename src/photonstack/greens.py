"""Green's functions of the 1D Helmholtz operator in layered media.

Conventions
-----------
G solves ``G'' + (omega n(x)/c)^2 G = -delta(x - x')`` with outgoing-wave
behavior in both semi-infinite outer layers (time dependence e^{-i omega t},
so e^{+ikx} travels right). It is assembled from two homogeneous solutions:

* ``psi_left``: purely left-going in the first layer,
* ``psi_right``: purely right-going in the last layer,

as ``G(x, x') = -psi_left(x_<) psi_right(x_>) / W`` with the Wronskian
``W = psi_left psi_right' - psi_left' psi_right``, a constant across the
structure. In a uniform medium this reduces to ``i e^{ik|x-x'|} / (2k)``.

Within each layer a solution is stored as an amplitude pair (a, b) of
``a e^{ik(x-ref)} + b e^{-ik(x-ref)}`` about a per-layer reference point,
together with a real log-scale factor: the physical solution is
``exp(scale) * (a e^{...} + b e^{...})``. Amplitudes are renormalized at
every interface crossing, so the transfer march never overflows no matter
how optically thick the layers are. Pointwise evaluation deep inside a
layer and the closed-form layer integrals keep at most one factor of
``exp(2 Im[k] * span)``, which bounds usable spans to a few hundred
absorption lengths; that covers any micron-scale structure by a wide
margin.

The same two solutions give the mixed derivative of G at coincidence,
``d^2 G / dx dx' (x, x) = -psi_left'(x) psi_right'(x) / W``, from which
the magnetic mode density is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateBasisError, DivergentSourceError
from .stack import LayerStack
from .units import c

_DEGENERACY_FLOOR = 1e-13
_WRONSKIAN_DRIFT_TOL = 1e-8
_SERIES_THRESHOLD = 1e-6


def interface_coefficients(n_left, n_right):
    """Normal-incidence reflection and transmission amplitudes for a wave
    arriving from the left medium.

    Returns ``(r, t)`` with ``r = (n_left - n_right)/(n_left + n_right)``
    and ``t = 2 n_left/(n_left + n_right)``.
    """
    nl = np.asarray(n_left, dtype=complex)
    nr = np.asarray(n_right, dtype=complex)
    if np.any(nl.real <= 0) or np.any(nr.real <= 0):
        raise ConfigError("refractive indices must have positive real part")
    if np.any(nl.imag < 0) or np.any(nr.imag < 0):
        raise ConfigError("refractive indices must have nonnegative imaginary part")
    denom = nl + nr
    r = (nl - nr) / denom
    t = 2.0 * nl / denom
    if not r.shape:
        return complex(r), complex(t)
    return r, t


@dataclass(frozen=True, eq=False)
class WaveBasis:
    """The two outgoing solutions of one stack at a set of frequencies.

    All amplitude arrays have shape ``(n_layers,) + omega.shape``. The
    stored Wronskian ``wronskian_scaled[j]`` belongs to the rescaled
    amplitudes of layer j; the physical Wronskian is recovered by
    multiplying with ``exp(scale_left[j] + scale_right[j])``.
    """

    stack: LayerStack
    omega: np.ndarray
    wavenumbers: np.ndarray
    refs: tuple[float, ...]
    a_left: np.ndarray
    b_left: np.ndarray
    scale_left: np.ndarray
    a_right: np.ndarray
    b_right: np.ndarray
    scale_right: np.ndarray
    wronskian_scaled: np.ndarray

    def at(self, x) -> FieldPoints:
        """Both solutions and their derivatives at x (a point or a 1-D
        array of points within one layer), in that layer's scaling."""
        j = self.stack.layer_of(x)
        xs = np.asarray(x, dtype=float)
        u = (xs - self.refs[j]).reshape(xs.shape + (1,) * self.omega.ndim)
        kk = self.wavenumbers[j]
        ep, em = np.exp(1j * kk * u), np.exp(-1j * kk * u)

        def solution(a, b):
            return a[j] * ep + b[j] * em, 1j * kk * (a[j] * ep - b[j] * em)

        return FieldPoints(self, xs, j, *solution(self.a_left, self.b_left),
                           *solution(self.a_right, self.b_right),
                           self.wronskian_scaled[j])


@dataclass(frozen=True, eq=False)
class FieldPoints:
    """One set of field points x within layer ``layer`` of ``basis``:
    ``psi_left``, ``psi_right`` and their x-derivatives there, each of
    shape x.shape + omega.shape and scaled like that layer's amplitudes,
    and the layer's scaled Wronskian ``w``. Every pointwise quantity is
    built from this record; ``WaveBasis.at`` makes it."""

    basis: WaveBasis
    x: np.ndarray
    layer: int
    phi_l: np.ndarray
    dphi_l: np.ndarray
    phi_r: np.ndarray
    dphi_r: np.ndarray
    w: np.ndarray

    @property
    def n(self):
        """Refractive index of the points' layer at the basis frequencies."""
        return self.basis.stack.layers[self.layer].n_at(self.basis.omega)

    @property
    def coincident_value(self):
        """G(x, x)."""
        return -self.phi_l * self.phi_r / self.w

    @property
    def coincident_gradient(self):
        """d/dx of G(x, x) along the diagonal."""
        return -(self.dphi_l * self.phi_r + self.phi_l * self.dphi_r) / self.w

    @property
    def coincident_mixed(self):
        """d^2 G / dx dx' at x' = x."""
        return -self.dphi_l * self.dphi_r / self.w


def _renormalized(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    return a / scale, b / scale, np.log(scale)


def solve_wave_basis(stack: LayerStack, omega) -> WaveBasis:
    """March the two outgoing solutions through the stack.

    Parameters
    ----------
    stack : LayerStack
    omega : float or array_like
        Angular frequencies in rad/s; all downstream quantities broadcast
        over this shape.

    Raises DegenerateBasisError if the two solutions become numerically
    linearly dependent.
    """
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0) or not np.all(np.isfinite(om)):
        raise ConfigError("omega must be positive and finite")
    layers = stack.layers
    nlay = len(layers)
    wshape = om.shape

    n = np.empty((nlay,) + wshape, dtype=complex)
    for j, layer in enumerate(layers):
        n[j] = layer.n_at(om)

    k = n * (om / c)
    refs = (stack.interfaces[0], *stack.interfaces)
    # in-layer distance from the reference point to the layer's right interface
    deltas = [0.0] + [layers[j].thickness for j in range(1, nlay - 1)] + [0.0]

    # r[m], t[m]: the interface between layers m and m + 1
    r, t = interface_coefficients(n[:-1], n[1:])

    a_l = np.zeros((nlay,) + wshape, dtype=complex)
    b_l = np.zeros((nlay,) + wshape, dtype=complex)
    s_l = np.zeros((nlay,) + wshape, dtype=float)
    b_l[0] = 1.0
    for m in range(nlay - 1):
        km = k[m]
        d = deltas[m]
        av = a_l[m] * np.exp((1j * km.real - 2.0 * km.imag) * d)
        bv = b_l[m] * np.exp(-1j * km.real * d)
        f = t[m] / (1.0 - r[m] * r[m])
        a2 = f * (av - r[m] * bv)
        b2 = f * (bv - r[m] * av)
        a_l[m + 1], b_l[m + 1], logs = _renormalized(a2, b2)
        s_l[m + 1] = s_l[m] + km.imag * d + logs

    a_r = np.zeros((nlay,) + wshape, dtype=complex)
    b_r = np.zeros((nlay,) + wshape, dtype=complex)
    s_r = np.zeros((nlay,) + wshape, dtype=float)
    a_r[nlay - 1] = 1.0
    for m in range(nlay - 2, -1, -1):
        # left-side amplitude values at the interface x_m
        a1 = (a_r[m + 1] + r[m] * b_r[m + 1]) / t[m]
        b1 = (r[m] * a_r[m + 1] + b_r[m + 1]) / t[m]
        km = k[m]
        d = deltas[m]
        a2 = a1 * np.exp(-1j * km.real * d)
        b2 = b1 * np.exp((1j * km.real - 2.0 * km.imag) * d)
        a_r[m], b_r[m], logs = _renormalized(a2, b2)
        s_r[m] = s_r[m + 1] + km.imag * d + logs

    cross = a_r * b_l - a_l * b_r
    floor = np.abs(a_r * b_l) + np.abs(a_l * b_r)
    if np.any(floor == 0.0) or np.any(np.abs(cross) < _DEGENERACY_FLOOR * floor):
        raise DegenerateBasisError(
            "outgoing solutions are numerically linearly dependent"
        )
    wt = 2j * k * cross

    # constancy of the physical Wronskian across neighboring layers
    for j in range(1, nlay):
        shift = np.exp(s_l[j] + s_r[j] - s_l[j - 1] - s_r[j - 1])
        drift = np.abs(wt[j] * shift - wt[j - 1]) / np.abs(wt[j - 1])
        if np.any(drift > _WRONSKIAN_DRIFT_TOL):
            raise DegenerateBasisError(
                f"Wronskian drifts by {float(np.max(drift)):.3e} between layers "
                f"{j - 1} and {j}"
            )

    return WaveBasis(
        stack=stack,
        omega=om,
        wavenumbers=k,
        refs=refs,
        a_left=a_l,
        b_left=b_l,
        scale_left=s_l,
        a_right=a_r,
        b_right=b_r,
        scale_right=s_r,
        wronskian_scaled=wt,
    )


# perfbench/tracer.py still traces this name; it is the same function
solve_bases = solve_wave_basis


# ---------------------------------------------------------------------------
# closed-form source integrals

@dataclass(frozen=True, eq=False)
class RegionIntegrals:
    """Integrals of |G|^2 and |dG/dx|^2 over one source region, with
    optional derivatives with respect to the field point."""

    gg: np.ndarray
    dgg: np.ndarray
    d_gg: np.ndarray | None = None
    d_dgg: np.ndarray | None = None


def _exp_int(alpha, t1, t2):
    # int_{t1}^{t2} e^{alpha t} dt for finite bounds (scalars or arrays
    # broadcasting against alpha); series below the cancellation
    # threshold, exact form otherwise
    span = t2 - t1
    z = alpha * span
    small = np.abs(z) < _SERIES_THRESHOLD
    zsafe = np.where(small, 1.0, z)
    ec = np.where(small, 1.0 + z * 0.5 + z * z / 6.0, (np.exp(zsafe) - 1.0) / zsafe)
    return np.exp(alpha * t1) * span * ec


def _interval_sq(a, b, kk, t1, t2):
    """Integral of |a e^{ikt} + b e^{-ikt}|^2 over [t1, t2]. One bound may
    be an array of finite bounds shaped to broadcast against kk; an
    infinite bound is a scalar, and the coefficient growing toward it must
    vanish."""
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


def region_integrals(
    points: FieldPoints, j: int, lo: float, hi: float, *, gradient: bool = False
) -> RegionIntegrals:
    """Closed-form source integrals over the part of layer j in [lo, hi],
    seen from the field points ``points``.

    Every result has shape x.shape + omega.shape, and each point's
    entries are exactly those a call with that point alone returns.

    For a source interval on one side of the field point, G restricted to
    that interval is a fixed two-exponential profile times an x-dependent
    coefficient, so each integral is the profile integral times the
    squared coefficient. An interval containing the field point splits
    at x into two such one-sided parts, [lo, x] and [x, hi], whose sum
    the gradient of ``dgg`` completes with the jump term of the
    derivative kernel at x. The case is chosen per point: the interval
    lies left of x when ``hi <= x`` (always so for an earlier layer),
    right of it when ``lo >= x`` (a later layer), and contains it
    otherwise (with no mask copy when all points lie on one side). Gradients
    differentiate the coefficients analytically (the profile integrals
    only move through the split point).
    """
    basis, A, w = points.basis, points.layer, points.w
    k2 = basis.wavenumbers[A] ** 2
    kj = basis.wavenumbers[j]
    ref = basis.refs[j]

    def one_side(pts, interval_left_of_x, phi, dphi, lo, hi):
        # G over [lo, hi] is layer j's psi_left (psi_right) times a
        # coefficient set by psi_right (psi_left), passed as phi, at x
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
        return parts

    # the per-point masks below need an axis
    xs = np.atleast_1d(points.x)
    phi_l, dphi_l, phi_r, dphi_r = (
        v.reshape(xs.shape + basis.omega.shape)
        for v in (points.phi_l, points.dphi_l, points.phi_r, points.dphi_r))
    shape = points.x.shape + basis.omega.shape
    left = hi <= xs
    right = ~left & (lo >= xs)
    split = ~(left | right)
    parts = [np.empty(phi_l.shape) for _ in range(4 if gradient else 2)]

    def fill(pts, values):
        for part, value in zip(parts, values):
            part[pts] = value

    for pts, side in ((left, (True, phi_r, dphi_r)), (right, (False, phi_l, dphi_l))):
        if pts.all():
            return RegionIntegrals(*(p.reshape(shape) for p in one_side(..., *side, lo, hi)))
        if pts.any():
            fill(pts, one_side(pts, *side, lo, hi))
    if split.any():
        # the interval splits at each of these field points
        xsplit = xs[split].reshape((-1,) + (1,) * basis.omega.ndim)
        below = one_side(split, True, phi_r, dphi_r, lo, xsplit)
        above = one_side(split, False, phi_l, dphi_l, xsplit, hi)
        values = [p_lo + p_hi for p_lo, p_hi in zip(below, above)]
        if gradient:
            # the |G|^2 boundary terms at the split cancel; the |dG/dx|^2
            # ones survive because the derivative kernel jumps across the
            # source
            values[3] = (values[3]
                         + np.abs(dphi_r[split] / w) ** 2 * np.abs(phi_l[split]) ** 2
                         - np.abs(dphi_l[split] / w) ** 2 * np.abs(phi_r[split]) ** 2)
        fill(split, values)
    return RegionIntegrals(*(part.reshape(shape) for part in parts))

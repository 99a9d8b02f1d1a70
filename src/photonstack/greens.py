"""Green's functions of the 1D Helmholtz operator in layered media.

Conventions
-----------
G solves ``G'' + (omega n(x)/c)^2 G = -delta(x - x')`` with outgoing-wave
behavior in both semi-infinite outer layers (time dependence e^{-i omega t},
so e^{+ikx} travels right). With ``psi_left`` purely left-going in the
first layer and ``psi_right`` purely right-going in the last, ``G(x, x') =
-psi_left(x_<) psi_right(x_>) / W``, where the Wronskian ``W = psi_left
psi_right' - psi_left' psi_right`` is constant across the structure; in a
uniform medium G is ``i e^{ik|x-x'|} / (2k)``. The mixed derivative at
coincidence, ``-psi_left'(x) psi_right'(x) / W``, gives the magnetic mode
density.

Within each layer a solution is stored as an amplitude pair (a, b) of
``a e^{ik(x-ref)} + b e^{-ik(x-ref)}`` about a per-layer reference point,
together with a real log-scale factor: the physical solution is
``exp(scale) * (a e^{...} + b e^{...})``. Amplitudes are renormalized at
every interface crossing, so the transfer march never overflows. Source
integrals need no quadrature: ``psi'' = -k^2 psi`` gives Green's identity
``d/dx Im(psi* psi') = -Im(k^2) |psi|^2`` in each layer, so a region's
integral of ``Im[k^2] |psi|^2`` is the drop of that flux between its
edges. Pointwise values deep inside a layer keep one factor of
``exp(Im[k] * span)`` and the flux its square, which bounds usable spans
to a few hundred absorption lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateBasisError, DivergentSourceError
from .stack import LayerStack
from .units import c

_DEGENERACY_FLOOR = 1e-13
_WRONSKIAN_DRIFT_TOL = 1e-8


def interface_coefficients(n_left, n_right):
    """Normal-incidence reflection and transmission amplitudes for a wave
    arriving from the left medium.

    Returns ``(r, t)`` with ``r = (n_left - n_right)/(n_left + n_right)``
    and ``t = 2 n_left/(n_left + n_right)``.
    """
    denom = n_left + n_right
    return (n_left - n_right) / denom, 2.0 * n_left / denom


@dataclass(frozen=True, eq=False)
class WaveBasis:
    """The two outgoing solutions of one stack at a set of frequencies.

    ``n`` (each layer's index at ``omega``, evaluated here once for all
    uses) and all amplitude arrays have shape ``(n_layers,) +
    omega.shape``. The stored Wronskian ``wronskian_scaled[j]`` belongs
    to the rescaled amplitudes of layer j; the physical Wronskian is
    recovered by multiplying with ``exp(scale_left[j] + scale_right[j])``.
    """

    stack: LayerStack
    omega: np.ndarray
    n: np.ndarray
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
        waves = self._waves(j, xs)
        return FieldPoints(self, xs, j, *self._solution(True, j, waves),
                           *self._solution(False, j, waves), self.wronskian_scaled[j])

    def _waves(self, j: int, xs: np.ndarray, shift=None):
        """e^{+-ik(x - ref)} (times e^shift) of layer j at the points xs,
        shape xs.shape + omega.shape."""
        u = (xs - self.refs[j]).reshape(xs.shape + (1,) * self.omega.ndim)
        kk = self.wavenumbers[j]
        if shift is None:
            return np.exp(1j * kk * u), np.exp(-1j * kk * u)
        return np.exp(1j * kk * u + shift), np.exp(-1j * kk * u + shift)

    def _solution(self, left: bool, j: int, waves):
        """psi_left (or psi_right) of layer j and its x-derivative from the
        plane waves of ``_waves``, in that layer's scaling."""
        a, b = (self.a_left, self.b_left) if left else (self.a_right, self.b_right)
        ep, em = waves
        kk = self.wavenumbers[j]
        return a[j] * ep + b[j] * em, 1j * kk * (a[j] * ep - b[j] * em)


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
        return self.basis.n[self.layer]

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
        n[j] = layer.index.at(om)

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
        n=n,
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
# source integrals from edge fluxes

def _flux(psi, dpsi, k0sq):
    """Im(psi* psi') / k0^2 (psi' divided first, against overflow)."""
    return (np.conj(psi) * (dpsi / k0sq)).imag


@dataclass(frozen=True, eq=False)
class RegionIntegrals:
    """Im[n_j^2] times the integral of |psi|^2 over each region of layer j:
    ``left`` for psi_left (regions left of the points), ``right`` for
    psi_right, None for a side not seen. A weight is one times |c|^2, c =
    psi/W at the points (times e^shift). For points in layer j, ``below``
    counts the regions wholly left of each point, ``inside`` marks points
    inside region ``below``, and ``split_left``/``split_right`` are its
    parts left and right of the point (zero elsewhere)."""

    left: np.ndarray | None
    right: np.ndarray | None
    shift: np.ndarray | None = None
    below: np.ndarray | None = None
    inside: np.ndarray | None = None
    split_left: np.ndarray | None = None
    split_right: np.ndarray | None = None


def region_integrals(points: FieldPoints, j: int, edges) -> RegionIntegrals:
    """Source integrals over the regions of layer j between consecutive
    ``edges`` (increasing; the ends may be infinite), seen from ``points``:
    each is the flux drop ``(F(lo) - F(hi)) / k0^2``, ``F = Im(psi* psi')``,
    with F = 0 at a decaying tail (a lossless one raises
    DivergentSourceError) and zero where layer j is lossless. A region lies
    left of a point when ``hi <= x``, right of it when ``lo >= x``; a point
    inside one splits it with F(x) from ``points``. Another layer's psi
    reaches the points' scaling through e^(scale[j] - scale[A]): psi_left
    grows to the right, so its edge waves take the factor in their
    exponent; psi_right decays, so the coefficients take it (``shift``).
    """
    basis, A, om = points.basis, points.layer, points.basis.omega
    kj = basis.wavenumbers[j]
    e = np.asarray(edges, dtype=float)
    tail = np.isinf(e)
    if tail.any() and np.any(kj.imag <= 0):
        raise DivergentSourceError("semi-infinite source layer must be lossy")
    k0sq, lossy = (om / c) ** 2, kj.imag > 0

    def per_region(left, waves):
        f = np.zeros(e.shape + om.shape)
        f[~tail] = _flux(*basis._solution(left, j, waves), k0sq)
        return np.where(lossy, f[:-1] - f[1:], 0.0), f

    if j < A:
        shift = basis.scale_left[j] - basis.scale_left[A]
        return RegionIntegrals(per_region(True, basis._waves(j, e[~tail], shift))[0], None)
    waves = basis._waves(j, e[~tail])
    if j > A:
        return RegionIntegrals(None, per_region(False, waves)[0],
                               basis.scale_right[j] - basis.scale_right[A])
    (q_left, f_left), (q_right, f_right) = per_region(True, waves), per_region(False, waves)
    below = np.searchsorted(e[1:], points.x, side="right")
    inside = np.searchsorted(e[:-1], points.x, side="left") > below
    cut = np.reshape(inside, inside.shape + (1,) * om.ndim) & lossy
    at = np.minimum(below, e.size - 2)
    split_left = np.where(cut, f_left[at] - _flux(points.phi_l, points.dphi_l, k0sq), 0.0)
    split_right = np.where(cut, _flux(points.phi_r, points.dphi_r, k0sq) - f_right[at + 1], 0.0)
    return RegionIntegrals(q_left, q_right, None, below, inside, split_left, split_right)

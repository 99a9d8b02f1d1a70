import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from photonstack.errors import ConfigError, DivergentSourceError
from photonstack.greens import interface_coefficients, region_integrals, solve_wave_basis
from photonstack.spectral import occupation_sums
from photonstack.stack import (ConstantIndex, Layer, LayerSlices, LayerStack, TabulatedIndex,
                               TemperatureProfile)
from photonstack.units import c, omega_from_ev

from conftest import INF, cavity_stack
from oracles import closed_form_integrals, greens_sample, true_wronskian

RNG = np.random.default_rng(20260211)


def uniform_stack(n: complex, width: float = 8e-6) -> LayerStack:
    return LayerStack(
        [Layer(INF, ConstantIndex(n), 350.0 if (n * n).imag > 0 else None),
         Layer(width, ConstantIndex(n)),
         Layer(INF, ConstantIndex(n), 350.0 if (n * n).imag > 0 else None)],
        allow_lossless_bounds=(n * n).imag <= 0,
    )


def test_the_basis_holds_each_layer_index_at_its_frequencies():
    """``WaveBasis.n[j]`` is layer j's index model at the basis
    frequencies, and the field points of a layer read their index there."""
    om = omega_from_ev(np.array([0.05, 0.11, 0.2]))
    table = TabulatedIndex(omega_from_ev(np.array([0.01, 0.3])),
                           np.array([1.5 + 0.1j, 1.9 + 0.5j]))
    stack = LayerStack([Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
                        Layer(5e-6, table, 350.0),
                        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0)])
    basis = solve_wave_basis(stack, om)
    assert basis.n.shape == (3,) + om.shape
    for j, layer in enumerate(stack.layers):
        assert np.array_equal(basis.n[j], np.broadcast_to(layer.index.at(om), om.shape))
    for x in (-1e-6, 2e-6, [2e-6, 3e-6], 7e-6):
        points = basis.at(x)
        assert np.array_equal(points.n, basis.n[points.layer])


# --- analytic oracles ------------------------------------------------------

def test_homogeneous_green_function_matches_closed_form():
    """In a uniform medium G(x, x') = i e^{ik|x-x'|} / (2k)."""
    n = 1.5 + 0.3j
    stack = uniform_stack(n)
    om = omega_from_ev(np.array([0.05, 0.11, 0.2]))
    basis = solve_wave_basis(stack, om)
    k = n * om / c
    for x, src in [(2e-6, 6e-6), (-3e-6, 4e-6), (1e-6, 1e-6), (12e-6, -5e-6)]:
        got = greens_sample(basis, x, src).value
        want = 1j * np.exp(1j * k * abs(x - src)) / (2 * k)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_vacuum_green_function_with_lossless_bounds():
    stack = uniform_stack(1.0)
    om = omega_from_ev(np.array([0.08, 0.16]))
    basis = solve_wave_basis(stack, om)
    k0 = om / c
    got = greens_sample(basis, 3e-6, 5e-6).value
    want = 1j * np.exp(1j * k0 * 2e-6) / (2 * k0)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
    # coincident value: Im G(x,x) = 1/(2 k0)
    coin = basis.at(4e-6).coincident_value
    assert np.max(np.abs(coin.imag - 1 / (2 * k0)) * 2 * k0) < 1e-12


def test_vacuum_wronskian_is_anchored_plane_wave_form():
    """The right solution is referenced at the last interface, so the
    uniform-medium Wronskian carries a phase e^{-ik0 span}."""
    stack = uniform_stack(1.0)
    om = omega_from_ev(np.array([0.1]))
    basis = solve_wave_basis(stack, om)
    k0 = om / c
    span = stack.interfaces[-1] - stack.interfaces[0]
    w = true_wronskian(basis)
    assert np.max(np.abs(w * np.exp(1j * k0 * span) - 2j * k0) / (2 * k0)) < 1e-10


def test_derivative_jump_across_source():
    """dG/dx jumps by -1 across the source point."""
    stack = cavity_stack()
    om = omega_from_ev(np.array([0.11]))
    basis = solve_wave_basis(stack, om)
    src = 4.3e-6
    h = 1e-9
    # Richardson-extrapolated one-sided derivatives of G in x
    def deriv(side):
        f = lambda d: greens_sample(basis, src + side * d, src).value
        d1 = (f(2 * h) - f(h)) / h
        d2 = (f(h) - f(h / 2)) / (h / 2)
        return side * (2 * d2 - d1)
    jump = deriv(+1) - deriv(-1)
    assert np.max(np.abs(jump + 1.0)) < 1e-6


def test_reciprocity_between_field_and_source():
    stack = cavity_stack()
    om = omega_from_ev(np.linspace(0.02, 0.24, 9))
    basis = solve_wave_basis(stack, om)
    pairs = [(2e-6, 7e-6), (-4e-6, 3e-6), (1e-6, 14e-6), (-6e-6, 16e-6)]
    for x, src in pairs:
        a = greens_sample(basis, x, src).value
        b = greens_sample(basis, src, x).value
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8


def test_wronskian_constant_across_layers(cavity_basis):
    """The physical Wronskian read off a field-point record in each layer
    is one constant."""
    true = []
    for x in (-1e-6, 5e-6, 11e-6):
        at = cavity_basis.at(x)
        log_scale = cavity_basis.scale_left[at.layer] + cavity_basis.scale_right[at.layer]
        true.append(at.w * np.exp(log_scale))
    ref = true[0]
    for w in true[1:]:
        assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-10
    assert np.array_equal(true_wronskian(cavity_basis), true[0])


def _mp_green(stack, omega):
    """G at one frequency, from a plain transfer-matrix march at 40
    digits: psi and psi' continuous at every interface, no
    renormalization, psi_left = e^{-ik(x - x_0)} in the first layer and
    psi_right = e^{ik(x - x_last)} in the last (the basis's own
    normalization). Returns G(x, x'), d^2 G / dx dx' at x' = x and the
    Wronskian in each layer; call them under ``mp.workdps(40)``."""
    k = [mp.mpc(complex(layer.index.at(omega))) * mp.mpf(omega) / mp.mpf(c)
         for layer in stack.layers]
    edges = [mp.mpf(b) for b in stack.interfaces]

    def at(sol, j, x):
        # a solution is a per-layer list of (A, B, ref) for
        # A e^{ik(x-ref)} + B e^{-ik(x-ref)}
        a, b, ref = sol[j]
        ep = mp.exp(mp.j * k[j] * (mp.mpf(x) - ref))
        return a * ep + b / ep, mp.j * k[j] * (a * ep - b / ep)

    def matched(value, slope, j, ref):
        return (value + slope / (mp.j * k[j])) / 2, (value - slope / (mp.j * k[j])) / 2, ref

    last = len(k) - 1
    left = [(mp.mpc(0), mp.mpc(1), edges[0])]
    for m in range(last):
        left.append(matched(*at(left, m, edges[m]), m + 1, edges[m]))
    right = [None] * last + [(mp.mpc(1), mp.mpc(0), edges[-1])]
    for m in range(last - 1, -1, -1):
        right[m] = matched(*at(right, m + 1, edges[m]), m, edges[m])

    def wronskian(j):
        (pl, dpl), (pr, dpr) = at(left, j, left[j][2]), at(right, j, left[j][2])
        return pl * dpr - dpl * pr

    w = wronskian(0)

    def green(x, src):
        lo, hi = min(x, src), max(x, src)
        phi_l = at(left, stack.layer_index(lo), lo)[0]
        phi_r = at(right, stack.layer_index(hi), hi)[0]
        return complex(-phi_l * phi_r / w)

    def mixed(x):
        j = stack.layer_index(x)
        return complex(-at(left, j, x)[1] * at(right, j, x)[1] / w)

    return green, mixed, [complex(wronskian(j)) for j in range(last + 1)]


@pytest.mark.parametrize("seed, n_layers", [(0, 3), (1, 4), (2, 5), (3, 5)])
def test_green_function_matches_high_precision_transfer_matrix(seed, n_layers):
    """The renormalized march against an independent 40-digit one on a
    random stack: G on both sides of the source and at it, the
    coincident value and mixed derivative, reciprocity and the physical
    Wronskian per layer."""
    rng = np.random.default_rng(seed)

    def index(min_loss):
        return ConstantIndex(complex(rng.uniform(1.0, 3.0), rng.uniform(min_loss, 0.5)))

    inner = [Layer(float(rng.uniform(0.2e-6, 3e-6)), index(0.0))
             for _ in range(n_layers - 2)]
    stack = LayerStack([Layer(INF, index(0.05)), *inner, Layer(INF, index(0.05))])
    om = omega_from_ev(rng.uniform(0.05, 0.2, 3))
    basis = solve_wave_basis(stack, om)
    # one point in each layer, the outer ones within 1 um of the stack
    bounds = [stack.interfaces[0] - 1e-6, *stack.interfaces, stack.interfaces[-1] + 1e-6]
    points = [float(rng.uniform(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]
    physical = basis.wronskian_scaled * np.exp(basis.scale_left + basis.scale_right)

    def close(got, want):
        return abs(got - want) <= 1e-10 * abs(want)

    for i, w in enumerate(om):
        with mp.workdps(40):
            green, mixed, wronskians = _mp_green(stack, float(w))
            for x in points:
                for src in points:
                    g = greens_sample(basis, x, src).value[i]
                    assert close(g, green(x, src)), (x, src)
                    assert close(g, greens_sample(basis, src, x).value[i]), (x, src)
                at = basis.at(x)
                assert close(at.coincident_value[i], green(x, x)), x
                assert close(at.coincident_mixed[i], mixed(x)), x
        for j, want in enumerate(wronskians):
            assert close(physical[j][i], want), j
            assert close(want, wronskians[0]), j


def test_interface_coefficients_satisfy_scalar_matching():
    n_l, n_r = 1.5 + 0.3j, 2.5 + 0.5j
    r, t = interface_coefficients(n_l, n_r)
    assert r == pytest.approx((n_l - n_r) / (n_l + n_r))
    assert t == pytest.approx(2 * n_l / (n_l + n_r))
    assert t == pytest.approx(1 + r)


def test_green_function_continuous_across_interfaces(cavity_basis):
    src = 5e-6
    for b in (0.0, 10e-6):
        eps = 1e-12
        lo = greens_sample(cavity_basis, b - eps, src).value
        hi = greens_sample(cavity_basis, b + eps, src).value
        assert np.max(np.abs(lo - hi) / np.abs(lo)) < 1e-4


# --- the closed-form oracle vs adaptive quadrature -------------------------

def _quad_integrals(basis, x, j, lo, hi):
    """Brute-force integrals over source positions of |G|^2 and of the
    squared field-point derivative |dG/dx|^2, by adaptive quadrature."""
    def gg(s):
        return np.abs(greens_sample(basis, x, s).value[0]) ** 2

    def dgg(s):
        return np.abs(greens_sample(basis, x, s).x_derivative[0]) ** 2

    kink = [x] if lo < x < hi else None
    gg_val, _ = integrate.quad(gg, lo, hi, limit=400, epsabs=0, epsrel=1e-11, points=kink)
    dgg_val, _ = integrate.quad(dgg, lo, hi, limit=400, epsabs=0, epsrel=1e-11, points=kink)
    return gg_val, dgg_val


@pytest.mark.parametrize("x", [4e-6, -2e-6])
def test_region_integrals_match_quadrature_finite(x):
    stack = cavity_stack()
    om = omega_from_ev(np.array([0.11]))
    basis = solve_wave_basis(stack, om)
    cases = [
        (1, 1e-6, 9e-6),          # gap interval, may contain x
        (1, 6e-6, 8e-6),          # fully to the right
        (0, -5e-6, -1e-6),        # inside the left medium
        (2, 11e-6, 15e-6),        # inside the right medium
    ]
    for j, lo, hi in cases:
        got = closed_form_integrals(basis.at(x), j, lo, hi)
        want_gg, want_dgg = _quad_integrals(basis, x, j, lo, hi)
        assert abs(got.gg[0] - want_gg) / want_gg < 1e-8
        assert abs(got.dgg[0] - want_dgg) / want_dgg < 1e-8


def test_region_integrals_semi_infinite_tails():
    """The closed-form tails equal the boundary sample divided by twice
    the decay rate (the outer solutions are single exponentials)."""
    stack = cavity_stack()
    om = omega_from_ev(np.array([0.05, 0.11, 0.2]))
    basis = solve_wave_basis(stack, om)
    x = 5e-6
    for j, edge in ((0, 0.0), (2, 10e-6)):
        lo, hi = stack.layer_bounds(j)
        got = closed_form_integrals(basis.at(x), j, lo, hi)
        kappa = basis.wavenumbers[j].imag
        s = greens_sample(basis, x, edge)
        want_gg = np.abs(s.value) ** 2 / (2 * kappa)
        want_dgg = np.abs(s.x_derivative) ** 2 / (2 * kappa)
        assert np.max(np.abs(got.gg - want_gg) / want_gg) < 1e-10
        assert np.max(np.abs(got.dgg - want_dgg) / want_dgg) < 1e-10


def test_lossless_tail_raises():
    stack = uniform_stack(1.0)
    om = omega_from_ev(np.array([0.1]))
    basis = solve_wave_basis(stack, om)
    with pytest.raises(DivergentSourceError):
        region_integrals(basis.at(4e-6), 2, stack.layer_bounds(2))


def test_region_integral_gradients_match_finite_differences():
    stack = cavity_stack()
    om = omega_from_ev(np.array([0.11]))
    basis = solve_wave_basis(stack, om)
    x = 4.7e-6
    h = 2e-10
    for j, lo, hi in [(0, -INF, 0.0), (1, 0.0, 10e-6), (2, 10e-6, INF)]:
        got = closed_form_integrals(basis.at(x), j, lo, hi, gradient=True)
        plus = closed_form_integrals(basis.at(x + h), j, lo, hi)
        minus = closed_form_integrals(basis.at(x - h), j, lo, hi)
        fd_gg = (plus.gg[0] - minus.gg[0]) / (2 * h)
        fd_dgg = (plus.dgg[0] - minus.dgg[0]) / (2 * h)
        scale_gg = max(abs(fd_gg), abs(got.d_gg[0]))
        scale_dgg = max(abs(fd_dgg), abs(got.d_dgg[0]))
        assert abs(got.d_gg[0] - fd_gg) / scale_gg < 1e-5
        assert abs(got.d_dgg[0] - fd_dgg) / scale_dgg < 1e-5


def test_random_point_region_closure(cavity_basis, cavity):
    """Summing |G|^2 integrals over all source regions, weighted by each
    layer's Im[k^2], reproduces Im G(x, x) exactly."""
    om = cavity_basis.omega
    for _ in range(10):
        x = RNG.uniform(-8e-6, 18e-6)
        total = np.zeros(om.shape)
        for j in range(3):
            k2im = (cavity_basis.wavenumbers[j] ** 2).imag
            lo, hi = cavity.layer_bounds(j)
            if np.all(k2im == 0.0):
                continue
            total += k2im * closed_form_integrals(cavity_basis.at(x), j, lo, hi).gg
        im_g = cavity_basis.at(x).coincident_value.imag
        assert np.max(np.abs(total - im_g) / np.abs(im_g)) < 1e-10


def test_lossless_outer_rejected_per_frequency():
    stack = LayerStack(
        [Layer(INF, ConstantIndex(1.0)),
         Layer(5e-6, ConstantIndex(1.5)),
         Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0)],
        allow_lossless_bounds=True,
    )
    # the outer-loss rule is checked once, when a stack is built: the flagged
    # stack solves, and its layers do not build without the flag
    solve_wave_basis(stack, omega_from_ev(0.1))
    with pytest.raises(ConfigError, match="outer layers must be lossy"):
        LayerStack(stack.layers)


def test_omega_validation():
    stack = cavity_stack()
    with pytest.raises(ConfigError):
        solve_wave_basis(stack, 0.0)
    with pytest.raises(ConfigError):
        solve_wave_basis(stack, np.array([1e14, -1e14]))


@pytest.mark.parametrize("gradient", [False, True])
def test_region_integrals_on_point_arrays_equal_per_point_calls(gradient):
    """Batched field points give bit-for-bit the per-point results, for
    source intervals left of, containing, and right of each point, for
    points exactly on slice boundaries, and in semi-infinite layers: in
    the closed-form oracle, in the library's region integrals, and in the
    occupation sums built from them."""
    stack = LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
        Layer(10e-6, ConstantIndex(1.1 + 0.1j), 350.0),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ])
    om = omega_from_ev(np.linspace(0.02, 0.24, 9))
    basis = solve_wave_basis(stack, om)
    edges = np.linspace(0.0, 10e-6, 5)
    regions = ([(0, -INF, 0.0), (0, -2e-6, -1e-6), (2, 10e-6, INF), (2, 11e-6, 12e-6)]
               + [(1, float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])])
    point_sets = [
        np.array([-3e-6, -1.5e-6, -1e-9]),
        np.concatenate([edges[:-1], [1.3e-6, 3.7e-6, 6.1e-6, 9.99e-6]]),
        np.array([10e-6, 11.5e-6, 14e-6]),
    ]
    fields = ("gg", "dgg", "d_gg", "d_dgg") if gradient else ("gg", "dgg")
    per_point = ("below", "inside", "split_left", "split_right")
    profile = TemperatureProfile(stack, [400.0, LayerSlices(
        tuple(float(b) for b in edges), (330.0, 360.0, 390.0, 345.0)), 300.0])
    for xs in point_sets:
        for j, lo, hi in regions:
            batched = closed_form_integrals(basis.at(xs), j, lo, hi, gradient=gradient)
            library = region_integrals(basis.at(xs), j, (lo, hi))
            for i, x in enumerate(xs):
                single = closed_form_integrals(basis.at(float(x)), j, lo, hi,
                                               gradient=gradient)
                for f in fields:
                    assert getattr(batched, f).shape == xs.shape + om.shape
                    assert np.array_equal(getattr(batched, f)[i], getattr(single, f)), (
                        f, j, lo, hi, x)
                alone = region_integrals(basis.at(float(x)), j, (lo, hi))
                for side in ("left", "right"):
                    got, want = getattr(library, side), getattr(alone, side)
                    assert (got is None and want is None) or np.array_equal(got, want)
                for f in per_point if library.below is not None else ():
                    assert np.array_equal(getattr(library, f)[i], getattr(alone, f)), (
                        f, j, lo, hi, x)
        sums = occupation_sums(basis.at(xs), profile, gradient=gradient)
        for i, x in enumerate(xs):
            alone = occupation_sums(basis.at(float(x)), profile, gradient=gradient)
            for f in ("d_e", "f_e", "d_m", "f_m"):
                for name in (f, f + "_prime") if gradient else (f,):
                    assert np.array_equal(getattr(sums, name)[i], getattr(alone, name))


def test_region_integrals_reject_points_in_several_layers():
    basis = solve_wave_basis(cavity_stack(), omega_from_ev(np.array([0.11])))
    with pytest.raises(ValueError, match="one layer"):
        region_integrals(basis.at(np.array([-1e-6, 1e-6])), 1, (0.0, 10e-6))

"""The source integrals from edge fluxes against the closed-form oracle.

The library reads each region integral off the flux Im(psi* psi') at the
region's edges (Green's identity). ``tests/oracles.py`` keeps the
closed-form profile integrals that it replaced, which ``test_greens.py``
checks against adaptive quadrature. Checked here are every branch of the
weights (a region left of, right of or split by the field point, and both
semi-infinite tails) and the eight occupation sums. They are checked on
the bundled stacks and on random stacks from the property domain: 3 to 6
layers, interior layers 0.1 to 100 um, Re n 1 to 4, Im n 0.01 to 1 on the
outer layers and on about half the others, sources at 10 to 1000 K, and 12
energies from 0.01 to 5 eV.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photonstack import greens, spectral
from photonstack.greens import solve_wave_basis
from photonstack.spectral import ldos, occupation_sums, region_weights
from photonstack.stack import (ConstantIndex, Layer, LayerSlices, LayerStack,
                               TemperatureProfile, load_stack)
from photonstack.units import CROSS_SECTION, c, omega_from_ev

from conftest import INF, passive_cavity_stack
from oracles import closed_form_integrals, closed_form_sums

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = ("hot_cold_cavity", "passive_cavity", "absorbing_slab", "transparent_slab")
SUMS = ("d_e", "f_e", "d_m", "f_m", "d_e_prime", "f_e_prime", "d_m_prime", "f_m_prime")


def _bundled_profile(stack, slices=16):
    """The stack's temperatures, with each self-consistent layer cut into
    slices from 310 to 390 K."""
    edges = {j: np.linspace(*stack.layer_bounds(j), slices + 1)
             for j, layer in enumerate(stack.layers) if layer.self_consistent}
    return TemperatureProfile.sliced(stack, edges, [np.linspace(310.0, 390.0, slices)] * len(edges))


def _point_sets(profile, depths):
    """Field points per layer: a few inside each finite layer, the given
    depths into each half-space, and every interface and slice edge."""
    stack = profile.stack
    sets = []
    for j in range(len(stack.layers)):
        lo, hi = stack.layer_bounds(j)
        if lo == -INF:
            xs = [hi - d for d in depths]
        elif hi == INF:
            xs = [lo + d for d in depths]
        else:
            xs = list(lo + (hi - lo) * np.array([0.03, 0.41, 0.77, 0.98]))
        xs += [e for e in profile.edges if lo <= e < hi]
        sets.append(np.array(sorted(set(xs))))
    return sets


def _branch(lo, hi, x):
    if lo == -INF:
        return "left tail"
    if hi == INF:
        return "right tail"
    return "left" if hi <= x else "right" if lo >= x else "split"


def _oracle_holds(points, sums, scales, lost):
    """Where the oracle is a reference: its sums are finite, no term was
    lost to an underflowing coefficient, its unfilled sums close against
    the mode densities to 1e-10, and its term magnitudes lie above the
    subnormal range."""
    om = points.basis.omega
    pref = 2.0 * om**3 / (math.pi * c**4 * CROSS_SECTION)
    densities = ldos(points)
    ok = ~lost
    for unfilled, density in ((sums[0], densities.electric), (sums[2], densities.magnetic)):
        with np.errstate(invalid="ignore", divide="ignore"):
            ok &= np.abs(pref * unfilled - density) <= 1e-10 * np.abs(density)
    for value, scale in zip(sums, scales):
        ok &= np.isfinite(value) & (scale >= np.finfo(float).tiny / np.finfo(float).eps)
    return ok


def differences(profile, om):
    """The library against the oracle at field points in every layer of
    ``profile``'s stack, and on every interface and slice edge.

    Returns the largest difference of each branch of the |G|^2 weights
    (``region_weights``) against Im[n^2] times the closed-form integral,
    relative to the summed weights at that point (the unfilled sum the
    weight enters); the largest difference of the eight occupation sums,
    relative to the summed magnitudes of the oracle's terms (a gradient
    sum can cancel to nothing); both over every point and energy where
    the oracle holds (``_oracle_holds``). Then the number of library
    values that are not finite where the oracle's are (and lost no term),
    and the number of finite oracle values that do not hold.
    """
    stack = profile.stack
    basis = solve_wave_basis(stack, om)
    regions = [(j, lo, hi) for j, edges, _ in profile.sources
               for lo, hi in zip(edges, edges[1:])]
    branches, worst_sum, new_nonfinite, unheld = {}, 0.0, 0, 0
    for xs in _point_sets(profile, (1e-7, 1e-6, 20e-6)):
        points = basis.at(xs)
        sums, scales, lost = closed_form_sums(points, profile, gradient=True)
        holds = _oracle_holds(points, sums, scales, lost)
        unheld += int(np.sum(np.isfinite(sums[0]) & ~holds))
        got = occupation_sums(points, profile)
        got = dict(zip(SUMS, [*(getattr(got, name) for name in SUMS[:4]), *got.primes()]))
        for name, value, scale in zip(SUMS, sums, scales):
            lib = got[name]
            new_nonfinite += int(np.sum(np.isfinite(value) & ~lost & ~np.isfinite(lib)))
            rel = np.abs(lib - value)[holds] / scale[holds]
            worst_sum = max(worst_sum, float(np.max(rel, initial=0.0)))
        weights = np.empty((xs.size, len(regions), om.size))
        region_weights(points, profile.sources, weights)
        for r, (j, lo, hi) in enumerate(regions):
            n2im = (stack.layers[j].index.at(om) ** 2).imag
            oracle = closed_form_integrals(points, j, lo, hi)
            want = n2im * oracle.gg
            new_nonfinite += int(np.sum(np.isfinite(want) & ~oracle.lost
                                        & ~np.isfinite(weights[:, r])))
            rel = np.abs(weights[:, r] - want) / sums[0]
            for i, x in enumerate(xs):
                branch = _branch(lo, hi, x)
                branches[branch] = max(branches.get(branch, 0.0),
                                       float(np.max(rel[i][holds[i]], initial=0.0)))
    return branches, worst_sum, new_nonfinite, unheld


BUNDLED_OMEGA = omega_from_ev(np.geomspace(1e-3, 3.0, 60))


@pytest.mark.parametrize("name", BUNDLED)
def test_the_library_matches_the_closed_form_on_bundled_stacks(name):
    profile = _bundled_profile(load_stack(CONFIGS / f"{name}.yaml"))
    branches, worst_sum, new_nonfinite, unheld = differences(profile, BUNDLED_OMEGA)
    expected = {"left tail", "right tail"}
    if any(layer.self_consistent for layer in profile.stack.layers):
        expected |= {"left", "right", "split"}
    assert expected <= set(branches)
    assert (new_nonfinite, unheld) == (0, 0)
    assert max(branches.values()) < 1e-10, branches
    assert worst_sum < 1e-10


@st.composite
def random_profiles(draw):
    """A stack from the property domain with every lossy layer a source,
    interior ones cut into 1 to 4 slices."""
    count = draw(st.integers(3, 6))
    kelvin = st.floats(10.0, 1000.0)
    layers, entries = [], []
    for j in range(count):
        outer = j in (0, count - 1)
        lossy = outer or draw(st.booleans())
        n = complex(draw(st.floats(1.0, 4.0)), draw(st.floats(0.01, 1.0)) if lossy else 0.0)
        width = INF if outer else draw(st.floats(0.1e-6, 100e-6))
        layers.append(Layer(width, ConstantIndex(n)))
        slices = 1 if outer or not lossy else draw(st.integers(1, 4))
        if not lossy:
            entries.append(None)
        elif slices == 1:
            entries.append(draw(kelvin))
        else:
            entries.append(slices)
    stack = LayerStack(layers)
    for j, entry in enumerate(entries):
        if isinstance(entry, int):
            bounds = tuple(float(b) for b in np.linspace(*stack.layer_bounds(j), entry + 1))
            entries[j] = LayerSlices(bounds, tuple(draw(kelvin) for _ in range(entry)))
    return TemperatureProfile(stack, entries)


RANDOM_OMEGA = omega_from_ev(np.geomspace(0.01, 5.0, 12))
RANDOM = settings(derandomize=True, max_examples=100, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@RANDOM
@given(random_profiles())
def test_the_library_matches_the_closed_form_on_random_stacks(profile):
    with warnings.catch_warnings():
        # both routes overflow deep in thick absorbers; they are compared
        # only where the oracle is finite
        warnings.simplefilter("ignore", RuntimeWarning)
        branches, worst_sum, new_nonfinite, _ = differences(profile, RANDOM_OMEGA)
    assert new_nonfinite == 0
    assert max(branches.values()) < 1e-8, branches
    assert worst_sum < 1e-8


def test_occupation_sums_call_region_integrals_once_per_source_layer(monkeypatch):
    """32 slices of passive_cavity are 34 source regions in 3 layers; the
    sums evaluate the edge fluxes once per layer, not once per region.
    Their derivatives are evaluated on the first read, not before, and
    once, from the same integrals."""
    stack = passive_cavity_stack()
    profile = _bundled_profile(stack, slices=32)
    assert [(j, len(temps)) for j, _, temps in profile.sources] == [(0, 1), (1, 32), (2, 1)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return greens.region_integrals(*args, **kwargs)

    monkeypatch.setattr(spectral, "region_integrals", counted)
    basis = solve_wave_basis(stack, omega_from_ev(np.array([0.05, 0.1])))
    for x in (-1e-6, 3e-6, 20e-6):
        calls.clear()
        sums = occupation_sums(basis.at(x), profile)
        assert sums.primes.cache_info().currsize == 0
        assert sums.primes() is sums.primes()
        assert calls == [0, 1, 2]


def test_region_weights_fill_columns_in_the_order_of_the_sources():
    """The balance solve passes the reservoir layers before the sliced
    one; each region's column then holds the very weights it holds in the
    profile's left-to-right order."""
    stack = passive_cavity_stack()
    sources = _bundled_profile(stack, slices=4).sources
    reservoirs_first = sorted(sources, key=lambda src: stack.layers[src[0]].self_consistent)
    assert [j for j, _, _ in reservoirs_first] == [0, 2, 1]
    basis = solve_wave_basis(stack, omega_from_ev(np.array([0.05, 0.1])))
    points = basis.at(np.array([1.25e-6, 3.75e-6, 6.25e-6, 8.75e-6]))
    in_order, permuted = np.empty((4, 6, 2)), np.empty((4, 6, 2))
    region_weights(points, sources, in_order)
    region_weights(points, reservoirs_first, permuted)
    # profile columns: layer 0, the four slices of layer 1, layer 2
    assert np.array_equal(permuted, in_order[:, [0, 5, 1, 2, 3, 4]])

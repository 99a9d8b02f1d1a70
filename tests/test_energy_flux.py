"""Energy conservation of the thermal field against Green's identity.

``oracles.edge_flux`` builds the net spectral flux S at region edges from
the source integrals and the flux of each solution there. Three
identities follow from d/dx Im(G* dG/dx) = -k0^2 Im[n^2] |G|^2 away from
the source: at one temperature everywhere no net flux flows; across a
lossless layer S is constant; and across a slice, S rises by the slice's
net emission, Im[n_m^2] sum_s (eta_m - eta_s) int_m w_s dx, with the
source weights w_s of the dense fill ``oracles.region_weights`` (the
balance solver's weight rule) integrated over the slice. They are
checked on the two bundled balance stacks, each with its
self-consistent layer cut into 8 slices, on the balance solver's own
energy grid.
"""

from pathlib import Path

import numpy as np
import pytest

from photonstack.greens import solve_wave_basis
from photonstack.spectral import source_occupation
from photonstack.stack import LayerSlices, TemperatureProfile, load_stack
from photonstack.thermo import default_balance_grid

from oracles import edge_flux, region_weights

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STACKS = ("passive_cavity", "absorbing_slab")
SLICES = 8
GAUSS_NODES = 64


def _setup(name):
    """The stack's wave basis on the balance grid, its self-consistent
    layer and that layer's slice edges."""
    stack = load_stack(CONFIGS / f"{name}.yaml")
    (j,) = [j for j, layer in enumerate(stack.layers) if layer.self_consistent]
    edges = np.linspace(*stack.layer_bounds(j), SLICES + 1)
    return solve_wave_basis(stack, default_balance_grid()), j, edges


def _random_profile(stack, j, edges, seed):
    """The stack's reservoirs, with slices at random temperatures between
    theirs."""
    temps = np.random.default_rng(seed).uniform(300.0, 400.0, SLICES)
    return TemperatureProfile.sliced(stack, {j: edges}, [temps])


@pytest.mark.parametrize("name", STACKS)
def test_no_net_flux_in_thermal_equilibrium(name):
    basis, j, edges = _setup(name)
    stack = basis.stack
    profile = TemperatureProfile(stack, [
        LayerSlices(tuple(edges), (350.0,) * SLICES) if k == j
        else 350.0 if layer.lossy else None
        for k, layer in enumerate(stack.layers)])
    for x in profile.edges:
        flux = edge_flux(basis, profile, x)
        assert np.all(np.abs(flux.net) <= 1e-13 * flux.driven), x


def test_net_flux_is_constant_across_a_lossless_layer():
    basis, j, edges = _setup("absorbing_slab")
    stack = basis.stack
    profile = _random_profile(stack, j, edges, seed=1)
    hosts = [k for k, layer in enumerate(stack.layers) if not layer.lossy]
    assert hosts == [1, 3]
    for k in hosts:
        lo, hi = (edge_flux(basis, profile, x) for x in stack.layer_bounds(k))
        assert np.all(np.abs(hi.net - lo.net) <= 1e-13 * np.maximum(lo.driven, hi.driven)), k


@pytest.mark.parametrize("name", STACKS)
def test_net_flux_rises_across_a_slice_by_its_net_emission(name):
    basis, j, edges = _setup(name)
    om = basis.omega
    profile = _random_profile(basis.stack, j, edges, seed=2)
    temps = np.concatenate([t for _, _, t in profile.sources])
    eta = source_occupation(om, temps[:, None])
    first = sum(len(t) for k, _, t in profile.sources if k < j)
    n = basis.stack.layers[j].index.at(om)
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    flux = [edge_flux(basis, profile, x).net for x in edges]
    for m in range(SLICES):
        half = 0.5 * (edges[m + 1] - edges[m])
        xs = edges[m] + half * (1.0 + nodes)
        w = region_weights(basis.at(xs), profile.sources)
        integrals = np.einsum("x,xrw->rw", half * weights, w)
        emission = (n * n).imag * np.sum((eta[first + m] - eta) * integrals, axis=0)
        rise = flux[m + 1] - flux[m]
        assert np.max(np.abs(rise - emission)) <= 1e-9 * np.max(np.abs(emission)), m

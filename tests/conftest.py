import numpy as np
import pytest

from photonstack.greens import solve_wave_basis
from photonstack.mechanics import energy_pressure, force_density
from photonstack.spectral import ldos, occupation_sums, photon_numbers
from photonstack.stack import ConstantIndex, Layer, LayerStack, TemperatureProfile
from photonstack.thermo import solve_self_consistent
from photonstack.units import omega_from_ev

INF = float("inf")


def point_energy(basis, profile, x):
    """energy_pressure fed with freshly evaluated densities and numbers."""
    points = basis.at(x)
    return energy_pressure(basis.omega, ldos(points), photon_numbers(points, profile))


def point_force(basis, profile, x):
    """force_density fed with freshly evaluated densities and gradient sums."""
    points = basis.at(x)
    sums = occupation_sums(points, profile, gradient=True)
    return force_density(points, ldos(points), sums)


def cavity_stack() -> LayerStack:
    """Hot and cold lossy half-spaces around a 10 um vacuum gap."""
    return LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
        Layer(10e-6, ConstantIndex(1.0)),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ])


def passive_cavity_stack() -> LayerStack:
    """Same reservoirs with a weakly lossy medium filling the gap."""
    return LayerStack([
        Layer(INF, ConstantIndex(1.5 + 0.3j), 400.0),
        Layer(10e-6, ConstantIndex(1.1 + 0.1j), self_consistent=True),
        Layer(INF, ConstantIndex(2.5 + 0.5j), 300.0),
    ])


def slab_stack(width: float, slab_index: complex, *,
               total: float = 10e-6, self_consistent: bool = False,
               t_left: float = 400.0, t_right: float = 300.0) -> LayerStack:
    """Equal lossy walls, a vacuum host, and a centered slab of the given
    width; width 0 collapses to the bare cavity."""
    wall = ConstantIndex(2.5 + 0.5j)
    if width == 0.0:
        return LayerStack([
            Layer(INF, wall, t_left),
            Layer(total, ConstantIndex(1.0)),
            Layer(INF, wall, t_right),
        ])
    side = 0.5 * (total - width)
    return LayerStack([
        Layer(INF, wall, t_left),
        Layer(side, ConstantIndex(1.0)),
        Layer(width, ConstantIndex(slab_index),
              None, self_consistent),
        Layer(side, ConstantIndex(1.0)),
        Layer(INF, wall, t_right),
    ])


@pytest.fixture(scope="session")
def cavity():
    return cavity_stack()


@pytest.fixture(scope="session")
def cavity_omega():
    return omega_from_ev(np.linspace(0.02, 0.24, 23))


@pytest.fixture(scope="session")
def cavity_basis(cavity, cavity_omega):
    return solve_wave_basis(cavity, cavity_omega)


@pytest.fixture(scope="session")
def cavity_profile(cavity):
    return TemperatureProfile.from_stack(cavity)


@pytest.fixture(scope="session")
def passive_cavity():
    return passive_cavity_stack()


@pytest.fixture(scope="session")
def passive_balance(passive_cavity):
    return solve_self_consistent(passive_cavity)

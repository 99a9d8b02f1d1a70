import numpy as np
import pytest
from scipy import integrate

from photonstack.errors import ConfigError, InterfacePointError
from photonstack.greens import solve_wave_basis
from photonstack.mechanics import PointField, fd_residual, frequency_integrated_force, net_force
from photonstack.spectral import ldos, photon_numbers, source_occupation
from photonstack.stack import TemperatureProfile
from photonstack.units import hbar, omega_from_ev

from conftest import cavity_stack, point_energy, point_force, slab_stack
from oracles import net_force_occupation_route


@pytest.fixture(scope="module")
def balanced_passive(passive_cavity, passive_balance):
    om = omega_from_ev(np.linspace(0.02, 0.24, 17))
    return passive_cavity, solve_wave_basis(passive_cavity, om), passive_balance.profile


# --- energy density and pressure -------------------------------------------

def test_equilibrium_energy_density_formula(cavity, cavity_basis):
    """At thermal equilibrium u reduces to hbar omega rho_tot (eta + 1/2)
    with the analytic occupancy."""
    profile = TemperatureProfile.uniform(cavity, 350.0)
    om = cavity_basis.omega
    eta = source_occupation(om, 350.0)
    for x in (-2e-6, 4e-6, 12e-6):
        sample = point_energy(cavity_basis, profile, x)
        rho_tot = ldos(cavity_basis.at(x)).total
        want = hbar * om * rho_tot * (eta + 0.5)
        assert np.max(np.abs(sample - want) / want) < 1e-6


def test_field_fluctuations_continuous_energy_density_not(
        cavity, cavity_basis, cavity_profile):
    """The quadrature fluctuation fields, rho_e (n_e + 1/2) and
    rho_m (n_m + 1/2) up to constant factors, are continuous at the
    interfaces (their eps-offset jumps shrink linearly with eps) while the
    energy density holds a finite step at the n2 wall."""
    def fields(x):
        points = cavity_basis.at(x)
        rho, n = ldos(points), photon_numbers(points, cavity_profile)
        return (rho.electric * (n.electric + 0.5), rho.magnetic * (n.magnetic + 0.5),
                point_energy(cavity_basis, cavity_profile, x))

    def jumps(b, eps):
        return [np.max(np.abs(a - z) / np.abs(a))
                for a, z in zip(fields(b - eps), fields(b + eps))]

    for b in (0.0, 10e-6):
        fine = jumps(b, 1e-12)
        coarse = jumps(b, 1e-11)
        assert fine[0] < 0.2 * coarse[0]
        assert fine[1] < 0.2 * coarse[1]
    # the vacuum/wall interface at 10 um: polarizability steps u by O(1)
    fine = jumps(10e-6, 1e-12)
    coarse = jumps(10e-6, 1e-11)
    assert fine[2] > 0.5
    assert abs(fine[2] / coarse[2] - 1.0) < 1e-3


# --- force-density decomposition -------------------------------------------

def test_interface_point_rejected(cavity, cavity_basis, cavity_profile):
    with pytest.raises(InterfacePointError):
        point_force(cavity_basis, cavity_profile, 0.0)


def test_force_works_on_a_point_field_built_without_options(cavity_basis, cavity_profile):
    assert np.all(np.isfinite(PointField(cavity_basis, cavity_profile, 4e-6).force.total))


def test_decomposition_sums_to_energy_gradient(balanced_passive):
    """zcf + tcf + ncf equals -du/dx, checked against a Richardson
    finite difference away from interfaces and slice edges."""
    stack, basis, profile = balanced_passive
    xs = np.array([0.2, 2.9, 5.1, 7.3, 9.8]) * 1e-6
    worst = 0.0
    for x in xs:
        sample = point_force(basis, profile, x)
        residual = fd_residual(basis, profile, x, sample.total)
        worst = max(worst, float(np.max(np.abs(residual))))
        assert np.allclose(sample.total,
                           sample.zero_point + sample.thermal + sample.occupation)
    assert worst < 1e-4


def test_occupation_force_nonnegative_in_passive_layer(balanced_passive):
    stack, basis, profile = balanced_passive
    for x in np.array([0.2, 1.7, 3.4, 6.6, 8.3, 9.8]) * 1e-6:
        sample = point_force(basis, profile, x)
        assert np.all(sample.occupation >= 0.0)


def test_occupation_force_vanishes_in_vacuum_gap(cavity, cavity_basis, cavity_profile):
    """In lossless media the photon numbers are position-independent, so
    the occupation term carries no force.  Inside the gap every component
    is roundoff-small, so the reference scale comes from the wall."""
    wall = point_force(cavity_basis, cavity_profile, -0.5e-6)
    scale = np.abs(wall.zero_point).max()
    assert scale > 0.0
    for x in (2.3e-6, 6.8e-6):
        sample = point_force(cavity_basis, cavity_profile, x)
        assert np.abs(sample.occupation).max() < 1e-12 * scale


def test_force_density_integrates_to_pressure_difference(
        cavity, cavity_basis, cavity_profile):
    """Within one layer the decomposition integrates to p(a) - p(b)."""
    a, b = -3e-6, -1e-6
    om_index = 11

    def total(x):
        return point_force(cavity_basis, cavity_profile, float(x)).total[om_index]

    integral, _ = integrate.quad(total, a, b, epsabs=0, epsrel=1e-9, limit=200)
    pa = point_energy(cavity_basis, cavity_profile, a)[om_index]
    pb = point_energy(cavity_basis, cavity_profile, b)[om_index]
    assert abs(integral - (pa - pb)) / abs(pa - pb) < 1e-6


# --- net force on a slab ---------------------------------------------------

def test_probe_order_validated(cavity_basis, cavity_profile):
    with pytest.raises(InterfacePointError, match="x1 < x2"):
        net_force(cavity_basis, cavity_profile, 7e-6, 2e-6)
    with pytest.raises(InterfacePointError, match="x1 < x2"):
        frequency_integrated_force(cavity_profile, 7e-6, 2e-6,
                                   omega_from_ev(np.linspace(0.02, 0.3, 8)))


def test_pressure_and_occupation_routes_agree():
    stack = slab_stack(2.5e-6, 1.5)
    om = omega_from_ev(np.linspace(0.02, 0.24, 12))
    basis = solve_wave_basis(stack, om)
    profile = TemperatureProfile.from_stack(stack)
    x1, x2 = 0.25 * 7.5e-6, 10e-6 - 0.25 * 7.5e-6
    f_p = net_force(basis, profile, x1, x2)
    f_n = net_force_occupation_route(basis, profile, x1, x2)
    scale = np.abs(f_p).max()
    assert np.max(np.abs(f_p - f_n)) < 1e-10 * scale


def test_equal_reservoirs_give_zero_force():
    om = omega_from_ev(np.linspace(0.02, 0.24, 12))
    forces = {}
    for t_right, key in ((300.0, "driven"), (400.0, "balanced")):
        stack = slab_stack(2.0e-6, 1.5, t_left=400.0, t_right=t_right)
        basis = solve_wave_basis(stack, om)
        profile = TemperatureProfile.from_stack(stack)
        x1, x2 = 0.25 * 8e-6, 10e-6 - 0.25 * 8e-6
        forces[key] = net_force(basis, profile, x1, x2)
    peak = np.abs(forces["driven"]).max()
    assert np.abs(forces["balanced"]).max() < 1e-12 * peak


def test_force_fades_with_vanishing_slab():
    om = omega_from_ev(np.array([0.118]))
    mags = []
    for w in (0.5e-6, 0.1e-6, 0.02e-6):
        stack = slab_stack(w, 1.5)
        basis = solve_wave_basis(stack, om)
        profile = TemperatureProfile.from_stack(stack)
        x1 = 0.25 * (10e-6 - w)
        mags.append(abs(net_force(basis, profile, x1, 10e-6 - x1)[0]))
    assert mags[0] > mags[1] > mags[2]


def test_transparent_slab_feels_pulling_force_somewhere():
    om = omega_from_ev(np.linspace(0.02, 0.24, 23))
    profile_found = False
    for w in (1e-6, 2.5e-6, 4e-6, 5e-6):
        stack = slab_stack(w, 1.5)
        basis = solve_wave_basis(stack, om)
        profile = TemperatureProfile.from_stack(stack)
        x1 = 0.25 * (10e-6 - w)
        f = net_force(basis, profile, x1, 10e-6 - x1)
        if np.any(f < 0):
            profile_found = True
    assert profile_found


def test_absorption_turns_pulling_into_pushing():
    """A strongly absorbing slab is pushed toward the cold wall at every
    sampled energy.  A thin slab keeps a weak pulling remnant at the
    long-wavelength edge where absorption is too dilute to win; that
    remnant sits below the lossless pulling force at the same cell."""
    from photonstack.thermo import solve_self_consistent
    om = omega_from_ev(np.linspace(0.02, 0.24, 12))

    stack = slab_stack(3e-6, 1.5 + 0.3j, self_consistent=True)
    profile = solve_self_consistent(stack, slices=8).profile
    basis = solve_wave_basis(stack, om)
    x1 = 0.25 * 7e-6
    thick = net_force(basis, profile, x1, 10e-6 - x1)
    assert np.all(thick > 0)

    stack = slab_stack(1e-6, 1.5 + 0.3j, self_consistent=True)
    profile = solve_self_consistent(stack, slices=8).profile
    basis = solve_wave_basis(stack, om)
    x1 = 0.25 * 9e-6
    thin = net_force(basis, profile, x1, 10e-6 - x1)
    assert np.all(thin[1:] > 0)
    assert thin[0] < 0
    assert abs(thin[0]) < 0.1 * np.abs(thin).max()

    clear = slab_stack(1e-6, 1.5)
    clear_basis = solve_wave_basis(clear, om)
    pulled = net_force(clear_basis, TemperatureProfile.from_stack(clear),
                       x1, 10e-6 - x1)
    assert pulled[0] < thin[0] < 0


def test_integrated_force_rejects_a_decreasing_grid(cavity_profile):
    om = omega_from_ev(np.array([0.2, 0.1, 0.05]))
    with pytest.raises(ConfigError, match="frequency grid must be 1D and increasing"):
        frequency_integrated_force(cavity_profile, 2e-6, 8e-6, om)


def test_integrated_force_warns_when_the_grid_stops_inside_the_integrand(cavity_profile):
    """At 0.05 eV the 400 K wall's thermal integrand is still large, so a
    grid that stops there warns and still returns the truncated integral."""
    om = omega_from_ev(np.linspace(0.005, 0.05, 16))
    with pytest.warns(UserWarning, match="not negligible at the grid's upper edge"):
        force = frequency_integrated_force(cavity_profile, 2e-6, 8e-6, om)
    assert np.isfinite(force)


def test_integrated_thermal_force_points_to_cold_wall():
    stack = slab_stack(2.5e-6, 1.5 + 0.3j, self_consistent=True)
    from photonstack.thermo import solve_self_consistent
    profile = solve_self_consistent(stack, slices=8).profile
    om = omega_from_ev(np.geomspace(0.005, 0.8, 64))
    x1 = 0.25 * 7.5e-6
    assert frequency_integrated_force(profile, x1, 10e-6 - x1, om) > 0.0


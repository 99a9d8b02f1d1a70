import dataclasses

import numpy as np
import pytest

from photonstack.errors import ConfigError
from photonstack.greens import solve_wave_basis
from photonstack.mechanics import PointField
from photonstack.spectral import (
    FieldTriplet,
    effective_temperatures,
    ldos,
    ldos_closure_residuals,
    ldos_gradient,
    occupation_sums,
    photon_numbers,
    source_occupation,
)
from photonstack.stack import ConstantIndex, Layer, LayerStack, TemperatureProfile
from photonstack.units import LDOS_UNIT, hbar, k_B, omega_from_ev

from conftest import INF, cavity_stack

RNG = np.random.default_rng(20260212)


# --- occupancy and effective temperature -----------------------------------

def test_occupancy_frozen_value():
    # independently derived once; guards against silent constant drift
    got = source_occupation(omega_from_ev(0.1), 300.0)
    assert abs(got - 0.021342502621476598) / got < 1e-13


def test_occupancy_matches_direct_exponential():
    for t in (50.0, 300.0, 1200.0):
        for ev in (0.005, 0.05, 0.5):
            om = omega_from_ev(ev)
            x = hbar * om / (k_B * t)
            direct = np.exp(-x) / (1.0 - np.exp(-x))
            got = source_occupation(om, t)
            assert abs(got - direct) / direct < 1e-12


def test_occupancy_requires_positive_temperature():
    for temperature in (0.0, np.nan, np.inf, np.array([[300.0], [np.nan]]),
                        True, "300", None, [300.0, "400"], object()):
        with pytest.raises(ConfigError, match="positive and finite"):
            source_occupation(omega_from_ev(0.1), temperature)


def test_occupancy_takes_a_list_of_temperatures():
    om = omega_from_ev(0.1)
    got = source_occupation(om, [300.0, 400.0])
    assert np.array_equal(got, [source_occupation(om, 300.0), source_occupation(om, 400.0)])
    assert np.array_equal(got, 1.0 / np.expm1(hbar * om / (k_B * np.array([300.0, 400.0]))))


def test_effective_temperatures_invert_occupancy():
    om = omega_from_ev(np.linspace(0.01, 0.3, 7))
    for t in (120.0, 300.0, 777.0):
        n = source_occupation(om, t)
        for back in effective_temperatures(FieldTriplet(n, n, n), om):
            assert np.max(np.abs(back - t)) < 1e-9


def test_nan_occupancy_stays_nan_not_zero_kelvin():
    om = omega_from_ev(0.1)
    n = np.array([np.nan, 0.0, -1.0, 1.0])
    for out in effective_temperatures(FieldTriplet(n, n, n), om):
        assert np.isnan(out[:3]).all()
        assert abs(out[3] - hbar * om / (k_B * np.log(2.0))) < 1e-9 * out[3]


# --- mode densities --------------------------------------------------------

def test_infinite_vacuum_mode_densities():
    """Free space: electric and magnetic halves are 0.5 each in units of
    the total vacuum density 2/(pi c S)."""
    stack = LayerStack(
        [Layer(INF, ConstantIndex(1.0)),
         Layer(8e-6, ConstantIndex(1.0)),
         Layer(INF, ConstantIndex(1.0))],
        allow_lossless_bounds=True,
    )
    basis = solve_wave_basis(stack, omega_from_ev(np.linspace(0.02, 0.24, 12)))
    e, m, tot = (d / LDOS_UNIT for d in ldos(basis.at(3e-6)))
    assert np.max(np.abs(e - 0.5)) < 1e-9
    assert np.max(np.abs(m - 0.5)) < 1e-9
    assert np.max(np.abs(tot - 1.0)) < 1e-9


def test_total_density_constant_in_gap(cavity_basis, cavity):
    xs = np.linspace(0.5e-6, 9.5e-6, 41)
    tot = np.array([ldos(cavity_basis.at(x)).total for x in xs])
    spread = (tot.max(axis=0) - tot.min(axis=0)) / tot.mean(axis=0)
    assert np.max(spread) < 1e-10
    # while the electric part oscillates by orders more
    ele = np.array([ldos(cavity_basis.at(x)).electric for x in xs])
    osc = (ele.max(axis=0) - ele.min(axis=0)) / ele.mean(axis=0)
    assert np.max(osc) > 0.1


def test_electric_peaks_sit_on_magnetic_minima(cavity):
    om = omega_from_ev(np.array([0.118]))
    basis = solve_wave_basis(cavity, om)
    xs = np.linspace(0.2e-6, 9.8e-6, 301)
    e = np.array([ldos(basis.at(x)).electric[0] for x in xs])
    m = np.array([ldos(basis.at(x)).magnetic[0] for x in xs])
    assert np.argmax(e) == np.argmin(m)
    # constant total forces exact anticorrelation of the oscillations
    r = np.corrcoef(e, m)[0, 1]
    assert r < -0.999999


def test_ldos_gradient_matches_finite_difference(cavity_basis, cavity):
    h = 1e-10
    for x in (3.3e-6, -1.7e-6, 12.4e-6):
        d_e, d_m, d_tot = ldos_gradient(cavity_basis.at(x))
        hi = ldos(cavity_basis.at(x + h))
        lo = ldos(cavity_basis.at(x - h))
        fd_e = (hi.electric - lo.electric) / (2 * h)
        fd_m = (hi.magnetic - lo.magnetic) / (2 * h)
        fd_tot = (hi.total - lo.total) / (2 * h)
        # one shared scale: in the gap the total gradient vanishes
        # identically, where a per-component relative error is noise
        scale = max(np.abs(fd_e).max(), np.abs(fd_m).max())
        for got, fd in ((d_e, fd_e), (d_m, fd_m), (d_tot, fd_tot)):
            assert np.max(np.abs(got - fd)) / scale < 1e-5


def test_closure_residuals_are_roundoff(cavity_basis, cavity):
    for x in (-2e-6, 4.1e-6, 15e-6):
        res_e, res_m = ldos_closure_residuals(cavity_basis.at(x))
        assert np.max(res_e) < 1e-10
        assert np.max(res_m) < 1e-10


# --- photon numbers --------------------------------------------------------

def test_equilibrium_numbers_collapse_to_reservoir_occupancy(cavity, cavity_basis):
    """With every source at one temperature, all three photon numbers
    equal the Bose-Einstein occupancy and every effective temperature
    recovers that temperature."""
    profile = TemperatureProfile.uniform(cavity, 350.0)
    om = cavity_basis.omega
    eta = source_occupation(om, 350.0)
    for x in (-3e-6, 2e-6, 8e-6, 13e-6):
        nums = photon_numbers(cavity_basis.at(x), profile)
        for got in (nums.electric, nums.magnetic, nums.total):
            assert np.max(np.abs(got - eta) / eta) < 1e-6
        temps = effective_temperatures(nums, om)
        for t in (temps.electric, temps.magnetic, temps.total):
            assert np.max(np.abs(t - 350.0)) < 1e-3


def test_nonequilibrium_numbers_bounded_by_reservoirs(cavity, cavity_basis, cavity_profile):
    om = cavity_basis.omega
    lo = source_occupation(om, 300.0)
    hi = source_occupation(om, 400.0)
    for x in (-1e-6, 1e-6, 5e-6, 9e-6, 12e-6):
        nums = photon_numbers(cavity_basis.at(x), cavity_profile)
        assert np.all(nums.total >= lo * (1 - 1e-12))
        assert np.all(nums.total <= hi * (1 + 1e-12))


def test_total_number_constant_in_gap_while_electric_oscillates(
        cavity, cavity_basis, cavity_profile):
    xs = np.linspace(0.5e-6, 9.5e-6, 31)
    tot = np.array([photon_numbers(cavity_basis.at(x), cavity_profile).total for x in xs])
    ele = np.array([photon_numbers(cavity_basis.at(x), cavity_profile).electric for x in xs])
    tot_spread = (tot.max(axis=0) - tot.min(axis=0)) / tot.mean(axis=0)
    ele_spread = (ele.max(axis=0) - ele.min(axis=0)) / ele.mean(axis=0)
    assert np.max(tot_spread) < 1e-6
    assert np.max(ele_spread) > 1e-3


def test_electric_temperature_saturates_deep_in_reservoirs(cavity):
    om = omega_from_ev(np.array([0.118]))
    basis = solve_wave_basis(cavity, om)
    profile = TemperatureProfile.from_stack(cavity)
    deep_left = photon_numbers(basis.at(-60e-6), profile)
    deep_right = photon_numbers(basis.at(70e-6), profile)
    t_left = effective_temperatures(deep_left, om).electric[0]
    t_right = effective_temperatures(deep_right, om).electric[0]
    assert abs(t_left - 400.0) < 1.0
    assert abs(t_right - 300.0) < 1.0


def test_gradient_sums_give_bitwise_equal_numbers(cavity, cavity_basis, cavity_profile):
    """Scans read u and p off the gradient sums when forces are requested;
    they must match the plain photon numbers bit for bit."""
    for x in (-3e-6, 4e-6, 13e-6):
        plain = photon_numbers(cavity_basis.at(x), cavity_profile)
        sums = occupation_sums(cavity_basis.at(x), cavity_profile, gradient=True)
        for name in ("electric", "magnetic", "total"):
            assert np.array_equal(getattr(sums.numbers, name), getattr(plain, name))


def test_sourceless_structure_has_mode_densities_but_no_photon_numbers():
    """A photon number is a weighted mean of the thermal sources'
    occupancies, so a stack with no absorbing layer has none: every
    photon-number path raises one ConfigError line, while the mode
    densities still evaluate."""
    stack = LayerStack(
        [Layer(INF, ConstantIndex(1.0)),
         Layer(5e-6, ConstantIndex(1.5)),
         Layer(INF, ConstantIndex(1.0))],
        allow_lossless_bounds=True,
    )
    basis = solve_wave_basis(stack, omega_from_ev(np.array([0.1])))
    profile = TemperatureProfile.from_stack(stack)
    assert np.all(ldos(basis.at(2e-6)).total > 0.0)
    for numbers in (lambda: photon_numbers(basis.at(2e-6), profile),
                    lambda: occupation_sums(basis.at(2e-6), profile),
                    lambda: PointField(basis, profile, 2e-6).numbers):
        with pytest.raises(ConfigError) as err:
            numbers()
        assert str(err.value) == ("photon numbers need a thermal source: "
                                  "the stack has no absorbing layer")


def _cold_cavity_at_5um():
    """The cavity in equilibrium at 20 K, at x = 5 um: at 2 eV the
    occupancy, about e^-1160, is below the float range."""
    stack = LayerStack([dataclasses.replace(layer, temperature=20.0) if layer.lossy else layer
                        for layer in cavity_stack().layers])
    basis = solve_wave_basis(stack, omega_from_ev(np.array([1.0, 2.0])))
    return basis, TemperatureProfile.from_stack(stack)


def test_an_underflowed_photon_number_has_no_temperature():
    basis, profile = _cold_cavity_at_5um()
    numbers = photon_numbers(basis.at(5e-6), profile)
    assert numbers.total[0] > 0.0 and numbers.total[1] == 0.0
    for temps in effective_temperatures(numbers, basis.omega):
        assert abs(temps[0] - 20.0) < 1e-9 * 20.0
        assert np.isnan(temps[1])


def test_point_field_temperatures_are_the_effective_temperatures():
    basis, profile = _cold_cavity_at_5um()
    field = PointField(basis, profile, 5e-6)
    want = effective_temperatures(field.numbers, basis.omega)
    for got, expected in zip(field.temperatures, want):
        assert np.array_equal(got, expected, equal_nan=True)

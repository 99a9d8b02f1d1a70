"""Physical constants and unit conversions.

All internal computation is SI (meters, radians per second, kelvin).
User-facing interfaces speak photon energy in eV and position in um.
The quantization cross-section S is fixed to 1 m^2, so mode densities
carry units of 1/(m^3 (rad/s)); the conventional reporting unit for
them is 2/(pi c S).
"""

import numpy as np

__all__ = [
    "c",
    "epsilon_0",
    "hbar",
    "k_B",
    "EV",
    "MICRON",
    "CROSS_SECTION",
    "LDOS_UNIT",
    "omega_from_ev",
    "ev_from_omega",
]

# SI 2019 exact values, except epsilon_0 (CODATA 2022)
c = 299792458.0                        # speed of light, m/s
e = 1.602176634e-19                    # elementary charge, C
k_B = 1.380649e-23                     # Boltzmann constant, J/K
hbar = 6.62607015e-34 / (2 * np.pi)    # reduced Planck constant, J s
epsilon_0 = 8.8541878188e-12           # vacuum permittivity, F/m

EV = e            # J per electron volt
MICRON = 1e-6     # m per micrometer
CROSS_SECTION = 1.0          # quantization area S, m^2
LDOS_UNIT = 2.0 / (np.pi * c * CROSS_SECTION)   # mode-density reporting unit


def omega_from_ev(energy_ev):
    """Angular frequency in rad/s for a photon energy in eV."""
    return np.asarray(energy_ev, dtype=float) * (EV / hbar)


def ev_from_omega(omega):
    """Photon energy in eV for an angular frequency in rad/s."""
    return np.asarray(omega, dtype=float) * (hbar / EV)

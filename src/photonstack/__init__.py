"""Photon-number quantization of the thermal EM field in 1D layered media.

The package solves the scalar wave equation across a stack of homogeneous
layers, builds the outgoing Green's function, and derives from it local
densities of states, position-resolved mean photon numbers and effective
temperatures, self-consistent temperature profiles of passive layers, and
the spectral force densities acting on the structure.
"""

__version__ = "0.3.4"

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateBasisError,
    DivergentSourceError,
    InterfacePointError,
    MissingTemperatureError,
    PhotonStackError,
)
from .stack import (
    ConstantIndex,
    Layer,
    LayerSlices,
    LayerStack,
    TabulatedIndex,
    TemperatureProfile,
    build_stack,
    load_stack,
    serialize_stack,
)
from .greens import (
    FieldPoints,
    WaveBasis,
    region_integrals,
    solve_wave_basis,
)
from .spectral import (
    FieldTriplet,
    effective_temperatures,
    ldos,
    ldos_closure_residuals,
    ldos_gradient,
    occupation_sums,
    photon_numbers,
    source_occupation,
)
from .thermo import (
    BalanceResult,
    default_balance_grid,
    solve_self_consistent,
)
from .mechanics import (
    ForceDensitySample,
    energy_pressure,
    fd_residual,
    force_density,
    frequency_integrated_force,
    net_force,
)
from .scan import GridSpec, ScanResult, ScanSpec, run_scan

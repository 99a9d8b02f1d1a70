"""Reference routes the tests check the library against, each written
apart from the evaluation path it checks."""

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from photonstack.errors import ConfigError
from photonstack.spectral import (electric_density, ldos, photon_numbers,
                                  source_occupation)
from photonstack.stack import LayerSlices
from photonstack.units import hbar


class GreensSample(NamedTuple):
    """G and its field-point derivative at one (field, source) pair."""

    value: np.ndarray
    x_derivative: np.ndarray


def greens_sample(basis, x: float, source: float) -> GreensSample:
    """G(x, source) from psi_left at the lesser point and psi_right at the
    greater one, each read in its own layer's scaling."""
    lo, hi = basis.at(min(x, source)), basis.at(max(x, source))
    cross = np.exp(basis.scale_right[hi.layer] - basis.scale_right[lo.layer])
    value = -lo.phi_l * hi.phi_r * cross / lo.w
    if x < source:
        deriv = -lo.dphi_l * hi.phi_r * cross / lo.w
    else:
        # field point at or right of the source: differentiate psi_right
        deriv = -lo.phi_l * hi.dphi_r * cross / lo.w
    return GreensSample(value, deriv)


def true_wronskian(basis):
    """Physical Wronskian evaluated from the first layer's amplitudes."""
    return basis.wronskian_scaled[0] * np.exp(basis.scale_left[0] + basis.scale_right[0])


def net_force_occupation_route(basis, profile, x1: float, x2: float):
    """Equivalent force expression for probes with equal mode density
    (mirror-symmetric structures): hbar omega rho_tot (n1 - n2)."""
    om = basis.omega
    rho1 = ldos(basis.at(x1)).total
    n1 = photon_numbers(basis.at(x1), profile).total
    n2 = photon_numbers(basis.at(x2), profile).total
    return hbar * om * rho1 * (n1 - n2)


def temperature_at(profile, x: float) -> float | None:
    """The profile's temperature at x: its layer's fixed value, the slice
    holding x, or None for a layer that does not emit."""
    entry = profile.entries[profile.stack.layer_index(x)]
    if entry is None:
        return None
    if isinstance(entry, LayerSlices):
        i = bisect_right(entry.boundaries, float(x)) - 1
        return entry.temperatures[min(max(i, 0), len(entry.temperatures) - 1)]
    return float(entry)


def net_emission(basis, profile, x: float) -> np.ndarray:
    """Net spectral power density handed from matter to the field at x,
    q = hbar omega^2 Im[n^2] rho_e (eta(T) - n_e); positive while the
    material runs hotter than the field it sits in. Lossless material
    exchanges nothing."""
    om = basis.omega
    stack = basis.stack
    nn = stack.layers[stack.layer_index(x)].n_at(om)
    im_n2 = (nn * nn).imag
    if not np.any(im_n2 != 0.0):
        return np.zeros(om.shape)
    temperature = temperature_at(profile, x)
    if temperature is None:
        raise ConfigError(f"no temperature assigned at x = {x!r}")
    n_e = photon_numbers(basis.at(x), profile).electric
    eta = source_occupation(om, temperature)
    return hbar * om**2 * im_n2 * electric_density(basis.at(x)) * (eta - n_e)


def savetxt_csv(path, meta, axis_name, axis_values, energies_ev, quantities, data):
    """The scan CSV as np.savetxt wrote it: the metadata lines, the header,
    then each axis value's rows as one float64 block with -0.0 turned
    into 0.0 by adding 0.0."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in meta:
            f.write(f"# {line}\n")
        f.write(",".join([axis_name, "E_eV", *quantities]) + "\n")
        block = np.empty((len(energies_ev), 2 + len(quantities)))
        block[:, 1] = energies_ev
        for a, values in zip(axis_values, data):
            block[:, 0] = a
            block[:, 2:] = values
            block += 0.0
            np.savetxt(f, block, fmt="%.9g", delimiter=",")

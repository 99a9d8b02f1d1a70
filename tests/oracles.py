"""Reference routes the tests check the library against, each written
apart from the evaluation path it checks."""

from typing import NamedTuple

import numpy as np

from photonstack.errors import ConfigError
from photonstack.spectral import (electric_density, ldos, photon_numbers,
                                  source_occupation)
from photonstack.units import hbar


class GreensSample(NamedTuple):
    """G and its field-point derivative at one (field, source) pair."""

    value: np.ndarray
    x_derivative: np.ndarray


def greens_sample(basis, x: float, source: float) -> GreensSample:
    xlo, xhi = (x, source) if x <= source else (source, x)
    ja = basis.stack.layer_index(xlo)
    jb = basis.stack.layer_index(xhi)
    phi_l, dphi_l = basis._left(ja, basis._waves(ja, xlo))
    phi_r, dphi_r = basis._right(jb, basis._waves(jb, xhi))
    cross = np.exp(basis.scale_right[jb] - basis.scale_right[ja])
    w = basis.wronskian_scaled[ja]
    value = -phi_l * phi_r * cross / w
    if x < source:
        deriv = -dphi_l * phi_r * cross / w
    else:
        # field point at or right of the source: differentiate psi_right
        deriv = -phi_l * dphi_r * cross / w
    return GreensSample(value, deriv)


def true_wronskian(basis):
    """Physical Wronskian evaluated from the first layer's amplitudes."""
    return basis.wronskian_scaled[0] * np.exp(basis.scale_left[0] + basis.scale_right[0])


def net_force_occupation_route(stack, basis, profile, x1: float, x2: float):
    """Equivalent force expression for probes with equal mode density
    (mirror-symmetric structures): hbar omega rho_tot (n1 - n2)."""
    om = basis.omega
    rho1 = ldos(stack, basis, x1).total
    n1 = photon_numbers(stack, basis, profile, x1).total
    n2 = photon_numbers(stack, basis, profile, x2).total
    return hbar * om * rho1 * (n1 - n2)


def net_emission(stack, basis, profile, x: float) -> np.ndarray:
    """Net spectral power density handed from matter to the field at x,
    q = hbar omega^2 Im[n^2] rho_e (eta(T) - n_e); positive while the
    material runs hotter than the field it sits in. Lossless material
    exchanges nothing."""
    om = basis.omega
    nn = stack.layers[stack.layer_index(x)].n_at(om)
    im_n2 = (nn * nn).imag
    if not np.any(im_n2 != 0.0):
        return np.zeros(om.shape)
    temperature = profile.temperature_at(stack, x)
    if temperature is None:
        raise ConfigError(f"no temperature assigned at x = {x!r}")
    n_e = photon_numbers(stack, basis, profile, x).electric
    eta = source_occupation(om, temperature)
    return hbar * om**2 * im_n2 * electric_density(basis, x) * (eta - n_e)

"""SI <-> natural-unit conversions for the field-decoherence estimates.

Natural units: hbar = c = 1, energies in MeV, lengths and times in 1/MeV,
electric fields in MeV^2 (Heaviside-Lorentz, e^2 = 4 pi alpha).  SI base
units per dimension: cm, s, cm^3, J, V/m.

The V/m -> MeV^2 factor is derived along two independent routes (the eV
definition chain and the Schwinger critical field); they agree to 3.4e-9, the
precision of the nine-digit critical field, and the first is frozen into
:data:`CONSTANTS`.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "LENGTH",
    "TIME",
    "VOLUME",
    "ENERGY",
    "ELECTRIC_FIELD",
    "DIMENSIONLESS",
    "SI",
    "NATURAL",
    "PhysicalQuantity",
    "CONSTANTS",
    "convert",
    "to_natural",
    "to_si",
    "si_length_cm",
    "si_time_s",
    "si_volume_cm3",
    "si_efield_v_per_cm",
    "efield_factor_via_ev_chain",
    "efield_factor_via_schwinger",
]

LENGTH = "length"
TIME = "time"
VOLUME = "volume"
ENERGY = "energy"
ELECTRIC_FIELD = "electric_field"
DIMENSIONLESS = "dimensionless"
_DIMENSIONS = {LENGTH, TIME, VOLUME, ENERGY, ELECTRIC_FIELD, DIMENSIONLESS}

SI = "si"
NATURAL = "natural"
_SYSTEMS = {SI, NATURAL}

# Reference constants, MeV-based, from CODATA 2018: E. Tiesinga et al., "CODATA
# recommended values of the fundamental physical constants: 2018", Rev. Mod.
# Phys. 93, 025010 (2021).  Reports print 12 significant digits, so a constant
# cut to fewer digits shows in every field report.
_HBARC_MEV_FM = 197.3269804        # hbar c
_HBAR_MEV_S = 6.582119569e-22      # hbar
_ALPHA = 1.0 / 137.035999084       # fine-structure constant
_M_ELECTRON_MEV = 0.51099895000    # electron mass energy
_SCHWINGER_FIELD_V_PER_M = 1.32328547e18  # m^2 c^3 / (e hbar)

_CM_IN_INV_MEV = 1e13 / _HBARC_MEV_FM   # 1 cm in MeV^-1
_M_IN_INV_MEV = 1e15 / _HBARC_MEV_FM    # 1 m in MeV^-1
_S_IN_INV_MEV = 1.0 / _HBAR_MEV_S       # 1 s in MeV^-1
_MEV_PER_JOULE = 1.0 / 1.602176634e-13


def efield_factor_via_ev_chain() -> float:
    """MeV^2 per (V/m), from the electron-volt definition.

    A unit charge crossing one metre in a 1 V/m field gains exactly 1 eV,
    i.e. e*E = 1e-6 MeV/m; dividing the metre through hbar*c and stripping
    the Heaviside-Lorentz charge sqrt(4 pi alpha) leaves the field itself.
    """
    e_hl = math.sqrt(4.0 * math.pi * _ALPHA)
    return 1e-6 / _M_IN_INV_MEV / e_hl


def efield_factor_via_schwinger() -> float:
    """MeV^2 per (V/m), anchored to the Schwinger critical field.

    The pair-creation field m^2/e (natural units) is the CODATA 2018 value
    1.32328547e18 V/m, which fixes the scale independently of the eV chain.
    """
    e_hl = math.sqrt(4.0 * math.pi * _ALPHA)
    return (_M_ELECTRON_MEV**2 / e_hl) / _SCHWINGER_FIELD_V_PER_M


# m_electron in MeV; e is the Heaviside-Lorentz charge sqrt(4 pi alpha); the field
# factor is frozen from efield_factor_via_ev_chain(), which the Schwinger route
# matches to 3.4e-9.
CONSTANTS = namedtuple("ConstantsTable", "m_electron fine_structure e efield_mev2_per_v_per_m")(
    _M_ELECTRON_MEV, _ALPHA, math.sqrt(4.0 * math.pi * _ALPHA), efield_factor_via_ev_chain()
)

# magnitude_natural = magnitude_si * factor
_SI_TO_NATURAL = {
    LENGTH: _CM_IN_INV_MEV,                       # cm -> MeV^-1
    TIME: _S_IN_INV_MEV,                          # s -> MeV^-1
    VOLUME: _CM_IN_INV_MEV**3,                    # cm^3 -> MeV^-3
    ENERGY: _MEV_PER_JOULE,                       # J -> MeV
    ELECTRIC_FIELD: CONSTANTS.efield_mev2_per_v_per_m,  # V/m -> MeV^2
    DIMENSIONLESS: 1.0,
}


class PhysicalQuantity(namedtuple("PhysicalQuantity", "magnitude dimension unit_system")):
    """A magnitude with a dimension tag and a unit system."""

    __slots__ = ()

    def __new__(cls, magnitude, dimension, unit_system):
        if dimension not in _DIMENSIONS:
            raise ValueError(f"unsupported dimension {dimension!r}")
        if unit_system not in _SYSTEMS:
            raise ValueError(f"unknown unit system {unit_system!r}")
        return super().__new__(cls, float(magnitude), dimension, unit_system)


def convert(q: PhysicalQuantity, target: str) -> PhysicalQuantity:
    """Convert between the SI and natural systems; round-trips are exact to 1e-12."""
    if target not in _SYSTEMS:
        raise ValueError(f"unknown unit system {target!r}")
    if q.unit_system == target:
        return q
    factor = _SI_TO_NATURAL[q.dimension]
    if target == NATURAL:
        return PhysicalQuantity(q.magnitude * factor, q.dimension, NATURAL)
    return PhysicalQuantity(q.magnitude / factor, q.dimension, SI)


def _magnitude(value, dimension: str, target: str) -> float:
    """Magnitude of a quantity of ``dimension`` in ``target``; bare floats pass through."""
    if isinstance(value, PhysicalQuantity):
        if value.dimension != dimension:
            raise ValueError(f"expected a {dimension}, got a {value.dimension}")
        return convert(value, target).magnitude
    return float(value)


def to_natural(value, dimension: str) -> float:
    """Natural-unit magnitude of a quantity; bare floats pass through unchanged."""
    return _magnitude(value, dimension, NATURAL)


def to_si(value, dimension: str) -> float:
    """SI magnitude of a quantity; bare floats are taken as already SI."""
    return _magnitude(value, dimension, SI)


def si_length_cm(value: float) -> PhysicalQuantity:
    return PhysicalQuantity(value, LENGTH, SI)


def si_time_s(value: float) -> PhysicalQuantity:
    return PhysicalQuantity(value, TIME, SI)


def si_volume_cm3(value: float) -> PhysicalQuantity:
    return PhysicalQuantity(value, VOLUME, SI)


def si_efield_v_per_cm(value: float) -> PhysicalQuantity:
    # SI base unit for fields is V/m; the V/cm constructor only retags.
    return PhysicalQuantity(value * 100.0, ELECTRIC_FIELD, SI)

"""Closed-form decoherence of macroscopic electric-field superpositions.

A superposition of two opposite field configurations, monitored by charged
matter over a volume V, keeps only an exponentially small interference term:
the off-diagonal element carries the factor exp(-V e^2 E^2 / (512 pi m)).
Inverting that factor at a fixed suppression threshold gives the coherence
length; the companion thermal model reproduces the photon-scattering
localization of free electrons (0.1 cm after one second, falling as
1/sqrt(t)).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .units import (
    CONSTANTS,
    ELECTRIC_FIELD,
    LENGTH,
    NATURAL,
    TIME,
    VOLUME,
    PhysicalQuantity,
    si_length_cm,
    to_natural,
    to_si,
)

__all__ = [
    "ThermalModel",
    "decoherence_exponent",
    "decoherence_factor",
    "coherence_length",
    "validity_time",
    "thermal_coherence_length",
]

_SUPPRESSION_DENOMINATOR = 512.0 * math.pi  # fixed by the underlying trace


class ThermalModel(namedtuple("ThermalModel", "localization_rate")):
    """Localization rate for free electrons in thermal radiation.

    ``localization_rate`` is Lambda in cm^-2 s^-1; the default is calibrated
    so the coherence length after one second is exactly 0.1 cm at the 300 K
    reference point.
    """

    __slots__ = ()

    def __new__(cls, localization_rate=100.0):
        if localization_rate <= 0:
            raise ValueError("localization rate must be positive")
        return super().__new__(cls, localization_rate)


def _square(x: float) -> float:
    """x**2, or inf where it overflows (a float power raises instead)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _ratio(quantity: str, numerator: float, denominator: float) -> float:
    """numerator / denominator; a ValueError naming ``quantity`` unless it is finite."""
    if denominator == 0 or not math.isfinite(value := numerator / denominator):
        raise ValueError(f"{quantity} overflows double precision")
    return value


def _field_magnitude(efield, quantity: str) -> float:
    """|E| in natural units; a nonzero field lost in the conversion is not a zero field.

    A subnormal |E| (below about 3.4e-292 V/cm) is refused as an underflow too:
    it keeps fewer significant digits than the twelve a report prints.
    """
    e_field = abs(to_natural(efield, ELECTRIC_FIELD))
    if not math.isfinite(e_field):
        raise ValueError("electric field overflows double precision")
    if e_field < sys.float_info.min:
        if e_field != 0 or to_si(efield, ELECTRIC_FIELD) != 0:
            raise ValueError("electric field underflows double precision")
        raise ValueError(f"{quantity} diverges for zero field")
    return e_field


def decoherence_exponent(volume, efield) -> float:
    """Positive exponent V e^2 E^2 / (512 pi m) in natural units."""
    v = to_natural(volume, VOLUME)
    e_field = to_natural(efield, ELECTRIC_FIELD)
    if v < 0:
        raise ValueError("volume must be nonnegative")
    c = CONSTANTS
    numerator = v * c.e**2 * _square(e_field)
    return _ratio("decoherence exponent", numerator, _SUPPRESSION_DENOMINATOR * c.m_electron)


def decoherence_factor(volume, efield) -> float:
    """Suppression of the field interference term, in (0, 1].

    Monotone nonincreasing in the volume and in the squared field; underflows
    to 0.0 for macroscopic arguments.
    """
    return math.exp(-decoherence_exponent(volume, efield))


def coherence_length(efield, threshold_exponent: float = 1.0) -> PhysicalQuantity:
    """Edge length of the cube over which the suppression reaches the threshold.

    Solves V e^2 E^2 / (512 pi m) = threshold for V = L^3; the cube root makes
    the answer insensitive to the exact threshold choice.  The roots come first,
    L = (512 pi m / e^2)^(1/3) threshold^(1/3) / |E|^(2/3), so a length whose
    cube, or whose product with the threshold, is not a double is still found.
    Returned in natural units; convert to cm on request.
    """
    e_field = _field_magnitude(efield, "coherence length")
    if threshold_exponent <= 0:
        raise ValueError("threshold exponent must be positive")
    c = CONSTANTS
    volume_field = _SUPPRESSION_DENOMINATOR * c.m_electron / c.e**2  # L^3 E^2 at threshold 1
    root = volume_field ** (1.0 / 3.0) * threshold_exponent ** (1.0 / 3.0)
    length = _ratio("coherence length", root, e_field ** (2.0 / 3.0))
    return PhysicalQuantity(length, LENGTH, NATURAL)


def validity_time(efield) -> PhysicalQuantity:
    """Time m/(eE) beyond which the closed-form suppression applies."""
    e_field = _field_magnitude(efield, "validity time")
    c = CONSTANTS
    t_min = _ratio("validity time", c.m_electron, c.e * e_field)
    return PhysicalQuantity(t_min, TIME, NATURAL)


def thermal_coherence_length(
    t, model: ThermalModel = ThermalModel()
) -> PhysicalQuantity:
    """Electron coherence length 1/(sqrt(Lambda) sqrt(t)) in thermal radiation.

    Bare floats are taken as seconds; the result is an SI length in cm.
    """
    t_s = to_si(t, TIME)
    if t_s <= 0:
        raise ValueError("time must be positive")
    root = math.sqrt(model.localization_rate) * math.sqrt(t_s)
    return si_length_cm(_ratio("thermal coherence length", 1.0, root))

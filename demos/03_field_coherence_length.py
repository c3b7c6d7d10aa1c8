#!/usr/bin/env python3
"""Putting numbers on macroscopic field decoherence.

A superposition of two opposite macroscopic electric fields is monitored by
the charged vacuum: the interference term over a volume V carries the factor
exp(-V e^2 E^2 / (512 pi m)).  This script evaluates that factor, inverts it
into a coherence length, checks how fast the closed form becomes valid, and
compares with the thermal-photon localization of free electrons.
"""

import math

import numpy as np

from qdeco.field_decoherence import (
    ThermalModel,
    coherence_length,
    decoherence_exponent,
    decoherence_factor,
    thermal_coherence_length,
    validity_time,
)
from qdeco.units import convert, si_efield_v_per_cm, si_time_s, si_volume_cm3

print("=" * 72)
print("1. The suppression factor at laboratory scales")
print("=" * 72)
print()
field = si_efield_v_per_cm(1.0e7)
print("Field strength 1e7 V/cm, varying the monitored volume:")
print()
print(f"{'volume':>14} {'exponent':>14} {'factor':>12}")
for v_cm3 in (1e-16, 1e-14, 1e-12, 1e-10):
    vol = si_volume_cm3(v_cm3)
    expo = decoherence_exponent(vol, field)
    print(f"{v_cm3:14.1e} {expo:14.4e} {decoherence_factor(vol, field):12.4e}")
print()
print("A cubic micron (1e-12 cm^3) already suppresses interference by many")
print("orders of magnitude: macroscopic field superpositions are unobservable.")

print()
print("=" * 72)
print("2. Coherence length: where interference becomes visible again")
print("=" * 72)
print()
print("Solving exponent(L^3, E) = 1 for L:")
print()
print(f"{'E (V/cm)':>12} {'L (cm)':>14}")
for e_v_per_cm in (1e5, 1e6, 1e7, 1e8):
    length = coherence_length(si_efield_v_per_cm(e_v_per_cm))
    print(f"{e_v_per_cm:12.0e} {convert(length, 'si').magnitude:14.4e}")
print()
length_ref = convert(coherence_length(field), "si").magnitude
print(f"At 1e7 V/cm interference survives only below L ~ {length_ref:.2e} cm,")
print("a few microns: the 1e-4 cm scale quoted for this field is reproduced")
print("at its order of magnitude.  The cube root makes the answer insensitive")
print("to the exact suppression threshold:")
for thr in (0.5, 1.0, 8.0):
    l_thr = convert(coherence_length(field, threshold_exponent=thr), "si").magnitude
    print(f"  threshold {thr:4.1f}  ->  L = {l_thr:.3e} cm")

print()
print("=" * 72)
print("3. How fast the closed form applies")
print("=" * 72)
print()
t_min = validity_time(field)
print(f"validity time m/(eE) at 1e7 V/cm: {convert(t_min, 'si').magnitude:.3e} s")
print("i.e. picoseconds: for any realistic observation the limit is reached.")

print()
print("=" * 72)
print("4. Thermal-photon localization of free electrons")
print("=" * 72)
print()
model = ThermalModel()
print(f"Calibrated rate {model.localization_rate:.0f} cm^-2 s^-1 at 300 K:")
print()
print(f"{'t (s)':>10} {'coherence length (cm)':>22}")
for t in (0.01, 0.1, 1.0, 10.0, 100.0):
    ell = thermal_coherence_length(si_time_s(t), model)
    print(f"{t:10.2f} {ell.magnitude:22.4f}")
print()
times = np.logspace(-2, 2, 9)
products = [thermal_coherence_length(float(t), model).magnitude * math.sqrt(t) for t in times]
print(f"l(t) * sqrt(t) is constant ({min(products):.12f} .. {max(products):.12f}):")
print("the localization follows the 1/sqrt(t) law, with 0.1 cm after 1 s.")

import math
import sys

import numpy as np
import pytest

from qdeco.field_decoherence import (
    ThermalModel,
    coherence_length,
    decoherence_exponent,
    decoherence_factor,
    thermal_coherence_length,
    validity_time,
)
from qdeco.units import (
    CONSTANTS,
    ELECTRIC_FIELD,
    NATURAL,
    PhysicalQuantity,
    convert,
    si_efield_v_per_cm,
    si_time_s,
    si_volume_cm3,
)

# Frozen from the independent conversion chain (hbar*c, eV definition, alpha):
# E = 1e7 V/cm corresponds to 6.5163e-10 MeV^2, giving these reference outputs.
LENGTH_AT_1E7_CM = 5.4535013e-4
TMIN_AT_1E7_S = 1.7045089e-12
HBAR_MEV_S = 6.582119569e-22  # CODATA hbar

FIELD_1E7 = si_efield_v_per_cm(1.0e7)


def threshold_volume(e_field_natural: float) -> float:
    """Volume whose suppression exponent is exactly one."""
    return 512.0 * math.pi * CONSTANTS.m_electron / (
        CONSTANTS.e**2 * e_field_natural**2
    )


class TestDecoherenceFactor:
    def test_zero_volume(self):
        assert decoherence_factor(0.0, 1.0) == 1.0

    def test_zero_field(self):
        assert decoherence_factor(si_volume_cm3(1.0), 0.0) == 1.0

    def test_threshold_volume_gives_inverse_e(self):
        e_nat = 1e-9
        v = threshold_volume(e_nat)
        assert decoherence_factor(v, e_nat) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            decoherence_factor(-1.0, 1.0)

    def test_monotone_in_volume_and_field(self):
        v = threshold_volume(1e-9)
        assert decoherence_factor(2 * v, 1e-9) < decoherence_factor(v, 1e-9)
        assert decoherence_factor(v, 2e-9) < decoherence_factor(v, 1e-9)

    def test_exponent_additivity(self):
        e_nat = 3e-10
        v1, v2 = 1.3e20, 4.2e20
        lhs = decoherence_factor(v1 + v2, e_nat)
        rhs = decoherence_factor(v1, e_nat) * decoherence_factor(v2, e_nat)
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)

    def test_log_linear_in_volume(self):
        e_nat = 2e-10
        volumes = np.linspace(1e19, 9e19, 9)
        exponents = np.array([decoherence_exponent(v, e_nat) for v in volumes])
        slope = np.polyfit(volumes, exponents, 1)[0]
        expected = CONSTANTS.e**2 * e_nat**2 / (512.0 * math.pi * CONSTANTS.m_electron)
        assert abs(slope - expected) / expected <= 1e-10

    def test_log_linear_in_field_squared(self):
        v = 5e19
        fields_sq = np.linspace(1e-20, 9e-20, 9)
        exponents = np.array(
            [decoherence_exponent(v, math.sqrt(f2)) for f2 in fields_sq]
        )
        slope = np.polyfit(fields_sq, exponents, 1)[0]
        expected = v * CONSTANTS.e**2 / (512.0 * math.pi * CONSTANTS.m_electron)
        assert abs(slope - expected) / expected <= 1e-10

    def test_si_and_natural_inputs_agree(self):
        v_si = si_volume_cm3(1e-12)
        e_si = si_efield_v_per_cm(1e6)
        v_nat = convert(v_si, NATURAL).magnitude
        e_nat = convert(e_si, NATURAL).magnitude
        a = decoherence_factor(v_si, e_si)
        b = decoherence_factor(v_nat, e_nat)
        assert abs(a - b) <= 1e-9 * max(a, b)


class TestCoherenceLength:
    def test_reference_field_value(self):
        length = coherence_length(FIELD_1E7)
        length_cm = convert(length, "si").magnitude
        assert length_cm == pytest.approx(LENGTH_AT_1E7_CM, rel=1e-3)
        # order of magnitude of the quoted bound
        assert 1e-5 <= length_cm <= 1e-3

    def test_power_law_in_field(self):
        l1 = coherence_length(FIELD_1E7).magnitude
        l2 = coherence_length(si_efield_v_per_cm(1.0e8)).magnitude
        assert l1 / l2 == pytest.approx(10.0 ** (2.0 / 3.0), rel=1e-12)

    def test_threshold_cube_root(self):
        l1 = coherence_length(FIELD_1E7, threshold_exponent=1.0).magnitude
        l8 = coherence_length(FIELD_1E7, threshold_exponent=8.0).magnitude
        assert l8 == pytest.approx(2.0 * l1, rel=1e-12)

    def test_solver_consistent_with_evaluator(self):
        for threshold in (0.5, 1.0, 3.0):
            length = coherence_length(FIELD_1E7, threshold_exponent=threshold)
            # a bare float volume is taken in natural units, like the length
            factor = decoherence_factor(length.magnitude**3, FIELD_1E7)
            assert abs(factor - math.exp(-threshold)) <= 1e-10

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            coherence_length(si_efield_v_per_cm(0.0))
        with pytest.raises(ValueError):
            coherence_length(FIELD_1E7, threshold_exponent=0.0)


class TestValidityTime:
    def test_reference_field_value(self):
        t = validity_time(FIELD_1E7)
        t_s = convert(t, "si").magnitude
        assert t_s == pytest.approx(TMIN_AT_1E7_S, rel=1e-3)
        assert t_s < 1e-10

    def test_inverse_in_field(self):
        t1 = validity_time(FIELD_1E7).magnitude
        t2 = validity_time(si_efield_v_per_cm(2.0e7)).magnitude
        assert t1 == pytest.approx(2.0 * t2, rel=1e-12)

    def test_natural_times_hbar_is_seconds(self):
        t = validity_time(FIELD_1E7)
        assert t.magnitude * HBAR_MEV_S == pytest.approx(
            convert(t, "si").magnitude, rel=1e-12
        )

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            validity_time(0.0)


class TestThermalCoherenceLength:
    def test_one_second_datum(self):
        assert thermal_coherence_length(si_time_s(1.0)).magnitude == 0.1

    def test_hundred_seconds(self):
        assert thermal_coherence_length(100.0).magnitude == pytest.approx(0.01, rel=1e-12)

    def test_four_seconds(self):
        assert thermal_coherence_length(4.0).magnitude == pytest.approx(0.05, rel=1e-12)

    def test_inverse_sqrt_law(self):
        times = np.logspace(-3, 3, 25)
        values = np.array(
            [thermal_coherence_length(float(t)).magnitude * math.sqrt(t) for t in times]
        )
        assert np.max(np.abs(values - values[0])) / values[0] <= 1e-12

    def test_custom_rate(self):
        model = ThermalModel(localization_rate=400.0)
        assert thermal_coherence_length(1.0, model).magnitude == pytest.approx(0.05)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            thermal_coherence_length(0.0)
        with pytest.raises(ValueError):
            thermal_coherence_length(-1.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            ThermalModel(localization_rate=0.0)


class TestOutOfRange:
    """Results beyond double precision are refused with the quantity's name."""

    @pytest.mark.parametrize(
        "quantity,compute",
        [
            ("decoherence exponent",
             lambda: decoherence_exponent(si_volume_cm3(1e300), si_efield_v_per_cm(1e300))),
            ("decoherence exponent",
             lambda: decoherence_exponent(si_volume_cm3(0.0), si_efield_v_per_cm(1e300))),
            ("coherence length",
             lambda: coherence_length(si_efield_v_per_cm(1e-291), threshold_exponent=1e308)),
            ("coherence length",
             lambda: coherence_length(si_efield_v_per_cm(3.5e-292), threshold_exponent=1e308)),
            ("thermal coherence length",
             lambda: thermal_coherence_length(si_time_s(1e-310), ThermalModel(1e-310))),
        ],
    )
    def test_refused(self, quantity, compute):
        with pytest.raises(ValueError) as exc:
            compute()
        assert str(exc.value) == f"{quantity} overflows double precision"

    @pytest.mark.parametrize("e_v_per_cm,rel", [(1e300, 1e-12), (1e-291, 1e-11)])
    def test_coherence_length_where_its_cube_is_not_a_double(self, e_v_per_cm, rel):
        # 1e-291 V/cm is about 6.5e-308 MeV^2, in the lowest decade of normal doubles
        law = LENGTH_AT_1E7_CM * (1e7 / e_v_per_cm) ** (2.0 / 3.0)
        length = coherence_length(si_efield_v_per_cm(e_v_per_cm))
        assert convert(length, "si").magnitude == pytest.approx(law, rel=1e-3, abs=0)
        ratio = length.magnitude / coherence_length(FIELD_1E7).magnitude
        assert ratio == pytest.approx((1e7 / e_v_per_cm) ** (2.0 / 3.0), rel=rel, abs=0)

    def test_coherence_length_where_threshold_times_constant_is_not_a_double(self):
        # 512 pi m threshold / e^2 overflows at threshold 1e305; L is about 2.5e98 cm
        length = coherence_length(FIELD_1E7, threshold_exponent=1e305)
        root = 1e305 ** (1.0 / 3.0)
        assert convert(length, "si").magnitude == pytest.approx(LENGTH_AT_1E7_CM * root, rel=1e-3)
        ratio = length.magnitude / coherence_length(FIELD_1E7).magnitude
        assert ratio == pytest.approx(root, rel=1e-12, abs=0)

    @pytest.mark.parametrize("value,expected", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_thermal_length_where_lambda_t_is_not_a_double(self, value, expected):
        length = thermal_coherence_length(si_time_s(value), ThermalModel(value))
        assert length.magnitude == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("compute", [coherence_length, validity_time])
    def test_field_lost_in_conversion_is_not_a_zero_field(self, compute):
        with pytest.raises(ValueError, match="^electric field underflows double precision$"):
            compute(si_efield_v_per_cm(1e-320))
        with pytest.raises(ValueError, match="^electric field overflows double precision$"):
            compute(si_efield_v_per_cm(1e307))
        with pytest.raises(ValueError, match="diverges for zero field$"):
            compute(si_efield_v_per_cm(0.0))

    @pytest.mark.parametrize("compute", [coherence_length, validity_time])
    def test_subnormal_field_is_refused(self, compute):
        # a subnormal number of MeV^2 keeps fewer digits than a report prints
        smallest = PhysicalQuantity(sys.float_info.min, ELECTRIC_FIELD, NATURAL)
        assert math.isfinite(compute(smallest).magnitude)
        below = PhysicalQuantity(math.nextafter(sys.float_info.min, 0.0), ELECTRIC_FIELD, NATURAL)
        for efield in (below, si_efield_v_per_cm(1e-300), si_efield_v_per_cm(-1e-300)):
            with pytest.raises(ValueError, match="^electric field underflows double precision$"):
                compute(efield)

    def test_large_finite_exponent_still_underflows_the_factor(self):
        volume, field = si_volume_cm3(1e100), si_efield_v_per_cm(1e100)
        assert math.isfinite(decoherence_exponent(volume, field))
        assert decoherence_factor(volume, field) == 0.0

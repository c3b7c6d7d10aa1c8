import math

import pytest

from qdeco.units import (
    CONSTANTS,
    DIMENSIONLESS,
    ELECTRIC_FIELD,
    ENERGY,
    LENGTH,
    NATURAL,
    SI,
    TIME,
    VOLUME,
    PhysicalQuantity,
    convert,
    efield_factor_via_ev_chain,
    efield_factor_via_schwinger,
    si_efield_v_per_cm,
    si_length_cm,
    si_time_s,
    si_volume_cm3,
    to_natural,
    to_si,
)

ALL_DIMENSIONS = [LENGTH, TIME, VOLUME, ENERGY, ELECTRIC_FIELD, DIMENSIONLESS]


class TestConstants:
    def test_charge_squared_is_4_pi_alpha(self):
        assert abs(CONSTANTS.e**2 - 4.0 * math.pi * CONSTANTS.fine_structure) <= 1e-12

    def test_electron_mass(self):
        assert CONSTANTS.m_electron == pytest.approx(0.5109989)


class TestFieldConversionRoutes:
    def test_routes_agree_to_one_permille(self):
        a = efield_factor_via_ev_chain()
        b = efield_factor_via_schwinger()
        assert abs(a - b) / a <= 1e-3

    def test_frozen_constant_matches_ev_chain(self):
        assert CONSTANTS.efield_mev2_per_v_per_m == pytest.approx(
            efield_factor_via_ev_chain(), rel=1e-12
        )

    def test_order_of_magnitude(self):
        # 1 V/m is a tiny field on the MeV^2 scale
        assert 1e-19 < CONSTANTS.efield_mev2_per_v_per_m < 1e-18


class TestConvert:
    def test_length_example(self):
        q = convert(si_length_cm(1.0), NATURAL)
        assert q.magnitude == pytest.approx(5.0677e10, rel=1e-3)

    def test_time_example(self):
        q = convert(si_time_s(1.0), NATURAL)
        assert q.magnitude == pytest.approx(1.5193e21, rel=1e-3)

    def test_volume_is_length_cubed(self):
        length_factor = convert(si_length_cm(1.0), NATURAL).magnitude
        volume_factor = convert(si_volume_cm3(1.0), NATURAL).magnitude
        assert volume_factor == pytest.approx(length_factor**3, rel=1e-12)

    @pytest.mark.parametrize("dimension", ALL_DIMENSIONS)
    def test_round_trip(self, dimension):
        q = PhysicalQuantity(3.7, dimension, SI)
        back = convert(convert(q, NATURAL), SI)
        assert abs(back.magnitude - q.magnitude) / q.magnitude <= 1e-12
        q2 = PhysicalQuantity(0.42, dimension, NATURAL)
        back2 = convert(convert(q2, SI), NATURAL)
        assert abs(back2.magnitude - q2.magnitude) / q2.magnitude <= 1e-12

    def test_convert_to_same_system_is_identity(self):
        q = si_time_s(2.0)
        assert convert(q, SI) is q

    def test_v_per_cm_is_hundred_v_per_m(self):
        assert si_efield_v_per_cm(1.0) == PhysicalQuantity(100.0, ELECTRIC_FIELD, SI)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            convert(si_time_s(1.0), "imperial")

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            PhysicalQuantity(1.0, "charge", SI)


class TestHelpers:
    def test_to_natural_passes_floats_through(self):
        assert to_natural(2.5, VOLUME) == 2.5

    def test_to_natural_converts_quantities(self):
        q = si_length_cm(2.0)
        assert to_natural(q, LENGTH) == pytest.approx(2.0 * 5.0677307e10, rel=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            to_natural(si_length_cm(1.0), TIME)
        with pytest.raises(ValueError):
            to_si(PhysicalQuantity(1.0, ENERGY, NATURAL), LENGTH)

    def test_to_si_floats_are_si(self):
        assert to_si(4.0, TIME) == 4.0

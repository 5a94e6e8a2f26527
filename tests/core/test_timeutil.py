"""Unit tests for time arithmetic and linear time maps."""

from fractions import Fraction

import pytest

from repro.core.timeutil import (
    LinearTimeMap,
    align_down,
    align_up,
    hz_from_period,
    is_aligned,
    lcm,
    lcm_all,
    period_from_hz,
)
from repro.errors import StreamDefinitionError


class TestPeriodConversion:
    def test_500hz_has_period_2(self):
        assert period_from_hz(500) == 2

    def test_125hz_has_period_8(self):
        assert period_from_hz(125) == 8

    def test_1000hz_has_period_1(self):
        assert period_from_hz(1000) == 1

    def test_62_5hz_has_period_16(self):
        assert period_from_hz(62.5) == 16

    def test_non_integer_period_rejected(self):
        with pytest.raises(StreamDefinitionError):
            period_from_hz(333)

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(StreamDefinitionError):
            period_from_hz(0)

    def test_round_trip(self):
        assert hz_from_period(period_from_hz(250)) == pytest.approx(250)

    def test_hz_from_invalid_period(self):
        with pytest.raises(StreamDefinitionError):
            hz_from_period(0)


class TestLcm:
    def test_basic(self):
        assert lcm(2, 5) == 10

    def test_identical(self):
        assert lcm(8, 8) == 8

    def test_multiple(self):
        assert lcm(2, 8) == 8

    def test_lcm_all(self):
        assert lcm_all([2, 5, 8]) == 40

    def test_lcm_all_empty_is_one(self):
        assert lcm_all([]) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            lcm(0, 3)


class TestGridAlignment:
    def test_align_down(self):
        assert align_down(17, 5) == 15

    def test_align_down_with_offset(self):
        assert align_down(17, 5, offset=2) == 17

    def test_align_down_exact(self):
        assert align_down(15, 5) == 15

    def test_align_up(self):
        assert align_up(17, 5) == 20

    def test_align_up_exact(self):
        assert align_up(20, 5) == 20

    def test_align_negative(self):
        assert align_down(-3, 5) == -5
        assert align_up(-3, 5) == 0

    def test_is_aligned(self):
        assert is_aligned(10, 5)
        assert not is_aligned(11, 5)
        assert is_aligned(12, 5, offset=2)

    def test_align_rejects_bad_step(self):
        with pytest.raises(ValueError):
            align_down(10, 0)


class TestLinearTimeMap:
    def test_identity(self):
        assert LinearTimeMap.identity() == LinearTimeMap(Fraction(1), Fraction(0))

    def test_shift(self):
        assert LinearTimeMap.shifted(100) == LinearTimeMap(Fraction(1), Fraction(100))

    def test_scale(self):
        assert LinearTimeMap.scaled(1, 4).scale == Fraction(1, 4)

    def test_invert_shift(self):
        assert LinearTimeMap.shifted(100).invert() == LinearTimeMap.shifted(-100)

    def test_invert_scale(self):
        assert LinearTimeMap.scaled(3).invert() == LinearTimeMap.scaled(1, 3)

    def test_compose(self):
        shift = LinearTimeMap.shifted(10)
        scale = LinearTimeMap.scaled(2)
        composed = scale.compose(shift)  # scale after shift: (t + 10) * 2
        assert composed == LinearTimeMap(Fraction(2), Fraction(20))

    def test_compose_then_invert_round_trips(self):
        composed = LinearTimeMap.scaled(2).compose(LinearTimeMap.shifted(7))
        assert composed.invert().compose(composed) == LinearTimeMap.identity()

    def test_zero_scale_cannot_invert(self):
        with pytest.raises(ValueError):
            LinearTimeMap(Fraction(0)).invert()

"""Milliseconds to integer microseconds, checked against exact rationals."""

import math
from decimal import ROUND_DOWN, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lanesim.timebase import frac, ms_to_us


def _reference_us(ms) -> int:
    """The conversion by exact rational: a number read via its decimal
    text, times 1000, rounded half to even."""
    return int(round(Fraction(str(ms)) * 1000))


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(-1.7976931348623157e308)
@example(1.7976931348623157e308)
@example(-0.0)
@example(0.0005)
@example(0.0015)
@example(2.0005)
def test_a_float_converts_as_its_decimal_text_rounded_half_to_even(ms):
    assert ms_to_us(ms) == _reference_us(ms)


@given(st.integers(-10**7, 10**7))
def test_half_microsecond_edges_round_half_to_even(k):
    ms = k / 2000
    assert ms_to_us(ms) == _reference_us(ms)


@given(st.integers(-10**7, 10**7) | st.integers(-10**300, 10**300))
def test_an_int_converts_exactly(ms):
    assert ms_to_us(ms) == ms * 1000 == _reference_us(ms)


def test_fractions_and_text_convert_exactly():
    assert ms_to_us(Fraction(1, 3)) == 333
    assert ms_to_us(Fraction(1, 2000)) == 0     # half to even
    assert ms_to_us("0.0015") == 2


def test_the_caller_decimal_context_changes_no_conversion():
    with localcontext() as ctx:
        ctx.prec = 3
        ctx.rounding = ROUND_DOWN
        assert ms_to_us(12.3456789) == 12346
        assert ms_to_us(2.0005) == 2000
        assert ms_to_us(2.0015) == 2002
        assert ms_to_us(1.7976931348623157e308) == _reference_us(
            1.7976931348623157e308)


@pytest.mark.parametrize("ms", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_is_refused(ms):
    with pytest.raises(ValueError):
        ms_to_us(ms)


def test_frac_reads_numbers_exactly():
    assert frac(7) == 7 and type(frac(7)) is Fraction
    assert frac(0.1) == Fraction(1, 10)
    assert frac("1/2") == Fraction(1, 2)
    third = Fraction(1, 3)
    assert frac(third) is third
    for bad in (True, None, [1]):
        with pytest.raises(TypeError):
            frac(bad)

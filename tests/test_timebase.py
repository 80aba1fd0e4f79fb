"""Milliseconds to integer microseconds, checked against exact rationals."""

import math
from decimal import ROUND_DOWN, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import lanesim.timebase
from lanesim.scenario import generate_scenario, parse_scenario
from lanesim.timebase import frac, lcm_sum, ms_to_us


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


# the fast path's bound on the float product, in microseconds
_CUTOFF = 10**15
_NEAR_CUTOFF = st.integers(_CUTOFF - 2**20, _CUTOFF + 2**20)
_PAST_CUTOFF = st.integers(2**50 - 2**20, 2**53 + 2**20)


@given(_NEAR_CUTOFF | _PAST_CUTOFF, st.integers(0, 7), st.booleans())
@example(_CUTOFF - 1, 0, False)
@example(_CUTOFF, 0, False)
@example(_CUTOFF + 1, 0, False)
@example(_CUTOFF - 1, 2, True)
@example(_CUTOFF, 2, True)
@example(_CUTOFF - 1, 4, False)
@example(2**50, 1, False)
@example(2**52 + 1, 4, True)
@example(2**53, 0, True)
def test_whole_and_eighth_microseconds_near_the_fast_path_cutoff(k, eighths,
                                                                  negative):
    # k/1000 ms is about k us; eighths of a microsecond sit on both sides
    # of the quarter the fast path accepts, and past 2**50 us a float
    # holds no fraction of a microsecond finer than its ulp
    us = k + Fraction(eighths, 8)
    ms = float(-us / 1000 if negative else us / 1000)
    assert ms_to_us(ms) == _reference_us(ms)


@given(st.floats(2**40 / 1000, 2**54 / 1000), st.booleans())
# past the cutoff the float product can round to a whole microsecond the
# text is not: 1.7460140871802792e16 for ...793
@example(17460140871802.793, False)
@example(10908844050361.045, True)
# a product 0.4375 from a whole microsecond (...612.5625) is no short cut
@example(559855483457.6125, False)
def test_any_float_near_the_fast_path_cutoff_converts_exactly(ms, negative):
    ms = -ms if negative else ms
    assert ms_to_us(ms) == _reference_us(ms)


@given(st.integers(-10**12, 10**12), st.integers(0, 15))
def test_sixteenths_of_a_microsecond_convert_exactly(k, sixteenths):
    ms = (k + sixteenths / 16) / 1000
    assert ms_to_us(ms) == _reference_us(ms)


def test_a_generated_scenario_parses_without_decimal(monkeypatch):
    # generated durations and fault times are whole microseconds, so every
    # float one takes the short cut and none reaches frac
    made = []
    real = lanesim.timebase.frac

    def counted(value):
        made.append(value)
        return real(value)

    monkeypatch.setattr(lanesim.timebase, "frac", counted)
    for seed in range(4):
        parse_scenario(generate_scenario(lanes=4, procs=6, apps=4, seed=seed,
                                         faults=20, horizon_ms=100))
    assert made == []
    ms_to_us(0.0005)            # a half microsecond takes the exact path
    assert made == [0.0005]


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


# the exact sums of (numerator, denominator) pairs: unreduced numerators,
# positive denominators, as demand_ratio and the processor windows give them
_PAIRS = st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**6)),
                  max_size=12)


@given(_PAIRS)
@example([])
@example([(2, 4), (-3, 6)])     # unreduced terms that sum to zero
def test_lcm_sum_equals_the_running_fraction_sum(pairs):
    num, den = lcm_sum(pairs)
    assert Fraction(num, den) == sum((Fraction(n, d) for n, d in pairs),
                                     Fraction(0))
    assert lcm_sum(iter(pairs)) == (num, den)


@given(_PAIRS)
@example([])
@example([(1, 4), (1, 6), (5, 4)])
def test_lcm_sum_keeps_the_lcm_of_the_denominators(pairs):
    num, den = lcm_sum(pairs)
    assert den == math.lcm(*(d for _, d in pairs))      # math.lcm() is 1
    assert lcm_sum([]) == (0, 1)

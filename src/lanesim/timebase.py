"""Clock units and exact numbers.

The event clock runs on integer microseconds (one quantum = 1 us). Scenario
files and reports speak milliseconds. Conversions round to the nearest
quantum, half to even, so values expressed in whole microseconds survive a
round trip.
"""

import math
from fractions import Fraction

US_PER_MS = 1000

# the fast path of ms_to_us: products below 1e15 < 2**50 us, within a
# quarter microsecond of a whole one
_FAST_LIMIT = 1e15
_FAST_SLACK = 0.25


def frac(value) -> Fraction:
    """Exact rational from a JSON number; floats are read via their decimal text."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"not a number: {value!r}")
    return Fraction(str(value))


def ratio_sum(pairs) -> Fraction:
    """The exact sum of (numerator, denominator) integer pairs, summed
    over their lcm into one Fraction: no Fraction per term or partial sum."""
    return Fraction(*lcm_sum(pairs))


def lcm_sum(pairs) -> tuple[int, int]:
    """The sum of (numerator, denominator) integer pairs as one unreduced
    pair whose denominator is the lcm of theirs (1 for no pairs)."""
    num, den = 0, 1
    for n, d in pairs:
        lcm = den // math.gcd(den, d) * d
        num, den = num * (lcm // den) + n * (lcm // d), lcm
    return num, den


def ms_to_us(ms) -> int:
    """Milliseconds (int/float/Fraction) to integer microseconds.

    A float is read via its decimal text, as ``frac`` reads it, and the
    product rounds half to even, as ``round`` rounds a Fraction.

    Most floats take a short cut: if the float product ``us = ms * 1000.0``
    lies below 1e15 in size and within a quarter of an integer ``n``, the
    answer is ``n``. Below ``1e15 < 2**50`` one ulp of ``us`` is at most
    0.125, so the exact product ``ms * 1000`` lies within 0.0625 of ``us``.
    Then ``ms`` is below ``2**40``, where one ulp is at most ``2**-13``, and
    its decimal text lies within half an ulp of it, so the text times 1000
    lies within another 0.062 of ``ms * 1000``. In all the text times 1000
    lies within 0.375 of ``n``, so it rounds to ``n`` with no tie. Every
    other float, such as one near a half microsecond, takes the exact
    path that a Fraction or a text takes: ``frac``, times 1000, rounded.
    """
    if type(ms) is int:
        return ms * US_PER_MS
    if type(ms) is float:
        us = ms * 1000.0
        if -_FAST_LIMIT < us < _FAST_LIMIT:
            n = round(us)
            if abs(us - n) <= _FAST_SLACK:
                return n
        if not math.isfinite(ms):
            raise ValueError(f"not a finite number: {ms!r}")
    return int(round(frac(ms) * US_PER_MS))

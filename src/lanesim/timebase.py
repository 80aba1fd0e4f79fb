"""Clock units.

The event clock runs on integer microseconds (one quantum = 1 us). Scenario
files and reports speak milliseconds. Conversions round to the nearest
quantum, half to even, so values expressed in whole microseconds survive a
round trip.
"""

import math
from decimal import (ROUND_HALF_EVEN, Context, Decimal, DivisionByZero,
                     InvalidOperation, Overflow)
from fractions import Fraction

US_PER_MS = 1000

# A float's repr has at most 17 significant digits, and times 1000 at most
# 21, so every product below is exact. The context is the module's own:
# decimal arithmetic would otherwise run in the caller's thread context.
_MS_TO_US = Context(prec=24, rounding=ROUND_HALF_EVEN, Emin=-999999,
                    Emax=999999, capitals=1, clamp=0, flags=[],
                    traps=[InvalidOperation, DivisionByZero, Overflow])


def frac(value) -> Fraction:
    """Exact rational from a JSON number; floats are read via their decimal text."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"not a number: {value!r}")
    return Fraction(str(value))


def ms_to_us(ms) -> int:
    """Milliseconds (int/float/Fraction) to integer microseconds.

    A float is read via its decimal text, as ``frac`` reads it, and the
    product rounds half to even, as ``round`` rounds a Fraction.
    """
    if type(ms) is int:
        return ms * US_PER_MS
    if type(ms) is float:
        if not math.isfinite(ms):
            raise ValueError(f"not a finite number: {ms!r}")
        us = _MS_TO_US.multiply(Decimal(repr(ms)), US_PER_MS)
        return int(us.to_integral_value(context=_MS_TO_US))
    return int(round(frac(ms) * US_PER_MS))

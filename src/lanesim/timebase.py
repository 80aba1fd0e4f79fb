"""Clock units.

The event clock runs on integer microseconds (one quantum = 1 us). Scenario
files and reports speak milliseconds. Conversions round to the nearest
quantum so values expressed in whole microseconds survive a round trip.
"""

from fractions import Fraction

US_PER_MS = 1000


def frac(value) -> Fraction:
    """Exact rational from a JSON number; floats are read via their decimal text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"not a number: {value!r}")
    return Fraction(str(value))


def ms_to_us(ms) -> int:
    """Milliseconds (int/float/Fraction) to integer microseconds."""
    return int(round(frac(ms) * US_PER_MS))

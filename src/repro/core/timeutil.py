"""Time arithmetic for periodic streams.

All timestamps in the library are integers ("ticks").  The examples, tests
and benchmarks use one tick = one millisecond which matches the paper's
millisecond-precision event time, but nothing in the engine depends on the
physical meaning of a tick.

The module provides:

* conversion helpers between sampling frequency and period,
* grid arithmetic (aligning timestamps to a periodic grid),
* :class:`LinearTimeMap`, the formalisation of the paper's *linearity
  property*: the sync time of an operator's output events is a linear
  transformation ``t_out = scale * t_in + shift`` of its input events'
  sync times.  Time maps compose, invert, and transform intervals, which is
  what event-lineage tracking (Section 5.1) is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from repro.errors import StreamDefinitionError

#: Number of ticks per second used by the convenience helpers.  One tick is
#: one millisecond, so a 500 Hz signal has a period of 2 ticks.
TICKS_PER_SECOND = 1000

#: Ticks per minute, used for the paper's default 1 minute window size.
TICKS_PER_MINUTE = 60 * TICKS_PER_SECOND

#: Ticks per hour, the upper end of the window-size sensitivity study.
TICKS_PER_HOUR = 60 * TICKS_PER_MINUTE


def period_from_hz(frequency_hz: float) -> int:
    """Return the integer period (in ticks) of a signal sampled at *frequency_hz*.

    Raises :class:`StreamDefinitionError` if the frequency does not map to a
    whole number of ticks (e.g. 333 Hz with millisecond ticks).
    """
    if frequency_hz <= 0:
        raise StreamDefinitionError(f"frequency must be positive, got {frequency_hz}")
    period = TICKS_PER_SECOND / frequency_hz
    rounded = round(period)
    if rounded <= 0 or abs(period - rounded) > 1e-9:
        raise StreamDefinitionError(
            f"frequency {frequency_hz} Hz does not correspond to an integer "
            f"period in ticks (got {period}); choose a frequency that divides "
            f"{TICKS_PER_SECOND}"
        )
    return rounded


def hz_from_period(period: int) -> float:
    """Return the sampling frequency in Hz of a stream with the given *period*."""
    if period <= 0:
        raise StreamDefinitionError(f"period must be positive, got {period}")
    return TICKS_PER_SECOND / period


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a <= 0 or b <= 0:
        raise ValueError(f"lcm requires positive integers, got {a}, {b}")
    return a // gcd(a, b) * b


def lcm_all(values) -> int:
    """Least common multiple of an iterable of positive integers."""
    result = 1
    for value in values:
        result = lcm(result, int(value))
    return result


def align_down(timestamp: int, step: int, offset: int = 0) -> int:
    """Largest grid point ``offset + k * step`` that is ``<= timestamp``."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    return offset + ((timestamp - offset) // step) * step


def align_up(timestamp: int, step: int, offset: int = 0) -> int:
    """Smallest grid point ``offset + k * step`` that is ``>= timestamp``."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    return offset + -((offset - timestamp) // step) * step


def is_aligned(timestamp: int, step: int, offset: int = 0) -> bool:
    """Return True when *timestamp* lies on the grid ``offset + k * step``."""
    return (timestamp - offset) % step == 0


@dataclass(frozen=True)
class LinearTimeMap:
    """A linear transformation between two time domains.

    ``t_out = scale * t_in + shift`` where *scale* is an exact rational.
    The identity map has ``scale == 1`` and ``shift == 0``.

    Inverted, it positions an operator's input windows for an output
    window (:meth:`~repro.core.operators.base.Operator.input_sync_time`);
    composed, a fused chain's.
    """

    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)

    @staticmethod
    def identity() -> "LinearTimeMap":
        """The map that leaves timestamps unchanged (one shared, frozen instance)."""
        return _IDENTITY

    @staticmethod
    def shifted(offset: int) -> "LinearTimeMap":
        """The map produced by ``Shift(offset)``: ``t_out = t_in + offset``."""
        return LinearTimeMap(Fraction(1), Fraction(offset))

    @staticmethod
    def scaled(numerator: int, denominator: int = 1) -> "LinearTimeMap":
        """A pure scaling map ``t_out = (numerator / denominator) * t_in``."""
        return LinearTimeMap(Fraction(numerator, denominator), Fraction(0))

    def invert(self) -> "LinearTimeMap":
        """Return the inverse map (output domain back to input domain)."""
        if self.scale == 0:
            raise ValueError("a time map with zero scale cannot be inverted")
        inv_scale = 1 / self.scale
        return LinearTimeMap(inv_scale, -self.shift * inv_scale)

    def compose(self, inner: "LinearTimeMap") -> "LinearTimeMap":
        """Return the map equivalent to applying *inner* first, then *self*."""
        return LinearTimeMap(self.scale * inner.scale, self.scale * inner.shift + self.shift)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearTimeMap(t_out = {self.scale} * t_in + {self.shift})"


# Most operators map time by the identity; building two Fractions for
# each of them on every call is waste.
_IDENTITY = LinearTimeMap()

"""Hand-written NumPy/SciPy implementations of the Table 3 operations.

These are the "NumLib" baseline of the paper: the kind of ad-hoc, per-
operation code a data scientist writes directly against numerical libraries.
Each function is fast in isolation (it is a thin wrapper over vectorised
NumPy/SciPy kernels) but carries no notion of event time — the temporal
bookkeeping (alignment, gap handling, joining) has to be re-implemented by
hand around them, which is exactly the programmability and end-to-end
performance problem the paper describes in Section 3.
"""

from __future__ import annotations

import numpy as np


def normalize(values: np.ndarray, window_samples: int) -> np.ndarray:
    """Standard-score normalisation over consecutive windows (Table 3: Normalize).

    Mirrors ``sklearn.preprocessing.scale`` applied per window: each window
    of *window_samples* samples is centred on its mean and divided by its
    standard deviation.  The trailing partial window is normalised with its
    own statistics.
    """
    values = np.asarray(values, dtype=np.float64)
    result = np.empty_like(values)
    for start in range(0, values.size, window_samples):
        window = values[start : start + window_samples]
        mean = window.mean()
        std = window.std()
        if std == 0:
            result[start : start + window_samples] = 0.0
        else:
            result[start : start + window_samples] = (window - mean) / std
    return result


def design_fir_taps(numtaps: int, cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Design a low-pass FIR filter (Hamming window method, as scipy.firwin does)."""
    from scipy import signal as scipy_signal

    return scipy_signal.firwin(numtaps, cutoff_hz, fs=sample_rate_hz)


def passfilter(
    values: np.ndarray,
    numtaps: int = 51,
    cutoff_hz: float = 40.0,
    sample_rate_hz: float = 500.0,
) -> np.ndarray:
    """Finite-impulse-response frequency filtering (Table 3: PassFilter)."""
    from scipy import signal as scipy_signal

    taps = design_fir_taps(numtaps, cutoff_hz, sample_rate_hz)
    return scipy_signal.lfilter(taps, 1.0, np.asarray(values, dtype=np.float64))


def fill_const(
    times: np.ndarray,
    values: np.ndarray,
    period: int,
    max_gap: int,
    constant: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill gaps smaller than *max_gap* ticks with a constant (Table 3: FillConst).

    Takes explicit timestamp/value arrays (the NumLib baseline has no
    implicit grid) and returns new arrays with the filled samples inserted.
    """
    return _fill(times, values, period, max_gap, lambda left, right: constant)


def fill_mean(
    times: np.ndarray,
    values: np.ndarray,
    period: int,
    max_gap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill gaps smaller than *max_gap* ticks with the mean of the gap's endpoints."""
    return _fill(times, values, period, max_gap, lambda left, right: 0.5 * (left + right))


def _fill(times, values, period, max_gap, fill_value_fn):
    times = np.asarray(times, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if times.size < 2:
        return times.copy(), values.copy()
    gaps = np.diff(times)
    gap_positions = np.flatnonzero((gaps > period) & (gaps <= max_gap))
    if gap_positions.size == 0:
        return times.copy(), values.copy()
    pieces_t = []
    pieces_v = []
    previous = 0
    for position in gap_positions:
        pieces_t.append(times[previous : position + 1])
        pieces_v.append(values[previous : position + 1])
        missing = np.arange(times[position] + period, times[position + 1], period, dtype=np.int64)
        pieces_t.append(missing)
        pieces_v.append(
            np.full(missing.size, fill_value_fn(values[position], values[position + 1]))
        )
        previous = position + 1
    pieces_t.append(times[previous:])
    pieces_v.append(values[previous:])
    return np.concatenate(pieces_t), np.concatenate(pieces_v)


def resample(
    times: np.ndarray,
    values: np.ndarray,
    new_period: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear-interpolation resampling onto a new period (Table 3: Resample)."""
    times = np.asarray(times, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if times.size == 0:
        return times.copy(), values.copy()
    new_times = np.arange(times[0], times[-1] + 1, new_period, dtype=np.int64)
    new_values = np.interp(new_times, times, values)
    return new_times, new_values


def pure_python_inner_join(
    left_times: np.ndarray,
    left_values: np.ndarray,
    right_times: np.ndarray,
    right_values: np.ndarray,
    right_duration: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Temporal inner join written in pure Python.

    The paper notes that "operations like temporal Inner Join required pure
    Python implementation" in the NumLib pipelines (Section 7), because the
    numerical libraries have no notion of event time.  This two-pointer merge
    is the idiomatic way to write it; its per-event interpreter cost is what
    drags the NumLib end-to-end numbers down in Figure 9(c).

    Returns ``(times, left_payloads, right_payloads)`` for every left event
    that overlaps a right event.
    """
    out_times: list[int] = []
    out_left: list[float] = []
    out_right: list[float] = []
    lt = left_times.tolist()
    lv = left_values.tolist()
    rt = right_times.tolist()
    rv = right_values.tolist()
    j = 0
    n_right = len(rt)
    for t, value in zip(lt, lv):
        while j + 1 < n_right and rt[j + 1] <= t:
            j += 1
        if j < n_right and rt[j] <= t < rt[j] + right_duration:
            out_times.append(t)
            out_left.append(value)
            out_right.append(rv[j])
    return (
        np.asarray(out_times, dtype=np.int64),
        np.asarray(out_left, dtype=np.float64),
        np.asarray(out_right, dtype=np.float64),
    )


def vectorized_upsample_throughput_kernel(values: np.ndarray, factor: int) -> np.ndarray:
    """The SciPy-style upsampling kernel used for the Table 1 comparison."""
    positions = np.arange(values.size * factor) / factor
    return np.interp(positions, np.arange(values.size), values)

"""Shared numeric kernels used by the Table 3 operations.

Each kernel has the signature required by the LifeStream ``Transform``
operator — ``f(values, present) -> values`` or ``-> (values, present)`` —
and a factory that closes over the operation's parameters.  The same
kernels are reused by the Trill-baseline pipelines (wrapped in
``TrillWindowTransform``) so that both engines execute the identical
numerical work and only the engine architecture differs.

Kernels that can process many windows in one NumPy call additionally carry a
``batched`` attribute: ``kernel.batched(values_2d, mask_2d)`` receives one
row per window (shape ``(n_windows, samples_per_window)``) and returns what
calling the scalar kernel row-by-row would.  The vectorized execution
backend dispatches these through ``Transform.compute_run`` to amortise the
per-call NumPy overhead that dominates the serial profile.  Batched variants
must stay **bit-identical** to the scalar kernel; where the batched math
cannot reproduce a row exactly (partially-present rows whose reductions run
over a compacted subset), the row is delegated to the scalar kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def zscore_kernel() -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Standard-score normalisation of a window (Table 3: Normalize)."""

    def kernel(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not present.any():
            return values, present
        observed = values[present]
        mean = observed.mean()
        std = observed.std()
        if std == 0:
            return np.zeros_like(values), present
        return (values - mean) / std, present

    scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _normalize_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Fully-present rows: `values[present]` is the whole row, so the
        # row-wise mean/std reduce the very same contiguous operands in the
        # same order as the scalar kernel — bit-identical.  The reductions
        # are issued as raw ``np.add.reduce`` (the ufunc ``np.mean``/
        # ``np.std`` bottom out in, with the same pairwise summation), and
        # the std is spelled out so the centered operand feeds the
        # normalisation directly instead of being recomputed.  The two
        # whole-run temporaries are kept per row width at the largest row
        # count seen; shorter runs use their leading rows.
        count, samples = rows.shape
        buffers = scratch.get(samples)
        if buffers is None or buffers[0].shape[0] < count:
            buffers = scratch[samples] = (np.empty_like(rows), np.empty_like(rows))
        centered, squared = buffers[0][:count], buffers[1][:count]
        means = np.add.reduce(rows, axis=1) / samples
        np.subtract(rows, means[:, None], out=centered)
        np.multiply(centered, centered, out=squared)
        stds = np.sqrt(np.add.reduce(squared, axis=1) / samples)
        if bool(stds.all()):
            # No zero-variance rows (the overwhelmingly common case).
            return np.divide(centered, stds[:, None], out=out)
        flat = stds == 0.0
        safe = np.where(flat, 1.0, stds)
        normed = np.divide(centered, safe[:, None], out=out)
        normed[flat] = 0.0
        return normed

    def batched(
        rows: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        full = np.logical_and.reduce(mask, axis=1)
        # Normalise every row as if fully present (row-wise math is
        # row-independent, so full rows are unaffected by the extras), then
        # overwrite the partially-present rows with the scalar kernel's
        # math — their reductions run over the compacted subset, which 2-D
        # math cannot reproduce bit-identically.
        new_values = _normalize_rows(rows, out)
        if not bool(full.all()):
            for row in np.flatnonzero(~full):
                present = mask[row]
                if not present.any():
                    new_values[row] = rows[row]
                    continue
                observed = rows[row][present]
                mean = np.add.reduce(observed) / observed.size
                deviations = observed - mean
                std = np.sqrt(np.add.reduce(deviations * deviations) / observed.size)
                if std == 0.0:
                    new_values[row] = 0.0
                else:
                    new_values[row] = (rows[row] - mean) / std
        return new_values, mask

    batched.accepts_out = True
    kernel.batched = batched
    return kernel


def fir_filter_kernel(
    numtaps: int, cutoff_hz: float, sample_rate_hz: float
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Low-pass FIR frequency filtering of a window (Table 3: PassFilter).

    The only kernel that needs SciPy, so it is imported here, not with the
    module: importing :mod:`repro` does not load ``scipy.signal``.
    """
    from scipy import signal as scipy_signal

    taps = scipy_signal.firwin(numtaps, cutoff_hz, fs=sample_rate_hz)

    def kernel(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        padded = np.where(present, values, 0.0)
        filtered = scipy_signal.lfilter(taps, 1.0, padded)
        return filtered, present

    return kernel


def fill_const_kernel(
    max_gap_samples: int, constant: float = 0.0
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Fill absent runs of at most *max_gap_samples* with a constant (FillConst)."""

    fill = lambda left, right: constant  # noqa: E731 - tiny closure shared below

    def kernel(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _fill_gaps(values, present, max_gap_samples, fill)

    kernel.batched = _make_fill_batched(max_gap_samples, fill)
    return kernel


def fill_mean_kernel(
    max_gap_samples: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Fill absent runs with the mean of the surrounding present values (FillMean)."""

    fill = lambda left, right: 0.5 * (left + right)  # noqa: E731

    def kernel(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _fill_gaps(values, present, max_gap_samples, fill)

    kernel.batched = _make_fill_batched(max_gap_samples, fill)
    return kernel


def _fill_gaps(
    values: np.ndarray,
    present: np.ndarray,
    max_gap_samples: int,
    fill_value_fn: Callable[[float, float], float],
) -> tuple[np.ndarray, np.ndarray]:
    """Fill interior runs of absent samples no longer than *max_gap_samples*."""
    new_values = values.copy()
    new_present = present.copy()
    if present.all() or not present.any():
        return new_values, new_present
    present_idx = np.flatnonzero(present)
    gap_starts = present_idx[:-1] + 1
    gap_ends = present_idx[1:]  # inclusive end is gap_ends - 1; gap length below
    gap_lengths = present_idx[1:] - present_idx[:-1] - 1
    for start, end, length, left_idx, right_idx in zip(
        gap_starts, gap_ends, gap_lengths, present_idx[:-1], present_idx[1:]
    ):
        if length <= 0 or length > max_gap_samples:
            continue
        fill = fill_value_fn(float(values[left_idx]), float(values[right_idx]))
        new_values[start:end] = fill
        new_present[start:end] = True
    return new_values, new_present


def _make_fill_batched(
    max_gap_samples: int, fill_value_fn: Callable[[float, float], float]
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Row-batched gap filling as pure 2-D array arithmetic.

    For every absent slot, running maxima locate the nearest present sample
    on each side *within its row*; interior gaps no longer than the limit
    are filled from those two neighbours.  Each filled slot computes
    ``fill_value_fn`` on exactly the two doubles the scalar :func:`_fill_gaps`
    would pass for its gap, so results are bit-identical row for row.
    """

    def batched(
        rows: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        gappy = ~np.logical_and.reduce(mask, axis=1)
        if not gappy.any():
            # Nothing to fill: the inputs are returned as-is (callers treat
            # kernel results as read-only and copy them into the output).
            return rows, mask
        if out is None:
            new_values = rows.copy()
        else:
            np.copyto(out, rows)
            new_values = out
        new_mask = mask.copy()
        # Only rows containing at least one absent slot need the running-max
        # scans; in typical streams that is a small fraction of the run.
        sub_rows = rows[gappy]
        sub_mask = mask[gappy]
        if not sub_mask.any():
            return new_values, new_mask
        samples = rows.shape[1]
        columns = np.arange(samples)
        # Index of the nearest present sample at-or-before / at-or-after each
        # slot (-1 / `samples` when none exists on that side).
        before = np.maximum.accumulate(np.where(sub_mask, columns, -1), axis=1)
        reversed_mask = sub_mask[:, ::-1]
        after_rev = np.maximum.accumulate(np.where(reversed_mask, columns, -1), axis=1)
        after = (samples - 1) - after_rev[:, ::-1]
        fillable = (
            ~sub_mask
            & (before >= 0)
            & (after < samples)
            & (after - before - 1 <= max_gap_samples)
        )
        if fillable.any():
            gappy_indices = np.flatnonzero(gappy)
            fill_rows, fill_cols = np.nonzero(fillable)
            left = sub_rows[fill_rows, before[fill_rows, fill_cols]]
            right = sub_rows[fill_rows, after[fill_rows, fill_cols]]
            out_rows = gappy_indices[fill_rows]
            new_values[out_rows, fill_cols] = fill_value_fn(left, right)
            new_mask[out_rows, fill_cols] = True
        return new_values, new_mask

    batched.accepts_out = True
    return batched


def interpolate_gaps_kernel(
    max_gap_samples: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Fill short gaps by linear interpolation between the surrounding samples."""

    def kernel(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        new_values = values.copy()
        new_present = present.copy()
        if present.all() or not present.any():
            return new_values, new_present
        present_idx = np.flatnonzero(present)
        all_idx = np.arange(values.size)
        interpolated = np.interp(all_idx, present_idx, values[present_idx])
        gap_lengths = np.diff(present_idx) - 1
        for left_idx, right_idx, length in zip(present_idx[:-1], present_idx[1:], gap_lengths):
            if 0 < length <= max_gap_samples:
                new_values[left_idx + 1 : right_idx] = interpolated[left_idx + 1 : right_idx]
                new_present[left_idx + 1 : right_idx] = True
        return new_values, new_present

    return kernel


def clamp_kernel(
    low: float, high: float
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Mask out events whose payload falls outside ``[low, high]`` (event masking)."""

    def kernel(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keep = present & (values >= low) & (values <= high)
        return values, keep

    # The expression is purely element-wise, so it is its own batched form.
    kernel.batched = kernel
    return kernel

"""Seeded input generators of the benchmark (numpy only).

Every input the workloads feed into ``repro`` is made here from ``--seed``,
and nothing here imports ``repro.data`` or ``repro.bench``: the inputs of a
seed stay the same when ``src/`` changes, so two commits are always measured
on identical data.  Timestamps are integer milliseconds on each stream's
periodic grid (500 Hz = period 2, 125 Hz = period 8).
"""

from __future__ import annotations

import hashlib

import numpy as np

ECG_HZ = 500
ABP_HZ = 125
ECG_PERIOD = 1000 // ECG_HZ
ABP_PERIOD = 1000 // ABP_HZ

# (centre, width, amplitude) of the P, Q, R, S, T waves as fractions of a beat.
_ECG_WAVES = (
    (0.18, 0.025, 0.15),
    (0.295, 0.010, -0.10),
    (0.32, 0.012, 1.00),
    (0.345, 0.010, -0.20),
    (0.55, 0.040, 0.30),
)
_BEAT_BINS = 8192


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """An independent generator per ``(seed, key...)`` (order-free substreams)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _beat_phase(rng, n: int, hz: int, bpm: float = 120.0) -> np.ndarray:
    """Phase in [0, 1) within the current heartbeat for each of *n* samples."""
    seconds = np.arange(n) / hz
    mean = 60.0 / bpm
    beats = int(n / hz / mean * 1.25) + 8
    intervals = np.clip(mean * rng.normal(1.0, 0.03, beats), 0.3 * mean, 2.0 * mean)
    starts = np.concatenate(([0.0], np.cumsum(intervals)))
    beat = np.searchsorted(starts, seconds, side="right") - 1
    return (seconds - starts[beat]) / intervals[beat]


def ecg_wave(rng, seconds: float) -> np.ndarray:
    """ECG-like 500 Hz waveform: P-QRS-T beats, baseline wander, noise."""
    n = int(seconds * ECG_HZ)
    # One beat's shape on a fine phase grid, looked up per sample: five
    # Gaussians per sample over hours of signal would dominate generation.
    grid = (np.arange(_BEAT_BINS) + 0.5) / _BEAT_BINS
    beat = np.zeros(_BEAT_BINS)
    for centre, width, amplitude in _ECG_WAVES:
        beat += amplitude * np.exp(-0.5 * ((grid - centre) / width) ** 2)
    phase = _beat_phase(rng, n, ECG_HZ)
    values = beat[np.minimum((phase * _BEAT_BINS).astype(np.intp), _BEAT_BINS - 1)]
    values += 0.05 * np.sin(2 * np.pi * 0.25 * np.arange(n) / ECG_HZ)
    values += rng.normal(0.0, 0.02, n)
    return values


def abp_wave(rng, seconds: float) -> np.ndarray:
    """Arterial-pressure-like 125 Hz waveform in mmHg."""
    n = int(seconds * ABP_HZ)
    phase = _beat_phase(rng, n, ABP_HZ)
    upstroke = np.exp(-0.5 * ((phase - 0.18) / 0.08) ** 2)
    dicrotic = 0.25 * np.exp(-0.5 * ((phase - 0.45) / 0.06) ** 2)
    decay = 0.4 + 0.6 * np.exp(-2.2 * phase)
    values = 65.0 + 45.0 * (0.75 * upstroke + dicrotic) * decay
    values += rng.normal(0.0, 0.8, n)
    return values


def burst_keep(rng, n: int, fraction: float, bursts: int = 10, half: int = 0) -> np.ndarray:
    """Keep-mask dropping *fraction* of *n* samples in *bursts* contiguous runs.

    Disconnections in monitoring data are bursty (Figure 2 of the paper), so
    gaps are a few long runs, not scattered single samples.  The stream is
    cut into *bursts* equal slots and burst *k* falls at a seeded position
    inside the first (``half=0``) or second (``half=1``) half of slot *k*:
    bursts never merge, and two signals given opposite halves never lose
    the same stretch, so the amount of work a query does over them is the
    same for every seed and only its placement moves.  The first sample
    always stays: a replayed stream's clock starts at its first event, and
    the drivers pump every stream from time 0.
    """
    keep = np.ones(n, dtype=bool)
    slot = n // bursts
    length = min(int(fraction * n / bursts), slot // 2 - 1)
    if length > 0:
        room = slot // 2 - length
        for k, offset in enumerate(rng.integers(0, room, size=bursts)):
            start = k * slot + half * (slot // 2) + offset
            keep[start : start + length] = False
    keep[0] = True
    return keep


def gappy(values: np.ndarray, period: int, keep: np.ndarray):
    """``(times, values)`` of the kept samples on the ``k * period`` grid."""
    times = np.arange(values.size, dtype=np.int64) * period
    return times[keep], values[keep]


def monitor_stream(rng, seconds: float, gaps_per_8s: int = 3):
    """A cheap gappy 500 Hz bedside signal (sine + noise, short dropouts)."""
    n = int(seconds * ECG_HZ)
    rate = 0.04 + 0.004 * rng.integers(0, 7)
    values = 3.0 * (np.sin(np.arange(n) * rate) + 0.1 * rng.standard_normal(n))
    keep = np.ones(n, dtype=bool)
    count = max(1, int(gaps_per_8s * seconds / 8))
    starts = rng.integers(0, max(1, n - 400), size=count)
    lengths = rng.integers(50, 300, size=count)
    for start, length in zip(starts, lengths):
        keep[start : start + length] = False
    keep[0] = True
    return gappy(values, ECG_PERIOD, keep)


def ecg_abp_pair(rng, seconds: float, ecg_gap: float, abp_gap: float):
    """The Figure 3 input: gappy ECG (500 Hz) and ABP (125 Hz) over *seconds*."""
    ecg = ecg_wave(rng, seconds)
    abp = abp_wave(rng, seconds)
    return (
        gappy(ecg, ECG_PERIOD, burst_keep(rng, ecg.size, ecg_gap, half=0)),
        gappy(abp, ABP_PERIOD, burst_keep(rng, abp.size, abp_gap, half=1)),
    )


def zipf_draws(rng, n_items: int, s: float, count: int) -> np.ndarray:
    """*count* item indices following a Zipf(s) law over *n_items* ranks.

    Each item appears exactly its expected number of times (largest
    remainders make up the total) and the seed only shuffles the order, so
    every seed submits the same mix of items.
    """
    weights = 1.0 / np.arange(1, n_items + 1) ** s
    exact = weights / weights.sum() * count
    counts = np.floor(exact).astype(np.int64)
    short = count - int(counts.sum())
    counts[np.argsort(exact - counts)[::-1][:short]] += 1
    draws = np.repeat(np.arange(n_items), counts)
    rng.shuffle(draws)
    return draws


def digest(*arrays) -> str:
    """Hex digest of the exact bytes of *arrays* (input identity per seed)."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(array.data)
    return sha.hexdigest()[:16]

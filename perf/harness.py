"""What the four workloads share: the run context, timing statistics,
repeated set-up, and the bit-identity check against a reference run."""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Times set-up is repeated in one run; ``setup_s`` is the median.  The
#: first repetition in a process costs 3-6 times the later ones (first-touch
#: page faults on the inputs, lazy imports), so three were too few to repeat.
SETUP_REPS = 5
#: Clients per workload whose full output is compared with a one-shot run.
REFERENCE_CLIENTS = 16


@dataclass
class Context:
    """One benchmark run of one workload."""

    seed: int
    #: Target length of the timed region; scales repetitions, never the
    #: size of one repetition.
    seconds: float
    #: Smoke-test sizes (a few hundred ms per workload).
    tiny: bool = False
    #: The span log of a traced run, or None.
    tracer: object = None

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def request(self, request_id) -> None:
        if self.tracer is not None:
            self.tracer.request = request_id

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes directly."""
        if self.tracer is None:
            yield
            return
        me = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(me)

    def count(self, name: str, amount: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)


@dataclass
class Outcome:
    """What a workload hands back to ``perf.run``."""

    #: Operations attempted / failed (raised, refused, or wrong output).
    attempted: int = 0
    failed: int = 0
    #: Median seconds of one set-up (``import repro`` is added by the caller).
    setup_build_s: float = 0.0
    #: name -> (value, unit): the end-to-end metrics and named diagnostics.
    values: dict = field(default_factory=dict)
    #: Free-form facts for the results file (sample counts, digests, ...).
    info: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.info.setdefault("failures", []).append(what)


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def tail_percentile(n: int) -> int:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


def put_latency(outcome: Outcome, samples_s, name: str, segments: int = 1,
                tail: int | None = None, quiet: bool = False) -> None:
    """Report *samples_s* as ``latency_p50_ms``/``latency_tail_ms`` and under
    the workload's own *name* (``<name>_p50_ms``, ``<name>_p<q>_ms``).

    With *segments* > 1 the samples are cut into that many consecutive
    stretches and each percentile is the median of the stretches' own
    percentiles: one stall then spoils one stretch, not the run's tail.
    With *quiet* it is their minimum instead, the quietest stretch: for
    sub-millisecond samples, where a few seconds of interference from the
    host can double every stretch it touches and only ever adds latency.
    The tail is the highest percentile a stretch supports, or *tail* when
    calibration showed that one does not repeat; the supported one is then
    still reported under the workload's name, as a diagnostic.
    """
    millis = np.asarray(samples_s, dtype=np.float64) * 1e3
    segments = max(1, min(segments, millis.size))
    chunks = np.array_split(millis, segments)
    supported = tail_percentile(min(chunk.size for chunk in chunks))
    across = min if quiet else statistics.median
    at = {
        q: across(percentile(chunk, q) for chunk in chunks)
        for q in {50, supported, tail or supported}
    }
    outcome.put("latency_p50_ms", at[50], "ms")
    outcome.put("latency_tail_ms", at[tail or supported], "ms")
    for q, value in sorted(at.items()):
        outcome.put(f"{name}_p{q}_ms", value, "ms")
    outcome.info.update(latency_samples=int(millis.size), latency_segments=segments,
                        latency_tail_percentile=tail or supported)


def segment_rate(work, seconds, segments: int) -> float:
    """Work per second as the median over consecutive stretches of the run.

    *work* and *seconds* are per operation.  Each stretch's rate is its
    total work over its total time, so every cost inside it counts; taking
    the median stretch keeps one stall from moving the whole run's figure.
    """
    segments = max(1, min(segments, len(seconds)))
    rates = [
        w.sum() / s.sum()
        for w, s in zip(np.array_split(np.asarray(work, dtype=np.float64), segments),
                        np.array_split(np.asarray(seconds, dtype=np.float64), segments))
    ]
    return statistics.median(rates)


def repeat_setup(ctx: Context, build, discard, reps: int = SETUP_REPS):
    """Run ``build()`` *reps* times; return the last product and the median
    seconds.  Earlier products are torn down with ``discard(product)``."""
    ctx.phase("setup")
    seconds = []
    product = None
    for rep in range(reps):
        if product is not None:
            discard(product)
            product = None
        gc.collect()
        ctx.request(f"setup-{rep}")
        began = time.perf_counter()
        product = build()
        seconds.append(time.perf_counter() - began)
    return product, statistics.median(seconds)


def identical(result, reference) -> bool:
    """Bit-identity of two results' times, values and durations."""
    return (
        np.array_equal(result.times, reference.times)
        and np.array_equal(result.values, reference.values, equal_nan=True)
        and np.array_equal(result.durations, reference.durations)
    )


def array_sources(arrays: dict, replay: bool = False) -> dict:
    """Fresh sources over *arrays*, ``{name: (times, values, period)}``;
    with *replay* each is wrapped in a ``ReplaySource`` (a live stream)."""
    from repro import ArraySource, ReplaySource

    sources = {
        name: ArraySource(times, values, period=period)
        for name, (times, values, period) in arrays.items()
    }
    if replay:
        sources = {name: ReplaySource(source) for name, source in sources.items()}
    return sources


def one_shot(query, arrays: dict, window_size: int):
    """The reference: one ``engine.run`` over whole *arrays*."""
    from repro import LifeStreamEngine

    return LifeStreamEngine(window_size=window_size).run(query, array_sources(arrays))


def count_cache(ctx: Context, stats, before=(0, 0, 0)) -> tuple:
    """Record the plan cache's hits, misses and evictions since *before* in
    the traced run's counters; returns the current counts."""
    now = (stats.hits, stats.misses, stats.evictions)
    if ctx.tracer is not None:
        for name, b, a in zip(("cache.hits", "cache.misses", "cache.evictions"), before, now):
            ctx.tracer.counters[name] = a - b
    return now


def sample_clients(seed: int, n_clients: int) -> list[int]:
    """The seeded sample of client indices that get the full output check."""
    rng = np.random.default_rng([seed, 0xC11E])
    size = min(REFERENCE_CLIENTS, n_clients)
    return sorted(rng.choice(n_clients, size=size, replace=False).tolist())

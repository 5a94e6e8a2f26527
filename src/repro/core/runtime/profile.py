"""Runtime plan profiles: the measurement half of adaptive recompilation.

Every session tick already produces a
:class:`~repro.core.runtime.session.TickStats` record (plan vs execute
seconds, windows run/deferred, run counts, the execution mode that really
drove the tick).  :class:`PlanProfile` aggregates those records into a
compact, mergeable summary — lifetime counters, EWMA rates, and a
power-of-two run-length histogram — cheap enough to update on every tick
of every session and small enough to persist as JSON per plan signature
(:class:`~repro.serve.cache.ProfileStore`).

The profile answers the questions the compiler's static heuristics guess
at:

* how long are the runs of consecutive windows really? (run cap, whether
  run execution has anything to amortise)
* does coverage fragment, or is the stream dense? (targeted vs eager)
* what fraction of wall-clock goes to planning vs the window loop, and
  does the nominal backend actually run or fall back? (backend choice)

:meth:`PlanProfile.hints` turns the answers into a
:class:`~repro.core.compiler.hints.CompileHints`; the profile-aware
:func:`~repro.core.runtime.backends.recommend_backend` uses the same
measurements to pick the backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compiler.hints import CompileHints
    from repro.core.runtime.session import TickStats

#: Serialized profile format identifier (bump when the layout changes).
PROFILE_FORMAT = "lifestream-plan-profile/v1"

#: Smoothing factor of the per-tick EWMA summaries.  0.2 weighs the last
#: ~5 ticks most, so a session whose workload shifts (backlog drained, a
#: burst arrives) re-profiles within a handful of ticks.
EWMA_ALPHA = 0.2

#: Bounds for the profile-derived run cap.
MIN_HINTED_RUN_WINDOWS = 16
MAX_HINTED_RUN_WINDOWS = 512


def _pow2_at_most(value: float) -> int:
    """Largest power of two <= max(value, 1)."""
    return 1 << max(0, int(value).bit_length() - 1) if value >= 1 else 1


def _pow2_at_least(value: float) -> int:
    """Smallest power of two >= max(value, 1)."""
    if value <= 1:
        return 1
    return 1 << (int(value - 1).bit_length())


@dataclass
class PlanProfile:
    """Aggregated runtime profile of one plan signature.

    All counters are lifetime sums over every observed tick (possibly from
    many sessions of many clients sharing the signature — see
    :meth:`merge`); the EWMA fields favour recent behaviour.
    """

    #: Ticks observed.
    ticks: int = 0
    #: Ticks that executed at least one window.
    busy_ticks: int = 0
    #: Windows executed.
    windows_run: int = 0
    #: Maximal consecutive-window runs those windows formed.
    window_runs: int = 0
    #: Newly-covered windows deferred to a later tick (watermark straddles).
    windows_deferred: int = 0
    #: Events emitted.
    events_emitted: int = 0
    #: Seconds spent in coverage refresh / frontier / readiness work.
    plan_seconds: float = 0.0
    #: Seconds spent in the window loop.
    execute_seconds: float = 0.0
    #: Ticks whose execution mode degraded below the nominal backend
    #: (``...+serial-fallback``) — a backend the profile should steer away from.
    fallback_ticks: int = 0
    #: EWMA of per-tick plan seconds.
    ewma_plan_seconds: float = 0.0
    #: EWMA of per-tick execute seconds.
    ewma_execute_seconds: float = 0.0
    #: EWMA of windows executed per tick.
    ewma_windows_per_tick: float = 0.0
    #: EWMA of mean run length (windows per consecutive run), busy ticks only.
    ewma_run_length: float = 0.0
    #: Histogram of per-tick mean run lengths, bucketed by power of two:
    #: ``{bucket: busy ticks whose mean run length floored to bucket}``.
    run_length_histogram: dict[int, int] = field(default_factory=dict)

    # -- accumulation ------------------------------------------------------

    def observe(self, stats: "TickStats") -> None:
        """Fold one tick's instrumentation record into the profile."""
        self.ticks += 1
        self.windows_run += stats.windows_run
        self.window_runs += stats.window_runs
        self.windows_deferred += stats.windows_deferred
        self.events_emitted += stats.events_emitted
        self.plan_seconds += stats.plan_seconds
        self.execute_seconds += stats.execute_seconds
        if stats.execution_mode.endswith("+serial-fallback"):
            self.fallback_ticks += 1

        def ewma(old: float, new: float, first: bool) -> float:
            return new if first else (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * new

        first = self.ticks == 1
        self.ewma_plan_seconds = ewma(self.ewma_plan_seconds, stats.plan_seconds, first)
        self.ewma_execute_seconds = ewma(
            self.ewma_execute_seconds, stats.execute_seconds, first
        )
        self.ewma_windows_per_tick = ewma(
            self.ewma_windows_per_tick, float(stats.windows_run), first
        )
        if stats.window_runs > 0:
            self.busy_ticks += 1
            length = stats.windows_run / stats.window_runs
            self.ewma_run_length = ewma(
                self.ewma_run_length, length, self.busy_ticks == 1
            )
            bucket = _pow2_at_most(length)
            self.run_length_histogram[bucket] = (
                self.run_length_histogram.get(bucket, 0) + 1
            )

    def merge(self, other: "PlanProfile") -> None:
        """Fold *other* into this profile (clients sharing one signature).

        Counters add; EWMAs combine weighted by the tick counts behind
        them, so a client with a long history dominates a fresh one.
        """
        if other.ticks == 0:
            return
        if self.ticks == 0:
            weight_self, weight_other = 0.0, 1.0
        else:
            total = self.ticks + other.ticks
            weight_self, weight_other = self.ticks / total, other.ticks / total
        self.ewma_plan_seconds = (
            weight_self * self.ewma_plan_seconds
            + weight_other * other.ewma_plan_seconds
        )
        self.ewma_execute_seconds = (
            weight_self * self.ewma_execute_seconds
            + weight_other * other.ewma_execute_seconds
        )
        self.ewma_windows_per_tick = (
            weight_self * self.ewma_windows_per_tick
            + weight_other * other.ewma_windows_per_tick
        )
        busy_total = self.busy_ticks + other.busy_ticks
        if busy_total:
            self.ewma_run_length = (
                self.busy_ticks * self.ewma_run_length
                + other.busy_ticks * other.ewma_run_length
            ) / busy_total
        self.ticks += other.ticks
        self.busy_ticks += other.busy_ticks
        self.windows_run += other.windows_run
        self.window_runs += other.window_runs
        self.windows_deferred += other.windows_deferred
        self.events_emitted += other.events_emitted
        self.plan_seconds += other.plan_seconds
        self.execute_seconds += other.execute_seconds
        self.fallback_ticks += other.fallback_ticks
        for bucket, count in other.run_length_histogram.items():
            self.run_length_histogram[bucket] = (
                self.run_length_histogram.get(bucket, 0) + count
            )

    # -- derived measurements ----------------------------------------------

    @property
    def mean_run_length(self) -> float:
        """Lifetime mean windows per maximal consecutive run (0 if none)."""
        return self.windows_run / self.window_runs if self.window_runs else 0.0

    @property
    def deferral_ratio(self) -> float:
        """Deferred windows per executed window (watermark fragmentation)."""
        return self.windows_deferred / self.windows_run if self.windows_run else 0.0

    @property
    def fragmented(self) -> bool:
        """Whether busy ticks see more than one run on average — i.e. the
        coverage has gaps that eager enumeration would walk for nothing."""
        return self.busy_ticks > 0 and self.window_runs > self.busy_ticks

    @property
    def longest_run_bucket(self) -> int:
        """Largest populated power-of-two run-length bucket (1 if none)."""
        return max(self.run_length_histogram, default=1)

    @property
    def elapsed_seconds(self) -> float:
        """Total observed wall-clock seconds."""
        return self.plan_seconds + self.execute_seconds

    # -- hint derivation ----------------------------------------------------

    def hints(self) -> "CompileHints":
        """Compile-time choices this profile recommends.

        * ``max_run_windows`` — run buffers should hold the longest runs the
          coverage actually forms (next power of two above the largest
          histogram bucket), instead of the static 512-window worst case.
        * ``targeted`` — fragmented coverage keeps targeted enumeration
          (eager would walk the gaps); dense streams have no opinion, since
          targeted and eager then visit the same windows.
        """
        from repro.core.compiler.hints import CompileHints

        max_run_windows = None
        if self.busy_ticks:
            max_run_windows = min(
                max(
                    _pow2_at_least(2 * self.longest_run_bucket),
                    MIN_HINTED_RUN_WINDOWS,
                ),
                MAX_HINTED_RUN_WINDOWS,
            )
        targeted = True if self.fragmented else None
        return CompileHints(
            max_run_windows=max_run_windows,
            targeted=targeted,
            reason=(
                f"profile: {self.ticks} tick(s), {self.windows_run} window(s) in "
                f"{self.window_runs} run(s) (mean length {self.mean_run_length:.1f}), "
                f"{self.windows_deferred} deferred, "
                f"{self.fallback_ticks} fallback tick(s)"
            ),
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON representation (histogram keys become strings)."""
        return {
            "format": PROFILE_FORMAT,
            "ticks": self.ticks,
            "busy_ticks": self.busy_ticks,
            "windows_run": self.windows_run,
            "window_runs": self.window_runs,
            "windows_deferred": self.windows_deferred,
            "events_emitted": self.events_emitted,
            "plan_seconds": self.plan_seconds,
            "execute_seconds": self.execute_seconds,
            "fallback_ticks": self.fallback_ticks,
            "ewma_plan_seconds": self.ewma_plan_seconds,
            "ewma_execute_seconds": self.ewma_execute_seconds,
            "ewma_windows_per_tick": self.ewma_windows_per_tick,
            "ewma_run_length": self.ewma_run_length,
            "run_length_histogram": {
                str(bucket): count
                for bucket, count in sorted(self.run_length_histogram.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        profile = cls(
            ticks=int(payload.get("ticks", 0)),
            busy_ticks=int(payload.get("busy_ticks", 0)),
            windows_run=int(payload.get("windows_run", 0)),
            window_runs=int(payload.get("window_runs", 0)),
            windows_deferred=int(payload.get("windows_deferred", 0)),
            events_emitted=int(payload.get("events_emitted", 0)),
            plan_seconds=float(payload.get("plan_seconds", 0.0)),
            execute_seconds=float(payload.get("execute_seconds", 0.0)),
            fallback_ticks=int(payload.get("fallback_ticks", 0)),
            ewma_plan_seconds=float(payload.get("ewma_plan_seconds", 0.0)),
            ewma_execute_seconds=float(payload.get("ewma_execute_seconds", 0.0)),
            ewma_windows_per_tick=float(payload.get("ewma_windows_per_tick", 0.0)),
            ewma_run_length=float(payload.get("ewma_run_length", 0.0)),
        )
        profile.run_length_histogram = {
            int(bucket): int(count)
            for bucket, count in payload.get("run_length_histogram", {}).items()
        }
        return profile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanProfile {self.ticks} tick(s), {self.windows_run} window(s), "
            f"mean run {self.mean_run_length:.1f}>"
        )

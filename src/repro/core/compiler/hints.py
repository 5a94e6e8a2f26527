"""Profile-derived compilation hints.

Compilation normally fixes every tunable — fusion boundaries, the
vectorized run cap, targeted-vs-eager enumeration, the execution backend —
once, from static heuristics, before a single window has run.
:class:`CompileHints` is the feedback path back into the compiler: a
small, immutable record of the choices a runtime profile
(:class:`~repro.core.runtime.profile.PlanProfile`) recommends, threaded
through :func:`~repro.core.compiler.compile_plan` into the pass pipeline.

Hints are *advisory*: every field defaults to ``None`` ("keep the static
decision"), each pass consumes only the fields it understands, and a plan
compiled with hints executes bit-identically to one compiled without —
hints only move work between equivalent execution strategies.  The
adaptive serving layer (:mod:`repro.serve.service`) compiles hot plan
signatures a second time with hints derived from their merged profiles and
hot-swaps the result into live sessions at a tick boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompilationError


@dataclass(frozen=True)
class CompileHints:
    """Profile-driven overrides for the pass pipeline and backend choice.

    ``None`` in any field means "no opinion" — the pipeline keeps its
    static default for that decision.
    """

    #: Cap on windows per contiguous run buffer for the vectorized backend.
    max_run_windows: int | None = None
    #: Cut fused element-wise chains at this many stages (fusion boundary).
    max_fusion_length: int | None = None
    #: Enumerate output windows from coverage (True) or the eager span (False).
    targeted: bool | None = None
    #: Execution backend name the profile recommends (informational; the
    #: serving layer builds the backend via ``recommend_backend``).
    backend: str | None = None
    #: Human-readable provenance ("profile: 12 ticks, mean run 23.5 ...").
    reason: str = ""

    def __post_init__(self) -> None:
        for field_name in ("max_run_windows", "max_fusion_length"):
            value = getattr(self, field_name)
            if value is not None and value < 1:
                raise CompilationError(
                    f"hint {field_name} must be positive, got {value}"
                )
        if self.max_fusion_length is not None and self.max_fusion_length < 2:
            raise CompilationError(
                f"hint max_fusion_length must be at least 2 (a fused chain "
                f"needs two stages), got {self.max_fusion_length}"
            )

    def cache_key(self) -> tuple:
        """Hashable identity of the hints *as the compiler sees them*.

        Only :attr:`max_fusion_length` is read by the pass pipeline; the run
        cap, the enumeration mode and the backend are runtime choices made
        on the same compiled template.  Keying on them would make clients
        whose profiles differ only in run length recompile byte-identical
        plans, each burning a plan-cache slot.  A pass that starts reading
        another field must add it here.
        """
        return ("compile-hints", self.max_fusion_length)

    def describe(self) -> str:
        """Compact one-line summary for ``explain()`` and log lines."""
        parts = []
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.max_run_windows is not None:
            parts.append(f"max_run_windows={self.max_run_windows}")
        if self.max_fusion_length is not None:
            parts.append(f"max_fusion_length={self.max_fusion_length}")
        if self.targeted is not None:
            parts.append(f"targeted={self.targeted}")
        return ", ".join(parts) if parts else "no overrides"

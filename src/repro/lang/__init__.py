"""LSQL: the declarative text front-end for LifeStream queries.

An LSQL program declares periodic sources, pipes them through the temporal
operators with ``|>``, and names one sink — the query root::

    source ecg rate 500hz;
    source abp rate 125hz;
    let ecg_clean = ecg
      |> transform(window=1s, kernel=fill_mean(32))
      |> transform(window=1s, kernel=zscore());
    let abp_norm = abp
      |> transform(window=1s, kernel=fill_mean(8))
      |> resample(rate=500hz, mode="interpolate")
      |> transform(window=1s, kernel=zscore());
    sink joined = join(ecg_clean, abp_norm, combine=sub);

:func:`compile_text` parses and resolves a program into the same query spec
DAG the Python builders produce — verified by equal spec digests
(:func:`~repro.serve.cache.plan_signature`), so the serving layer's
:class:`~repro.serve.cache.PlanCache` shares compiled templates across the
two authoring paths.  All parse/resolve failures are
:class:`~repro.analysis.diagnostics.Diagnostic` findings (stable ``LS4xx``
codes anchored ``file:line:col``), never raw exceptions.

CLI: ``python -m repro.lang [parse|explain|run] FILE [--format text|json]``.
"""

from repro.lang.formatter import format_program
from repro.lang.parser import ParseResult, parse
from repro.lang.resolver import ResolvedProgram, compile_text, resolve
from repro.lang.runner import run_resolved, synthesize_sources
from repro.lang.tokens import tokenize

__all__ = [
    "ParseResult",
    "ResolvedProgram",
    "compile_text",
    "format_program",
    "parse",
    "resolve",
    "run_resolved",
    "synthesize_sources",
    "tokenize",
]

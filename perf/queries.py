"""The queries the workloads submit.

Python-built queries use module-level functions, never inline lambdas, so
structurally equal clients share one ``PlanCache`` template.  The LSQL
catalog is plain text: the benchmark hands it to ``repro.lang.compile_text``
exactly as a text client would.
"""

from __future__ import annotations

import numpy as np

FUNCS = ("mean", "max", "min", "std")


def _despike(values):
    return np.abs(values) < 8.0


def _rescale(values):
    return values * 1.25 + 0.5


def _amplitude_ok(values):
    return np.abs(values) < 3.5


def vitals():
    """Per-bed trend: despike, rescale, 250 ms tumbling mean over ``ecg``."""
    from repro import Query

    return (
        Query.source("ecg", frequency_hz=500)
        .where(_despike)
        .select(_rescale)
        .tumbling_window(250)
        .mean()
    )


def fig3(resample_mode: str):
    """The paper's Figure 3 pipeline over sources ``ecg`` and ``abp``."""
    from repro.pipelines.e2e import lifestream_e2e_query

    return lifestream_e2e_query(resample_mode=resample_mode)


def dashboard(index: int):
    """Dashboard tenant *index*: a shared cleaning prefix over ``s`` and one
    of 16 distinct aggregate tails (4 functions x 4 windows)."""
    from repro import Query
    from repro.ops import kernels

    prefix = (
        Query.source("s", frequency_hz=500)
        .transform(1000, kernels.fill_mean_kernel(32))
        .transform(1000, kernels.zscore_kernel())
        .where(_amplitude_ok)
        .resample(frequency_hz=250, mode="interpolate")
    )
    window = 400 + 200 * ((index // len(FUNCS)) % 4)
    return prefix.aggregate(window, func=FUNCS[index % len(FUNCS)])


def fig3_stages():
    """Each stage of Figure 3 as a query of its own: ``{stage: (query, names)}``.

    ``names`` are the workload inputs the stage reads; the join stage reads
    the ABP signal already resampled to the ECG grid (source ``abp500``).
    """
    from repro import Query
    from repro.ops import combine, kernels

    ecg = Query.source("ecg", frequency_hz=500)
    abp = Query.source("abp", frequency_hz=125)
    return {
        "fill_mean": (ecg.transform(1000, kernels.fill_mean_kernel(32)), ("ecg",)),
        "zscore": (ecg.transform(1000, kernels.zscore_kernel()), ("ecg",)),
        "resample": (abp.resample(frequency_hz=500, mode="interpolate"), ("abp",)),
        "join": (
            ecg.join(Query.source("abp500", frequency_hz=500), combine.sub),
            ("ecg", "abp500"),
        ),
    }


def lsql_catalog() -> list[tuple[str, tuple[str, ...]]]:
    """48 structurally distinct LSQL programs as ``(text, source names)``.

    Sources are ``s`` (500 Hz) and ``a`` (125 Hz).  Every program emits its
    first event within the first few stream-seconds at a 1 s window size.
    The list is in popularity order (position = Zipf rank) and interleaves
    the program families, so the hot set mixes cheap single-stream trends
    with two-stream joins.
    """
    s = "source s rate 500hz;\n"
    a = "source a rate 125hz;\n"
    cleaned = (
        "transform(window=1s, kernel=fill_mean(32)) |> transform(window=1s, kernel=zscore())"
    )
    both = (
        f"{s}{a}let left = s |> {cleaned};\n"
        "let right = a |> transform(window=1s, kernel=fill_mean(8)) "
        '|> resample(rate=500hz, mode="MODE") |> transform(window=1s, kernel=zscore());\n'
    )
    families = [
        [(f"{s}sink out = s |> where(fn=abs_below(8.0)) |> select(fn=scale(1.25, 0.5)) "
          f"|> {func}(window={window});", ("s",))
         for func in FUNCS for window in ("250ms", "500ms", "1s")],
        [(f"{s}sink out = s |> {cleaned} |> {func}(window={window});", ("s",))
         for func in FUNCS for window in ("500ms", "1s")],
        [(f"{a}sink out = a |> transform(window=1s, kernel=fill_mean(8)) "
          f'|> resample(rate={rate}, mode="{mode}") |> mean(window=1s);', ("a",))
         for rate in ("250hz", "500hz") for mode in ("hold", "interpolate")],
        [(f"{a}sink out = a |> transform(window=1s, kernel=clamp(40.0, 140.0)) "
          f"|> {func}(window=1s);", ("a",))
         for func in FUNCS],
        [(f"{both.replace('MODE', mode)}sink out = join(left, right, combine={combiner});",
          ("s", "a"))
         for mode in ("hold", "interpolate") for combiner in ("sub", "add", "mul")],
        [(f"{both.replace('MODE', 'hold')}"
          f"sink out = join(left, right, combine={combiner}) |> {func}(window=1s);", ("s", "a"))
         for combiner in ("sub", "add") for func in ("mean", "std")],
        [(f"{s}sink out = s |> select(fn=scale(2.0)) "
          f'|> aggregate(window=1s, stride=500ms, func="{func}");', ("s",))
         for func in FUNCS + ("sum",)],
        [(f"{s}sink out = s |> where(fn=above({threshold})) |> count(window=1s);", ("s",))
         for threshold in ("0.0", "1.0")],
        [(f"{s}sink out = s |> shift(offset={offset}) |> where(fn=below(2.5)) "
          f"|> max(window=500ms);", ("s",))
         for offset in ("250ms", "500ms", "1s")],
    ]
    ranked = []
    for position in range(max(len(family) for family in families)):
        ranked.extend(family[position] for family in families if position < len(family))
    return ranked

"""Name registries of the LSQL resolver.

LSQL programs name kernels (``fill_mean(32)``), shapes (``line_zero(250)``),
combiners (``sub``) and element-wise functions (``scale(2.0)``).  The
registries map those names onto *the same module-level factory objects the
Python builders use* — :mod:`repro.ops.kernels`, :mod:`repro.ops.combine`,
:mod:`repro.data.artifacts` — so a resolved query's callables fingerprint
identically to builder-made ones, every node digests the same and
:func:`~repro.serve.cache.plan_signature` equality holds across the two
authoring paths (the :class:`~repro.serve.cache.PlanCache` then shares one
compiled template between them).
"""

from __future__ import annotations

import numpy as np

from repro.data.artifacts import line_zero_template
from repro.ops import kernels
from repro.ops.combine import COMBINERS

#: Window-kernel factories usable inside ``transform(kernel=...)``.
#: Values are the builder-path factories themselves: calling them from here
#: or from Python produces closure-equal kernels.
KERNELS = {
    "zscore": kernels.zscore_kernel,
    "fill_mean": kernels.fill_mean_kernel,
    "fill_const": kernels.fill_const_kernel,
    "interpolate": kernels.interpolate_gaps_kernel,
    "clamp": kernels.clamp_kernel,
    "fir": kernels.fir_filter_kernel,
}

#: Shape-template factories usable inside ``where_shape(shape=...)``.
SHAPES = {
    "line_zero": line_zero_template,
}


# Element-wise function factories for ``select(fn=...)`` / ``where(fn=...)``.
# Module-level named factories (not inline lambdas at the call site) for the
# same fingerprint-stability reason as repro.ops.combine.


def scale(gain: float, offset: float = 0.0):
    """``v * gain + offset`` — a linear projection for ``select``."""

    def apply(values: np.ndarray) -> np.ndarray:
        return values * gain + offset

    return apply


def above(threshold: float):
    """``v > threshold`` — a predicate for ``where``."""

    def apply(values: np.ndarray) -> np.ndarray:
        return values > threshold

    return apply


def below(threshold: float):
    """``v < threshold`` — a predicate for ``where``."""

    def apply(values: np.ndarray) -> np.ndarray:
        return values < threshold

    return apply


def abs_below(limit: float):
    """``|v| < limit`` — a band-pass predicate for ``where``."""

    def apply(values: np.ndarray) -> np.ndarray:
        return np.abs(values) < limit

    return apply


#: Element-wise factories usable inside ``select(fn=...)``/``where(fn=...)``.
FUNCTIONS = {
    "scale": scale,
    "above": above,
    "below": below,
    "abs_below": abs_below,
}

#: Combiner names usable inside ``join(..., combine=...)``; see
#: :mod:`repro.ops.combine`.
__all__ = ["KERNELS", "SHAPES", "FUNCTIONS", "COMBINERS"]

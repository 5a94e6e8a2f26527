"""Named binary combiners for join operators.

Joins take a ``combine(left, right)`` callable.  Inline lambdas work, but
every lambda is a distinct code object compiled at a distinct site, so two
authoring paths building "the same" join (the Python builders and the LSQL
front-end) would produce specs with different digests, so different
:func:`~repro.serve.cache.plan_signature`\\ s, and the
:class:`~repro.serve.cache.PlanCache` could never share them.  Referencing
one of these module-level functions from both paths makes the fingerprints
trivially identical — the LSQL resolver maps the combiner names of the
grammar (``sub``, ``add``, ...) onto exactly these objects.
"""

from __future__ import annotations

import numpy as np


def sub(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left - right`` (the Figure 3 pipeline's ECG−ABP combiner)."""
    return left - right


def add(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left + right``."""
    return left + right


def mul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left * right``."""
    return left * right


def div(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left / right`` (NaN/inf semantics follow NumPy)."""
    return left / right


def first(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Keep the left payload (pairing join that only gates on the right)."""
    return left


def second(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Keep the right payload."""
    return right


#: Grammar-visible combiner names, as the LSQL resolver exposes them.
COMBINERS = {
    "sub": sub,
    "add": add,
    "mul": mul,
    "div": div,
    "first": first,
    "second": second,
}

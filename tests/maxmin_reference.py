"""Per-point and sorted forms of the max-min kernels, kept as references
for the tests: the strict ordering of the base values, the sorted tie
rule of the realized base and the one-row tie set."""

import numpy as np

from maxminlyap.maxmin import selected_base, tie_mask
from maxminlyap.policy import DEFAULT_POLICY


def strict_ordering(vals):
    """Permutation sorting the values ascending, or None on any tie."""
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    if np.any(np.diff(sv) <= 0.0):
        return None
    return tuple(int(i) + 1 for i in order)


def equal_value_indices(spec, basis, x, policy=DEFAULT_POLICY):
    """Indices whose base value ties with V(x): the one-row ``tie_mask``."""
    mask, v = tie_mask(spec, basis, np.asarray(x, dtype=float)[None], policy)
    return tuple(k for k, tied in enumerate(mask[0].tolist(), start=1) if tied), v[0]


def realized_base(spec, vals):
    """Active base per row of vals[S, K], or 0 where two values tie: a
    row is tied when a gap of its ascending sort is <= 0."""
    vals = np.asarray(vals, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
        tied = np.any(np.diff(np.sort(vals, axis=1), axis=1) <= 0.0, axis=1)
    return np.where(tied, 0, selected_base(spec, vals))

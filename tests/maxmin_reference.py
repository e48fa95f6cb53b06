"""Per-point and sorted forms of the max-min kernels, kept as references
for the tests: the strict ordering of the base values, the sorted tie
rule of the realized base, the one-row tie set, an expression basis's
values and gradients one row at a time, and the batched active sets
built one ``ActiveSet`` per row (the planar sweep and the perturbation
sampler as they were before the active sets became one mask)."""

import math

import numpy as np

from maxminlyap.errors import InvalidInputError
from maxminlyap.maxmin import (
    EXACT_SMOOTH,
    EXACT_SWEEP,
    PERTURBATION_SAMPLED,
    PROBE_ROWS,
    SAMPLED_DIRECTIONS,
    ActiveSet,
    QuadraticBasis,
    realized_base as realized_base_by_pairs,
    selected_base,
    tie_mask,
)
from maxminlyap.numkernel import as_points, row_norms, sphere_points
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


def expr_values(basis, X):
    """``ExprBasis.values`` at each row of X[S, n], one point call per row."""
    fn = basis._values_compiled
    return np.array([fn(row) for row in X]).reshape(len(X), basis.K)


def expr_gradient(basis, k, X):
    """``ExprBasis.gradient`` of base k at each row of X[S, n], one point
    call per row."""
    fn = basis._gradients_compiled[k - 1]
    return np.array([fn(row) for row in X]).reshape(np.shape(X))


def active_sets(spec, basis, X, policy=DEFAULT_POLICY, ties=None):
    """One ``ActiveSet`` per row of X[S, n]: the unique tie, else the planar
    sweep (2-D quadratic bases), else perturbation sampling."""
    X = as_points(X, basis.dim, "points", max_ndim=2).reshape(-1, basis.dim)
    if not np.isfinite(X).all():
        raise InvalidInputError("active set: a point has non-finite entries")
    if ties is None:
        ties, _ = tie_mask(spec, basis, X, policy)
    count = ties.sum(axis=1)
    out = [
        ActiveSet(indices=(k + 1,), method=EXACT_SMOOTH) if c == 1 else None
        for c, k in zip(count.tolist(), ties.argmax(axis=1).tolist())
    ]
    rows = np.flatnonzero(count != 1)
    if len(rows) and isinstance(basis, QuadraticBasis) and basis.dim == 2:
        swept = planar_sweep(spec, basis, X[rows], policy)
        for r, got in zip(rows.tolist(), swept):
            out[r] = got
        rows = rows[[got is None for got in swept]]
    if len(rows):
        for r, got in zip(rows.tolist(), sampled_active(spec, basis, X[rows], ties[rows], policy)):
            out[r] = got
    return out


def planar_sweep(spec, basis, X, policy):
    """The swept ``ActiveSet`` of each row of X[S, 2], or None where the
    arc table cannot decide, built row by row from the probe labels."""
    if basis._circle_roots is None:
        return [None] * len(X)
    ends = np.array(basis._circle_roots)
    ext = np.append(ends, ends[0] + math.pi) if len(ends) else np.array([-0.5, 0.5]) * math.pi
    mids = 0.5 * (ext[:-1] + ext[1:])
    label = realized_base_by_pairs(spec, basis.values(np.stack([np.cos(mids), np.sin(mids)], axis=1)))
    whole = tuple(sorted(set(label[np.diff(ext) > 1e-12].tolist()) - {0}))

    theta0 = np.arctan2(X[:, 1], X[:, 0])
    d = np.abs(theta0[:, None] - ends) % math.pi
    d = np.minimum(d, math.pi - d)
    gap = np.where(d > 1e-12, d, np.inf).min(axis=1, initial=np.inf)
    delta = np.minimum(gap / 2.0, math.pi / 16.0)
    probes = np.concatenate([theta0 - delta, theta0 + delta]) % math.pi
    sides = label[np.searchsorted(ends, probes, side="right") - 1].reshape(2, -1)
    origin = (row_norms(X) <= policy.abs_tol).tolist()
    found = [
        whole if o else tuple(sorted({a, b})) if a and b else ()
        for o, a, b in zip(origin, *sides.tolist())
    ]
    return [ActiveSet(indices=f, method=EXACT_SWEEP) if f else None for f in found]


def sampled_active(spec, basis, X, ties, policy):
    """The sampled ``ActiveSet`` of each row of X[S, n], built row by row
    from the bases its probes realized."""
    dirs = sphere_points(basis.dim, SAMPLED_DIRECTIONS, np.random.default_rng(policy.seed))
    warning = None
    if isinstance(basis, QuadraticBasis):
        for i in range(basis.K):
            for j in range(i + 1, basis.K):
                if np.abs(basis.matrices[i] - basis.matrices[j]).max() == 0.0:
                    warning = f"bases {i + 1} and {j + 1} are identical"
    radii = (policy.rel_tol * np.maximum(1.0, row_norms(X)))[:, None] * np.array([1.0, 2.0, 4.0])
    out = []
    for lo in range(0, len(X), PROBE_ROWS):
        chunk = slice(lo, lo + PROBE_ROWS)
        probes = X[chunk, None, None, :] + radii[chunk, :, None, None] * dirs
        base = realized_base_by_pairs(spec, basis.values(probes.reshape(-1, basis.dim)))
        seen = np.zeros((len(probes), basis.K + 1), dtype=bool)
        seen[np.arange(len(probes))[:, None], base.reshape(len(probes), -1)] = True
        for hit, tied in zip(seen[:, 1:].tolist(), ties[chunk].tolist()):
            found = tuple(k for k, h in enumerate(hit, start=1) if h)
            if found:
                out.append(ActiveSet(indices=found, method=PERTURBATION_SAMPLED, warning=warning))
                continue
            out.append(ActiveSet(
                indices=(tied.index(True) + 1,),
                method=PERTURBATION_SAMPLED,
                warning=warning or "perturbation sampling found no strict ordering",
            ))
    return out

"""Set-valued derivatives of max-min functions along switched dynamics.

At a point x the admissible velocities form the convex hull of the
adjacent mode fields, parameterized by weights in the probability
simplex.  Both derivatives, and the certifier's planar margin, are read
off one table of products grad V_k(x) . f_i(x).  The set-valued Lie
derivative keeps only the weights for which every essentially-active
gradient sees the same directional value (a small homogeneous linear
system on the simplex, solved in closed form for one equation and by
vertex enumeration otherwise); the Clarke derivative is the full (more
conservative) interval of the table entries.

One batched kernel does this for a group of rows that share their
numbers of gradients and fields: ``_dots`` gives the product tables,
``_weights`` the extreme weights of every row (the closed form
vectorised slot by slot over the rows), ``_lie_values`` the Lie range.
The sampled decrease check takes the active-base mask of its nonsmooth
samples from ``maxmin.active_masks``, groups the samples by that mask
and their adjacent-mode mask, and makes one kernel call per group; its
report keeps the values, bounds and verdicts as columns.
``lambda_set``, ``VertexTable`` and the certifier's planar lines
(``lie_sets``) are its one-row and few-row calls; ``vertex_table``
builds the table at one point from ``maxmin.active_indices``, whose
active set carries its gradient vertices, and the adjacent mode fields.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InternalCheckError, InvalidInputError
from .maxmin import ActiveSet, active_indices, active_masks, tie_mask
from .numkernel import by_column
from .policy import DEFAULT_POLICY

EMPTY = "empty"
POINT = "point"
SEGMENT = "segment"
POLYTOPE = "polytope"
FULL = "full-simplex"


@dataclass(frozen=True)
class SimplexSet:
    """Solution set of the equalization system inside the simplex.

    ``vertices`` are the extreme points (weight vectors, nonnegative,
    summing to one); the set itself is their convex hull.
    """

    kind: str
    m: int
    vertices: tuple  # tuple of ndarray

    @property
    def is_empty(self):
        return self.kind == EMPTY


@dataclass(frozen=True)
class LieSet:
    """Closed interval of set-valued Lie derivative values, possibly empty.

    The convention max(empty) = -inf is left to callers; emptiness is an
    explicit status, never a sentinel float.
    """

    empty: bool
    lo: float = 0.0
    hi: float = 0.0

    @classmethod
    def empty_set(cls):
        return cls(empty=True)


@dataclass(frozen=True)
class ClarkeSet:
    """Interval of all gradient/velocity products (always nonempty)."""

    lo: float
    hi: float


def lambda_set(gradients, fields, policy=DEFAULT_POLICY):
    """Simplex weights making all active gradients agree on the velocity.

    gradients: one n-vector per essentially-active base (p of them).
    fields:    one n-vector per adjacent mode (m of them).
    Solves the p-1 equations (g_{k+1} - g_k) . sum_j w_j f_j = 0 over the
    probability simplex: the one-row ``_weights``.
    """
    grads = [np.asarray(g, dtype=float) for g in gradients]
    flds = [np.asarray(f, dtype=float) for f in fields]
    if not grads or not flds:
        raise InvalidInputError("lambda_set needs at least one gradient and field")
    W, keep, full = _weights(np.array(grads)[None], np.array(flds)[None], policy)
    return _simplex_set(W[0], keep[0], full[0])


def _simplex_set(W, keep, full):
    """The ``SimplexSet`` of one row of ``_weights``."""
    vertices = tuple(W[keep])
    kind = FULL if full else {0: EMPTY, 1: POINT, 2: SEGMENT}.get(len(vertices), POLYTOPE)
    return SimplexSet(kind=kind, m=W.shape[1], vertices=vertices)


def _dots(A, B):
    """out[R, a, b] = A[r, a] . B[r, b], each a 1-D dot product (so bit
    for bit ``A[r, a] @ B[r, b]``)."""
    return np.vecdot(A[:, :, None], B[:, None])


def _weights(G, F, policy):
    """Extreme equalizing weights of R rows with gradients G[R, p, n] and
    fields F[R, m, n]: W[R, V, m] with keep[R, V] marking each row's
    vertices in order, and full[R] where no equation is live (the whole
    simplex, vertices e_1..e_m).

    With one live equation c . w = 0 the vertices are the e_j with
    |c_j| <= tol, then per pair i < j the solution w_i = c_j / (c_j - c_i),
    w_j = -c_i / (c_j - c_i) that passes the rank test and the
    negative-weight floor and is not within 1e-9 of an earlier vertex:
    the slots are decided one at a time, for every row at once.  Rows
    with two or more live equations enumerate supports
    (``_vertices_by_support``), one row at a time.
    """
    R, p, m = G.shape[0], G.shape[1], F.shape[1]
    pairs = list(itertools.combinations(range(m), 2))
    W = np.zeros((R, m + len(pairs), m))
    W[:, :m] = np.eye(m)
    keep = np.zeros(W.shape[:2], dtype=bool)
    if p == 1:
        keep[:, :m] = True
        return W, keep, np.ones(R, dtype=bool)
    C = _dots(G[:, 1:] - G[:, :-1], F)
    scale = np.maximum(1.0, np.abs(C).max(axis=(1, 2)))
    tol = policy.abs_tol + policy.rel_tol * scale
    live = np.abs(C).max(axis=2) > tol[:, None]
    count = live.sum(axis=1)
    c = C[np.arange(R), live.argmax(axis=1)]  # the first live equation
    keep[:, :m] = np.abs(c) <= tol[:, None]
    floor = -np.maximum(tol / scale, 1e-12)  # weights do not scale with C
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, (i, j) in enumerate(pairs, start=m):
            ci, cj = c[:, i], c[:, j]
            d = cj - ci
            # smallest singular value of [[1, 1], [c_i, c_j]] is |d| / sigma_max
            frob = 2.0 + ci * ci + cj * cj
            sigma_max = np.sqrt(0.5 * (frob + np.sqrt(np.maximum(frob * frob - 4.0 * d * d, 0.0))))
            ok = ~(np.abs(d) <= 1e-12 * np.maximum(np.maximum(1.0, np.abs(ci)), np.abs(cj)) * sigma_max)
            wi, wj = cj / d, -ci / d
            ok &= ~(np.minimum(wi, wj) < floor)
            wi, wj = np.where(wi < 0.0, 0.0, wi), np.where(wj < 0.0, 0.0, wj)
            W[:, s, i], W[:, s, j] = wi / (wi + wj), wj / (wi + wj)
            near = np.abs(W[:, s, None] - W[:, :s]).max(axis=2) <= 1e-9
            keep[:, s] = ok & ~(near & keep[:, :s]).any(axis=1)
    full = count == 0
    keep[full] = np.arange(W.shape[1]) < m
    general = {
        r: _vertices_by_support(C[r][live[r]], m, float(tol[r]))
        for r in np.flatnonzero(count > 1).tolist()
    }
    V = max([W.shape[1]] + [len(v) for v in general.values()])
    if V > W.shape[1]:
        W = np.concatenate([W, np.zeros((R, V - W.shape[1], m))], axis=1)
        keep = np.concatenate([keep, np.zeros((R, V - keep.shape[1]), dtype=bool)], axis=1)
    for r, verts in general.items():
        W[r], keep[r] = 0.0, False
        if verts:
            W[r, : len(verts)], keep[r, : len(verts)] = verts, True
    return W, keep, full


def _vertices_by_support(C, m, tol):
    """Basic feasible solutions of {w >= 0, sum w = 1, C w = 0}: each has
    at most rows + 1 nonzero weights, so every such support is tried.
    Each support is judged at the vertex it returns: the least-squares
    solution, rescaled to sum 1 (none if its sum is not positive), holds
    the rows of C to ``tol`` and its weights to the scale-free floor."""
    rows = C.shape[0]
    floor = -max(tol / max(1.0, float(np.abs(C).max())), 1e-12)  # weights do not scale with C
    verts = []
    for size in range(1, min(m, rows + 1) + 1):
        for support in itertools.combinations(range(m), size):
            E = np.vstack([np.ones((1, size)), C[:, support]])
            rhs = np.zeros(rows + 1)
            rhs[0] = 1.0
            if np.linalg.matrix_rank(E, tol=1e-12 * max(1.0, np.abs(E).max())) < size:
                continue
            sol = np.linalg.lstsq(E, rhs, rcond=None)[0]
            if not sol.sum() > 0.0:
                continue
            sol /= sol.sum()
            if np.abs(C[:, support] @ sol).max() > tol or sol.min() < floor:
                continue
            w = np.zeros(m)
            w[list(support)] = np.clip(sol, 0.0, None)
            w /= w.sum()
            if not any(np.abs(w - v).max() <= 1e-9 for v in verts):
                verts.append(w)
    return verts


def _lie_values(T, W, keep, policy):
    """The Lie range of R rows with product tables T[R, p, m] and
    ``_weights`` W, keep: per row the least and largest first table row
    at a kept weight (-inf for hi, +inf for lo where none is kept), and
    the first spread between the table rows at a kept weight that
    exceeds 100 tol (NaN where none does).

    Each table-times-weight product is one contiguous matrix-vector
    product, as ``table @ w`` at a single row.
    """
    r, s = np.nonzero(keep)
    per = (T[r] @ W[r, s][:, :, None])[:, :, 0]
    tol = 100.0 * (policy.abs_tol + policy.rel_tol * np.maximum(1.0, np.abs(T).max(axis=(1, 2))))
    spread = per.max(axis=1) - per.min(axis=1)
    bad = np.flatnonzero(spread > tol[r])
    disagree = np.full(len(T), np.nan)
    if len(bad):
        first = bad[np.unique(r[bad], return_index=True)[1]]
        disagree[r[first]] = spread[first]
    values = np.zeros(keep.shape)
    values[r, s] = per[:, 0]
    lo, hi = np.where(keep, values, np.inf), np.where(keep, values, -np.inf)
    return _pick(lo, lo.argmin(axis=1)), _pick(hi, hi.argmax(axis=1)), disagree


def _pick(A, index):
    return A[np.arange(len(A)), index]


def _require_agreement(disagree):
    """InternalCheckError for the first row of ``_lie_values`` whose
    active gradients disagree on an equalized velocity."""
    bad = np.flatnonzero(~np.isnan(disagree))
    if len(bad):
        raise InternalCheckError(
            f"active gradients disagree on an equalized velocity (spread {disagree[bad[0]]:.3e}); "
            "the essentially-active set is over-approximated"
        )


def _table_range(T):
    """The least and the largest entry of each table T[R, p, m]."""
    flat = T.reshape(len(T), -1)
    return _pick(flat, flat.argmin(axis=1)), _pick(flat, flat.argmax(axis=1))


def lie_sets(gradients, fields, policy=DEFAULT_POLICY):
    """The equalizing weights and the Lie set of each row: gradients[r]
    and fields[r] are its gradient vertices and mode fields (n-vectors).
    Rows with the same numbers of each are one kernel call."""
    out = [None] * len(gradients)
    shapes = {}
    for r, (g, f) in enumerate(zip(gradients, fields)):
        shapes.setdefault((len(g), len(f)), []).append(r)
    for rows in shapes.values():
        G = np.array([gradients[r] for r in rows], dtype=float)
        F = np.array([fields[r] for r in rows], dtype=float)
        W, keep, full = _weights(G, F, policy)
        lo, hi, disagree = _lie_values(_dots(G, F), W, keep, policy)
        _require_agreement(disagree)
        for k, r in enumerate(rows):
            lam = _simplex_set(W[k], keep[k], full[k])
            lie = LieSet.empty_set() if lam.is_empty else LieSet(False, float(lo[k]), float(hi[k]))
            out[r] = (lam, lie)
    return out


@dataclass(frozen=True)
class VertexTable:
    """The active set ``hull`` of V at x with its gradient vertices, and the
    adjacent mode ``fields`` there; both derivatives read their products."""

    hull: ActiveSet
    fields: tuple

    def lie(self, policy=DEFAULT_POLICY):
        """The equalizing weights, and the Lie set: the first table row at
        each extreme weight (every other row must agree with it)."""
        return lie_sets([self.hull.vertices], [self.fields], policy)[0]

    def clarke(self):
        """The interval spanned by the table entries grad V_k(x) . f_i(x)."""
        lo, hi = _table_range(_dots(np.array([self.hull.vertices]), np.array([self.fields])))
        return ClarkeSet(lo=float(lo[0]), hi=float(hi[0]))


def vertex_table(spec, basis, sys, x, policy=DEFAULT_POLICY):
    """The ``VertexTable`` at x over the modes adjacent to x (their closure
    test comes first, so its refusal of x is the one raised, and then the
    refusal of a field value that is not finite)."""
    adjacent = sys.index_set(x, policy)
    fields = tuple(sys.field(i, x) for i in adjacent)
    _require_finite_fields(np.asarray(x, dtype=float)[None], np.array([fields]), adjacent)
    return VertexTable(active_indices(spec, basis, x, policy), fields)


def _require_finite_fields(X, fields, indices):
    """InvalidInputError naming the first row of X[S, n] where a field
    fields[S, m, n] of mode indices[m] is not finite."""
    ok = np.isfinite(fields)
    if not ok.all():  # the common case costs one whole-array test
        r, c = np.argwhere(~ok.all(axis=2))[0].tolist()
        raise InvalidInputError(f"the field of mode {indices[c]} is not finite at {X[r].tolist()}")


def lie_derivative(spec, basis, sys, x, policy=DEFAULT_POLICY):
    """Set-valued Lie derivative of the max-min function along the system."""
    return vertex_table(spec, basis, sys, x, policy).lie(policy)[1]


def clarke_derivative(spec, basis, sys, x, policy=DEFAULT_POLICY):
    """Interval of products between gradient vertices and field vertices."""
    return vertex_table(spec, basis, sys, x, policy).clarke()


@dataclass
class DecreaseEntry:
    x: np.ndarray
    value: Optional[float]  # None encodes max(empty) = -inf
    bound: float
    ok: bool


@dataclass
class DecreaseReport:
    """The verdicts of a sampled decrease check, kept as columns over the
    samples it checked: the rows X[S, n], the derivative maxima
    ``values`` (S,) with ``empty`` (S,) marking an empty Lie set (max =
    -inf; its value is then meaningless), the ``bounds`` -rate |x|^2 and
    the per-sample verdicts ``passed``.  ``entries`` are built from the
    columns on first read, ``violations`` only for the failing rows."""

    mode: str  # "lie" | "clarke"
    rate: float
    X: np.ndarray
    values: np.ndarray
    empty: np.ndarray
    bounds: np.ndarray
    passed: np.ndarray
    # each distinct active-set warning, with the number of samples it came from
    warnings: dict = field(default_factory=dict)

    @cached_property
    def entries(self):
        return self._entries(slice(None))

    @property
    def violations(self):
        return self._entries(np.flatnonzero(~self.passed))

    @property
    def ok(self):
        return bool(self.passed.all())

    def _entries(self, rows):
        """The ``DecreaseEntry`` of each of the rows, in order."""
        values = self.values[rows].tolist()
        for r in np.flatnonzero(self.empty[rows]).tolist():
            values[r] = None
        bounds, passed = self.bounds[rows].tolist(), self.passed[rows].tolist()
        return list(map(DecreaseEntry, self.X[rows], values, bounds, passed))


def decrease_check(spec, basis, sys, samples, rate, policy=DEFAULT_POLICY, use_clarke=False):
    """Sampled decrease test: max derivative vs -rate*|x|^2 per point.

    In Lie mode an empty derivative set counts as -inf and never
    violates; the Clarke variant reproduces the conservative test.

    Samples are finite n-vectors (InvalidInputError otherwise); zero
    rows are left out.  One tie mask and one closure mask over all rows
    decide every row.  Where exactly one base ties with V, V is C^1 near
    the point, both derivative sets are grad V_k(x) . co{f_i(x)}, and
    their maximum is the largest product over the adjacent modes.  The
    other rows get their ``active_masks`` in one batch and are grouped by
    active bases and adjacent modes; each group is one ``_dots`` table,
    then one ``_weights`` and ``_lie_values`` call (Lie) or its table
    maximum (Clarke).  Expression fields and bases are evaluated by the
    batch target of their compiled expressions.  The values, bounds and
    verdicts are columns over all rows, and the report keeps them so.
    Its entries equal the per-point ``lie_derivative`` /
    ``clarke_derivative`` ones bit for bit and keep the order of the
    samples; a disagreement of the active gradients is raised for the
    first such sample, and so is an adjacent mode's field value that is
    not finite.
    """
    X = _sample_rows(samples, sys.dim)
    with np.errstate(over="ignore"):  # closure_mask refuses an overflowed |x|^2
        norm2 = np.vecdot(X, X)
    X, norm2 = X[norm2 > 0.0], norm2[norm2 > 0.0]
    if not len(X):
        raise InvalidInputError("decrease_check: empty sample set")
    inside = sys.closure_mask(X, policy)
    ties, _ = tie_mask(spec, basis, X, policy)
    values, smooth = _smooth_maxima(basis, sys, X, ties, inside)
    empty, warnings = np.zeros(len(X), dtype=bool), {}
    off = np.flatnonzero(~smooth)
    if len(off):
        active, _, warning = active_masks(spec, basis, X[off], policy, ties=ties[off])
        grads, fields = _kink_rows(basis, sys, X[off], active, inside[off])
        for text in warning[np.not_equal(warning, None)].tolist():
            warnings[text] = warnings.get(text, 0) + 1
        top, none = np.zeros(len(off)), np.zeros(len(off), dtype=bool)
        disagree = np.full(len(off), np.nan)
        for rows, a, m in _groups(active, inside[off]):
            G, F = grads[rows][:, a], fields[rows][:, m]
            if use_clarke:
                top[rows] = _table_range(_dots(G, F))[1]
                continue
            W, keep, _ = _weights(G, F, policy)
            _, top[rows], disagree[rows] = _lie_values(_dots(G, F), W, keep, policy)
            none[rows] = ~keep.any(axis=1)
        _require_agreement(disagree)
        values[off], empty[off] = top, none
    bounds = -rate * norm2
    return DecreaseReport(
        mode="clarke" if use_clarke else "lie",
        rate=rate,
        X=X,
        values=values,
        empty=empty,
        bounds=bounds,
        passed=empty | (values <= bounds),
        warnings=warnings,
    )


def _sample_rows(samples, dim):
    """The samples as a finite (S, dim) array, or InvalidInputError."""
    try:
        X = np.array(samples, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(
            "decrease_check: samples must be a sequence of equal-length points"
        ) from None
    if X.size == 0:
        raise InvalidInputError("decrease_check: empty sample set")
    if X.ndim != 2 or X.shape[1] != dim:
        raise InvalidInputError(
            f"decrease_check: samples must be {dim}-vectors, got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise InvalidInputError("decrease_check: a sample has non-finite entries")
    return X


def _smooth_maxima(basis, sys, X, ties, inside):
    """Per row of X[S, n] with ``tie_mask`` ties and ``closure_mask``
    inside: max_i grad V_k(x) . f_i(x) over the adjacent modes i, and
    whether that decides the row: exactly one base k ties with V there
    and the maximum is finite and not zero.

    The maximum is the first largest product in mode order, as in both
    per-point derivatives.  A zero maximum is left to them too: on the
    Lie side it is a sum over simplex weights, which may carry the other
    sign of zero.  So is a row with a field value that is not finite,
    which ``_kink_rows`` refuses, whatever its maximum.
    """
    smooth = ties.sum(axis=1) == 1
    grads = by_column(lambda c, rows: basis.gradient(c + 1, rows), X, ties & smooth[:, None])
    grads = grads[np.arange(len(X)), ties.argmax(axis=1)]
    fields = by_column(lambda c, rows: sys.modes[c].field(rows), X, inside & smooth[:, None])
    ok = np.isfinite(fields)
    finite = ok.all() or ok.all(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product decides no row
        products = np.where(inside, _dots(grads[:, None], fields)[:, 0], -np.inf)
    best = np.take_along_axis(products, products.argmax(axis=1)[:, None], axis=1)[:, 0]
    return best, smooth & finite & np.isfinite(best) & (best != 0.0)


def _kink_rows(basis, sys, X, active, inside):
    """The gradients grads[S, K, n] and mode fields fields[S, M, n] at the
    rows of X[S, n] that the active-base mask active[S, K] and the
    ``closure_mask`` inside[S, M] mark.  PartitionError names the first
    row that no region contains, and InvalidInputError the first row with
    a field value that is not finite."""
    for r in np.flatnonzero(~inside.any(axis=1))[:1].tolist():
        sys.adjacent(X[r], inside[r])
    grads = by_column(lambda c, rows: basis.gradient(c + 1, rows), X, active)
    fields = by_column(lambda c, rows: sys.modes[c].field(rows), X, inside)
    _require_finite_fields(X, fields, [m.index for m in sys.modes])
    return grads, fields


def _groups(active, inside):
    """The rows sharing one pair of masks active[S, K], inside[S, M]: per
    group its row indices and the columns each of its two masks marks.

    Groups come in the order of their joined mask rows sorted as bit
    strings (column 0 first, False before True).  Each row's bits are
    packed into bytes, most significant first, and the bytes read as one
    big-endian key, so the keys sort as the rows do whatever K + M is.
    """
    K = active.shape[1]
    masks = np.hstack([active, inside])
    packed = np.packbits(masks, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(group, kind="stable")
    for g, rows in enumerate(np.split(order, np.cumsum(np.bincount(group))[:-1])):
        key = masks[first[g]]
        yield rows, np.flatnonzero(key[:K]), np.flatnonzero(key[K:])

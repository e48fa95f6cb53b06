"""Set-valued derivatives of max-min functions along switched dynamics.

At a point x the admissible velocities form the convex hull of the
adjacent mode fields, parameterized by weights in the probability
simplex.  Both derivatives, and the certifier's planar margin, are read
off one table of products grad V_k(x) . f_i(x) (``VertexTable``).  The
set-valued Lie derivative keeps only the weights for which every
essentially-active gradient sees the same directional value (a small
homogeneous linear system on the simplex, solved in closed form for one
equation and by vertex enumeration otherwise); the Clarke derivative is
the full (more conservative) interval of the table entries.  The sampled
decrease check builds the tables of all its nonsmooth samples from one
tie mask, one closure mask and one batch of active sets, and the table
at a single point (``vertex_table``) is the one-row case of that pass.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InternalCheckError, InvalidInputError
from .maxmin import GradientHull, active_sets, tie_mask
from .numkernel import as_points
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


def _full_simplex(m):
    return SimplexSet(
        kind=FULL, m=m, vertices=tuple(np.eye(m)[j] for j in range(m))
    )


def lambda_set(gradients, fields, policy=DEFAULT_POLICY):
    """Simplex weights making all active gradients agree on the velocity.

    gradients: one n-vector per essentially-active base (p of them).
    fields:    one n-vector per adjacent mode (m of them).
    Solves the p-1 equations (g_{k+1} - g_k) . sum_j w_j f_j = 0 over the
    probability simplex: in closed form when one equation is live (as
    wherever two bases tie), by exact vertex enumeration otherwise.
    """
    grads = [np.asarray(g, dtype=float) for g in gradients]
    flds = [np.asarray(f, dtype=float) for f in fields]
    p, m = len(grads), len(flds)
    if p < 1 or m < 1:
        raise InvalidInputError("lambda_set needs at least one gradient and field")
    if p == 1:
        return _full_simplex(m)

    C = np.array([[(grads[k + 1] - grads[k]) @ f for f in flds] for k in range(p - 1)])
    scale = max(1.0, float(np.abs(C).max()))
    tol = policy.abs_tol + policy.rel_tol * scale
    live = [k for k in range(p - 1) if np.abs(C[k]).max() > tol]
    if not live:
        return _full_simplex(m)

    if len(live) == 1:
        verts = _vertices_one_equation(C[live[0]].tolist(), m, tol)
    else:
        verts = _vertices_by_support(C[live], m, tol)
    if not verts:
        return SimplexSet(kind=EMPTY, m=m, vertices=())
    if len(verts) == 1:
        kind = POINT
    elif len(verts) == 2:
        kind = SEGMENT
    else:
        kind = POLYTOPE
    return SimplexSet(kind=kind, m=m, vertices=tuple(verts))


def _vertices_one_equation(c, m, tol):
    """``_vertices_by_support`` for the one equation c . w = 0: the e_j with
    |c_j| <= tol, then per pair i < j the solution w_i = c_j / (c_j - c_i),
    w_j = -c_i / (c_j - c_i), under the same rank test, negative-weight
    floor and de-duplication."""
    eye = np.eye(m)
    verts = [eye[j] for j in range(m) if abs(c[j]) <= tol]
    for i, j in itertools.combinations(range(m), 2):
        d = c[j] - c[i]
        # smallest singular value of [[1, 1], [c_i, c_j]] is |d| / sigma_max
        frob = 2.0 + c[i] * c[i] + c[j] * c[j]
        sigma_max = math.sqrt(0.5 * (frob + math.sqrt(max(frob * frob - 4.0 * d * d, 0.0))))
        if abs(d) <= 1e-12 * max(1.0, abs(c[i]), abs(c[j])) * sigma_max:
            continue
        wi, wj = c[j] / d, -c[i] / d
        if min(wi, wj) < -max(tol, 1e-12):
            continue
        w = np.zeros(m)
        w[i], w[j] = max(wi, 0.0), max(wj, 0.0)
        w /= w.sum()
        if not any(np.abs(w - v).max() <= 1e-9 for v in verts):
            verts.append(w)
    return verts


def _vertices_by_support(C, m, tol):
    """Basic feasible solutions of {w >= 0, sum w = 1, C w = 0}: each has
    at most rows + 1 nonzero weights, so every such support is tried."""
    rows = C.shape[0]
    verts = []
    for size in range(1, min(m, rows + 1) + 1):
        for support in itertools.combinations(range(m), size):
            E = np.vstack([np.ones((1, size)), C[:, support]])
            rhs = np.zeros(rows + 1)
            rhs[0] = 1.0
            if np.linalg.matrix_rank(E, tol=1e-12 * max(1.0, np.abs(E).max())) < size:
                continue
            sol, residual, _, _ = np.linalg.lstsq(E, rhs, rcond=None)
            if np.abs(E @ sol - rhs).max() > tol:
                continue
            if sol.min() < -max(tol, 1e-12):
                continue
            w = np.zeros(m)
            w[list(support)] = np.clip(sol, 0.0, None)
            w /= w.sum()
            if not any(np.abs(w - v).max() <= 1e-9 for v in verts):
                verts.append(w)
    return verts


@dataclass(frozen=True)
class VertexTable:
    """The gradient vertices ``hull`` of V at x and the adjacent mode
    ``fields`` there; both derivatives are read off their products."""

    hull: GradientHull
    fields: tuple

    def products(self):
        """grad V_k(x) . f_i(x): a row per active base, a column per mode."""
        return np.array([[g @ f for f in self.fields] for g in self.hull.vertices])

    def lie(self, policy=DEFAULT_POLICY):
        """The equalizing weights, and the Lie set: the first table row at
        each extreme weight (every other row must agree with it)."""
        lam = lambda_set(self.hull.vertices, self.fields, policy)
        if lam.is_empty:
            return lam, LieSet.empty_set()
        table = self.products()
        tol = 100.0 * (policy.abs_tol + policy.rel_tol * max(1.0, float(np.abs(table).max())))
        values = []
        for w in lam.vertices:
            per_grad = table @ w
            spread = per_grad.max() - per_grad.min()
            if spread > tol:
                raise InternalCheckError(
                    f"active gradients disagree on an equalized velocity (spread {spread:.3e}); "
                    "the essentially-active set is over-approximated"
                )
            values.append(float(per_grad[0]))
        lo, hi = int(np.argmin(values)), int(np.argmax(values))
        return lam, LieSet(empty=False, lo=values[lo], hi=values[hi])

    def clarke(self):
        """The interval spanned by the table entries."""
        products = self.products().ravel().tolist()
        return ClarkeSet(lo=min(products), hi=max(products))


def vertex_table(spec, basis, sys, x, policy=DEFAULT_POLICY):
    """The ``VertexTable`` at x over the modes adjacent to x: the one-row
    ``_vertex_tables``, from the tie mask and closure mask of x alone."""
    X = as_points(x, basis.dim, "point")[None]
    ties, _ = tie_mask(spec, basis, X, policy)
    return next(_vertex_tables(spec, basis, sys, X, ties, sys.closure_mask(X, policy), policy))


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
    mode: str  # "lie" | "clarke"
    rate: float
    entries: list
    # each distinct active-set warning, with the number of samples it came from
    warnings: dict = field(default_factory=dict)

    @property
    def violations(self):
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self):
        return not self.violations


def decrease_check(spec, basis, sys, samples, rate, policy=DEFAULT_POLICY, use_clarke=False):
    """Sampled decrease test: max derivative vs -rate*|x|^2 per point.

    In Lie mode an empty derivative set counts as -inf and never
    violates; the Clarke variant reproduces the conservative test.

    Samples are finite n-vectors (InvalidInputError otherwise); zero
    rows are left out.  One tie mask and one closure mask over all rows
    decide every row.  Where exactly one base ties with V, V is C^1 near
    the point, both derivative sets are grad V_k(x) . co{f_i(x)}, and
    their maximum is the largest product over the adjacent modes.  The
    other rows get their ``active_sets`` in one batch and one
    ``VertexTable`` each, the one ``vertex_table`` builds at that point.
    Entries equal the per-point ``lie_derivative`` / ``clarke_derivative``
    ones bit for bit and keep the order of the samples.
    """
    X = _sample_rows(samples, sys.dim)
    norm2 = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
    X, norm2 = X[norm2 > 0.0], norm2[norm2 > 0.0]
    if not len(X):
        raise InvalidInputError("decrease_check: empty sample set")
    ties, _ = tie_mask(spec, basis, X, policy)
    inside = sys.closure_mask(X, policy)
    best, smooth = _smooth_maxima(basis, sys, X, ties, inside)
    values, warnings = best.tolist(), {}
    off = np.flatnonzero(~smooth)
    if len(off):
        tables = _vertex_tables(spec, basis, sys, X[off], ties[off], inside[off], policy)
        for r, table in zip(off.tolist(), tables):
            if use_clarke:
                values[r] = table.clarke().hi
            else:
                lie = table.lie(policy)[1]
                values[r] = None if lie.empty else lie.hi
            warning = table.hull.warning
            if warning:
                warnings[warning] = warnings.get(warning, 0) + 1
    entries = []
    for x, bound, value in zip(X, (-rate * norm2).tolist(), values):
        ok = value is None or value <= bound
        entries.append(DecreaseEntry(x=x, value=value, bound=bound, ok=ok))
    return DecreaseReport(
        mode="clarke" if use_clarke else "lie", rate=rate, entries=entries, warnings=warnings
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


def _by_column(fn, X, mask):
    """out[S, C, n] holding fn(c, X[rows]) at the rows column c of mask[S, C]
    marks, zero elsewhere: one row-form call per marked column."""
    out = np.zeros(mask.shape + X.shape[1:])
    for c in np.flatnonzero(mask.any(axis=0)).tolist():
        out[mask[:, c], c] = fn(c, X[mask[:, c]])
    return out


def _smooth_maxima(basis, sys, X, ties, inside):
    """Per row of X[S, n] with ``tie_mask`` ties and ``closure_mask``
    inside: max_i grad V_k(x) . f_i(x) over the adjacent modes i, and
    whether that decides the row: exactly one base k ties with V there
    and the maximum is finite and not zero.

    The maximum is the first largest product in mode order, as in both
    per-point derivatives.  A zero maximum is left to them too: on the
    Lie side it is a sum over simplex weights, which may carry the other
    sign of zero.
    """
    smooth = ties.sum(axis=1) == 1
    grads = _by_column(lambda c, rows: basis.gradient(c + 1, rows), X, ties & smooth[:, None])
    grads = grads[np.arange(len(X)), ties.argmax(axis=1)]
    fields = _by_column(lambda c, rows: sys.modes[c].field(rows), X, inside & smooth[:, None])
    products = (grads[:, None, None, :] @ fields[:, :, :, None])[:, :, 0, 0]
    products = np.where(inside, products, -np.inf)
    best = np.take_along_axis(products, products.argmax(axis=1)[:, None], axis=1)[:, 0]
    return best, smooth & np.isfinite(best) & (best != 0.0)


def _vertex_tables(spec, basis, sys, X, ties, inside, policy):
    """One ``VertexTable`` per row of X[S, n], from the rows' ``tie_mask``
    ties and ``closure_mask`` inside and their batched ``active_sets``."""
    sets = active_sets(spec, basis, X, policy, ties=ties)
    active = np.zeros(ties.shape, dtype=bool)
    for r, act in enumerate(sets):
        active[r, [k - 1 for k in act.indices]] = True
    grads = _by_column(lambda c, rows: basis.gradient(c + 1, rows), X, active)
    fields = _by_column(lambda c, rows: sys.modes[c].field(rows), X, inside)
    for x, act, g, f, marked in zip(X, sets, grads, fields, inside):
        hull = GradientHull(
            act.indices, tuple(g[k - 1] for k in act.indices), act.method, act.warning
        )
        yield VertexTable(hull, tuple(f[i - 1] for i in sys.adjacent(x, marked)))

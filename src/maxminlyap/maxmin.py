"""Max-min combinations of smooth base functions.

A candidate Lyapunov function is built from K base functions as a
max-over-families of min-over-indices

    V(x) = max_j min_{k in S_j} V_k(x),

or the dual min-of-max form, which ``MaxMinSpec`` stores as the
max-of-min structure with the dual families.  This module evaluates such
functions, locates the single active base on each strict-ordering cone
(the selection map over permutations), and computes essentially-active
index sets together with the generalized gradient vertices they induce.
Active sets are computed for a batch of points at once (``active_sets``):
planar quadratic bases read them off one arc table labelled by a single
``realized_base`` call, other bases classify their perturbation probes
one chunk per call; ``active_indices`` is the one-point case.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .numkernel import as_points, quad_forms, row_norms, sphere_points
from .policy import DEFAULT_POLICY
from .sysdsl import expr as ex

MAXMIN = "maxmin"
MINMAX = "minmax"
SAMPLED_DIRECTIONS = 64  # perturbation directions per sphere in active_sets
PROBE_ROWS = 32  # rows whose perturbation probes share one realized_base call


@dataclass(frozen=True)
class MaxMinSpec:
    """Combinatorial structure (K, S_1..S_J) of a max-min function.

    A ``polarity=MINMAX`` structure is stored as the equivalent max-of-min
    one (its dual families), so ``polarity`` always reads ``MAXMIN``.
    """

    K: int
    families: tuple  # tuple of tuples of 1-based base indices
    polarity: str = MAXMIN

    def __post_init__(self):
        if self.K < 1:
            raise InvalidInputError("K must be at least 1")
        if self.polarity not in (MAXMIN, MINMAX):
            raise InvalidInputError(f"unknown polarity {self.polarity!r}")
        if len(self.families) < 1:
            raise InvalidInputError("at least one family is required")
        norm = []
        for fam in self.families:
            if len(fam) == 0:
                raise InvalidInputError("families must be nonempty")
            if any(not 1 <= k <= self.K for k in fam):
                raise InvalidInputError(f"family {fam} out of range 1..{self.K}")
            norm.append(tuple(sorted(set(fam))))
        if self.polarity == MINMAX:
            norm = dual_families(norm)
            object.__setattr__(self, "polarity", MAXMIN)
        object.__setattr__(self, "families", tuple(norm))


class QuadraticBasis:
    """K symmetric matrices; base k is the quadratic form x^T P_k x."""

    def __init__(self, matrices):
        self.matrices = [np.asarray(P, dtype=float) for P in matrices]
        if not self.matrices:
            raise InvalidInputError("empty basis")
        n = self.matrices[0].shape[0]
        for P in self.matrices:
            if P.shape != (n, n):
                raise InvalidInputError("basis matrices must share one dimension")
        self.dim = n
        self._stack = np.stack(self.matrices)

    @property
    def K(self):
        return len(self.matrices)

    def values(self, x):
        """Base values at a point (shape K) or at each row of x[S, n] (S, K)."""
        return quad_forms(x, self._stack)

    def gradient(self, k, x):
        """Gradient of base k at a point, or at each row of x[S, n] (S, n);
        a row rounds as the point does (one matrix-vector product each)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return 2.0 * (self.matrices[k - 1] @ x[:, :, None])[:, :, 0]
        return 2.0 * (self.matrices[k - 1] @ x)

    @cached_property
    def _circle_roots(self):
        """Planar bases: the sorted, distinct angles in [0, pi) where a pair
        of bases ties (the ends of the arcs on which the realized base is
        constant), or None when a pair is identical; found once."""
        scale = max(float(np.abs(P).max()) for P in self.matrices)
        roots = set()
        for i, j in itertools.combinations(range(self.K), 2):
            got = _pair_root_angles(self.matrices[i] - self.matrices[j], scale)
            if got is None:
                return None
            # an angle that rounded up to pi is the same tie as 0
            roots.update(t % math.pi for t in got)
        return tuple(sorted(roots))


class ExprBasis:
    """K differentiable scalar expressions over x1..xn."""

    def __init__(self, exprs, dim):
        self.exprs = list(exprs)
        if not self.exprs:
            raise InvalidInputError("empty basis")
        self.dim = dim

    @property
    def K(self):
        return len(self.exprs)

    def values(self, x):
        """Base values at a point (shape K) or at each row of x[S, n] (S, K);
        rows go through the batch target of the compiled expressions."""
        if np.ndim(x) == 2:
            return np.stack(self._values_compiled.batch(x), axis=1)
        return np.array(self._values_compiled(x))

    def gradient(self, k, x):
        """Gradient of base k at a point, or at each row of x[S, n] (S, n)."""
        fn = self._gradients_compiled[k - 1]
        if np.ndim(x) == 2:
            return np.stack(fn.batch(x), axis=1)
        return np.array(fn(x))

    # expressions are compiled on first use (``sysdsl.compile_exprs``)

    @cached_property
    def _values_compiled(self):
        return ex.compile_exprs(self.exprs)

    @cached_property
    def _gradients_compiled(self):
        return [
            ex.compile_exprs(ex.differentiate(e, v) for v in range(1, self.dim + 1))
            for e in self.exprs
        ]


def all_permutations(K):
    """All orderings of 1..K in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, K + 1))]


def phi(spec, rho):
    """Active base index on the cone where the base values follow ``rho``:
    the one-row ``selected_base`` on the ranks of ``rho``.

    ``rho`` orders the base indices ascending by value, so base
    ``rho[r]`` gets rank r, and the ranks are tie-free values that order
    the bases as ``rho`` does.
    """
    if tuple(sorted(rho)) != tuple(range(1, spec.K + 1)):
        raise InvalidInputError(f"{rho} is not a permutation of 1..{spec.K}")
    return int(selected_base(spec, np.argsort([rho]))[0])


def dual_families(families):
    """Families of the opposite polarity, sorted by (size, members).

    Distributes one operation over the other: every selection of one
    index per family is a family of the dual form, and dominated
    (superset) selections are dropped.  Folding in one family at a time
    and pruning after each fold keeps the work bounded by the size of
    the result rather than the product of the family sizes.
    """
    sels = {frozenset()}
    for fam in families:
        grown = {s | {k} for s in sels for k in fam}
        sels = {s for s in grown if not any(t < s for t in grown)}
    return tuple(sorted((tuple(sorted(s)) for s in sels), key=lambda s: (len(s), s)))


def evaluate(spec, basis, x):
    """V(x): nested max/min of the base values; one V per row of x[S, n]."""
    vals = basis.values(as_points(x, basis.dim, "point", max_ndim=2))
    return combine(spec, vals)


def combine(spec, vals):
    """V from the base values vals[K], or one V per row of vals[..., K].

    Rows are reduced in the order of Python's min and max: a later value
    replaces the running one only when strictly smaller (larger), so a
    row gives the same float as the single-point form.  ``selected_base``
    is this loop carrying the index too; that doubles the cost, and
    ``evaluate`` runs this one on every portrait cell.
    """
    if vals.ndim >= 2:
        out = None
        for fam in spec.families:
            fv = vals[..., fam[0] - 1]
            for k in fam[1:]:
                fv = np.where(vals[..., k - 1] < fv, vals[..., k - 1], fv)
            out = fv if out is None else np.where(fv > out, fv, out)
        return out
    return max(min(vals[k - 1] for k in fam) for fam in spec.families)


def tie_mask(spec, basis, X, policy=DEFAULT_POLICY):
    """Bases whose value ties with V (scale-aware tolerance) at each row of
    X[S, n]: the mask (S, K), column k - 1 for base k, and V (S,)."""
    vals = basis.values(X)
    v = combine(spec, vals)
    tol = policy.abs_tol + policy.rel_tol * np.abs(v)
    return np.abs(vals - v[:, None]) <= tol[:, None], v


EXACT_SMOOTH = "exact-smooth"
EXACT_SWEEP = "exact-sweep"
PERTURBATION_SAMPLED = "perturbation-sampled"


@dataclass(frozen=True)
class ActiveSet:
    """Essentially-active base indices at a point, with the method used."""

    indices: tuple
    method: str
    warning: Optional[str] = None


@dataclass(frozen=True)
class GradientHull:
    """Vertices of the generalized gradient: one base gradient per
    essentially-active index; the gradient set is their convex hull."""

    indices: tuple
    vertices: tuple  # tuple of ndarray
    method: str
    warning: Optional[str] = None

    @classmethod
    def of(cls, basis, x, act):
        """The gradient vertices at x of the ``ActiveSet`` act there."""
        verts = tuple(basis.gradient(k, x) for k in act.indices)
        return cls(indices=act.indices, vertices=verts, method=act.method, warning=act.warning)


def selected_base(spec, vals):
    """Base index (1-based) attaining V in each row of vals[S, K]: the
    ``combine`` loop carrying the index, so ties go to the first family
    and then its first member, and the value there is ``combine``'s."""
    best = idx = None
    for fam in spec.families:
        fv, fi = vals[:, fam[0] - 1], np.full(len(vals), fam[0])
        for k in fam[1:]:
            lower = vals[:, k - 1] < fv
            fv, fi = np.where(lower, vals[:, k - 1], fv), np.where(lower, k, fi)
        if best is not None:
            higher = fv > best
            fv, fi = np.where(higher, fv, best), np.where(higher, fi, idx)
        best, idx = fv, fi
    return idx


def realized_base(spec, vals):
    """Active base per row of vals[S, K], or 0 where two values tie.

    A row without ties lies on a strict-ordering cone, where one base
    attains V: the one ``phi`` gives for the permutation that sorts the
    row ascending.  Every row is decided without forming permutations,
    and without sorting: two finite values tie when they are ``==``
    (so +0.0 ties -0.0), and an infinity or NaN ties with nothing.
    """
    vals = np.asarray(vals, dtype=float)
    finite = np.where(np.isfinite(vals), vals, np.nan)
    tied = np.zeros(len(vals), dtype=bool)
    for a in range(1, vals.shape[1]):
        for b in range(a):
            tied |= finite[:, a] == finite[:, b]
    return np.where(tied, 0, selected_base(spec, vals))


def active_indices(spec, basis, x, policy=DEFAULT_POLICY):
    """Essentially-active index set at one point: the one-row ``active_sets``."""
    x = as_points(x, basis.dim, "point")
    return active_sets(spec, basis, x[None], policy)[0]


def active_sets(spec, basis, X, policy=DEFAULT_POLICY, ties=None):
    """Essentially-active index set at each row of X[S, n], one ``ActiveSet``
    per row; ``ties`` is the ``tie_mask`` of X when the caller holds it.

    A unique value-tie is returned directly (the function is C^1 there).
    Otherwise the set is recovered from the selection map on the
    strict-ordering cones meeting x: exactly, from the labelled arcs
    between tie angles, for planar quadratic bases; by perturbation
    sampling on three small spheres elsewhere and where an arc is
    undecided.  A non-finite row raises InvalidInputError.
    """
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
        swept = _planar_sweep(spec, basis, X[rows], policy)
        for r, got in zip(rows.tolist(), swept):
            out[r] = got
        rows = rows[[got is None for got in swept]]
    if len(rows):
        for r, got in zip(rows.tolist(), _sampled_active(spec, basis, X[rows], ties[rows], policy)):
            out[r] = got
    return out


def clarke_gradient(spec, basis, x, policy=DEFAULT_POLICY):
    """Generalized-gradient vertices {grad V_l(x) : l essentially active}."""
    return GradientHull.of(basis, x, active_indices(spec, basis, x, policy))


# ---------------------------------------------------------------------------
# exact planar sweep


def _pair_root_angles(D, scale):
    """Angles in [0, pi) where u(t)^T D u(t) = 0 on the unit circle.

    Returns None when the difference form vanishes identically
    (degenerate basis pair).
    """
    a = 0.5 * (D[0, 0] - D[1, 1])
    b = D[0, 1]
    c = 0.5 * (D[0, 0] + D[1, 1])
    r = math.hypot(a, b)
    tiny = 1e-14 * max(1.0, scale)
    if r <= tiny:
        if abs(c) <= tiny:
            return None
        return []
    u = -c / r
    if abs(u) > 1.0:
        return []
    psi = math.atan2(b, a)
    delta = math.acos(max(-1.0, min(1.0, u)))
    roots = [(psi + delta) / 2.0, (psi - delta) / 2.0]
    return [t % math.pi for t in roots]


def _planar_sweep(spec, basis, X, policy):
    """Exact alpha_V for 2-D quadratic bases at each row of X[S, 2], read
    off the circle's arc table; None for a row the table cannot decide.

    Active sets are constant on rays, and the realized base is constant on
    each arc between consecutive tie angles (``_circle_roots``), so one
    ``realized_base`` call at the arc midpoints labels every arc.  A row at
    the origin meets every arc wider than 1e-12; any other row meets the
    arcs holding its probes at +-delta around its angle (delta half its gap
    to the nearest other tie angle, at most pi/16).  A row meeting an arc
    labelled 0 (a tie at the midpoint) is None, as is every row when an
    identical base pair leaves no table.
    """
    if basis._circle_roots is None:
        return [None] * len(X)
    ends = np.array(basis._circle_roots)
    # arc i runs from ends[i] to ends[i + 1], and the last one wraps to
    # ends[0] + pi (a probe below ends[0] lies on it); with no tie angle
    # the one arc is the whole circle, labelled at angle 0
    ext = np.append(ends, ends[0] + math.pi) if len(ends) else np.array([-0.5, 0.5]) * math.pi
    mids = 0.5 * (ext[:-1] + ext[1:])
    label = realized_base(spec, basis.values(np.stack([np.cos(mids), np.sin(mids)], axis=1)))
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


# ---------------------------------------------------------------------------
# perturbation sampling


def _sampled_active(spec, basis, X, ties, policy):
    """Active sets of the rows of X[S, n] from the bases realized at 64
    seeded directions on three small spheres around each row (radii 1, 2
    and 4 x rel_tol max(1, |x|)); ``ties`` is the rows' ``tie_mask``.  The
    probes of ``PROBE_ROWS`` rows at a time go through one
    ``realized_base`` call, so memory does not grow with S."""
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
        base = realized_base(spec, basis.values(probes.reshape(-1, basis.dim)))
        seen = np.zeros((len(probes), basis.K + 1), dtype=bool)
        seen[np.arange(len(probes))[:, None], base.reshape(len(probes), -1)] = True
        for hit, tied in zip(seen[:, 1:].tolist(), ties[chunk].tolist()):
            found = tuple(k for k, h in enumerate(hit, start=1) if h)
            if found:
                out.append(ActiveSet(indices=found, method=PERTURBATION_SAMPLED, warning=warning))
                continue
            # every sample tied (degenerate basis); fall back to the realized
            # active index so the set is never empty
            out.append(ActiveSet(
                indices=(tied.index(True) + 1,),
                method=PERTURBATION_SAMPLED,
                warning=warning or "perturbation sampling found no strict ordering",
            ))
    return out

"""Max-min combinations of smooth base functions.

A candidate Lyapunov function is built from K base functions as a
max-over-families of min-over-indices

    V(x) = max_j min_{k in S_j} V_k(x),

or the dual min-of-max form, which ``MaxMinSpec`` stores as the
max-of-min structure with the dual families.  This module evaluates such
functions, locates the single active base on each strict-ordering cone
(the selection map over permutations), and computes essentially-active
index sets together with the generalized gradient vertices they induce.
Active sets are computed for a batch of points at once, as one boolean
mask of active bases per row (``active_masks``): planar quadratic bases
read them off one arc table labelled by a single ``realized_base``
call, other bases classify their perturbation probes one chunk per
call, and no step runs Python code per row.  Sampling goes in two
stages: a row tied with every base first gets a short leading block of
probes and stops once they mark all K bases (no later probe can change
its mask); the other rows get all 3 x 64 probes.  ``active_sets`` is the
object view of the mask for the one-row and few-row callers: one
``ActiveSet`` per row, carrying the gradients of its active bases (the
vertices of the generalized gradient); ``active_indices`` is the
one-point case.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .numkernel import as_points, by_column, quad_forms, row_norms, sphere_points
from .policy import DEFAULT_POLICY
from .sysdsl import expr as ex

MAXMIN = "maxmin"
MINMAX = "minmax"
SAMPLED_DIRECTIONS = 64  # perturbation directions per sphere in active_masks
LEAD_DIRECTIONS = 8  # first-sphere probes of a row tied with every base, before it may stop
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
    """K symmetric matrices, one array P[K, n, n]; base k is x^T P_k x."""

    def __init__(self, matrices):
        mats = [np.asarray(P, dtype=float) for P in matrices]
        if not mats:
            raise InvalidInputError("empty basis")
        n = mats[0].shape[0]
        if any(P.shape != (n, n) for P in mats):
            raise InvalidInputError("basis matrices must share one dimension")
        self.dim = n
        self.matrices = np.stack(mats)

    @property
    def K(self):
        return len(self.matrices)

    def values(self, x):
        """Base values at a point (shape K) or at each row of x[S, n] (S, K)."""
        return quad_forms(x, self.matrices)

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
        scale = float(np.abs(self.matrices).max())
        roots = set()
        for i, j in itertools.combinations(range(self.K), 2):
            got = _pair_root_angles(self.matrices[i] - self.matrices[j], scale)
            if got is None:
                return None
            # an angle that rounded up to pi is the same tie as 0
            roots.update(t % math.pi for t in got)
        return tuple(sorted(roots))

    @cached_property
    def _arcs(self):
        """Planar bases: the arc ends (``_circle_roots``) as an array, the
        unit vectors at the arc midpoints and whether each arc is wider
        than 1e-12, or None when a pair is identical; found once."""
        if self._circle_roots is None:
            return None
        ends = np.array(self._circle_roots)
        # arc i runs from ends[i] to ends[i + 1], and the last one wraps to
        # ends[0] + pi (a probe below ends[0] lies on it); with no tie angle
        # the one arc is the whole circle, labelled at angle 0
        ext = np.append(ends, ends[0] + math.pi) if len(ends) else np.array([-0.5, 0.5]) * math.pi
        mids = 0.5 * (ext[:-1] + ext[1:])
        return ends, np.stack([np.cos(mids), np.sin(mids)], axis=1), np.diff(ext) > 1e-12


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


MAX_BASES = 6  # the largest K whose K! orderings the phi table and condition (i) list


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
    X[S, n]: the mask (S, K), column k - 1 for base k, and V (S,).

    A row whose base values are not all finite (an overflowed quadratic
    form, say) raises InvalidInputError; every other row has at least one
    tie, the base that attains V.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = basis.values(X)
    if not np.isfinite(vals).all():
        raise InvalidInputError("active set: a base value is not finite at a point")
    v = combine(spec, vals)
    tol = policy.abs_tol + policy.rel_tol * np.abs(v)
    return np.abs(vals - v[:, None]) <= tol[:, None], v


EXACT_SMOOTH = "exact-smooth"
EXACT_SWEEP = "exact-sweep"
PERTURBATION_SAMPLED = "perturbation-sampled"
# the method codes of ``active_masks``, in the order of the three methods
SMOOTH, SWEPT, SAMPLED = range(3)


@dataclass(frozen=True)
class ActiveSet:
    """Essentially-active base indices at a point, with the method used and
    the gradient vertices, one per index (ignored by ==)."""

    indices: tuple
    method: str
    warning: Optional[str] = None
    vertices: tuple = field(default=(), compare=False)  # tuple of ndarray


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
    """Essentially-active index set at one point with its gradient vertices
    {grad V_k(x) : k active}: the one-row ``active_sets``."""
    x = as_points(x, basis.dim, "point")
    return active_sets(spec, basis, x[None], policy)[0]


def active_sets(spec, basis, X, policy=DEFAULT_POLICY):
    """Essentially-active index set at each row of X[S, n], one ``ActiveSet``
    per row: the object view of ``active_masks``, with the gradient
    vertices of each row in index order.  Each base's gradient is taken
    once, over the rows that mark it, and each vertex is the point's
    ``basis.gradient(k, x)`` bit for bit."""
    X = as_points(X, basis.dim, "points", max_ndim=2).reshape(-1, basis.dim)
    active, method, warning = active_masks(spec, basis, X, policy)
    grads = by_column(lambda c, rows: basis.gradient(c + 1, rows), X, active)
    out = []
    for row, g, code, text in zip(active.tolist(), grads, method.tolist(), warning.tolist()):
        indices = tuple(k for k, hit in enumerate(row, start=1) if hit)
        vertices = tuple(g[k - 1] for k in indices)
        if code == SMOOTH:
            out.append(ActiveSet(indices, method=EXACT_SMOOTH, vertices=vertices))
        elif code == SWEPT:
            out.append(ActiveSet(indices, method=EXACT_SWEEP, vertices=vertices))
        else:
            out.append(ActiveSet(indices, method=PERTURBATION_SAMPLED, warning=text, vertices=vertices))
    return out


def active_masks(spec, basis, X, policy=DEFAULT_POLICY, ties=None):
    """Essentially-active bases at each row of X[S, n]: the mask
    active[S, K] (column k - 1 for base k), the method code of each row
    (``SMOOTH``, ``SWEPT`` or ``SAMPLED``) and its warning (an object
    array, None for none); ``ties`` is the ``tie_mask`` of X when the
    caller holds it.

    A unique value-tie is the set itself (the function is C^1 there).
    Otherwise the set is recovered from the selection map on the
    strict-ordering cones meeting x: exactly, from the labelled arcs
    between tie angles, for planar quadratic bases; by perturbation
    sampling on three small spheres elsewhere and where an arc is
    undecided.  A non-finite row, or one whose base values are not
    finite, raises InvalidInputError.
    """
    X = as_points(X, basis.dim, "points", max_ndim=2).reshape(-1, basis.dim)
    if not np.isfinite(X).all():
        raise InvalidInputError("active set: a point has non-finite entries")
    if ties is None:
        ties, _ = tie_mask(spec, basis, X, policy)
    active = ties.copy()
    method = np.zeros(len(X), dtype=np.int8)  # SMOOTH
    warning = np.full(len(X), None, dtype=object)
    rows = np.flatnonzero(ties.sum(axis=1) != 1)
    if len(rows) and isinstance(basis, QuadraticBasis) and basis.dim == 2:
        swept = _planar_sweep(spec, basis, X[rows], policy)
        decided = swept.any(axis=1)
        active[rows[decided]] = swept[decided]
        method[rows[decided]] = SWEPT
        rows = rows[~decided]
    if len(rows):
        active[rows], warning[rows] = _sampled_active(spec, basis, X[rows], ties[rows], policy)
        method[rows] = SAMPLED
    return active, method, warning


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
    off the circle's arc table: the mask (S, K), with no base marked in a
    row the table cannot decide.

    Active sets are constant on rays, and the realized base is constant on
    each arc between consecutive tie angles (``QuadraticBasis._arcs``), so
    one ``realized_base`` call at the arc midpoints labels every arc.  A
    row at the origin meets every arc wider than 1e-12; any other row
    meets the arcs holding its probes at +-delta around its angle (delta
    half its gap to the nearest other tie angle, at most pi/16).  A row
    meeting an arc labelled 0 (a tie at the midpoint) is undecided, as is
    every row when an identical base pair leaves no table.
    """
    active = np.zeros((len(X), basis.K + 1), dtype=bool)  # column 0: label 0
    if basis._arcs is None:
        return active[:, 1:]
    ends, midpoints, wide = basis._arcs
    label = realized_base(spec, basis.values(midpoints))
    theta0 = np.arctan2(X[:, 1], X[:, 0])
    d = np.abs(theta0[:, None] - ends) % math.pi
    d = np.minimum(d, math.pi - d)
    gap = np.where(d > 1e-12, d, np.inf).min(axis=1, initial=np.inf)
    delta = np.minimum(gap / 2.0, math.pi / 16.0)
    probes = np.concatenate([theta0 - delta, theta0 + delta]) % math.pi
    sides = label[np.searchsorted(ends, probes, side="right") - 1].reshape(2, -1)
    rows = np.arange(len(X))
    active[rows, sides[0]] = active[rows, sides[1]] = True
    active[active[:, 0]] = False
    whole = np.zeros(basis.K + 1, dtype=bool)
    whole[label[wide]] = True
    active[row_norms(X) <= policy.abs_tol] = whole
    return active[:, 1:]


# ---------------------------------------------------------------------------
# perturbation sampling


def _sampled_active(spec, basis, X, ties, policy):
    """Active bases of the rows of X[S, n] from the bases realized at 64
    seeded directions on three small spheres around each row (radii 1, 2
    and 4 x rel_tol max(1, |x|)); ``ties`` is the rows' ``tie_mask``: the
    mask (S, K) and each row's warning.

    The probes go in two stages.  A row tied with every base (the only
    rows whose probes are likely to mark them all) first gets the leading
    ``LEAD_DIRECTIONS`` directions of the first sphere, and it is done if
    they mark all K bases, since a later probe could only add a tie
    (label 0, which the mask drops).  Every row not done then gets all
    3 x 64 probes.  A probe's realized base is that of the probe
    alone, so each row's mask is the one all its probes give.  A
    ``realized_base`` call values the probes of ``PROBE_ROWS`` rows, or
    as many leading blocks, so memory does not grow with S."""
    dirs = sphere_points(basis.dim, SAMPLED_DIRECTIONS, np.random.default_rng(policy.seed))
    warning = None
    if isinstance(basis, QuadraticBasis):
        for i, j in itertools.combinations(range(basis.K), 2):
            if np.abs(basis.matrices[i] - basis.matrices[j]).max() == 0.0:
                warning = f"bases {i + 1} and {j + 1} are identical"
    radii = (policy.rel_tol * np.maximum(1.0, row_norms(X)))[:, None] * np.array([1.0, 2.0, 4.0])
    seen = np.zeros((len(X), basis.K + 1), dtype=bool)

    def probe(rows, spheres, directions):
        # one expression: a named offset array kept alive through
        # basis.values made the call about twice as slow
        probes = X[rows, None, None, :] + radii[rows, :spheres, None, None] * dirs[:directions]
        base = realized_base(spec, basis.values(probes.reshape(-1, basis.dim)))
        seen[rows[:, None], base.reshape(len(rows), -1)] = True

    lead = np.flatnonzero(ties.all(axis=1))
    per_call = PROBE_ROWS * radii.shape[1] * SAMPLED_DIRECTIONS // LEAD_DIRECTIONS
    for lo in range(0, len(lead), per_call):
        probe(lead[lo : lo + per_call], 1, LEAD_DIRECTIONS)
    rest = np.flatnonzero(~seen[:, 1:].all(axis=1))
    for lo in range(0, len(rest), PROBE_ROWS):
        probe(rest[lo : lo + PROBE_ROWS], radii.shape[1], SAMPLED_DIRECTIONS)
    active, warnings = seen[:, 1:], np.full(len(X), warning, dtype=object)
    # where every sample tied (degenerate basis), fall back to the first
    # tied base (every row has one) so the set is never empty
    blind = ~active.any(axis=1)
    active[blind] = np.arange(basis.K) == ties[blind].argmax(axis=1)[:, None]
    warnings[blind] = warning or "perturbation sampling found no strict ordering"
    return active, warnings

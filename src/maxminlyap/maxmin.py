"""Max-min combinations of smooth base functions.

A candidate Lyapunov function is built from K base functions as a
max-over-families of min-over-indices

    V(x) = max_j min_{k in S_j} V_k(x),

or the dual min-of-max form, which ``MaxMinSpec`` stores as the
max-of-min structure with the dual families.  This module evaluates such
functions, locates the single active base on each strict-ordering cone
(the selection map over permutations), and computes essentially-active
index sets together with the generalized gradient vertices they induce.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .numkernel import quad_forms, sphere_points
from .policy import DEFAULT_POLICY
from .sysdsl import expr as ex

MAXMIN = "maxmin"
MINMAX = "minmax"
SAMPLED_DIRECTIONS = 64  # perturbation directions per sphere in active_indices


@dataclass(frozen=True)
class MaxMinSpec:
    """Combinatorial structure (K, S_1..S_J) of a max-min function.

    A ``polarity=MINMAX`` structure is stored as the equivalent max-of-min
    one (its dual families), so ``polarity`` always reads ``MAXMIN``.
    """

    K: int
    families: tuple  # tuple of tuples of 1-based base indices
    polarity: str = MAXMIN
    # 0-based base columns per family, padded with the family's last
    # member to one width (see selected_base)
    columns: np.ndarray = field(init=False, repr=False, compare=False)

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
        width = max(len(fam) for fam in norm)
        cols = [list(fam) + [fam[-1]] * (width - len(fam)) for fam in norm]
        object.__setattr__(self, "columns", np.array(cols) - 1)


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
        """Planar bases: the angles in [0, pi) where a pair of bases ties,
        pair by pair, or None when a pair is identical; found once."""
        scale = max(float(np.abs(P).max()) for P in self.matrices)
        roots = []
        for i, j in itertools.combinations(range(self.K), 2):
            got = _pair_root_angles(self.matrices[i] - self.matrices[j], scale)
            if got is None:
                return None
            roots.extend(got)
        return tuple(roots)


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
        """Base values at a point (shape K) or at each row of x[S, n] (S, K)."""
        if np.ndim(x) == 2:
            fn = self._values_compiled
            return np.array([fn(row) for row in x]).reshape(len(x), self.K)
        return np.array(self._values_compiled(x))

    def gradient(self, k, x):
        """Gradient of base k at a point, or at each row of x[S, n] (S, n)."""
        fn = self._gradients_compiled[k - 1]
        if np.ndim(x) == 2:
            return np.array([fn(row) for row in x]).reshape(np.shape(x))
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
    """Active base index on the cone where the base values follow ``rho``.

    ``rho`` orders the base indices ascending by value.  Each family
    contributes its rho-earliest member (the family minimum); the
    function value is the rho-latest of those contributions.
    """
    if tuple(sorted(rho)) != tuple(range(1, spec.K + 1)):
        raise InvalidInputError(f"{rho} is not a permutation of 1..{spec.K}")
    s_min = set()
    for fam in spec.families:
        for r in rho:
            if r in fam:
                s_min.add(r)
                break
    for r in reversed(rho):
        if r in s_min:
            return r
    raise AssertionError("unreachable: families are nonempty")


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
    vals = basis.values(x)
    return combine(spec, vals)


def combine(spec, vals):
    """V from the base values vals[K], or one V per row of vals[S, K].

    Rows are reduced in the order of Python's min and max: a later value
    replaces the running one only when strictly smaller (larger), so a
    row gives the same float as the single-point form.
    """
    if vals.ndim == 2:
        out = None
        for fam in spec.families:
            fv = vals[:, fam[0] - 1]
            for k in fam[1:]:
                fv = np.where(vals[:, k - 1] < fv, vals[:, k - 1], fv)
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


def equal_value_indices(spec, basis, x, policy=DEFAULT_POLICY):
    """Indices whose base value ties with V(x): the one-row ``tie_mask``."""
    mask, v = tie_mask(spec, basis, np.asarray(x, dtype=float)[None], policy)
    return tuple(k for k, tied in enumerate(mask[0].tolist(), start=1) if tied), v[0]


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


def strict_ordering(vals):
    """Permutation sorting the values ascending, or None on any tie."""
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    if np.any(np.diff(sv) <= 0.0):
        return None
    return tuple(int(i) + 1 for i in order)


def selected_base(spec, vals):
    """Base index (1-based) the nested max/min picks in each row of
    vals[S, K]; ties go to the first family and the first member."""
    J, K = len(spec.families), spec.K
    # key j*K + column: among tied candidates the smallest key is the
    # first family, then its first member (families are sorted)
    keys = (K * np.arange(J)[:, None] + spec.columns)[..., None]
    sub = vals.T[spec.columns]  # (J, width, S) member values
    fam_val = sub.min(axis=1)
    first = np.where(sub == fam_val[:, None], keys, J * K).min(axis=1)
    best = np.where(fam_val == fam_val.max(axis=0), first, J * K).min(axis=0)
    return best % K + 1


def realized_base(spec, vals):
    """Active base per row of vals[S, K], or 0 where two values tie.

    On a strict-ordering cone one base attains V, so this is
    ``phi(spec, strict_ordering(row))`` for every row, without sorting
    out permutations.
    """
    vals = np.asarray(vals, dtype=float)
    tied = np.any(np.diff(np.sort(vals, axis=1), axis=1) <= 0.0, axis=1)
    return np.where(tied, 0, selected_base(spec, vals))


def active_indices(spec, basis, x, policy=DEFAULT_POLICY):
    """Essentially-active index set.

    A unique value-tie is returned directly (the function is C^1 there).
    Otherwise the set is recovered from the selection map on the
    strict-ordering cones meeting x: exactly, by an angular sweep, for
    planar quadratic bases; by perturbation sampling on three small
    spheres everywhere else.
    """
    x = np.asarray(x, dtype=float)
    ties, _ = equal_value_indices(spec, basis, x, policy)
    if len(ties) == 1:
        return ActiveSet(indices=ties, method=EXACT_SMOOTH)
    if isinstance(basis, QuadraticBasis) and basis.dim == 2:
        got = _planar_sweep(spec, basis, x, policy)
        if got is not None:
            return got
    return _sampled_active(spec, basis, x, policy)


def clarke_gradient(spec, basis, x, policy=DEFAULT_POLICY):
    """Generalized-gradient vertices {grad V_l(x) : l essentially active}."""
    act = active_indices(spec, basis, x, policy)
    verts = tuple(basis.gradient(k, x) for k in act.indices)
    return GradientHull(
        indices=act.indices, vertices=verts, method=act.method, warning=act.warning
    )


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


def _circ_dist(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _planar_sweep(spec, basis, x, policy):
    """Exact alpha_V for 2-D quadratic bases via root isolation on the circle.

    Active sets are constant on rays, so only the angle matters; the
    strict-ordering arcs adjacent to the point's direction determine the
    essentially-active set.  The root angles depend on the basis only and
    are kept with it.  Returns None when a degenerate (identical) base
    pair makes the sweep unreliable.
    """
    roots = basis._circle_roots
    if roots is None:
        return None

    def phi_at(theta):
        """Active base at angle theta, or None on any value tie."""
        rho = strict_ordering(basis.values(np.array([math.cos(theta), math.sin(theta)])))
        return None if rho is None else phi(spec, rho)

    norm = float(np.linalg.norm(x))
    if norm <= policy.abs_tol:
        # whole-circle sweep: one sample inside every arc between roots
        angles = sorted(set(t % math.pi for t in roots))
        if not angles:
            samples = [0.0]
        else:
            samples = []
            ext = angles + [angles[0] + math.pi]
            for lo, hi in zip(ext[:-1], ext[1:]):
                if hi - lo > 1e-12:
                    samples.append(0.5 * (lo + hi))
        found = sorted({p for p in (phi_at(t) for t in samples) if p is not None})
        if not found:
            return None
        return ActiveSet(indices=tuple(found), method=EXACT_SWEEP)

    theta0 = math.atan2(x[1], x[0])
    gaps = [d for d in (_circ_dist(theta0, t) for t in roots) if d > 1e-12]
    delta = min(min(gaps) / 2.0 if gaps else math.pi / 16.0, math.pi / 16.0)
    found = set()
    for _ in range(40):
        left = phi_at(theta0 - delta)
        right = phi_at(theta0 + delta)
        if left is not None and right is not None:
            found = {left, right}
            break
        delta /= 2.0
    if not found:
        return None
    return ActiveSet(indices=tuple(sorted(found)), method=EXACT_SWEEP)


# ---------------------------------------------------------------------------
# perturbation sampling


def _sampled_active(spec, basis, x, policy):
    dirs = sphere_points(basis.dim, SAMPLED_DIRECTIONS, np.random.default_rng(policy.seed))
    base_r = policy.rel_tol * max(1.0, float(np.linalg.norm(x)))
    warning = None
    if isinstance(basis, QuadraticBasis):
        for i in range(basis.K):
            for j in range(i + 1, basis.K):
                if np.abs(basis.matrices[i] - basis.matrices[j]).max() == 0.0:
                    warning = f"bases {i + 1} and {j + 1} are identical"
    radii = base_r * np.array([1.0, 2.0, 4.0])
    probes = (x + radii[:, None, None] * dirs).reshape(-1, basis.dim)
    found = set(realized_base(spec, basis.values(probes)).tolist()) - {0}
    if not found:
        # every sample tied (degenerate basis); fall back to the realized
        # active index so the set is never empty
        ties, _ = equal_value_indices(spec, basis, x, policy)
        found = {ties[0]}
        warning = warning or "perturbation sampling found no strict ordering"
    return ActiveSet(
        indices=tuple(sorted(found)), method=PERTURBATION_SAMPLED, warning=warning
    )

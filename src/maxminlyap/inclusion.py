"""Switched-system model: regions, mode fields and the closure index map.

A system is a finite list of modes, each with a vector field (a matrix
for linear modes, expressions otherwise) and a region where it is
active: a symmetric open cone {x : x^T Q x > 0}, a general analytic
sublevel region {x : H(x) > 0}, or the whole space.  The convexified
right-hand side at x is the hull of the fields of every mode whose
region closure contains x.

The switching geometry that certification's condition (ii) reads lives
here too: the switching lines of planar cones in cyclic order
(``cone_chain``) and the sampled two-mode sliding exclusion.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PartitionError
from .numkernel import (
    as_points, as_square, as_symmetric, eig_sym, positive_semidefinite, quad_forms, row_norms,
    sphere_points,
)
from .policy import DEFAULT_POLICY
from .sysdsl import expr as ex

CONE = "cone"
EXPR = "expr"
ALL = "all"
TILING_TOL = 1e-9  # radians between one cone sector's end and the next one's start


def _cone_matrix(Q, name):
    """One symmetric cone matrix; ``as_symmetric`` alone also takes a stack."""
    return as_symmetric(as_square(Q, name), name)


@dataclass
class Mode:
    index: int
    A: Optional[np.ndarray] = None
    f: Optional[tuple] = None
    Q: Optional[np.ndarray] = None
    H: Optional[ex.Expr] = None

    @property
    def region_kind(self):
        if self.Q is not None:
            return CONE
        if self.H is not None:
            return EXPR
        return ALL

    def field(self, x):
        """Field at a point, or at each row of x[S, n] (S, n); a row rounds
        as the point does: one matrix-vector product each for a linear
        mode, the batch target of the compiled expressions otherwise."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            if self.A is not None:
                return (self.A @ x[:, :, None])[:, :, 0]
            return np.stack(self._f_compiled.batch(x), axis=1)
        if self.A is not None:
            return self.A @ x
        return np.array(self._f_compiled(x))

    @cached_property
    def float_field(self):
        """The field at one point on Python floats: n floats (or a 1-D
        array) in, a sequence of n floats out, bit for bit ``field``.  A
        linear mode is one ``A.dot``, which rounds as ``A @ x``; an
        expression mode is its compiled expressions."""
        if self.A is not None:
            dot = self.A.dot
            return lambda x: dot(x).tolist()
        return self._f_compiled

    def region_value(self, x):
        if self.Q is not None:
            x = np.asarray(x, dtype=float)
            return float(x @ self.Q @ x)
        if self.H is not None:
            return self._H_compiled(x)[0]
        return np.inf

    def region_gradient(self, x):
        if self.Q is not None:
            return 2.0 * (self.Q @ np.asarray(x, dtype=float))
        if self.H is not None:
            return np.array(self._grad_H_compiled(len(x))(x))
        return np.zeros(len(x))

    # expressions are compiled on first use (``sysdsl.compile_exprs``)

    @cached_property
    def _f_compiled(self):
        return ex.compile_exprs(self.f)

    @cached_property
    def _H_compiled(self):
        return ex.compile_exprs((self.H,))

    @cached_property
    def _grad_H_by_dim(self):
        return {}

    def _grad_H_compiled(self, n):
        """The n partial derivatives of H, compiled once per dimension."""
        if n not in self._grad_H_by_dim:
            self._grad_H_by_dim[n] = ex.compile_exprs(
                ex.differentiate(self.H, v) for v in range(1, n + 1)
            )
        return self._grad_H_by_dim[n]


class SwitchedSystem:
    def __init__(self, dim, modes):
        self.dim = dim
        self.modes = list(modes)
        if not self.modes:
            raise InvalidInputError("a system needs at least one mode")
        kinds = [m.region_kind for m in self.modes]
        self._cones = [c for c, k in enumerate(kinds) if k == CONE]
        self._exprs = [c for c, k in enumerate(kinds) if k == EXPR]
        if self._cones:
            self._cone_stack = np.stack([self.modes[c].Q for c in self._cones])
        # closure band per mode: abs_tol * max(floor, |x|^2), see closure_mask
        self._band_floor = np.array([0.0 if k == CONE else 1.0 for k in kinds])

    @property
    def M(self):
        return len(self.modes)

    @classmethod
    def from_config(cls, system_config):
        modes = []
        for mc in system_config.modes:
            Q = None if mc.Q is None else _cone_matrix(mc.Q, f"Q{mc.index}")
            A = None if mc.A is None else as_square(mc.A, f"A{mc.index}")
            modes.append(Mode(index=mc.index, A=A, f=mc.f, Q=Q, H=mc.H))
        return cls(dim=system_config.dim, modes=modes)

    @property
    def is_linear(self):
        return all(m.A is not None for m in self.modes)

    @property
    def is_conic(self):
        return all(m.region_kind in (CONE, ALL) for m in self.modes)

    def field(self, i, x):
        return self.modes[i - 1].field(x)

    def closure_mask(self, X, policy=DEFAULT_POLICY):
        """Whether each mode's region closure contains each row of X[S, n],
        shape (S, M), with a relative boundary band so exact-zero tests
        are never required: a cone admits x'Qx >= -abs_tol |x|^2, an
        expression region H(x) >= -abs_tol max(1, |x|^2).  A point whose
        |x|^2 overflows would get an infinite band, so it is refused, as
        is a non-finite one."""
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore"):
            norm2 = np.vecdot(X, X)
        if not np.isfinite(norm2).all():  # a non-finite entry makes |x|^2 inf or nan
            what = "'s squared norm overflows" if np.isfinite(X).all() else " has non-finite entries"
            raise InvalidInputError(f"closure test: a point{what}")
        band = np.maximum(self._band_floor, norm2[:, None])
        return self.region_values(X) >= -policy.abs_tol * band

    def index_set(self, x, policy=DEFAULT_POLICY):
        """Modes whose region closure contains x: the one-row ``closure_mask``."""
        x = as_points(x, self.dim, "point")
        return self.adjacent(x, self.closure_mask(x[None], policy)[0])

    def adjacent(self, x, inside):
        """Indices of the modes that ``inside``, the ``closure_mask`` row of
        x, marks; PartitionError when it marks none."""
        out = tuple(m.index for m, keep in zip(self.modes, inside.tolist()) if keep)
        if not out:
            raise PartitionError(
                f"no region contains {x.tolist()}; the partition does not cover"
            )
        return out

    def region_values(self, X):
        """Region function of every mode at each row of X[S, n], shape (S, M);
        whole-space modes read +inf, an expression region is one call of
        its compiled H's batch target, each row bit for bit its point value."""
        X = np.asarray(X, dtype=float)
        out = np.full((len(X), self.M), np.inf)
        if self._cones:
            out[:, self._cones] = quad_forms(X, self._cone_stack)
        for c in self._exprs:
            out[:, c] = self.modes[c]._H_compiled.batch(X)[0]
        return out

    def owners(self, X, threshold):
        """Index of the one mode whose region value exceeds ``threshold``
        at each row of X[S, n], or 0 where none or several do."""
        strict = self.region_values(X) > threshold
        index = np.array([m.index for m in self.modes])
        return np.where(strict.sum(axis=1) == 1, index[strict.argmax(axis=1)], 0)

    def validate_partition(self, policy=DEFAULT_POLICY, n_samples=10_000):
        """Sampled check of the covering / non-overlap assumption on the
        unit sphere.

        Returns (violations, checked) where violations is a list of
        (point, strict_members) for samples inside more than one open
        region or inside none and away from every boundary.
        """
        X = sphere_points(self.dim, n_samples, np.random.default_rng(policy.seed))
        index = np.array([m.index for m in self.modes])
        vals = self.region_values(X)
        strict = vals > policy.abs_tol
        n_strict = strict.sum(axis=1)
        near = (np.abs(vals) <= policy.abs_tol).any(axis=1)
        bad = (n_strict > 1) | ((n_strict == 0) & ~near)
        violations = [(X[s], tuple(index[strict[s]].tolist())) for s in np.flatnonzero(bad)]
        return violations, n_samples


def _require_linear_conic(sys):
    if not sys.is_linear:
        raise InvalidInputError("certification requires linear modes")
    if not sys.is_conic:
        raise InvalidInputError("certification requires conic (or all-space) regions")


@dataclass(frozen=True)
class ConeFactors:
    """Switching lines of a planar conic partition in chain order.

    A cone {x'Qx > 0} with Q = t t'^T + t' t^T is the pair of opposite
    sectors between the lines t.x = 0 and t'.x = 0.  Sorted by start
    angle on [0, pi), the sectors of a partition tile the half turn,
    each ending where the next begins; the chain is that cyclic order,
    started at mode 1 and run across the line of its second factor.
    order[i] is the mode at chain position i, which lies between
    switching lines i and i+1 (line M is line 0); factors[i] is that
    mode's factor pair with its line-i factor first; vs[i] is the unit
    vector spanning line i.
    """

    order: tuple
    vs: tuple
    factors: tuple


def q_cone_decompose(Q):
    """Factor an indefinite 2x2 symmetric Q as t1 t2^T + t2 t1^T."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2):
        raise InvalidInputError("q_cone_decompose expects a 2x2 matrix")
    s = eig_sym(Q)
    lm, lp = float(s.eigenvalues[0]), float(s.eigenvalues[1])
    if not (lm < 0.0 < lp):
        raise InvalidInputError("cone matrix must be sign indefinite")
    vm, vp = s.eigenvectors.T
    eta = np.sqrt(-lm / (lp - lm))
    kappa = np.sqrt((lp - lm) / 2.0)
    t1 = kappa * (np.sqrt(1.0 - eta * eta) * vp - eta * vm)
    t2 = kappa * (np.sqrt(1.0 - eta * eta) * vp + eta * vm)
    rec = np.outer(t1, t2) + np.outer(t2, t1)
    err = float(np.abs(rec - Q).max())
    if err > 1e-10 * max(1.0, float(np.abs(Q).max())):
        raise PartitionError(f"cone factor reconstruction failed ({err:.2e})")
    return t1, t2


def _sector(t1, t2):
    """(start angle in [0, pi), width, index of the factor on the start
    line) of the sector of {(t1.x)(t2.x) > 0} that starts in [0, pi)."""
    a1, a2 = (float(np.arctan2(t[0], -t[1])) % np.pi for t in (t1, t2))
    width = (a2 - a1) % np.pi
    mid = a1 + 0.5 * width
    x = np.array([np.cos(mid), np.sin(mid)])
    if (t1 @ x) * (t2 @ x) > 0.0:
        return a1, width, 0
    return a2, np.pi - width, 1


def cone_chain(sys):
    """Order the planar cones into the cyclic chain of switching lines by
    sorting their sectors (see ``ConeFactors``)."""
    if sys.dim != 2:
        raise InvalidInputError("cone_chain is planar only")
    if any(m.region_kind != "cone" for m in sys.modes):
        raise InvalidInputError("cone_chain needs conic regions for every mode")
    if sys.M == 1:
        raise PartitionError("a single cone cannot partition the plane")
    pairs = [q_cone_decompose(m.Q) for m in sys.modes]
    sectors = [_sector(*pair) for pair in pairs]
    ccw = sorted(range(sys.M), key=lambda c: sectors[c][0])
    starts = np.array([sectors[c][0] for c in ccw])
    ends = starts + [sectors[c][1] for c in ccw]
    miss = float(np.abs(ends - np.append(starts[1:], starts[0] + np.pi)).max())
    if miss > TILING_TOL:
        raise PartitionError(
            f"the cone sectors do not tile the plane (mismatch {miss:.2e} rad)"
        )
    first = ccw.index(0)
    ccw = ccw[first:] + ccw[:first]
    forward = sectors[0][2] == 0  # mode 1's second factor is on its end line
    chain = ccw if forward else ccw[:1] + ccw[:0:-1]
    factors = [pairs[c] if (sectors[c][2] == 0) == forward else pairs[c][::-1] for c in chain]
    # line i from the factor of mode order[i-1] on it (line 0 from mode 1's): both
    # modes' factors span it, and this one keeps the printed sign of a zero component
    vs = []
    for t in [factors[0][0]] + [t2 for _, t2 in factors[:-1]]:
        v = np.array([-t[1], t[0]]) / np.linalg.norm(t)
        vs.append(-v if v[0] < 0 or (v[0] == 0 and v[1] < 0) else v)
    return ConeFactors(
        order=tuple(sys.modes[c].index for c in chain),
        vs=tuple(vs),
        factors=tuple(factors),
    )


@dataclass
class ExclusionReport:
    min_product: float
    n_samples: int
    seed: int
    ok: bool


EXCLUSION_BLOCK = 2048  # sample rows per block: a (block, n <= 6) float array is at most 96 KB


def sliding_exclusion(sys, policy=DEFAULT_POLICY, n_samples=10_000):
    """Sampled check that both mode fields cross the switching surface
    the same way: min over the surface of the product of normal
    components must stay positive.

    The samples are drawn and evaluated in blocks of EXCLUSION_BLOCK
    rows.  The blocks draw the seed's normal stream in its order, so
    each sample is the one a single draw of all n_samples rows gives,
    and the block minima combine under ``np.minimum``, which keeps a
    NaN as the one-block minimum does (``tests/inclusion_reference.py``
    is that one-block form).  A block's (rows, n) arrays, and for n <= 3
    the (2, rows, n) products of ``quad_forms``, stay below glibc's
    128 KB mmap threshold, so they come from the heap instead of fresh
    mappings whose cost moves with the allocator's state (for n >= 4,
    ``quad_forms`` keeps a (rows, 2, 1, n) product of 128 KB and more)."""
    _require_linear_conic(sys)
    if sys.M != 2:
        raise InvalidInputError("sliding_exclusion expects exactly two modes")
    if n_samples < 1:
        raise InvalidInputError(
            f"sliding_exclusion needs at least one sample, got {n_samples}"
        )
    Q, Q2 = sys.modes[0].Q, sys.modes[1].Q
    if Q is None or Q2 is None:
        raise InvalidInputError("sliding_exclusion expects conic regions")
    if not _opposite(Q, Q2):
        raise InvalidInputError("two-mode exclusion needs opposite cones +/-Q")
    s = eig_sym(Q)
    if np.abs(s.eigenvalues).min() <= policy.abs_tol:
        raise InvalidInputError("switching matrix Q must be invertible")
    neg = [k for k, w in enumerate(s.eigenvalues) if w < 0]
    pos = [k for k, w in enumerate(s.eigenvalues) if w > 0]
    if not neg or not pos:
        raise InvalidInputError("switching matrix Q must be sign indefinite")
    # per sample: unit positive-side then negative-side coordinates, onto x'Qx = 0
    pos_scale = np.sqrt(2.0 * s.eigenvalues[pos])
    neg_scale = np.sqrt(-2.0 * s.eigenvalues[neg])
    QA = np.stack([Q @ sys.modes[0].A, Q @ sys.modes[1].A])
    rng = np.random.default_rng(policy.seed)
    min_product = np.inf
    for start in range(0, n_samples, EXCLUSION_BLOCK):
        rows = min(EXCLUSION_BLOCK, n_samples - start)
        UW = rng.standard_normal((rows, len(pos) + len(neg)))
        U, W = UW[:, : len(pos)], UW[:, len(pos) :]
        Z = np.zeros((rows, sys.dim))
        Z[:, pos] = U / row_norms(U)[:, None] / pos_scale
        Z[:, neg] = W / row_norms(W)[:, None] / neg_scale
        X = Z @ s.eigenvectors.T
        X /= row_norms(X)[:, None]
        min_product = np.minimum(min_product, quad_forms(X, QA).prod(axis=1).min())
    return ExclusionReport(
        min_product=float(min_product),
        n_samples=n_samples,
        seed=policy.seed,
        ok=min_product > policy.margin,
    )


def _opposite(Q, Q2):
    """Whether two cone matrices are opposite, Q2 = -Q, to 1e-9 relative."""
    return np.abs(Q + Q2).max() <= 1e-9 * max(1.0, np.abs(Q).max())


def unproven_cover(sys):
    """None when the regions of a linear conic system provably cover R^n,
    otherwise why not.

    They do when a mode's region is the whole space, when a cone's Q is
    nonzero and positive semidefinite (decided exactly: x'Qx > 0 then
    holds off a proper subspace, so the cone's closure is R^n), when the
    two regions are opposite cones +/-Q, and when planar cones tile the
    plane (``cone_chain``, whose errors for a gap, an overlap or a single
    cone propagate, as they do from the planar condition (ii) procedure).
    Any other set of cones in R^n, n > 2, is not proven to cover,
    whether or not it does.
    """
    if any(m.region_kind == ALL for m in sys.modes):
        return None
    if (positive_semidefinite(sys._cone_stack) & sys._cone_stack.any(axis=(1, 2))).any():
        return None
    if sys.M == 2 and _opposite(sys.modes[0].Q, sys.modes[1].Q):
        return None
    if sys.dim == 2:
        cone_chain(sys)
        return None
    return f"no proof that the {sys.M} cone regions cover R^{sys.dim}"

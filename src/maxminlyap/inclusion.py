"""Switched-system model: regions, mode fields and the closure index map.

A system is a finite list of modes, each with a vector field (a matrix
for linear modes, expressions otherwise) and a region where it is
active: a symmetric open cone {x : x^T Q x > 0}, a general analytic
sublevel region {x : H(x) > 0}, or the whole space.  The convexified
right-hand side at x is the hull of the fields of every mode whose
region closure contains x.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PartitionError
from .numkernel import as_points, as_square, as_symmetric, quad_forms, sphere_points
from .policy import DEFAULT_POLICY
from .sysdsl import expr as ex

CONE = "cone"
EXPR = "expr"
ALL = "all"


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
        expression region H(x) >= -abs_tol max(1, |x|^2)."""
        X = np.asarray(X, dtype=float)
        if not np.isfinite(X).all():
            raise InvalidInputError("closure test: a point has non-finite entries")
        norm2 = np.vecdot(X, X)
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

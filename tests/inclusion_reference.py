"""Per-row forms of the switched system's batch evaluations, kept as
references for the tests: an expression mode's field and the region
values, with the compiled point function called at one row at a time;
and the two-mode sliding exclusion with all its samples in one block."""

import numpy as np

from maxminlyap.inclusion import ExclusionReport, _opposite
from maxminlyap.numkernel import eig_sym, quad_forms, row_norms
from maxminlyap.policy import DEFAULT_POLICY


def field(mode, X):
    """An expression mode's ``field`` at each row of X[S, n], one point
    call per row."""
    X = np.asarray(X, dtype=float)
    return np.array([mode.field(row) for row in X]).reshape(X.shape)


def region_values(sys, X):
    """``sys.region_values`` with each expression region evaluated point
    by point."""
    X = np.asarray(X, dtype=float)
    out = np.full((len(X), sys.M), np.inf)
    if sys._cones:
        out[:, sys._cones] = quad_forms(X, sys._cone_stack)
    for c in sys._exprs:
        region = sys.modes[c]._H_compiled
        out[:, c] = [region(x)[0] for x in X]
    return out


def sliding_exclusion(sys, policy=DEFAULT_POLICY, n_samples=10_000):
    """``inclusion.sliding_exclusion`` drawing and evaluating all its
    samples in one block, on a two-mode system of opposite cones +/-Q
    with Q invertible and sign indefinite (not checked here)."""
    Q = sys.modes[0].Q
    assert _opposite(Q, sys.modes[1].Q)
    s = eig_sym(Q)
    neg = [k for k, w in enumerate(s.eigenvalues) if w < 0]
    pos = [k for k, w in enumerate(s.eigenvalues) if w > 0]
    # per sample: unit positive-side then negative-side coordinates, onto x'Qx = 0
    rng = np.random.default_rng(policy.seed)
    UW = rng.standard_normal((n_samples, len(pos) + len(neg)))
    U, W = UW[:, : len(pos)], UW[:, len(pos) :]
    Z = np.zeros((n_samples, sys.dim))
    Z[:, pos] = U / row_norms(U)[:, None] / np.sqrt(2.0 * s.eigenvalues[pos])
    Z[:, neg] = W / row_norms(W)[:, None] / np.sqrt(-2.0 * s.eigenvalues[neg])
    X = Z @ s.eigenvectors.T
    X /= row_norms(X)[:, None]
    QA = np.stack([Q @ sys.modes[0].A, Q @ sys.modes[1].A])
    min_product = quad_forms(X, QA).prod(axis=1).min(initial=np.inf)
    return ExclusionReport(
        min_product=float(min_product),
        n_samples=n_samples,
        seed=policy.seed,
        ok=min_product > policy.margin,
    )

"""Dense small-matrix numeric substrate.

Everything downstream works with symmetric matrices of dimension <= 6:
quadratic-form bases, cone matrices, and the symmetrized products
A^T P + P A whose definiteness decides certificates.  The heavy lifting
is delegated to LAPACK through numpy; this module pins the
contracts (symmetry, finiteness and shape checks) that the rest of the
package relies on and returns numpy's own results: ``eig_sym`` calls
the LAPACK gufunc behind ``np.linalg.eigh`` on a checked matrix, which
is ``eigh`` bit for bit without its per-call dispatch.  ``as_symmetric``,
``eig_sym`` and ``project_psd`` take one matrix or a (k, n, n) stack; a
stack gets one validation pass and one LAPACK call, and each of its
matrices comes out bit for bit as it would alone.

The condition (i) search solves stacks that it builds itself from
checked parts (validated bases, the system's A, its cone matrices Q
checked with the groups, its own projected bases) hundreds of times a
second, where the checks cost more than the solve.  ``_eig_built`` and
``_project_built`` are ``eig_sym`` and ``project_psd`` for those stacks
alone: the same symmetrization and LAPACK call, bit for bit, with the
checks run only when the solve's eigenvalues do not sum to a finite
number, so a bad stack is refused as ``eig_sym`` refuses it.  The work
counters of a traced run see only the public functions, so they do not
count these solves.
"""

import math

import numpy as np
from numpy.linalg._linalg import EighResult
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import InvalidInputError


def as_square(M, name="matrix"):
    """Validate and return a float square array; rejects non-finite input."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return A


def as_points(x, dim, what, max_ndim=1):
    """x as a float array of dim-vectors along its last axis, with at most
    max_ndim axes; otherwise InvalidInputError names the expected dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,) or x.ndim > max_ndim:
        raise InvalidInputError(f"{what} must have dimension {dim}, got shape {x.shape}")
    return x


def as_symmetric(M, name="matrix"):
    """Validate finiteness and symmetry up to representation noise (1e-8
    relative to each matrix's largest entry) of one matrix or of each
    matrix in a (k, n, n) stack, and symmetrize exactly as 0.5 (A + A^T).
    Entries of 2^1023 or more in size can overflow that sum; a matrix
    whose symmetrization is not finite is refused too.  No input warns."""
    A = np.asarray(M, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    AT = A.swapaxes(-1, -2)
    # entries below 2^1023 in size (finite, and no two of them overflow
    # their sum or difference), and within 1e-8 <= 1e-8 max(scale, 1) of
    # symmetric everywhere: every matrix passes its own tests
    if A.size and np.abs(A).max() < 2.0**1023 and np.abs(A - AT).max() <= 1e-8:
        return 0.5 * (A + AT)
    # a non-finite entry makes its matrix's largest |entry| inf or nan
    scale = np.abs(A).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    with np.errstate(over="ignore"):
        skew = np.abs(A - AT).max(axis=(-2, -1))
        S = 0.5 * (A + AT)
    if (skew > 1e-8 * np.maximum(scale, 1.0)).any():
        raise InvalidInputError(f"{name} is not symmetric")
    if not np.isfinite(S).all():
        raise InvalidInputError(f"{name} overflows when symmetrized")
    return S


def eig_sym(M):
    """numpy's ``EighResult`` of a symmetric matrix, or of each matrix in a
    (k, n, n) stack: ``eigenvalues`` ascending along the last axis, and
    column k of ``eigenvectors`` the orthonormal vector of eigenvalue k.

    ``np.linalg.eigh(A)`` of a float64 array A is the gufunc
    ``eigh_lo(A, signature="d->dd")`` (LAPACK ``dsyevd`` on the lower
    triangle), wrapped in argument checks and dtype casts that do
    nothing to the float64 (k, n, n) stack ``as_symmetric`` returns and
    in an ``errstate`` that turns a failed solve into
    ``np.linalg.LinAlgError``.  This calls the gufunc alone, so its
    results are ``eigh``'s bit for bit (``tests/test_numkernel.py``) at
    about 4 us less per call, and raises ``LinAlgError`` on any
    non-finite eigenvalue: a failed solve (numpy warns of its invalid
    value first), and also an eigenvalue beyond the float range, which
    ``eigh`` returns as inf.
    """
    w, V = _eigh_lo(as_symmetric(M), signature="d->dd")
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("eigen-solve gave a non-finite eigenvalue")
    return EighResult(w, V)


def _eig_built(S):
    """``eig_sym(S)`` bit for bit, for a float (k, n, n) stack S built from
    checked parts, so finite and symmetric up to rounding: it symmetrizes
    as ``as_symmetric`` does, 0.5 (S + S^T), and solves without the
    checks, with no warning.  Eigenvalues whose sum is not finite (a
    non-finite entry, an overflowed sum, a failed solve; or finite
    eigenvalues whose sum overflows, which ``eig_sym`` then returns as
    they are) pass S to ``eig_sym``, so a bad stack is refused with
    ``eig_sym``'s exception and warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        w, V = _eigh_lo(0.5 * (S + S.swapaxes(-1, -2)), signature="d->dd")
        finite = math.isfinite(w.sum())
    return EighResult(w, V) if finite else eig_sym(S)


def negdef_margin(M):
    """Largest eigenvalue of a symmetric matrix; M < 0 iff the result < 0."""
    return float(eig_sym(M).eigenvalues[-1])


def positive_definite(M):
    """Whether a symmetric matrix, or each matrix of a (k, n, n) stack, is
    positive definite, decided exactly for its exact entries.

    ``eigh`` decides a matrix whose smallest eigenvalue is above
    64 n eps max|lambda|: the eigenvalues it returns are exact for a
    matrix within a backward error of about n eps max|lambda|, and by
    Weyl's inequality that moves no eigenvalue further.  Any other matrix
    is decided by an LDL^T of its symmetric part in ``Fraction``
    arithmetic, where every pivot must be positive (Sylvester).
    """
    return _definite(M, strict=True)


def positive_semidefinite(M):
    """Whether a symmetric matrix, or each matrix of a (k, n, n) stack, is
    positive semidefinite, decided exactly for its exact entries.

    ``eigh`` decides a matrix whose smallest eigenvalue is more than
    64 n eps max|lambda| from zero, on either side (the bound of
    ``positive_definite``).  Any other matrix is decided by an exact
    LDL^T of its symmetric part, where every pivot must be nonnegative
    and a zero pivot is allowed only over a zero rest of its column (a
    positive semidefinite matrix with a zero diagonal entry is zero in
    that row and column, and its Schur complements stay semidefinite).
    """
    return _definite(M, strict=False)


def _definite(M, strict):
    """``positive_definite`` (strict) or ``positive_semidefinite``."""
    A = as_symmetric(M)
    n = A.shape[-1]
    lam = np.linalg.eigvalsh(A.reshape(-1, n, n))
    bound = 64 * n * np.finfo(float).eps * np.abs(lam).max(axis=-1)
    ok = lam[:, 0] > bound
    unsure = ~ok if strict else ~ok & (lam[:, 0] >= -bound)
    raw = np.asarray(M, dtype=float).reshape(-1, n, n)
    for i in np.flatnonzero(unsure):
        ok[i] = _exact_definite(raw[i].tolist(), strict)
    return ok.reshape(A.shape[:-2])[()]


def _exact_definite(P, strict):
    """Every pivot of the LDL^T of (P + P^T) / 2, P a list of rows of
    finite floats, is positive in exact arithmetic (strict), or else
    nonnegative, with zero only over a zero rest of its column."""
    from fractions import Fraction  # the exact path is rare; every CLI call pays imports

    n = len(P)
    S = [[(Fraction(P[i][j]) + Fraction(P[j][i])) / 2 for j in range(n)] for i in range(n)]
    for k in range(n):
        if not strict and S[k][k] == 0 and not any(S[i][k] for i in range(k + 1, n)):
            continue
        if S[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = S[i][k] / S[k][k]
            for j in range(k + 1, n):
                S[i][j] -= f * S[k][j]
    return True


def solve_lyapunov(A):
    """P solving A^T P + P A = -I, for Hurwitz A.

    The Kronecker form: with row-major vec, vec(A^T P + P A) is
    (kron(A^T, I) + kron(I, A^T)) vec(P), an n^2 x n^2 system that one
    LU solve decides; for the n <= 6 of this package that is at most 36
    unknowns.  A singular system (two eigenvalues of A summing to zero)
    raises ``np.linalg.LinAlgError``.
    """
    B = as_square(A)
    n = B.shape[0]
    eye = np.eye(n)
    L = np.kron(B.T, eye) + np.kron(eye, B.T)
    P = np.linalg.solve(L, -eye.ravel()).reshape(n, n)
    return 0.5 * (P + P.T)


def quad_forms(X, Ps):
    """x^T P_k x for Ps[K, n, n] at x[n] (shape K) or at each row of X[S, n]
    (shape (S, K)); bit for bit ``x @ P @ x`` at each row.

    For n <= 3 the products x @ P of all rows are one gemm per base,
    which rounds as the per-row gemv; for n >= 4 the gemm kernel sums in
    another order, so each row keeps its own gemv.  The dot with x is
    ``np.vecdot``, the same 1-D dot product as the per-row ``y @ x``.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1] <= 3:
        XP = (X @ Ps).swapaxes(0, -2)
    else:
        XP = (X[..., None, None, :] @ Ps)[..., 0, :]
    return np.vecdot(XP, X[..., None, :])


def sphere_points(dim, n, rng, radius=1.0):
    """n points on the sphere of the given radius, drawn from ``rng``.

    Rows are divided by ``np.linalg.norm(pts, axis=1)``, a sum of squares
    that differs from ``row_norms`` in the last bit on some rows; swapping
    one for the other moves every seeded sample drawn here."""
    pts = rng.standard_normal((n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts


def row_norms(X):
    """Norm of each row of X, bit for bit ``math.sqrt(x @ x)`` of that row
    x in any layout.  That is ``np.linalg.norm`` of the row where the
    rows are contiguous (C order, column slices), not where they are
    strided (Fortran order, n >= 4): ``np.linalg.norm`` copies a strided
    row first, and the dot product of the copy sums in another order.
    ``np.linalg.norm(X, axis=1)`` is neither: it sums squares, and differs
    in the last bit on some rows (``sphere_points`` normalises with it)."""
    return np.sqrt(np.vecdot(X, X))


def by_column(fn, X, mask):
    """out[S, C, n] holding fn(c, X[rows]) at the rows column c of mask[S, C]
    marks, zero elsewhere: one row-form call per marked column."""
    out = np.zeros(mask.shape + X.shape[1:])
    for c in np.flatnonzero(mask.any(axis=0)).tolist():
        out[mask[:, c], c] = fn(c, X[mask[:, c]])
    return out


def project_psd(M, floor=0.0):
    """Nearest (Frobenius) symmetric matrix with eigenvalues >= floor, of
    one matrix or of each matrix in a (k, n, n) stack."""
    return _floored(eig_sym(M), floor)


def _project_built(S, floor):
    """``project_psd(S, floor)`` bit for bit, for a (k, n, n) stack built
    from checked parts (``_eig_built``)."""
    return _floored(_eig_built(S), floor)


def _floored(s, floor):
    """The matrices of eigen-solve s with every eigenvalue raised to floor."""
    V = s.eigenvectors
    return (V * np.maximum(s.eigenvalues, floor)[..., None, :]) @ V.swapaxes(-1, -2)

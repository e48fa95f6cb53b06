"""Dense small-matrix numeric substrate.

Everything downstream works with symmetric matrices of dimension <= 6:
quadratic-form bases, cone matrices, and the symmetrized products
A^T P + P A whose definiteness decides certificates.  The heavy lifting
is delegated to LAPACK through numpy; this module pins the
contracts (symmetry, finiteness and shape checks) that the rest of the
package relies on and returns numpy's own results: ``eig_sym`` is
``np.linalg.eigh`` of a checked matrix.  ``as_symmetric``, ``eig_sym``
and ``project_psd`` take one matrix or a (k, n, n) stack; a stack gets
one validation pass and one LAPACK call, and each of its matrices comes
out bit for bit as it would alone.
"""

import numpy as np

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
    matrix in a (k, n, n) stack, and symmetrize exactly."""
    A = np.asarray(M, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    AT = A.swapaxes(-1, -2)
    # finite, and within 1e-8 <= 1e-8 max(scale, 1) of symmetric everywhere:
    # every matrix passes its own test; finiteness first, so inf - inf
    # never warns
    if A.size and np.isfinite(A).all() and np.abs(A - AT).max() <= 1e-8:
        return 0.5 * (A + AT)
    # a non-finite entry makes its matrix's largest |entry| inf or nan
    scale = np.abs(A).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    if (np.abs(A - AT).max(axis=(-2, -1)) > 1e-8 * np.maximum(scale, 1.0)).any():
        raise InvalidInputError(f"{name} is not symmetric")
    return 0.5 * (A + AT)


def eig_sym(M):
    """numpy's ``EighResult`` of a symmetric matrix, or of each matrix in a
    (k, n, n) stack: ``eigenvalues`` ascending along the last axis, and
    column k of ``eigenvectors`` the orthonormal vector of eigenvalue k."""
    return np.linalg.eigh(as_symmetric(M))


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
    A = as_symmetric(M)
    n = A.shape[-1]
    lam = np.linalg.eigvalsh(A.reshape(-1, n, n))
    ok = lam[:, 0] > 64 * n * np.finfo(float).eps * np.abs(lam).max(axis=-1)
    raw = np.asarray(M, dtype=float).reshape(-1, n, n)
    for i in np.flatnonzero(~ok):
        ok[i] = _exact_positive_definite(raw[i].tolist())
    return ok.reshape(A.shape[:-2])[()]


def _exact_positive_definite(P):
    """Every pivot of the LDL^T of (P + P^T) / 2, P a list of rows of
    finite floats, is positive in exact arithmetic."""
    from fractions import Fraction  # the exact path is rare; every CLI call pays imports

    n = len(P)
    S = [[(Fraction(P[i][j]) + Fraction(P[j][i])) / 2 for j in range(n)] for i in range(n)]
    for k in range(n):
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
    """n points on the sphere of the given radius, drawn from ``rng``."""
    pts = rng.standard_normal((n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts


def row_norms(X):
    """Norm of each row of X, bit for bit ``math.sqrt(x @ x)`` of that row
    x in any layout.  That is ``np.linalg.norm`` of the row where the
    rows are contiguous (C order, column slices), not where they are
    strided (Fortran order, n >= 4): ``np.linalg.norm`` copies a strided
    row first, and the dot product of the copy sums in another order."""
    return np.sqrt(np.vecdot(X, X))


def project_psd(M, floor=0.0):
    """Nearest (Frobenius) symmetric matrix with eigenvalues >= floor, of
    one matrix or of each matrix in a (k, n, n) stack."""
    s = eig_sym(M)
    V = s.eigenvectors
    return (V * np.maximum(s.eigenvalues, floor)[..., None, :]) @ V.swapaxes(-1, -2)

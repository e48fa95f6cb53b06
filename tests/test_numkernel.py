import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminlyap.errors import InvalidInputError
from maxminlyap.numkernel import (
    Spectrum,
    as_square,
    as_symmetric,
    eig_sym,
    negdef_margin,
    project_psd,
    quad_forms,
    row_norms,
    solve_lyapunov,
)
from maxminlyap.setderiv import _dots

R2 = math.sqrt(2.0)


def reconstruct(s):
    """V diag(w) V^T of a Spectrum."""
    v = s.eigenvectors
    return v @ np.diag(s.eigenvalues) @ v.T


def expm(A, t=1.0):
    """Matrix exponential e^{A t}; the simulator tests use it as reference."""
    B = as_square(A)
    if not np.isfinite(t):
        raise InvalidInputError("expm: t must be finite")
    return scipy.linalg.expm(B * float(t))


def is_positive_definite(M, floor=0.0):
    return -negdef_margin(-as_symmetric(M)) > floor


def test_eig_identity():
    s = eig_sym(np.eye(2))
    np.testing.assert_allclose(s.eigenvalues, [1.0, 1.0])


def test_eig_hand_roots():
    # characteristic polynomial of [[1, r], [r, 1]]: (1-l)^2 = r^2
    s = eig_sym(np.array([[1.0, R2], [R2, 1.0]]))
    np.testing.assert_allclose(s.eigenvalues, [1.0 - R2, 1.0 + R2], atol=1e-12)


def test_eig_diagonal_axes():
    s = eig_sym(np.diag([3.0, -5.0]))
    np.testing.assert_allclose(s.eigenvalues, [-5.0, 3.0])
    np.testing.assert_allclose(np.abs(s.eigenvectors), np.eye(2)[:, ::-1], atol=1e-14)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 7)
        B = rng.standard_normal((n, n))
        M = 0.5 * (B + B.T)
        s = eig_sym(M)
        scale = max(1.0, float(np.abs(M).max()))
        assert np.abs(reconstruct(s) - M).max() <= 1e-10 * scale
        assert np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(s.eigenvalues) >= -1e-14)


def test_eig_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_expm_zero_is_identity():
    np.testing.assert_allclose(expm(np.zeros((3, 3)), 2.7), np.eye(3))


def test_expm_diagonal():
    got = expm(np.diag([0.3, -1.2]), 2.0)
    np.testing.assert_allclose(got, np.diag([np.exp(0.6), np.exp(-2.4)]), rtol=1e-12)


def test_expm_benchmark_closed_form():
    # e^{A t} = e^{-t/10} [[cos(s5 t), sin(s5 t)/s5], [-s5 sin(s5 t), cos(s5 t)]]
    A = np.array([[-0.1, 1.0], [-5.0, -0.1]])
    s5 = math.sqrt(5.0)
    for t in (0.1, 0.7, 1.9):
        c, s = math.cos(s5 * t), math.sin(s5 * t)
        want = math.exp(-t / 10.0) * np.array([[c, s / s5], [-s5 * s, c]])
        np.testing.assert_allclose(expm(A, t), want, atol=1e-8)
    # quarter period: cos = -1, sin = 0
    t = math.pi / s5
    want = -math.exp(-t / 10.0) * np.eye(2)
    np.testing.assert_allclose(expm(A, t), want, atol=1e-8)


def test_expm_semigroup_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 4)
        A = rng.standard_normal((n, n))
        s, t = rng.uniform(0.1, 1.0, size=2)
        left = expm(A, s) @ expm(A, t)
        np.testing.assert_allclose(left, expm(A, s + t), atol=1e-8, rtol=1e-8)


def test_negdef_margin_values():
    assert negdef_margin(-np.eye(3)) == pytest.approx(-1.0)
    # symmetrized unstable mode with P = I: diagonal read-off
    assert negdef_margin(np.diag([3.8, -4.2])) == pytest.approx(3.8)
    assert negdef_margin(np.zeros((2, 2))) == pytest.approx(0.0)


def test_negdef_margin_rayleigh_upper_bound():
    rng = np.random.default_rng(13)
    B = rng.standard_normal((4, 4))
    M = 0.5 * (B + B.T)
    margin = negdef_margin(M)
    dirs = rng.standard_normal((10_000, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sampled = np.einsum("si,ij,sj->s", dirs, M, dirs).max()
    assert sampled <= margin + 1e-6
    assert margin - sampled <= 0.05 * max(1.0, abs(margin)) + 1e-6


def test_solve_lyapunov():
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])
    P = solve_lyapunov(A)
    np.testing.assert_allclose(A.T @ P + P @ A, -np.eye(2), atol=1e-10)
    assert is_positive_definite(P)


def test_project_psd_floor():
    M = np.diag([2.0, -3.0])
    got = project_psd(M, floor=0.5)
    np.testing.assert_allclose(got, np.diag([2.0, 0.5]))


def test_spectrum_type():
    s = eig_sym(np.diag([1.0, 2.0]))
    assert isinstance(s, Spectrum)


def ref_project_psd(M, floor):
    """The per-matrix projection as first written: V diag(max(w, floor)) V^T."""
    s = eig_sym(M)
    return s.eigenvectors @ np.diag(np.maximum(s.eigenvalues, floor)) @ s.eigenvectors.T


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_stacked_kernels_are_bitwise_per_matrix(n, K):
    # one LAPACK call for a stack must give each matrix's own bits: the
    # search steers on these values, so a last-bit change moves iterates
    rng = np.random.default_rng(100 * n + K)
    for _ in range(200):
        B = rng.standard_normal((K, n, n))
        # symmetric within the 1e-8 tolerance, not exactly
        M = B + B.swapaxes(1, 2) + 1e-12 * rng.standard_normal((K, n, n))
        s = eig_sym(M)
        P = project_psd(M, floor=1e-6)
        assert s.eigenvalues.shape == (K, n) and s.eigenvectors.shape == (K, n, n)
        for k in range(K):
            one = eig_sym(M[k])
            assert np.array_equal(s.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(s.eigenvectors[k], one.eigenvectors)
            assert np.array_equal(P[k], project_psd(M[k], floor=1e-6))
            assert np.array_equal(P[k], ref_project_psd(M[k], 1e-6))


def test_stack_validation_names_any_bad_member():
    good = np.stack([np.eye(2), np.diag([1.0, 2.0])])
    np.testing.assert_array_equal(as_symmetric(good), good)
    for bad_entry in (np.nan, np.inf):
        bad = good.copy()
        bad[1, 0, 1] = bad[1, 1, 0] = bad_entry
        with pytest.raises(InvalidInputError, match="non-finite"):
            eig_sym(bad)
    bad = good.copy()
    bad[1, 0, 1] = 1e-3
    with pytest.raises(InvalidInputError, match="not symmetric"):
        project_psd(bad)
    # the tolerance is relative to each matrix's own scale
    scaled = np.stack([1e6 * np.eye(2), np.eye(2)])
    scaled[1, 0, 1] = 1e-3
    with pytest.raises(InvalidInputError, match="not symmetric"):
        as_symmetric(scaled)
    with pytest.raises(InvalidInputError, match="square"):
        as_symmetric(np.zeros((2, 2, 3)))
    with pytest.raises(InvalidInputError, match="square"):
        as_symmetric(np.zeros((2, 2, 2, 2)))


def _layout(wide, n, layout):
    """n-vectors along the last axis of ``wide`` (at least n + 2 wide): a
    C-order copy, a column slice (as ``sliding_exclusion`` passes) or a
    slice with a row step (as ``_sampled_active`` passes)."""
    if layout == "C":
        return wide[..., :n].copy()
    if layout == "column":
        return wide[..., 1 : n + 1]
    return wide[::2, ..., 2 : n + 2]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    K=st.integers(1, 4),
    S=st.sampled_from([1, 2, 7, 400, 20000]),
    layout=st.sampled_from(["C", "column", "step"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_base_value_kernels_equal_the_per_row_products_bitwise(n, K, S, layout, scale, seed):
    """``quad_forms`` (gemm for n <= 3, per-row gemv above), ``row_norms``
    and ``setderiv._dots`` round as the per-row ``x @ P @ x``,
    ``np.linalg.norm(x)`` (``math.sqrt(x @ x)`` for Fortran-order rows)
    and ``a @ b``."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((K, n, n))
    Ps = B + B.swapaxes(1, 2)
    rows = 2 * S if layout == "step" else S
    X = _layout(scale * rng.standard_normal((rows, n + 2)), n, layout)
    want = np.array([[x @ P @ x for P in Ps] for x in X])
    assert quad_forms(X, Ps).tobytes() == want.tobytes()
    assert quad_forms(X[0], Ps).tobytes() == want[0].tobytes()
    assert row_norms(X).tobytes() == np.array([np.linalg.norm(x) for x in X]).tobytes()
    # strided rows: np.linalg.norm copies them first, x @ x does not
    XF = np.asfortranarray(X)
    assert row_norms(XF).tobytes() == np.array([math.sqrt(x @ x) for x in XF]).tobytes()
    A = _layout(rng.standard_normal((rows, 2, n + 2)), n, layout)
    F = _layout(scale * rng.standard_normal((rows, 3, n + 2)), n, layout)
    want = np.array([[[a @ f for f in Fr] for a in Ar] for Ar, Fr in zip(A, F)])
    assert _dots(A, F).tobytes() == want.tobytes()

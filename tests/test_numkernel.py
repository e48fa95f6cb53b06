import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminlyap import fixtures, numkernel
from maxminlyap.errors import InvalidInputError
from maxminlyap.numkernel import (
    as_square,
    as_symmetric,
    eig_sym,
    negdef_margin,
    positive_definite,
    positive_semidefinite,
    project_psd,
    quad_forms,
    row_norms,
    solve_lyapunov,
)
from maxminlyap.setderiv import _dots

R2 = math.sqrt(2.0)


def reconstruct(s):
    """V diag(w) V^T of an eigendecomposition."""
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solve_lyapunov_is_scipys_solution(n):
    # the Kronecker solve against scipy's Bartels-Stewart, on random
    # Hurwitz matrices: spectrum shifted to real parts in [-2.1, -0.1]
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        A = rng.standard_normal((n, n))
        A -= (np.linalg.eigvals(A).real.max() + 0.1 + 2.0 * rng.random()) * np.eye(n)
        P = solve_lyapunov(A)
        want = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(n))
        np.testing.assert_allclose(P, want, rtol=1e-9)
        assert np.array_equal(P, P.T)
        np.testing.assert_allclose(A.T @ P + P @ A, -np.eye(n), atol=1e-9 * np.abs(P).max())
        assert is_positive_definite(P)


@pytest.mark.parametrize(
    "A", [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])], ids=["saddle", "rotation"]
)
def test_solve_lyapunov_refuses_a_singular_system(A):
    # two eigenvalues summing to zero leave A^T P + P A = -I without a solution
    with pytest.raises(np.linalg.LinAlgError):
        solve_lyapunov(A)


def test_project_psd_floor():
    M = np.diag([2.0, -3.0])
    got = project_psd(M, floor=0.5)
    np.testing.assert_allclose(got, np.diag([2.0, 0.5]))


def test_spectrum_type():
    # numpy's own EighResult: its two fields, eigenvalues ascending
    s = eig_sym(np.diag([2.0, 1.0]))
    assert isinstance(s, type(np.linalg.eigh(np.eye(1))))
    assert s.eigenvalues.tolist() == [1.0, 2.0]
    np.testing.assert_array_equal(np.abs(s.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])


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


def ref_as_symmetric(M, name="matrix"):
    """``as_symmetric`` with each matrix checked on its own scale and no
    shortcut for a symmetric stack."""
    A = np.asarray(M, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    AT = A.swapaxes(-1, -2)
    scale = np.abs(A).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    if (np.abs(A - AT).max(axis=(-2, -1)) > 1e-8 * np.maximum(scale, 1.0)).any():
        raise InvalidInputError(f"{name} is not symmetric")
    return 0.5 * (A + AT)


def _symmetry_cases():
    """Stacks and single matrices at scale < 1 and > 1 with an off-diagonal
    deviation at, just inside and just outside 1e-8 and the matrix's own
    bound 1e-8 max(scale, 1), and with inf or NaN on or off the diagonal."""
    for scale in (0.25, 3.0, 1e6):
        bound = 1e-8 * max(scale, 1.0)
        for d in {1e-8, bound}:
            for dev in (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0), 2.0 * d):
                M = scale * np.diag([1.0, -0.5, 0.25])
                M[0, 2] += dev
                yield M
                yield np.stack([np.eye(3), M, -M.T])
    for bad in (np.inf, -np.inf, np.nan):
        for cells in ([(0, 0)], [(1, 2)], [(1, 2), (2, 1)]):
            M = np.diag([2.0, 1.0, 0.5])
            for i, j in cells:
                M[i, j] = bad
            yield M
            yield np.stack([np.eye(3), M])
    yield np.zeros((0, 3, 3))
    yield np.zeros((0, 0))


@pytest.mark.parametrize("M", list(_symmetry_cases()))
def test_as_symmetric_is_the_per_matrix_check(M):
    # the whole-stack shortcut returns the checked array's bits, and any
    # other input meets each matrix's own checks with their messages; no
    # input warns (a non-finite one is never subtracted)
    def outcome(fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return fn(M, "P").tobytes()
            except Exception as err:  # noqa: BLE001 - the comparison is the test
                return type(err), str(err)

    assert outcome(as_symmetric) == outcome(ref_as_symmetric)


def test_as_symmetric_shortcut_and_checks_both_run():
    # a symmetric stack takes the shortcut; a deviation inside one
    # matrix's own bound but above 1e-8 passes the per-matrix check
    M = np.stack([np.eye(2), 1e6 * np.eye(2)])
    M[1, 0, 1] = 1e-3
    assert as_symmetric(M).tobytes() == ref_as_symmetric(M).tobytes()
    assert as_symmetric(M)[1, 0, 1] == as_symmetric(M)[1, 1, 0] == 5e-4


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


# a singular base that eigh calls positive definite: lambda_min about 1e-14
SINGULAR_P = np.array([[25.0, -10.0, -5.0], [-10.0, 53.0, -61.0], [-5.0, -61.0, 82.0]])


def test_positive_definite_refuses_a_singular_base():
    assert round(np.linalg.det(SINGULAR_P)) == 0
    assert not positive_definite(SINGULAR_P)
    assert positive_definite(np.stack([np.eye(3), SINGULAR_P, 2.0 * np.eye(3)])).tolist() == [
        True,
        False,
        True,
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-9, 9), min_size=n * (n - 1), max_size=n * (n - 1))
)))
def test_positive_definite_decides_rank_deficient_grams_exactly(case):
    # B B^T of an integer n x (n - 1) B is singular; a diagonal shift of
    # 2^-40 makes it positive definite, below eigh's backward-error margin
    n, entries = case
    B = np.array(entries, dtype=float).reshape(n, n - 1)
    P = B @ B.T
    assert not positive_definite(P)
    assert positive_definite(P + 2.0**-40 * np.eye(n))
    assert positive_definite(P + np.eye(n))


def test_positive_definite_decides_near_singular_bases_exactly(monkeypatch):
    # tiny but positive pivots pass, a tiny negative one fails; bundled
    # bases pass on the eigenvalue margin without the exact path
    assert positive_definite(np.diag([1.0, 1e-300]))
    assert not positive_definite(np.diag([1.0, -1e-300]))
    assert not positive_definite(np.diag([1.0, 0.0]))
    assert positive_definite(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))
    assert not positive_definite(np.array([[1.0, 1.0 + 2.0**-52], [1.0 + 2.0**-52, 1.0]]))

    def refuse(P, strict):
        raise AssertionError("exact path taken")

    monkeypatch.setattr(numkernel, "_exact_definite", refuse)
    for name in ("example1", "example3"):
        _, _, basis = fixtures.example(name)
        assert positive_definite(np.stack(basis.matrices)).all()
    assert positive_definite(np.stack(fixtures.example1_candidate().matrices)).all()
    assert positive_definite(np.stack(fixtures.example3_candidate().matrices)).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-9, 9), min_size=n * (n - 1), max_size=n * (n - 1))
)))
def test_positive_semidefinite_decides_rank_deficient_grams_exactly(case):
    # B B^T of an integer n x (n - 1) B is singular and semidefinite; a
    # diagonal shift of -2^-40, below eigh's backward-error margin, gives
    # it a negative eigenvalue
    n, entries = case
    B = np.array(entries, dtype=float).reshape(n, n - 1)
    P = B @ B.T
    assert positive_semidefinite(P)
    assert not positive_semidefinite(P - 2.0**-40 * np.eye(n))
    assert not positive_semidefinite(-P - np.eye(n))


def test_positive_semidefinite_allows_a_zero_pivot_only_over_a_zero_column(monkeypatch):
    assert positive_semidefinite(SINGULAR_P)
    assert not positive_semidefinite(SINGULAR_P - 2.0**-40 * np.eye(3))
    assert positive_semidefinite(np.diag([1.0, 0.0]))
    assert positive_semidefinite(np.diag([0.0, 1.0]))
    assert positive_semidefinite(np.zeros((3, 3)))
    assert positive_semidefinite(np.ones((3, 3)))
    assert not positive_semidefinite(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # a zero pivot over a tiny nonzero column: eigh's margin cannot tell
    assert not positive_semidefinite(np.array([[0.0, 1e-20], [1e-20, 1.0]]))
    assert not positive_semidefinite(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1e-20], [0.0, 1e-20, 1.0]]))
    assert positive_semidefinite(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1e-300]]))
    assert not positive_semidefinite(np.array([[0.0, 0.0], [0.0, -1e-300]]))
    assert not positive_semidefinite(np.array([[1.0, 1.0 + 2.0**-52], [1.0 + 2.0**-52, 1.0]]))
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, -1.0]), np.eye(2)])
    assert positive_semidefinite(stack).tolist() == [True, False, True]

    def refuse(P, strict):
        raise AssertionError("exact path taken")

    # eigenvalues clear of zero on either side decide without it
    monkeypatch.setattr(numkernel, "_exact_definite", refuse)
    assert positive_semidefinite(np.stack([np.eye(2), np.diag([1.0, -1.0])])).tolist() == [True, False]


def test_positive_definite_checks_its_input():
    with pytest.raises(InvalidInputError, match="not symmetric"):
        positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="non-finite"):
        positive_definite(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def _eigh_cases():
    """Symmetric matrices and stacks for n = 2..6: random, with +/-0.0
    entries, and with repeated eigenvalues."""
    rng = np.random.default_rng(39)
    for n in range(2, 7):
        for k in (1, 2, 7, 40):
            B = rng.standard_normal((k, n, n))
            M = B + B.swapaxes(1, 2)
            # signed zeros: 40% of the symmetric pairs become +0.0, and
            # about half the diagonal entries -0.0 or +0.0 (x * -0.0)
            Z = np.where(rng.random((k, n, n)) < 0.4, 0.0, M)
            Z = np.triu(Z) + np.triu(Z, 1).swapaxes(1, 2)
            Z[:, range(n), range(n)] *= np.where(rng.random((k, n)) < 0.5, -0.0, 1.0)
            # repeated eigenvalues: V diag(w) V^T with w drawn from two values,
            # and scaled identities
            V = np.linalg.qr(rng.standard_normal((k, n, n)))[0]
            w = rng.choice([-1.5, 2.0], size=(k, n))
            R = (V * w[:, None, :]) @ V.swapaxes(1, 2)
            R = 0.5 * (R + R.swapaxes(1, 2))
            eyes = rng.integers(-2, 3, size=(k, 1, 1)) * np.eye(n)
            for stack in (M, Z, R, eyes):
                yield stack
                yield stack[0]


def test_eig_sym_is_eigh_byte_for_byte():
    # the gufunc behind np.linalg.eigh, called alone: same bytes, same
    # result type, on single matrices and on stacks of 1 to 40
    seen_negative_zero = False
    for M in _eigh_cases():
        got, want = eig_sym(M), np.linalg.eigh(M)
        assert type(got) is type(want)
        assert got.eigenvalues.dtype == want.eigenvalues.dtype == np.float64
        assert got.eigenvalues.shape == want.eigenvalues.shape
        assert got.eigenvectors.shape == want.eigenvectors.shape
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        seen_negative_zero |= bool(np.signbit(M[M == 0.0]).any())
    assert seen_negative_zero


def test_eig_sym_refusals_keep_their_messages():
    with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
        eig_sym(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="matrix is not symmetric"):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="matrix must be square"):
        eig_sym(np.zeros((2, 3)))


def test_eig_sym_raises_linalgerror_on_a_nonfinite_eigenvalue():
    # finite entries with a finite symmetrization whose largest eigenvalue,
    # 2.4e308, is beyond the float range: eigh returns inf there, and
    # eig_sym refuses it as it refuses a solve that did not converge
    big = np.full((3, 3), 8e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.linalg.eigh(as_symmetric(big)).eigenvalues[-1] == np.inf
        with pytest.raises(np.linalg.LinAlgError, match="non-finite eigenvalue"):
            eig_sym(big)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite eigenvalue"):
            eig_sym(np.stack([np.eye(3), big]))


HUGE_Q = np.diag([1.5e308, -1.5e308])


@pytest.mark.parametrize(
    "S",
    [
        np.array([[[np.nan, 0.0], [0.0, 1.0]]]),
        np.array([np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]]),
        np.array([np.eye(2), HUGE_Q]),
        np.full((2, 2, 2), 1.5e308),
        np.stack([np.eye(3), np.full((3, 3), 8e307)]),
    ],
    ids=["nan", "inf", "overflowing-sum", "full", "eigenvalue-overflow"],
)
def test_built_solves_refuse_as_eig_sym_does(S):
    # a stack the certifier built is solved unchecked; a non-finite
    # eigenvalue hands it to eig_sym, so each bad stack is refused with
    # eig_sym's exception, message and warnings, and with no other warning
    def outcome(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises((InvalidInputError, np.linalg.LinAlgError)) as err:
                fn(*args)
        return type(err.value), str(err.value), [str(w.message) for w in caught]

    want = outcome(eig_sym, S)
    assert outcome(numkernel._eig_built, S) == want
    assert outcome(numkernel._project_built, S, 1e-6) == outcome(project_psd, S, 1e-6) == want


def test_built_solve_of_finite_eigenvalues_with_an_overflowing_sum():
    # three eigenvalues of 8e307 sum to inf: the solve is handed to
    # eig_sym, which accepts the stack and gives the same bytes, and
    # neither sum warns
    S = np.stack([np.eye(3), np.diag([8e307, 8e307, 8e307])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = numkernel._eig_built(S), eig_sym(S)
        projected = numkernel._project_built(S, 1e-6)
    with np.errstate(over="ignore"):
        assert np.isfinite(want.eigenvalues).all() and not np.isfinite(want.eigenvalues.sum())
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
    assert projected.tobytes() == project_psd(S, 1e-6).tobytes()


@pytest.mark.parametrize(
    "M", [HUGE_Q, -HUGE_Q, np.full((2, 2), 1.5e308), np.stack([np.eye(2), -HUGE_Q])],
    ids=["Q", "opposite", "full", "stack"],
)
def test_an_overflowing_symmetrization_is_refused_without_a_warning(M):
    # finite entries whose 0.5 (A + A^T) overflows to inf: a typed error
    # naming the matrix, from every caller, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (as_symmetric, eig_sym, positive_definite, positive_semidefinite):
            with pytest.raises(InvalidInputError, match="^matrix overflows when symmetrized$"):
                fn(M)
        with pytest.raises(InvalidInputError, match="^Q1 overflows when symmetrized$"):
            as_symmetric(M, "Q1")


def test_as_symmetric_keeps_the_bits_of_half_the_sum_on_subnormals():
    # 0.5 (A + A^T), not 0.5 A + 0.5 A^T: they differ where halving a
    # subnormal entry rounds, and the symmetrization keeps the first
    tiny = 5e-324  # the smallest subnormal
    M = tiny * np.array([[[1.0, 1.0], [1.0, 3.0]], [[2.0, 1.0], [2.0, 5.0]]])
    got = as_symmetric(M)
    MT = M.swapaxes(-1, -2)
    assert got.tobytes() == (0.5 * (M + MT)).tobytes()
    assert got.tobytes() != (0.5 * M + 0.5 * MT).tobytes()
    assert as_symmetric(M[1]).tobytes() == got[1].tobytes()

import itertools
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxminlyap import fixtures, maxmin, setderiv
from maxminlyap.errors import InternalCheckError, InvalidInputError
from maxminlyap.inclusion import Mode, SwitchedSystem
from maxminlyap.maxmin import MaxMinSpec, QuadraticBasis, active_indices
from maxminlyap.policy import NumericPolicy
from maxminlyap.sysdsl.config import parse_config
from maxminlyap.setderiv import (
    EMPTY,
    FULL,
    POINT,
    POLYTOPE,
    SEGMENT,
    clarke_derivative,
    decrease_check,
    lambda_set,
    lie_derivative,
)
from maxmin_reference import equal_value_indices
import setderiv_reference as reference

POLICY = NumericPolicy()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _clarke_bits(spec, basis, sysm, x):
    """Bytes of the Clarke interval, and of Python's min and max over every
    gradient-vertex times field-vertex product, each evaluated on its own
    (bases outer, modes inner)."""
    cl = clarke_derivative(spec, basis, sysm, x, POLICY)
    products = [
        float(basis.gradient(k, x) @ sysm.field(i, x))
        for k in active_indices(spec, basis, x, POLICY).indices
        for i in sysm.index_set(x, POLICY)
    ]
    return (_bits(cl.lo), _bits(cl.hi)), (_bits(min(products)), _bits(max(products)))


def test_lambda_set_smooth_point_is_full_simplex():
    got = lambda_set([np.array([1.0, 0.0])], [np.array([0.0, 1.0]), np.array([1.0, 1.0])])
    assert got.kind == FULL
    assert len(got.vertices) == 2


def test_lambda_set_benchmark_half_half(example2_linear_system):
    # two active bases, two modes, equalization at weight one half
    sys2, basis = example2_linear_system, fixtures.example("example2")[2]
    x = np.array([1.0, 1.0])
    grads = [basis.gradient(1, x), basis.gradient(2, x)]
    fields = [sys2.field(1, x), sys2.field(2, x)]
    got = lambda_set(grads, fields, POLICY)
    assert got.kind == POINT
    np.testing.assert_allclose(got.vertices[0], [0.5, 0.5], atol=1e-12)


def test_lambda_set_empty_on_every_switching_line():
    sys1, _, basis = fixtures.example("example1")
    adjacency = {"S13": (3, 1), "S21": (1, 2), "S32": (2, 3)}
    actives = {"S13": (1, 3), "S21": (1, 2), "S32": (2, 3)}
    for name, v in fixtures.EXAMPLE1_LINES.items():
        grads = [basis.gradient(k, v) for k in actives[name]]
        fields = [sys1.field(i, v) for i in adjacency[name]]
        got = lambda_set(grads, fields, POLICY)
        assert got.kind == EMPTY, name


def test_lambda_set_whole_simplex_when_rows_vanish():
    grads = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    fields = [np.array([0.0, 1.0]), np.array([0.0, -2.0])]
    got = lambda_set(grads, fields, POLICY)
    assert got.kind == FULL


def test_lie_derivative_smooth_singleton():
    sys1, spec, basis = fixtures.example("example1")
    x = np.array([1.0, -1.2])  # interior of mode 1, base 1 active
    lie = lie_derivative(spec, basis, sys1, x, POLICY)
    want = float(basis.gradient(1, x) @ (sys1.modes[0].A @ x))
    assert not lie.empty
    assert lie.lo == pytest.approx(want)
    assert lie.hi == pytest.approx(want)
    # at a smooth single-mode point the conservative interval degenerates
    # to the same singleton
    cl = clarke_derivative(spec, basis, sys1, x, POLICY)
    assert cl.lo == pytest.approx(want)
    assert cl.hi == pytest.approx(want)


def test_lie_absolute_value_cases(onedim_abs, onedim_two_mode_system):
    spec, basis = onedim_abs
    sys_in = onedim_two_mode_system(-1.0, 2.0)
    lie = lie_derivative(spec, basis, sys_in, np.array([0.0]), POLICY)
    assert not lie.empty
    assert lie.lo == pytest.approx(0.0, abs=1e-12)
    assert lie.hi == pytest.approx(0.0, abs=1e-12)
    sys_out = onedim_two_mode_system(1.0, 2.0)
    assert lie_derivative(spec, basis, sys_out, np.array([0.0]), POLICY).empty


def test_clarke_absolute_value_interval(onedim_abs, onedim_two_mode_system):
    spec, basis = onedim_abs
    sys_in = onedim_two_mode_system(-1.0, 2.0)
    cl = clarke_derivative(spec, basis, sys_in, np.array([0.0]), POLICY)
    assert cl.lo == pytest.approx(-2.0)
    assert cl.hi == pytest.approx(2.0)
    for sysm in (sys_in, onedim_two_mode_system(1.0, 2.0)):
        got, want = _clarke_bits(spec, basis, sysm, np.array([0.0]))
        assert got == want


def test_clarke_witness_on_s13():
    sys1, spec, basis = fixtures.example("example1")
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    cl = clarke_derivative(spec, basis, sys1, v1, POLICY)
    P3, A1 = basis.matrices[2], sys1.modes[0].A
    witness = float(v1 @ (P3 @ A1 + A1.T @ P3) @ v1)
    assert cl.hi >= witness - 1e-9
    assert witness == pytest.approx(8.65, abs=0.01)
    for v in fixtures.EXAMPLE1_LINES.values():
        got, want = _clarke_bits(spec, basis, sys1, v)
        assert got == want


def test_containment_lie_subset_clarke():
    sys1, spec1, basis1 = fixtures.example("example1")
    sys2, spec2, basis2 = fixtures.example("example2")
    sys3, spec3, basis3 = fixtures.example("example3")
    rng = np.random.default_rng(17)
    cases = [
        (spec1, basis1, sys1, 2),
        (spec2, basis2, sys2, 2),
        (spec3, basis3, sys3, 3),
    ]
    for spec, basis, sysm, dim in cases:
        for _ in range(1000):
            x = rng.standard_normal(dim) * rng.uniform(0.2, 2.0)
            lie = lie_derivative(spec, basis, sysm, x, POLICY)
            if lie.empty:
                continue
            cl = clarke_derivative(spec, basis, sysm, x, POLICY)
            tol = 1e-9 * max(1.0, abs(cl.lo), abs(cl.hi))
            assert cl.lo - tol <= lie.lo <= lie.hi <= cl.hi + tol


def test_sign_criterion_matches_lambda_set(planar_sign_criterion):
    rng = np.random.default_rng(19)
    for _ in range(500):
        g1, g2 = rng.standard_normal(2), rng.standard_normal(2)
        f1, f2 = rng.standard_normal(2), rng.standard_normal(2)
        if np.abs(g1 - g2).max() < 1e-9:
            continue
        product = planar_sign_criterion(g1, g2, f1, f2)
        got = lambda_set([g1, g2], [f1, f2], POLICY)
        if product > 1e-12:
            assert got.kind == EMPTY
        elif product < -1e-12:
            assert got.kind != EMPTY


def _brute_force_simplex(C, step=1e-3, tol_scale=1.0):
    """Grid search over the simplex for |C w| small; the independent
    oracle behind the polytope computation."""
    m = C.shape[1]
    eta = tol_scale * step * np.abs(C).sum(axis=1).max() + 1e-12
    pts = []
    if m == 2:
        w1 = np.arange(0.0, 1.0 + step / 2, step)
        W = np.stack([w1, 1.0 - w1], axis=1)
    elif m == 3:
        w1 = np.arange(0.0, 1.0 + step / 2, step)
        grid = []
        for a in w1:
            b = np.arange(0.0, 1.0 - a + step / 2, step)
            grid.append(np.stack([np.full_like(b, a), b, 1.0 - a - b], axis=1))
        W = np.vstack(grid)
    else:
        raise ValueError("oracle supports m <= 3")
    resid = np.abs(W @ C.T).max(axis=1)
    return W[resid <= eta]


def _hausdorff(A, B):
    if len(A) == 0 or len(B) == 0:
        return 0.0 if len(A) == len(B) else np.inf
    d_ab = max(np.min(np.linalg.norm(B - a, axis=1)) for a in A)
    d_ba = max(np.min(np.linalg.norm(A - b, axis=1)) for b in B)
    return max(d_ab, d_ba)


def _dense_from_simplexset(got, n=200):
    if got.kind == EMPTY:
        return np.empty((0, got.m))
    verts = np.array(got.vertices)
    if len(verts) == 1:
        return verts
    if len(verts) == 2:
        t = np.linspace(0.0, 1.0, n)[:, None]
        return (1 - t) * verts[0] + t * verts[1]
    rng = np.random.default_rng(0)
    w = rng.dirichlet(np.ones(len(verts)), size=n)
    return np.vstack([verts, w @ verts])


def test_lambda_set_matches_brute_force_grid():
    rng = np.random.default_rng(29)
    compared = 0
    while compared < 40:
        m = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        grads = [rng.standard_normal(3) for _ in range(p)]
        fields = [rng.standard_normal(3) for _ in range(m)]
        C = np.array([[(grads[k + 1] - grads[k]) @ f for f in fields] for k in range(p - 1)])
        # the grid band |Cw| <= eta dilates by 1/sigma_min around the true
        # set; keep instances where that dilation stays below the target
        sv = np.linalg.svd(C, compute_uv=False)
        if sv[-1] < 0.5 * max(1.0, np.abs(C).max()):
            continue
        got = lambda_set(grads, fields, POLICY)
        grid = _brute_force_simplex(C, step=1e-3)
        dense = _dense_from_simplexset(got)
        if len(grid) == 0 and len(dense) == 0:
            compared += 1
            continue
        assert _hausdorff(dense, grid) <= 1e-2
        compared += 1


@st.composite
def _one_equation_rows(draw):
    """A row c of 1..4 entries whose largest magnitude is ``scale``, so
    ``lambda_set`` uses tol = abs_tol + rel_tol * max(1, scale); the other
    entries mix zeros, +-tol, +-10 tol, +-1e-4 tol (pairs of these fail
    the rank test), +-scale and uniform values, with an optional pair
    +-1e-4 tol, an optional repeated entry and an optional single sign."""
    scale = draw(st.floats(1e-3, 1e6))
    tol = POLICY.abs_tol + POLICY.rel_tol * max(1.0, scale)
    tiny = 1e-4 * tol
    special = st.sampled_from([0.0, tol, -tol, 10 * tol, -10 * tol, tiny, -tiny, scale, -scale])
    row = [draw(st.sampled_from([scale, -scale]))]
    row += draw(st.lists(st.one_of(special, st.floats(-scale, scale)), max_size=3))
    if len(row) > 2 and draw(st.booleans()):
        row[1:3] = [tiny, -tiny]
    if len(row) > 1 and draw(st.booleans()):
        row[draw(st.integers(1, len(row) - 1))] = row[draw(st.integers(0, len(row) - 1))]
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        row = [sign * abs(v) for v in row]
    return draw(st.permutations(row)), tol


def _ulp_decides(row, tol):
    """Whether a pair weight of c . w = 0 sits within 1e-14 of the 1e-9
    de-duplication distance or of the negative-weight floor: there the
    last bits, in which the closed form and ``lstsq`` differ, decide."""
    edges = (1e-9, max(tol / max(1.0, max(abs(c) for c in row)), 1e-12))
    for ci, cj in itertools.combinations(row, 2):
        if ci != cj:
            weights = (abs(cj / (cj - ci)), abs(ci / (cj - ci)))
            if any(abs(w - e) <= 1e-14 for w in weights for e in edges):
                return True
    return False


@settings(max_examples=400, deadline=None)
@given(_one_equation_rows())
# |c_j| <= tol for one entry: e_j is a vertex, which the lstsq row sum
# of the support {j} (off by about c_j^2) once refused
@example(([-61036.0, 6.103515625e-05], 6.1037e-05))
@example(([155357.0, -0.00015535512825084108], 0.000155358))
@example(([61036.0, 6.103515625e-05, 0.0], 6.1037e-05))
def test_one_equation_closed_form_matches_the_enumeration(case):
    """Two tied gradients (g2 - g1 = 1 in one dimension) and fields f_j =
    c_j give the one live equation c . w = 0, which ``lambda_set`` solves
    in closed form: same kind, same vertex order, vertices within 1e-12 of
    the support enumeration on the same row, wherever a last-bit
    difference cannot decide (see the knife-edge test below)."""
    row, tol = case
    assume(not _ulp_decides(row, tol))
    got = lambda_set([np.zeros(1), np.ones(1)], [np.array([c]) for c in row], POLICY)
    want = setderiv._vertices_by_support(np.array([row]), len(row), tol)
    kind = {0: EMPTY, 1: POINT, 2: SEGMENT}.get(len(want), POLYTOPE)
    assert got.kind == kind and len(got.vertices) == len(want)
    for g, w in zip(got.vertices, want):
        assert np.abs(g - w).max() <= 1e-12


def test_one_equation_knife_edge_differs_by_at_most_the_dedup_distance():
    """At c = (-1e-3, 1e-12) the pair vertex is 1e-9 from e_2, exactly the
    de-duplication distance: ``lstsq`` lands a last bit above it (two
    vertices), the closed form on it (one).  Both describe the same set
    to within 1e-9."""
    row, tol = [-1e-3, 1e-12], POLICY.abs_tol + POLICY.rel_tol
    assert _ulp_decides(row, tol)
    got = reference.vertices_one_equation(row, 2, tol)
    want = setderiv._vertices_by_support(np.array([row]), 2, tol)
    for a, b in ((got, want), (want, got)):
        assert all(min(np.abs(u - v).max() for v in b) <= 1e-9 + 1e-15 for u in a)


@settings(max_examples=200, deadline=None)
@given(st.lists(_one_equation_rows(), min_size=1, max_size=8))
def test_batched_weights_equal_the_per_row_closed_form(cases):
    """Rows of one length go through ``_weights`` together; each row's
    kind and vertices equal the per-row closed form bit for bit, knife
    edges included (both decide the slots with the same arithmetic)."""
    by_length = {}
    for row, _ in cases:
        by_length.setdefault(len(row), []).append(row)
    for rows in by_length.values():
        G = np.tile([[0.0], [1.0]], (len(rows), 1, 1))
        W, keep, full = setderiv._weights(G, np.array(rows)[:, :, None], POLICY)
        for k, row in enumerate(rows):
            got = setderiv._simplex_set(W[k], keep[k], full[k])
            want = reference.lambda_set([np.zeros(1), np.ones(1)], [np.array([c]) for c in row], POLICY)
            assert got.kind == want.kind
            assert [v.tobytes() for v in got.vertices] == [v.tobytes() for v in want.vertices]


def test_decrease_on_converging_line():
    sys2, spec, basis = fixtures.example("example2")
    pts = [np.array([a, a]) for a in np.linspace(0.05, 2.0, 100)]
    report = decrease_check(spec, basis, sys2, pts, rate=12.5, policy=POLICY)
    assert report.ok
    assert len(report.entries) == 100


def test_decrease_clarke_flags_s13_but_lie_does_not():
    sys1, spec, basis = fixtures.example("example1")
    pts = [r * fixtures.EXAMPLE1_LINES["S13"] for r in (0.5, 1.0, 2.0)]
    clarke_report = decrease_check(
        spec, basis, sys1, pts, rate=0.0, policy=POLICY, use_clarke=True
    )
    assert not clarke_report.ok
    lie_report = decrease_check(spec, basis, sys1, pts, rate=0.0, policy=POLICY)
    assert lie_report.ok
    assert all(e.value is None for e in lie_report.entries)  # max(empty) = -inf


def test_decrease_rejects_empty_sample_set():
    sys1, spec, basis = fixtures.example("example1")
    with pytest.raises(InvalidInputError):
        decrease_check(spec, basis, sys1, [np.zeros(2)], rate=1.0, policy=POLICY)


def test_lie_values_agree_across_active_gradients():
    # the equalized velocity must give one value through every active
    # gradient; exercised on the sliding line where two bases tie
    sys2, spec, basis = fixtures.example("example2")
    for a in (0.2, 1.0, 3.0):
        lie = lie_derivative(spec, basis, sys2, np.array([a, a]), POLICY)
        assert not lie.empty
        want = float(
            basis.gradient(1, [a, a])
            @ (0.5 * sys2.field(1, [a, a]) + 0.5 * sys2.field(2, [a, a]))
        )
        assert lie.hi == pytest.approx(want, rel=1e-9)
        assert lie.lo == pytest.approx(want, rel=1e-9)


def test_weights_that_do_not_equalize_raise_the_spread(monkeypatch):
    """A kept weight at which the table rows differ by more than 100 tol
    is a disagreement of the active gradients: ``_lie_values`` returns its
    spread and ``_require_agreement`` raises it, directly and from
    ``decrease_check`` with ``_weights`` giving e_1 to every row."""
    G = np.array([[[0.0, 0.0], [1.0, 0.0]]])
    F = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
    e1, kept = np.array([[[1.0, 0.0]]]), np.array([[True]])
    disagree = setderiv._lie_values(setderiv._dots(G, F), e1, kept, POLICY)[2]
    assert disagree.tolist() == [1.0]
    with pytest.raises(InternalCheckError, match=re.escape("(spread 1.000e+00)")):
        setderiv._require_agreement(disagree)

    def first_vertex(G, F, policy):
        W = np.zeros((len(G), 1, F.shape[1]))
        W[:, 0, 0] = 1.0
        return W, np.ones((len(G), 1), dtype=bool), np.zeros(len(G), dtype=bool)

    sys1, spec, basis = fixtures.example("example1")
    x = fixtures.EXAMPLE1_LINES["S13"]
    column = reference.products(setderiv.vertex_table(spec, basis, sys1, x, POLICY))[:, 0]
    monkeypatch.setattr(setderiv, "_weights", first_vertex)
    spread = f"(spread {column.max() - column.min():.3e})"
    with pytest.raises(InternalCheckError, match=re.escape(spread)):
        decrease_check(spec, basis, sys1, [x], rate=0.0, policy=POLICY)


def _kink_with_many_modes(seed, n=3, m=6):
    """Two bases tying at x with distinct gradients, m whole-space modes."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    b += (a @ x - b @ x) / (x @ x) * x  # a.x == b.x, so x'(aa' - bb')x = 0
    P1 = 5.0 * np.eye(n)
    P2 = P1 + 0.5 * (np.outer(a, a) - np.outer(b, b))
    modes = [Mode(index=i, A=rng.standard_normal((n, n))) for i in range(1, m + 1)]
    spec = MaxMinSpec(K=2, families=((1,), (2,)))
    return spec, QuadraticBasis([P1, P2]), SwitchedSystem(dim=n, modes=modes), x


def _brute_force_lie(basis, sysm, x):
    """Extremes of g1 . F(w) over the equalization polytope by LP."""
    from scipy.optimize import linprog

    g1, g2 = (2.0 * P @ x for P in basis.matrices)
    F = np.array([mode.A @ x for mode in sysm.modes]).T
    m = F.shape[1]
    A_eq = np.vstack([np.ones(m), (g2 - g1) @ F])
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * (g1 @ F), A_eq=A_eq, b_eq=[1.0, 0.0], bounds=[(0, None)] * m)
        if res.status == 2:
            return None
        ends.append(sign * res.fun)
    return tuple(ends)


@pytest.mark.parametrize("m", [5, 6])
def test_lie_derivative_many_modes_matches_brute_force_lp(m):
    # with more than four adjacent modes the extremes of the derivative
    # sit at polytope vertices away from the simplex's coordinate extremes
    nonempty = 0
    for seed in range(60):
        spec, basis, sysm, x = _kink_with_many_modes(seed, m=m)
        lie = lie_derivative(spec, basis, sysm, x, POLICY)
        want = _brute_force_lie(basis, sysm, x)
        if want is None:
            assert lie.empty
            continue
        nonempty += 1
        assert lie.lo == pytest.approx(want[0], abs=1e-7)
        assert lie.hi == pytest.approx(want[1], abs=1e-7)
    assert nonempty >= 50


def test_decrease_rejects_non_finite_and_misshapen_samples():
    sys1, spec, basis = fixtures.example("example1")
    x = np.array([1.0, -1.2])
    for bad in (
        [x, np.array([np.nan, 1.0]), 2.0 * x],
        [x, np.array([np.inf, 0.0])],
        [np.ones(3)],
        [x, np.ones(3)],
        [x, np.array([1e200, 1e200])],  # |x|^2 overflows; it was in every mode
    ):
        with pytest.raises(InvalidInputError):
            decrease_check(spec, basis, sys1, bad, rate=0.0, policy=POLICY)
    # zero rows are left out, not rejected
    report = decrease_check(spec, basis, sys1, [np.zeros(2), x], rate=0.0, policy=POLICY)
    assert len(report.entries) == 1
    # a large point whose |x|^2 is finite is still decided, in mode 3 alone
    report = decrease_check(spec, basis, sys1, [[1e150, 1e150]], rate=0.0, policy=POLICY)
    assert len(report.entries) == 1
    assert sys1.index_set(report.entries[0].x, POLICY) == (3,)


# example1's modes with non-quadratic bases
EXPR_BASIS_CFG = (CONFIGS / "example1.cfg").read_text().split("[basis]")[0] + """
[basis]
V1 = 5*x1*x1 + x2*x2 + 0.1*atan(x1)*atan(x1)
V2 = x1*x1 + 5*x2*x2
V3 = 3*x1*x1 + 4*x1*x2 + 3*x2*x2 + 0.05*x1*x1*x1*x1

[structure]
S1 = {1, 2}
S2 = {3}
"""

# example2 with its cones written as expression regions H(x) > 0
EXPR_REGION_CFG = (
    (CONFIGS / "example2.cfg")
    .read_text()
    .replace("Q = [[-1, 0], [0, 1]]", "H = x2*x2 - x1*x1")
    .replace("Q = [[1, 0], [0, -1]]", "H = x1*x1 - x2*x2")
)


def _problem(name):
    if name == "expr-basis":
        text = EXPR_BASIS_CFG
    elif name == "expr-region":
        text = EXPR_REGION_CFG
    else:
        text = (CONFIGS / f"{name}.cfg").read_text()
    parsed = parse_config(text)
    basis = parsed.require_basis()
    sysm = SwitchedSystem.from_config(parsed.require_system())
    return basis.to_spec(), basis.to_basis(), sysm


def _zero_set_points(D, count, rng):
    """Points with x'Dx = 0 up to rounding, radii uniform in [0.5, 2]."""
    w, V = np.linalg.eigh(D)
    pos, neg = w > 1e-12, w < -1e-12
    if not pos.any() or not neg.any():
        return np.empty((0, len(w)))
    Z = np.zeros((count, len(w)))
    for part, scale in ((pos, np.sqrt(w[pos])), (neg, np.sqrt(-w[neg]))):
        U = rng.standard_normal((count, int(part.sum())))
        Z[:, part] = U / np.linalg.norm(U, axis=1, keepdims=True) / scale
    X = Z @ V.T
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return rng.uniform(0.5, 2.0, (count, 1)) * X


def _sphere_and_kink_points(basis, sysm, rng, sphere=200, per_surface=12):
    """Shuffled unit-sphere points and points on every base-tie surface
    (quadratic bases) and every cone boundary."""
    X = rng.standard_normal((sphere, sysm.dim))
    parts = [X / np.linalg.norm(X, axis=1, keepdims=True)]
    mats = basis.matrices if isinstance(basis, QuadraticBasis) else []
    surfaces = [P - R for i, P in enumerate(mats) for R in mats[i + 1 :]]
    surfaces += [mode.Q for mode in sysm.modes if mode.Q is not None]
    parts += [_zero_set_points(D, per_surface, rng) for D in surfaces]
    pts = np.vstack(parts)
    return pts[rng.permutation(len(pts))]


def _bits(value):
    return None if value is None else struct.pack("<d", value)


@pytest.mark.parametrize("use_clarke", [False, True], ids=["lie", "clarke"])
@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "expr-basis", "expr-region"]
)
def test_decrease_entries_equal_per_point_derivatives_bitwise(name, rate, use_clarke):
    """Every entry of the batch equals the per-row reference (closed-form
    weights and ``table @ w`` one row and one weight at a time) on the
    ``VertexTable`` of its point, and the one-row kernel calls."""
    spec, basis, sysm = _problem(name)
    X = _sphere_and_kink_points(basis, sysm, np.random.default_rng(7))
    report = decrease_check(spec, basis, sysm, X, rate, POLICY, use_clarke=use_clarke)
    assert len(report.entries) == len(X)
    for x, e in zip(X, report.entries):
        bound = -rate * float(x @ x)
        table = setderiv.vertex_table(spec, basis, sysm, x, POLICY)
        if use_clarke:
            value = reference.clarke(table).hi
            assert _bits(clarke_derivative(spec, basis, sysm, x, POLICY).hi) == _bits(value)
            got, want = _clarke_bits(spec, basis, sysm, x)
            assert got == want
        else:
            lie = reference.lie(table, POLICY)[1]
            value = None if lie.empty else lie.hi
            assert lie_derivative(spec, basis, sysm, x, POLICY) == lie
        assert np.array_equal(e.x, x)
        assert _bits(e.value) == _bits(value)
        assert _bits(e.bound) == _bits(bound)
        assert e.ok is (value is None or value <= bound)


def _live_equations(spec, basis, sysm, x):
    table = setderiv.vertex_table(spec, basis, sysm, x, POLICY)
    return len(reference.equations(table.hull.vertices, table.fields, POLICY)[2])


def test_decrease_makes_no_per_point_calls(monkeypatch):
    # rows off the smooth path are decided from the batch's tie and closure
    # masks, its batched active sets and one kernel call per group: never by
    # a per-point call, a one-row table or a per-row weight solve, except
    # the support enumeration of rows with two or more live equations
    def refuse(*args, **kwargs):
        raise AssertionError("per-point call in decrease_check")

    for name in ("example1", "example3"):
        spec, basis, sysm = _problem(name)
        X = _sphere_and_kink_points(basis, sysm, np.random.default_rng(11))
        off = [x for x in X if len(equal_value_indices(spec, basis, x, POLICY)[0]) != 1]
        assert 0 < len(off) < len(X)
        general = sum(_live_equations(spec, basis, sysm, x) > 1 for x in off)
        calls = []
        by_support = setderiv._vertices_by_support
        with monkeypatch.context() as m:
            for module, attr in (
                (setderiv, "lie_derivative"),
                (setderiv, "clarke_derivative"),
                (setderiv, "vertex_table"),
                (setderiv, "lambda_set"),
                (setderiv, "lie_sets"),
                (setderiv.VertexTable, "lie"),
                (setderiv.VertexTable, "clarke"),
                (maxmin, "active_indices"),
                (SwitchedSystem, "index_set"),
            ):
                m.setattr(module, attr, refuse)
            m.setattr(
                setderiv,
                "_vertices_by_support",
                lambda *a: calls.append(a) or by_support(*a),
            )
            for use_clarke in (False, True):
                report = decrease_check(spec, basis, sysm, X, 0.0, POLICY, use_clarke=use_clarke)
                assert len(report.entries) == len(X)
        assert len(calls) == general


def test_decrease_counts_active_set_warnings():
    spec, basis, sysm = _problem("example1")
    P1, _, P3 = basis.matrices
    twin = QuadraticBasis([P1, P1.copy(), P3])
    X = _sphere_and_kink_points(twin, sysm, np.random.default_rng(3))
    warned = sum(active_indices(spec, twin, x, POLICY).warning is not None for x in X)
    assert warned > 0
    report = decrease_check(spec, twin, sysm, X, 0.0, POLICY)
    assert report.warnings == {"bases 1 and 2 are identical": warned}
    assert decrease_check(spec, basis, sysm, X, 0.0, POLICY).warnings == {}


def _three_bases_on_one_ray():
    """Three bases of R^3 tied along the e_3 ray, each the largest on a
    sector around it (gradients 4 e_3 + u_k, u_k at 120 degrees), and three
    whole-space modes: on the ray all three bases are active, so the Lie
    weights solve two live equations (one weight vector for these modes)."""
    e3 = np.array([0.0, 0.0, 1.0])
    us = [np.array([np.cos(t), np.sin(t), 0.0]) for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    basis = QuadraticBasis([2.0 * np.eye(3) + 0.5 * (np.outer(u, e3) + np.outer(e3, u)) for u in us])
    rng = np.random.default_rng(0)
    modes = [Mode(index=i, A=rng.standard_normal((3, 3)) - np.eye(3)) for i in range(1, 4)]
    spec = MaxMinSpec(K=3, families=((1,), (2,), (3,)))
    return spec, basis, SwitchedSystem(dim=3, modes=modes), e3


@pytest.mark.parametrize("use_clarke", [False, True], ids=["lie", "clarke"])
def test_decrease_two_live_equations_equal_the_reference(use_clarke):
    # rows on the ray take the support enumeration inside the batch; the
    # pairwise-tie rows around them take the closed form
    spec, basis, sysm, e3 = _three_bases_on_one_ray()
    rng = np.random.default_rng(2)
    X = [r * e3 for r in (0.5, 1.0, 3.0)]
    for i, P in enumerate(basis.matrices):
        for R in basis.matrices[i + 1 :]:
            X.extend(_zero_set_points(P - R, 6, rng))
    X.extend(rng.standard_normal((20, 3)))
    live = [_live_equations(spec, basis, sysm, x) for x in X]
    assert live[:3] == [2, 2, 2] and 1 in live
    report = decrease_check(spec, basis, sysm, X, 0.0, POLICY, use_clarke=use_clarke)
    for x, e in zip(X, report.entries):
        table = setderiv.vertex_table(spec, basis, sysm, x, POLICY)
        if use_clarke:
            value = reference.clarke(table).hi
        else:
            lie = reference.lie(table, POLICY)[1]
            value = None if lie.empty else lie.hi
        assert _bits(e.value) == _bits(value)
    lam = reference.lie(setderiv.vertex_table(spec, basis, sysm, e3, POLICY), POLICY)[0]
    assert lam.kind == POINT


@pytest.mark.parametrize("radius", [1.0, 1e2, 1e4, 1e6])
def test_over_approximated_active_set_is_scale_free(monkeypatch, radius):
    """With a base that does not tie added to every active set, the added
    equation is live and rows with two live equations go to the support
    enumeration.  Its row sum w = 1 is held to the scale-free floor and
    only the equations to tol, which grows with them, so at every radius
    each row's weights keep its table rows within 100 tol: no row raises,
    per point or in the batch, and no entry violates the decrease."""
    spec, basis, sysm = _problem("example1")
    X = radius * _sphere_and_kink_points(basis, sysm, np.random.default_rng(7))
    real = setderiv.active_masks

    def over(spec, basis, X, policy, ties=None):
        active, method, warning = real(spec, basis, X, policy, ties=ties)
        extra = (~active).argmax(axis=1)  # the first base not in the row's set
        active[np.arange(len(active)), extra] = True
        return active, method, warning

    monkeypatch.setattr(setderiv, "active_masks", over)
    for x in X:
        reference.lie(setderiv.vertex_table(spec, basis, sysm, x, POLICY), POLICY)
    report = decrease_check(spec, basis, sysm, X, 0.0, POLICY)
    assert len(report.entries) == len(X) == 272
    assert report.violations == []


@pytest.mark.parametrize("radius", [1e5, 1e6])
def test_decrease_is_scale_free_on_example3(radius):
    """The negative-weight floor is a weight, so it does not grow with the
    equations: scaled by 1e5 or 1e6 the samples raise no disagreement,
    keep their verdicts, and their values scale by radius^2."""
    spec, basis, sysm = _problem("example3")
    X = _sphere_and_kink_points(basis, sysm, np.random.default_rng(7))
    base = decrease_check(spec, basis, sysm, X, 0.3, POLICY).entries
    scaled = decrease_check(spec, basis, sysm, radius * X, 0.3, POLICY).entries
    assert [e.ok for e in scaled] == [e.ok for e in base]
    for e, b in zip(scaled, base):
        if b.value is None:
            assert e.value is None
        else:
            want = radius**2 * b.value
            assert abs(e.value - want) <= 1e-9 * abs(want)


def _entry_key(entries):
    return [(e.x.tobytes(), _bits(e.value), _bits(e.bound), e.ok) for e in entries]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["example1", "example2", "example3"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 20.0]),
    st.booleans(),
)
def test_decrease_report_columns_are_the_eager_entries(name, seed, rate, use_clarke):
    """The report keeps its columns: ``violations`` and ``ok`` read them
    without building every entry, and ``entries`` (built on first read)
    equal the per-sample entries of the per-point derivatives."""
    spec, basis, sysm = _problem(name)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0) * _sphere_and_kink_points(basis, sysm, rng, sphere=24, per_surface=4)
    report = decrease_check(spec, basis, sysm, X, rate, POLICY, use_clarke=use_clarke)
    if use_clarke:
        values = [clarke_derivative(spec, basis, sysm, x, POLICY).hi for x in X]
    else:
        lies = [lie_derivative(spec, basis, sysm, x, POLICY) for x in X]
        values = [None if lie.empty else lie.hi for lie in lies]
    want = reference.decrease_entries(X, rate, values)
    violations, ok = report.violations, report.ok
    assert "entries" not in vars(report)
    assert _entry_key(violations) == _entry_key([e for e in want if not e.ok])
    assert ok == all(e.ok for e in want)
    assert len(report.entries) == len(want)
    assert _entry_key(report.entries) == _entry_key(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_groups_come_in_the_order_of_the_sorted_mask_rows(width, rows, seed):
    """Grouping on packed keys gives the groups, their rows and their
    columns in the order ``np.unique(..., axis=0)`` sorts the joined mask
    rows, for any number of columns (keys of one byte and of several)."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, width))
    masks = rng.random((rows, width)) < rng.uniform(0.1, 0.9)
    if rng.random() < 0.5:  # few distinct rows, as the decrease check sees
        masks = masks[rng.integers(0, min(rows, 3), rows)]
    keys, group = np.unique(masks, axis=0, return_inverse=True)
    group = group.ravel()
    want = [
        (np.flatnonzero(group == g).tolist(), np.flatnonzero(key[:K]).tolist(),
         np.flatnonzero(key[K:]).tolist())
        for g, key in enumerate(keys)
    ]
    got = [
        (r.tolist(), a.tolist(), m.tolist())
        for r, a, m in setderiv._groups(masks[:, :K], masks[:, K:])
    ]
    assert got == want

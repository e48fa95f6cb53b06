from dataclasses import dataclass

import numpy as np
import pytest

from maxminlyap import fixtures
from maxminlyap.errors import InvalidInputError, PartitionError
from maxminlyap.inclusion import Mode, SwitchedSystem
from maxminlyap.policy import NumericPolicy

POLICY = NumericPolicy()


@dataclass(frozen=True)
class FilippovSet:
    """Modes adjacent to x and the corresponding field vertices; the
    admissible velocity set is the convex hull of ``vertices``."""

    indices: tuple
    vertices: tuple


def filippov_set(sysm, x, policy=POLICY):
    idx = sysm.index_set(x, policy)
    return FilippovSet(indices=idx, vertices=tuple(sysm.field(i, x) for i in idx))


def test_index_set_strict_interior():
    sys3 = fixtures.example("example3")[0]
    assert sys3.index_set(np.array([1.0, 0.0, 0.0]), POLICY) == (1,)


def test_index_set_on_signature_cone():
    sys3 = fixtures.example("example3")[0]
    assert sys3.index_set(np.array([1.0, 0.0, 1.0]), POLICY) == (1, 2)


def test_index_set_on_switching_line():
    sys1 = fixtures.example("example1")[0]
    x = np.array([1.0, -1.0])  # x2 = -x1, shared by modes 1 and 2
    assert sys1.index_set(x, POLICY) == (1, 2)


def test_index_set_refuses_a_point_whose_squared_norm_overflows():
    # |x|^2 = 2e400 overflows, so the closure band would be inf and every
    # mode would contain the point; a point just short of that still works
    sys1 = fixtures.example("example1")[0]
    with pytest.raises(InvalidInputError, match="squared norm overflows"):
        sys1.index_set(np.array([1e200, 1e200]), POLICY)
    with pytest.raises(InvalidInputError, match="squared norm overflows"):
        sys1.closure_mask(np.array([[1.0, 0.0], [1e200, 1e200]]), POLICY)
    assert sys1.index_set(np.array([1e150, 1e150]), POLICY) == (3,)


def test_filippov_interior_single_vertex():
    sys1 = fixtures.example("example1")[0]
    x = np.array([1.0, -1.2])
    fs = filippov_set(sys1, x, POLICY)
    assert fs.indices == (1,)
    np.testing.assert_allclose(fs.vertices[0], sys1.modes[0].A @ x)


def test_filippov_vertices_on_sliding_line(example2_linear_system):
    # independent oracle: matrix-vector products of the two mode fields
    x = np.array([1.0, 1.0])
    fs = filippov_set(example2_linear_system, x, POLICY)
    assert fs.indices == (1, 2)
    np.testing.assert_allclose(fs.vertices[0], [0.9, -5.1], atol=1e-12)
    np.testing.assert_allclose(fs.vertices[1], [-5.1, 0.9], atol=1e-12)


def test_filippov_vertices_on_s13():
    sys1 = fixtures.example("example1")[0]
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    fs = filippov_set(sys1, v1, POLICY)
    assert fs.indices == (1, 3)
    np.testing.assert_allclose(fs.vertices[0], sys1.modes[0].A @ v1)
    np.testing.assert_allclose(fs.vertices[1], sys1.modes[2].A @ v1)


def test_partition_sampling_benchmarks():
    sys1 = fixtures.example("example1")[0]
    sys3 = fixtures.example("example3")[0]
    for sysm in (sys1, sys3):
        violations, checked = sysm.validate_partition(POLICY, n_samples=10_000)
        assert checked == 10_000
        assert violations == []


def test_cone_homogeneity_of_index_set():
    sys1 = fixtures.example("example1")[0]
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.standard_normal(2)
        idx = sys1.index_set(x, POLICY)
        for lam in (-3.0, -0.5, 0.25, 2.0):
            assert sys1.index_set(lam * x, POLICY) == idx


def test_coverage_violation_raises():
    # a single narrow cone leaves most of the plane unassigned
    sysm = SwitchedSystem(
        dim=2,
        modes=[Mode(index=1, A=-np.eye(2), Q=np.array([[1.0, 0.0], [0.0, -100.0]]))],
    )
    with pytest.raises(PartitionError):
        sysm.index_set(np.array([0.0, 1.0]), POLICY)


def test_validate_partition_reports_gaps():
    sysm = SwitchedSystem(
        dim=2,
        modes=[Mode(index=1, A=-np.eye(2), Q=np.array([[1.0, 0.0], [0.0, -100.0]]))],
    )
    violations, _ = sysm.validate_partition(POLICY, n_samples=500)
    assert violations


def test_linear_system_rejects_a_stacked_cone_matrix(linear_system):
    # as_symmetric takes (k, n, n) stacks; a mode's Q must still be one matrix
    Q = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(InvalidInputError, match="Q1 must be square"):
        linear_system([-np.eye(2)], [np.stack([Q, Q])])


def _index_set_by_mode(sysm, x, policy):
    """The closure rule applied one mode at a time."""
    norm2 = float(x @ x)
    out = []
    for mode in sysm.modes:
        if mode.region_kind == "all":
            out.append(mode.index)
        elif mode.region_kind == "cone":
            if mode.region_value(x) >= -policy.abs_tol * norm2:
                out.append(mode.index)
        elif mode.region_value(x) >= -policy.abs_tol * max(1.0, norm2):
            out.append(mode.index)
    return tuple(out)


def _expr_region_system():
    # example2's fields on the regions x2^2 > x1^2 and x1^2 > x2^2
    # written as expressions, plus a whole-space mode
    from expr_text import parse_expr_text

    base = fixtures.example("example2")[0]
    H = ("x2*x2 - x1*x1", "x1*x1 - x2*x2")
    modes = [
        Mode(index=i + 1, f=m.f, H=parse_expr_text(h))
        for i, (m, h) in enumerate(zip(base.modes, H))
    ]
    return SwitchedSystem(dim=2, modes=modes + [Mode(index=3, A=-np.eye(2))])


def _boundary_and_band_points(D, rng, count=20):
    """Unit points on x'Dx = 0 and points pushed off it to about c *
    abs_tol |x|^2 on either side, c near the band edge 1."""
    w, V = np.linalg.eigh(D)
    pos, neg = w > 1e-12, w < -1e-12
    out = []
    for _ in range(count):
        z = np.zeros(len(w))
        for part, scale in ((pos, np.sqrt(w[pos])), (neg, np.sqrt(-w[neg]))):
            u = rng.standard_normal(int(part.sum()))
            z[part] = u / np.linalg.norm(u) / scale
        x0 = V @ z
        x0 /= np.linalg.norm(x0)
        g = 2.0 * D @ x0
        out.append(x0)
        for c in (-2.0, -1.0 - 1e-7, -1.0, -1.0 + 1e-7, -0.5, 0.5, 1.0):
            out.append(x0 + c * POLICY.abs_tol / float(g @ g) * g)
    return out


@pytest.mark.parametrize("name", ["example1", "example3", "expr-region"])
def test_index_set_is_its_closure_mask_row(name):
    sysm = _expr_region_system() if name == "expr-region" else fixtures.example(name)[0]
    rng = np.random.default_rng(5)
    X = [x / np.linalg.norm(x) for x in rng.standard_normal((200, sysm.dim))]
    for mode in sysm.modes:
        if mode.Q is not None:
            X += _boundary_and_band_points(mode.Q, rng)
    if name == "expr-region":
        X += _boundary_and_band_points(np.diag([1.0, -1.0]), rng)
    mask = sysm.closure_mask(np.array(X), POLICY)
    on_edge = 0
    for x, row in zip(X, mask):
        want = _index_set_by_mode(sysm, x, POLICY)
        assert sysm.index_set(x, POLICY) == want
        assert tuple(m.index for m, keep in zip(sysm.modes, row) if keep) == want
        on_edge += len(want) > 1 + (name == "expr-region")
    assert on_edge > 0


def test_expression_modes_compile_on_first_use_to_the_tree_values():
    # a mode built directly (no config) compiles its field, region and
    # region gradient when first evaluated, and reads the bits that the
    # tree evaluator reads; H does not use x3, whose partial is a signed zero
    from maxminlyap.sysdsl.expr import Neg, differentiate, eval_expr
    from expr_text import parse_expr_text

    texts = ("-x1 + sin(x2)", "x1/(2.0 + cos(x1)) - pow(x2, 3)", "-x3")
    f = tuple(parse_expr_text(t) for t in texts)
    H = parse_expr_text("x1*x2 + 0.1*pow(x1, 3)")
    sysm = SwitchedSystem(dim=3, modes=[Mode(index=1, f=f, H=H), Mode(index=2, f=f, H=Neg(H))])
    assert all(set(vars(m)) == {"index", "A", "f", "Q", "H"} for m in sysm.modes)
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(40, 3))
    X[0] = [-0.0, 0.0, 1.0]
    for mode in sysm.modes:
        for x in X:
            assert mode.field(x).tobytes() == np.array([eval_expr(c, x) for c in f]).tobytes()
            assert np.float64(mode.region_value(x)).tobytes() == np.float64(
                eval_expr(mode.H, x)
            ).tobytes()
            grad = [eval_expr(differentiate(mode.H, v), x) for v in (1, 2, 3)]
            assert mode.region_gradient(x).tobytes() == np.array(grad).tobytes()
        assert mode.field(X).tobytes() == np.array([mode.field(x) for x in X]).tobytes()
    want = [[eval_expr(m.H, x) for m in sysm.modes] for x in X]
    assert sysm.region_values(X).tobytes() == np.array(want).tobytes()

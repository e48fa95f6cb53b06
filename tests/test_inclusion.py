import numpy as np
import pytest

from maxminlyap import fixtures
from maxminlyap.errors import InvalidInputError, PartitionError
from maxminlyap.inclusion import Mode, SwitchedSystem
from maxminlyap.policy import NumericPolicy

POLICY = NumericPolicy()


def test_index_set_strict_interior():
    sys3 = fixtures.example3_system()
    assert sys3.index_set(np.array([1.0, 0.0, 0.0]), POLICY) == (1,)


def test_index_set_on_signature_cone():
    sys3 = fixtures.example3_system()
    assert sys3.index_set(np.array([1.0, 0.0, 1.0]), POLICY) == (1, 2)


def test_index_set_on_switching_line():
    sys1 = fixtures.example1_system()
    x = np.array([1.0, -1.0])  # x2 = -x1, shared by modes 1 and 2
    assert sys1.index_set(x, POLICY) == (1, 2)


def test_filippov_interior_single_vertex():
    sys1 = fixtures.example1_system()
    x = np.array([1.0, -1.2])
    fs = sys1.filippov_set(x, POLICY)
    assert fs.indices == (1,)
    np.testing.assert_allclose(fs.vertices[0], fixtures.EXAMPLE1_A[0] @ x)


def test_filippov_vertices_on_sliding_line():
    # independent oracle: matrix-vector products of the two mode fields
    sys2 = fixtures.example2_system(b=0.0)
    x = np.array([1.0, 1.0])
    fs = sys2.filippov_set(x, POLICY)
    assert fs.indices == (1, 2)
    np.testing.assert_allclose(fs.vertices[0], [0.9, -5.1], atol=1e-12)
    np.testing.assert_allclose(fs.vertices[1], [-5.1, 0.9], atol=1e-12)


def test_filippov_vertices_on_s13():
    sys1 = fixtures.example1_system()
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    fs = sys1.filippov_set(v1, POLICY)
    assert fs.indices == (1, 3)
    np.testing.assert_allclose(fs.vertices[0], fixtures.EXAMPLE1_A[0] @ v1)
    np.testing.assert_allclose(fs.vertices[1], fixtures.EXAMPLE1_A[2] @ v1)


def test_partition_sampling_benchmarks():
    for sysm in (fixtures.example1_system(), fixtures.example3_system()):
        violations, checked = sysm.validate_partition(POLICY, n_samples=10_000)
        assert checked == 10_000
        assert violations == []


def test_cone_homogeneity_of_index_set():
    sys1 = fixtures.example1_system()
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


def test_linear_system_rejects_a_stacked_cone_matrix():
    # as_symmetric takes (k, n, n) stacks; a mode's Q must still be one matrix
    Q = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(InvalidInputError, match="Q1 must be square"):
        SwitchedSystem.linear([-np.eye(2)], [np.stack([Q, Q])])

import itertools
import math

import numpy as np
import pytest

from maxminlyap import fixtures, maxmin
from maxminlyap.maxmin import (
    EXACT_SMOOTH,
    EXACT_SWEEP,
    MAXMIN,
    MINMAX,
    PERTURBATION_SAMPLED,
    ExprBasis,
    MaxMinSpec,
    QuadraticBasis,
    active_indices,
    active_sets,
    all_permutations,
    combine,
    dual_families,
    evaluate,
    phi,
)
from maxminlyap.errors import InvalidInputError
from maxminlyap.policy import NumericPolicy
from maxmin_reference import equal_value_indices, strict_ordering

POLICY = NumericPolicy()


def test_phi_benchmark_table():
    spec = fixtures.example("example1")[1]
    want = {
        (1, 2, 3): 3,
        (1, 3, 2): 3,
        (2, 1, 3): 3,
        (2, 3, 1): 3,
        (3, 1, 2): 1,
        (3, 2, 1): 2,
    }
    for rho, out in want.items():
        assert phi(spec, rho) == out


def test_phi_pure_max_selects_last():
    for K in (2, 3, 4):
        spec = MaxMinSpec(K=K, families=tuple((j,) for j in range(1, K + 1)))
        for rho in all_permutations(K):
            assert phi(spec, rho) == rho[-1]


def test_phi_single_base():
    spec = MaxMinSpec(K=1, families=((1,),))
    assert phi(spec, (1,)) == 1


def min_of_max(families, vals):
    return min(max(vals[k - 1] for k in fam) for fam in families)


def test_dualize_distributes():
    assert dual_families(((1, 2), (3,))) == ((1, 3), (2, 3))
    # supersets are pruned: {1, 3} and {2, 3} contain {3}
    assert dual_families(((1, 3), (2, 3))) == ((3,), (1, 2))


def test_dualize_single_family():
    assert dual_families(((1, 2),)) == ((1,), (2,))


def test_dualize_max_of_singletons():
    assert dual_families(((1,), (2,))) == ((1, 2),)


def test_dual_families_match_the_product_form():
    # every selection of one index per family, minimal ones kept
    rng = np.random.default_rng(11)
    for _ in range(300):
        K = int(rng.integers(1, 7))
        families = [
            tuple(sorted(rng.choice(range(1, K + 1), size=rng.integers(1, K + 1), replace=False)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        sels = {frozenset(c) for c in itertools.product(*families)}
        want = {tuple(sorted(s)) for s in sels if not any(t < s for t in sels)}
        got = dual_families(families)
        assert set(got) == want
        assert list(got) == sorted(got, key=lambda s: (len(s), s))


def test_minmax_spec_stores_its_maxmin_dual():
    spec = MaxMinSpec(K=3, families=((1, 3), (2, 3)), polarity=MINMAX)
    assert spec.polarity == MAXMIN
    assert spec.families == ((3,), (1, 2))
    assert spec == MaxMinSpec(K=3, families=((3,), (1, 2)))


def test_dualize_pointwise_equality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        K = int(rng.integers(1, 5))
        J = int(rng.integers(1, 4))
        families = tuple(
            tuple(sorted(rng.choice(range(1, K + 1), size=rng.integers(1, K + 1), replace=False)))
            for _ in range(J)
        )
        spec = MaxMinSpec(K=K, families=families)
        dual = dual_families(families)
        minmax = MaxMinSpec(K=K, families=families, polarity=MINMAX)
        for _ in range(500):
            vals = rng.standard_normal(K)
            assert combine(spec, vals) == min_of_max(dual, vals)
            assert combine(minmax, vals) == min_of_max(families, vals)


def test_eval_zero_at_origin():
    _, spec, basis = fixtures.example("example1")
    assert evaluate(spec, basis, np.zeros(2)) == 0.0


def test_eval_min_of_quadratics():
    _, spec, basis = fixtures.example("example2")
    assert evaluate(spec, basis, np.array([1.0, 1.0])) == pytest.approx(6.0)


def test_eval_absolute_value(onedim_abs):
    spec, basis = onedim_abs
    assert evaluate(spec, basis, np.array([-2.0])) == pytest.approx(2.0)


def test_active_smooth_interior_point():
    _, spec, basis = fixtures.example("example2")
    act = active_indices(spec, basis, np.array([1.0, 0.0]), POLICY)
    assert act.indices == (2,)
    assert act.method == EXACT_SMOOTH


def test_active_on_equal_value_line():
    _, spec, basis = fixtures.example("example1")
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    act = active_indices(spec, basis, v1, POLICY)
    assert act.indices == (1, 3)
    v2 = fixtures.EXAMPLE1_LINES["S21"]
    assert active_indices(spec, basis, v2, POLICY).indices == (1, 2)
    v3 = fixtures.EXAMPLE1_LINES["S32"]
    assert active_indices(spec, basis, v3, POLICY).indices == (2, 3)


def test_active_absolute_value_kink(onedim_abs):
    spec, basis = onedim_abs
    act = active_indices(spec, basis, np.array([0.0]), POLICY)
    assert act.indices == (1, 2)


def test_clarke_gradient_smooth():
    _, spec, basis = fixtures.example("example2")
    hull = active_indices(spec, basis, np.array([1.0, 0.0]), POLICY)
    assert hull.indices == (2,)
    np.testing.assert_allclose(hull.vertices[0], [2.0, 0.0])


def test_clarke_gradient_benchmark_kink():
    _, spec, basis = fixtures.example("example1")
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    hull = active_indices(spec, basis, v1, POLICY)
    assert hull.indices == (1, 3)
    np.testing.assert_allclose(hull.vertices[0], 2.0 * basis.matrices[0] @ v1)
    np.testing.assert_allclose(hull.vertices[1], 2.0 * basis.matrices[2] @ v1)


def test_clarke_gradient_absolute_value(onedim_abs):
    spec, basis = onedim_abs
    hull = active_indices(spec, basis, np.array([0.0]), POLICY)
    got = sorted(float(v[0]) for v in hull.vertices)
    assert got == [-1.0, 1.0]


def test_homogeneity_of_quadratic_maxmin():
    _, spec, basis = fixtures.example("example1")
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.standard_normal(2)
        if np.linalg.norm(x) < 1e-3:
            continue
        base_val = evaluate(spec, basis, x)
        base_act = active_indices(spec, basis, x, POLICY).indices
        for lam in (-2.0, -1.0, 0.5, 3.0):
            assert evaluate(spec, basis, lam * x) == pytest.approx(
                lam * lam * base_val, rel=1e-12
            )
            assert active_indices(spec, basis, lam * x, POLICY).indices == base_act


def test_phi_consistency_at_strict_points():
    _, spec, basis = fixtures.example("example1")
    rng = np.random.default_rng(22)
    for _ in range(300):
        x = rng.standard_normal(2)
        rho = strict_ordering(basis.values(x))
        if rho is None:
            continue
        act = active_indices(spec, basis, x, POLICY)
        assert act.indices == (phi(spec, rho),)


def test_active_set_invariants_random():
    # nonempty, and contained in the equal-value tie set
    _, spec, basis = fixtures.example("example1")
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.standard_normal(2) * rng.uniform(0.1, 3.0)
        act = active_indices(spec, basis, x, POLICY)
        ties, _ = equal_value_indices(spec, basis, x, POLICY)
        assert len(act.indices) >= 1
        assert set(act.indices) <= set(ties)


def test_active_at_origin_covers_all_cones():
    _, spec, basis = fixtures.example("example2")
    act = active_indices(spec, basis, np.zeros(2), POLICY)
    assert act.indices == (1, 2)


@pytest.mark.parametrize(
    "name, x",
    [
        ("example1", [math.nan, 1.0]),
        ("example1", [math.inf, 1.0]),
        ("example1", [0.0, -math.inf]),
        ("example3", [math.inf, 1.0, 0.0]),
        ("example3", [0.0, math.nan, 0.0]),
    ],
)
def test_active_sets_reject_non_finite_points(name, x):
    # a set made up for a point that is not a number would be a silent
    # wrong answer, on the planar arc path and the sampled path alike
    _, spec, basis = fixtures.example(name)
    batch = np.vstack([np.ones(basis.dim), x])
    with pytest.raises(InvalidInputError, match="non-finite"):
        active_indices(spec, basis, np.array(x), POLICY)
    with pytest.raises(InvalidInputError, match="non-finite"):
        active_sets(spec, basis, batch, POLICY)


def test_degenerate_duplicate_basis_warns():
    spec = MaxMinSpec(K=2, families=((1, 2),))
    basis = QuadraticBasis([np.eye(2), np.eye(2)])
    act = active_indices(spec, basis, np.array([1.0, 1.0]), POLICY)
    assert act.warning is not None


def _zero_set_directions(D):
    """Unit directions with x'Dx = 0 for a planar symmetric D (none unless
    D is indefinite), from its eigenbasis."""
    w, V = np.linalg.eigh(D)
    if not w[0] < 0.0 < w[1]:
        return []
    scaled = V / np.sqrt(np.abs(w))
    dirs = [scaled @ np.array([a, b]) for a in (1.0, -1.0) for b in (1.0, -1.0)]
    return [d / np.linalg.norm(d) for d in dirs]


def _kink_points(basis, Qs=()):
    """The origin, and points at three radii on every base tie line and
    region boundary."""
    P = basis.matrices
    surfaces = [P[i] - P[j] for i, j in itertools.combinations(range(len(P)), 2)] + list(Qs)
    return [np.zeros(2)] + [
        r * d for D in surfaces for d in _zero_set_directions(D) for r in (0.5, 1.0, 2.0)
    ]


def _random_planar_case(rng, K):
    mats = []
    for _ in range(K):
        G = rng.standard_normal((2, 2))
        mats.append(G @ G.T + 0.1 * np.eye(2))
    fams = [tuple(sorted(rng.choice(K, size=rng.integers(1, K + 1), replace=False) + 1))]
    fams += [tuple(sorted(rng.choice(K, size=2, replace=False) + 1)) for _ in range(K - 1)]
    return MaxMinSpec(K=K, families=tuple(fams)), QuadraticBasis(mats)


def _planar_cases():
    for name in ("example1", "example2"):
        sysm, spec, basis = fixtures.example(name)
        yield spec, basis, _kink_points(basis, [m.Q for m in sysm.modes if m.Q is not None])
    rng = np.random.default_rng(41)
    for K in (2, 3, 4):
        for _ in range(3):
            spec, basis = _random_planar_case(rng, K)
            yield spec, basis, _kink_points(basis) + list(rng.standard_normal((20, 2)))


def test_planar_roots_kept_with_the_basis_match_a_fresh_computation():
    """One basis answers every point with the root angles it found once;
    a fresh basis per point finds them again for that point alone."""
    swept = 0
    for spec, basis, points in _planar_cases():
        for x in points:
            kept = active_indices(spec, basis, x, POLICY)
            fresh = active_indices(spec, QuadraticBasis(basis.matrices), x, POLICY)
            assert kept == fresh
            swept += kept.method == EXACT_SWEEP
    assert swept > 100


def test_planar_roots_are_found_once_per_basis(monkeypatch):
    calls = []
    real = maxmin._pair_root_angles
    monkeypatch.setattr(
        maxmin, "_pair_root_angles", lambda D, scale: calls.append(1) or real(D, scale)
    )
    sysm, spec, basis = fixtures.example("example1")
    points = _kink_points(basis, [m.Q for m in sysm.modes])
    assert all(active_indices(spec, basis, x, POLICY) for x in points)
    assert len(calls) == basis.K * (basis.K - 1) // 2


def test_two_specs_on_one_basis_get_their_own_active_sets():
    """The kept roots belong to the basis; the arcs' labels to each spec."""
    _, spec, basis = fixtures.example("example1")
    dual = MaxMinSpec(K=spec.K, families=spec.families, polarity=MINMAX)
    differ = 0
    for x in _kink_points(basis):
        a = active_indices(spec, basis, x, POLICY)
        b = active_indices(dual, basis, x, POLICY)
        assert a == active_indices(spec, QuadraticBasis(basis.matrices), x, POLICY)
        assert b == active_indices(dual, QuadraticBasis(basis.matrices), x, POLICY)
        differ += a.indices != b.indices
    assert differ > 0


def test_identical_pair_falls_back_to_sampling_on_every_call():
    spec = MaxMinSpec(K=3, families=((1, 2), (3,)))
    basis = QuadraticBasis([np.eye(2), np.eye(2), np.diag([2.0, 0.5])])
    # V3 < V1 = V2 near the x2 axis, and every base ties at the origin
    for x in ([0.0, 1.0], [0.3, 1.0], [0.0, 0.0]):
        act = active_indices(spec, basis, np.array(x), POLICY)
        assert act.method == PERTURBATION_SAMPLED
        assert act.warning == "bases 1 and 2 are identical"


def test_validation_rejects_bad_spec():
    with pytest.raises(Exception):
        MaxMinSpec(K=2, families=((1, 3),))
    with pytest.raises(Exception):
        MaxMinSpec(K=2, families=())


def test_phi_of_minmax_spec_picks_the_min_of_max_base():
    # values ranked by rho: phi names the base attaining the min of max
    families = ((1, 2), (2, 3))
    spec = MaxMinSpec(K=3, families=families, polarity=MINMAX)
    for rho in all_permutations(3):
        vals = np.empty(3)
        vals[np.array(rho) - 1] = np.arange(3.0)
        want = int(np.flatnonzero(vals == min_of_max(families, vals))[0]) + 1
        assert phi(spec, rho) == want


def test_minmax_evaluation_and_active():
    # dual representation evaluates identically and yields the same sets
    _, spec, basis = fixtures.example("example1")
    dual = MaxMinSpec(K=3, families=dual_families(spec.families), polarity=MINMAX)
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.standard_normal(2)
        assert evaluate(spec, basis, x) == evaluate(dual, basis, x)
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    assert active_indices(dual, basis, v1, POLICY).indices == (1, 3)


def test_permutations_are_lexicographic():
    perms = all_permutations(3)
    assert perms == sorted(perms)
    assert perms[0] == (1, 2, 3)
    assert len(set(perms)) == 6


def test_large_K_permutation_count():
    assert len(all_permutations(4)) == math.factorial(4)
    assert len(list(itertools.permutations(range(1, 6)))) == 120


def test_expr_basis_values_and_gradients_are_the_tree_values():
    # compiled on first use; a batch reads the same bits as its rows and
    # as the tree evaluator, point by point
    from maxminlyap.sysdsl.expr import differentiate, eval_expr
    from expr_text import parse_expr_text

    exprs = [
        parse_expr_text("quadform([[2.0, 0.5], [0.5, 1.0]]) + 0.1*pow(x1, 4)"),
        parse_expr_text("x1*x1 + 3.0*x2*x2 - 0.2*sin(x1*x2)"),
    ]
    basis = ExprBasis(exprs, dim=2)
    assert set(vars(basis)) == {"exprs", "dim"}
    X = np.random.default_rng(8).uniform(-2.0, 2.0, size=(50, 2))
    want = np.array([[eval_expr(e, x) for e in exprs] for x in X])
    assert basis.values(X).tobytes() == want.tobytes()
    assert basis.values(X[7]).tobytes() == want[7].tobytes()
    for k, e in enumerate(exprs, start=1):
        grads = np.array([[eval_expr(differentiate(e, v), x) for v in (1, 2)] for x in X])
        assert basis.gradient(k, X).tobytes() == grads.tobytes()
        assert basis.gradient(k, X[3]).tobytes() == grads[3].tobytes()

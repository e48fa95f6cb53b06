import hashlib
import inspect
import itertools
import math
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from maxminlyap import certifier, fixtures, inclusion
from maxminlyap.certifier import (
    Candidate,
    SearchOptions,
    VERDICT_COND_I_ONLY,
    VERDICT_GAS,
    VERDICT_NOT_CERTIFIED,
    _margins,
    build_groups,
    certify,
    check_condition_i,
    check_condition_ii_2mode,
    complete_multipliers,
    planar_condition_ii,
    search_condition_i,
)
from maxminlyap.certreport import _fmt_matrix, re_verify, serialize_certificate
from maxminlyap.errors import ConfigError, InvalidInputError, PartitionError
from maxminlyap.inclusion import (
    Mode, SwitchedSystem, cone_chain, q_cone_decompose, sliding_exclusion, unproven_cover,
)
from maxminlyap.maxmin import (
    MaxMinSpec, QuadraticBasis, active_indices, evaluate, phi, realized_base
)
from maxminlyap.numkernel import eig_sym, negdef_margin, project_psd, solve_lyapunov
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import lie_derivative
from maxminlyap.sysdsl.config import parse_config
import inclusion_reference
from certifier_reference import optimize_group_multipliers, ref_group_matrix
from maxmin_reference import strict_ordering

GOLDEN = Path(__file__).resolve().parent / "golden"
POLICY = NumericPolicy()
IDENTITY_MATCHING = {1: 1, 2: 2, 3: 3}


def test_build_groups_reproduces_reduced_inequalities():
    sys1, spec1, _ = fixtures.example("example1")
    groups = build_groups(sys1, spec1, IDENTITY_MATCHING)
    keyed = {g.key: g for g in groups}
    assert len(groups) == 4
    g1 = keyed[(1, ((3, 1, 2),))]
    assert g1.diffs == ((1, 3), (2, 1))
    g2 = keyed[(2, ((3, 2, 1),))]
    assert g2.diffs == ((2, 3), (1, 2))
    g3 = keyed[(3, ((1, 2, 3), (1, 3, 2), (2, 1, 3)))]
    assert g3.diffs == ((3, 1),)
    g4 = keyed[(3, ((2, 3, 1),))]
    assert g4.diffs == ((3, 2), (1, 3))


def test_condition_i_reference_margins():
    sys1, spec1, basis1 = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    report = check_condition_i(sys1, spec1, cand, POLICY)
    assert report.matching == IDENTITY_MATCHING
    assert len(report.margins) == 4
    assert report.ok
    # independent recomputation of each reduced inequality
    A1, A2, A3 = [m.A for m in sys1.modes]
    P1, P2, P3 = basis1.matrices
    want = {
        (1, ((3, 1, 2),)): A1.T @ P1 + P1 @ A1 + 0.258 * (P1 - P3) + 0.102 * (P2 - P1),
        (2, ((3, 2, 1),)): A2.T @ P2 + P2 @ A2 + 0.258 * (P2 - P3) + 0.102 * (P1 - P2),
        (3, ((1, 2, 3), (1, 3, 2), (2, 1, 3))): A3.T @ P3 + P3 @ A3 + 0.284 * (P3 - P1),
        (3, ((2, 3, 1),)): A3.T @ P3 + P3 @ A3 + 0.193 * (P3 - P2) + 0.090 * (P1 - P3),
    }
    for g, margin in zip(report.groups, report.margins):
        assert margin == pytest.approx(negdef_margin(want[g.key]), abs=1e-12)
        assert margin < -1e-6


def test_condition_i_margin_by_pair_view():
    sys1, spec1, _ = fixtures.example("example1")
    report = check_condition_i(sys1, spec1, fixtures.example1_candidate(), POLICY)
    by_pair = {
        (g.mode, rho): m for g, m in zip(report.groups, report.margins) for rho in g.perms
    }
    assert len(by_pair) == 6  # every matched (mode, permutation)
    assert by_pair[(3, (1, 2, 3))] == by_pair[(3, (2, 1, 3))]


def test_condition_i_unhelped_mode3_fails():
    # with P3 = I and no multipliers the third mode's inequality is the
    # symmetrized A3, whose margin reads off the diagonal as 3.8
    sys1, spec1, _ = fixtures.example("example1")
    cand = Candidate(matrices=[np.eye(2), 2 * np.eye(2), np.eye(2)])
    groups = build_groups(sys1, spec1, IDENTITY_MATCHING)
    margins = _margins(sys1, cand, groups)
    mode3 = [m for g, m in zip(groups, margins) if g.mode == 3]
    assert max(mode3) == pytest.approx(3.8, abs=1e-12)


def test_condition_i_soundness_sampled():
    # wherever a margin is negative, the plain quadratic decrease holds
    # on sampled points of the covered cones
    sys1, spec1, _ = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    basis = QuadraticBasis(cand.matrices)
    report = check_condition_i(sys1, spec1, cand, POLICY)
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(20_000):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        rho = strict_ordering(basis.values(x))
        if rho is None:
            continue
        for g, margin in zip(report.groups, report.margins):
            if rho not in g.perms:
                continue
            mode = sys1.modes[g.mode - 1]
            if mode.region_value(x) <= 1e-9:
                continue
            A = mode.A
            P = cand.matrices[g.phi_index - 1]
            assert float(x @ (A.T @ P + P @ A) @ x) < 0.0
            hits += 1
    assert hits > 1000


def test_phi_consistency_inside_sampled_cones():
    sys1, spec1, _ = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    basis = QuadraticBasis(cand.matrices)
    from maxminlyap.maxmin import active_indices

    rng = np.random.default_rng(43)
    hits = 0
    while hits < 1000:
        x = rng.standard_normal(2)
        rho = strict_ordering(basis.values(x))
        if rho is None:
            continue
        act = active_indices(spec1, basis, x, POLICY)
        assert act.indices == (phi(spec1, rho),)
        hits += 1


def test_checker_rejects_unsound_candidates():
    sys1, spec1, _ = fixtures.example("example1")
    indefinite = Candidate(
        matrices=[np.diag([1.0, -1.0]), np.eye(2), np.eye(2)]
    )
    with pytest.raises(InvalidInputError, match="positive definite"):
        check_condition_i(sys1, spec1, indefinite, POLICY)
    # the shapes are checked before the one stacked definiteness solve;
    # the message names the first offending base
    for mats, message in [
        ([np.eye(2), -np.eye(2), np.diag([1.0, -1.0])], "candidate base 2 is not positive"),
        ([np.eye(2), np.eye(3), -np.eye(2)], "candidate base 2 must have dimension 2"),
        ([np.eye(2), np.eye(2), np.ones(2)], r"base 3 must have dimension 2, got shape \(2,\)"),
    ]:
        with pytest.raises(InvalidInputError, match=message):
            check_condition_i(sys1, spec1, Candidate(matrices=mats), POLICY)
    negative_tau = fixtures.example1_candidate()
    negative_tau.multipliers[(1, ((3, 1, 2),))] = (-0.1, 0.102, 0.0)
    with pytest.raises(InvalidInputError, match="negative ordering"):
        check_condition_i(sys1, spec1, negative_tau, POLICY)
    negative_beta = fixtures.example1_candidate()
    negative_beta.multipliers[(2, ((3, 2, 1),))] = (0.258, 0.102, -1.0)
    with pytest.raises(InvalidInputError, match="negative cone"):
        check_condition_i(sys1, spec1, negative_beta, POLICY)
    # a NaN passes the sign tests and an inf would reach the stacked
    # solve, which condition (i) runs unchecked: both are refused first
    for ys in [(math.nan, 0.102, 0.0), (0.258, 0.102, math.inf), (0.258, -math.inf, 0.0)]:
        non_finite = fixtures.example1_candidate()
        non_finite.multipliers[(1, ((3, 1, 2),))] = ys
        with pytest.raises(
            InvalidInputError, match=r"^non-finite multiplier in group \(1, \(\(3, 1, 2\),\)\)$"
        ):
            check_condition_i(sys1, spec1, non_finite, POLICY)
    # a finite tau whose product with its term overflows is refused by the
    # solve, with the overflow warning of the sum, as before
    huge_tau = fixtures.example1_candidate()
    huge_tau.multipliers[(1, ((3, 1, 2),))] = (1e308, 0.0, 0.0)
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        with pytest.raises(InvalidInputError, match="^matrix has non-finite entries$"):
            check_condition_i(sys1, spec1, huge_tau, POLICY)
    # beta is stored last, so a tuple without it (or with one too many)
    # would move beta onto an ordering term
    for ys in [(0.258, 0.102), (0.258, 0.102, 0.0, 0.0), ()]:
        wrong_length = fixtures.example1_candidate()
        wrong_length.multipliers[(1, ((3, 1, 2),))] = ys
        with pytest.raises(
            InvalidInputError, match=rf"group \(1, \(\(3, 1, 2\),\)\) has {len(ys)} multipliers"
        ):
            check_condition_i(sys1, spec1, wrong_length, POLICY)



def test_code_built_cone_matrices_are_checked():
    # condition (i)'s stacks are solved unchecked, so a Mode checks its
    # cone matrix where it is built: one beyond as_symmetric's tolerance
    # is refused by name, and one within it is stored, and solved, as its
    # symmetric part
    sys1, spec1, _ = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    step = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError, match="^mode 1: Q is not symmetric$"):
        Mode(index=1, A=sys1.modes[0].A, Q=sys1.modes[0].Q + 1e-3 * step)
    skewed = [m.Q + 1e-12 * step for m in sys1.modes]
    near = SwitchedSystem(
        sys1.dim, [Mode(index=m.index, A=m.A, Q=Q) for m, Q in zip(sys1.modes, skewed)]
    )
    for mode, Q in zip(near.modes, skewed):
        assert np.array_equal(mode.Q, 0.5 * (Q + Q.T))
    margins = check_condition_i(near, spec1, cand, POLICY).margins
    assert np.allclose(margins, check_condition_i(sys1, spec1, cand, POLICY).margins, atol=1e-9)


def test_complexity_refusal_beyond_six_bases():
    sys1 = fixtures.example("example1")[0]
    spec = MaxMinSpec(K=7, families=tuple((k,) for k in range(1, 8)))
    cand = Candidate(matrices=[np.eye(2)] * 7)
    with pytest.raises(InvalidInputError, match="refusing"):
        check_condition_i(sys1, spec, cand, POLICY)


def test_example3_condition_i_reference_multipliers():
    sys3, spec3, _ = fixtures.example("example3")
    report = check_condition_i(sys3, spec3, fixtures.example3_candidate(), POLICY)
    assert report.ok
    margins = dict(zip((g.mode for g in report.groups), report.margins))
    assert margins[1] == pytest.approx(-0.2, abs=1e-9)
    assert margins[2] == pytest.approx(-0.1596875762567, abs=1e-9)


# ---------------------------------------------------------------------------
# cone factorization


def test_q_cone_decompose_swap_matrix():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    t1, t2 = q_cone_decompose(Q)
    rec = np.outer(t1, t2) + np.outer(t2, t1)
    np.testing.assert_allclose(rec, Q, atol=1e-12)


def test_q_cone_decompose_signature_matrix():
    # closed form: eta = sqrt(1/2), kappa = 1
    Q = np.diag([1.0, -1.0])
    t1, t2 = q_cone_decompose(Q)
    rec = np.outer(t1, t2) + np.outer(t2, t1)
    np.testing.assert_allclose(rec, Q, atol=1e-12)
    for t in (t1, t2):
        assert np.abs(t) == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)], abs=1e-12)


def test_q_cone_decompose_benchmark_q3():
    sys1 = fixtures.example("example1")[0]
    t1, t2 = q_cone_decompose(sys1.modes[2].Q)
    rec = np.outer(t1, t2) + np.outer(t2, t1)
    assert np.abs(rec - sys1.modes[2].Q).max() <= 1e-10


def test_q_cone_decompose_random_reconstruction():
    rng = np.random.default_rng(47)
    done = 0
    while done < 1000:
        B = rng.standard_normal((2, 2))
        Q = 0.5 * (B + B.T)
        w = np.linalg.eigvalsh(Q)
        if not (w[0] < -1e-6 and w[1] > 1e-6):
            continue
        t1, t2 = q_cone_decompose(Q)
        rec = np.outer(t1, t2) + np.outer(t2, t1)
        assert np.abs(rec - Q).max() <= 1e-8 * max(1.0, np.abs(Q).max())
        done += 1


def test_q_cone_decompose_rejects_definite():
    with pytest.raises(InvalidInputError):
        q_cone_decompose(np.eye(2))


def assert_factors_reconstruct(sys, factors):
    # factors[i] is the factor pair of mode order[i]: t t'^T + t' t^T = Q
    for mode, (t, t2) in zip(factors.order, factors.factors):
        rec = np.outer(t, t2) + np.outer(t2, t)
        assert np.abs(rec - sys.modes[mode - 1].Q).max() <= 1e-10


def test_cone_chain_benchmark_lines():
    sys1 = fixtures.example("example1")[0]
    factors = cone_chain(sys1)
    assert factors.order == (1, 2, 3)
    np.testing.assert_allclose(factors.vs[0], fixtures.EXAMPLE1_LINES["S13"], atol=1e-9)
    np.testing.assert_allclose(factors.vs[1], fixtures.EXAMPLE1_LINES["S21"], atol=1e-9)
    np.testing.assert_allclose(factors.vs[2], fixtures.EXAMPLE1_LINES["S32"], atol=1e-9)
    assert_factors_reconstruct(sys1, factors)


def test_cone_chain_two_mode_double_cone(example2_linear_system):
    factors = cone_chain(example2_linear_system)
    assert len(factors.vs) == 2
    assert_factors_reconstruct(example2_linear_system, factors)
    got = {tuple(np.round(v, 6)) for v in factors.vs}
    r = round(float(np.sqrt(0.5)), 6)
    assert got == {(r, r), (r, -r)}


WRONG_DIMENSION_CALLS = {
    "lie_derivative": lambda sys, spec, basis: lie_derivative(
        spec, basis, sys, np.ones(3), POLICY
    ),
    "evaluate": lambda sys, spec, basis: evaluate(spec, basis, np.ones(3)),
    "evaluate_batch": lambda sys, spec, basis: evaluate(spec, basis, np.ones((4, 3))),
    # the generalized gradient: the one-row active set with its vertices
    "clarke_gradient": lambda sys, spec, basis: active_indices(spec, basis, np.ones(3)),
    "index_set": lambda sys, spec, basis: sys.index_set(np.ones(3)),
    "certify": lambda sys, spec, basis: certify(
        sys, spec, Candidate(matrices=[np.eye(3)] * 3)
    ),
}


@pytest.mark.parametrize("call", sorted(WRONG_DIMENSION_CALLS))
def test_wrong_dimension_input_is_a_typed_error(call):
    # a 3-vector or 3x3 bases on the planar example1 name the dimension
    # instead of failing inside numpy
    sys1, spec1, _ = fixtures.example("example1")
    basis = QuadraticBasis(fixtures.example1_candidate().matrices)
    with pytest.raises(InvalidInputError, match="must have dimension 2, got shape"):
        WRONG_DIMENSION_CALLS[call](sys1, spec1, basis)


def sector_tiling(lines, scales, labels):
    """Cone matrices of the sectors between consecutive line angles
    (radians, ascending in [0, pi)): sector k, from lines[k] to the next
    line, scaled by scales[k] and given to mode labels[k]."""
    ang = np.append(lines, lines[0] + np.pi)
    normals = np.stack([-np.sin(ang), np.cos(ang)], axis=1)
    Qs = [None] * len(lines)
    for k, (scale, label) in enumerate(zip(scales, labels)):
        mid = 0.5 * (ang[k] + ang[k + 1])
        x = np.array([np.cos(mid), np.sin(mid)])
        n1, n2 = normals[k], normals[k + 1]
        Qs[label - 1] = np.sign((n1 @ x) * (n2 @ x)) * scale * (
            np.outer(n1, n2) + np.outer(n2, n1)
        )
    return Qs


@pytest.mark.parametrize("M, seed", [(4, 3), (4, 11), (6, 5), (6, 19)])
def test_cone_chain_follows_the_sectors_at_any_scale(linear_system, M, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.2, 1.0, M)  # sector widths of at least a few degrees
    lines = rng.uniform(0.0, 0.1) + np.pi * np.append(0.0, np.cumsum(gaps[:-1])) / gaps.sum()
    scales = np.exp(rng.uniform(-1.0, 1.0, M))
    labels = [int(c) + 1 for c in rng.permutation(M)]
    Qs = sector_tiling(lines, scales, labels)
    sysm = linear_system([-np.eye(2)] * M, Qs)
    factors = cone_chain(sysm)
    # the chain is the sector order, read either way round from mode 1
    start = labels.index(1)
    ccw = labels[start:] + labels[:start]
    assert factors.order in (tuple(ccw), tuple(ccw[:1] + ccw[:0:-1]))
    assert_factors_reconstruct(sysm, factors)
    for i, v in enumerate(factors.vs):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        for mode in (factors.order[i - 1], factors.order[i]):
            assert abs(v @ Qs[mode - 1] @ v) <= 1e-10


def test_cone_chain_refuses_a_gap_and_an_overlap(linear_system):
    lines = np.array([0.0, 1.0, 2.0])
    Qs = sector_tiling(lines, [1.0, 2.0, 0.5], [1, 2, 3])
    # sector 2 narrowed to end at 1.9 rad leaves a gap; widened to 2.1, an overlap
    for end in (1.9, 2.1):
        Q2 = sector_tiling(np.array([1.0, end]), [1.0, 1.0], [1, 2])[0]
        sysm = linear_system([-np.eye(2)] * 3, [Qs[0], Q2, Qs[2]])
        with pytest.raises(PartitionError, match="do not tile the plane"):
            cone_chain(sysm)


def test_cone_chain_refuses_a_definite_cone_matrix(linear_system):
    sysm = linear_system([-np.eye(2)] * 2, [np.diag([1.0, -1.0]), np.eye(2)])
    with pytest.raises(InvalidInputError, match="sign indefinite"):
        cone_chain(sysm)


def test_planar_condition_ii_benchmark_all_empty():
    sys1, spec1, _ = fixtures.example("example1")
    report = planar_condition_ii(sys1, spec1, fixtures.example1_candidate(), POLICY)
    assert report.ok
    assert [e.lam_kind for e in report.entries] == ["empty", "empty", "empty"]
    assert [e.hull.indices for e in report.entries] == [(1, 3), (1, 2), (2, 3)]


def test_planar_entries_agree_with_sign_criterion(planar_sign_criterion):
    # emptiness at each switching-line vector matches the two-field
    # normal-component product test
    sys1, spec1, _ = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    basis = QuadraticBasis(cand.matrices)
    report = planar_condition_ii(sys1, spec1, cand, POLICY)
    for e in report.entries:
        if len(e.hull.indices) != 2:
            continue
        g1 = basis.gradient(e.hull.indices[0], e.v)
        g2 = basis.gradient(e.hull.indices[1], e.v)
        f1 = sys1.field(e.modes[0], e.v)
        f2 = sys1.field(e.modes[1], e.v)
        product = planar_sign_criterion(g1, g2, f1, f2)
        if e.lam_kind == "empty":
            assert product > 0.0
        else:
            assert product <= 1e-12


def test_planar_condition_ii_detects_increase(
    example2_linear_system, linear_system
):
    # time-reversed double-cone system: sliding weights still exist but
    # the candidate grows along the tangent combination
    _, spec, basis2 = fixtures.example("example2")
    A1, A2 = [m.A for m in example2_linear_system.modes]
    Qs = [m.Q for m in example2_linear_system.modes]
    sys_rev = linear_system([-A1, -A2], Qs)
    cand = Candidate(matrices=basis2.matrices)
    report = planar_condition_ii(sys_rev, spec, cand, POLICY)
    assert not report.ok
    bad = [e for e in report.entries if not e.ok]
    assert bad and all(e.margin > 0 for e in bad)
    # direct quadratic-form oracle at the failing line
    e = bad[0]
    lam = e.lam_vertices[0]
    P = basis2.matrices[e.hull.indices[0] - 1]
    Aprev = sys_rev.modes[e.modes[0] - 1].A
    Ahere = sys_rev.modes[e.modes[1] - 1].A
    want = lam[0] * float(e.v @ (P @ Aprev + Aprev.T @ P) @ e.v) + lam[1] * float(
        e.v @ (P @ Ahere + Ahere.T @ P) @ e.v
    )
    assert e.margin == pytest.approx(want, rel=1e-9)
    # the margin is the Lie derivative's upper end at the line, and the
    # weights follow the chain order of e.modes; scaling mode 1 makes the
    # weights unequal, so a swapped order would show
    basis = QuadraticBasis(cand.matrices)
    sys_fast = linear_system([-3.0 * A1, -A2], Qs)
    for sysm in (sys_rev, sys_fast):
        entries = planar_condition_ii(sysm, spec, cand, POLICY).entries
        assert [e.lam_kind for e in entries] == ["point", "point"]
        for e in entries:
            lie = lie_derivative(spec, basis, sysm, e.v, POLICY)
            if sysm is sys_rev:
                assert e.margin == lie.hi
            else:
                assert e.margin == pytest.approx(lie.hi, rel=1e-12)
            w = e.lam_vertices[0]
            d = basis.gradient(e.hull.indices[0], e.v) - basis.gradient(e.hull.indices[1], e.v)
            fields = [sysm.field(m, e.v) for m in e.modes]
            assert abs(d @ (w[0] * fields[0] + w[1] * fields[1])) < 1e-12
            if sysm is sys_fast:
                assert abs(d @ (w[1] * fields[0] + w[0] * fields[1])) > 1.0


def test_planar_condition_ii_vacuous_when_smooth(example2_linear_system):
    # equal-value lines differ from the switching lines, so the
    # candidate is smooth at every switching line
    sys2 = example2_linear_system
    spec = fixtures.example("example2")[1]
    # difference diag(2, -1): equal-value lines x2 = +/- sqrt(2) x1 miss
    # the switching lines x2 = +/- x1 entirely
    cand = Candidate(matrices=[np.diag([5.0, 1.0]), np.diag([3.0, 2.0])])
    report = planar_condition_ii(sys2, spec, cand, POLICY)
    assert report.ok
    assert all(e.lam_kind == "smooth" for e in report.entries)


# ---------------------------------------------------------------------------
# two-mode condition (ii)


def test_sliding_exclusion_benchmark_passes():
    sys3 = fixtures.example("example3")[0]
    rep = sliding_exclusion(sys3, POLICY, n_samples=10_000)
    assert rep.ok
    assert rep.min_product > 0
    # the product is constant 0.0075 on the whole surface for this system
    assert rep.min_product == pytest.approx(0.0075, abs=1e-9)


def test_sliding_exclusion_degenerate_zero_product(linear_system):
    Q = np.diag([1.0, -1.0])
    sysm = linear_system([-np.eye(2), -np.eye(2)], [Q, -Q])
    rep = sliding_exclusion(sysm, POLICY, n_samples=2000)
    # z' Q (-I) z = -z' Q z = 0 on the cone: the product vanishes identically
    assert abs(rep.min_product) <= 1e-12
    assert not rep.ok


def test_sliding_exclusion_fails_where_sliding_exists(
    example2_linear_system, linear_system
):
    Q = np.diag([1.0, -1.0])
    sysm = linear_system([m.A for m in example2_linear_system.modes], [Q, -Q])
    rep = sliding_exclusion(sysm, POLICY, n_samples=4000)
    assert rep.min_product < 0
    assert not rep.ok


def test_sliding_exclusion_requires_invertible_q(linear_system):
    Q = np.diag([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        sliding_exclusion(
            linear_system([-np.eye(2), -np.eye(2)], [Q, -Q]), POLICY, 100
        )


def test_sliding_exclusion_requires_a_sample():
    sys3 = fixtures.example("example3")[0]
    for n in (0, -5):
        with pytest.raises(InvalidInputError):
            sliding_exclusion(sys3, POLICY, n_samples=n)


def test_blocked_exclusion_is_the_one_block_exclusion(linear_system, monkeypatch):
    # the samples are drawn and evaluated in blocks of EXCLUSION_BLOCK
    # rows: every report must be the one-block reference's, for sample
    # counts below, at and around the block size and its multiples
    assert inclusion.EXCLUSION_BLOCK == 2048
    sys3 = fixtures.example("example3")[0]
    assert (np.linalg.eigvalsh(sys3.modes[0].Q) < 0).sum() == 1
    # the other sign layout: two negative eigenvalues of Q, one positive
    rng = np.random.default_rng(39)
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    Q = V @ np.diag([-1.5, -0.5, 2.0]) @ V.T
    Q = 0.5 * (Q + Q.T)
    assert (np.linalg.eigvalsh(Q) < 0).sum() == 2
    A = [rng.standard_normal((3, 3)) - 2.0 * np.eye(3) for _ in range(2)]
    flipped = linear_system(A, [Q, -Q])
    cases = [(sysm, range(10)) for sysm in (sys3, flipped)]
    # and R^4..R^6, where quad_forms takes its (rows, 2, 1, n) product
    for dim in (4, 5, 6):
        V = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        Q = V @ np.diag(np.linspace(-1.5, 2.0, dim)) @ V.T
        Q = 0.5 * (Q + Q.T)
        A = [rng.standard_normal((dim, dim)) - 2.0 * np.eye(dim) for _ in range(2)]
        cases.append((linear_system(A, [Q, -Q]), range(4)))
    quad_forms, rows = inclusion.quad_forms, []

    def recorded(X, Ps):
        rows.append(len(X))
        return quad_forms(X, Ps)

    monkeypatch.setattr(inclusion, "quad_forms", recorded)
    for sysm, seeds in cases:
        for seed in seeds:
            policy = NumericPolicy(seed=seed)
            for n in (1, 2047, 2048, 2049, 6151, 10_000):
                rows.clear()
                got = sliding_exclusion(sysm, policy, n_samples=n)
                want = inclusion_reference.sliding_exclusion(sysm, policy, n_samples=n)
                assert max(rows) == min(n, 2048)
                assert got == want
                assert np.float64(got.min_product).tobytes() == np.float64(
                    want.min_product
                ).tobytes()


def test_blocked_exclusion_keeps_a_nan_minimum(monkeypatch):
    # Python's min drops a NaN against a number; the block minima
    # combine under np.minimum, which keeps it, as the one-block min does
    sys3 = fixtures.example("example3")[0]
    quad_forms = inclusion.quad_forms
    calls = []

    def nan_in_second_block(X, Ps):
        out = quad_forms(X, Ps)
        calls.append(len(X))
        if len(calls) == 2:
            out[5, 0] = np.nan
        return out

    monkeypatch.setattr(inclusion, "quad_forms", nan_in_second_block)
    rep = sliding_exclusion(sys3, POLICY, n_samples=5000)
    assert calls == [2048, 2048, 904]
    assert np.isnan(rep.min_product)
    assert not rep.ok


def test_zero_budget_search_builds_no_candidate(monkeypatch):
    # the budget is tested before the initial candidates (Lyapunov
    # solves) and the match penalty are built
    sys1, spec1, _ = fixtures.example("example1")
    sys3, spec3, _ = fixtures.example("example3")
    calls = []
    monkeypatch.setattr(certifier, "solve_lyapunov", lambda A: calls.append(A))
    monkeypatch.setattr(certifier, "_MatchPenalty", lambda *a: calls.append(a))
    for sysm, spec in (
        (sys1, spec1),
        (sys3, spec3),
    ):
        res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=0))
        assert not res.found
        assert res.rounds == 0
        assert res.candidate is None
    assert calls == []


@pytest.mark.parametrize(
    "A", [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])], ids=["saddle", "rotation"]
)
def test_mode_without_a_lyapunov_solution_starts_from_the_identity(A, linear_system):
    # eigenvalues summing to zero make the Lyapunov system singular: that
    # mode's base starts from I, quietly, and the stable mode keeps its P
    stable = np.array([[-1.0, 0.3], [0.0, -2.0]])
    sysm = linear_system([stable, A])
    spec = MaxMinSpec(K=2, families=((1, 2),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        starts = certifier._initial_candidates(sysm, spec, 0)
    assert [str(w.message) for w in caught] == []
    assert np.array_equal(starts[0][0], solve_lyapunov(stable))
    assert np.array_equal(starts[0][1], np.eye(2))


def test_certify_refuses_a_singular_base():
    # P = B B^T for an integer 3 x 2 B: eigh's smallest eigenvalue is about
    # 1e-14 > 0, and the exact LDL^T refuses it
    sys3, spec3, _ = fixtures.example("example3")
    singular = np.array([[25.0, -10.0, -5.0], [-10.0, 53.0, -61.0], [-5.0, -61.0, 82.0]])
    with pytest.raises(InvalidInputError, match="candidate base 2 is not positive definite"):
        certify(sys3, spec3, Candidate(matrices=[np.eye(3), singular]), POLICY)


def test_p_step_rollback_restores_the_multipliers(monkeypatch):
    # a basis step whose every trial fails the repair rolls back to the
    # bases before it; the multipliers, which every trial's trace
    # normalization rescaled, must go back with them
    sys3, spec3, _ = fixtures.example("example3")
    p_steps = []

    def walks(penalty, starts, max_steps):
        # the start's repair succeeds untouched; every P-step walk fails
        if max_steps == 20:
            p_steps.append(1)
        return [certifier._Walk(bases=P, ok=max_steps != 20) for P in starts]

    optimized = []
    optimize = certifier._optimize_multipliers

    def record_optimize(sysm, cand, groups, sweeps=3):
        out = optimize(sysm, cand, groups, sweeps)
        optimized.append(([P.copy() for P in cand.matrices], out))
        return out

    class Checked(Exception):
        pass

    check = certifier.check_condition_i

    def stop_at_check(sysm, spec, cand, policy):
        # the first check after a rolled-back P-step stops the search
        if p_steps:
            raise Checked(cand)
        return check(sysm, spec, cand, policy)

    monkeypatch.setattr(certifier, "_repair_walks", walks)
    monkeypatch.setattr(certifier, "_optimize_multipliers", record_optimize)
    monkeypatch.setattr(certifier, "check_condition_i", stop_at_check)
    with pytest.raises(Checked) as stop:
        search_condition_i(sys3, spec3, POLICY, SearchOptions(seed=0))
    cand = stop.value.args[0]
    mats, ys = optimized[-1]
    keys = [g.key for g in build_groups(sys3, spec3, {1: 1, 2: 2})]
    assert all(np.array_equal(P, Q) for P, Q in zip(cand.matrices, mats))
    assert cand.multipliers == dict(zip(keys, ys))


def test_two_mode_report_benchmark():
    sys3, spec3, _ = fixtures.example("example3")
    rep = check_condition_ii_2mode(sys3, spec3, fixtures.example3_candidate(), POLICY)
    assert rep.ok
    assert rep.rank_margins[(1, 2)] == pytest.approx(1.0)


def test_two_mode_rank_failure():
    sys3, spec3, _ = fixtures.example("example3")
    cand = Candidate(matrices=[np.diag([4.0, 4.0, 1.0]), np.diag([4.0, 4.0, 1.0])])
    rep = check_condition_ii_2mode(sys3, spec3, cand, POLICY)
    assert rep.rank_margins[(1, 2)] == 0.0
    assert not rep.ok


def test_two_mode_exclusion_failure_reported(linear_system):
    sys3, spec3, _ = fixtures.example("example3")
    A1 = sys3.modes[0].A
    sysm = linear_system([A1, -A1], [m.Q for m in sys3.modes])
    rep = check_condition_ii_2mode(
        sysm, spec3, fixtures.example3_candidate(), POLICY
    )
    assert not rep.exclusion.ok
    assert not rep.ok


# ---------------------------------------------------------------------------
# combined verdicts, search, serialization


def test_certify_benchmark1_gas():
    sys1, spec1, _ = fixtures.example("example1")
    cert = certify(sys1, spec1, fixtures.example1_candidate(), POLICY)
    assert cert.verdict == VERDICT_GAS
    assert cert.cond_ii_kind == "planar"


def test_certify_derives_the_matching_once(monkeypatch):
    # groups and matching depend on the bases alone, so completing the
    # multipliers reuses them and recomputes only the margins
    sys1, spec1, _ = fixtures.example("example1")
    calls = []
    derive = certifier.derive_matching

    def counted(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    monkeypatch.setattr(certifier, "derive_matching", counted)
    cert = certify(sys1, spec1, fixtures.example1_candidate(), POLICY)
    assert len(calls) == 1
    fresh = check_condition_i(sys1, spec1, cert.candidate, POLICY)
    assert cert.cond_i.margins == fresh.margins
    assert (cert.cond_i.matching, cert.cond_i.evidence) == (fresh.matching, fresh.evidence)


def test_certify_solves_the_margins_again_only_after_a_completion(monkeypatch):
    # with every margin strict (the example1 bases alone are), completion
    # changes no multiplier, so the margins of the check stand; otherwise
    # (the example3 bases alone) they are solved once more
    calls = []
    margins = certifier._margins

    def counted(*args):
        calls.append(args)
        return margins(*args)

    monkeypatch.setattr(certifier, "_margins", counted)
    for name, candidate, solves in (
        ("example1", fixtures.example1_candidate(), 1),
        ("example3", fixtures.example3_candidate(), 1),
        ("example1", None, 1),
        ("example3", None, 2),
    ):
        sysm, spec, basis = fixtures.example(name)
        cand = candidate or Candidate(matrices=[np.array(P) for P in basis.matrices])
        calls.clear()
        cert = certify(sysm, spec, cand, POLICY)
        assert len(calls) == solves
        assert cert.verdict == VERDICT_GAS
        assert cert.candidate is not cand
        assert cert.cond_i.margins == margins(sysm, cert.candidate, cert.cond_i.groups)


def test_certify_search_reuses_the_search_report(monkeypatch):
    # the found candidate's condition (i) report comes from the search;
    # certify draws no further matching sample
    sys1, spec1, _ = fixtures.example("example1")
    calls = []
    derive = certifier.derive_matching

    def counted(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    opts = SearchOptions(seed=0)
    monkeypatch.setattr(certifier, "derive_matching", counted)
    result = search_condition_i(sys1, spec1, POLICY, opts)
    alone = len(calls)
    calls.clear()
    cert = certify(sys1, spec1, policy=POLICY, search=True, search_opts=opts)
    assert result.found and cert.verdict == VERDICT_GAS
    assert len(calls) == alone
    assert cert.cond_i.margins == result.report.margins


def test_certify_benchmark3_gas():
    sys3, spec3, _ = fixtures.example("example3")
    cert = certify(sys3, spec3, fixtures.example3_candidate(), POLICY)
    assert cert.verdict == VERDICT_GAS
    assert cert.cond_ii_kind == "two-mode"


def test_certify_dispatch_gap_three_modes_three_dims(linear_system):
    A = np.array([[-1.0, 0.2, 0.0], [0.0, -1.5, 0.1], [0.0, 0.0, -2.0]])
    Qs = [
        np.diag([1.0, -1.0, -1.0]),
        np.diag([-1.0, 1.0, -1.0]),
        np.diag([-1.0, -1.0, 1.0]),
    ]
    sysm = linear_system([A, A, A], Qs)
    P1 = solve_lyapunov(A)
    spec = MaxMinSpec(K=2, families=((1, 2),))
    cand = Candidate(matrices=[P1, 1.5 * P1])
    cert = certify(sysm, spec, cand, POLICY)
    assert cert.cond_ii_kind == "unchecked"
    assert cert.verdict == VERDICT_COND_I_ONLY
    # every procedure was passed over, in the fixed order, each with a reason
    assert [kind for kind, _ in cert.skipped] == ["vacuous", "planar", "two-mode"]
    assert all(reason for _, reason in cert.skipped)
    assert cert.notes[-3:] == [
        f"condition (ii) unchecked: {kind}: {reason}" for kind, reason in cert.skipped
    ]


def test_certify_two_mode_cones_not_opposite(linear_system):
    # two modes in R^3 whose cones are not +/-Q: the two-mode procedure
    # refuses, and its refusal is the reason the certificate keeps
    A = np.array([[-1.0, 0.2, 0.0], [0.0, -1.5, 0.1], [0.0, 0.0, -2.0]])
    sysm = linear_system([A, A], [np.diag([1.0, -1.0, -1.0]), np.diag([-2.0, 1.0, 1.0])])
    P1 = solve_lyapunov(A)
    cert = certify(sysm, MaxMinSpec(K=2, families=((1, 2),)), Candidate([P1, 1.5 * P1]), POLICY)
    assert cert.verdict == VERDICT_COND_I_ONLY
    assert cert.cond_ii_kind == "unchecked" and cert.cond_ii is None
    with pytest.raises(InvalidInputError) as err:
        sliding_exclusion(sysm, POLICY)
    assert cert.skipped[-1] == ("two-mode", str(err.value))
    assert str(err.value) == "two-mode exclusion needs opposite cones +/-Q"


def test_certify_calls_condition_ii_through_the_module(monkeypatch):
    # the benchmark's layer tracer wraps certifier.planar_condition_ii and
    # certifier.sliding_exclusion; certify must look both up when it runs
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("planar_condition_ii", "sliding_exclusion"):
        monkeypatch.setattr(certifier, name, counted(name, getattr(certifier, name)))
    cert1 = certify(*fixtures.example("example1")[:2], fixtures.example1_candidate(), POLICY)
    assert (cert1.cond_ii_kind, calls) == ("planar", ["planar_condition_ii"])
    cert3 = certify(*fixtures.example("example3")[:2], fixtures.example3_candidate(), POLICY)
    assert cert3.cond_ii_kind == "two-mode"
    assert calls == ["planar_condition_ii", "sliding_exclusion"]
    assert cert1.skipped == [("vacuous", "3 bases and 3 modes")]
    assert [kind for kind, _ in cert3.skipped] == ["vacuous", "planar"]


def test_planar_condition_ii_counts_active_set_warnings(linear_system):
    # identical bases: both switching lines take their active sets from
    # perturbation sampling, which warns once per line
    sysm = linear_system(
        [np.array([[-1.0, 0.5], [-0.5, -1.0]]), np.array([[-1.0, -0.5], [0.5, -1.0]])],
        [np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])],
    )
    spec = MaxMinSpec(K=2, families=((1, 2),))
    cert = certify(sysm, spec, Candidate([np.eye(2), np.eye(2)]), POLICY)
    assert (cert.verdict, cert.cond_ii_kind) == (VERDICT_GAS, "planar")
    assert cert.cond_ii.warnings == {"bases 1 and 2 are identical": 2}
    # distinct bases give no warning
    rep = planar_condition_ii(sysm, spec, Candidate([np.eye(2), 2.0 * np.eye(2)]), POLICY)
    assert rep.warnings == {}


def test_certify_single_stable_mode_classical(linear_system):
    sysm = linear_system([np.array([[-1.0, 0.0], [0.4, -2.0]])])
    spec = MaxMinSpec(K=1, families=((1,),))
    cert = certify(sysm, spec, None, POLICY, search=True,
                   search_opts=SearchOptions(time_budget=10.0))
    assert cert.verdict == VERDICT_GAS
    assert cert.cond_ii_kind == "vacuous"


def test_search_unstable_mode_not_found(linear_system):
    sysm = linear_system([np.eye(2)])
    spec = MaxMinSpec(K=1, families=((1,),))
    res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=3.0))
    assert not res.found
    assert "budget" in res.message


NOT_A_PROOF = "without a verified candidate (bilinear feasibility; not a proof of infeasibility)"


def test_failed_search_names_the_limit_that_ended_it(monkeypatch, linear_system):
    # an unstable mode fails every start; two rounds a start spend all 16
    # well within the budget, and a zero budget ends the search at once
    monkeypatch.setattr(certifier, "SEARCH_ROUNDS", 2)
    sysm = linear_system([np.eye(2)])
    spec = MaxMinSpec(K=1, families=((1,),))
    starts = certifier.SEARCH_STARTS
    res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=30.0))
    assert not res.found and res.rounds == 2 * starts
    assert res.message == f"all {starts} starts failed within the budget {NOT_A_PROOF}"
    res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=0.0))
    assert res.message == f"budget exhausted {NOT_A_PROOF}"
    # a budget that runs out inside a start, on a clock that reads one
    # second later at every look
    ticks = itertools.count()
    clock = types.SimpleNamespace(monotonic=lambda: float(next(ticks)))
    monkeypatch.setattr(certifier, "time", clock)
    res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=5.0))
    assert 0 < res.rounds < 2 * starts
    assert res.message == f"budget exhausted {NOT_A_PROOF}"


def test_search_with_more_bases_than_modes():
    # K = 3 bases for M = 2 modes: no mode is steered to a base, so the
    # matching penalty and its repair are skipped
    sys3, _, _ = fixtures.example("example3")
    spec = MaxMinSpec(K=3, families=((1, 2), (3,)))
    res = search_condition_i(sys3, spec, POLICY, SearchOptions(time_budget=30.0))
    assert res.found and res.rounds == 5
    assert res.report.ok and all(m < -POLICY.margin for m in res.report.margins)


def test_search_without_a_matching_ends_a_failed_start_after_one_pass(
    monkeypatch, linear_system
):
    # with no mode -> base steering there are no counterexamples to learn
    # from, so a start whose candidate fails takes one pass of
    # SEARCH_ROUNDS rounds, not four
    monkeypatch.setattr(certifier, "SEARCH_ROUNDS", 2)
    sysm = linear_system([np.eye(2)])
    spec = MaxMinSpec(K=2, families=((1, 2),))
    starts = len(certifier._initial_candidates(sysm, spec, 0))
    res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=30.0))
    assert not res.found
    assert res.rounds == 2 * starts


def test_scaled_candidate_scales_every_margin():
    # tau weighs base differences, so scaling the bases (and beta) by c
    # while tau stays scales every inequality matrix, and its margin, by c
    sys1, spec1, _ = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    groups = build_groups(sys1, spec1, IDENTITY_MATCHING)
    base = _margins(sys1, cand, groups)
    for c in (0.5, 2.0, 7.0):
        got = _margins(sys1, cand.scaled(c), groups)
        np.testing.assert_allclose(got, [c * m for m in base], rtol=1e-12)


@pytest.mark.parametrize(
    "name, seed, margin, verdict",
    [("example1", 0, 0.3, VERDICT_GAS), ("example3", 1, 0.05, VERDICT_COND_I_ONLY)],
)
def test_search_honours_the_policy_margin(name, seed, margin, verdict):
    # the search rescales its candidate to the required margin; example3
    # stops at condition (i) because its exclusion product 0.0075 < 0.05
    sysm, spec, _ = fixtures.example(name)
    policy = NumericPolicy(margin=margin, seed=seed)
    cert = certify(
        sysm, spec, None, policy, search=True,
        search_opts=SearchOptions(time_budget=5.0, seed=seed),
    )
    assert cert.verdict == verdict
    assert max(cert.cond_i.margins) < -margin
    fresh, stored, matches = re_verify(serialize_certificate(cert, sysm))
    assert stored == verdict and matches


def test_search_rescale_needs_the_search_floor(monkeypatch, linear_system):
    # a slowly decaying mode caps every trace-normalized margin near
    # -4e-8, above the 1e-6 floor; rescaling such a candidate to
    # -10 x margin would certify on rounding-level margins
    monkeypatch.setattr(certifier, "SEARCH_ROUNDS", 2)
    sysm = linear_system([np.diag([-1e-8, -1.0])])
    spec = MaxMinSpec(K=1, families=((1,),))
    res = search_condition_i(sysm, spec, POLICY, SearchOptions(time_budget=5.0))
    assert not res.found


@pytest.mark.parametrize(
    "name, seed, rounds",
    [("example1", 0, 1), ("example1", 5, 6), ("example3", 1, 4), ("example3", 4, 6)],
)
def test_search_rounds_at_benchmark_seeds(name, seed, rounds):
    # the search seeds the benchmark runs; a change to the search
    # iterates shows here before it moves the benchmark's search time.
    # The golden report pins the found candidate to the last digit, and
    # its note carries the round count.
    sysm, spec, _ = fixtures.example(name)
    cert = certify(
        sysm,
        spec,
        policy=NumericPolicy(seed=seed),
        search=True,
        search_opts=SearchOptions(seed=seed),
    )
    text = serialize_certificate(cert, sysm)
    assert f"# note: condition (i) candidate found by search in {rounds} round" in text
    assert text == (GOLDEN / f"search_{name}_seed{seed}.txt").read_text()


def candidate_digest(cand):
    """sha256 of the bases' float bytes, then of each group key with its
    taus' bytes, then of each group key with its beta's bytes, in key
    order."""
    h = hashlib.sha256()
    for P in cand.matrices:
        h.update(np.asarray(P, dtype=float).tobytes())
    for key in sorted(cand.multipliers):
        h.update(repr(key).encode())
        h.update(np.asarray(cand.multipliers[key][:-1], dtype=float).tobytes())
    for key in sorted(cand.multipliers):
        h.update(repr(key).encode())
        h.update(np.float64(cand.multipliers[key][-1]).tobytes())
    return h.hexdigest()


# each case: the round count, the digest of the search from scipy's
# Schur-method Lyapunov start (the start before solve_lyapunov moved to
# numpy; these were the pins then, and they name the cases) and the digest
# from the Kronecker start, which differs from scipy's in the last bits
SEARCH_PINS = [
    (
        "example1", 1, 1,
        "84f1ce6d756be5f41bb1e683126901c2ffac90f93dc569aa396d87584685d574",
        "35345502a7646dcfc04a12a795c2eaf633c002014dab153d39f746da4b1c7174",
    ),
    (
        "example1", 2, 1,
        "84f1ce6d756be5f41bb1e683126901c2ffac90f93dc569aa396d87584685d574",
        "35345502a7646dcfc04a12a795c2eaf633c002014dab153d39f746da4b1c7174",
    ),
    (
        "example1", 7, 2,
        "5f8c4bdd1bc4c2f18b1e456a2bc806e2f1fd13defc0c5a22165eae021ad18e54",
        "3a606d078f594fd9e2650c2ee19ab186930c72a78e1ce774f1cf0ce83dec3a0f",
    ),
    (
        "example3", 5, 5,
        "b96eccf5ecb67eda92673c48276f43c90f6a231305f00dfcefe955f74aeaeec2",
        "f079bb2f24d095612c671fe75127f11db42647a57ee970788df47006215e6d23",
    ),
]


def scipy_lyapunov(A):
    P = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(A.shape[0]))
    return 0.5 * (P + P.T)


@pytest.mark.parametrize(
    "name, seed, rounds, scipy_digest, digest",
    SEARCH_PINS,
    ids=["-".join(map(str, pin[:4])) for pin in SEARCH_PINS],
)
def test_search_pins_beyond_the_goldens(name, seed, rounds, scipy_digest, digest, monkeypatch):
    # more short searches pinned to the last bit: the round count and a
    # digest of the found candidate's matrices and multipliers, from both
    # starts, so that only the start moved when the solver changed
    sysm, spec, _ = fixtures.example(name)
    res = search_condition_i(sysm, spec, NumericPolicy(seed=seed), SearchOptions(seed=seed))
    assert res.found and res.rounds == rounds
    assert candidate_digest(res.candidate) == digest
    monkeypatch.setattr(certifier, "solve_lyapunov", scipy_lyapunov)
    res = search_condition_i(sysm, spec, NumericPolicy(seed=seed), SearchOptions(seed=seed))
    assert res.found and res.rounds == rounds
    assert candidate_digest(res.candidate) == scipy_digest


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_search_certificate_realizes_only_its_matched_bases():
    # example1's certificate at search seed 0 (the golden one): the 2000
    # samples of derive_matching report 1->1, 2->2, 3->3, yet base 2 wins
    # inside mode 1 on a wedge of about 3e-5 rad next to switching line
    # 2, where grad V_2 . f_1 = +7.77; a scan of 400,001 angles sees it
    sysm, spec, _ = fixtures.example("example1")
    res = search_condition_i(sysm, spec, NumericPolicy(seed=0), SearchOptions(seed=0))
    t = np.arange(400_001) * np.pi / 400_001
    X = np.stack([np.cos(t), np.sin(t)], axis=1)
    owner = sysm.owners(X, 0.0)
    base = realized_base(spec, QuadraticBasis(res.candidate.matrices).values(X))
    seen = (owner > 0) & (base > 0)
    assert set(zip(owner[seen].tolist(), base[seen].tolist())) == {(1, 1), (2, 2), (3, 3)}


def test_search_benchmark1_self_consistent():
    sys1, spec1, _ = fixtures.example("example1")
    res = search_condition_i(sys1, spec1, POLICY, SearchOptions(time_budget=55.0))
    assert res.found
    fresh = check_condition_i(sys1, spec1, res.candidate, POLICY)
    assert fresh.ok
    assert fresh.matching is not None
    assert all(m < -1e-6 for m in fresh.margins)


def test_complete_multipliers_from_bare_matrices():
    # the config path carries only the basis; multipliers are recovered
    sys1, spec1, basis1 = fixtures.example("example1")
    bare = Candidate(matrices=basis1.matrices)
    report = check_condition_i(sys1, spec1, bare, POLICY)
    filled = complete_multipliers(sys1, bare, report, POLICY)
    report = check_condition_i(sys1, spec1, filled, POLICY)
    assert report.ok


def group_matrix(sys, cand, group):
    """One group's matrix: the stacked pencil of that group alone, summed."""
    return certifier._pencil_sum(*certifier._pencils(sys, cand, [group]))[0]


def test_group_matrix_uses_candidate_multipliers():
    sys1, spec1, basis1 = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    groups = build_groups(sys1, spec1, IDENTITY_MATCHING)
    g = [g for g in groups if g.key == (3, ((2, 3, 1),))][0]
    A3, P3, P2, P1 = (
        sys1.modes[2].A,
        basis1.matrices[2],
        basis1.matrices[1],
        basis1.matrices[0],
    )
    want = A3.T @ P3 + P3 @ A3 + 0.193 * (P3 - P2) + 0.090 * (P1 - P3)
    np.testing.assert_allclose(group_matrix(sys1, cand, g), want)


def multiplier_bytes(results):
    """The multiplier tuples of a multiplier search as one byte string."""
    return np.array([x for ys in results for x in ys], dtype=float).tobytes()


def test_lockstep_multipliers_are_bitwise_the_per_group_search(linear_system):
    # every group's golden sections run in lockstep on stacked solves; each
    # must end on the bits of its own one-group, one-solve-per-probe search
    rng = np.random.default_rng(11)
    cases = []
    for name in ("example1", "example3"):
        sysm, spec, _ = fixtures.example(name)
        groups = build_groups(sysm, spec, {m.index: m.index for m in sysm.modes})
        for _ in range(3):
            B = rng.standard_normal((spec.K, sysm.dim, sysm.dim))
            # taus on every other group, then betas on the others
            multipliers = {g.key: (*rng.exponential(size=len(g.diffs)), 0.0) for g in groups[::2]}
            for g in groups[1::2]:
                multipliers[g.key] = (0.0,) * len(g.diffs) + (rng.exponential(),)
            cand = Candidate(
                matrices=[np.eye(sysm.dim) + b @ b.T for b in B], multipliers=multipliers
            )
            cases.append((sysm, cand, groups))
    slots = [len(g.diffs) + 1 for g in cases[0][2]]  # example1: each group has a cone term
    assert slots == [3, 3, 2, 3]
    # one all-space mode, so no beta slot; min{V1, V2} with P1 < P2 makes
    # the tau of P1 - P2 drive the margin down without bound, so its
    # bracket grows to the 1e6 cap
    flat = linear_system([np.array([[-1.0, 2.0], [0.0, -3.0]])])
    two = build_groups(flat, MaxMinSpec(K=2, families=((1, 2),)))
    capped = Candidate(matrices=[np.eye(2), 2.0 * np.eye(2)])
    cases.append((flat, capped, two))
    # K = 1 on all-space: one group with no slot at all
    groups1 = build_groups(flat, MaxMinSpec(K=1, families=((1,),)))
    assert [g.diffs for g in groups1] == [()]
    cases.append((flat, Candidate(matrices=[np.eye(2)]), groups1))
    cases.append((flat, capped, []))
    for sysm, cand, groups in cases:
        for sweeps in (2, 3):
            got = certifier._optimize_multipliers(sysm, cand, groups, sweeps)
            want = [optimize_group_multipliers(sysm, cand, g, sweeps) for g in groups]
            assert [len(ys) for ys in got] == [len(g.diffs) + 1 for g in groups]
            assert multiplier_bytes(got) == multiplier_bytes(want)
    capped_taus = [ys[0] for ys in certifier._optimize_multipliers(flat, capped, two)]
    assert max(capped_taus) > 1e6 > min(capped_taus)


def test_probe_tables_are_bitwise_the_per_group_search(linear_system, monkeypatch):
    # cone groups (taus, then beta) beside groups of an all-space mode
    # (taus only, an inert beta) in one call, so a slot's live groups
    # shrink; one base below another drives some taus' brackets up to
    # the cap while the others stop, so bracket tests go on after some
    # groups stopped; and lookaheads that do not divide the 39 probed
    # steps end each slot on a shorter table.  Every table holds a row
    # for each of the slot's groups, and each group ends on the bits of
    # its own one-group search.
    Q = np.diag([1.0, -1.0])
    sysm = linear_system(
        [np.array([[-1.0, 2.0], [0.0, -3.0]]), np.array([[-2.0, 0.5], [-1.0, -1.0]])], [Q, None]
    )
    spec = MaxMinSpec(K=3, families=((1, 2), (3,)))
    groups = build_groups(sysm, spec)
    assert {len(g.diffs) + g.cone for g in groups} == {1, 2, 3}
    rng = np.random.default_rng(39)
    B = rng.standard_normal((3, 2, 2))
    cands = [
        Candidate(matrices=[np.eye(2) + b @ b.T for b in B]),
        Candidate(
            matrices=[np.eye(2), 2.0 * np.eye(2), np.eye(2) + B[0] @ B[0].T],
            multipliers={g.key: tuple(rng.exponential(size=len(g.diffs) + 1)) for g in groups},
        ),
    ]
    lockstep = certifier._golden_lockstep
    tables = []

    def recording_lockstep(margins, starts):
        def recorded(V):
            m = margins(V)
            tables.append((len(starts), V.shape, m.shape))
            return m

        return lockstep(recorded, starts)

    monkeypatch.setattr(certifier, "_golden_lockstep", recording_lockstep)
    for lookahead in (2, 3, 4, 5):
        monkeypatch.setattr(certifier, "LOOKAHEAD", lookahead)
        for cand in cands:
            got = certifier._optimize_multipliers(sysm, cand, groups)
            want = [optimize_group_multipliers(sysm, cand, g) for g in groups]
            assert multiplier_bytes(got) == multiplier_bytes(want)
    # every table has a row per group of its slot, and 2 probes a row (a
    # bracket test or the opening pair) or 2^k - 1 for each k up to the
    # lookahead, the shorter last tables included
    counts = [len(g.diffs) + g.cone for g in groups]
    assert {live for live, _, _ in tables} == {sum(c > s for c in counts) for s in range(3)}
    assert all(V == out == (live, V[1]) for live, V, out in tables)
    assert {V[1] for _, V, _ in tables} == {1, 2, 3, 7, 15, 31}


def test_pencil_margin_is_bitwise_the_group_margin():
    # every condition (i) matrix is summed from one stack of all groups'
    # pencils, the shorter ones padded; each row must give the bits of
    # its group's term-by-term sum
    rng = np.random.default_rng(3)
    for name in ("example1", "example3"):
        sysm, spec, _ = fixtures.example(name)
        groups = build_groups(sysm, spec)
        for _ in range(50):
            B = rng.standard_normal((spec.K, sysm.dim, sysm.dim))
            mats = [np.eye(sysm.dim) + b @ b.T for b in B]
            taus = [rng.exponential(size=len(g.diffs)) for g in groups]
            betas = [rng.exponential() * rng.integers(0, 2) for g in groups]
            cand = Candidate(
                matrices=mats,
                multipliers={g.key: (*t, b) for g, t, b in zip(groups, taus, betas)},
            )
            stacked = certifier._pencil_sum(*certifier._pencils(sysm, cand, groups))
            for g, got in zip(groups, stacked):
                want = ref_group_matrix(sysm, cand, g)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()  # signed zeros too
                assert np.array_equal(group_matrix(sysm, cand, g), want)
                assert negdef_margin(got) == negdef_margin(want)
            assert _margins(sysm, cand, groups) == [
                negdef_margin(ref_group_matrix(sysm, cand, g)) for g in groups
            ]


def test_built_solves_are_eig_sym_byte_for_byte(monkeypatch):
    # condition (i)'s stacks are built from checked parts and solved
    # without eig_sym's checks: every group pencil stack, probe table,
    # repair trial table and basis-step start stack of two multiplier
    # completions and two searches, as built and once moved off exact
    # symmetry by a skew that eig_sym accepts, gives eig_sym's bytes, and
    # its projection project_psd's
    built = {"eig": certifier._eig_built, "project": certifier._project_built}
    stacks = {"eig": [], "project": []}

    def recorder(kind):
        def record(S, *floor):
            stacks[kind].append((inspect.currentframe().f_back.f_code.co_name, S.copy(), *floor))
            return built[kind](S, *floor)

        return record

    monkeypatch.setattr(certifier, "_eig_built", recorder("eig"))
    monkeypatch.setattr(certifier, "_project_built", recorder("project"))
    for name in ("example1", "example3"):
        sysm, spec, basis = fixtures.example(name)
        certify(sysm, spec, Candidate(matrices=basis.matrices), POLICY)
    for name, seed in (("example1", 0), ("example3", 1)):
        sysm, spec, _ = fixtures.example(name)
        found = search_condition_i(sysm, spec, NumericPolicy(seed=seed), SearchOptions(seed=seed))
        assert found.found
    callers = {kind: {caller for caller, *_ in stacks[kind]} for kind in stacks}
    assert callers["eig"] == {"_group_eigs", "margins"}
    assert callers["project"] == {"_repair_walks", "_basis_step"}
    rng = np.random.default_rng(42)
    inexact = 0
    for kind, want_fn in (("eig", eig_sym), ("project", project_psd)):
        for _, S, *floor in stacks[kind]:
            inexact += not np.array_equal(S, S.swapaxes(-1, -2))
            R = rng.standard_normal(S.shape)
            for T in (S, S + 1e-10 * (R - R.swapaxes(-1, -2))):
                got, want = built[kind](T, *floor), want_fn(T, *floor)
                if kind == "eig":
                    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                    got, want = got.eigenvectors, want.eigenvectors
                assert got.tobytes() == want.tobytes()
    assert inexact > 0


def test_certify_accepts_dual_polarity_structures():
    # the min-of-max rendering of each benchmark certifies identically
    sys1 = fixtures.example("example1")[0]
    sys3 = fixtures.example("example3")[0]
    dual3 = MaxMinSpec(K=2, families=((1, 2),), polarity="minmax")
    cert3 = certify(sys3, dual3, fixtures.example3_candidate(), POLICY)
    assert cert3.verdict == VERDICT_GAS
    dual1 = MaxMinSpec(K=3, families=((1, 3), (2, 3)), polarity="minmax")
    cert1 = certify(sys1, dual1, fixtures.example1_candidate(), POLICY)
    assert cert1.verdict == VERDICT_GAS
    # the certificate states the stored max-of-min structure
    text = serialize_certificate(cert1, sys1)
    assert "polarity = maxmin\nS1 = {3}\nS2 = {1, 2}\n" in text
    assert re_verify(text)[2]


def test_certify_rotated_copies_of_benchmark(linear_system):
    # congruence transforms change every margin value but no verdict
    sys1, spec, basis1 = fixtures.example("example1")
    rng = np.random.default_rng(0)
    for _ in range(4):
        t = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        sysr = linear_system(
            [R.T @ m.A @ R for m in sys1.modes],
            [R.T @ m.Q @ R for m in sys1.modes],
        )
        cand = Candidate(matrices=[R.T @ P @ R for P in basis1.matrices])
        cert = certify(sysr, spec, cand, POLICY)
        assert cert.verdict == VERDICT_GAS


def test_certify_relabeled_modes_derives_matching(linear_system):
    # cyclically shifted mode labels: the sampled matching is no longer
    # the identity, and the chain walk reorders the cones itself
    sys1, spec1, basis1 = fixtures.example("example1")
    perm = [1, 2, 0]
    sysp = linear_system(
        [sys1.modes[j].A for j in perm],
        [sys1.modes[j].Q for j in perm],
    )
    cand = Candidate(matrices=basis1.matrices)
    report = check_condition_i(sysp, spec1, cand, POLICY)
    assert report.matching == {1: 2, 2: 3, 3: 1}
    cert = certify(sysp, spec1, cand, POLICY)
    assert cert.verdict == VERDICT_GAS


def test_certify_rescaled_cone_matrices(linear_system):
    # positive rescaling of each Q leaves the partition unchanged
    sys1, spec1, basis1 = fixtures.example("example1")
    Qs = [c * Q for c, Q in zip((0.3, 7.0, 2.5), [m.Q for m in sys1.modes])]
    syss = linear_system([m.A for m in sys1.modes], Qs)
    cand = Candidate(matrices=basis1.matrices)
    cert = certify(syss, spec1, cand, POLICY)
    assert cert.verdict == VERDICT_GAS


def test_certificate_roundtrip_reverification():
    for name, make_cand in (
        ("example1", fixtures.example1_candidate),
        ("example3", fixtures.example3_candidate),
    ):
        sysm, spec, _ = fixtures.example(name)
        cert = certify(sysm, spec, make_cand(), POLICY)
        assert cert.verdict == VERDICT_GAS
        text = serialize_certificate(cert, sysm)
        fresh, stored, matches = re_verify(text)
        assert stored == VERDICT_GAS
        assert matches
        np.testing.assert_allclose(
            sorted(fresh.cond_i.margins), sorted(cert.cond_i.margins), atol=1e-9
        )


def test_all_permutation_pairing_round_trips():
    # with P2 + 0.3 I base 2 wins somewhere in both modes, so no matching
    # is sound: every permutation is paired with every mode
    sys3, spec3, basis3 = fixtures.example("example3")
    P1, P2 = basis3.matrices
    cert = certify(sys3, spec3, Candidate(matrices=[P1, P2 + 0.3 * np.eye(3)]), POLICY)
    assert cert.cond_i.matching is None
    assert cert.verdict == VERDICT_NOT_CERTIFIED
    assert len(cert.cond_i.groups) == 4
    assert {g.phi_index for g in cert.cond_i.groups if g.mode == 1} == {1, 2}
    text = serialize_certificate(cert, sys3)
    assert "pairing = all\n" in text
    assert "# note: pairing: all permutations against every mode\n" in text
    fresh, stored, matches = re_verify(text)
    assert stored == VERDICT_NOT_CERTIFIED and matches
    assert fresh.cond_i.matching is None


def test_reverify_rejects_tampered_multipliers():
    # the first mode's inequality genuinely needs its cone multiplier
    # (the bare symmetrized product has a +0.4 eigenvalue), so zeroing
    # it in the report must flip the recomputed verdict; zeroed with its
    # printed margin left as it was, the report is refused outright
    sysm, spec3, _ = fixtures.example("example3")
    cert = certify(sysm, spec3, fixtures.example3_candidate(), POLICY)
    text = serialize_certificate(cert, sysm)
    old = "beta = 0.6; margin = -2.000000e-01"
    assert old in text
    with pytest.raises(
        ConfigError,
        match=r"group 1 does not match the recomputation: it reads '.*; margin = -2\.000000e-01 }', "
        r"the recomputation writes '.*; margin = 4\.000000e-01 }'",
    ):
        re_verify(text.replace("beta = 0.6", "beta = 0.0"))
    tampered = text.replace(old, "beta = 0.0; margin = 4.000000e-01")
    fresh, stored, matches = re_verify(tampered)
    assert stored == VERDICT_GAS
    assert not matches
    assert fresh.verdict != VERDICT_GAS
    assert max(fresh.cond_i.margins) == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("entry", ["abs", "rel", "margin", "seed", "verdict"])
def test_reverify_requires_every_policy_entry(entry):
    # a report certified under margin 0.5 and seed 3 reads not-certified;
    # without its policy lines it must not be recomputed under defaults,
    # and without its verdict line there is no verdict to compare
    sysm, spec3, _ = fixtures.example("example3")
    policy = NumericPolicy(margin=0.5, seed=3)
    text = serialize_certificate(certify(sysm, spec3, fixtures.example3_candidate(), policy), sysm)
    assert re_verify(text)[1:] == (VERDICT_NOT_CERTIFIED, True)
    cut = "".join(line for line in text.splitlines(True) if not line.startswith(f"{entry} = "))
    assert cut != text
    with pytest.raises(ConfigError, match=f"missing '{entry}'"):
        re_verify(cut)


def test_policy_refuses_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must not be negative, got -1"):
        NumericPolicy(seed=-1)
    assert NumericPolicy(seed=0).seed == 0


@pytest.mark.parametrize(
    "opts, message",
    [
        ({"seed": -1}, "search seed must be an integer, not negative, got -1"),
        ({"seed": 1.5}, "search seed must be an integer, not negative, got 1.5"),
        ({"seed": "3"}, "search seed must be an integer, not negative, got '3'"),
        ({"time_budget": float("nan")}, "search time budget must not be negative or NaN, got nan"),
        ({"time_budget": -1.0}, "search time budget must not be negative or NaN, got -1.0"),
    ],
)
def test_search_options_refuse_bad_seeds_and_budgets(opts, message):
    # numpy's generators take no negative or fractional seed, and a NaN
    # budget would never be spent
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        SearchOptions(**opts)


def test_search_options_take_integer_seeds_and_open_budgets():
    assert SearchOptions(seed=np.int64(3), time_budget=0).seed == 3
    assert SearchOptions(time_budget=float("inf")).time_budget == float("inf")


@pytest.mark.parametrize(
    "old, new, entry",
    [
        ("seed = 0", "seed = zero", r"\[meta\]"),
        ("seed = 0", "seed = -1", r"\[meta\]"),
        ("verdict = GAS-certified", "verdict = certified", r"\[meta\]"),
        ("verdict = GAS-certified", "verdict = ", r"\[meta\]"),
        ("perms = ((3, 1, 2),)", "perms = ((3, 1, 2),,)", "group 1"),
        ("tau = (0.258, 0.102)", "tau = (0.2.58, 0.102)", "group 1"),
    ],
)
def test_reverify_names_a_malformed_entry(old, new, entry):
    sysm, spec1, _ = fixtures.example("example1")
    text = serialize_certificate(certify(sysm, spec1, fixtures.example1_candidate(), POLICY), sysm)
    assert old in text
    with pytest.raises(ConfigError, match=f"certificate {entry} is malformed"):
        re_verify(text.replace(old, new))


def _repeat_group_2_as_group_5(text):
    line = next(ln for ln in text.splitlines() if ln.startswith("group 2 "))
    return text.replace(line, line + "\n" + line.replace("group 2 ", "group 5 "))


@pytest.mark.parametrize(
    "edit, entry",
    [
        # a group 1 without its beta once took group 2's tau and beta and
        # still re-verified as GAS-certified
        (lambda t: t.replace("beta = 0.0; ", "", 1), "group 1"),
        (lambda t: t.replace("beta = 0.0; ", "beta = 0.0; beta = 0.0; ", 1), "group 1"),
        (lambda t: t.replace("; terms = ", "; extra = 1; terms = ", 1), "group 1"),
        (lambda t: t.replace("[condition_i]\n", "[condition_i]\nextra = 1\n"), r"\[condition_i\]"),
        (_repeat_group_2_as_group_5, "group 5"),
        (lambda t: t.replace("pairing = matched", "pairing matched"), r"\[meta\]"),
        (lambda t: t.replace("seed = 0", "seed = 0\nseed = 1"), r"\[meta\]"),
        (lambda t: t.replace("perms = ((3, 1, 2),)", "perms = (3, 1, 2)"), "group 1"),
    ],
    ids=[
        "missing-beta", "repeated-beta", "unknown-key", "stray-line", "repeated-group",
        "meta-without-equals", "repeated-meta-key", "bare-perms-tuple",
    ],
)
def test_reverify_reads_every_line_whole(edit, entry):
    sysm, spec1, _ = fixtures.example("example1")
    text = serialize_certificate(certify(sysm, spec1, fixtures.example1_candidate(), POLICY), sysm)
    edited = edit(text)
    assert edited != text
    with pytest.raises(ConfigError, match=f"certificate {entry} is malformed"):
        re_verify(edited)


def _drop_group_4(text):
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("group 4 "))


def _rebase_group_1(text):
    line = next(ln for ln in text.splitlines() if ln.startswith("group 1 "))
    edited = re.sub(r"base = \d+", "base = 3", line)
    edited = re.sub(r"terms = \[[^]]*\]", "terms = [P9-P9]", edited)
    edited = re.sub(r"margin = \S+", "margin = 5.0", edited)
    return text.replace(line, edited)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_group_4, r"certificate group 4 is missing"),
        (
            _rebase_group_1,
            r"certificate group 1 does not match the recomputation: it reads '.*; base = 3; "
            r".*; terms = \[P9-P9\]; .*', the recomputation writes '.*; base = 1; ",
        ),
        (
            lambda t: t.replace("perms = ((3, 1, 2),)", "perms = ((9, 9, 9),)"),
            r"certificate group 1 does not match .* perms \(\(9, 9, 9\),\)",
        ),
    ],
    ids=["deleted-group", "other-base-and-terms", "unknown-perms"],
)
def test_reverify_checks_the_group_table(edit, message):
    # each edit once re-verified as GAS-certified with match True: the
    # report's groups were read for their multipliers only
    text = (GOLDEN / "certify_example1.txt").read_text()
    edited = edit(text)
    assert edited != text
    assert re_verify(text)[1:] == (VERDICT_GAS, True)
    with pytest.raises(ConfigError, match=message):
        re_verify(edited)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("tau = (0.258, 0.102)", "tau = (0.258,)", "group 1 has 1 tau for its 2 terms"),
        ("tau = (0.258, 0.102)", "tau = (0.258, 0.102, 5.0)", "group 1 has 3 tau for its 2 terms"),
        (
            "margin = -7.108779e-03",
            "margin = -5.000000e+00",
            "group 1 does not match the recomputation: it reads 'group 1 { mode = 1; base = 1; "
            "perms = ((3, 1, 2),); terms = [P1-P3, P2-P1]; tau = (0.258, 0.102); beta = 0.0; "
            "margin = -5.000000e+00 }', the recomputation writes 'group 1 { mode = 1; base = 1; "
            "perms = ((3, 1, 2),); terms = [P1-P3, P2-P1]; tau = (0.258, 0.102); beta = 0.0; "
            "margin = -7.108779e-03 }'",
        ),
        # these two once escaped as an InvalidInputError from certify:
        # the printed terms fit the one tau but the rebuilt group has two
        # terms, and a negative tau
        (
            "terms = [P1-P3, P2-P1]; tau = (0.258, 0.102)",
            "terms = [P1-P3]; tau = (0.258,)",
            "group 1 has 1 tau for its 2 terms",
        ),
        (
            "tau = (0.258, 0.102)",
            "tau = (-0.258, 0.102)",
            "does not re-verify: negative ordering multiplier in group (1, ((3, 1, 2),))",
        ),
        # a NaN beta passes the sign test and an infinite one reaches the
        # unchecked solve: both are refused by name before it
        (
            "tau = (0.258, 0.102); beta = 0.0",
            "tau = (0.258, 0.102); beta = nan",
            "does not re-verify: non-finite multiplier in group (1, ((3, 1, 2),))",
        ),
        (
            "tau = (0.258, 0.102); beta = 0.0",
            "tau = (0.258, 0.102); beta = inf",
            "does not re-verify: non-finite multiplier in group (1, ((3, 1, 2),))",
        ),
    ],
    ids=[
        "short-tau", "long-tau", "printed-margin", "terms-fit-the-tau", "negative-tau",
        "nan-beta", "inf-beta",
    ],
)
def test_reverify_refuses_numbers_the_recomputation_does_not_use(old, new, message):
    # each edit of group 1 once re-verified as GAS-certified with match
    # True: a tau past its terms or a tau too few (and beta, stored after
    # the taus, would weigh a term), and a margin never compared
    sysm, spec1, _ = fixtures.example("example1")
    text = serialize_certificate(certify(sysm, spec1, fixtures.example1_candidate(), POLICY), sysm)
    assert re_verify(text)[1:] == (VERDICT_GAS, True)
    edited = text.replace(old, new, 1)
    assert edited != text
    with pytest.raises(ConfigError, match=f"certificate {re.escape(message)}"):
        re_verify(edited)


@pytest.mark.parametrize(
    "golden, old, new, entry",
    [
        (
            "certify_example1.txt",
            "weights = empty; margin = none; ok = true",
            "weights = point; margin = 5.0; ok = false",
            r"\[condition_ii\]",
        ),
        ("certify_example1.txt", "kind = planar", "kind = two-mode", r"\[condition_ii\]"),
        (
            "certify_example1.txt",
            "kind = planar\n",
            "kind = planar\nthis is not a line\n",
            r"\[condition_ii\]",
        ),
        ("certify_example1.txt", "pairing = matched", "pairing = all", r"\[meta\]"),
        (
            "certify_example3.txt",
            "min_product = 0.007499999999999989",
            "min_product = -10.0075",
            r"\[condition_ii\]",
        ),
        ("certify_example3.txt", "rank P1-P2 = 1.0", "rank P1-P2 = -1.0", r"\[condition_ii\]"),
    ],
    ids=["line-rewritten", "kind", "stray-line", "pairing", "min-product", "rank"],
)
def test_reverify_compares_pairing_and_condition_ii(golden, old, new, entry):
    # each edit once re-verified as GAS-certified with match True: only
    # the condition (i) groups were read back
    text = (GOLDEN / golden).read_text()
    edited = text.replace(old, new, 1)
    assert edited != text
    reads = re.escape(new.splitlines()[-1])
    with pytest.raises(
        ConfigError, match=f"certificate {entry} does not match the recomputation: it reads '[^']*{reads}"
    ):
        re_verify(edited)


def old_fmt_tuple(vals):
    """The tuple writer the reports were written with before ``repr``."""
    inner = ", ".join(repr(float(v)) for v in vals)
    if len(vals) == 1:
        inner += ","
    return f"({inner})"


def old_fmt_matrix(M):
    rows = ", ".join("[" + ", ".join(repr(float(v)) for v in row) + "]" for row in np.asarray(M))
    return f"[{rows}]"


def test_repr_formatters_print_the_old_bytes():
    specials = [-0.0, 1e-09, float("inf"), -float("inf"), float("nan"), 5e-324, 2.2250738585072e-308]
    for vals in ([], [0.258], [np.float64(-0.0)], specials, np.array(specials)):
        assert repr(tuple(map(float, vals))) == old_fmt_tuple(vals)
    for M in (np.array([specials[:2], specials[2:4]]), np.eye(3), [[np.float64(5e-324)]]):
        assert _fmt_matrix(M) == old_fmt_matrix(M)
    for perms in (((3, 1, 2),), ((1, 2, 3), (1, 3, 2), (2, 1, 3))):
        old = "(" + ", ".join(str(p) for p in perms) + ("," if len(perms) == 1 else "") + ")"
        assert f"{perms}" == old


INCLUSION = """
[system]
dim = 2
mode 1 { A = [[-1, 1], [-1, -1]]; region = all }
mode 2 { A = [[-2, 1], [-1, -2]]; region = all }

[basis]
P1 = [[2, 0], [0, 1]]
P2 = [[1, 0], [0, 2]]

[structure]
polarity = maxmin
S1 = {1}
S2 = {2}
"""


def test_inclusion_certificate_round_trips():
    # all-space modes (a differential inclusion) have no cone term: each
    # group's beta weighs nothing, yet is written and read back
    parsed = parse_config(INCLUSION)
    sysm = SwitchedSystem.from_config(parsed.require_system())
    basis = parsed.require_basis()
    cert = certify(sysm, basis.to_spec(), Candidate(matrices=basis.matrices), POLICY)
    assert cert.verdict == VERDICT_COND_I_ONLY
    text = serialize_certificate(cert, sysm)
    assert [ln for ln in text.splitlines() if ln.startswith("group ")] == [
        f"group {gno} {{ mode = {mode}; base = {base}; perms = (({u}, {w}),); "
        f"terms = [P{w}-P{u}]; tau = (0.0,); beta = 0.0; margin = {margin} }}"
        for gno, mode, base, (u, w), margin in [
            (1, 1, 1, (2, 1), "-1.585786e+00"),
            (2, 1, 2, (1, 2), "-1.585786e+00"),
            (3, 2, 1, (2, 1), "-3.763932e+00"),
            (4, 2, 2, (1, 2), "-3.763932e+00"),
        ]
    ]
    assert re_verify(text)[1:] == (VERDICT_COND_I_ONLY, True)


@pytest.mark.parametrize(
    "path",
    sorted(GOLDEN.glob("certify_*.txt")) + sorted(GOLDEN.glob("search_*.txt")),
    ids=lambda p: p.stem,
)
def test_reverify_reads_every_golden_certificate(path):
    # the reader against the writer's real output, manifest header included
    fresh, stored, matches = re_verify(path.read_text())
    assert stored == fresh.verdict == VERDICT_GAS
    assert matches


def test_not_certified_report_reverifies():
    # a search that finds nothing writes an empty [basis]; re-verifying
    # the report must reproduce its verdict instead of failing to parse
    sysm, spec1, _ = fixtures.example("example1")
    cert = certify(
        sysm,
        spec1,
        policy=POLICY,
        search=True,
        search_opts=SearchOptions(time_budget=0),
    )
    assert cert.verdict == VERDICT_NOT_CERTIFIED
    text = serialize_certificate(cert, sysm)
    fresh, stored, matches = re_verify(text)
    assert stored == VERDICT_NOT_CERTIFIED
    assert fresh.verdict == VERDICT_NOT_CERTIFIED
    assert matches
    assert fresh.spec == cert.spec
    # the claim alone, with no candidate behind it, does not verify
    _, stored, matches = re_verify(text.replace("verdict = not-certified", "verdict = GAS-certified"))
    assert stored == VERDICT_GAS and not matches
    # the structure goes through the config parser: comments are skipped,
    # malformed entries are config errors
    commented = text.replace("S2 = {3}", "S2 = {3}  # S3 = {9}")
    assert re_verify(commented)[0].spec == cert.spec
    # the search starts from its own seeds, so a candidate passed beside
    # it would be silently dropped: that is refused
    with pytest.raises(InvalidInputError, match="not both"):
        certify(
            sysm,
            spec1,
            fixtures.example1_candidate(),
            POLICY,
            search=True,
            search_opts=SearchOptions(time_budget=0),
        )
    for old, new in (
        ("polarity = maxmin", "polarity = sideways"),
        ("S2 = {3}", "S2 = {0}"),
        ("S2 = {3}", "S3 = {3}"),
    ):
        with pytest.raises(ConfigError):
            re_verify(text.replace(old, new))


# ---------------------------------------------------------------------------
# the vacuous condition (ii) path needs a proven cover


def _one_base_certificate(sysm):
    """certify with the single base P = I for every mode."""
    spec = MaxMinSpec(K=1, families=((1,),))
    return certify(sysm, spec, Candidate(matrices=[np.eye(sysm.dim)]), POLICY)


def test_a_single_planar_cone_with_gaps_is_a_partition_error(linear_system):
    # x'Qx > 0 with Q = diag(1, -1) misses the sectors around the x2 axis:
    # the sampled check finds them, and certify no longer calls the
    # system GAS there
    sysm = linear_system([-np.eye(2)], [np.diag([1.0, -1.0])])
    violations, _ = sysm.validate_partition(POLICY, 2000)
    assert len(violations) == 967
    with pytest.raises(PartitionError, match="a single cone cannot partition the plane"):
        _one_base_certificate(sysm)


def test_two_r3_cones_with_gaps_leave_condition_ii_unchecked(linear_system):
    Qs = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])]
    sysm = linear_system([-np.eye(3)] * 2, Qs)
    violations, _ = sysm.validate_partition(POLICY, 2000)
    assert len(violations) == 816
    cert = _one_base_certificate(sysm)
    assert cert.cond_i.ok
    assert (cert.verdict, cert.cond_ii_kind) == (VERDICT_COND_I_ONLY, "unchecked")
    assert cert.skipped == [
        ("vacuous", "no proof that the 2 cone regions cover R^3"),
        ("planar", "dimension 3"),
        ("two-mode", "two-mode exclusion needs opposite cones +/-Q"),
    ]
    assert "condition (ii) unchecked: vacuous: no proof that the 2 cone regions cover R^3" in cert.notes


@pytest.mark.parametrize(
    "Qs",
    [
        [m.Q for m in fixtures.example("example1")[0].modes],
        [m.Q for m in fixtures.example("example3")[0].modes],
        [np.eye(2)],
        [np.diag([1.0, 0.0])],
        [np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 2.0], [0.0, 2.0, 4.0]])],
    ],
    ids=[
        "example1-tiling-cones",
        "example3-opposite-cones",
        "definite-cone",
        "semidefinite-planar-cone",
        "semidefinite-r3-cone",
    ],
)
def test_proven_covers_keep_the_vacuous_path(linear_system, Qs):
    # P = I and A = -I on cones that tile the plane, on +/-Q, on one cone
    # with Q positive definite (the whole plane but the origin), and on
    # one with Q positive semidefinite and singular (R^n but its null
    # space, a line; the R^3 one is G G^T, G = [[1, 0], [1, 1], [0, 2]])
    dim = len(Qs[0])
    cert = _one_base_certificate(linear_system([-np.eye(dim)] * len(Qs), Qs))
    assert (cert.verdict, cert.cond_ii_kind, cert.skipped) == (VERDICT_GAS, "vacuous", [])


def test_a_zero_cone_proves_no_cover(linear_system):
    # x'0x > 0 holds nowhere, so Q = 0, semidefinite, covers nothing
    sysm = linear_system([-np.eye(3)], [np.zeros((3, 3))])
    assert unproven_cover(sysm) == "no proof that the 1 cone regions cover R^3"


def test_a_planar_cone_gap_among_several_modes_is_a_partition_error(linear_system):
    # two cones that leave the sectors around the diagonals uncovered
    Qs = [np.array([[1.0, 0.0], [0.0, -4.0]]), np.array([[-4.0, 0.0], [0.0, 1.0]])]
    with pytest.raises(PartitionError, match="do not tile the plane"):
        _one_base_certificate(linear_system([-np.eye(2)] * 2, Qs))


# ---------------------------------------------------------------------------
# one record per active set: the gradient vertices ride on the ActiveSet


# example3's bases tie on x1^2 + x2^2 = x3^2 (P1 - P2 = diag(1, 1, -1))
EXAMPLE3_KINKS = [[1.0, 0.0, 1.0], [0.6, 0.8, -1.0], [0.0, -2.0, 2.0]]


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_gradient_vertices_ride_on_the_active_set(name):
    # active_indices, the vertex table and the planar entries (at
    # example1's switching lines) each carry active_indices' set, with
    # the gradients of its bases there bit for bit
    from maxminlyap.setderiv import vertex_table

    sysm, spec, basis = fixtures.example(name)
    if name == "example1":
        report = planar_condition_ii(sysm, spec, fixtures.example1_candidate(), POLICY)
        found = [(e.v, [e.hull]) for e in report.entries]
    else:
        found = [(np.array(x), []) for x in EXAMPLE3_KINKS]
    for x, hulls in found:
        act = active_indices(spec, basis, x, POLICY)
        hulls += [act, vertex_table(spec, basis, sysm, x, POLICY).hull]
        assert len(act.indices) == 2 and len(act.vertices) == 2
        want = [basis.gradient(k, x).tobytes() for k in act.indices]
        for hull in hulls:
            assert (hull.indices, hull.method, hull.warning) == (
                act.indices, act.method, act.warning
            )
            assert hull == act  # equality reads no vertices
            assert [v.tobytes() for v in hull.vertices] == want
    assert len(found) == 3

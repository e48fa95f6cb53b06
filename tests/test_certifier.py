from pathlib import Path

import numpy as np
import pytest

from maxminlyap import certifier, fixtures
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
    cone_chain,
    group_matrix,
    planar_condition_ii,
    q_cone_decompose,
    search_condition_i,
    sliding_exclusion,
)
from maxminlyap.certreport import re_verify, serialize_certificate
from maxminlyap.errors import ConfigError, InvalidInputError, PartitionError
from maxminlyap.maxmin import (
    MaxMinSpec, QuadraticBasis, clarke_gradient, evaluate, phi
)
from maxminlyap.numkernel import negdef_margin, solve_lyapunov
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import lie_derivative
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
    negative_tau = fixtures.example1_candidate()
    negative_tau.taus[(1, ((3, 1, 2),))] = (-0.1, 0.102)
    with pytest.raises(InvalidInputError, match="negative ordering"):
        check_condition_i(sys1, spec1, negative_tau, POLICY)
    negative_beta = fixtures.example1_candidate()
    negative_beta.betas[(2, ((3, 2, 1),))] = -1.0
    with pytest.raises(InvalidInputError, match="negative cone"):
        check_condition_i(sys1, spec1, negative_beta, POLICY)


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
    "clarke_gradient": lambda sys, spec, basis: clarke_gradient(spec, basis, np.ones(3)),
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
    assert [e.alpha for e in report.entries] == [(1, 3), (1, 2), (2, 3)]


def test_planar_entries_agree_with_sign_criterion(planar_sign_criterion):
    # emptiness at each switching-line vector matches the two-field
    # normal-component product test
    sys1, spec1, _ = fixtures.example("example1")
    cand = fixtures.example1_candidate()
    basis = QuadraticBasis(cand.matrices)
    report = planar_condition_ii(sys1, spec1, cand, POLICY)
    for e in report.entries:
        if len(e.alpha) != 2:
            continue
        g1 = basis.gradient(e.alpha[0], e.v)
        g2 = basis.gradient(e.alpha[1], e.v)
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
    P = basis2.matrices[e.alpha[0] - 1]
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
            d = basis.gradient(e.alpha[0], e.v) - basis.gradient(e.alpha[1], e.v)
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


def ref_group_matrix(sys, cand, group):
    """The group matrix summed term by term from the candidate, as built
    before the multiplier pencil."""
    P = cand.matrices
    A = sys.modes[group.mode - 1].A
    F = P[group.phi_index - 1]
    M = A.T @ F + F @ A
    for tau, (u, w) in zip(cand.tau_for(group), group.diffs):
        M = M + tau * (P[u - 1] - P[w - 1])
    Q = sys.modes[group.mode - 1].Q
    if Q is not None:
        M = M + cand.beta_for(group) * Q
    return M


def test_pencil_margin_is_bitwise_the_group_margin():
    # the golden-section search evaluates margins through a pencil built
    # once per group; it must give the bits of the term-by-term sum
    rng = np.random.default_rng(3)
    for name in ("example1", "example3"):
        sysm, spec, _ = fixtures.example(name)
        groups = build_groups(sysm, spec)
        for _ in range(50):
            B = rng.standard_normal((spec.K, sysm.dim, sysm.dim))
            mats = [np.eye(sysm.dim) + b @ b.T for b in B]
            cand = Candidate(
                matrices=mats,
                taus={g.key: tuple(rng.exponential(size=len(g.diffs))) for g in groups},
                betas={g.key: rng.exponential() * rng.integers(0, 2) for g in groups},
            )
            for g in groups:
                want = ref_group_matrix(sysm, cand, g)
                got = certifier._pencil_matrix(
                    certifier._pencil(sysm, mats, g), cand.tau_for(g), cand.beta_for(g)
                )
                assert np.array_equal(got, want)
                assert np.array_equal(group_matrix(sysm, cand, g), want)
                assert negdef_margin(got) == negdef_margin(want)
            assert _margins(sysm, cand, groups) == [
                negdef_margin(ref_group_matrix(sysm, cand, g)) for g in groups
            ]


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


def test_reverify_rejects_tampered_multipliers():
    # the first mode's inequality genuinely needs its cone multiplier
    # (the bare symmetrized product has a +0.4 eigenvalue), so zeroing
    # it in the report must flip the recomputed verdict
    sysm, spec3, _ = fixtures.example("example3")
    cert = certify(sysm, spec3, fixtures.example3_candidate(), POLICY)
    text = serialize_certificate(cert, sysm)
    tampered = text.replace("beta = 0.6", "beta = 0.0")
    assert tampered != text
    fresh, stored, matches = re_verify(tampered)
    assert stored == VERDICT_GAS
    assert not matches
    assert fresh.verdict != VERDICT_GAS
    assert max(fresh.cond_i.margins) == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("entry", ["abs", "rel", "margin", "seed"])
def test_reverify_requires_every_policy_entry(entry):
    # a report certified under margin 0.5 and seed 3 reads not-certified;
    # without its policy lines it must not be recomputed under defaults
    sysm, spec3, _ = fixtures.example("example3")
    policy = NumericPolicy(margin=0.5, seed=3)
    text = serialize_certificate(certify(sysm, spec3, fixtures.example3_candidate(), policy), sysm)
    assert re_verify(text)[1:] == (VERDICT_NOT_CERTIFIED, True)
    cut = "".join(line for line in text.splitlines(True) if not line.startswith(f"{entry} = "))
    assert cut != text
    with pytest.raises(ConfigError, match=f"missing '{entry}'"):
        re_verify(cut)


@pytest.mark.parametrize(
    "old, new, entry",
    [
        ("seed = 0", "seed = zero", r"\[meta\]"),
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

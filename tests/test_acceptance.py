"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.
"""

import itertools
import time

import numpy as np
import pytest

from maxminlyap import fixtures
from maxminlyap.certifier import (
    SearchOptions,
    VERDICT_GAS,
    certify,
    check_condition_i,
    search_condition_i,
)
from maxminlyap.filippovsim import SimOptions, simulate, sliding_lambda
from maxminlyap.inclusion import q_cone_decompose, sliding_exclusion
from maxminlyap.maxmin import MINMAX, all_permutations, combine, dual_families, MaxMinSpec, phi
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import (
    clarke_derivative,
    decrease_check,
    lambda_set,
    lie_derivative,
)

POLICY = NumericPolicy()


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_half_turn_trajectory():
    sys1 = fixtures.example("example1")[0]
    t0 = time.monotonic()
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.01))
    elapsed = time.monotonic() - t0
    ok = len(traj.crossings) >= 3
    if ok:
        z3 = traj.crossings[2].x
        n3 = float(np.linalg.norm(z3))
        beta = n3 / float(np.linalg.norm(fixtures.EXAMPLE1_Z0))
        ok = abs(n3 - 1.2671) <= 1e-3 and abs(beta - 0.8961) <= 1e-3 and elapsed < 1.0
    _report(1, "half-turn |z3| and contraction within 1e-3, under 1s", ok)


def test_criterion_02_phi_table_exact():
    spec = fixtures.example("example1")[1]
    got = tuple(phi(spec, rho) for rho in all_permutations(3))
    _report(2, "selection table over all 6 orderings equals (3,3,3,3,1,2)",
            got == (3, 3, 3, 3, 1, 2))


def test_criterion_03_condition_i_regression():
    sys1, spec1, _ = fixtures.example("example1")
    report = check_condition_i(sys1, spec1, fixtures.example1_candidate(), POLICY)
    ok = len(report.margins) == 4 and all(m < -1e-6 for m in report.margins)
    _report(3, "four reduced inequalities strictly negative with reference multipliers", ok)


def test_criterion_04_condition_ii_planar():
    sys1, spec1, _ = fixtures.example("example1")
    cert = certify(sys1, spec1, fixtures.example1_candidate(), POLICY)
    entries = cert.cond_ii.entries if cert.cond_ii_kind == "planar" else []
    ok = (
        cert.verdict == VERDICT_GAS
        and len(entries) == 3
        and all(e.lam_kind == "empty" for e in entries)
    )
    _report(4, "equalizing weights empty on all three lines; verdict GAS-certified", ok)


def test_criterion_05_conservative_test_witness():
    sys1, spec, basis = fixtures.example("example1")
    v1 = fixtures.EXAMPLE1_LINES["S13"]
    P3, A1 = basis.matrices[2], sys1.modes[0].A
    witness = float(v1 @ (P3 @ A1 + A1.T @ P3) @ v1)
    pts = [r * v1 for r in (0.5, 1.0, 2.0)]
    clarke_rep = decrease_check(spec, basis, sys1, pts, 0.0, POLICY, use_clarke=True)
    lie_rep = decrease_check(spec, basis, sys1, pts, 0.0, POLICY)
    ok = abs(witness - 8.65) <= 0.01 and not clarke_rep.ok and lie_rep.ok
    _report(5, "8.65 witness; conservative test violated, tight test clean", ok)


def test_criterion_06_saturating_two_mode_example():
    sys_b10, spec, basis = fixtures.example("example2")
    lam_ok = True
    for a in np.linspace(0.05, 3.0, 12):
        for x in (np.array([a, a]), np.array([a, -a])):
            lam = sliding_lambda(sys_b10, x, POLICY)
            lam_ok &= lam is not None and abs(lam - 0.5) <= 1e-9

    pts = [np.array([a, a]) for a in np.linspace(0.02, 2.0, 100)]
    converging_ok = True
    for x in pts:
        lie = lie_derivative(spec, basis, sys_b10, x, POLICY)
        converging_ok &= (not lie.empty) and lie.hi < -12.5 * float(x @ x)

    small = [np.array([a, -a]) for a in np.linspace(0.005, 0.1 / np.sqrt(2.0), 25)]
    small_ok = all(
        lie_derivative(spec, basis, sys_b10, x, POLICY).hi < 0.0 for x in small
    )
    big = [np.array([a, -a]) for a in np.linspace(10.0 / np.sqrt(2.0), 25.0, 25)]
    big_pos = any(
        lie_derivative(spec, basis, sys_b10, x, POLICY).hi > 0.0 for x in big
    )
    ok = lam_ok and converging_ok and small_ok and big_pos
    _report(6, "weights 0.5; decrease on converging line; local-only on diverging line", ok)


def test_criterion_07_three_dimensional_example():
    sys3, spec3, basis3 = fixtures.example("example3")
    t0 = time.monotonic()
    cand3 = fixtures.example3_candidate()
    rep = check_condition_i(sys3, spec3, cand3, POLICY)
    excl = sliding_exclusion(sys3, POLICY, n_samples=10_000)
    rank = np.linalg.matrix_rank(basis3.matrices[0] - basis3.matrices[1])
    cert = certify(sys3, spec3, cand3, POLICY)
    elapsed = time.monotonic() - t0
    ok = (
        rep.ok
        and excl.min_product > 0
        and rank == 3
        and cert.verdict == VERDICT_GAS
        and elapsed < 5.0
    )
    _report(7, "3-D example: inequalities, exclusion, rank, GAS verdict, under 5s", ok)


def test_criterion_08_absolute_value_sign_grid(onedim_abs, onedim_two_mode_system):
    spec, basis = onedim_abs
    grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    ok = True
    for f1, f2 in itertools.product(grid, grid):
        sysm = onedim_two_mode_system(f1, f2)
        x0 = np.array([0.0])
        cl = clarke_derivative(spec, basis, sysm, x0, POLICY)
        m = max(abs(f1), abs(f2))
        ok &= cl.lo == -m and cl.hi == m
        lie = lie_derivative(spec, basis, sysm, x0, POLICY)
        if min(f1, f2) <= 0.0 <= max(f1, f2):
            ok &= (not lie.empty) and abs(lie.lo) <= 1e-12 and abs(lie.hi) <= 1e-12
        else:
            ok &= lie.empty
    _report(8, "1-D kink: exact conservative interval; tight set {0} iff 0 admissible", ok)


def test_criterion_09a_containment():
    sys1, spec1, basis1 = fixtures.example("example1")
    sys2, spec2, basis2 = fixtures.example("example2")
    sys3, spec3, basis3 = fixtures.example("example3")
    rng = np.random.default_rng(101)
    cases = [
        (spec1, basis1, sys1, 2),
        (spec2, basis2, sys2, 2),
        (spec3, basis3, sys3, 3),
    ]
    ok = True
    for spec, basis, sysm, dim in cases:
        for _ in range(1000):
            x = rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
            lie = lie_derivative(spec, basis, sysm, x, POLICY)
            if lie.empty:
                continue
            cl = clarke_derivative(spec, basis, sysm, x, POLICY)
            tol = 1e-9 * max(1.0, abs(cl.lo), abs(cl.hi))
            ok &= cl.lo - tol <= lie.lo <= lie.hi <= cl.hi + tol
    _report(9, "(a) tight set contained in conservative interval at 3x1000 points", ok)


def min_of_max(families, vals):
    return min(max(vals[k - 1] for k in fam) for fam in families)


def test_criterion_09b_dualize_pointwise():
    spec = fixtures.example("example1")[1]
    rng = np.random.default_rng(102)
    dual = dual_families(spec.families)
    ok = True
    for _ in range(10_000):
        vals = rng.standard_normal(3)
        ok &= combine(spec, vals) == min_of_max(dual, vals)
    minmax = ((1, 2), (2, 3, 4), (1, 4))
    spec2 = MaxMinSpec(K=4, families=minmax, polarity=MINMAX)
    for _ in range(10_000):
        vals = rng.standard_normal(4)
        ok &= combine(spec2, vals) == min_of_max(minmax, vals)
    _report(9, "(b) polarity flip is pointwise exact on 2x10^4 value tuples", ok)


def test_criterion_09c_lambda_set_vs_grid():
    # delegated to the dedicated brute-force comparison; rerun its core here
    from test_setderiv import (
        _brute_force_simplex,
        _dense_from_simplexset,
        _hausdorff,
    )

    rng = np.random.default_rng(103)
    ok = True
    compared = 0
    while compared < 30:
        m = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        grads = [rng.standard_normal(3) for _ in range(p)]
        fields = [rng.standard_normal(3) for _ in range(m)]
        C = np.array([[(grads[k + 1] - grads[k]) @ f for f in fields] for k in range(p - 1)])
        sv = np.linalg.svd(C, compute_uv=False)
        if sv[-1] < 0.5 * max(1.0, np.abs(C).max()):
            continue
        got = lambda_set(grads, fields, POLICY)
        grid = _brute_force_simplex(C, step=1e-3)
        dense = _dense_from_simplexset(got)
        compared += 1
        if len(grid) == 0 and len(dense) == 0:
            continue
        ok &= _hausdorff(dense, grid) <= 1e-2
    _report(9, "(c) simplex solution sets match 1e-3 grid search within 1e-2", ok)


def test_criterion_09d_derivative_along_trajectories():
    from test_filippovsim import _dv_dt_in_lie_interval

    sys1, spec1, basis1 = fixtures.example("example1")
    sys2, spec2, basis2 = fixtures.example("example2")
    sys3, spec3, basis3 = fixtures.example("example3")
    traj1 = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.005))
    n1 = _dv_dt_in_lie_interval(sys1, spec1, basis1, traj1, POLICY)
    traj2 = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=2.0, max_step=0.005))
    n2 = _dv_dt_in_lie_interval(sys2, spec2, basis2, traj2, POLICY)
    traj3 = simulate(sys3, np.array([1.0, 0.3, 0.4]), SimOptions(horizon=3.0, max_step=0.005))
    n3 = _dv_dt_in_lie_interval(sys3, spec3, basis3, traj3, POLICY)
    _report(9, "(d) dV/dt along example trajectories inside the tight interval",
            n1 > 100 and n2 > 100 and n3 > 100)


def test_criterion_09e_cone_factor_reconstruction():
    rng = np.random.default_rng(105)
    done = 0
    ok = True
    while done < 1000:
        B = rng.standard_normal((2, 2)) * rng.uniform(0.5, 5.0)
        Q = 0.5 * (B + B.T)
        w = np.linalg.eigvalsh(Q)
        if not (w[0] < -1e-9 and w[1] > 1e-9):
            continue
        t1, t2 = q_cone_decompose(Q)
        rec = np.outer(t1, t2) + np.outer(t2, t1)
        ok &= np.abs(rec - Q).max() <= 1e-8 * max(1.0, float(np.abs(Q).max()))
        done += 1
    _report(9, "(e) cone factor reconstruction at 1e-8 on 10^3 random matrices", ok)


def test_criterion_10_search_self_consistency():
    sys1, spec1, _ = fixtures.example("example1")
    t0 = time.monotonic()
    res = search_condition_i(sys1, spec1, POLICY, SearchOptions(time_budget=55.0))
    elapsed = time.monotonic() - t0
    ok = res.found and elapsed < 60.0
    if ok:
        fresh = check_condition_i(sys1, spec1, res.candidate, POLICY)
        ok = fresh.ok and fresh.matching is not None and all(
            m < -1e-6 for m in fresh.margins
        )
    _report(10, "search returns a candidate the independent checker accepts", ok)

import math

import numpy as np
import pytest
from scipy.linalg import expm

from maxminlyap import fixtures
from maxminlyap.filippovsim import (
    COMPLETED,
    SimOptions,
    Trajectory,
    export_csv,
    project_to_surface,
    simulate,
    sliding_lambda,
)
from maxminlyap.inclusion import SwitchedSystem
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import lie_derivative

POLICY = NumericPolicy()


def test_single_mode_decay():
    sysm = SwitchedSystem.linear([-np.eye(2)])
    traj = simulate(sysm, np.array([1.0, 0.0]), SimOptions(horizon=1.0))
    assert traj.status == COMPLETED
    np.testing.assert_allclose(traj.x_end, [math.exp(-1.0), 0.0], atol=1e-6)


def test_linear_modes_match_matrix_exponential():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        A = A - (np.max(np.real(np.linalg.eigvals(A))) + 0.5) * np.eye(3)
        sysm = SwitchedSystem.linear([A])
        x0 = rng.standard_normal(3)
        traj = simulate(sysm, x0, SimOptions(horizon=10.0, max_step=0.1))
        want = expm(10.0 * A) @ x0
        err = np.linalg.norm(traj.x_end - want) / max(1.0, np.linalg.norm(want))
        assert err <= 1e-6


def test_benchmark_half_turn_numbers():
    sys1 = fixtures.example1_system()
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.01))
    assert len(traj.crossings) >= 3
    seq = [(c.from_mode, c.to_mode) for c in traj.crossings[:3]]
    assert seq == [(1, 3), (3, 2), (2, 1)]
    z3 = traj.crossings[2].x
    assert np.linalg.norm(z3) == pytest.approx(1.2671, abs=1e-3)
    beta = np.linalg.norm(z3) / np.linalg.norm(fixtures.EXAMPLE1_Z0)
    assert beta == pytest.approx(0.8961, abs=1e-3)


def test_central_symmetry():
    sys1 = fixtures.example1_system()
    opts = SimOptions(horizon=1.0, max_step=0.01)
    plus = simulate(sys1, fixtures.EXAMPLE1_Z0, opts)
    minus = simulate(sys1, -fixtures.EXAMPLE1_Z0, opts)
    assert len(plus.samples) == len(minus.samples)
    for a, b in zip(plus.samples, minus.samples):
        assert a.t == pytest.approx(b.t, abs=1e-12)
        np.testing.assert_allclose(a.x, -b.x, atol=1e-8)


def test_sliding_lambda_on_both_lines():
    sys2 = fixtures.example2_system(b=10.0)
    for a in (0.05, 0.4, 1.7, 5.0):
        assert sliding_lambda(sys2, np.array([a, a]), POLICY) == pytest.approx(0.5, abs=1e-9)
        assert sliding_lambda(sys2, np.array([a, -a]), POLICY) == pytest.approx(0.5, abs=1e-9)


def test_sliding_lambda_transversal_crossing_absent():
    sys1 = fixtures.example1_system()
    z0 = fixtures.EXAMPLE1_Z0  # both fields cross the line the same way
    assert sliding_lambda(sys1, z0, POLICY, pair=(1, 2)) is None


def test_diverging_sliding_far_out():
    # far out on the diverging line the tangent combination points away
    # from the origin, so the norm grows while sliding persists
    sys2 = fixtures.example2_system(b=10.0)
    x0 = project_to_surface(sys2, (1, 2), np.array([12.0, -12.0]))
    traj = simulate(sys2, x0, SimOptions(horizon=0.5, max_step=0.01))
    slid = [s for s in traj.samples if s.regime.kind == "sliding"]
    assert slid
    assert np.linalg.norm(traj.x_end) > np.linalg.norm(x0)


def test_converging_sliding_reaches_origin_neighborhood():
    sys2 = fixtures.example2_system(b=10.0)
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=3.0, max_step=0.01))
    assert traj.status == COMPLETED
    assert any(s.regime.kind == "sliding" for s in traj.samples)
    assert np.linalg.norm(traj.x_end) < 1e-6


def test_sliding_samples_stay_on_surface():
    sys2 = fixtures.example2_system(b=10.0)
    opts = SimOptions(horizon=2.0, max_step=0.01)
    traj = simulate(sys2, np.array([0.5, 0.0]), opts)
    for s in traj.samples:
        if s.regime.kind == "sliding":
            assert abs(s.x[0] ** 2 - s.x[1] ** 2) <= 10 * opts.event_tol * max(
                1.0, float(s.x @ s.x)
            )


def test_sliding_tangency_residual():
    # the sliding velocity must be tangent to the surface
    sys2 = fixtures.example2_system(b=10.0)
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=2.0, max_step=0.01))
    for s in traj.samples:
        if s.regime.kind != "sliding" or s.regime.lam is None:
            continue
        lam = s.regime.lam
        xdot = lam * sys2.field(1, s.x) + (1 - lam) * sys2.field(2, s.x)
        grad = sys2.modes[0].region_gradient(s.x)
        denom = np.linalg.norm(grad) * np.linalg.norm(xdot)
        if denom < 1e-12:
            continue
        assert abs(grad @ xdot) <= 1e-6 * denom * math.sqrt(2.0) + 1e-12


def _dv_dt_in_lie_interval(sysm, spec, basis, traj, policy):
    from maxminlyap.maxmin import evaluate

    checked = 0
    for a, b in zip(traj.samples[:-1], traj.samples[1:]):
        if a.regime != b.regime or b.t <= a.t:
            continue
        if a.regime.kind == "sliding":
            mid = project_to_surface(sysm, a.regime.pair, 0.5 * (a.x + b.x))
        else:
            mid = 0.5 * (a.x + b.x)
        lie = lie_derivative(spec, basis, sysm, mid, policy)
        if lie.empty:
            continue
        dv = (evaluate(spec, basis, b.x) - evaluate(spec, basis, a.x)) / (b.t - a.t)
        tol = 1e-3 * (1.0 + abs(dv))
        assert lie.lo - tol <= dv <= lie.hi + tol
        checked += 1
    return checked


def test_dv_dt_lies_in_lie_interval_linear_benchmark():
    sys1 = fixtures.example1_system()
    spec = fixtures.example1_spec()
    basis = fixtures.example1_basis()
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.005))
    assert _dv_dt_in_lie_interval(sys1, spec, basis, traj, POLICY) > 100


def test_dv_dt_lies_in_lie_interval_sliding_benchmark():
    sys2 = fixtures.example2_system(b=10.0)
    spec = fixtures.example2_spec()
    basis = fixtures.example2_basis()
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=2.0, max_step=0.005))
    assert _dv_dt_in_lie_interval(sys2, spec, basis, traj, POLICY) > 100


def test_expression_region_sliding_in_one_dimension():
    # constant fields pointing at each other across x = 0: the solution
    # reaches the surface and stays there (sliding weight one half)
    sysm = fixtures.onedim_two_mode_system(1.0, -1.0)  # f=+1 on x<0, f=-1 on x>0
    traj = simulate(sysm, np.array([0.4]), SimOptions(horizon=1.0, max_step=0.01))
    assert traj.status == COMPLETED
    assert abs(traj.x_end[0]) <= 1e-8
    kinds = [s.regime.kind for s in traj.samples]
    assert "sliding" in kinds


def test_stall_at_codimension_two_start():
    sys1 = fixtures.example1_system()
    traj = simulate(sys1, np.zeros(2), SimOptions(horizon=1.0))
    assert traj.status == "stall"


def test_left_domain_status():
    sysm = SwitchedSystem.linear([np.eye(2) * 3.0])
    traj = simulate(sysm, np.array([1.0, 1.0]), SimOptions(horizon=20.0, max_step=0.1))
    assert traj.status == "left-domain"
    assert np.linalg.norm(traj.x_end) > 1e9


def test_csv_schema_planar():
    sys2 = fixtures.example2_system(b=10.0)
    spec = fixtures.example2_spec()
    basis = fixtures.example2_basis()
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=1.0, max_step=0.05))
    text = export_csv(traj, spec, basis)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,regime,lambda,V"
    assert len(lines) == len(traj.samples) + 1
    sliding_rows = [ln for ln in lines[1:] if "Sliding(1)" in ln]
    assert sliding_rows
    lam_field = sliding_rows[0].split(",")[4]
    assert abs(float(lam_field) - 0.5) < 1e-6


def test_csv_three_dimensional_columns():
    sys3 = fixtures.example3_system()
    spec = fixtures.example3_spec()
    basis = fixtures.example3_basis()
    traj = simulate(sys3, np.array([1.0, 0.2, 0.3]), SimOptions(horizon=0.5, max_step=0.05))
    text = export_csv(traj, spec, basis)
    assert text.split("\n")[0] == "t,x1,x2,x3,regime,lambda,V"


def test_csv_single_sample_two_lines():
    from maxminlyap.filippovsim import Regime, TrajSample

    traj = Trajectory(
        samples=[TrajSample(t=0.0, x=np.array([1.0, 2.0]), regime=Regime(kind="mode", mode=1))],
        status=COMPLETED,
    )
    text = export_csv(traj)
    assert len(text.strip().split("\n")) == 2


def test_certified_candidate_decreases_along_trajectories():
    # end-to-end consistency: the GAS-certified candidate is monotone
    # along every simulated solution, sample to sample
    from maxminlyap.maxmin import evaluate

    sys1 = fixtures.example1_system()
    spec = fixtures.example1_spec()
    basis = fixtures.example1_basis()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x0 = rng.standard_normal(2) * rng.uniform(0.5, 2.0)
        traj = simulate(sys1, x0, SimOptions(horizon=3.0, max_step=0.01))
        vals = [evaluate(spec, basis, s.x) for s in traj.samples]
        scale = max(vals) + 1e-12
        for a, b in zip(vals[:-1], vals[1:]):
            assert b <= a + 1e-9 * scale


def test_runtime_budget_benchmark_half_turn():
    import time

    sys1 = fixtures.example1_system()
    t0 = time.monotonic()
    simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.01))
    assert time.monotonic() - t0 < 1.0

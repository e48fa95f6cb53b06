import math

import numpy as np
import pytest
from scipy.linalg import expm

from maxminlyap import filippovsim, fixtures
from maxminlyap.filippovsim import (
    COMPLETED,
    EVENT_TOL,
    SimOptions,
    Trajectory,
    TrajSample,
    _hn,
    _project_to_surface,
    _surface_mode,
    export_csv,
    simulate,
    sliding_lambda,
)
from maxminlyap.maxmin import MAXMIN, MINMAX, MaxMinSpec, QuadraticBasis, evaluate
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import lie_derivative

POLICY = NumericPolicy()


def project_to_surface(sys, pair, x, tol=1e-12):
    """Project x onto the surface shared by a mode pair."""
    return _project_to_surface(sys, _surface_mode(sys, pair), x, tol)


def test_single_mode_decay(linear_system):
    sysm = linear_system([-np.eye(2)])
    traj = simulate(sysm, np.array([1.0, 0.0]), SimOptions(horizon=1.0))
    assert traj.status == COMPLETED
    np.testing.assert_allclose(traj.x_end, [math.exp(-1.0), 0.0], atol=1e-6)


def test_linear_modes_match_matrix_exponential(linear_system):
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        A = A - (np.max(np.real(np.linalg.eigvals(A))) + 0.5) * np.eye(3)
        sysm = linear_system([A])
        x0 = rng.standard_normal(3)
        traj = simulate(sysm, x0, SimOptions(horizon=10.0, max_step=0.1))
        want = expm(10.0 * A) @ x0
        err = np.linalg.norm(traj.x_end - want) / max(1.0, np.linalg.norm(want))
        assert err <= 1e-6


def test_benchmark_half_turn_numbers():
    sys1 = fixtures.example("example1")[0]
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.01))
    assert len(traj.crossings) >= 3
    seq = [(c.from_mode, c.to_mode) for c in traj.crossings[:3]]
    assert seq == [(1, 3), (3, 2), (2, 1)]
    z3 = traj.crossings[2].x
    assert np.linalg.norm(z3) == pytest.approx(1.2671, abs=1e-3)
    beta = np.linalg.norm(z3) / np.linalg.norm(fixtures.EXAMPLE1_Z0)
    assert beta == pytest.approx(0.8961, abs=1e-3)


def test_central_symmetry():
    sys1 = fixtures.example("example1")[0]
    opts = SimOptions(horizon=1.0, max_step=0.01)
    plus = simulate(sys1, fixtures.EXAMPLE1_Z0, opts)
    minus = simulate(sys1, -fixtures.EXAMPLE1_Z0, opts)
    assert len(plus.samples) == len(minus.samples)
    for a, b in zip(plus.samples, minus.samples):
        assert a.t == pytest.approx(b.t, abs=1e-12)
        np.testing.assert_allclose(a.x, -b.x, atol=1e-8)


def test_sliding_lambda_on_both_lines():
    sys2 = fixtures.example("example2")[0]
    for a in (0.05, 0.4, 1.7, 5.0):
        assert sliding_lambda(sys2, np.array([a, a]), POLICY) == pytest.approx(0.5, abs=1e-9)
        assert sliding_lambda(sys2, np.array([a, -a]), POLICY) == pytest.approx(0.5, abs=1e-9)


def test_sliding_lambda_transversal_crossing_absent():
    sys1 = fixtures.example("example1")[0]
    z0 = fixtures.EXAMPLE1_Z0  # both fields cross the line the same way
    assert sliding_lambda(sys1, z0, POLICY, pair=(1, 2)) is None


def test_diverging_sliding_far_out():
    # far out on the diverging line the tangent combination points away
    # from the origin, so the norm grows while sliding persists
    sys2 = fixtures.example("example2")[0]
    x0 = project_to_surface(sys2, (1, 2), np.array([12.0, -12.0]))
    traj = simulate(sys2, x0, SimOptions(horizon=0.5, max_step=0.01))
    slid = [s for s in traj.samples if s.regime.kind == "sliding"]
    assert slid
    assert np.linalg.norm(traj.x_end) > np.linalg.norm(x0)


def test_converging_sliding_reaches_origin_neighborhood():
    sys2 = fixtures.example("example2")[0]
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=3.0, max_step=0.01))
    assert traj.status == COMPLETED
    assert any(s.regime.kind == "sliding" for s in traj.samples)
    assert np.linalg.norm(traj.x_end) < 1e-6


def test_sliding_samples_stay_on_surface():
    sys2 = fixtures.example("example2")[0]
    opts = SimOptions(horizon=2.0, max_step=0.01)
    traj = simulate(sys2, np.array([0.5, 0.0]), opts)
    for s in traj.samples:
        if s.regime.kind == "sliding":
            assert abs(s.x[0] ** 2 - s.x[1] ** 2) <= 10 * EVENT_TOL * max(
                1.0, float(s.x @ s.x)
            )


def test_sliding_tangency_residual():
    # the sliding velocity must be tangent to the surface
    sys2 = fixtures.example("example2")[0]
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
    sys1, spec, basis = fixtures.example("example1")
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.005))
    assert _dv_dt_in_lie_interval(sys1, spec, basis, traj, POLICY) > 100


def test_dv_dt_lies_in_lie_interval_sliding_benchmark():
    sys2, spec, basis = fixtures.example("example2")
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=2.0, max_step=0.005))
    assert _dv_dt_in_lie_interval(sys2, spec, basis, traj, POLICY) > 100


def test_expression_region_sliding_in_one_dimension(onedim_two_mode_system):
    # constant fields pointing at each other across x = 0: the solution
    # reaches the surface and stays there (sliding weight one half)
    sysm = onedim_two_mode_system(1.0, -1.0)  # f=+1 on x<0, f=-1 on x>0
    traj = simulate(sysm, np.array([0.4]), SimOptions(horizon=1.0, max_step=0.01))
    assert traj.status == COMPLETED
    assert abs(traj.x_end[0]) <= 1e-8
    kinds = [s.regime.kind for s in traj.samples]
    assert "sliding" in kinds


# one-dimensional pair f1 on x < 0, f2 on x > 0: at x = 0 the weight on
# f1 is f2 / (f2 - f1), so (-1, -51) gives 1.02 and (51, 1) gives -0.02
@pytest.mark.parametrize(
    "f1, f2, widened",
    [(-1.0, -51.0, 1.0), (51.0, 1.0, 0.0), (-1.0, -6.0, None), (1.0, -1.0, 0.5)],
)
def test_widened_lambda_clips_weights_just_outside_the_unit_interval(
    onedim_two_mode_system, f1, f2, widened
):
    sysm = onedim_two_mode_system(f1, f2)
    sim = filippovsim._Sim(sysm, np.array([0.0]), SimOptions(horizon=1.0))
    assert sim._widened_lambda((1, 2)) == widened
    strict = sliding_lambda(sysm, np.array([0.0]), POLICY, pair=(1, 2))
    assert strict == (widened if widened == 0.5 else None)


def test_chattering_point_slides_on_the_widened_weight(onedim_two_mode_system):
    sim = filippovsim._Sim(
        onedim_two_mode_system(-1.0, -51.0), np.array([0.0]), SimOptions(horizon=1.0)
    )
    assert sim.regime_here() == filippovsim.Regime(kind="mode", mode=1)
    for _ in range(filippovsim.MAX_SWITCHES_PER_WINDOW + 1):
        sim.note_switch()
    assert sim.chattering()
    assert sim.regime_here() == filippovsim.Regime(
        kind="sliding", surface=1, pair=(1, 2), lam=1.0
    )


def test_stall_at_codimension_two_start():
    sys1 = fixtures.example("example1")[0]
    traj = simulate(sys1, np.zeros(2), SimOptions(horizon=1.0))
    assert traj.status == "stall"


def test_left_domain_status(linear_system):
    sysm = linear_system([np.eye(2) * 3.0])
    traj = simulate(sysm, np.array([1.0, 1.0]), SimOptions(horizon=20.0, max_step=0.1))
    assert traj.status == "left-domain"
    assert np.linalg.norm(traj.x_end) > 1e9


def test_csv_schema_planar():
    sys2, spec, basis = fixtures.example("example2")
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
    sys3, spec, basis = fixtures.example("example3")
    traj = simulate(sys3, np.array([1.0, 0.2, 0.3]), SimOptions(horizon=0.5, max_step=0.05))
    text = export_csv(traj, spec, basis)
    assert text.split("\n")[0] == "t,x1,x2,x3,regime,lambda,V"


def test_csv_single_sample_two_lines():
    from maxminlyap.filippovsim import Regime

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

    sys1, spec, basis = fixtures.example("example1")
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

    sys1 = fixtures.example("example1")[0]
    t0 = time.monotonic()
    simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.01))
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# event location against the former bisection


def ref_locate_event(self, f, dt, i, k, h_end):
    """Bisection on the substep length, re-integrating from the step start."""
    lo, hi = 0.0, dt
    tau = dt
    x_tau, _, _ = filippovsim._dp_step(f, self.x, dt)
    for _ in range(60):
        h = _hn(self.sys, i, x_tau)
        if abs(h) <= EVENT_TOL:
            break
        if h < 0.0:
            hi = tau
        else:
            lo = tau
        tau = 0.5 * (lo + hi)
        x_tau, _, _ = filippovsim._dp_step(f, self.x, tau)
    self.t += tau
    self.x = x_tau


def reference_simulate(monkeypatch, sysm, x0, opts):
    """The simulator with bisection event location and 7 fresh stages a step."""
    dp_step = filippovsim._dp_step
    with monkeypatch.context() as m:
        m.setattr(filippovsim._Sim, "_locate_event", ref_locate_event)
        m.setattr(filippovsim, "_dp_step", lambda f, x, dt, k1=None: dp_step(f, x, dt))
        return simulate(sysm, x0, opts)


def seeded_runs(name):
    sysm = fixtures.example(name)[0]
    rng = np.random.default_rng(11)
    for _ in range(6):
        yield sysm, rng.standard_normal(2) * rng.uniform(0.5, 2.0)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_event_location_matches_bisection(monkeypatch, name):
    opts = SimOptions(horizon=5.0)
    events = 0
    for sysm, x0 in seeded_runs(name):
        got = simulate(sysm, x0, opts)
        want = reference_simulate(monkeypatch, sysm, x0, opts)
        assert got.status == want.status == COMPLETED
        assert len(got.samples) == len(want.samples)
        assert [s.regime.label() for s in got.samples] == [
            s.regime.label() for s in want.samples
        ]
        assert len(got.crossings) == len(want.crossings)
        for a in got.crossings:
            assert abs(_hn(sysm, a.from_mode, a.x)) <= EVENT_TOL
        # event states: crossings, sliding entries and exits
        for j in range(1, len(got.samples)):
            if got.samples[j].regime.label() != got.samples[j - 1].regime.label():
                a, b = got.samples[j], want.samples[j]
                assert abs(a.t - b.t) <= 1e-8
                np.testing.assert_allclose(a.x, b.x, rtol=0, atol=1e-9)
                events += 1
    assert events > 6


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_mode_flow_before_first_event_is_unchanged(monkeypatch, name):
    # reusing the last stage (FSAL) is bit-exact: stage 7 is evaluated at
    # exactly the accepted state and a mode field is a pure function
    opts = SimOptions(horizon=5.0)
    for sysm, x0 in seeded_runs(name):
        got = simulate(sysm, x0, opts).samples
        want = reference_simulate(monkeypatch, sysm, x0, opts).samples
        first = next(j for j in range(1, len(want)) if want[j].regime != want[0].regime)
        assert first > 1
        for a, b in zip(got[:first], want[:first]):
            assert a.t == b.t
            assert a.x.tobytes() == b.x.tobytes()


def test_event_phase_steps(monkeypatch):
    # the bisection took 1713 Dormand-Prince steps inside event location
    # on this run; root-finding on the dense output needs a fifth of that
    sys1 = fixtures.example("example1")[0]
    counts = {"all": 0, "event": 0}
    inside = [False]
    dp_step = filippovsim._dp_step
    locate = filippovsim._Sim._locate_event

    def counted_step(*args, **kwargs):
        counts["all"] += 1
        counts["event"] += inside[0]
        return dp_step(*args, **kwargs)

    def flagged_locate(self, *args):
        inside[0] = True
        try:
            return locate(self, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(filippovsim, "_dp_step", counted_step)
    monkeypatch.setattr(filippovsim._Sim, "_locate_event", flagged_locate)
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=20.0))
    assert traj.status == COMPLETED
    assert len(traj.crossings) == 55
    assert counts["event"] <= 1713 // 5


def ref_export_v(traj, spec, basis):
    """The V column of export_csv, one point at a time."""
    return [f"{evaluate(spec, basis, s.x):.12g}" for s in traj.samples]


@pytest.mark.parametrize("polarity", [MAXMIN, MINMAX])
def test_csv_v_column_matches_point_loop(polarity):
    # bases 1 and 2 are equal, so they tie at every sample, and
    # diag(5, 1) ties with diag(1, 5) on both diagonals
    sys1 = fixtures.example("example1")[0]
    P, R = np.diag([5.0, 1.0]), np.diag([1.0, 5.0])
    basis = QuadraticBasis([P, P, R])
    spec = MaxMinSpec(K=3, families=((1, 3), (2,)), polarity=polarity)
    traj = simulate(sys1, fixtures.EXAMPLE1_Z0, SimOptions(horizon=3.0))
    regime = traj.samples[0].regime
    extra = [
        TrajSample(t=9.0, x=np.array(x), regime=regime)
        for x in ([1.0, 1.0], [-2.0, 2.0], [0.0, 0.0], [-0.0, -0.0])
    ]
    traj = Trajectory(samples=traj.samples + extra, status=COMPLETED)
    rows = export_csv(traj, spec, basis).splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ref_export_v(traj, spec, basis)

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from maxminlyap import filippovsim, fixtures
from maxminlyap.filippovsim import (
    COMPLETED,
    EVENT_TOL,
    STALL,
    Regime,
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
from maxminlyap.errors import InvalidInputError
from maxminlyap.inclusion import Mode, SwitchedSystem
from maxminlyap.maxmin import MAXMIN, MINMAX, MaxMinSpec, QuadraticBasis, evaluate
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import lie_derivative
from maxminlyap.sysdsl.config import parse_config
from expr_text import parse_expr_text

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
    assert filippovsim._sliding_weight(sys1, z0, (1, 2), POLICY)[0] is None


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
    lam = filippovsim._sliding_weight(sysm, np.array([0.0]), (1, 2), POLICY, widen=0.05)[0]
    assert lam == widened
    strict = filippovsim._sliding_weight(sysm, np.array([0.0]), (1, 2), POLICY)[0]
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


@pytest.mark.parametrize("scale", [1.0, 1.0 + 2.0**-52, 0.995])
def test_blow_up_is_decided_at_the_norm_bound(linear_system, scale):
    # |x| just above BLOWUP leaves the domain before any step; |x| at or
    # just below it (where the float |x|^2 calls _norm, or does not) runs
    sysm = linear_system([-np.eye(2)])
    x0 = np.array([0.6, 0.8]) * filippovsim.BLOWUP * scale
    traj = simulate(sysm, x0, SimOptions(horizon=0.01))
    leaves = np.linalg.norm(x0) > filippovsim.BLOWUP
    assert traj.status == ("left-domain" if leaves else COMPLETED)
    assert len(traj.samples) == (1 if leaves else 2)


def config_system(text):
    return SwitchedSystem.from_config(parse_config(text).require_system())


def test_step_underflow_stalls_at_the_start():
    # every step the stiff decay allows is below MIN_STEP
    sysm = config_system("[system]\ndim = 1\nmode 1 {\n  A = [[-1e20]]\n  region = all\n}\n")
    traj = simulate(sysm, np.array([1.0]), SimOptions(horizon=1.0))
    assert traj.status == STALL
    assert traj.t_end == 0.0
    assert [s.regime for s in traj.samples] == [Regime(kind="mode", mode=1)]


def test_no_entering_field_falls_back_to_the_first_candidate():
    # on x1 = 0 both normal components (-1) fall inside the tolerance the
    # 1e20 tangential part sets, and neither field enters its own region
    sysm = config_system(
        "[system]\ndim = 2\n"
        "mode 1 {\n  f = (1, -1e20*x2)\n  H = -x1\n}\n"
        "mode 2 {\n  f = (-1, -1e20*x2)\n  H = x1\n}\n"
    )
    traj = simulate(sysm, np.array([0.0, 1.0]), SimOptions(horizon=1.0))
    assert traj.samples[0].regime == Regime(kind="mode", mode=1)
    assert traj.status == STALL
    assert traj.t_end == 0.0


def test_nan_field_in_mode_flow_stalls_at_the_start():
    # 1e308 * 8 overflows, and inf - inf makes every stage NaN
    sysm = config_system(
        "[system]\ndim = 2\n"
        "mode 1 {\n  f = (x2, 1e308*x1*x1*x1 - 1e308*x1*x1*x1)\n  region = all\n}\n"
    )
    traj = simulate(sysm, np.array([2.0, 0.0]), SimOptions(horizon=0.1))
    assert traj.status == STALL
    assert traj.t_end == 0.0
    assert [s.x.tolist() for s in traj.samples] == [[2.0, 0.0]]


def test_nan_field_in_sliding_flow_stalls_at_the_last_finite_state():
    # both fields turn NaN once x2 ** 3 * 1e308 overflows, near x2 = 1.216,
    # while the solution slides on x1 = 0
    nan_term = "(1e308*x2*x2*x2 - 1e308*x2*x2*x2)"
    sysm = config_system(
        "[system]\ndim = 2\n"
        f"mode 1 {{\n  f = (1, 1 + {nan_term})\n  H = -x1\n}}\n"
        f"mode 2 {{\n  f = (-1, 1 + {nan_term})\n  H = x1\n}}\n"
    )
    traj = simulate(sysm, np.array([0.5, 0.0]), SimOptions(horizon=3.0))
    assert traj.status == STALL
    assert 1.2 < traj.t_end < 1.22
    assert all(np.all(np.isfinite(s.x)) for s in traj.samples)
    labels = [s.regime.label() for s in traj.samples]
    first = labels.index("Sliding(1)")
    assert set(labels[:first]) == {"Mode(2)"}
    assert set(labels[first:]) == {"Sliding(1)"}
    assert 1.2 < traj.x_end[1] < 1.22


def test_sliding_steps_evaluate_the_weight_once_per_stage(monkeypatch):
    # the weight the sliding flow checks at each projected state is the
    # next step's first stage: seven _sliding_weight calls per step
    # taken (six stages and that check), a rejected try included; every
    # sample counts at least one step, so a path around either function
    # fails
    count = {"weight": 0, "steps": 0}
    sliding_weight, dp_step = filippovsim._sliding_weight, filippovsim._dp_step

    def counted_weight(*args):
        count["weight"] += 1
        return sliding_weight(*args)

    def counted_step(*args):
        count["steps"] += 1
        return dp_step(*args)

    marks = []

    def record(self, regime):
        marks.append((regime.kind, count["weight"], count["steps"]))
        self.samples.append(TrajSample(t=self.t, x=self.x.copy(), regime=regime))

    monkeypatch.setattr(filippovsim, "_sliding_weight", counted_weight)
    monkeypatch.setattr(filippovsim, "_dp_step", counted_step)
    monkeypatch.setattr(filippovsim._Sim, "record", record)
    sys2 = fixtures.example("example2")[0]
    traj = simulate(sys2, np.array([0.5, 0.0]), SimOptions(horizon=1.0))
    assert len(marks) == len(traj.samples)
    pairs = [
        (b[1] - a[1], b[2] - a[2])
        for prev, a, b in zip(marks, marks[1:], marks[2:])
        if prev[0] == a[0] == b[0] == "sliding"
    ]
    assert len(pairs) > 20
    assert all(steps > 0 and calls == 7 * steps for calls, steps in pairs)


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), np.zeros((1, 2)), np.float64(1.0)])
def test_wrong_shaped_state_is_refused(x):
    sys1 = fixtures.example("example1")[0]
    with pytest.raises(InvalidInputError, match="dimension 2"):
        simulate(sys1, x, SimOptions(horizon=1.0))
    with pytest.raises(InvalidInputError, match="dimension 2"):
        sliding_lambda(sys1, x, POLICY)


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
# the Dormand-Prince step against its generator-sum form


def ref_dp_step(f, x, dt, k1=None):
    """One Dormand-Prince step with each stage summed by ``sum`` over a
    generator, term by term from 0."""
    k = [f(x) if k1 is None else k1]
    for stage in range(1, 7):
        y = x + dt * sum(a * k[j] for j, a in enumerate(filippovsim._DP_A[stage]))
        k.append(f(y))
    x5 = x + dt * sum(b * k[j] for j, b in enumerate(filippovsim._DP_B5))
    x4 = x + dt * sum(b * k[j] for j, b in enumerate(filippovsim._DP_B4))
    return x5, x5 - x4, k


def ref_error_norm(err, x, x_new):
    scale = filippovsim.ATOL + filippovsim.RTOL * np.maximum(np.abs(x), np.abs(x_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def error_norm_cases():
    rng = np.random.default_rng(3)
    for n in [*range(1, 13), 129, 300]:
        for _ in range(200 if n <= 12 else 20):
            x, x_new = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-6, 7, (2, n))
            yield rng.standard_normal(n) * 10.0 ** rng.integers(-14, 2, n), x, x_new
    tiny = np.array([5e-324, -2.2e-308, 0.0, -0.0])
    for err in (np.zeros(4), tiny, np.array([0.0, np.inf]), np.array([np.nan, 1e-12, 0.0])):
        for x in (np.zeros(4)[: len(err)], tiny[: len(err)]):
            yield err, x, -x
    yield np.ones(3), np.array([np.inf, 0.0, 1.0]), np.ones(3)
    # NaN, inf and subnormals in any slot, up to a dimension past one
    # block of eight partial sums
    special = np.array([np.nan, np.inf, -np.inf, 5e-324, -1e-310, 0.0, -0.0, 1e300, 1e-300])
    for n in range(1, 13):
        for _ in range(40):
            err, x, x_new = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-12, 3, (3, n))
            for v in (err, x, x_new):
                pick = rng.random(n) < 0.2
                v[pick] = rng.choice(special, pick.sum())
            yield err, x, x_new


def kernel_error_norm(err, x, x_new):
    return filippovsim._error_norm_kernel(len(err))(*err.tolist(), *x.tolist(), *x_new.tolist())


def same_float(got, want):
    return (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()


def test_error_norm_is_the_mean_form_bit_for_bit():
    with np.errstate(all="ignore"):
        for err, x, x_new in error_norm_cases():
            got, want = kernel_error_norm(err, x, x_new), ref_error_norm(err, x, x_new)
            assert type(got) is float
            assert same_float(got, want)


def float_field(f):
    """The float field of an array field f."""
    return lambda t: f(np.array(t, dtype=float)).tolist()


def assert_step_is_the_reference(f, x, dt, k1):
    """The kernel's step of the float field of f from the floats of x is
    the array step: the same state and stages, and the error norm of the
    array error estimate."""
    got = filippovsim._dp_step(float_field(f), x.tolist(), dt, None if k1 is None else k1.tolist())
    x5, err, k = ref_dp_step(f, x, dt, k1)
    assert type(got[0]) is tuple and len(got[2]) == 7
    assert np.array(got[0]).tobytes() == x5.tobytes()
    assert same_float(got[1], ref_error_norm(err, x, x5))
    assert np.array(got[2]).tobytes() == np.array(k).tobytes()


def non_finite_fields(rng, n):
    """Fields whose stages turn inf or NaN: constant, at once, after some
    stages (overflow, a threshold), at one stage only and in one
    component only."""
    A = rng.standard_normal((n, n))
    inf_entry = A.copy()
    inf_entry[rng.integers(n), rng.integers(n)] = np.inf

    def one_nan(y):
        v = A @ y
        v[-1] = np.nan
        return v

    return [
        lambda y: np.full(n, np.inf),
        lambda y: np.full(n, -np.inf),
        lambda y: np.full(n, np.nan),
        lambda y: inf_entry @ y,
        lambda y: 1e307 * (A @ y),
        lambda y: np.where(np.abs(y) > 1.05, np.inf, A @ y),
        lambda y: np.where(y > 1.02, np.nan, -y),
        # from x = 1: inf at the second stage alone, where 0 * k_2 is NaN
        lambda y: np.where(y == 0.9, np.inf, -np.nan_to_num(y)),
        one_nan,
    ]


def test_dp_step_is_the_generator_sum_bit_for_bit():
    # every stage state must add its terms in the generator's order, in
    # every dimension up to the documented 6, with and without k1; zero
    # coefficients are kept, so inf and NaN stages spread as in the sum
    rng = np.random.default_rng(20)
    for n in range(1, 7):
        for _ in range(400):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            dt = 10.0 ** rng.uniform(-6, 0)

            def f(y, A=A):
                return A @ y

            k1 = f(x) if rng.random() < 0.5 else None
            assert_step_is_the_reference(f, x, dt, k1)
        with np.errstate(all="ignore"):
            for f in non_finite_fields(rng, n):
                for x in (np.ones(n), rng.standard_normal(n)):
                    for k1 in (None, f(x)):
                        assert_step_is_the_reference(f, x, 0.5, k1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dp_step_turns_negative_zero_stages_into_positive_zero(n):
    # sum() starts at +0, so -0.0 terms sum to +0.0; zero rows and
    # negative-zero states keep that, whatever the field
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    A[0] = 0.0
    fields = [lambda y: 1.0 * y, lambda y: A @ y, lambda y: np.full(n, -0.0)]
    for f in fields:
        for x in (np.full(n, -0.0), np.zeros(n), rng.standard_normal(n)):
            assert_step_is_the_reference(f, x, 0.1, None)
    # y' = y from -0.0: a sum from the first term would make stage 2 run
    # at -0.0 + 0.02 * -0.0 = -0.0
    _, _, k = filippovsim._dp_step(float_field(fields[0]), [-0.0] * n, 0.1)
    k = np.array(k)
    assert np.signbit(k[0]).all() and not np.signbit(k[1:]).any()


# ---------------------------------------------------------------------------
# float fields and the float path against the array path


def linear_modes(draw, n):
    entries = st.floats(-1e3, 1e3, allow_subnormal=True) | st.sampled_from([0.0, -0.0, 1e-300])
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    order = draw(st.sampled_from("CF"))
    return Mode(index=1, A=np.asarray(A, order=order))


def expression_modes(draw, n):
    """Polynomial and transcendental expressions of degree up to three."""
    coeff = st.floats(-100.0, 100.0).map(lambda c: f"({c!r})")
    var = st.integers(1, n).map(lambda i: f"x{i}")
    factor = var | st.sampled_from(["atan(x1)", "sin(x1)", "cos(x1*x1)"])
    term = st.tuples(coeff, st.lists(factor, max_size=3)).map(lambda t: "*".join([t[0], *t[1]]))
    rows = [" + ".join(draw(st.lists(term, min_size=1, max_size=4))) for _ in range(n)]
    return Mode(index=1, f=tuple(parse_expr_text(r) for r in rows))


@st.composite
def modes_and_points(draw):
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from([linear_modes, expression_modes]))(draw, n)
    coords = st.floats(-1e3, 1e3, allow_subnormal=True) | st.sampled_from([0.0, -0.0])
    x = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    return mode, x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(modes_and_points())
# a 1 x 1 A.dot keeps the sign of a -0.0 product, A @ x does not
@example((Mode(index=1, A=np.array([[1.5]])), np.array([-0.0])))
def test_float_field_is_the_array_field_bit_for_bit(case):
    mode, x = case
    want = mode.field(x)
    for point in (tuple(x.tolist()), x.tolist(), x):
        got = mode.float_field(point)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()


def array_sliding_weight(sys, x, pair, policy, widen=0.0):
    """The sliding weight of the array path: ``Mode.field`` arrays and
    one 1-D dot product per normal component and norm."""
    a_mode, b_mode = pair
    grad = sys.modes[_surface_mode(sys, pair) - 1].region_gradient(x)
    fa, fb = sys.field(a_mode, x), sys.field(b_mode, x)
    na, nb = float(grad @ fa), float(grad @ fb)
    scale = math.sqrt(grad.dot(grad)) * max(math.sqrt(fa.dot(fa)), math.sqrt(fb.dot(fb)), 1.0)
    tol = policy.abs_tol * max(scale, 1.0)
    lam = None
    if na != nb:
        w = nb / (nb - na)
        if 0.0 <= w <= 1.0 and not (abs(na) <= tol and abs(nb) <= tol):
            lam = w
        elif widen and -widen <= w <= 1.0 + widen:
            lam = min(1.0, max(0.0, w))
    return lam, fa, fb


def array_dp_step(f, x, dt, k1=None):
    """``_dp_step`` on arrays: ``ref_dp_step`` and ``ref_error_norm``."""
    x = np.array(x, dtype=float)
    F = lambda y: np.asarray(f(y), dtype=float)  # noqa: E731
    x5, err, k = ref_dp_step(F, x, dt, None if k1 is None else np.asarray(k1, dtype=float))
    return x5.tolist(), ref_error_norm(err, x, x5), k


def array_simulate(monkeypatch, sysm, x0, opts):
    """The simulator with every step, field and sliding weight on arrays."""
    calls = {"steps": 0, "weights": 0}

    def step(*args):
        calls["steps"] += 1
        return array_dp_step(*args)

    def weight(*args):
        calls["weights"] += 1
        return array_sliding_weight(*args)

    with monkeypatch.context() as m:
        m.setattr(filippovsim, "_dp_step", step)
        m.setattr(filippovsim, "_sliding_weight", weight)
        m.setattr(Mode, "float_field", property(lambda mode: mode.field))
        traj = simulate(sysm, x0, opts)
    return traj, calls


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_float_path_is_the_array_path_bit_for_bit(monkeypatch, name):
    opts = SimOptions(horizon=5.0)
    kinds = set()
    for sysm, x0 in seeded_runs(name):
        got = simulate(sysm, x0, opts)
        want, calls = array_simulate(monkeypatch, sysm, x0, opts)
        assert calls["steps"] > 0
        assert got.status == want.status
        assert len(got.samples) == len(want.samples)
        for a, b in zip(got.samples, want.samples):
            assert (a.t, a.x.tobytes(), a.regime) == (b.t, b.x.tobytes(), b.regime)
        run_kinds = {s.regime.kind for s in got.samples}
        # every sliding weight goes through the patched rule
        assert calls["weights"] > 0 or "sliding" not in run_kinds
        kinds |= run_kinds | ({"crossing"} if got.crossings else set())
    assert kinds >= {"mode", "crossing"}
    if name == "example2":
        assert "sliding" in kinds


# ---------------------------------------------------------------------------
# event location against the former bisection


def ref_locate_event(self, f, dt, i, k, h_end):
    """Bisection on the substep length, re-integrating from the step start."""
    lo, hi = 0.0, dt
    tau = dt
    start = self.x.tolist()
    x_tau = np.array(filippovsim._dp_step(f, start, dt)[0])
    for _ in range(60):
        h = _hn(self.sys, i, x_tau)
        if abs(h) <= EVENT_TOL:
            break
        if h < 0.0:
            hi = tau
        else:
            lo = tau
        tau = 0.5 * (lo + hi)
        x_tau = np.array(filippovsim._dp_step(f, start, tau)[0])
    self.t += tau
    self.x = x_tau


def reference_simulate(monkeypatch, sysm, x0, opts):
    """The simulator with bisection event location and 7 fresh stages a step."""
    dp_step = filippovsim._dp_step
    calls = [0]

    def fresh_step(f, x, dt, k1=None):
        calls[0] += 1
        return dp_step(f, x, dt)

    with monkeypatch.context() as m:
        m.setattr(filippovsim._Sim, "_locate_event", ref_locate_event)
        m.setattr(filippovsim, "_dp_step", fresh_step)
        traj = simulate(sysm, x0, opts)
    assert calls[0] > 0
    return traj


def seeded_runs(name):
    sysm = fixtures.example(name)[0]
    rng = np.random.default_rng(11)
    for _ in range(6):
        yield sysm, rng.standard_normal(sysm.dim) * rng.uniform(0.5, 2.0)


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
    # every step counted, each event too: a path around _dp_step fails
    assert counts["all"] >= len(traj.samples) - 1
    assert 55 <= counts["event"] <= 1713 // 5


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


# ---------------------------------------------------------------------------
# every bit of the trajectories


# the runs of tests/golden/simulate_*.csv (`simulate --csv` in test_cli.py)
GOLDEN_RUNS = [
    ("example1", [-1.0, 1.0], SimOptions(horizon=1.3, max_step=0.01)),
    ("example2", [0.5, 0.0], SimOptions(horizon=1.0)),
    ("example3", [1.0, 0.5, -0.3], SimOptions(horizon=10.0)),
]


def trajectory_digest():
    """sha256 over the seeded runs of examples 1-3 (horizon 5) and the
    golden runs: each run's status, every sample's t.hex(), x bytes and
    regime (lam as hex), every crossing, and the export_csv text."""
    runs = []
    for name in ("example1", "example2", "example3"):
        _, spec, basis = fixtures.example(name)
        runs += [(sysm, spec, basis, x0, SimOptions(horizon=5.0)) for sysm, x0 in seeded_runs(name)]
    for name, x0, opts in GOLDEN_RUNS:
        sysm, spec, basis = fixtures.example(name)
        runs.append((sysm, spec, basis, np.array(x0), opts))
    h = hashlib.sha256()
    for sysm, spec, basis, x0, opts in runs:
        traj = simulate(sysm, x0, opts)
        h.update(traj.status.encode())
        for s in traj.samples:
            r = s.regime
            lam = None if r.lam is None else r.lam.hex()
            h.update(s.t.hex().encode())
            h.update(s.x.tobytes())
            h.update(repr((r.kind, r.mode, r.surface, r.pair, lam)).encode())
        for c in traj.crossings:
            h.update(repr((c.t.hex(), c.from_mode, c.to_mode)).encode())
            h.update(c.x.tobytes())
        h.update(export_csv(traj, spec, basis).encode())
    return h.hexdigest()


def test_samples_keep_their_own_initial_state():
    # the simulator copies the caller's x0 once; a later write to it
    # reaches no sample
    x0 = np.array([-1.0, 1.0])
    traj = simulate(fixtures.example("example1")[0], x0, SimOptions(horizon=0.1))
    x0[:] = 7.0
    assert traj.samples[0].x.tolist() == [-1.0, 1.0]


def test_trajectories_keep_every_bit():
    # the goldens print 12 significant digits; this pins every bit of 21
    # trajectories, their crossings, statuses and CSV texts
    assert trajectory_digest() == "3723f02ceca7131334a8e108c166f6f677402897db1cc2648a364bdbf9182f5e"


# ---------------------------------------------------------------------------
# tests decided on the step's own floats


def same_decisions(got, want):
    """The comparisons the mode flow makes: below -EVENT_TOL, above EVENT_TOL."""
    return (got < -EVENT_TOL, got > EVENT_TOL) == (want < -EVENT_TOL, want > EVENT_TOL)


def cone_system(Q):
    n = len(Q)
    return SwitchedSystem(dim=n, modes=[Mode(index=1, A=-np.eye(n), Q=np.array(Q))])


def region_cases(Q, x, nudges):
    """(Q, x) itself, and the cones Q + c I whose region function at x is
    +-EVENT_TOL in exact arithmetic, at x moved by a few ulps per entry."""
    yield Q, x
    s = float(x @ x)
    h = float(x @ Q @ x) / s if s > 0.0 else math.nan
    for target in (EVENT_TOL, -EVENT_TOL) if math.isfinite(h) else ():
        Qc = Q + (target - h) * np.eye(len(x))
        if np.all(np.isfinite(Qc)):
            yield Qc, x
            yield Qc, x + nudges * np.spacing(x)


def assert_region_test_is_hn(Q, x):
    sysm = cone_system(Q)
    got = filippovsim._region_test(sysm, 1)(tuple(x.tolist()))
    want = _hn(sysm, 1, x)
    assert same_decisions(got, want)
    if not same_float(got, want):  # decided on floats: finite, near _hn
        scale = 1.0 + float(np.abs(Q).sum())
        assert math.isfinite(want) and abs(got - want) <= 1e-14 * scale


magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
signs = st.sampled_from([1.0, -1.0])


@st.composite
def cones_and_states(draw):
    """Cones of n = 2..6 with entries of 1e-300..1e300 (independent, or
    one scale times O(1) entries), states with |x| of 1e-200..1e200,
    and cones built in code with inf or NaN entries."""
    n = draw(st.integers(2, 6))
    unit = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0])
    if draw(st.booleans()):
        Q = np.array(draw(st.lists(st.tuples(signs, magnitudes), min_size=n * n, max_size=n * n)))
        Q = (Q[:, 0] * Q[:, 1]).reshape(n, n)
    else:
        Q = draw(magnitudes) * np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n)))
        Q = Q.reshape(n, n)
    if draw(st.booleans()):
        Q = 0.5 * (Q + Q.T)
    if draw(st.integers(0, 9)) == 0:
        Q[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan])
        )
    x = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    top = float(np.abs(x).max())
    x *= 10.0 ** draw(st.floats(-200.0, 200.0)) / (top if top > 0.0 else 1.0)
    nudges = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=float)
    return Q, x, nudges


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cones_and_states())
def test_region_test_decides_as_hn(case):
    Q, x, nudges = case
    with np.errstate(all="ignore"):
        for Qc, xc in region_cases(Q, x, nudges):
            assert_region_test_is_hn(Qc, xc)


@pytest.mark.parametrize(
    "Q, x",
    [
        # x @ Q overflows to inf and meets x_1 = 0: _hn is NaN, while the
        # float rows give 1e296 (sum |Q| above 1e50)
        ([[0.0, 0.0], [1e306, 1e296]], [0.0, 1e3]),
        # |x|^2 subnormal or zero: _hn divides by 1e-300 instead
        ([[1.0, 0.0], [0.0, 1.0]], [1e-160, 1e-160]),
        ([[1.0, 0.0], [0.0, 1.0]], [1e-200, 0.0]),
        ([[2.0, 1.0], [1.0, -3.0]], [1e130, -1e130]),
        ([[math.inf, 0.0], [0.0, -1.0]], [1.0, 2.0]),
        ([[math.nan, 0.0], [0.0, 1.0]], [0.0, 1.0]),
    ],
)
def test_region_test_decides_as_hn_out_of_the_float_range(Q, x):
    with np.errstate(all="ignore"):
        assert_region_test_is_hn(np.array(Q), np.array(x))


def test_region_test_reads_hn_within_its_margin_alone(monkeypatch):
    # random planar and 3-D cones and states, most of them placed within
    # a few ulps of h = +-EVENT_TOL: every decision is _hn's, and the test
    # calls _hn near the thresholds and nowhere else
    rng = np.random.default_rng(43)
    calls = [0]
    hn = filippovsim._hn

    def counted(*args):
        calls[0] += 1
        return hn(*args)

    monkeypatch.setattr(filippovsim, "_hn", counted)
    read = {True: 0, False: 0}
    for _ in range(2000):
        n = int(rng.integers(2, 4))
        Q = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        for Qc, xc in region_cases(Q, x, rng.integers(-4, 5, n)):
            calls[0] = 0
            assert_region_test_is_hn(Qc, xc)
            off = abs(abs(float(xc @ Qc @ xc) / float(xc @ xc)) - EVENT_TOL)
            scale = 1.0 + float(np.abs(Qc).sum())
            if off > 1e-11 * scale or off < 1e-13 * scale:
                assert calls[0] == (off < 1e-13 * scale)
                read[off < 1e-13 * scale] += 1
    assert read[True] > 5000 and read[False] > 1000


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_every_located_event_reads_the_exact_region_value(monkeypatch, name):
    # the mode flow decides its signs on floats, but event location gets
    # _hn's value at the end of the step that crossed
    seen = []
    hn, locate = filippovsim._hn, filippovsim._Sim._locate_event

    def recorded(sysm, i, x):
        h = hn(sysm, i, x)
        seen.append((i, x.tobytes(), h.hex()))
        return h

    events = []

    def checked(self, f, dt, i, k, h_end):
        x_end = np.array(filippovsim._dp_step(f, self.x.tolist(), dt, k[0])[0])
        events.append(seen[-1] == (i, x_end.tobytes(), h_end.hex()))
        return locate(self, f, dt, i, k, h_end)

    monkeypatch.setattr(filippovsim, "_hn", recorded)
    monkeypatch.setattr(filippovsim._Sim, "_locate_event", checked)
    for sysm, x0 in seeded_runs(name):
        simulate(sysm, x0, SimOptions(horizon=5.0))
    assert len(events) > 6 and all(events)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e-200, 1e154, 1e200, -1e300, 1.5, -2.0]


@st.composite
def sliding_cases(draw):
    """Two linear cone modes and a state whose fields and gradient hold
    +-0, subnormal and overflowing values."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from(SPECIAL) | st.floats(-10.0, 10.0)

    def matrix():
        return np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)

    modes = [Mode(index=1, A=matrix(), Q=matrix()), Mode(index=2, A=matrix(), Q=matrix())]
    x = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    return SwitchedSystem(dim=n, modes=modes), x, draw(st.sampled_from([0.0, 0.05]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sliding_cases())
def test_gram_table_weight_is_the_dot_product_weight_bit_for_bit(case):
    sysm, x, widen = case
    with np.errstate(all="ignore"):
        for pair in ((1, 2), (2, 1)):
            got = filippovsim._sliding_weight(sysm, x, pair, POLICY, widen)
            want = array_sliding_weight(sysm, x, pair, POLICY, widen)
            assert (got[0] is None) == (want[0] is None)
            assert got[0] is None or same_float(got[0], want[0])
            for a, b in zip(got[1:], want[1:]):
                assert np.array(a).tobytes() == b.tobytes()

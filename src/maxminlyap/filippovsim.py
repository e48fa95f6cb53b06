"""Event-driven integration of Filippov solutions.

Inside a region the active mode is integrated with an adaptive
Dormand-Prince 5(4) scheme whose accepted steps hand their last stage
on as the first stage of the next (first same as last).  A sign change
of the active region function is located on the step just taken:
Illinois root-finding on the step's 4th-order continuous extension
(Shampine 1986), then one real step of the located length, refined by
a bracketed secant on real steps while the region function there
exceeds the event tolerance.  At the surface the two adjacent normal
field components decide between a transversal switch and first-order
sliding, in which case the tangent convex combination of the two
fields is integrated with re-projection onto the surface after every
accepted step (seven fresh stages per step: the combination weight is
updated as the stages run).  Both flows share one adaptive step
control, which rejects any step whose error norm is not at most one.
Codimension-2 intersections, step underflow and non-finite field values
terminate with a stall status (at the last finite state) rather than
an error.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .numkernel import as_points
from .policy import DEFAULT_POLICY, NumericPolicy

COMPLETED = "completed"
LEFT_DOMAIN = "left-domain"
STALL = "stall"

EVENT_TOL = 1e-11  # |normalized region function| accepted as on the surface
RTOL = 1e-9  # Dormand-Prince local error tolerances
ATOL = 1e-12
MIN_STEP = 1e-13  # a step below this is an underflow stall
BLOWUP = 1e9  # |x| beyond this leaves the domain
MAX_SWITCHES_PER_WINDOW = 50  # more crossings within one max_step is chattering


@dataclass(frozen=True)
class SimOptions:
    horizon: float
    max_step: float = 0.02
    policy: NumericPolicy = DEFAULT_POLICY

    def __post_init__(self):
        for name in ("horizon", "max_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidInputError(
                    f"{name} must be finite and positive, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class Regime:
    kind: str  # "mode" | "sliding"
    mode: Optional[int] = None  # active mode index
    surface: Optional[int] = None  # sliding surface id (registry order)
    pair: Optional[tuple] = None  # sliding mode pair, weight on pair[0]
    lam: Optional[float] = None

    def label(self):
        if self.kind == "mode":
            return f"Mode({self.mode})"
        return f"Sliding({self.surface})"


@dataclass(frozen=True)
class TrajSample:
    t: float
    x: np.ndarray
    regime: Regime


@dataclass(frozen=True)
class Crossing:
    t: float
    x: np.ndarray
    from_mode: int
    to_mode: int


@dataclass
class Trajectory:
    samples: list
    status: str
    crossings: list = field(default_factory=list)

    @property
    def t_end(self):
        return self.samples[-1].t

    @property
    def x_end(self):
        return self.samples[-1].x


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


# Continuous extension (Shampine 1986): the state at x + theta * dt is
# x + dt * sum_j k_j * sum_m _DP_P[j][m] * theta**(m + 1).
_DP_P = (
    (
        1,
        -8048581381 / 2820520608,
        8663915743 / 2820520608,
        -12715105075 / 11282082432,
    ),
    (0, 0, 0, 0),
    (
        0,
        131558114200 / 32700410799,
        -68118460800 / 10900136933,
        87487479700 / 32700410799,
    ),
    (
        0,
        -1754552775 / 470086768,
        14199869525 / 1410260304,
        -10690763975 / 1880347072,
    ),
    (
        0,
        127303824393 / 49829197408,
        -318862633887 / 49829197408,
        701980252875 / 199316789632,
    ),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


# Stage sums read rows of one stack whose row 0 is +0.0, the start value
# of ``sum``: each column of weights below is (1.0, its coefficients), and
# the running sum along axis 0 adds the weighted rows in order, so its
# last row is sum(a * k[j] for ...) bit for bit.  (``np.add.reduce`` may
# add a single column pairwise.)
_DP_WEIGHTS = tuple(
    np.array((1.0,) + row)[:, None] for row in _DP_A[1:] + (_DP_B5, _DP_B4)
)


def _stage_sum(w, K):
    return np.add.accumulate(w * K[: len(w)], axis=0)[-1]


def _dp_step(f, x, dt, k1=None):
    """One Dormand-Prince step; returns (5th-order state, error estimate, stages).

    ``k1`` is f(x) when the caller already has it.  The last stage is
    evaluated at the returned state, so for a field that depends on the
    state alone it is the ``k1`` of the next step.  The stages are rows
    1..7 of one (8, n) array whose row 0 is zero.
    """
    K = np.empty((8, len(x)))
    K[0] = 0.0
    K[1] = f(x) if k1 is None else k1
    for stage in range(1, 7):
        K[stage + 1] = f(x + dt * _stage_sum(_DP_WEIGHTS[stage - 1], K))
    x5 = x + dt * _stage_sum(_DP_WEIGHTS[6], K)
    x4 = x + dt * _stage_sum(_DP_WEIGHTS[7], K)
    return x5, x5 - x4, K[1:]


def _dense_output(x, dt, k):
    """State along a step as a function of its fraction theta in [0, 1]."""
    Q = dt * (np.array(k).T @ np.array(_DP_P))

    def at(theta):
        return x + Q @ np.array([theta, theta**2, theta**3, theta**4])

    return at


def _illinois(g, ga, gb, tol):
    """Root of g on [0, 1] by the Illinois variant of false position.

    ``ga`` and ``gb`` are g(0) and g(1); returns the first point where
    |g| <= tol, or the last iterate once the bracket stops shrinking.
    """
    a, b = 0.0, 1.0
    c, side = 1.0, 0
    for _ in range(60):
        c = 0.5 * (a + b) if ga == gb else (a * gb - b * ga) / (gb - ga)
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:
                break
        gc = g(c)
        if abs(gc) <= tol:
            break
        if (gc < 0.0) == (gb < 0.0):
            b, gb = c, gc
            if side == -1:
                ga *= 0.5
            side = -1
        else:
            a, ga = c, gc
            if side == 1:
                gb *= 0.5
            side = 1
    return c


def _error_norm(err, x, x_new):
    """RMS of the scaled error, bit for bit ``np.sqrt(np.mean(q))``:
    ``np.add.reduce`` adds in the order ``np.mean`` does."""
    scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
    q = (err / scale) ** 2
    return math.sqrt(float(np.add.reduce(q)) / len(q))


# ---------------------------------------------------------------------------
# surface helpers


def _norm(v):
    """Euclidean norm of a real vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v.dot(v))


def _hn(sys, i, x):
    """Region function of mode i, normalized to be scale-free."""
    mode = sys.modes[i - 1]
    v = mode.region_value(x)
    if mode.Q is not None:
        return v / max(float(x @ x), 1e-300)
    return v / (1.0 + _norm(x))


def _project_to_surface(sys, i, x, tol):
    """At most 5 Newton steps along the region gradient onto {H_i = 0}."""
    y = np.array(x, dtype=float)
    for _ in range(5):
        if abs(_hn(sys, i, y)) <= 0.1 * tol:
            break
        h = sys.modes[i - 1].region_value(y)
        g = sys.modes[i - 1].region_gradient(y)
        gg = float(g @ g)
        if gg <= 0.0:
            break
        y = y - (h / gg) * g
    return y


def _surface_mode(sys, pair):
    """Mode of the pair whose region function defines the shared surface."""
    return pair[0] if sys.modes[pair[0] - 1].region_kind != "all" else pair[1]


def _normal_components(sys, x, pair, policy):
    """Normal components of the pair's fields, their tolerance, and the
    two fields (f_a, f_b) they were read from."""
    a_mode, b_mode = pair
    grad = sys.modes[_surface_mode(sys, pair) - 1].region_gradient(x)
    fa = sys.field(a_mode, x)
    fb = sys.field(b_mode, x)
    na = float(grad @ fa)
    nb = float(grad @ fb)
    scale = _norm(grad) * max(_norm(fa), _norm(fb), 1.0)
    return na, nb, policy.abs_tol * max(scale, 1.0), fa, fb


def _sliding_weight(sys, x, pair, policy, widen=0.0):
    """``sliding_lambda``'s weight (or None) at x, with the two fields
    (f_a, f_b) it evaluated there.  A positive ``widen`` also accepts a
    weight that far outside [0, 1], or at a tangency, clipped into it."""
    na, nb, tol, fa, fb = _normal_components(sys, x, pair, policy)
    lam = None
    if na != nb:
        w = nb / (nb - na)
        if 0.0 <= w <= 1.0 and not (abs(na) <= tol and abs(nb) <= tol):
            lam = w  # a tangency lets either mode proceed
        elif widen and -widen <= w <= 1.0 + widen:
            lam = min(1.0, max(0.0, w))
    return lam, fa, fb


def sliding_lambda(sys, x, policy=DEFAULT_POLICY, pair=None):
    """Weight of the first adjacent field in the tangent combination.

    Solves grad H . (lam * f_a + (1 - lam) * f_b) = 0 on the surface
    shared by the two adjacent modes.  Returns lam when it falls in
    [0, 1] (sliding); None for a transversal crossing or a tangency
    (both normal components vanish).
    """
    x = as_points(x, sys.dim, "sliding_lambda state")
    if pair is None:
        idx = sys.index_set(x, policy)
        if len(idx) != 2:
            raise InvalidInputError(
                f"sliding_lambda needs exactly two adjacent modes, found {idx}"
            )
        pair = idx
    return _sliding_weight(sys, x, pair, policy)[0]


# ---------------------------------------------------------------------------
# the integrator


class _Sim:
    def __init__(self, sys, x0, opts):
        self.sys = sys
        self.opts = opts
        self.x = as_points(x0, sys.dim, "initial state")
        if not np.all(np.isfinite(self.x)):
            raise InvalidInputError("initial state has non-finite entries")
        self.t = 0.0
        self.samples = []
        self.crossings = []
        self.surfaces = {}
        self.status = COMPLETED
        self.window_start = 0.0
        self.switches_in_window = 0
        # membership queries at event points tolerate the event band
        self.event_policy = replace(
            opts.policy, abs_tol=max(opts.policy.abs_tol, 10.0 * EVENT_TOL)
        )

    def surface_id(self, pair):
        key = tuple(sorted(pair))
        if key not in self.surfaces:
            self.surfaces[key] = len(self.surfaces) + 1
        return self.surfaces[key]

    def record(self, regime):
        self.samples.append(TrajSample(t=self.t, x=self.x.copy(), regime=regime))

    def note_switch(self):
        if self.t - self.window_start > self.opts.max_step:
            self.window_start = self.t
            self.switches_in_window = 0
        self.switches_in_window += 1

    def chattering(self):
        return self.switches_in_window > MAX_SWITCHES_PER_WINDOW

    def entering_mode(self, candidates):
        """Candidate whose own field increases its own region function,
        or the first candidate when no field enters."""
        best, best_rate = candidates[0], 0.0
        for i in candidates:
            mode = self.sys.modes[i - 1]
            if mode.region_kind == "all":
                return i
            rate = float(mode.region_gradient(self.x) @ mode.field(self.x))
            if rate > best_rate:
                best, best_rate = i, rate
        return best

    def regime_here(self, leaving=None):
        """Regime at the current (possibly boundary) point; None = stall."""
        idx = self.sys.index_set(self.x, self.event_policy)
        if len(idx) == 1:
            return Regime(kind="mode", mode=idx[0])
        if len(idx) > 2:
            return None  # codimension >= 2 (e.g. the origin)
        if leaving is None or leaving not in idx:
            pair = idx
        else:
            pair = (leaving, *[j for j in idx if j != leaving])
        widen = 0.05 if self.chattering() else 0.0
        lam = _sliding_weight(self.sys, self.x, pair, self.opts.policy, widen)[0]
        if lam is not None:
            return Regime(
                kind="sliding", surface=self.surface_id(pair), pair=pair, lam=lam
            )
        others = [j for j in pair if j != leaving]
        return Regime(kind="mode", mode=self.entering_mode(others or pair))

    # -- step control shared by both flows

    def accepted_steps(self, f, fsal):
        """Accepted adaptive steps of x' = f(x) from the current state, as
        (x_new, dt, stages) for the caller to commit or abandon; ``fsal``
        reuses a committed step's last stage.  An error norm that is not
        <= 1 (NaN too) rejects; ends at the horizon, on blow-up
        (LEFT_DOMAIN) or on a step below MIN_STEP (STALL)."""
        opts = self.opts
        dt = opts.max_step
        k1 = None  # f(self.x) once known
        while self.t < opts.horizon * (1.0 - 1e-15):
            if _norm(self.x) > BLOWUP:
                self.status = LEFT_DOMAIN
                return
            dt = min(dt, opts.max_step, opts.horizon - self.t)
            x_new, err, k = _dp_step(f, self.x, dt, k1)
            k1 = k[0] if fsal else None
            enorm = _error_norm(err, self.x, x_new)
            if not enorm <= 1.0:
                dt *= max(0.2, 0.9 * enorm**-0.2)
                if dt < MIN_STEP:
                    self.status = STALL
                    return
                continue
            yield x_new, dt, k
            k1 = k[6] if fsal else None
            dt *= min(5.0, 0.9 * enorm**-0.2) if enorm > 0.0 else 5.0

    # -- mode flow with event location

    def run_mode(self, regime):
        i = regime.mode
        mode = self.sys.modes[i - 1]
        f = mode.field
        has_boundary = mode.region_kind != "all"
        armed = has_boundary and _hn(self.sys, i, self.x) > EVENT_TOL
        for x_new, dt, k in self.accepted_steps(f, fsal=True):
            if has_boundary:
                h_new = _hn(self.sys, i, x_new)
                if armed and h_new < -EVENT_TOL:
                    self._locate_event(f, dt, i, k, h_new)
                    self.note_switch()
                    nxt = self.regime_here(leaving=i)
                    if nxt is None:
                        self.status = STALL
                        return None
                    if nxt.kind == "mode":
                        self.crossings.append(
                            Crossing(
                                t=self.t, x=self.x.copy(), from_mode=i, to_mode=nxt.mode
                            )
                        )
                    self.record(nxt)
                    return nxt
                if h_new > EVENT_TOL:
                    armed = True
            self.t += dt
            self.x = x_new
            self.record(regime)
        return None

    def _locate_event(self, f, dt, i, k, h_end):
        """Move to the crossing of {H_i = 0} inside the step just taken.

        ``k`` are the stages of that step (length dt from self.x) and
        ``h_end`` the region function at its end.  Illinois on the step's
        continuous extension gives the crossing fraction; one real step of
        that length lands on it.  While the landed |H_i| exceeds the event
        tolerance, a secant through the last two real steps refines the
        length, with bisection whenever it leaves the bracket.
        """
        x0 = self.x
        h0 = _hn(self.sys, i, x0)
        at = _dense_output(x0, dt, k)
        theta = _illinois(lambda th: _hn(self.sys, i, at(th)), h0, h_end, 0.01 * EVENT_TOL)
        lo, h_lo, hi, h_hi = 0.0, h0, dt, h_end
        tau, prev = theta * dt, None
        for _ in range(60):
            x_tau, _, _ = _dp_step(f, x0, tau, k[0])
            landed = tau
            h = _hn(self.sys, i, x_tau)
            if abs(h) <= EVENT_TOL:
                break
            if h < 0.0:
                hi, h_hi = tau, h
                other = prev or (lo, h_lo)
            else:
                lo, h_lo = tau, h
                other = prev or (hi, h_hi)
            prev = (tau, h)
            if h != other[1]:
                tau = tau - h * (tau - other[0]) / (h - other[1])
            if not lo < tau < hi:
                tau = 0.5 * (lo + hi)
        self.t += landed
        self.x = x_tau

    # -- sliding flow

    def run_sliding(self, regime):
        pair = regime.pair
        surf = _surface_mode(self.sys, pair)
        opts = self.opts
        state = {"lam": regime.lam if regime.lam is not None else 0.5}

        def g(y):
            lam, fa, fb = _sliding_weight(self.sys, y, pair, opts.policy)
            if lam is not None:
                state["lam"] = lam
            lam = state["lam"]
            return lam * fa + (1.0 - lam) * fb

        for x_new, dt, _ in self.accepted_steps(g, fsal=False):
            self.t += dt
            self.x = _project_to_surface(self.sys, surf, x_new, EVENT_TOL)
            lam = sliding_lambda(self.sys, self.x, opts.policy, pair=pair)
            if lam is None:
                self.note_switch()
                nxt = Regime(kind="mode", mode=self.entering_mode(pair))
                self.record(nxt)
                return nxt
            regime = Regime(kind="sliding", surface=regime.surface, pair=pair, lam=lam)
            self.record(regime)
        return None


def simulate(sys, x0, opts):
    """Integrate a Filippov solution from x0 over the option horizon."""
    sim = _Sim(sys, x0, opts)
    regime = sim.regime_here()
    if regime is None:
        sim.status = STALL
        idx = sim.sys.index_set(sim.x, sim.event_policy)
        sim.record(Regime(kind="mode", mode=idx[0]))
    else:
        sim.record(regime)
    while regime is not None:
        if regime.kind == "mode":
            regime = sim.run_mode(regime)
        else:
            regime = sim.run_sliding(regime)
    return Trajectory(samples=sim.samples, status=sim.status, crossings=sim.crossings)


# ---------------------------------------------------------------------------
# export


def export_csv(traj, spec=None, basis=None):
    """CSV rendering: t, coordinates, regime, sliding weight, optional V."""
    if not traj.samples:
        raise InvalidInputError("export_csv: empty trajectory")
    n = len(traj.samples[0].x)
    cols = ["t"] + [f"x{i}" for i in range(1, n + 1)] + ["regime", "lambda"]
    with_v = spec is not None and basis is not None
    if with_v:
        cols.append("V")
        from .maxmin import evaluate

        V = evaluate(spec, basis, np.array([s.x for s in traj.samples]))
    lines = [",".join(cols)]
    for j, s in enumerate(traj.samples):
        row = [f"{s.t:.12g}"] + [f"{v:.12g}" for v in s.x]
        row.append(s.regime.label())
        row.append("" if s.regime.lam is None else f"{s.regime.lam:.12g}")
        if with_v:
            row.append(f"{V[j]:.12g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

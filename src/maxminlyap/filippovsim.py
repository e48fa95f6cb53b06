"""Event-driven integration of Filippov solutions.

Inside a region the active mode is integrated with an adaptive
Dormand-Prince 5(4) scheme whose accepted steps hand their last stage
on as the first stage of the next (first same as last).  Each step is
one straight-line function, generated once per state dimension, that
runs on Python floats: it calls a float field (``Mode.float_field``,
n floats in and out), sums the stages term by term and returns the RMS
error norm with the state.  A sign change of the
active region function is located on the step just taken: Illinois
root-finding on the step's 4th-order continuous extension (Shampine
1986), then one real step of the located length, refined by a
bracketed secant on real steps while the region function there exceeds
the event tolerance.  At the surface the two adjacent normal field
components decide between a transversal switch and first-order
sliding, in which case the tangent convex combination of the two
fields is integrated with re-projection onto the surface after every
accepted step.  One weight rule (``_sliding_weight``) decides every
sliding weight: the start of a slide, each sliding stage and
``sliding_lambda``.  The combination weight is updated as the stages run;
the weight checked at each projected state gives the next step's first
stage, so only a sliding flow's first step and a retried step evaluate
all seven.  Both flows share one adaptive step control, which rejects
any step whose error norm is not at most one.  Codimension-2
intersections, step underflow and non-finite field values terminate
with a stall status (at the last finite state) rather than an error.

Values the trajectory carries stay numpy calls: region gradients, the
dot products of the weight rule (one Gram table of the surface gradient
and both fields), the Newton steps of the projection and the region
values event location reads.  BLAS fuses multiply-adds, which Python
float arithmetic cannot reproduce, so each keeps its bits.  Tests that
only compare are decided on the step's own floats: the signs of a cone
region function against the event tolerance (``_region_test``) and
blow-up (|x|^2 summed in Python, ``_norm`` only near BLOWUP).  Such a
sum differs from numpy's by rounding alone, far less than the margin
each test keeps, so it can only decide a comparison numpy's value
decides the same way; inside the margin, on a non-finite or
out-of-range value, and at every located event the exact numpy value
is computed.  Hence every sample, crossing and status is the one the
numpy values alone give.  The projection's stop test stays on numpy:
its threshold, EVENT_TOL / 10, lies inside the margin.
"""

import functools
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

# |x|^2 summed on floats at most this (1% below BLOWUP^2) cannot come
# from a norm beyond BLOWUP: numpy's sum differs by a few ulps.
_NO_BLOWUP_SQUARED = 0.99 * BLOWUP**2


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


def _pairwise_sum(terms):
    """Source text of the sum of ``terms`` in the order ``np.add.reduce``
    adds a contiguous float array: from 0.0 one by one below 8 terms,
    else eight strided partial sums combined as a tree, the remainder
    one by one, and halves (cut at a multiple of 8) above 128."""
    n = len(terms)
    if n < 8:
        return "".join(f" + {t}" for t in terms).join(("(0.0", ")"))
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return f"({_pairwise_sum(terms[:half])} + {_pairwise_sum(terms[half:])})"
    full = n - n % 8
    r = ["(" + " + ".join(terms[j:full:8]) + ")" for j in range(8)]
    tree = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
    return "".join(f" + {t}" for t in terms[full:]).join((f"({tree}", ")"))


@functools.cache
def _error_norm_kernel(n):
    """``norm(e_0, .., e_{n-1}, x_0, .., x_{n-1}, y_0, .., y_{n-1})``: the
    RMS of e_i / (ATOL + RTOL * max(|x_i|, |y_i|)) on Python floats, a
    NaN winning the max, bit for bit ``np.sqrt(np.mean(q))`` of the
    squares q: they are added in ``np.add.reduce``'s order
    (``_pairwise_sum``)."""
    args = ", ".join(f"{v}_{i}" for v in "exy" for i in range(n))
    body = []
    for i in range(n):
        body += [
            f"u, v = abs(x_{i}), abs(y_{i})",
            f"r = e_{i} / ({ATOL!r} + {RTOL!r} * (u if u > v or u != u else v))",
            f"q{i} = r * r",
        ]
    body.append(f"return _sqrt({_pairwise_sum([f'q{i}' for i in range(n)])} / {n})")
    source = f"def norm({args}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"__builtins__": {"abs": abs}, "_sqrt": math.sqrt}
    exec(compile(source, f"<error norm, n={n}>", "exec"), namespace)
    return namespace["norm"]


@functools.cache
def _dp_kernel(n):
    """One straight-line Dormand-Prince step for states of dimension n.

    ``step(f, x, dt, k1)`` takes the state as n Python floats and a float
    field f (n floats in, a sequence of n floats out).  Component i of
    each stage state is x_i + dt * (0.0 + a_1 * k_1[i] + a_2 * k_2[i] +
    ...), bit for bit ``sum`` over the terms; zero coefficients are kept,
    so inf/NaN stages spread as in the full sum.  It returns the
    5th-order state x5 as a tuple, the ``_error_norm_kernel`` RMS of
    x5 - x4 scaled by x and x5, and the seven stages as tuples.
    """

    def row(template):  # "t(0), t(1), ..., " over the n components
        return "".join(template.format(i) + ", " for i in range(n))

    def state(coeffs):  # a template of the stage state's component {0}
        terms = "".join(f" + {a!r} * k{j}_{{0}}" for j, a in enumerate(coeffs, 1))
        return f"x_{{0}} + dt * (0.0{terms})"

    body = [
        "dt = float(dt)",
        f"{row('x_{0}')}= x",
        f"{row('k1_{0}')}= f(x) if k1 is None else k1",
    ]
    body += [f"{row(f'k{j}_{{0}}')}= f(({row(state(_DP_A[j - 1]))}))" for j in range(2, 8)]
    body += [f"{row('x5_{0}')}= {row(state(_DP_B5))}", f"{row('x4_{0}')}= {row(state(_DP_B4))}"]
    stages = "".join(f"({row(f'k{j}_{{0}}')}), " for j in range(1, 8))
    norm = f"_norm({row('x5_{0} - x4_{0}')}{row('x_{0}')}{row('x5_{0}')})"
    body.append(f"return ({row('x5_{0}')}), {norm}, ({stages})")
    source = "def step(f, x, dt, k1):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"__builtins__": {"float": float}, "_norm": _error_norm_kernel(n)}
    exec(compile(source, f"<Dormand-Prince step, n={n}>", "exec"), namespace)
    return namespace["step"]


def _dp_step(f, x, dt, k1=None):
    """One Dormand-Prince step of the float field f from the state x (n
    floats); returns (5th-order state, error norm, stages) as
    ``_dp_kernel`` does.

    ``k1`` is f(x) when the caller already has it.  The last stage is
    evaluated at the returned state, so for a field that depends on the
    state alone it is the ``k1`` of the next step.  Every step of the
    simulator goes through this function.
    """
    return _dp_kernel(len(x))(f, x, dt, k1)


@functools.cache
def _form_kernels(n):
    """Straight-line forms of a state given as n Python floats, for tests
    that only compare: ``squares(x)`` is |x|^2, and ``cone(Q_00, Q_01,
    .., Q_{n-1,n-1})`` returns ``forms(x)``, the pair (x'Qx, |x|^2) with
    Q's entries (row-major) held in the closure.  Their rounding is not
    numpy's (no fused multiply-adds)."""
    xs = [f"x_{i}" for i in range(n)]
    qs = [f"Q_{i}_{j}" for i in range(n) for j in range(n)]
    norm2 = " + ".join(f"{v} * {v}" for v in xs)
    rows = [" + ".join(f"Q_{i}_{j} * {xs[j]}" for j in range(n)) for i in range(n)]
    quad = " + ".join(f"({r}) * {v}" for r, v in zip(rows, xs))
    unpack = f"{', '.join(xs)}, = x"
    source = (
        f"def squares(x):\n    {unpack}\n    return {norm2}\n"
        f"def cone({', '.join(qs)}):\n"
        f"    def forms(x):\n        {unpack}\n        return {quad}, {norm2}\n"
        "    return forms\n"
    )
    namespace = {"__builtins__": {}}
    exec(compile(source, f"<float forms, n={n}>", "exec"), namespace)
    return namespace["squares"], namespace["cone"]


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


def _region_test(sys, i):
    """``test(x)`` of a state given as n floats: a stand-in for
    ``_hn(sys, i, x)`` whose comparisons with +-EVENT_TOL are _hn's.

    On a cone whose 1 + sum |Q_ij| is at most 1e50 it is x'Qx / |x|^2
    summed in Python (``_form_kernels``).  While |x|^2 lies in (1e-250,
    1e250) no numpy intermediate of _hn overflows and underflow moves it
    by less than 1e-70, so each is within rounding of the exact
    quotient: about 2n ulps of 1 + sum |Q_ij|.  A value within the
    margin 1e-12 * (1 + sum |Q_ij|) of +-EVENT_TOL, or not finite, or
    from an |x|^2 out of that range, is _hn's own value; so is every
    value of another region.
    """

    def exact(x):
        return _hn(sys, i, np.array(x))

    mode = sys.modes[i - 1]
    if mode.Q is None:
        return exact
    entries = mode.Q.ravel().tolist()
    scale = 1.0 + sum(map(abs, entries))  # inf or NaN with such an entry
    if not scale <= 1e50:
        return exact
    inside, outside = EVENT_TOL - 1e-12 * scale, EVENT_TOL + 1e-12 * scale
    forms = _form_kernels(sys.dim)[1](*entries)

    def test(x):
        q, s = forms(x)
        if 1e-250 < s < 1e250:
            h = q / s
            if abs(h) < inside or outside < abs(h) < math.inf:
                return h
        return exact(x)

    return test


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


def _sliding_weight(sys, x, pair, policy, widen=0.0):
    """``sliding_lambda``'s weight (or None) at x, with the two fields
    (f_a, f_b) it evaluated there as float sequences.  A positive
    ``widen`` also accepts a weight that far outside [0, 1], or at a
    tangency, clipped into it.  Every weight the simulator checks or
    carries comes from this function.

    The normal components n_a = grad H . f_a, n_b and the squared norms
    of grad H, f_a and f_b are read off the Gram table ``np.vecdot(S[:,
    None], S)`` of the (3, n) table S of grad H, f_a and f_b, whose
    entries are the 1-D dot products of its rows; the fields are the
    modes' float fields at x (a sequence of n floats or a 1-D array).
    """
    a, b = pair
    modes = sys.modes
    fa = modes[a - 1].float_field(x)
    fb = modes[b - 1].float_field(x)
    S = np.array((modes[_surface_mode(sys, pair) - 1].region_gradient(x), fa, fb), dtype=float)
    (gg, na, nb), (_, aa, _), (_, _, bb) = np.vecdot(S[:, None], S).tolist()
    scale = math.sqrt(gg) * max(math.sqrt(aa), math.sqrt(bb), 1.0)
    tol = policy.abs_tol * max(scale, 1.0)
    lam = None
    if na != nb:
        w = nb / (nb - na)
        if 0.0 <= w <= 1.0 and not (abs(na) <= tol and abs(nb) <= tol):
            lam = w  # a tangency lets either mode proceed
        elif widen and -widen <= w <= 1.0 + widen:
            lam = min(1.0, max(0.0, w))
    return lam, fa, fb


def sliding_lambda(sys, x, policy=DEFAULT_POLICY):
    """Weight of the first adjacent field in the tangent combination.

    Solves grad H . (lam * f_a + (1 - lam) * f_b) = 0 on the surface
    shared by the two adjacent modes.  Returns lam when it falls in
    [0, 1] (sliding); None for a transversal crossing or a tangency
    (both normal components vanish).
    """
    x = as_points(x, sys.dim, "sliding_lambda state")
    pair = sys.index_set(x, policy)
    if len(pair) != 2:
        raise InvalidInputError(
            f"sliding_lambda needs exactly two adjacent modes, found {pair}"
        )
    return _sliding_weight(sys, x, pair, policy)[0]


# ---------------------------------------------------------------------------
# the integrator


class _Sim:
    def __init__(self, sys, x0, opts):
        self.sys = sys
        self.opts = opts
        # the caller's array is copied once: every later state is a new
        # array, which samples and crossings keep as is
        self.x = as_points(x0, sys.dim, "initial state").copy()
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
        self.samples.append(TrajSample(t=self.t, x=self.x, regime=regime))

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

    def accepted_steps(self, f, committed_k1=None):
        """Accepted adaptive steps of x' = f(x) from the current state, as
        (x_new as n floats, dt, stages) for the caller to commit or
        abandon.  A field of the state alone hands a committed step's
        last stage on as the next first stage and retries a rejected step
        from its own.  Otherwise ``committed_k1()`` gives f at the state
        the caller committed, and a retry evaluates f afresh.  An error
        norm that is not <= 1 (NaN too) rejects; ends at the horizon, on
        blow-up (LEFT_DOMAIN) or on a step below MIN_STEP (STALL)."""
        opts = self.opts
        dt = opts.max_step
        k1 = None  # f(self.x) once known
        squares = _form_kernels(self.sys.dim)[0]
        while self.t < opts.horizon * (1.0 - 1e-15):
            x = self.x.tolist()
            if squares(x) > _NO_BLOWUP_SQUARED and _norm(self.x) > BLOWUP:
                self.status = LEFT_DOMAIN
                return
            dt = min(dt, opts.max_step, opts.horizon - self.t)
            x_new, enorm, k = _dp_step(f, x, dt, k1)
            if not enorm <= 1.0:
                k1 = k[0] if committed_k1 is None else None
                dt *= max(0.2, 0.9 * enorm**-0.2)
                if dt < MIN_STEP:
                    self.status = STALL
                    return
                continue
            yield x_new, dt, k
            k1 = k[6] if committed_k1 is None else committed_k1()
            dt *= min(5.0, 0.9 * enorm**-0.2) if enorm > 0.0 else 5.0

    # -- mode flow with event location

    def run_mode(self, regime):
        i = regime.mode
        mode = self.sys.modes[i - 1]
        f = mode.float_field
        region = None if mode.region_kind == "all" else _region_test(self.sys, i)
        armed = region is not None and region(self.x.tolist()) > EVENT_TOL
        for x_new, dt, k in self.accepted_steps(f):
            if region is not None:
                h_new = region(x_new)
                if armed and h_new < -EVENT_TOL:
                    # event location reads the exact region value
                    self._locate_event(f, dt, i, k, _hn(self.sys, i, np.array(x_new)))
                    self.note_switch()
                    nxt = self.regime_here(leaving=i)
                    if nxt is None:
                        self.status = STALL
                        return None
                    if nxt.kind == "mode":
                        self.crossings.append(
                            Crossing(t=self.t, x=self.x, from_mode=i, to_mode=nxt.mode)
                        )
                    self.record(nxt)
                    return nxt
                if h_new > EVENT_TOL:
                    armed = True
            self.t += dt
            self.x = np.array(x_new)
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
        x0, start = self.x, self.x.tolist()
        h0 = _hn(self.sys, i, x0)
        at = _dense_output(x0, dt, k)
        theta = _illinois(lambda th: _hn(self.sys, i, at(th)), h0, h_end, 0.01 * EVENT_TOL)
        lo, h_lo, hi, h_hi = 0.0, h0, dt, h_end
        tau, prev = theta * dt, None
        for _ in range(60):
            x_tau = np.array(_dp_step(f, start, tau, k[0])[0])
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
        policy = self.opts.policy
        carried = regime.lam if regime.lam is not None else 0.5
        k1 = None  # the field at the committed state

        def weighted(y):
            # the weight at y (or None) and the field of the weight carried
            nonlocal carried
            lam, fa, fb = _sliding_weight(self.sys, y, pair, policy)
            if lam is not None:
                carried = lam
            w = carried
            return lam, [w * u + (1.0 - w) * v for u, v in zip(fa, fb)]

        steps = self.accepted_steps(lambda y: weighted(y)[1], lambda: k1)
        for x_new, dt, _ in steps:
            self.t += dt
            self.x = _project_to_surface(self.sys, surf, x_new, EVENT_TOL)
            lam, k1 = weighted(self.x)
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
    X = np.array([s.x for s in traj.samples])
    cols = ["t"] + [f"x{i}" for i in range(1, X.shape[1] + 1)] + ["regime", "lambda"]
    with_v = spec is not None and basis is not None
    if with_v:
        cols.append("V")
        from .maxmin import evaluate

        V = evaluate(spec, basis, X).tolist()
    # one template per row kind; '%.12g' % v is f"{v:.12g}"
    head = ["%.12g"] * (1 + X.shape[1]) + ["%s"]
    mode_row = ",".join(head + [""] + ["%.12g"] * with_v)
    sliding_row = ",".join(head + ["%.12g"] * (1 + with_v))
    lines = [",".join(cols)]
    for j, (s, x) in enumerate(zip(traj.samples, X.tolist())):
        lam = s.regime.lam
        row = [s.t, *x, s.regime.label()]
        if lam is not None:
            row.append(lam)
        if with_v:
            row.append(V[j])
        lines.append((mode_row if lam is None else sliding_row) % tuple(row))
    return "\n".join(lines) + "\n"

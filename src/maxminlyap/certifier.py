"""Stability certification for linear switched systems on conic partitions.

Condition (i): on every cone where the candidate max-min function is
smooth and a single mode is active, the usual quadratic decrease must
hold.  This is certified through S-procedure matrix inequalities

    A_i^T P_F + P_F A_i + sum_k tau_k (P_u - P_w) + beta Q_i < 0,

one inequality per (mode, group of strict-ordering permutations),
where F is the base index selected on those cones and the difference
terms encode the ordering constraints valid there.  Permutations with
the same selected index are merged while their implied ordering
constraints share a common subset, which reproduces the small reduced
inequality families used in hand calculations.

Condition (ii) covers the points where both the partition and the
candidate are nonsmooth: in the plane, each cone matrix factors as
t t'^T + t' t^T, the cone is the pair of opposite sectors between the
lines t.x = 0 and t'.x = 0, and the sectors sorted by angle tile the
half turn and give the switching lines in cyclic order; each line is
checked at one unit vector, with the margin read off the same
gradient-by-field product table (``setderiv.VertexTable``) as the Lie
derivative, so it is what ``maxminlyap lie`` prints there;
in R^n with two modes, sliding is ruled out by sampling the sign product
of the two normal velocity components on the switching surface plus a
full-rank test on base differences.

The mode-to-permutation pairing assumes the candidate's active base
agrees with the active mode region ("matched" pairing, required for
partitions whose cones touch); when sampling sees several active bases
on one mode, every permutation is paired with every mode.  The pairing
is derived by sampling and recorded in the certificate, and any found
candidate is always re-checked from scratch by the pure margin
computation.
"""

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PartitionError
from .maxmin import (
    GradientHull,
    MaxMinSpec,
    QuadraticBasis,
    active_sets,
    all_permutations,
    realized_base,
    selected_base,
)
from .numkernel import (
    as_points, eig_sym, negdef_margin, project_psd, quad_forms, row_norms, solve_lyapunov,
    sphere_points,
)
from .policy import DEFAULT_POLICY
from .setderiv import VertexTable

MAX_BASES = 6
MATCHING_SAMPLES = 2000  # unit directions behind a derived matching
TILING_TOL = 1e-9  # radians between one cone sector's end and the next one's start

VERDICT_GAS = "GAS-certified"
VERDICT_COND_I_ONLY = "condition-i-only"
VERDICT_NOT_CERTIFIED = "not-certified"


# ---------------------------------------------------------------------------
# inequality groups


@dataclass(frozen=True)
class Group:
    """One S-procedure inequality: mode, selected base, ordering terms."""

    mode: int
    phi_index: int
    perms: tuple  # permutations covered by this inequality
    diffs: tuple  # (u, w) pairs meaning a tau * (P_u - P_w) term

    @property
    def key(self):
        return (self.mode, self.perms)


def _pairwise_diffs(rho):
    """Ordering constraints implied on the cone of rho: P_b - P_a > 0 for
    every pair placed a before b."""
    out = set()
    for ai in range(len(rho)):
        for bi in range(ai + 1, len(rho)):
            out.add((rho[bi], rho[ai]))
    return out


def _chain_diffs(rho):
    return tuple((rho[k + 1], rho[k]) for k in range(len(rho) - 1))


def build_groups(sys, spec, matching=None):
    """Inequality groups for condition (i).

    matching maps mode -> base index; only permutations selecting that
    base are paired with the mode (None pairs every permutation with
    every mode).  Within a mode, permutations with equal selected base
    are merged greedily in lexicographic order while the intersection
    of their implied ordering constraints stays nonempty; merged groups
    use that intersection, singleton groups use the adjacent chain.
    """
    perms = all_permutations(spec.K)
    # the phi table: the base selected on the ranks of each ordering
    phis = dict(zip(perms, selected_base(spec, np.argsort(perms, axis=1)).tolist()))
    groups = []
    for mode in sys.modes:
        i = mode.index
        mine = [
            rho
            for rho in perms
            if matching is None or matching.get(i) == phis[rho]
        ]
        by_phi = {}
        for rho in mine:
            by_phi.setdefault(phis[rho], []).append(rho)
        for f_idx in sorted(by_phi):
            rhos = by_phi[f_idx]  # lexicographic (perms are generated sorted)
            start = 0
            while start < len(rhos):
                members = [rhos[start]]
                inter = _pairwise_diffs(rhos[start])
                stop = start + 1
                while stop < len(rhos):
                    cand = inter & _pairwise_diffs(rhos[stop])
                    if not cand:
                        break
                    inter = cand
                    members.append(rhos[stop])
                    stop += 1
                if len(members) == 1:
                    diffs = _chain_diffs(members[0])
                else:
                    diffs = tuple(sorted(inter))
                groups.append(
                    Group(
                        mode=i,
                        phi_index=f_idx,
                        perms=tuple(members),
                        diffs=diffs,
                    )
                )
                start = stop
    return groups


# ---------------------------------------------------------------------------
# candidates and the pure margin check


@dataclass
class Candidate:
    """Basis matrices plus nonnegative multipliers keyed by group."""

    matrices: list
    taus: dict = field(default_factory=dict)  # group.key -> tuple of floats
    betas: dict = field(default_factory=dict)  # group.key -> float

    def tau_for(self, group):
        got = self.taus.get(group.key)
        if got is None:
            return (0.0,) * len(group.diffs)
        return tuple(got)

    def beta_for(self, group):
        return float(self.betas.get(group.key, 0.0))

    def scaled(self, c):
        """Bases and cone multipliers times c > 0; the ordering multipliers
        weigh base differences, so they stay and every margin scales by c."""
        return Candidate(
            matrices=[c * P for P in self.matrices],
            taus=dict(self.taus),
            betas={k: c * v for k, v in self.betas.items()},
        )


def _pencil(sys, matrices, group):
    """The parts of a group's matrix that do not depend on its multipliers:
    M0 = A^T F + F A, the differences D_k = P_u - P_w of its ordering
    terms, and the cone matrix Q (None without a cone term)."""
    mode = sys.modes[group.mode - 1]
    F = matrices[group.phi_index - 1]
    diffs = [matrices[u - 1] - matrices[w - 1] for u, w in group.diffs]
    return mode.A.T @ F + F @ mode.A, diffs, mode.Q


def _pencil_matrix(pencil, taus, beta):
    """M0 + sum_k tau_k D_k + beta Q, summed left to right."""
    M, diffs, Q = pencil
    for tau, D in zip(taus, diffs):
        M = M + tau * D
    if Q is not None:
        M = M + beta * Q
    return M


def group_matrix(sys, cand, group):
    return _pencil_matrix(
        _pencil(sys, cand.matrices, group), cand.tau_for(group), cand.beta_for(group)
    )


def derive_matching(sys, matrices, spec, policy=DEFAULT_POLICY):
    """Sampled mode -> active-base map, with the observation counts.

    Returns (matching or None, evidence dict).  None means some mode
    saw several active bases, so matched pairing is not sound for this
    candidate and all permutations must be paired with every mode.
    """
    dirs = sphere_points(sys.dim, MATCHING_SAMPLES, np.random.default_rng(policy.seed))
    owner = sys.owners(dirs, policy.abs_tol)
    base = realized_base(spec, QuadraticBasis(matrices).values(dirs))
    counted = (owner > 0) & (base > 0)
    observed = {
        m.index: tuple(np.unique(base[counted & (owner == m.index)]).tolist())
        for m in sys.modes
    }
    evidence = {"samples": int(counted.sum()), "seed": policy.seed, "observed": observed}
    if any(len(s) != 1 for s in observed.values()):
        return None, evidence
    return {i: s[0] for i, s in observed.items()}, evidence


@dataclass
class ConditionIReport:
    groups: list
    margins: list
    matching: Optional[dict]
    evidence: dict
    required_margin: float

    @property
    def ok(self):
        return all(m < -self.required_margin for m in self.margins)


def _require_linear_conic(sys):
    if not sys.is_linear:
        raise InvalidInputError("certification requires linear modes")
    if not sys.is_conic:
        raise InvalidInputError("certification requires conic (or all-space) regions")


def _validate_candidate(cand, K):
    """S-procedure soundness needs positive-definite bases and
    nonnegative multipliers; reject anything else outright."""
    if len(cand.matrices) != K:
        raise InvalidInputError(
            f"candidate has {len(cand.matrices)} bases, structure needs {K}"
        )
    for k, P in enumerate(cand.matrices, start=1):
        if negdef_margin(-np.asarray(P, dtype=float)) >= 0:
            raise InvalidInputError(f"candidate base {k} is not positive definite")
    for key, taus in cand.taus.items():
        if any(t < 0 for t in taus):
            raise InvalidInputError(f"negative ordering multiplier in group {key}")
    for key, beta in cand.betas.items():
        if beta < 0:
            raise InvalidInputError(f"negative cone multiplier in group {key}")


def check_condition_i(sys, spec, cand, policy=DEFAULT_POLICY):
    """Pure margin computation for every inequality group (no optimization),
    paired by the sampled matching of ``cand``'s bases."""
    _require_linear_conic(sys)
    if spec.K > MAX_BASES:
        raise InvalidInputError(
            f"K={spec.K} bases means {spec.K}! permutations; refusing beyond {MAX_BASES}"
        )
    _validate_candidate(cand, spec.K)
    for k, P in enumerate(cand.matrices, start=1):  # square by _validate_candidate
        as_points(P, sys.dim, f"candidate base {k}", max_ndim=2)
    matching, evidence = derive_matching(sys, cand.matrices, spec, policy)
    groups = build_groups(sys, spec, matching)
    return ConditionIReport(
        groups=groups,
        margins=_margins(sys, cand, groups),
        matching=matching,
        evidence=evidence,
        required_margin=policy.margin,
    )


def _margins(sys, cand, groups):
    return [negdef_margin(group_matrix(sys, cand, g)) for g in groups]


# ---------------------------------------------------------------------------
# multiplier completion (convex in the multipliers for fixed P)


def _golden_min(f, lo, hi):
    """Minimiser of a unimodal f on [lo, hi], after 40 golden-section steps."""
    phi_r = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi_r * (b - a)
    d = a + phi_r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi_r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi_r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _optimize_group_multipliers(sys, cand, group, sweeps=3):
    """Coordinate descent on the group's multipliers, the tau slots then
    beta; margin is convex in each scalar, so golden-section per
    coordinate converges cleanly."""
    n_tau = len(group.diffs)
    beta = cand.beta_for(group)
    pencil = _pencil(sys, cand.matrices, group)
    cone = pencil[2] is not None  # only a cone term has a beta slot
    slots = list(cand.tau_for(group)) + ([beta] if cone else [])

    def split(xs):
        return tuple(xs[:n_tau]), (xs[n_tau] if cone else beta)

    def margin_at(xs):
        return negdef_margin(_pencil_matrix(pencil, *split(xs)))

    for _ in range(sweeps):
        for slot in range(len(slots)):

            def f(v, slot=slot):
                return margin_at(slots[:slot] + [v] + slots[slot + 1 :])

            hi = max(10.0, 4.0 * abs(slots[slot]) + 1.0)
            while f(hi) < f(hi / 2.0) and hi < 1e6:
                hi *= 4.0
            slots[slot] = _golden_min(f, 0.0, hi)
    return split(slots)


def complete_multipliers(sys, cand, report, policy=DEFAULT_POLICY):
    """Fill in multipliers for the groups of ``report`` (the condition (i)
    report of ``cand``) whose margin is not strict."""
    out = Candidate(
        matrices=[np.array(P) for P in cand.matrices],
        taus=dict(cand.taus),
        betas=dict(cand.betas),
    )
    for g, m in zip(report.groups, report.margins):
        if m < -policy.margin:
            continue
        taus, beta = _optimize_group_multipliers(sys, out, g)
        out.taus[g.key] = taus
        out.betas[g.key] = beta
    return out


# ---------------------------------------------------------------------------
# feasibility search (alternating multiplier / basis blocks)


SEARCH_STARTS = 16  # initial candidates: two Lyapunov-based, the rest jittered
SEARCH_ROUNDS = 60  # multiplier/basis rounds per start and outer pass
SEARCH_P_STEPS = 30  # basis subgradient steps per round
SEARCH_FLOOR = 1e-6  # a round stops once every margin is at most -SEARCH_FLOOR
MATCH_SAMPLES = 160  # per-mode directions enforcing the structure match


@dataclass(frozen=True)
class SearchOptions:
    time_budget: float = 50.0
    seed: int = 0


@dataclass
class SearchResult:
    candidate: Optional[Candidate]
    report: Optional[ConditionIReport]
    found: bool
    rounds: int
    elapsed: float
    message: str = ""


def _margin_subgradients(sys, cand, groups):
    """Worst group margin (the first on a tie) and the gradient matrices
    of that group's top eigenvalue w.r.t. each P; every group's top
    eigenpair comes from one stacked solve."""
    s = eig_sym(np.stack([group_matrix(sys, cand, g) for g in groups]))
    j = int(np.argmax(s.eigenvalues[:, -1]))
    group = groups[j]
    v = s.eigenvectors[j, :, -1]
    A = sys.modes[group.mode - 1].A
    grads = [np.zeros_like(cand.matrices[0]) for _ in cand.matrices]
    av = A @ v
    grads[group.phi_index - 1] += np.outer(av, v) + np.outer(v, av)
    vv = np.outer(v, v)
    for tau, (u, w) in zip(cand.tau_for(group), group.diffs):
        grads[u - 1] += tau * vv
        grads[w - 1] -= tau * vv
    return float(s.eigenvalues[j, -1]), grads


def _normalize(cand):
    """Rescale in place so the average basis trace is the dimension;
    returns ``cand``.  Every multiplier is scaled with the bases, the
    ordering ones too, so unlike ``Candidate.scaled`` this can change
    margins and is not verdict-neutral; the search iterates are defined
    by it, and a found candidate is re-checked from scratch."""
    n = cand.matrices[0].shape[0]
    total = sum(float(np.trace(P)) for P in cand.matrices)
    if total > 0:
        c = len(cand.matrices) * n / total
        cand.matrices = [c * P for P in cand.matrices]
        cand.taus = {k: tuple(c * t for t in v) for k, v in cand.taus.items()}
        cand.betas = {k: c * v for k, v in cand.betas.items()}
    return cand


class _MatchPenalty:
    """Sampled hinge penalty |V_i(x) - V(x)| over the interior of each
    mode i's region.

    The search pairs mode i with base i, and a candidate only certifies
    when the base selected by the max-min combination on each region is
    the one paired with it, so the basis update must be steered toward
    that pattern as well as toward negative margins: the target base of
    a point is the index of the mode that owns it.  Planar systems get
    a dense angular grid (regions are arcs); other dimensions use
    random sphere points.
    Counterexamples found by the validation sampler can be appended.

    Base values come from the Gram features x_i x_j (i <= j, off-diagonal
    ones doubled) of the points: one (S, n(n+1)/2) @ (n(n+1)/2, K)
    product for all K bases.  The features are built on first use, so a
    search that never steps pays nothing for them.
    """

    def __init__(self, sys, spec, n_per_mode, seed):
        self.spec = spec
        if sys.dim == 2:
            n_grid = max(720, 8 * n_per_mode)
            t = (np.arange(n_grid) + 0.5) * np.pi / n_grid
            X = np.stack([np.cos(t), np.sin(t)], axis=1)
            owner = sys.owners(X, 0.0)
        else:
            # sphere points in draw order, each kept while its owner's quota lasts
            rng = np.random.default_rng(seed)
            want = n_per_mode * sys.M
            left = {m.index: n_per_mode for m in sys.modes}
            X, owner = np.empty((0, sys.dim)), np.empty(0, dtype=int)
            while sum(left.values()) > 0 and len(X) < 400 * want:
                chunk = rng.standard_normal((min(4 * want, 400 * want - len(X)), sys.dim))
                chunk /= row_norms(chunk)[:, None]
                got = sys.owners(chunk, 1e-6)
                for i in left:
                    rows = np.flatnonzero(got == i)
                    got[rows[left[i]:]] = 0
                    left[i] -= min(left[i], len(rows))
                X, owner = np.concatenate([X, chunk]), np.concatenate([owner, got])
        self.X = X[owner > 0]
        self.targets = owner[owner > 0]
        n = sys.dim
        self._upper = np.array([(i, j) for i in range(n) for j in range(i, n)]).T
        self._gram = np.empty((0, self._upper.shape[1]))

    def add_counterexamples(self, pts):
        self.X = np.concatenate([self.X, [x for _, x in pts]])
        self.targets = np.concatenate([self.targets, [t for t, _ in pts]])

    def _residuals(self, matrices):
        """Penalty, selected base per point and V_target - V there."""
        i, j = self._upper
        if len(self._gram) < len(self.X):
            new = self.X[len(self._gram):]
            feats = new[:, i] * new[:, j] * np.where(i == j, 1.0, 2.0)
            self._gram = np.concatenate([self._gram, feats])
        Ps = np.stack(matrices)
        vals = self._gram @ (0.5 * (Ps[:, i, j] + Ps[:, j, i])).T
        # the subgradient needs a selection on ties too, so no realized_base
        realized = selected_base(self.spec, vals)
        rows = np.arange(len(vals))
        d = vals[rows, self.targets - 1] - vals[rows, realized - 1]
        return float(np.abs(d).sum()) / len(d), realized, d

    def value(self, matrices):
        return self._residuals(matrices)[0]

    def value_and_grads(self, matrices):
        K = len(matrices)
        n = matrices[0].shape[0]
        X = self.X
        pen, realized, d = self._residuals(matrices)
        grads = [np.zeros((n, n)) for _ in range(K)]
        sign = np.sign(d)
        active = sign != 0.0
        if np.any(active):
            for k in range(1, K + 1):
                w_t = sign * (self.targets == k) - sign * (realized == k)
                rows = w_t != 0.0
                if np.any(rows):
                    Xw = X[rows] * w_t[rows, None]
                    grads[k - 1] += Xw.T @ X[rows]
            grads = [G / len(X) for G in grads]
        return pen, grads


def _initial_candidates(sys, spec, seed):
    """Deterministic seed list: per-mode Lyapunov solutions, then jitters."""
    rng = np.random.default_rng(seed)
    n = sys.dim
    K = spec.K
    inits = []
    lyap = []
    for k in range(K):
        A = sys.modes[min(k, sys.M - 1)].A
        try:
            P = solve_lyapunov(A)
            if negdef_margin(-P) < 0:
                lyap.append(P)
            else:
                lyap.append(np.eye(n))
        except Exception:
            lyap.append(np.eye(n))
    inits.append([P.copy() for P in lyap])
    inits.append([np.eye(n) for _ in range(K)])
    for _ in range(SEARCH_STARTS - 2):
        mats = []
        for k in range(K):
            B = rng.standard_normal((n, n))
            jitter = 0.5 * (B @ B.T) / n
            mats.append(lyap[k] + jitter + 0.05 * np.eye(n))
        inits.append(mats)
    return inits


def search_condition_i(sys, spec, policy=DEFAULT_POLICY, opts=None):
    """Alternating feasibility search for condition (i).

    Blocks: (a) multipliers by per-group golden-section coordinate
    descent (convex for fixed bases); (b) basis matrices by projected
    subgradient on the worst inequality's top eigenvalue plus the
    structure-matching penalty, with a positive-definite floor and
    trace normalization.  Multi-start, budget-bounded.  Failure is a
    report, not an error: the inequalities are bilinear and a miss
    does not prove infeasibility.  With as many bases as modes, mode i
    is steered to base i; otherwise every permutation is paired with
    every mode.  The budget is tested before any candidate is built, so
    a zero budget returns not-found after 0 rounds at once.
    """
    _require_linear_conic(sys)
    opts = opts or SearchOptions()
    matching = {m.index: m.index for m in sys.modes} if sys.M == spec.K else None
    groups = build_groups(sys, spec, matching)
    t0 = time.monotonic()
    rounds_done = 0

    def spent():
        return time.monotonic() - t0 >= opts.time_budget

    def not_found():
        return SearchResult(
            candidate=None,
            report=None,
            found=False,
            rounds=rounds_done,
            elapsed=time.monotonic() - t0,
            message="budget exhausted without a verified candidate "
            "(bilinear feasibility; not a proof of infeasibility)",
        )

    if spent():
        return not_found()
    penalty = (
        _MatchPenalty(sys, spec, MATCH_SAMPLES, opts.seed)
        if matching is not None
        else None
    )

    def repair_matching(cand, max_steps=120):
        """Subgradient descent on the matching penalty until it hits zero."""
        if penalty is None:
            return True
        pen, grads = penalty.value_and_grads(cand.matrices)
        step = 0.2
        for _ in range(max_steps):
            if pen == 0.0:
                return True
            gnorm = np.sqrt(sum(float(np.sum(G * G)) for G in grads))
            if gnorm == 0.0:
                return False
            shifted = np.stack(cand.matrices) - (step / gnorm) * np.stack(grads)
            trial = list(project_psd(shifted, floor=1e-6))
            if penalty.value(trial) < pen:
                cand.matrices = trial
                _normalize(cand)
                pen, grads = penalty.value_and_grads(cand.matrices)
                step = min(0.2, step * 1.5)
            else:
                step *= 0.5
                if step < 1e-9:
                    return False
        return pen == 0.0

    def optimize_rounds(cand):
        nonlocal rounds_done
        for round_no in range(SEARCH_ROUNDS):
            rounds_done += 1
            if spent():
                return
            for g in groups:
                taus, beta = _optimize_group_multipliers(sys, cand, g, sweeps=2)
                cand.taus[g.key] = taus
                cand.betas[g.key] = beta
            if max(_margins(sys, cand, groups)) <= -SEARCH_FLOOR:
                return
            # margin descent restricted to the matched set: a step that
            # breaks the matching is repaired or rolled back and shrunk
            step0 = 0.25 / (1.0 + round_no / 6.0)
            for _ in range(SEARCH_P_STEPS):
                worst_margin, grads = _margin_subgradients(sys, cand, groups)
                if worst_margin <= -SEARCH_FLOOR:
                    break
                gnorm = np.sqrt(sum(float(np.sum(G * G)) for G in grads))
                if gnorm == 0.0:
                    break
                eta = step0 / gnorm
                saved, G = np.stack(cand.matrices), np.stack(grads)
                accepted = False
                while eta * gnorm > 1e-9:
                    cand.matrices = list(project_psd(saved - eta * G, floor=1e-6))
                    _normalize(cand)
                    if repair_matching(cand, max_steps=20):
                        accepted = True
                        break
                    eta *= 0.25
                if not accepted:
                    cand.matrices = list(saved)
                    return

    def counterexamples(cand, salt):
        """Strict-region points where the realized base is not the owning
        mode's index, for counterexample-guided repair."""
        if matching is None:
            return []
        rng = np.random.default_rng(opts.seed + 7919 * salt)
        X = rng.standard_normal((2000, sys.dim))
        X /= row_norms(X)[:, None]
        owner = sys.owners(X, policy.abs_tol)
        base = realized_base(spec, QuadraticBasis(cand.matrices).values(X))
        wrong = np.flatnonzero((owner > 0) & (base > 0) & (base != owner))[:64]
        return [(int(owner[s]), X[s]) for s in wrong]

    for init_no, mats in enumerate(_initial_candidates(sys, spec, opts.seed)):
        cand = _normalize(Candidate(matrices=mats))
        for g in groups:
            cand.taus[g.key] = (0.0,) * len(g.diffs)
            cand.betas[g.key] = 0.0
        for outer in range(4):
            if spent():
                break
            if not repair_matching(cand):
                break
            optimize_rounds(cand)
            report = check_condition_i(sys, spec, cand, policy)
            worst = max(report.margins)
            if -10.0 * policy.margin < worst < -SEARCH_FLOOR:
                # headroom: margins scale with the candidate, so take a
                # worst past the search floor to -10 x the required margin
                # before the ok test; the floor bounds the factor
                cand = cand.scaled(10.0 * policy.margin / -worst)
                report = check_condition_i(sys, spec, cand, policy)
            if report.ok and (matching is None or report.matching is not None):
                return SearchResult(
                    candidate=cand,
                    report=report,
                    found=True,
                    rounds=rounds_done,
                    elapsed=time.monotonic() - t0,
                )
            ces = counterexamples(cand, salt=16 * init_no + outer)
            if not ces or penalty is None:
                break
            penalty.add_counterexamples(ces)
        if spent():
            break
    return not_found()


# ---------------------------------------------------------------------------
# planar condition (ii)


@dataclass(frozen=True)
class ConeFactors:
    """Switching lines of a planar conic partition in chain order.

    A cone {x'Qx > 0} with Q = t t'^T + t' t^T is the pair of opposite
    sectors between the lines t.x = 0 and t'.x = 0.  Sorted by start
    angle on [0, pi), the sectors of a partition tile the half turn,
    each ending where the next begins; the chain is that cyclic order,
    started at mode 1 and run across the line of its second factor.
    order[i] is the mode at chain position i, which lies between
    switching lines i and i+1 (line M is line 0); factors[i] is that
    mode's factor pair with its line-i factor first; vs[i] is the unit
    vector spanning line i.
    """

    order: tuple
    vs: tuple
    factors: tuple


def q_cone_decompose(Q):
    """Factor an indefinite 2x2 symmetric Q as t1 t2^T + t2 t1^T."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2):
        raise InvalidInputError("q_cone_decompose expects a 2x2 matrix")
    s = eig_sym(Q)
    lm, lp = float(s.eigenvalues[0]), float(s.eigenvalues[1])
    if not (lm < 0.0 < lp):
        raise InvalidInputError("cone matrix must be sign indefinite")
    vm = s.eigenvectors[:, 0]
    vp = s.eigenvectors[:, 1]
    eta = np.sqrt(-lm / (lp - lm))
    kappa = np.sqrt((lp - lm) / 2.0)
    t1 = kappa * (np.sqrt(1.0 - eta * eta) * vp - eta * vm)
    t2 = kappa * (np.sqrt(1.0 - eta * eta) * vp + eta * vm)
    rec = np.outer(t1, t2) + np.outer(t2, t1)
    err = float(np.abs(rec - Q).max())
    if err > 1e-10 * max(1.0, float(np.abs(Q).max())):
        raise PartitionError(f"cone factor reconstruction failed ({err:.2e})")
    return t1, t2


def _sector(t1, t2):
    """(start angle in [0, pi), width, index of the factor on the start
    line) of the sector of {(t1.x)(t2.x) > 0} that starts in [0, pi)."""
    a1, a2 = (float(np.arctan2(t[0], -t[1])) % np.pi for t in (t1, t2))
    width = (a2 - a1) % np.pi
    mid = a1 + 0.5 * width
    x = np.array([np.cos(mid), np.sin(mid)])
    if (t1 @ x) * (t2 @ x) > 0.0:
        return a1, width, 0
    return a2, np.pi - width, 1


def cone_chain(sys):
    """Order the planar cones into the cyclic chain of switching lines by
    sorting their sectors (see ``ConeFactors``)."""
    if sys.dim != 2:
        raise InvalidInputError("cone_chain is planar only")
    if any(m.region_kind != "cone" for m in sys.modes):
        raise InvalidInputError("cone_chain needs conic regions for every mode")
    if sys.M == 1:
        raise PartitionError("a single cone cannot partition the plane")
    pairs = [q_cone_decompose(m.Q) for m in sys.modes]
    sectors = [_sector(*pair) for pair in pairs]
    ccw = sorted(range(sys.M), key=lambda c: sectors[c][0])
    starts = np.array([sectors[c][0] for c in ccw])
    ends = starts + [sectors[c][1] for c in ccw]
    miss = float(np.abs(ends - np.append(starts[1:], starts[0] + np.pi)).max())
    if miss > TILING_TOL:
        raise PartitionError(
            f"the cone sectors do not tile the plane (mismatch {miss:.2e} rad)"
        )
    first = ccw.index(0)
    ccw = ccw[first:] + ccw[:first]
    forward = sectors[0][2] == 0  # mode 1's second factor is on its end line
    chain = ccw if forward else ccw[:1] + ccw[:0:-1]
    factors = [pairs[c] if (sectors[c][2] == 0) == forward else pairs[c][::-1] for c in chain]
    # line i from the factor of mode order[i-1] on it (line 0 from mode 1's): both
    # modes' factors span it, and this one keeps the printed sign of a zero component
    vs = []
    for t in [factors[0][0]] + [t2 for _, t2 in factors[:-1]]:
        v = np.array([-t[1], t[0]]) / np.linalg.norm(t)
        vs.append(-v if v[0] < 0 or (v[0] == 0 and v[1] < 0) else v)
    return ConeFactors(
        order=tuple(sys.modes[c].index for c in chain),
        vs=tuple(vs),
        factors=tuple(factors),
    )


@dataclass
class PlanarEntry:
    position: int
    v: np.ndarray
    modes: tuple  # (previous mode, next mode) adjacent to this line
    alpha: tuple
    lam_kind: str
    lam_vertices: tuple
    margin: Optional[float]
    ok: bool


@dataclass
class PlanarReport:
    factors: ConeFactors
    entries: list

    @property
    def ok(self):
        return all(e.ok for e in self.entries)


def planar_condition_ii(sys, spec, cand, policy=DEFAULT_POLICY):
    """Check the nonsmooth points of a planar conic partition.

    Each switching line contributes one unit vector v.  Where the
    candidate is smooth at v the entry passes vacuously; otherwise the
    equalizing weights for the two adjacent mode fields (in chain order)
    are computed, and if any exist the margin, the upper end of the Lie
    derivative at v, must be negative.
    """
    _require_linear_conic(sys)
    factors = cone_chain(sys)
    basis = QuadraticBasis(cand.matrices)
    sets = active_sets(spec, basis, np.array(factors.vs), policy)
    entries = []
    for pos in range(sys.M):
        v = factors.vs[pos]
        # wraps: line pos borders chain positions pos-1 and pos
        modes = (factors.order[pos - 1], factors.order[pos])
        fields = tuple(sys.field(i, v) for i in modes)
        table = VertexTable(GradientHull.of(basis, v, sets[pos]), fields)
        kind, vertices, worst = "smooth", (), None
        if len(table.hull.indices) > 1:
            lam, lie = table.lie(policy)
            kind, vertices = lam.kind, lam.vertices
            worst = None if lie.empty else lie.hi
        entries.append(
            PlanarEntry(
                position=pos + 1,
                v=v,
                modes=modes,
                alpha=table.hull.indices,
                lam_kind=kind,
                lam_vertices=vertices,
                margin=worst,
                ok=worst is None or worst < -policy.margin,
            )
        )
    return PlanarReport(factors=factors, entries=entries)


# ---------------------------------------------------------------------------
# two-mode condition (ii) in R^n


@dataclass
class ExclusionReport:
    min_product: float
    n_samples: int
    seed: int
    ok: bool


def sliding_exclusion(sys, policy=DEFAULT_POLICY, n_samples=10_000):
    """Sampled check that both mode fields cross the switching surface
    the same way: min over the surface of the product of normal
    components must stay positive."""
    _require_linear_conic(sys)
    if sys.M != 2:
        raise InvalidInputError("sliding_exclusion expects exactly two modes")
    if n_samples < 1:
        raise InvalidInputError(
            f"sliding_exclusion needs at least one sample, got {n_samples}"
        )
    Q1, Q2 = sys.modes[0].Q, sys.modes[1].Q
    if Q1 is None or Q2 is None:
        raise InvalidInputError("sliding_exclusion expects conic regions")
    if np.abs(Q1 + Q2).max() > 1e-9 * max(1.0, np.abs(Q1).max()):
        raise InvalidInputError("two-mode exclusion needs opposite cones +/-Q")
    Q = Q1
    s = eig_sym(Q)
    if np.abs(s.eigenvalues).min() <= policy.abs_tol:
        raise InvalidInputError("switching matrix Q must be invertible")
    neg = [k for k, w in enumerate(s.eigenvalues) if w < 0]
    pos = [k for k, w in enumerate(s.eigenvalues) if w > 0]
    if not neg or not pos:
        raise InvalidInputError("switching matrix Q must be sign indefinite")
    # per sample: unit positive-side then negative-side coordinates, onto x'Qx = 0
    rng = np.random.default_rng(policy.seed)
    UW = rng.standard_normal((n_samples, len(pos) + len(neg)))
    U, W = UW[:, : len(pos)], UW[:, len(pos) :]
    Z = np.zeros((n_samples, sys.dim))
    Z[:, pos] = U / row_norms(U)[:, None] / np.sqrt(2.0 * s.eigenvalues[pos])
    Z[:, neg] = W / row_norms(W)[:, None] / np.sqrt(-2.0 * s.eigenvalues[neg])
    X = (s.eigenvectors @ Z[:, :, None])[:, :, 0]
    X /= row_norms(X)[:, None]
    QA = np.stack([Q @ sys.modes[0].A, Q @ sys.modes[1].A])
    min_product = quad_forms(X, QA).prod(axis=1).min(initial=np.inf)
    return ExclusionReport(
        min_product=float(min_product),
        n_samples=n_samples,
        seed=policy.seed,
        ok=min_product > policy.margin,
    )


@dataclass
class TwoModeReport:
    exclusion: ExclusionReport
    rank_margins: dict  # (j1, j2) -> smallest singular value of P_j1 - P_j2

    @property
    def ok(self):
        return self.exclusion.ok and all(
            v > 0.0 for v in self.rank_margins.values()
        )


def check_condition_ii_2mode(sys, spec, cand, policy=DEFAULT_POLICY):
    """Two-mode condition (ii): no sliding plus full-rank base differences."""
    exclusion = sliding_exclusion(sys, policy)
    rank_margins = {}
    for j1, j2 in itertools.combinations(range(1, spec.K + 1), 2):
        D = cand.matrices[j1 - 1] - cand.matrices[j2 - 1]
        sv = np.linalg.svd(D, compute_uv=False)
        rank_margins[(j1, j2)] = float(sv[-1]) if sv[-1] > policy.abs_tol else 0.0
    return TwoModeReport(exclusion=exclusion, rank_margins=rank_margins)


# ---------------------------------------------------------------------------
# combined certification


@dataclass
class Certificate:
    candidate: Candidate
    spec: MaxMinSpec
    cond_i: ConditionIReport
    cond_ii_kind: str  # "planar" | "two-mode" | "unchecked"
    cond_ii: object
    verdict: str
    policy: object
    notes: list = field(default_factory=list)


def without_candidate(spec, policy, note):
    """Not-certified verdict for a run that has no candidate to check."""
    empty = ConditionIReport(
        groups=[], margins=[], matching=None, evidence={}, required_margin=policy.margin
    )
    return Certificate(
        candidate=Candidate(matrices=[]),
        spec=spec,
        cond_i=empty,
        cond_ii_kind="unchecked",
        cond_ii=None,
        verdict=VERDICT_NOT_CERTIFIED,
        policy=policy,
        notes=[note],
    )


def certify(
    sys,
    spec,
    cand=None,
    policy=DEFAULT_POLICY,
    search=False,
    search_opts=None,
    complete=True,
):
    """Run condition (i) (verify or search) and dispatch condition (ii).

    With ``search=True`` the found candidate is certified, and passing a
    ``cand`` as well is an error; a failed search certifies nothing.
    ``complete=False`` checks the supplied multipliers verbatim, which is
    what certificate re-verification needs; the default fills in missing
    multipliers by the convex per-group optimization first.
    """
    _require_linear_conic(sys)
    notes = []
    if cand is None and not search:
        raise InvalidInputError("certify needs a candidate or search=True")
    if cand is not None and search:
        raise InvalidInputError("certify takes a candidate or search=True, not both")
    if search:
        result = search_condition_i(sys, spec, policy, search_opts)
        if not result.found:
            return without_candidate(
                spec, policy, result.message or "condition (i) search failed"
            )
        cand, cond_i = result.candidate, result.report
        rounds = f"{result.rounds} round" + ("" if result.rounds == 1 else "s")
        notes.append(f"condition (i) candidate found by search in {rounds}")
    else:
        cond_i = check_condition_i(sys, spec, cand, policy)
        if complete:
            # groups and matching depend on the bases alone, not on the multipliers
            cand = complete_multipliers(sys, cand, cond_i, policy)
            cond_i = replace(cond_i, margins=_margins(sys, cand, cond_i.groups))
    if cond_i.matching is None:
        notes.append("pairing: all permutations against every mode")
    else:
        notes.append(
            "pairing: matched (mode -> base "
            + ", ".join(f"{i}->{f}" for i, f in sorted(cond_i.matching.items()))
            + f"; validated on {cond_i.evidence.get('samples', 0)} samples)"
        )

    kind, cond_ii, verdict = "unchecked", None, VERDICT_NOT_CERTIFIED
    if cond_i.ok:
        verdict = VERDICT_COND_I_ONLY
        if spec.K == 1 or sys.M == 1:
            # a single base is C^1, a single mode has no switching surface;
            # either way the nonsmooth-times-multivalued case is empty
            kind, verdict = "vacuous", VERDICT_GAS
            notes.append("condition (ii) vacuous (single base or single mode)")
        elif sys.dim == 2 and all(m.region_kind == "cone" for m in sys.modes):
            kind, cond_ii = "planar", planar_condition_ii(sys, spec, cand, policy)
        elif sys.M == 2:
            try:
                kind, cond_ii = "two-mode", check_condition_ii_2mode(sys, spec, cand, policy)
            except InvalidInputError as err:
                notes.append(f"condition (ii) unchecked: {err}")
        else:
            notes.append(
                "condition (ii) unchecked: no procedure for this dimension/mode count"
            )
        if cond_ii is not None and cond_ii.ok:
            verdict = VERDICT_GAS
    return Certificate(
        candidate=cand,
        spec=spec,
        cond_i=cond_i,
        cond_ii_kind=kind,
        cond_ii=cond_ii,
        verdict=verdict,
        policy=policy,
        notes=notes,
    )

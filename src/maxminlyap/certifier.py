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
gradient-by-field product table as the Lie derivative (all lines in
one ``setderiv.lie_sets`` call), so it is what ``maxminlyap lie``
prints there;
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
import math
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
    combine,
    realized_base,
    selected_base,
)
from .numkernel import (
    eig_sym, negdef_margin, positive_definite, project_psd, quad_forms, row_norms, solve_lyapunov,
    sphere_points,
)
from .policy import DEFAULT_POLICY
from .setderiv import lie_sets

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
    cone: bool  # the mode has a cone matrix Q, so a beta * Q term

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


def group_diffs(perms):
    """The ordering terms of a group covering ``perms``, which they fix
    alone: the adjacent chain of a single permutation, else the pairs
    that every member orders alike."""
    if len(perms) == 1:
        return _chain_diffs(perms[0])
    return tuple(sorted(set.intersection(*map(_pairwise_diffs, perms))))


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
                groups.append(
                    Group(
                        mode=i,
                        phi_index=f_idx,
                        perms=tuple(members),
                        diffs=group_diffs(members),
                        cone=mode.Q is not None,
                    )
                )
                start = stop
    return groups


# ---------------------------------------------------------------------------
# candidates and the pure margin check


@dataclass
class Candidate:
    """Basis matrices plus nonnegative multipliers keyed by group.

    ``multipliers[group.key]`` holds one tuple per inequality: a tau per
    ordering term of ``group.diffs``, then beta last.  Beta weighs the
    cone matrix Q; for a mode without one it weighs nothing, but it is
    written, read back and checked nonnegative all the same."""

    matrices: list
    multipliers: dict = field(default_factory=dict)  # group.key -> (*taus, beta)

    def multipliers_for(self, group):
        """The group's tuple; zeros for a group without one."""
        return tuple(self.multipliers.get(group.key, (0.0,) * (len(group.diffs) + 1)))

    def scaled(self, c):
        """Bases and cone multipliers times c > 0; the ordering multipliers
        weigh base differences, so they stay and every margin scales by c."""
        return Candidate(
            matrices=[c * P for P in self.matrices],
            multipliers={k: (*ys[:-1], c * ys[-1]) for k, ys in self.multipliers.items()},
        )


def _pencil(sys, matrices, group):
    """A group's matrix apart from its multipliers: (M0, terms), where
    M0 = A^T F + F A and the terms are the differences P_u - P_w of its
    ordering terms, then Q when the group has a cone term."""
    mode = sys.modes[group.mode - 1]
    F = matrices[group.phi_index - 1]
    terms = [matrices[u - 1] - matrices[w - 1] for u, w in group.diffs]
    return mode.A.T @ F + F @ mode.A, terms + ([mode.Q] if group.cone else [])


def _pencil_matrix(pencil, multipliers):
    """M0 + sum_k y_k T_k, summed left to right; a beta without a cone
    term has no term to weigh."""
    M, terms = pencil
    for y, T in zip(multipliers, terms):
        M = M + y * T
    return M


def group_matrix(sys, cand, group):
    return _pencil_matrix(_pencil(sys, cand.matrices, group), cand.multipliers_for(group))


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


def _validate_candidate(cand, K, dim):
    """S-procedure soundness needs K positive-definite dim x dim bases
    and nonnegative multipliers; reject anything else outright."""
    if len(cand.matrices) != K:
        raise InvalidInputError(
            f"candidate has {len(cand.matrices)} bases, structure needs {K}"
        )
    for k, P in enumerate(cand.matrices, start=1):
        if np.shape(P) != (dim, dim):
            raise InvalidInputError(
                f"candidate base {k} must have dimension {dim}, got shape {np.shape(P)}"
            )
    # one solve for all bases, once they are known to stack
    bad = np.flatnonzero(~positive_definite(np.asarray(cand.matrices, dtype=float)))
    if bad.size:
        raise InvalidInputError(f"candidate base {bad[0] + 1} is not positive definite")
    for key, ys in cand.multipliers.items():
        if any(t < 0 for t in ys[:-1]):
            raise InvalidInputError(f"negative ordering multiplier in group {key}")
        if ys and ys[-1] < 0:
            raise InvalidInputError(f"negative cone multiplier in group {key}")


def check_condition_i(sys, spec, cand, policy=DEFAULT_POLICY):
    """Pure margin computation for every inequality group (no optimization),
    paired by the sampled matching of ``cand``'s bases."""
    _require_linear_conic(sys)
    if spec.K > MAX_BASES:
        raise InvalidInputError(
            f"K={spec.K} bases means {spec.K}! permutations; refusing beyond {MAX_BASES}"
        )
    _validate_candidate(cand, spec.K, sys.dim)
    matching, evidence = derive_matching(sys, cand.matrices, spec, policy)
    groups = build_groups(sys, spec, matching)
    for g in groups:
        if len(cand.multipliers_for(g)) != len(g.diffs) + 1:
            raise InvalidInputError(
                f"group {g.key} has {len(cand.multipliers_for(g))} multipliers, "
                "not a tau per term and beta"
            )
    return ConditionIReport(
        groups=groups,
        margins=_margins(sys, cand, groups),
        matching=matching,
        evidence=evidence,
        required_margin=policy.margin,
    )


def _margins(sys, cand, groups):
    """Every group's margin, from one stacked solve."""
    if not groups:
        return []
    stack = np.stack([group_matrix(sys, cand, g) for g in groups])
    return eig_sym(stack).eigenvalues[:, -1].tolist()


# ---------------------------------------------------------------------------
# multiplier completion (convex in the multipliers for fixed P)


GOLDEN_STEPS = 40  # golden-section steps per multiplier slot
LOOKAHEAD = 3  # golden-section steps whose possible probes share one solve
_REPAIR_DEPTH = 3  # matching-repair step halvings whose trials share one solve
_PHI_R = (math.sqrt(5.0) - 1.0) / 2.0


def _slot_margins(pencils, slots, live, s):
    """``margins(idx, vs)``: for each p, the margin of group live[idx[p]]
    with slot s set to vs[p], all from one stacked solve.

    A trial matrix is the group's prefix (M0 plus the terms before the
    slot) plus v times the slot's term, then the terms after it added one
    at a time: ``_pencil_matrix``'s left-to-right sum, so every margin is
    bit for bit the group's own.  Groups with fewer trailing terms are
    padded with -0.0 * 0 terms, which add exactly nothing."""
    width = max(len(pencils[j][1]) - s - 1 for j in live)
    n = pencils[live[0]][0].shape[0]
    heads, slopes = [], []
    coefs = np.full((len(live), width), -0.0)
    tails = np.zeros((len(live), width, n, n))
    for i, j in enumerate(live):
        M0, terms = pencils[j]
        heads.append(_pencil_matrix((M0, terms[:s]), slots[j]))
        slopes.append(terms[s])
        for t, (x, T) in enumerate(zip(slots[j][s + 1 :], terms[s + 1 :])):
            coefs[i, t], tails[i, t] = x, T
    heads, slopes = np.stack(heads), np.stack(slopes)

    def margins(idx, vs):
        X = heads[idx] + np.array(vs)[:, None, None] * slopes[idx]
        for t in range(width):
            X = X + coefs[idx, t][:, None, None] * tails[idx, t]
        return eig_sym(X).eigenvalues[:, -1].tolist()

    return margins


def _golden_step(a, b, c, d, left):
    """One golden-section step of the bracket [a, b] with probes c < d: it
    keeps [a, d] (left) or [c, b].  Returns the new (a, b, c, d) and the
    probe that needs a margin (the new c or d)."""
    if left:
        b, d = d, c
        c = b - _PHI_R * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _PHI_R * (b - a)
    return (a, b, c, d), d


def _golden_lockstep(margins, starts):
    """For each i, the minimiser of v -> margins([i], [v]) on [0, hi] after
    GOLDEN_STEPS golden-section steps (Kiefer 1953), where hi starts at
    max(10, 4|starts[i]| + 1) and grows by 4 while the margin at hi is
    below the one at hi / 2, up to 1e6.

    Every group takes the same steps in lockstep, so each solve serves
    them all: one per bracket test (hi and hi / 2), one for the opening
    pair, and one per LOOKAHEAD steps, covering the 2^k - 1 probes those
    k steps can ask for.  The last step's probe is never read, so it is
    not solved.  Each group's bracket stays on Python floats and ends
    bit for bit where a one-group search would."""
    his = [max(10.0, 4.0 * abs(x) + 1.0) for x in starts]
    grow = [i for i, hi in enumerate(his) if hi < 1e6]
    while grow:
        m = margins(
            [i for i in grow for _ in range(2)], [h for i in grow for h in (his[i], his[i] / 2.0)]
        )
        grow = [i for k, i in enumerate(grow) if m[2 * k] < m[2 * k + 1]]
        for i in grow:
            his[i] *= 4.0
        grow = [i for i in grow if his[i] < 1e6]
    brackets = [(0.0, hi, hi - _PHI_R * hi, _PHI_R * hi) for hi in his]
    m = margins(
        [i for i in range(len(his)) for _ in range(2)], [x for br in brackets for x in br[2:]]
    )
    values = list(zip(m[::2], m[1::2]))
    for done in range(0, GOLDEN_STEPS - 1, LOOKAHEAD):
        k = min(LOOKAHEAD, GOLDEN_STEPS - 1 - done)
        # level l of a tree: the 2^l (bracket, probe) pairs that step l + 1
        # can reach; only the first step's side is known before the solve
        trees = []
        for br, (fc, fd) in zip(brackets, values):
            levels = [[_golden_step(*br, fc <= fd)]]
            for _ in range(k - 1):
                levels.append(
                    [_golden_step(*node, left) for node, _ in levels[-1] for left in (True, False)]
                )
            trees.append(levels)
        m = margins(
            [i for i, levels in enumerate(trees) for level in levels for _ in level],
            [x for levels in trees for level in levels for _, x in level],
        )
        for i, levels in enumerate(trees):
            fc, fd = values[i]
            left, pos = fc <= fd, 0
            for level_no, level in enumerate(levels):
                y = m[(2**k - 1) * i + 2**level_no - 1 + pos]
                fc, fd = (y, fc) if left else (fd, y)
                brackets[i], left = level[pos][0], fc <= fd
                pos = 2 * pos + (not left)
            values[i] = (fc, fd)
    last = [_golden_step(*br, fc <= fd)[0] for br, (fc, fd) in zip(brackets, values)]
    return [0.5 * (a + b) for a, b, _, _ in last]


def _optimize_multipliers(sys, cand, groups, sweeps=3):
    """One multiplier tuple per group by coordinate descent on the slots
    that weigh a term: the taus, then beta where the group has a cone
    term (an inert beta stays as it is).  For fixed bases a margin is
    convex in each scalar, so each slot takes a golden section, run for
    every group that has the slot in lockstep (``_golden_lockstep``)."""
    pencils = [_pencil(sys, cand.matrices, g) for g in groups]
    slots = [list(cand.multipliers_for(g)) for g in groups]
    for _ in range(sweeps):
        for s in range(max((len(terms) for _, terms in pencils), default=0)):
            live = [j for j, (_, terms) in enumerate(pencils) if s < len(terms)]
            margins = _slot_margins(pencils, slots, live, s)
            for j, v in zip(live, _golden_lockstep(margins, [slots[j][s] for j in live])):
                slots[j][s] = v
    return [tuple(xs) for xs in slots]


def complete_multipliers(sys, cand, report, policy=DEFAULT_POLICY):
    """Fill in multipliers for the groups of ``report`` (the condition (i)
    report of ``cand``) whose margin is not strict: three sweeps of
    ``_optimize_multipliers`` over those groups together, each group's
    result bit for bit its own one-group search."""
    out = Candidate(
        matrices=[np.array(P) for P in cand.matrices], multipliers=dict(cand.multipliers)
    )
    todo = [g for g, m in zip(report.groups, report.margins) if m >= -policy.margin]
    out.multipliers.update(zip((g.key for g in todo), _optimize_multipliers(sys, out, todo)))
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
    for tau, (u, w) in zip(cand.multipliers_for(group), group.diffs):
        grads[u - 1] += tau * vv
        grads[w - 1] -= tau * vv
    return float(s.eigenvalues[j, -1]), grads


def _normalize(cand):
    """Rescale in place so the average basis trace is the dimension;
    returns ``cand``.  Every multiplier is scaled with the bases, the
    ordering ones too, so unlike ``Candidate.scaled`` this can change
    margins and is not verdict-neutral; the search iterates are defined
    by it, and a found candidate is re-checked from scratch."""
    Ps = np.asarray(cand.matrices)
    c = _trace_scale(Ps)
    if c is not None:
        cand.matrices = list(c * Ps)
        cand.multipliers = _scaled_multipliers(cand.multipliers, [c])
    return cand


def _trace_scale(Ps):
    """The factor that takes the average trace of the bases Ps[K, n, n]
    to n, or None when their trace sum is not positive."""
    total = sum(Ps.trace(axis1=1, axis2=2).tolist())
    return len(Ps) * Ps.shape[-1] / total if total > 0 else None


def _scaled_multipliers(multipliers, factors):
    """The multipliers times each factor in turn, rounded after each, as
    that many ``_normalize`` calls leave them."""
    for c in factors:
        multipliers = {k: tuple(c * y for y in ys) for k, ys in multipliers.items()}
    return multipliers


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
    product for all K bases.  The features, and the flat index of each
    point's target value in that product, are built with the points.
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
        n = sys.dim
        self._upper = np.array([(i, j) for i in range(n) for j in range(i, n)]).T
        self.X, self.targets = np.empty((0, n)), np.empty(0, dtype=int)
        self._gram = np.empty((0, self._upper.shape[1]))
        self._add(X[owner > 0], owner[owner > 0])

    def add_counterexamples(self, pts):
        self._add(np.array([x for _, x in pts]), [t for t, _ in pts])

    def _add(self, X, targets):
        """Append points, their target bases and their features."""
        i, j = self._upper
        self.X = np.concatenate([self.X, X])
        self.targets = np.concatenate([self.targets, targets])
        self._gram = np.concatenate([self._gram, X[:, i] * X[:, j] * np.where(i == j, 1.0, 2.0)])
        self._target_at = np.arange(len(self.X)) * self.spec.K + self.targets - 1

    def _values(self, stacks):
        """Base values (..., S, K) at the points, and V_target - V there
        (..., S), of the bases stacks[..., K, n, n]: one set of K bases,
        or one set per leading index."""
        i, j = self._upper
        Ps = np.asarray(stacks)
        vals = self._gram @ (0.5 * (Ps[..., i, j] + Ps[..., j, i])).swapaxes(-1, -2)
        flat = vals.reshape(vals.shape[:-2] + (-1,))
        return vals, np.take(flat, self._target_at, axis=-1) - combine(self.spec, vals)

    def values(self, stacks):
        """The penalty, mean |V_target - V| over the points, of each set of
        bases stacks[l] in stacks[L, K, n, n], from one broadcast product,
        one ``combine`` and one sum."""
        d = self._values(stacks)[1]
        return (np.abs(d).sum(axis=-1) / d.shape[-1]).tolist()

    def values_and_grads(self, stacks):
        """The penalty of each set of bases stacks[l] in stacks[L, K, n, n],
        as ``values`` gives it, and its subgradient (L, K, n, n) in the
        bases.  Only the live rows, where V_target - V is not 0, move a
        subgradient, so the selection is made on those rows alone, for
        every set at once; each set's sums stay its own."""
        vals, d = self._values(stacks)
        (L, S, K), n = vals.shape, self.X.shape[1]
        pens = (np.abs(d).sum(axis=-1) / S).tolist()
        grads = np.zeros((L, K, n, n))
        live = np.flatnonzero(d != 0.0)  # set l's rows are l * S + point
        if not live.size:
            return pens, grads
        # the subgradient needs a selection on ties too, so no realized_base
        realized = selected_base(self.spec, vals.reshape(-1, K)[live])
        sign, points = np.sign(d.reshape(-1)[live]), live % S
        X, targets, bounds = self.X[points], self.targets[points], np.arange(L + 1) * S
        for k in range(1, K + 1):
            w_t = sign * (targets == k) - sign * (realized == k)
            rows = np.flatnonzero(w_t)
            Xk = X[rows]
            Xw = Xk * w_t[rows, None]
            # one product per set, of its rows alone
            ends = np.searchsorted(live[rows], bounds).tolist()
            for l, (a, b) in enumerate(zip(ends, ends[1:])):
                if b > a:
                    grads[l, k - 1] += Xw[a:b].T @ Xk[a:b]
        return pens, grads / S


@dataclass
class _Walk:
    """One matching repair: its last accepted bases, whether the penalty
    reached zero there, the trial steps spent and the factor of each
    normalization it made, in order; then its descent at those bases:
    the penalty, its subgradient and that one's norm, and the next step."""

    bases: np.ndarray
    ok: bool = False
    spent: int = 0
    factors: list = field(default_factory=list)
    pen: float = 0.0
    G: Optional[np.ndarray] = None
    gnorm: float = 0.0
    step: float = 0.2


def _repair_walks(penalty, starts, max_steps):
    """Subgradient descent on the matching penalty from each start
    starts[w] (W, K, n, n) until it hits zero, as W walks in lockstep;
    returns the walks up to the first that succeeded (all W when none
    did).  A trial that lowers a walk's penalty is taken, its bases
    trace-normalized, and grows the step by 1.5, up to 0.2; any other
    halves it.  A walk fails when the step falls below 1e-9, the
    subgradient vanishes or max_steps trials are spent.

    Each round projects the trials of every live walk (its step and the
    halvings a rejection would take next, _REPAIR_DEPTH in all as far as
    the floor and max_steps allow) on one ``project_psd`` and values them
    on one ``penalty.values``; each walk takes its first trial that lowers
    its penalty, and the walks that moved get their next descent from one
    ``penalty.values_and_grads``.  So every walk is bit for bit the
    one-trial-at-a-time loop from its start.  Walks after one that
    succeeded are dropped, and the rounds end once every walk before it
    has failed."""
    walks = [_Walk(bases=P) for P in starts]
    first = len(walks)  # the first walk that succeeded
    live = moved = list(range(len(walks)))
    while True:
        if moved:
            pens, grads = penalty.values_and_grads(np.stack([walks[w].bases for w in moved]))
            squares = (grads * grads).reshape(len(moved), grads.shape[1], -1).sum(axis=-1)
            for w, pen, G, sq in zip(moved, pens, grads, squares.tolist()):
                walk = walks[w]
                walk.pen, walk.G, walk.gnorm = pen, G, math.sqrt(sum(sq))
                if pen == 0.0:
                    walk.ok, first = True, min(first, w)
        live = [
            w
            for w in live
            if w < first
            and walks[w].spent < max_steps
            and walks[w].gnorm != 0.0
            and walks[w].step >= 1e-9
        ]
        if not live:
            return walks[: first + 1]
        steps, trials = [], []
        for w in live:
            walk = walks[w]
            ss = [walk.step]
            while len(ss) < min(_REPAIR_DEPTH, max_steps - walk.spent) and ss[-1] * 0.5 >= 1e-9:
                ss.append(ss[-1] * 0.5)
            steps.append(ss)
            trials.append(walk.bases - (np.array(ss) / walk.gnorm)[:, None, None, None] * walk.G)
        trials = np.concatenate(trials)
        n = trials.shape[-1]
        trials = project_psd(trials.reshape(-1, n, n), floor=1e-6).reshape(trials.shape)
        values = penalty.values(trials)
        moved, at = [], 0
        for w, ss in zip(live, steps):
            walk = walks[w]
            for trial, value in zip(trials[at : at + len(ss)], values[at : at + len(ss)]):
                walk.spent += 1
                if value < walk.pen:
                    c = _trace_scale(trial)
                    walk.bases = trial if c is None else c * trial
                    walk.factors += [] if c is None else [c]
                    walk.step = min(0.2, walk.step * 1.5)
                    moved.append(w)
                    break
                walk.step *= 0.5  # below 1e-9 the walk has failed
                if walk.step < 1e-9:
                    break
            at += len(ss)


def _basis_step(penalty, cand, G, etas, width):
    """Move ``cand``'s bases to the first of bases - eta G, eta in etas,
    that the matching repair (at most 20 trials) takes to zero penalty
    once projected and trace-normalized, and on to the repair's iterate;
    its multipliers are scaled by every normalization of the attempts up
    to that one, as the one-attempt-at-a-time loop leaves them.  Without
    a penalty the first attempt succeeds; when none does, ``cand`` is
    left as it was.  Returns whether one did and the attempts made.

    The attempts share only the multipliers, so they run as batches of
    lockstep walks (``_repair_walks``): ``width`` of them, then twice as
    many while every walk of a batch fails.  The width sets how the work
    is batched, never the result."""
    saved, factors, done = np.stack(cand.matrices), [], 0
    width = max(1, width)
    while done < len(etas):
        batch = np.array(etas[done : done + width])
        starts = project_psd(
            (saved - batch[:, None, None, None] * G).reshape(-1, *G.shape[1:]), floor=1e-6
        ).reshape(len(batch), *G.shape)
        scales = [_trace_scale(P) for P in starts]
        starts = np.stack([P if c is None else c * P for c, P in zip(scales, starts)])
        if penalty is None:
            walks = [_Walk(starts[0], ok=True)]
        else:
            walks = _repair_walks(penalty, starts, 20)
        for c, walk in zip(scales, walks):
            factors += ([] if c is None else [c]) + walk.factors
        done += len(walks)
        if walks[-1].ok:
            cand.matrices = list(walks[-1].bases)
            cand.multipliers = _scaled_multipliers(cand.multipliers, factors)
            return True, done
        width *= 2
    return False, done


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
        except np.linalg.LinAlgError:  # two eigenvalues of A sum to zero
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

    Blocks: (a) multipliers by golden-section coordinate descent, convex
    for fixed bases, with every group's section in lockstep on stacked
    solves (``_optimize_multipliers``); (b) basis matrices by projected
    subgradient on the worst inequality's top eigenvalue, with a
    positive-definite floor and trace normalization, each step repaired
    onto the structure match by descent on the matching penalty
    (``_basis_step``).  A basis step tries eta, eta / 4, eta / 16, ...
    until a repair succeeds; its attempts run as lockstep repair walks
    on stacked solves (``_repair_walks``), as many at first as the last
    basis step needed, and every iterate is the one-attempt-at-a-time
    loop's, bit for bit.  Multi-start, budget-bounded.  Failure is a
    report, not an error: the inequalities are bilinear and a miss does
    not prove infeasibility.  With as many bases as modes, mode i is
    steered to base i; otherwise every permutation is paired with every
    mode.  The budget is tested before any candidate is built, so a zero
    budget returns not-found after 0 rounds at once.
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

    width = 1  # walks per basis step: the attempts the last one needed

    def repair_matching(cand):
        """The one-walk repair of ``cand`` in place (at most 120 trials):
        whether it reached zero penalty."""
        if penalty is None:
            return True
        (walk,) = _repair_walks(penalty, np.stack(cand.matrices)[None], 120)
        cand.matrices = list(walk.bases)
        cand.multipliers = _scaled_multipliers(cand.multipliers, walk.factors)
        return walk.ok

    def optimize_rounds(cand):
        nonlocal rounds_done, width
        for round_no in range(SEARCH_ROUNDS):
            rounds_done += 1
            if spent():
                return
            cand.multipliers.update(
                zip((g.key for g in groups), _optimize_multipliers(sys, cand, groups, sweeps=2))
            )
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
                etas, eta = [], step0 / gnorm
                while eta * gnorm > 1e-9:
                    etas.append(eta)
                    eta *= 0.25
                accepted, width = _basis_step(penalty, cand, np.stack(grads), etas, width)
                if not accepted:
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
            if not ces:
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
    hulls = [GradientHull.of(basis, v, act) for v, act in zip(factors.vs, sets)]
    # wraps: line pos borders chain positions pos-1 and pos
    modes = [(factors.order[pos - 1], factors.order[pos]) for pos in range(sys.M)]
    kinks = [pos for pos in range(sys.M) if len(hulls[pos].indices) > 1]
    found = lie_sets(
        [hulls[pos].vertices for pos in kinks],
        [[sys.field(i, factors.vs[pos]) for i in modes[pos]] for pos in kinks],
        policy,
    )
    lies = dict(zip(kinks, found))
    entries = []
    for pos in range(sys.M):
        kind, vertices, worst = "smooth", (), None
        if pos in lies:
            lam, lie = lies[pos]
            kind, vertices = lam.kind, lam.vertices
            worst = None if lie.empty else lie.hi
        entries.append(
            PlanarEntry(
                position=pos + 1,
                v=factors.vs[pos],
                modes=modes[pos],
                alpha=hulls[pos].indices,
                lam_kind=kind,
                lam_vertices=vertices,
                margin=worst,
                ok=worst is None or worst < -policy.margin,
            )
        )
    return PlanarReport(entries=entries)


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
            return without_candidate(spec, policy, result.message)
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

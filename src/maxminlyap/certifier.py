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
candidate are nonsmooth.  ``certify`` tries its procedures (vacuous,
planar, two-mode) in a fixed order on the switching geometry of
``inclusion``, and keeps why each one it passed over did not apply.

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
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .inclusion import (
    ExclusionReport, _require_linear_conic, cone_chain, sliding_exclusion, unproven_cover,
)
from .maxmin import (
    MAX_BASES,
    ActiveSet,
    MaxMinSpec,
    QuadraticBasis,
    active_sets,
    all_permutations,
    realized_base,
    selected_base,
)
from .numkernel import (
    _eig_built, _project_built, as_symmetric, negdef_margin, positive_definite, row_norms,
    solve_lyapunov, sphere_points,
)
from .policy import DEFAULT_POLICY
from .setderiv import lie_sets

MATCHING_SAMPLES = 2000  # unit directions behind a derived matching

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

    The stacks built from the groups are solved unchecked
    (``_eig_built``), and a system built in code from ``Mode`` checks no
    Q, so each mode's cone matrix is checked here, as
    ``parse_config`` and ``SwitchedSystem.from_config`` check it.
    """
    perms = all_permutations(spec.K)
    # the phi table: the base selected on the ranks of each ordering
    phis = dict(zip(perms, selected_base(spec, np.argsort(perms, axis=1)).tolist()))
    groups = []
    for mode in sys.modes:
        i = mode.index
        if mode.Q is not None:
            as_symmetric(mode.Q, f"Q{i}")
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


def _pencils(sys, cand, groups):
    """Every group's matrix apart from its multipliers, as one stack, and
    the coefficients that weigh it: heads M0[G, n, n] = A^T F + F A; terms
    T[G, T, n, n], the differences P_u - P_w of the group's ordering
    terms, then Q where it has a cone term, then zero; and Y[G, T], the
    group's multipliers on its own terms and -0.0 past them (a beta
    without a cone term weighs nothing)."""
    n, P = sys.dim, cand.matrices
    counts = [len(g.diffs) + g.cone for g in groups]
    heads = np.empty((len(groups), n, n))
    terms = np.zeros((len(groups), max(counts, default=0), n, n))
    Y = np.full(terms.shape[:2], -0.0)
    for j, (g, count) in enumerate(zip(groups, counts)):
        mode, F = sys.modes[g.mode - 1], P[g.phi_index - 1]
        heads[j] = mode.A.T @ F + F @ mode.A
        for t, (u, w) in enumerate(g.diffs):
            terms[j, t] = P[u - 1] - P[w - 1]
        if g.cone:
            terms[j, count - 1] = mode.Q
        Y[j, :count] = cand.multipliers_for(g)[:count]
    return heads, terms, Y


def _pencil_sum(M, terms, Y):
    """M + sum_t Y[:, t] T[:, t] over the slots of terms[G, T, n, n] (a
    slot range is a slice of terms and Y), summed left to right: every
    condition (i) matrix.  A padded slot adds -0.0 * 0, exactly nothing."""
    for t in range(terms.shape[1]):
        M = M + Y[:, t, None, None] * terms[:, t]
    return M


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
    # every counted (mode, base) pair once, sorted by mode, then base: the
    # keys are small, so a count per key finds them in one pass
    pairs = np.flatnonzero(np.bincount(owner[counted] * (spec.K + 1) + base[counted]))
    modes, bases = np.divmod(pairs, spec.K + 1)
    observed = {m.index: tuple(bases[modes == m.index].tolist()) for m in sys.modes}
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


def _validate_candidate(cand, K, dim):
    """S-procedure soundness needs K positive-definite dim x dim bases
    and finite, nonnegative multipliers; reject anything else outright.
    Condition (i)'s stacks are built from these parts and solved
    unchecked (``_group_eigs``)."""
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
        if not all(math.isfinite(y) for y in ys):
            raise InvalidInputError(f"non-finite multiplier in group {key}")
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


def _group_eigs(sys, cand, groups):
    """The eigen-solve of every group's matrix, in one stack.  Its parts
    are checked (validated bases and multipliers, the cone matrices that
    ``build_groups`` checks, or the search's own iterates), so the stack is
    solved unchecked; a non-finite A reaches ``eig_sym``'s refusal."""
    return _eig_built(_pencil_sum(*_pencils(sys, cand, groups)))


def _margins(sys, cand, groups):
    """Every group's margin, from one stacked solve."""
    return _group_eigs(sys, cand, groups).eigenvalues[:, -1].tolist()


# ---------------------------------------------------------------------------
# multiplier completion (convex in the multipliers for fixed P)


GOLDEN_STEPS = 40  # golden-section steps per multiplier slot
LOOKAHEAD = 3  # golden-section steps whose possible probes share one solve
_REPAIR_DEPTH = 3  # matching-repair step halvings whose trials share one solve
_PHI_R = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_children(a, b, c, d):
    """The two golden-section steps of the bracket [a, b] with probes
    c < d, the one that keeps [a, d] (taken when the margin at c is at
    most the one at d) and the one that keeps [c, b]: each as its new
    (a, b, c, d) and the probe that needs a margin (the new c or d)."""
    left = d - _PHI_R * (d - a)
    right = c + _PHI_R * (b - c)
    return ((a, d, left, c), left), ((c, b, d, right), right)


def _golden_lockstep(margins, starts):
    """For each group i, the minimiser on [0, hi] of its margin as a
    function of its slot's value, after GOLDEN_STEPS golden-section
    steps (Kiefer 1953), where hi starts at max(10, 4|starts[i]| + 1)
    and grows by 4 while the margin at hi is below the one at hi / 2,
    up to 1e6.

    Every group takes the same steps in lockstep, so each solve serves
    them all: ``margins`` takes a probe table V[G, r], row i holding
    group i's probes, and returns their margins as a (G, r) array.  The
    tables are (hi, hi / 2) per bracket test, read only by the groups
    still growing; the opening pair; and per LOOKAHEAD steps the
    2^k - 1 probes those k steps can ask for, level l's 2^l at
    2^l - 1 + position.  The last step's probe is never read, so it is
    not solved.  Each group's bracket stays on Python floats and ends
    bit for bit where a one-group search would."""
    his = [max(10.0, 4.0 * abs(x) + 1.0) for x in starts]
    grow = [hi < 1e6 for hi in his]
    while any(grow):
        m = margins(np.array([(hi, hi / 2.0) for hi in his])).tolist()
        grow = [g and at_hi < at_half for g, (at_hi, at_half) in zip(grow, m)]
        his = [4.0 * hi if g else hi for g, hi in zip(grow, his)]
        grow = [g and hi < 1e6 for g, hi in zip(grow, his)]
    brackets = [(0.0, hi, hi - _PHI_R * hi, _PHI_R * hi) for hi in his]
    values = margins(np.array([br[2:] for br in brackets])).tolist()
    for done in range(0, GOLDEN_STEPS - 1, LOOKAHEAD):
        k = min(LOOKAHEAD, GOLDEN_STEPS - 1 - done)
        # a tree of the (bracket, probe) pairs the k steps can reach, in
        # breadth-first order: node q's two steps are nodes 2q + 1 and
        # 2q + 2; only the first step's side is known before the solve
        trees = []
        for br, (fc, fd) in zip(brackets, values):
            tree = [_golden_children(*br)[not fc <= fd]]
            for q in range(2 ** (k - 1) - 1):
                tree += _golden_children(*tree[q][0])
            trees.append(tree)
        m = margins(np.array([[x for _, x in tree] for tree in trees]))
        for i, (tree, row) in enumerate(zip(trees, m.tolist())):
            fc, fd = values[i]
            left, q = fc <= fd, 0
            for _ in range(k):
                fc, fd = (row[q], fc) if left else (fd, row[q])
                brackets[i], left = tree[q][0], fc <= fd
                q = 2 * q + 1 + (not left)
            values[i] = (fc, fd)
    last = [_golden_children(*br)[not fc <= fd][0] for br, (fc, fd) in zip(brackets, values)]
    return [0.5 * (a + b) for a, b, _, _ in last]


def _optimize_multipliers(sys, cand, groups, sweeps=3):
    """One multiplier tuple per group by coordinate descent on the slots
    that weigh a term: the taus, then beta where the group has a cone
    term (an inert beta stays as it is).  For fixed bases a margin is
    convex in each scalar, so each slot takes a golden section, run for
    every group that has the slot in lockstep (``_golden_lockstep``).
    A slot's probe table V[G, r] is solved as one (G, r, n, n) stack:
    the sum of the terms before the slot, the slot's term and the
    weighted terms after it, each formed once per slot and sweep,
    broadcast over the probe axis, so probe j of group i is its
    pencil sum with V[i, j] in the slot."""
    heads, terms, Y = _pencils(sys, cand, groups)
    counts = np.array([len(g.diffs) + g.cone for g in groups], dtype=int)
    n = terms.shape[-1]
    for _ in range(sweeps):
        for s in range(terms.shape[1]):
            live = np.flatnonzero(counts > s)
            T, Ys = terms[live], Y[live]
            first = _pencil_sum(heads[live], T[:, :s], Ys[:, :s])[:, None]
            slot = T[:, None, s]
            # each weighted term is the product _pencil_sum forms, added in its order
            rest = [(Ys[:, t, None, None] * T[:, t])[:, None] for t in range(s + 1, T.shape[1])]

            def margins(V):
                X = first + V[:, :, None, None] * slot
                for term in rest:
                    X = X + term
                return _eig_built(X.reshape(-1, n, n)).eigenvalues[:, -1].reshape(V.shape)

            Y[live, s] = _golden_lockstep(margins, Y[live, s].tolist())
    return [
        (*ys[:c].tolist(), *cand.multipliers_for(g)[c:]) for g, c, ys in zip(groups, counts, Y)
    ]


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
    """The search's wall-clock budget in seconds (not negative, not NaN)
    and the seed of its starts and samples (an integer, not negative:
    numpy's generators take no other)."""

    time_budget: float = 50.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidInputError(
                f"search seed must be an integer, not negative, got {self.seed!r}"
            )
        if not self.time_budget >= 0.0:
            raise InvalidInputError(
                f"search time budget must not be negative or NaN, got {self.time_budget!r}"
            )


@dataclass
class SearchResult:
    candidate: Optional[Candidate]
    report: Optional[ConditionIReport]
    found: bool
    rounds: int
    elapsed: float
    message: str = ""


def _margin_subgradients(sys, cand, groups, s):
    """Worst group margin (the first on a tie) and the gradient of that
    group's top eigenvalue w.r.t. each P, one (K, n, n) stack, from
    ``s``, the groups' stacked solve (``_group_eigs``)."""
    j = int(np.argmax(s.eigenvalues[:, -1]))
    group = groups[j]
    v = s.eigenvectors[j, :, -1]
    A = sys.modes[group.mode - 1].A
    grads = np.zeros(np.shape(cand.matrices))
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
    cand.matrices = list(c * Ps)
    cand.multipliers = _scaled_multipliers(cand.multipliers, [c])
    return cand


def _trace_scale(Ps):
    """The factor that takes the average trace of the bases Ps[K, n, n]
    to n.  Their trace sum is positive: the search's starts are positive
    definite, and its trials are projected onto eigenvalues >= 1e-6."""
    return len(Ps) * Ps.shape[-1] / sum(Ps.trace(axis1=1, axis2=2).tolist())


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

    V is reduced with ``np.minimum`` over each family's members and
    ``np.maximum`` over the families, in ``combine``'s order, each value
    against the running one, and every penalty and subgradient is bit
    for bit the one ``combine``'s ``np.where`` chain gives
    (``tests/certifier_reference.py``) on any platform: the base values
    are finite (the bases are validated starts or projections that
    refuse a non-finite solve, the points are unit vectors), two equal
    nonzero floats have one bit pattern, and a tie of +0.0 and -0.0 can
    only flip the sign of a zero V, which decides none of the penalty
    |V_target - V|, the live rows V_target - V != 0 or the signs of
    their nonzero gaps.
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
        V = None
        for fam in self.spec.families:
            fv = vals[..., fam[0] - 1]
            for k in fam[1:]:
                fv = np.minimum(vals[..., k - 1], fv)
            V = fv if V is None else np.maximum(fv, V)
        return vals, np.take(flat, self._target_at, axis=-1) - V

    def values(self, stacks):
        """The penalty, mean |V_target - V| over the points, of each set of
        bases stacks[l] in stacks[L, K, n, n], from one broadcast product,
        one reduction to V and one sum."""
        d = self._values(stacks)[1]
        return (np.abs(d).sum(axis=-1) / d.shape[-1]).tolist()

    def values_and_grads(self, stacks):
        """The penalty of each set of bases stacks[l] in stacks[L, K, n, n],
        as ``values`` gives it, and its subgradient (L, K, n, n) in the
        bases.  Only the live rows, where V_target - V is not 0, move a
        subgradient, so the selection is made on those rows alone, for
        every set at once, and so is the weight table W[k - 1, row] =
        sign [target = k] - sign [realized = k], exact in {-1, 0, 1}.
        Base k's gradient sums its rows of nonzero weight, per set; each
        set's sums stay its own."""
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
        at = np.arange(live.size)
        W = np.zeros((K, live.size))
        W[self.targets[points] - 1, at] = sign
        W[realized - 1, at] -= sign
        X, bounds = self.X[points], np.arange(L + 1) * S
        for k, w in enumerate(W):
            rows = np.flatnonzero(w)
            if not rows.size:
                continue
            Xk = X[rows]
            Xw = Xk * w[rows, None]
            # one product per set, of its rows alone
            ends = np.searchsorted(live[rows], bounds).tolist()
            for l, (a, b) in enumerate(zip(ends, ends[1:])):
                if b > a:
                    grads[l, k] += Xw[a:b].T @ Xk[a:b]
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

    Each round builds one trial table, a row per live walk: its step and
    the halvings a rejection would take next, step * 0.5^j for j below
    _REPAIR_DEPTH (exact, as every step is at least 1e-9).  The table is
    projected on one ``project_psd``, unchecked (its bases are the walks'
    own projected ones), and valued on one ``penalty.values``; each walk
    reads its row up to its first trial that lowers its penalty, and no
    further than max_steps and the step floor allow, and the walks that
    moved get their next descent from one ``penalty.values_and_grads``.
    So every walk is bit for bit the one-trial-at-a-time loop from its
    start.  Walks after one that succeeded are dropped, and the rounds
    end once every walk before it has failed."""
    walks = [_Walk(bases=P) for P in starts]
    first = len(walks)  # the first walk that succeeded
    live = moved = list(range(len(walks)))
    while True:
        if moved:
            pens, grads = penalty.values_and_grads(np.array([walks[w].bases for w in moved]))
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
        rows = [walks[w] for w in live]
        rates = [[walk.step * 0.5**j / walk.gnorm for j in range(_REPAIR_DEPTH)] for walk in rows]
        bases = np.array([walk.bases for walk in rows])[:, None]
        G = np.array([walk.G for walk in rows])[:, None]
        trials = bases - np.array(rates)[..., None, None, None] * G
        W, D, K, n, _ = trials.shape
        trials = _project_built(trials.reshape(-1, n, n), 1e-6).reshape(W, D, K, n, n)
        values = np.array(penalty.values(trials.reshape(-1, K, n, n))).reshape(W, D).tolist()
        moved = []
        for w, walk, row, vals in zip(live, rows, trials, values):
            for trial, value in zip(row[: max_steps - walk.spent], vals):
                walk.spent += 1
                if value < walk.pen:
                    c = _trace_scale(trial)
                    walk.bases = c * trial
                    walk.factors.append(c)
                    walk.step = min(0.2, walk.step * 1.5)
                    moved.append(w)
                    break
                walk.step *= 0.5  # below 1e-9 the walk has failed
                if walk.step < 1e-9:
                    break


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
        starts = _project_built(
            (saved - batch[:, None, None, None] * G).reshape(-1, *G.shape[1:]), 1e-6
        ).reshape(len(batch), *G.shape)
        scales = [_trace_scale(P) for P in starts]
        starts = np.stack([c * P for c, P in zip(scales, starts)])
        if penalty is None:
            walks = [_Walk(starts[0], ok=True)]
        else:
            walks = _repair_walks(penalty, starts, 20)
        for c, walk in zip(scales, walks):
            factors += [c] + walk.factors
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
    budget returns not-found after 0 rounds at once.  A not-found
    message names the limit that ended the search: the budget, or the
    SEARCH_STARTS starts, all failed within it.
    """
    _require_linear_conic(sys)
    opts = opts or SearchOptions()
    matching = {m.index: m.index for m in sys.modes} if sys.M == spec.K else None
    groups = build_groups(sys, spec, matching)
    t0 = time.monotonic()
    rounds_done = 0

    def spent():
        return time.monotonic() - t0 >= opts.time_budget

    def not_found(limit="budget exhausted"):
        return SearchResult(
            candidate=None,
            report=None,
            found=False,
            rounds=rounds_done,
            elapsed=time.monotonic() - t0,
            message=f"{limit} without a verified candidate "
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
            # one solve serves the margin test and the first subgradient
            solved = _group_eigs(sys, cand, groups)
            if max(solved.eigenvalues[:, -1].tolist()) <= -SEARCH_FLOOR:
                return
            # margin descent restricted to the matched set: a step that
            # breaks the matching is repaired or rolled back and shrunk
            step0 = 0.25 / (1.0 + round_no / 6.0)
            for step in range(SEARCH_P_STEPS):
                if step:  # the accepted basis step moved the bases
                    solved = _group_eigs(sys, cand, groups)
                worst_margin, grads = _margin_subgradients(sys, cand, groups, solved)
                if worst_margin <= -SEARCH_FLOOR:
                    break
                gnorm = np.sqrt(sum(float(np.sum(G * G)) for G in grads))
                if gnorm == 0.0:
                    break
                etas, eta = [], step0 / gnorm
                while eta * gnorm > 1e-9:
                    etas.append(eta)
                    eta *= 0.25
                accepted, width = _basis_step(penalty, cand, grads, etas, width)
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
            return not_found()
    return not_found(f"all {SEARCH_STARTS} starts failed within the budget")


# ---------------------------------------------------------------------------
# planar condition (ii)


@dataclass
class PlanarEntry:
    position: int
    v: np.ndarray
    modes: tuple  # (previous mode, next mode) adjacent to this line
    hull: ActiveSet  # the active bases at v, with their gradient vertices
    lam_kind: str
    lam_vertices: tuple
    margin: Optional[float]
    ok: bool


@dataclass
class PlanarReport:
    entries: list
    warnings: dict = field(default_factory=dict)  # active-set warning -> lines that gave it

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
    hulls = active_sets(spec, basis, np.array(factors.vs), policy)
    warnings = dict(Counter(act.warning for act in hulls if act.warning))
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
                hull=hulls[pos],
                lam_kind=kind,
                lam_vertices=vertices,
                margin=worst,
                ok=worst is None or worst < -policy.margin,
            )
        )
    return PlanarReport(entries=entries, warnings=warnings)


# ---------------------------------------------------------------------------
# two-mode condition (ii) in R^n


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
    cond_ii_kind: str  # "vacuous" | "planar" | "two-mode" | "unchecked"
    cond_ii: object
    verdict: str
    policy: object
    notes: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (kind, reason) of each skipped procedure


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


def _condition_ii(sys, spec, cand, policy):
    """Condition (ii) by the first of vacuous, planar and two-mode that
    applies, as (kind, report, skipped); kind is "unchecked" when none
    does.  skipped holds the (kind, reason) of each one passed over; the
    two-mode procedure refuses other systems itself, its error the reason.
    The vacuous case needs the regions proven to cover R^n
    (``unproven_cover``): a point in no region closure has no Filippov
    set, so the system would say nothing there."""
    reason = f"{spec.K} bases and {sys.M} modes"
    if spec.K == 1 or sys.M == 1:
        reason = unproven_cover(sys)
        if reason is None:
            # a single base is C^1, a single mode has no switching surface;
            # either way the nonsmooth-times-multivalued case is empty
            return "vacuous", None, []
    skipped = [("vacuous", reason)]
    if sys.dim == 2 and all(m.region_kind == "cone" for m in sys.modes):
        return "planar", planar_condition_ii(sys, spec, cand, policy), skipped
    skipped.append(("planar", f"dimension {sys.dim}" if sys.dim != 2 else "a non-conic region"))
    try:
        return "two-mode", check_condition_ii_2mode(sys, spec, cand, policy), skipped
    except InvalidInputError as err:
        return "unchecked", None, skipped + [("two-mode", str(err))]


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

    Condition (ii) is vacuous for one base or one mode only when the
    regions provably cover R^n: a whole-space region, a cone with
    positive definite Q, two opposite cones +/-Q, or planar cones that
    tile (a planar gap, or one planar cone whose Q is not positive
    definite, is a PartitionError).
    Otherwise the planar and two-mode procedures are tried, and without
    one that applies the verdict is condition-i-only.
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
            cand = complete_multipliers(sys, cand, cond_i, policy)
            if not cond_i.ok:
                # groups and matching depend on the bases alone, not on the
                # multipliers; with every margin strict nothing was completed
                cond_i = replace(cond_i, margins=_margins(sys, cand, cond_i.groups))
    if cond_i.matching is None:
        notes.append("pairing: all permutations against every mode")
    else:
        notes.append(
            "pairing: matched (mode -> base "
            + ", ".join(f"{i}->{f}" for i, f in sorted(cond_i.matching.items()))
            + f"; validated on {cond_i.evidence.get('samples', 0)} samples)"
        )

    kind, cond_ii, skipped, verdict = "unchecked", None, [], VERDICT_NOT_CERTIFIED
    if cond_i.ok:
        kind, cond_ii, skipped = _condition_ii(sys, spec, cand, policy)
        if kind == "vacuous":
            notes.append("condition (ii) vacuous (single base or single mode)")
        elif kind == "unchecked":
            notes += [f"condition (ii) unchecked: {k}: {reason}" for k, reason in skipped]
        proved = kind == "vacuous" or (cond_ii is not None and cond_ii.ok)
        verdict = VERDICT_GAS if proved else VERDICT_COND_I_ONLY
    return Certificate(
        candidate=cand,
        spec=spec,
        cond_i=cond_i,
        cond_ii_kind=kind,
        cond_ii=cond_ii,
        verdict=verdict,
        policy=policy,
        notes=notes,
        skipped=skipped,
    )

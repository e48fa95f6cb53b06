"""One-at-a-time forms of the condition (i) search, kept as references
for the tests: a group's matrix summed term by term from the candidate;
each group's multiplier descent on its own, with one golden-section
step and one eigen-solve at a time; the matching penalty's gaps with V
from ``combine``, the penalty of one set of bases, and its subgradient
from every row; the matching repair with one trial step per solve; and
the basis step with one attempt at a time."""

import numpy as np

from maxminlyap.certifier import Candidate
from maxminlyap.maxmin import combine, selected_base
from maxminlyap.numkernel import negdef_margin, project_psd


def ref_group_matrix(sys, cand, group):
    """The group matrix summed term by term from the candidate, as built
    before the multiplier pencil."""
    P = cand.matrices
    A = sys.modes[group.mode - 1].A
    F = P[group.phi_index - 1]
    M = A.T @ F + F @ A
    *taus, beta = cand.multipliers_for(group)
    for tau, (u, w) in zip(taus, group.diffs):
        M = M + tau * (P[u - 1] - P[w - 1])
    Q = sys.modes[group.mode - 1].Q
    if Q is not None:
        M = M + beta * Q
    return M


def golden_min(f, lo, hi):
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


def optimize_group_multipliers(sys, cand, group, sweeps=3):
    """Coordinate descent on the group's multiplier tuple, the tau slots
    then beta where the group has a cone term (an inert beta stays);
    margin is convex in each scalar, so golden-section per coordinate
    converges cleanly."""
    slots = list(cand.multipliers_for(group))

    def margin_at(xs):
        trial = Candidate(matrices=cand.matrices, multipliers={group.key: tuple(xs)})
        return negdef_margin(ref_group_matrix(sys, trial, group))

    for _ in range(sweeps):
        for slot in range(len(group.diffs) + group.cone):

            def f(v, slot=slot):
                return margin_at(slots[:slot] + [v] + slots[slot + 1 :])

            hi = max(10.0, 4.0 * abs(slots[slot]) + 1.0)
            while f(hi) < f(hi / 2.0) and hi < 1e6:
                hi *= 4.0
            slots[slot] = golden_min(f, 0.0, hi)
    return tuple(slots)


def penalty_gaps(penalty, stacks):
    """Base values (..., S, K) at the penalty's points, and V_target - V
    there (..., S), of the bases stacks[..., K, n, n], with V from
    ``combine``'s ``np.where`` chain: the form whose bits the penalty's
    ``np.minimum`` / ``np.maximum`` reduction must give."""
    i, j = penalty._upper
    Ps = np.asarray(stacks)
    vals = penalty._gram @ (0.5 * (Ps[..., i, j] + Ps[..., j, i])).swapaxes(-1, -2)
    flat = vals.reshape(vals.shape[:-2] + (-1,))
    return vals, np.take(flat, penalty._target_at, axis=-1) - combine(penalty.spec, vals)


def penalty_value(penalty, matrices):
    """The matching penalty of one set of bases: the one-candidate
    ``values``."""
    return penalty.values([matrices])[0]


def value_and_grads(penalty, matrices):
    """The matching penalty and its subgradient in each base, with the
    selection made on every row."""
    K = len(matrices)
    n = matrices[0].shape[0]
    X = penalty.X
    vals, d = penalty_gaps(penalty, matrices)
    pen = float(np.abs(d).sum()) / len(d)
    realized = selected_base(penalty.spec, vals)
    grads = [np.zeros((n, n)) for _ in range(K)]
    sign = np.sign(d)
    active = sign != 0.0
    if np.any(active):
        for k in range(1, K + 1):
            w_t = sign * (penalty.targets == k) - sign * (realized == k)
            rows = w_t != 0.0
            if np.any(rows):
                Xw = X[rows] * w_t[rows, None]
                grads[k - 1] += Xw.T @ X[rows]
        grads = [G / len(X) for G in grads]
    return pen, grads


def normalize(cand):
    """Rescale ``cand`` so its average basis trace is the dimension, the
    multipliers with it: the factor in a list, or none when the trace
    sum is not positive."""
    total = sum(float(np.trace(P)) for P in cand.matrices)
    if total <= 0:
        return []
    c = len(cand.matrices) * cand.matrices[0].shape[0] / total
    cand.matrices = [c * P for P in cand.matrices]
    cand.multipliers = {k: tuple(c * y for y in ys) for k, ys in cand.multipliers.items()}
    return [c]


def repair_matching(penalty, cand, max_steps):
    """The matching repair one trial step at a time: whether the penalty
    hit zero, the number of trials spent, and the factor of each
    normalization of an accepted trial, in order."""
    factors = []

    def descent(matrices):
        pens, grads = penalty.values_and_grads(np.stack(matrices)[None])
        gnorm = np.sqrt(sum(float(np.sum(G * G)) for G in grads[0]))
        return pens[0], gnorm, np.stack(matrices), grads[0]

    pen, gnorm, base, G = descent(cand.matrices)
    step = 0.2
    for spent in range(max_steps):
        if pen == 0.0:
            return True, spent, factors
        if gnorm == 0.0:
            return False, spent, factors
        trial = list(project_psd(base - (step / gnorm) * G, floor=1e-6))
        if penalty_value(penalty, trial) < pen:
            cand.matrices = trial
            factors += normalize(cand)
            pen, gnorm, base, G = descent(cand.matrices)
            step = min(0.2, step * 1.5)
        else:
            step *= 0.5
            if step < 1e-9:
                return False, spent + 1, factors
    return pen == 0.0, max_steps, factors


def basis_step(penalty, cand, G, etas):
    """The search's basis step one attempt at a time: whether an attempt's
    repair (at most 20 trials) reached zero penalty, and the number of
    attempts made.  A failed step restores the bases and multipliers."""
    saved, saved_multipliers = np.stack(cand.matrices), dict(cand.multipliers)
    for attempts, eta in enumerate(etas, start=1):
        cand.matrices = list(project_psd(saved - eta * G, floor=1e-6))
        normalize(cand)
        if repair_matching(penalty, cand, 20)[0]:
            return True, attempts
    cand.matrices, cand.multipliers = list(saved), saved_multipliers
    return False, len(etas)

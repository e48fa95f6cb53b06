"""The batched "which region, which base" kernel against per-point loops.

The reference functions below are the point-by-point loops the batched
code replaced.  Sampled verdicts feed a chaotic search, so every batched
quantity must equal its per-point arithmetic exactly, not approximately.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminlyap import fixtures, maxmin
from maxminlyap.certifier import (
    Candidate,
    _MatchPenalty,
    _basis_step,
    _normalize,
    _repair_walks,
    _scaled_multipliers,
    derive_matching,
)
from maxminlyap.errors import InvalidInputError
from maxminlyap.inclusion import Mode, SwitchedSystem, sliding_exclusion
from maxminlyap.maxmin import (
    EXACT_SMOOTH,
    EXACT_SWEEP,
    LEAD_DIRECTIONS,
    MAX_BASES,
    MAXMIN,
    MINMAX,
    PROBE_ROWS,
    ExprBasis,
    MaxMinSpec,
    QuadraticBasis,
    PERTURBATION_SAMPLED,
    SAMPLED,
    SAMPLED_DIRECTIONS,
    SMOOTH,
    SWEPT,
    _sampled_active,
    active_masks,
    active_sets,
    all_permutations,
    combine,
    dual_families,
    phi,
    realized_base,
    selected_base,
    tie_mask,
)
from maxminlyap.numkernel import project_psd
from maxminlyap.policy import NumericPolicy
from maxminlyap.sysdsl.config import parse_config
from maxminlyap.sysdsl import expr as ex
from certifier_reference import basis_step as ref_basis_step
from certifier_reference import penalty_gaps as combine_gaps
from certifier_reference import penalty_value as ref_penalty_value
from certifier_reference import repair_matching as ref_repair_matching
from certifier_reference import value_and_grads as ref_value_and_grads
import maxmin_reference
from maxmin_reference import equal_value_indices, strict_ordering
from maxmin_reference import realized_base as sorted_realized_base
from expr_text import parse_expr_text

POLICY = NumericPolicy()


# ---------------------------------------------------------------------------
# per-point references


def ref_realized(spec, row):
    rho = strict_ordering(np.asarray(row, dtype=float))
    return 0 if rho is None else phi(spec, rho)


def min_of_max(families, row):
    return min(max(row[k - 1] for k in fam) for fam in families)


def ref_realized_minmax(families, row):
    """The base attaining the min-of-max value, or 0 on any value tie."""
    row = np.asarray(row, dtype=float)
    if strict_ordering(row) is None:
        return 0
    return int(np.flatnonzero(row == min_of_max(families, row))[0]) + 1


def ref_owner(sys, x, threshold):
    strict = [
        m.index
        for m in sys.modes
        if m.region_kind == "all" or m.region_value(x) > threshold
    ]
    return strict[0] if len(strict) == 1 else 0


def ref_derive_matching(sys, matrices, spec, policy):
    basis = QuadraticBasis(matrices)
    rng = np.random.default_rng(policy.seed)
    dirs = rng.standard_normal((2000, sys.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seen = {m.index: set() for m in sys.modes}
    counted = 0
    for x in dirs:
        owner = ref_owner(sys, x, policy.abs_tol)
        base = ref_realized(spec, [float(x @ P @ x) for P in basis.matrices])
        if owner and base:
            seen[owner].add(base)
            counted += 1
    observed = {i: tuple(sorted(s)) for i, s in seen.items()}
    if any(len(s) != 1 for s in observed.values()):
        return None, counted, observed
    return {i: s[0] for i, s in observed.items()}, counted, observed


def ref_min_product(sys, policy, n_samples):
    Q = sys.modes[0].Q
    w_all, vecs = np.linalg.eigh(0.5 * (Q + Q.T))
    pos = [k for k, w in enumerate(w_all) if w > 0]
    neg = [k for k, w in enumerate(w_all) if w < 0]
    QA1, QA2 = Q @ sys.modes[0].A, Q @ sys.modes[1].A
    rng = np.random.default_rng(policy.seed)
    best = np.inf
    for _ in range(n_samples):
        z = np.zeros(sys.dim)
        u = rng.standard_normal(len(pos))
        u /= np.linalg.norm(u)
        w = rng.standard_normal(len(neg))
        w /= np.linalg.norm(w)
        for j, k in enumerate(pos):
            z[k] = u[j] / np.sqrt(2.0 * w_all[k])
        for j, k in enumerate(neg):
            z[k] = w[j] / np.sqrt(-2.0 * w_all[k])
        x = vecs @ z
        x /= np.linalg.norm(x)
        best = min(best, float(x @ QA1 @ x) * float(x @ QA2 @ x))
    return best


def ref_min_product_per_row(sys, policy, n_samples):
    """``sliding_exclusion``'s minimum with its samples mapped onto the
    surface by one matrix-vector product per row."""
    Q = sys.modes[0].Q
    w_all, vecs = np.linalg.eigh(0.5 * (Q + Q.T))
    pos, neg = np.flatnonzero(w_all > 0), np.flatnonzero(w_all < 0)
    UW = np.random.default_rng(policy.seed).standard_normal((n_samples, sys.dim))
    U, W = UW[:, : len(pos)], UW[:, len(pos) :]
    Z = np.zeros((n_samples, sys.dim))
    Z[:, pos] = U / np.sqrt(np.vecdot(U, U))[:, None] / np.sqrt(2.0 * w_all[pos])
    Z[:, neg] = W / np.sqrt(np.vecdot(W, W))[:, None] / np.sqrt(-2.0 * w_all[neg])
    X = (vecs @ Z[:, :, None])[:, :, 0]
    X /= np.sqrt(np.vecdot(X, X))[:, None]
    products = [np.vecdot(X @ (Q @ mode.A), X) for mode in sys.modes]
    return float((products[0] * products[1]).min())


def ref_validate_partition(sys, policy, n_samples):
    rng = np.random.default_rng(policy.seed)
    dirs = rng.standard_normal((n_samples, sys.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    violations = []
    for x in dirs:
        strict, near = [], False
        for mode in sys.modes:
            if mode.region_kind == "all":
                strict.append(mode.index)
                continue
            v = mode.region_value(x)
            if v > policy.abs_tol:
                strict.append(mode.index)
            elif abs(v) <= policy.abs_tol:
                near = True
        if len(strict) > 1 or (not strict and not near):
            violations.append((x, tuple(strict)))
    return violations


def ref_penalty_points(sys, n_per_mode, seed):
    """Penalty points with their target base: the index of the owning mode."""
    points = []
    if sys.dim == 2:
        n_grid = max(720, 8 * n_per_mode)
        for k in range(n_grid):
            t = (k + 0.5) * np.pi / n_grid
            x = np.array([np.cos(t), np.sin(t)])
            owner = ref_owner(sys, x, 0.0)
            if owner:
                points.append((owner, x))
    else:
        rng = np.random.default_rng(seed)
        per_mode = {m.index: 0 for m in sys.modes}
        tries = 0
        want = n_per_mode * sys.M
        while sum(per_mode.values()) < want and tries < 400 * want:
            tries += 1
            x = rng.standard_normal(sys.dim)
            x /= np.linalg.norm(x)
            owner = ref_owner(sys, x, 1e-6)
            if owner and per_mode[owner] < n_per_mode:
                per_mode[owner] += 1
                points.append((owner, x))
    return np.array([x for _, x in points]), np.array([t for t, _ in points])


def ref_selected_base(spec, vals):
    """The per-family gather loop: each family's argmin, then the argmax
    over families."""
    rows = np.arange(len(vals))
    fam_val, fam_idx = [], []
    for fam in spec.families:
        cols = np.array(fam) - 1
        sub = vals[:, cols]
        pos = np.argmin(sub, axis=1)
        fam_val.append(sub[rows, pos])
        fam_idx.append(cols[pos] + 1)
    best = np.argmax(np.stack(fam_val, axis=1), axis=1)
    return np.stack(fam_idx, axis=1)[rows, best]


def ref_penalty_gaps(pen, matrices):
    """Base values, selected base and penalty of ``pen`` from three-operand
    einsum base values, the form the Gram features replaced."""
    X = pen.X
    vals = np.stack([np.einsum("si,ij,sj->s", X, P, X) for P in matrices], axis=1)
    realized = ref_selected_base(pen.spec, vals)
    rows = np.arange(len(X))
    d = vals[rows, pen.targets - 1] - vals[rows, realized - 1]
    return vals, realized, float(np.abs(d).sum()) / len(X)


def ref_residuals(pen, matrices):
    """Penalty, selected base per point and V_target - V there, with V
    read off the selected base's column: ``_MatchPenalty``'s gap from
    ``combine`` must give its bits."""
    vals = pen._values(matrices)[0]
    realized = selected_base(pen.spec, vals)
    rows = np.arange(len(vals))
    d = vals[rows, pen.targets - 1] - vals[rows, realized - 1]
    return float(np.abs(d).sum()) / len(d), realized, d


def ref_sampled_active(spec, basis, x, policy):
    """Indices and warning of the per-point perturbation loop."""
    rng = np.random.default_rng(policy.seed)
    dirs = rng.standard_normal((64, basis.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base_r = policy.rel_tol * max(1.0, float(np.linalg.norm(x)))
    warning = None
    mats = getattr(basis, "matrices", [])
    for i, P in enumerate(mats):
        for j, R in enumerate(mats[i + 1 :], start=i + 1):
            if np.array_equal(P, R):
                warning = f"bases {i + 1} and {j + 1} are identical"
    found = set()
    for mult in (1.0, 2.0, 4.0):
        for d in dirs:
            y = x + base_r * mult * d
            vals = [float(y @ P @ y) for P in mats] if len(mats) else basis.values(y)
            k = ref_realized(spec, vals)
            if k:
                found.add(k)
    if not found:
        found = {equal_value_indices(spec, basis, x, policy)[0][0]}
        warning = warning or "perturbation sampling found no strict ordering"
    return tuple(sorted(found)), warning


def ref_planar_sweep(spec, basis, x, policy):
    """Indices of the per-point angular sweep around x on the circle, or
    None where it cannot decide."""
    roots = basis._circle_roots
    if roots is None:
        return None

    def phi_at(theta):
        return ref_realized(spec, basis.values(np.array([math.cos(theta), math.sin(theta)])))

    if float(np.linalg.norm(x)) <= policy.abs_tol:
        angles = sorted(set(t % math.pi for t in roots))
        if not angles:
            samples = [0.0]
        else:
            samples = []
            ext = angles + [angles[0] + math.pi]
            for lo, hi in zip(ext[:-1], ext[1:]):
                if hi - lo > 1e-12:
                    samples.append(0.5 * (lo + hi))
        found = sorted({phi_at(t) for t in samples} - {0})
        return tuple(found) or None

    theta0 = math.atan2(x[1], x[0])
    dists = [abs(theta0 - t) % math.pi for t in roots]
    gaps = [d for d in (min(d, math.pi - d) for d in dists) if d > 1e-12]
    delta = min(min(gaps) / 2.0 if gaps else math.pi / 16.0, math.pi / 16.0)
    for _ in range(40):
        left, right = phi_at(theta0 - delta), phi_at(theta0 + delta)
        if left and right:
            return tuple(sorted({left, right}))
        delta /= 2.0
    return None


def ref_active(spec, basis, x, policy):
    """(indices, method, warning) of the per-point active-set chain."""
    ties, _ = equal_value_indices(spec, basis, x, policy)
    if len(ties) == 1:
        return ties, EXACT_SMOOTH, None
    if isinstance(basis, QuadraticBasis) and basis.dim == 2:
        swept = ref_planar_sweep(spec, basis, x, policy)
        if swept is not None:
            return swept, EXACT_SWEEP, None
    indices, warning = ref_sampled_active(spec, basis, x, policy)
    return indices, PERTURBATION_SAMPLED, warning


# ---------------------------------------------------------------------------
# the kernel itself


@st.composite
def specs_and_values(draw, signed=(0.0, -0.0)):
    K = draw(st.integers(1, 5))
    fam = st.sets(st.integers(1, K), min_size=1).map(lambda s: tuple(sorted(s)))
    families = tuple(draw(st.lists(fam, min_size=1, max_size=4)))
    spec = MaxMinSpec(K=K, families=families, polarity=draw(st.sampled_from([MAXMIN, MINMAX])))
    # few distinct values make ties (and identical columns) common; the
    # signed zeros (and infinities, where given) tie without being the
    # same float
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.sampled_from(signed),
        st.floats(-10, 10, allow_nan=False),
    )
    rows = draw(st.lists(st.lists(value, min_size=K, max_size=K), min_size=1, max_size=12))
    return spec, np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(specs_and_values())
def test_realized_base_matches_strict_ordering_and_phi(case):
    spec, vals = case
    got = realized_base(spec, vals)
    assert got.tolist() == [ref_realized(spec, row) for row in vals]


_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7e308, -1.7e308)


@settings(max_examples=400, deadline=None)
@given(specs_and_values(signed=_EDGE_VALUES))
def test_realized_base_decides_ties_as_the_sorted_rule(case):
    # pairwise == on the finite values against the sorted gaps, which
    # read equal infinities (inf - inf is nan) and nan as untied
    spec, vals = case
    assert realized_base(spec, vals).tolist() == sorted_realized_base(spec, vals).tolist()


def test_realized_base_edge_rows():
    spec = MaxMinSpec(K=3, families=((1, 2), (3,)))
    inf, nan = math.inf, math.nan
    rows = [
        [0.0, -0.0, 1.0],
        [inf, inf, 1.0],
        [-inf, -inf, 1.0],
        [nan, nan, 1.0],
        [nan, 1.0, 1.0],
        [inf, 2.0, 2.0],
        [inf, -inf, nan],
        [5e-324, -5e-324, 0.0],
    ]
    vals = np.array(rows)
    assert realized_base(spec, vals).tolist() == sorted_realized_base(spec, vals).tolist()
    assert (realized_base(spec, vals) == 0).tolist() == [
        True, False, False, False, True, True, False, False
    ]


@settings(max_examples=300, deadline=None)
@given(specs_and_values())
def test_combine_rows_match_single_points(case):
    # tobytes also tells 0.0 from -0.0
    spec, vals = case
    want = np.array([combine(spec, row) for row in vals])
    assert combine(spec, vals).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(specs_and_values())
def test_minmax_spec_matches_direct_min_of_max(case):
    # the drawn families, read as a min-of-max structure
    drawn, vals = case
    families = drawn.families
    spec = MaxMinSpec(K=drawn.K, families=families, polarity=MINMAX)
    # as numbers: an exact +/-0 tie may come out with the other sign
    want = [min_of_max(families, row) for row in vals]
    assert combine(spec, vals).tolist() == want
    assert [combine(spec, row) for row in vals] == want
    assert realized_base(spec, vals).tolist() == [
        ref_realized_minmax(families, row) for row in vals
    ]
    dual = MaxMinSpec(K=drawn.K, families=dual_families(families))
    for rho in all_permutations(drawn.K):
        ranks = np.empty(drawn.K)
        ranks[np.array(rho) - 1] = np.arange(drawn.K)
        assert phi(spec, rho) == phi(dual, rho) == ref_realized_minmax(families, ranks)


@settings(max_examples=300, deadline=None)
@given(specs_and_values())
def test_selected_base_matches_family_loop(case):
    # ties included: first family, then first member
    spec, vals = case
    assert selected_base(spec, vals).tolist() == ref_selected_base(spec, vals).tolist()


@settings(max_examples=300, deadline=None)
@given(specs_and_values(signed=(0.0, -0.0, math.inf, -math.inf)))
def test_selected_base_attains_combine(case):
    # one tie rule: the selected base's value is V bit for bit, tied
    # signed zeros and infinities included
    spec, vals = case
    got = vals[np.arange(len(vals)), selected_base(spec, vals) - 1]
    assert got.tobytes() == combine(spec, vals).tobytes()


def test_realized_base_identical_bases_tie_everywhere():
    P = np.diag([2.0, 1.0, 3.0])
    basis = QuadraticBasis([P, P.copy(), np.eye(3)])
    X = np.random.default_rng(0).standard_normal((50, 3))
    spec = MaxMinSpec(K=3, families=((1, 3), (2,)))
    assert not realized_base(spec, basis.values(X)).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_quadratic_values_batch_is_bitwise_per_point(n, K, seed):
    rng = np.random.default_rng(seed)
    mats = [B + B.T for B in rng.standard_normal((K, n, n))]
    X = rng.standard_normal((40, n)) * rng.uniform(1e-3, 1e3, (40, 1))
    want = np.array([[float(x @ P @ x) for P in mats] for x in X])
    basis = QuadraticBasis(mats)
    assert np.array_equal(basis.values(X), want)
    assert np.array_equal(basis.values(X[0]), want[0])


def _mixed_system():
    """Cone, whole-space and expression regions (H = x1 - x2^2)."""
    H = ex.sub(ex.Var(1), ex.mul(ex.Var(2), ex.Var(2)))
    modes = [
        Mode(index=1, A=-np.eye(2), Q=np.array([[1.0, 0.3], [0.3, -0.5]])),
        Mode(index=2, A=-np.eye(2), Q=np.array([[-1.0, 0.0], [0.0, 0.2]])),
        Mode(index=3, A=-np.eye(2)),
        Mode(index=4, A=-np.eye(2), H=H),
    ]
    return SwitchedSystem(dim=2, modes=modes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-9, 1e-6]))
def test_region_values_and_owners_match_per_point(seed, threshold):
    sys1 = fixtures.example("example1")[0]
    sys3 = fixtures.example("example3")[0]
    X = np.random.default_rng(seed).standard_normal((30, 3))
    for sys in (sys1, _mixed_system(), sys3):
        pts = X[:, : sys.dim]
        vals = sys.region_values(pts)
        want = [[m.region_value(x) for m in sys.modes] for x in pts]
        assert np.array_equal(vals, np.array(want))
        assert sys.owners(pts, threshold).tolist() == [ref_owner(sys, x, threshold) for x in pts]


# ---------------------------------------------------------------------------
# the callers, each against the loop it replaced


def _candidates():
    sys1, spec1, _ = fixtures.example("example1")
    sys3, spec3, _ = fixtures.example("example3")
    rng = np.random.default_rng(7)
    for case in range(24):
        sys = sys1 if case % 2 == 0 else sys3
        spec = spec1 if case % 2 == 0 else spec3
        if case % 4 >= 2:
            spec = MaxMinSpec(K=spec.K, families=dual_families(spec.families), polarity=MINMAX)
        mats = []
        for k in range(spec.K):
            B = rng.standard_normal((sys.dim, sys.dim))
            mats.append(np.eye(sys.dim) + 0.4 * (case % 3) * B @ B.T)
        if case % 5 == 0:
            mats[1] = mats[0].copy()
        yield case, sys, spec, mats


def test_derive_matching_matches_point_loop():
    for case, sys, spec, mats in _candidates():
        policy = NumericPolicy(seed=case)
        matching, evidence = derive_matching(sys, mats, spec, policy)
        want, counted, observed = ref_derive_matching(sys, mats, spec, policy)
        assert matching == want
        assert evidence["samples"] == counted
        assert evidence["observed"] == observed


def test_derive_matching_splits_one_pass_per_mode(linear_system):
    # the observed table comes from one pass over the (mode, base) pairs,
    # split per mode: a mode no sample lands in keeps (), a mode that sees
    # two bases keeps both in order, and the other modes their one base
    Q = np.diag([1.0, -1.0])
    sysm = linear_system([-np.eye(2)] * 3, [Q, -Q, -np.eye(2)])
    spec = MaxMinSpec(K=3, families=((1, 2), (3,)))
    rng = np.random.default_rng(39)
    for case in range(6):
        mats = [np.eye(2) + 0.5 * b @ b.T for b in rng.standard_normal((3, 2, 2))]
        policy = NumericPolicy(seed=case)
        matching, evidence = derive_matching(sysm, mats, spec, policy)
        want, counted, observed = ref_derive_matching(sysm, mats, spec, policy)
        assert matching == want is None
        assert evidence == {"samples": counted, "seed": case, "observed": observed}
        assert list(evidence["observed"]) == [1, 2, 3]
        assert evidence["observed"][3] == ()
        assert max(len(bases) for bases in evidence["observed"].values()) > 1
        assert all(type(b) is int for bases in evidence["observed"].values() for b in bases)


def test_sliding_exclusion_matches_point_loop():
    sys3 = fixtures.example("example3")[0]
    for seed in range(12):
        policy = NumericPolicy(seed=seed)
        got = sliding_exclusion(sys3, policy, n_samples=1500).min_product
        assert got == ref_min_product(sys3, policy, 1500)


def test_sliding_exclusion_gemm_is_the_per_row_map():
    # the surface samples mapped by one gemm, Z @ V^T, against the stacked
    # per-row products V @ z at the default 10k samples: example3's
    # eigenvectors are the coordinate axes, so both give the same bits
    # (for other eigenvectors the gemm may round differently)
    sys3 = fixtures.example("example3")[0]
    for seed in range(10):
        policy = NumericPolicy(seed=seed)
        got = sliding_exclusion(sys3, policy).min_product
        assert got == ref_min_product_per_row(sys3, policy, 10_000)


def test_validate_partition_matches_point_loop(linear_system):
    sys1 = fixtures.example("example1")[0]
    sys3 = fixtures.example("example3")[0]
    overlap = linear_system(
        [-np.eye(2), -np.eye(2)],
        [np.array([[1.0, 0.0], [0.0, -0.5]]), np.array([[-1.0, 0.2], [0.2, 1.0]])],
    )
    systems = [sys1, sys3, overlap, _mixed_system()]
    for sys in systems:
        policy = NumericPolicy(seed=3)
        got, checked = sys.validate_partition(policy, n_samples=700)
        want = ref_validate_partition(sys, policy, 700)
        assert checked == 700
        assert [s for _, s in got] == [s for _, s in want]
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, want))


def test_match_penalty_points_match_point_loop():
    sys1, spec1, _ = fixtures.example("example1")
    sys3, spec3, _ = fixtures.example("example3")
    cases = [
        (sys1, spec1, 160),
        (sys1, spec1, 97),
        (sys3, spec3, 160),
        (sys3, spec3, 11),
    ]
    for sys, spec, n_per_mode in cases:
        pen = _MatchPenalty(sys, spec, n_per_mode, seed=5)
        X, targets = ref_penalty_points(sys, n_per_mode, 5)
        assert np.array_equal(pen.X, X)
        assert np.array_equal(pen.targets, targets)


def _zero_set_points(D, count, rng):
    """Points with x'Dx = 0 up to rounding, for an indefinite D."""
    w, V = np.linalg.eigh(D)
    Z = np.zeros((count, len(w)))
    for part, scale in ((w > 0, np.sqrt(w[w > 0])), (w < 0, np.sqrt(-w[w < 0]))):
        U = rng.standard_normal((count, int(part.sum())))
        Z[:, part] = U / np.linalg.norm(U, axis=1, keepdims=True) / scale
    return rng.uniform(0.5, 2.0, (count, 1)) * (Z @ V.T)


def _three_bases(n, rng):
    """K = 3 bases in R^n, x'P_k x = |x|^2 + (r_k . x)^2 for the first
    three rows r_k of a random rotation R, and points y R (y the
    coordinates along those rows) on their ties: bases i and j tie where
    y_i^2 = y_j^2, all three where y_1^2 = y_2^2 = y_3^2."""
    R = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mats = [np.eye(n) + np.outer(R[k], R[k]) for k in range(3)]
    pairs, triples = [], []
    for _ in range(8):
        y = rng.standard_normal(n)
        signs = rng.choice([-1.0, 1.0], 3)
        triples.append(np.concatenate([abs(y[0]) * signs, y[3:]]) @ R)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            z = y.copy()
            z[j] = signs[0] * z[i]
            pairs.append(z @ R)
    return mats, pairs, triples


@contextmanager
def _probe_counts():
    """The rows (probes) handed to each ``realized_base`` call in the block."""
    calls, realized = [], maxmin.realized_base

    def counting(spec, vals):
        calls.append(len(vals))
        return realized(spec, vals)

    with mock.patch.object(maxmin, "realized_base", counting):
        yield calls


def _counted_sampling(spec, basis, X):
    """``_sampled_active`` of the rows of X; the rows (probes) handed to
    each ``realized_base`` call; and the rows that retired after the
    leading probes.  Only rows tied with every base get those, and a row
    that does not retire then gets all 3 x 64 probes."""
    ties = tie_mask(spec, basis, X, POLICY)[0]
    with _probe_counts() as calls:
        got = _sampled_active(spec, basis, X, ties, POLICY)
    full = sum(calls) - ties.all(axis=1).sum() * LEAD_DIRECTIONS
    return got, calls, len(X) - full // (3 * SAMPLED_DIRECTIONS)


def test_sampled_active_matches_point_loop():
    sys3, spec3, basis3 = fixtures.example("example3")
    ring = [np.array([np.cos(a), np.sin(a), 1.0]) for a in np.linspace(0.0, 2.0 * np.pi, 17)]
    cases = [
        (spec, basis3, ring)
        for spec in (spec3, MaxMinSpec(K=2, families=((1, 2),), polarity=MINMAX))
    ]
    # example3 on both of its zero sets, x'(P1 - P2)x = 0 and x'Qx = 0
    # (both read x1^2 + x2^2 = x3^2), just off them, where the probe radius
    # decides, and a basis with two identical members (every probe ties)
    rng = np.random.default_rng(23)
    P1, P2 = basis3.matrices
    for D in (P1 - P2, sys3.modes[0].Q):
        on = _zero_set_points(D, 24, rng)
        near = [on * [1.0 + eps, 1.0 + eps, 1.0] for eps in (2e-9, 1e-7)]
        cases.append((spec3, basis3, [*on, *near[0], *near[1]]))
    cases.append((spec3, QuadraticBasis([P1, P1.copy()]), ring[:3]))
    # rows that retire after the leading probes (every base marked) and
    # rows that never do: K = 3 bases in R^3 and in R^4 (where the base
    # values are one matrix-vector product per row) at their triple and
    # pairwise ties, and an expression basis at the triple and pairwise
    # ties of x'P_k x = |x|^2 + x_k^2
    retiring = {}
    specs = (
        MaxMinSpec(K=3, families=((1,), (2,), (3,))),
        MaxMinSpec(K=3, families=((1, 2, 3),)),
        MaxMinSpec(K=3, families=((1, 2), (2, 3), (1, 3)), polarity=MINMAX),
    )
    for n in (3, 4):
        mats, pairs, triples = _three_bases(n, rng)
        for spec in specs:
            for points, full in ((pairs, False), (triples, True)):
                retiring[len(cases)] = full
                cases.append((spec, QuadraticBasis(mats), points))
    names = ("x1", "x2", "x3")
    exprs = [parse_expr_text(" + ".join(f"{1 + (v == k)}*{v}*{v}" for v in names)) for k in names]
    t = rng.uniform(0.5, 2.0, (8, 1))
    triples = t * rng.choice([-1.0, 1.0], (8, 3))
    pairs = triples * [1.0, 1.0, 0.5]
    retiring[len(cases)] = True
    cases.append((specs[0], ExprBasis(exprs, dim=3), triples))
    retiring[len(cases)] = False
    cases.append((specs[0], ExprBasis(exprs, dim=3), pairs))
    for case, (spec, basis, points) in enumerate(cases):
        X = np.array(points)
        (got, warnings), calls, retired = _counted_sampling(spec, basis, X)
        assert len(got) == len(warnings) == len(X)
        for x, act, warning in zip(X, got, warnings):
            indices = tuple((np.flatnonzero(act) + 1).tolist())
            assert (indices, warning) == ref_sampled_active(spec, basis, x, POLICY)
        assert retired <= got.all(axis=1).sum()
        if retiring.get(case):
            assert retired > 0, case
        elif case in retiring:
            # a row at a pairwise tie is not tied with every base, so it
            # gets no leading block: the 3 x 64 probes and no more
            assert sum(calls) == len(X) * 3 * SAMPLED_DIRECTIONS, case


def test_sampled_active_skips_the_probes_of_full_rows():
    # a draw of example3 kink points as the benchmark makes them (48 on
    # each zero set): every row is sampled, and at most a tenth of the
    # 3 x 64 probes per row are valued
    sys3, spec3, basis3 = fixtures.example("example3")
    Qs = [m.Q for m in sys3.modes]
    for seed in range(1, 6):
        X = _surface_points(basis3.matrices, Qs, 48, np.random.default_rng(seed))
        with _probe_counts() as calls:
            _, method, _ = active_masks(spec3, basis3, X, POLICY)
        assert len(X) == 144 and (method == SAMPLED).all()
        assert sum(calls) <= 144 * 3 * SAMPLED_DIRECTIONS // 10, (seed, sum(calls))


def test_sampled_active_memory_does_not_grow_with_rows():
    # 5000 rows, half of them triple ties (most retire) and half pairwise
    # ties (none does): no realized_base call values more probes than
    # PROBE_ROWS rows have, and the masks are the one-stage sampler's
    rng = np.random.default_rng(11)
    mats, pairs, triples = _three_bases(3, rng)
    spec = MaxMinSpec(K=3, families=((1,), (2,), (3,)))
    scale = rng.uniform(0.5, 2.0, (2500, 1))
    X = np.vstack([scale * np.array(triples)[rng.integers(0, 8, 2500)],
                   scale * np.array(pairs)[rng.integers(0, 24, 2500)]])
    X = X[rng.permutation(len(X))]
    basis = QuadraticBasis(mats)
    (got, warnings), calls, retired = _counted_sampling(spec, basis, X)
    assert max(calls) <= PROBE_ROWS * 3 * SAMPLED_DIRECTIONS
    assert 0 < retired <= 2500
    want = maxmin_reference.sampled_active(spec, basis, X, tie_mask(spec, basis, X, POLICY)[0], POLICY)
    assert [tuple((np.flatnonzero(row) + 1).tolist()) for row in got] == [a.indices for a in want]
    assert warnings.tolist() == [a.warning for a in want]


def _surface_points(matrices, Qs, per_surface, rng):
    """Points on every pairwise base tie x'(P_i - P_j)x = 0 and every cone
    boundary x'Qx = 0, as the benchmark draws its kink points."""
    surfaces = [P - R for i, P in enumerate(matrices) for R in matrices[i + 1 :]]
    return np.vstack([_zero_set_points(D, per_surface, rng) for D in [*surfaces, *Qs]])


def _active_set_cases():
    rng = np.random.default_rng(5)
    origin = np.array([[0.0, 0.0], [3e-10, -4e-10]])
    for name, per_surface in (("example1", 96), ("example2", 96), ("example3", 48)):
        sysm, spec, basis = fixtures.example(name)
        Qs = [m.Q for m in sysm.modes if m.Q is not None]
        X = _surface_points(basis.matrices, Qs, per_surface, rng)
        if sysm.dim == 2:
            X = np.vstack([X, origin])
        else:
            # more sampled rows than one probe chunk, and the origin
            assert len(X) > 2 * PROBE_ROWS
            X = np.vstack([X, np.zeros((1, 3))])
        yield name, spec, basis, X
    sysm, spec, basis = fixtures.example("example1")
    minmax = MaxMinSpec(K=3, families=((1, 3), (2, 3)), polarity=MINMAX)
    yield "minmax", minmax, basis, _surface_points(basis.matrices, [], 48, rng)
    for case in range(40):
        mats = [G @ G.T + 0.1 * np.eye(2) for G in rng.standard_normal((3, 2, 2))]
        fams = [tuple(sorted(rng.choice(3, size=rng.integers(1, 4), replace=False) + 1))]
        fams += [tuple(sorted(rng.choice(3, size=2, replace=False) + 1)) for _ in range(2)]
        X = np.vstack([_surface_points(mats, [], 8, rng), rng.standard_normal((8, 2)), origin])
        yield f"random{case}", MaxMinSpec(K=3, families=tuple(fams)), QuadraticBasis(mats), X
    # an identical pair: no sweep, every probe ties, and sampling falls
    # back to the first tied base (1 on the P1 = P3 lines, else 2) with
    # its warning, over more rows than one probe chunk
    P1, _, P3 = basis.matrices
    X = np.vstack([_surface_points([P1, P3], [], 24, rng), rng.standard_normal((40, 2))])
    yield "identical", spec, QuadraticBasis([P3, P1, P1.copy()]), X[rng.permutation(len(X))]
    exprs = [
        parse_expr_text("5*x1*x1 + x2*x2"),
        parse_expr_text("x1*x1 + 5*x2*x2"),
        parse_expr_text("2*x1*x1 + 2*x2*x2 + 0.1*x1*x2"),
    ]
    t = rng.uniform(0.5, 2.0, 24)
    X = np.vstack([np.stack([t, t], axis=1), np.stack([t, -t], axis=1), rng.standard_normal((8, 2))])
    yield "expr", spec, ExprBasis(exprs, dim=2), X
    # P1 - P2 = [[0, 1], [1, 0]] ties exactly at the angles 0 and pi/2, so
    # a probe below the first arc end wraps to the last arc; rows on the
    # ties, at pi and 1e-13 either side, at three radii, and the origin
    # with a point within abs_tol of it
    P2 = 2.0 * np.eye(2)
    mats = [P2 + np.array([[0.0, 1.0], [1.0, 0.0]]), P2, np.diag([3.0, 2.5])]
    on = np.array([0.0, 0.5, 1.0]) * math.pi
    t = np.concatenate([on, on - 1e-13, on + 1e-13])
    units = np.stack([np.cos(t), np.sin(t)], axis=1)
    units[:3] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]  # exactly on the angles
    X = np.vstack([r * units for r in (0.7, 1.0, 2.0)] + [[[0.0, 0.0], [1e-12, 0.0]]])
    yield "wrap", MaxMinSpec(K=3, families=((1, 3), (2, 3))), QuadraticBasis(mats), X


def test_planar_arcs_are_labelled_once_per_batch(monkeypatch):
    # the basis is evaluated once for the tie mask and once at the arc
    # midpoints, whatever the batch size; a tie made at one arc's midpoint
    # sends the rows on that arc's two ends to sampling and no other row
    sysm, spec, basis = fixtures.example("example1")
    X = _surface_points(basis.matrices, [], 8, np.random.default_rng(3))
    X = X[[act.method == EXACT_SWEEP for act in active_sets(spec, basis, X, POLICY)]]
    want = active_sets(spec, basis, X, POLICY)
    assert len(X) > 8
    ends = np.array(basis._circle_roots)
    ext = np.append(ends, ends[0] + math.pi)
    mids = 0.5 * (ext[:-1] + ext[1:])
    midpoints = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    real, calls, tied = QuadraticBasis.values, [], []

    def values(self, Y):
        vals = real(self, Y)
        calls.append(len(Y))
        hit = (Y == tied[0]).all(axis=1) if tied else []
        vals[hit] = vals[hit, :1]
        return vals

    monkeypatch.setattr(QuadraticBasis, "values", values)
    for rows in (1, 5, len(X)):
        calls.clear()
        assert active_sets(spec, basis, X[:rows], POLICY) == want[:rows]
        assert calls == [rows, len(mids)]

    arc = 1
    tied.append(midpoints[arc])
    d = np.abs(np.arctan2(X[:, 1], X[:, 0])[:, None] - ends[[arc, arc + 1]]) % math.pi
    on_ends = (np.minimum(d, math.pi - d) < 1e-9).any(axis=1)
    assert 0 < on_ends.sum() < len(X)
    got = active_sets(spec, basis, X, POLICY)
    assert [act.method for act in got] == [
        PERTURBATION_SAMPLED if end else EXACT_SWEEP for end in on_ends.tolist()
    ]
    assert [a for a, end in zip(got, on_ends) if not end] == [
        w for w, end in zip(want, on_ends) if not end
    ]


def test_active_sets_match_the_per_point_chain():
    # every row of one batch equals the per-point chain: tie test, then
    # the angular sweep (planar quadratic bases), then perturbation sampling
    methods = {EXACT_SMOOTH: 0, EXACT_SWEEP: 0, PERTURBATION_SAMPLED: 0}
    warned = 0
    for name, spec, basis, X in _active_set_cases():
        got = active_sets(spec, basis, X, POLICY)
        assert len(got) == len(X), name
        for x, act in zip(X, got):
            assert (act.indices, act.method, act.warning) == ref_active(spec, basis, x, POLICY), (
                name,
                x.tolist(),
            )
            methods[act.method] += 1
            warned += act.warning is not None
    assert min(methods.values()) > PROBE_ROWS
    assert warned > 0


def _batch_problem(case):
    """(spec, basis) of one active-set batch case: the three examples, a
    planar basis with an identical pair (no arc table; every probe ties,
    so sampling falls back with the identical-bases warning), and an
    expression basis with an identical pair (the fallback's own warning)."""
    if case.startswith("example"):
        _, spec, basis = fixtures.example(case)
        return spec, basis
    _, spec, basis = fixtures.example("example1")
    if case == "identical":
        P1, _, P3 = basis.matrices
        return spec, QuadraticBasis([P3, P1, P1.copy()])
    twin = parse_expr_text("x1*x1 + 5*x2*x2")
    return spec, ExprBasis([twin, twin, parse_expr_text("5*x1*x1 + x2*x2")], dim=2)


def _batch_rows(basis, rows, rng):
    """rows points of four kinds drawn at random: generic, on a tie of two
    bases (at a tie angle in the plane, else on a zero set), at the
    origin and within abs_tol of it."""
    kinds = rng.integers(0, 4, rows)
    X = rng.standard_normal((rows, basis.dim))
    if isinstance(basis, QuadraticBasis) and basis.dim == 2:
        angles = np.array(basis._circle_roots or [0.25 * math.pi])
        t = angles[rng.integers(0, len(angles), rows)]
        on = rng.uniform(0.5, 2.0, (rows, 1)) * np.stack([np.cos(t), np.sin(t)], axis=1)
    elif isinstance(basis, QuadraticBasis):
        on = _surface_points(basis.matrices, [], rows, rng)[rng.permutation(rows)]
    else:
        t = rng.uniform(0.5, 2.0, rows)
        on = np.stack([t, rng.choice([-1.0, 1.0], rows) * t], axis=1)
    X[kinds == 1] = on[kinds == 1]
    X[kinds == 2] = 0.0
    X[kinds == 3] = 3e-10 * rng.standard_normal(((kinds == 3).sum(), basis.dim))
    return X


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["example1", "example2", "example3", "identical", "expr"]),
    st.integers(0, 70),
    st.integers(0, 2**32 - 1),
    st.none() | st.integers(0, 7),
)
def test_active_masks_are_the_per_row_sets(case, rows, seed, undecided):
    # the mask, method codes and warnings of one batch (crossing the probe
    # chunks of PROBE_ROWS rows) against the per-row ActiveSet chain; with
    # ``undecided`` one planar arc ties at its midpoint, so the rows on
    # its ends go to sampling
    spec, basis = _batch_problem(case)
    X = _batch_rows(basis, rows, np.random.default_rng(seed))
    values = type(basis).values
    tied = []
    if undecided is not None and basis.dim == 2 and isinstance(basis, QuadraticBasis):
        if basis._arcs is not None:
            midpoints = basis._arcs[1]
            tied.append(midpoints[undecided % len(midpoints)])

    def tie_one_midpoint(self, Y):
        vals = values(self, Y)
        if tied and np.ndim(Y) == 2:
            hit = (Y == tied[0]).all(axis=1)
            vals[hit] = vals[hit, :1]
        return vals

    with mock.patch.object(type(basis), "values", tie_one_midpoint):
        want = maxmin_reference.active_sets(spec, basis, X, POLICY)
        active, method, warning = active_masks(spec, basis, X, POLICY)
        got = active_sets(spec, basis, X, POLICY)
        given_ties = active_masks(spec, basis, X, POLICY, tie_mask(spec, basis, X, POLICY)[0])
    assert got == want
    assert active.shape == (len(X), basis.K) and active.dtype == bool
    assert [tuple((np.flatnonzero(row) + 1).tolist()) for row in active] == [a.indices for a in want]
    codes = {EXACT_SMOOTH: SMOOTH, EXACT_SWEEP: SWEPT, PERTURBATION_SAMPLED: SAMPLED}
    assert method.tolist() == [codes[a.method] for a in want]
    assert warning.tolist() == [a.warning for a in want]
    for a, b in zip(given_ties, (active, method, warning)):
        assert np.array_equal(a, b)


EXPR_CONFIG = """
[basis]
V1 = x1*x1 + 2*x2*x2 + 0.1*sin(x1*x2) + 0.01*pow(x1, 4)
V2 = 2*x1*x1 + x2*x2 + 0.1*sin(x1*x2) + 0.01*pow(x1, 4)
V3 = 1.4*x1*x1 + 1.6*x2*x2 + 0.3*x1*x2
[structure]
S1 = {1, 2}
S2 = {3}
"""


def test_active_sets_carry_the_point_gradients():
    # one batch per basis, its rows shuffled so the methods interleave:
    # generic rows (exact-smooth), example1's switching lines at eight
    # radii and the origin (exact-sweep), example3's kinks (perturbation-
    # sampled) and an expression basis on its ties x2 = +-x1; every row
    # is the per-row chain's set, and its vertices are the point
    # gradients of its bases in index order, bit for bit
    rng = np.random.default_rng(38)
    cases = []
    _, spec, basis = fixtures.example("example1")
    radii = (-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0, 3.0)
    lines = [r * v for v in fixtures.EXAMPLE1_LINES.values() for r in radii]
    cases.append((spec, basis, np.vstack([rng.standard_normal((80, 2)), lines, np.zeros((1, 2))])))
    _, spec, basis = fixtures.example("example3")
    exact = [r * np.array(x) for x in ([1.0, 0.0, 1.0], [0.6, 0.8, -1.0], [0.0, -2.0, 2.0])
             for r in (-1.0, 0.5, 2.0)]
    kinks = _surface_points(basis.matrices, [], 40, rng)
    cases.append((spec, basis, np.vstack([rng.standard_normal((60, 3)), exact, kinks])))
    expr = parse_config(EXPR_CONFIG).basis
    t = rng.uniform(0.5, 2.0, 24)
    ties = np.vstack([np.stack([t, t], axis=1), np.stack([t, -t], axis=1)])
    cases.append((expr.to_spec(), expr.to_basis(), np.vstack([rng.standard_normal((60, 2)), ties])))
    methods = {EXACT_SMOOTH: 0, EXACT_SWEEP: 0, PERTURBATION_SAMPLED: 0}
    for spec, basis, X in cases:
        X = X[rng.permutation(len(X))]
        assert len(X) >= 100
        got = active_sets(spec, basis, X, POLICY)
        want = maxmin_reference.active_sets(spec, basis, X, POLICY)
        assert [(a.indices, a.method, a.warning) for a in got] == [
            (a.indices, a.method, a.warning) for a in want
        ]
        for x, act in zip(X, got):
            assert [v.tobytes() for v in act.vertices] == [
                basis.gradient(k, x).tobytes() for k in act.indices
            ]
            methods[act.method] += 1
    assert min(methods.values()) >= 20, methods


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(2, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e150, 1e154, 1e160, 1e200]),
)
def test_tie_mask_refuses_overflow_so_every_row_has_a_tie(K, dim, seed, radius):
    # a row whose base values overflow raises; every other row ties with V
    # at the base attaining it, so the sampler's first-tie fallback always
    # has a base to fall back to
    rng = np.random.default_rng(seed)
    spec = MaxMinSpec(K=K, families=tuple((k,) for k in range(1, K + 1)))
    basis = QuadraticBasis([G @ G.T for G in rng.standard_normal((K, dim, dim))])
    X = radius * rng.standard_normal((5, dim))
    with np.errstate(over="ignore"):
        finite = np.isfinite(basis.values(X)).all()
    if not finite:
        with pytest.raises(InvalidInputError, match="base value is not finite"):
            tie_mask(spec, basis, X, POLICY)
        with pytest.raises(InvalidInputError, match="base value is not finite"):
            active_masks(spec, basis, X, POLICY)
        return
    ties, _ = tie_mask(spec, basis, X, POLICY)
    assert ties.any(axis=1).all()
    assert active_masks(spec, basis, X, POLICY)[0].any(axis=1).all()


def test_match_penalty_gram_form_matches_einsum():
    # Gram-feature base values round differently from einsum in the last
    # bits only: the selected base agrees except where two values tie
    # within 1e-12 relative, and the penalty agrees to 1e-12 relative
    compared = 0
    for case, sys, spec, mats in _candidates():
        if spec.K != sys.M:
            continue
        pen = _MatchPenalty(sys, spec, 40, seed=case)
        rng = np.random.default_rng(case)
        X = rng.standard_normal((16, sys.dim))
        pen.add_counterexamples([(1 + s % spec.K, x) for s, x in enumerate(X)])
        vals, want_base, want = ref_penalty_gaps(pen, mats)
        srt = np.sort(vals, axis=1)
        tied = np.any(np.diff(srt, axis=1) <= 1e-12 * np.abs(srt).max(axis=1)[:, None], axis=1)
        _, got_base, _ = ref_residuals(pen, mats)
        assert np.array_equal(got_base[~tied], want_base[~tied])
        (got,), _ = pen.values_and_grads([mats])
        assert got == ref_penalty_value(pen, mats)
        assert abs(got - want) <= 1e-12 * np.abs(vals).max()
        compared += int((~tied).sum())
    assert compared > 4000


_PENALTY_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-4.0, 4.0, allow_nan=False)
)


def _draw_bases(draw, K, n):
    """K drawn n x n bases, some exact copies of an earlier one."""
    mats = []
    for k in range(K):
        if k and draw(st.booleans()):
            mats.append(mats[draw(st.integers(0, k - 1))].copy())
        else:
            mats.append(np.array(draw(st.lists(_PENALTY_ENTRIES, min_size=n * n, max_size=n * n))))
    return [P.reshape(n, n) for P in mats]


@st.composite
def _penalty_cases(draw):
    """A planar or 3-D penalty's system and structure, K bases (some exact
    copies of an earlier one, so values tie at every point; entries drawn
    with +-0), and counterexample points (zero coordinates give rows of
    +-0 values)."""
    name = draw(st.sampled_from(["example1", "example3"]))
    sysm, spec, _ = fixtures.example(name)
    n = sysm.dim
    mats = _draw_bases(draw, spec.K, n)
    point = st.lists(_PENALTY_ENTRIES, min_size=n, max_size=n).map(np.array)
    ces = draw(st.lists(st.tuples(st.integers(1, spec.K), point), min_size=1, max_size=6))
    return sysm, spec, mats, ces


@settings(max_examples=150, deadline=None)
@given(_penalty_cases())
def test_match_penalty_value_is_the_residual_penalty(case):
    # the penalty of one set of bases reads V off combine and the
    # targets off one flat index; it must give the residual penalty to
    # the bit, and the gap that value_and_grads takes its signs from
    # too, also once counterexamples have grown the points (and so that
    # index)
    sysm, spec, mats, ces = case
    pen = _MatchPenalty(sysm, spec, 8, seed=1)
    for _ in range(2):
        got = ref_penalty_value(pen, mats)
        want, _, gap = ref_residuals(pen, mats)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert pen._values(mats)[1].tobytes() == gap.tobytes()
        assert len(pen._target_at) == len(pen.X)
        pen.add_counterexamples(ces)


@settings(max_examples=100, deadline=None)
@given(_penalty_cases(), st.data())
def test_match_penalty_values_are_the_one_candidate_values(case, data):
    # the stacked call is the one-candidate call at every index, to the
    # bit, before and after counterexamples grow the points
    sysm, spec, mats, ces = case
    pen = _MatchPenalty(sysm, spec, 8, seed=1)
    more = data.draw(st.integers(0, 3))
    stack = np.stack([mats] + [_draw_bases(data.draw, spec.K, sysm.dim) for _ in range(more)])
    for _ in range(2):
        got = pen.values(stack)
        assert len(got) == len(stack)
        for value, bases in zip(got, stack):
            assert np.float64(value).tobytes() == np.float64(ref_penalty_value(pen, list(bases))).tobytes()
        pen.add_counterexamples(ces)


@settings(max_examples=150, deadline=None)
@given(_penalty_cases())
def test_match_penalty_live_row_subgradient_is_the_all_row_one(case):
    # only rows with V_target != V move the subgradient; selecting on
    # those alone must give the all-row subgradient's bits
    sysm, spec, mats, ces = case
    pen = _MatchPenalty(sysm, spec, 8, seed=1)
    for _ in range(2):
        (got,), (grads,) = pen.values_and_grads([mats])
        want, want_grads = ref_value_and_grads(pen, mats)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert [G.tobytes() for G in grads] == [G.tobytes() for G in want_grads]
        pen.add_counterexamples(ces)


@settings(max_examples=100, deadline=None)
@given(_penalty_cases(), st.data())
def test_match_penalty_stacked_subgradients_are_the_one_set_ones(case, data):
    # every set of a stack gets the penalty and subgradient of its own
    # one-set call, to the bit
    sysm, spec, mats, ces = case
    pen = _MatchPenalty(sysm, spec, 8, seed=1)
    more = data.draw(st.integers(0, 4))
    stack = np.stack([mats] + [_draw_bases(data.draw, spec.K, sysm.dim) for _ in range(more)])
    for _ in range(2):
        pens, grads = pen.values_and_grads(stack)
        assert pens == pen.values(stack)
        for value, G, bases in zip(pens, grads, stack):
            (want,), (want_G,) = pen.values_and_grads(bases[None])
            assert np.float64(value).tobytes() == np.float64(want).tobytes()
            assert G.tobytes() == want_G.tobytes()
        pen.add_counterexamples(ces)


@st.composite
def _structured_penalty_cases(draw):
    """A one-mode system in R^2 or R^3 and a drawn structure of up to
    MAX_BASES bases in up to four families, with 1-9 sets of bases whose
    values at the points are signed, positive (scaled identities), +-0
    (zero bases with drawn signs) or tied (exact copies), and
    counterexample points (+-0 coordinates give rows of +-0 values) whose
    targets are drawn among all K bases."""
    n = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(1, MAX_BASES))
    base = st.integers(1, K)
    families = draw(st.lists(st.lists(base, min_size=1, max_size=K), min_size=1, max_size=4))
    spec = MaxMinSpec(K=K, families=tuple(map(tuple, families)))
    sysm = parse_config(
        f"[system]\ndim = {n}\nmode 1 {{ A = {(-np.eye(n)).tolist()} }}"
    ).require_system()
    kinds = st.sampled_from(["drawn", "copy", "zero", "identity"])
    sets = []
    for _ in range(draw(st.integers(1, 9))):
        mats = []
        for k in range(K):
            kind = draw(kinds)
            if kind == "copy" and k:
                mats.append(mats[draw(st.integers(0, k - 1))].copy())
            elif kind == "zero":
                zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=n * n, max_size=n * n)
                mats.append(np.array(draw(zeros)).reshape(n, n))
            elif kind == "identity":
                mats.append(draw(st.sampled_from([0.5, 1.0, 2.0])) * np.eye(n))
            else:
                mats.append(_draw_bases(draw, 1, n)[0])
        sets.append(mats)
    point = st.lists(_PENALTY_ENTRIES, min_size=n, max_size=n).map(np.array)
    ces = draw(st.lists(st.tuples(base, point), min_size=1, max_size=8))
    return SwitchedSystem.from_config(sysm), spec, np.array(sets), ces


@settings(max_examples=150, deadline=None)
@given(_structured_penalty_cases())
def test_match_penalty_reduction_is_the_combine_reduction(case):
    # V is reduced with np.minimum / np.maximum, not combine's np.where
    # chain: the gaps agree up to the sign of a zero one, and every
    # penalty and subgradient of every set, stacked or alone, keeps the
    # bits of the combine form and of its all-row subgradient
    sysm, spec, stack, ces = case
    pen = _MatchPenalty(sysm, spec, 8, seed=1)
    pen.add_counterexamples(ces)
    vals, d = pen._values(stack)
    want_vals, want_d = combine_gaps(pen, stack)
    assert vals.tobytes() == want_vals.tobytes()
    assert np.array_equal(d, want_d)
    assert d[want_d != 0.0].tobytes() == want_d[want_d != 0.0].tobytes()
    values = pen.values(stack)
    pens, grads = pen.values_and_grads(stack)
    for bases, value, p, G in zip(stack, values, pens, grads):
        want, want_G = ref_value_and_grads(pen, list(bases))
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        assert np.float64(p).tobytes() == np.float64(want).tobytes()
        assert G.tobytes() == np.stack(want_G).tobytes()
        (alone,), (alone_G,) = pen.values_and_grads(bases[None])
        assert np.float64(alone).tobytes() == np.float64(want).tobytes()
        assert alone_G.tobytes() == G.tobytes()


REPAIR_MAX_STEPS = (1, 2, 3, 5, 20, 120)


def _repair_case(name, seed, owned, scale):
    """A matching penalty with counterexamples appended, their targets the
    owning modes (owned) or drawn, and start bases: the example's own
    jittered by scale, or random positive definite ones (scale None)."""
    sysm, spec, basis = fixtures.example(name)
    n = sysm.dim
    rng = np.random.default_rng(seed)
    pen = _MatchPenalty(sysm, spec, 40, seed=seed % 10)
    X = rng.standard_normal((8, n))
    targets = sysm.owners(X, 1e-6) if owned else rng.integers(1, spec.K + 1, len(X))
    pen.add_counterexamples([(t, x) for t, x in zip(targets.tolist(), X) if t > 0])
    G = rng.standard_normal((spec.K, n, n))
    if scale is None:
        mats = [g @ g.T + 0.1 * np.eye(n) for g in G]
    else:
        mats = [P + scale * (g + g.T) for P, g in zip(basis.matrices, G)]
    return pen, mats


def _start(mats):
    return _normalize(Candidate(matrices=[P.copy() for P in mats]))


def _repair_both(pen, mats, max_steps):
    """The one-walk lockstep repair and the one-trial loop from the same
    start: both (success, trials spent), and whether the accepted bases
    and the normalization factors are equal bit for bit."""
    want = _start(mats)
    (walk,) = _repair_walks(pen, np.stack(_start(mats).matrices)[None], max_steps)
    ok, spent, factors = ref_repair_matching(pen, want, max_steps)
    same = [P.tobytes() for P in walk.bases] == [P.tobytes() for P in want.matrices]
    return ((walk.ok, walk.spent), (ok, spent)), same and walk.factors == factors


@settings(max_examples=40, deadline=None)
@given(
    st.builds(
        _repair_case,
        st.sampled_from(["example1", "example3"]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([0.0, 0.02, 0.1, 0.3, None]),
    )
)
def test_lockstep_repair_is_the_one_trial_loop(case):
    # accepted bases, return value and trials spent, at every step limit
    pen, mats = case
    for max_steps in REPAIR_MAX_STEPS:
        (got, want), same = _repair_both(pen, mats, max_steps)
        assert got == want
        assert same


def test_lockstep_repair_reaches_every_exit():
    # penalty zero, the 1e-9 step floor (a failure before the step
    # limit) and the step limit, each met with the one-trial loop's bits
    exits = set()
    for name in ("example1", "example3"):
        for seed in (3, 6):
            for owned, scale in ((True, 0.02), (False, 0.3), (False, None)):
                pen, mats = _repair_case(name, seed, owned, scale)
                for max_steps in REPAIR_MAX_STEPS:
                    (got, want), same = _repair_both(pen, mats, max_steps)
                    assert got == want and same
                    ok, spent = got
                    exits.add((name, "zero" if ok else "floor" if spent < max_steps else "limit"))
    ends = ("zero", "floor", "limit")
    assert exits == {(name, end) for name in ("example1", "example3") for end in ends}


class _FlatPenalty:
    """A matching penalty that no step lowers: every trial is rejected."""

    def values_and_grads(self, stacks):
        return [1.0] * len(stacks), np.ones(np.shape(stacks))

    def values(self, stacks):
        return [1.0] * len(stacks)

    def value(self, matrices):
        return 1.0


def test_repair_on_a_flat_penalty_stops_at_the_step_floor():
    # 0.2 / 2^28 is the first halving below 1e-9: 28 trials, then failure;
    # an equal penalty is no decrease, and the bases stay as they were
    for max_steps, want in ((1, (False, 1)), (20, (False, 20)), (120, (False, 28))):
        mats = [np.eye(2), 2.0 * np.eye(2)]
        got, ref = (_normalize(Candidate(matrices=[P.copy() for P in mats])) for _ in range(2))
        start = [P.tobytes() for P in got.matrices]
        (walk,) = _repair_walks(_FlatPenalty(), np.stack(got.matrices)[None], max_steps)
        assert (walk.ok, walk.spent) == want
        assert ref_repair_matching(_FlatPenalty(), ref, max_steps)[:2] == want
        assert [P.tobytes() for P in walk.bases] == start


def _walks_and_references(pen, starts, max_steps):
    """The lockstep walks from the normalized starts, and the one-trial
    loop from each: its (success, trials spent, factors) and its bases."""
    walks = _repair_walks(pen, np.stack([_start(m).matrices for m in starts]), max_steps)
    refs = []
    for mats in starts:
        cand = _start(mats)
        refs.append((ref_repair_matching(pen, cand, max_steps), cand.matrices))
    return walks, refs


def _check_walks(walks, refs):
    """The walks run up to the first success (all of them when none
    succeeds), each bit for bit the one-trial loop from its start; returns
    the index of the walk taken, or None."""
    oks = [ok for (ok, _, _), _ in refs]
    taken = oks.index(True) if True in oks else None
    assert len(walks) == (len(refs) if taken is None else taken + 1)
    for walk, ((ok, spent, factors), mats) in zip(walks, refs):
        assert (walk.ok, walk.spent, walk.factors) == (ok, spent, factors)
        assert [P.tobytes() for P in walk.bases] == [P.tobytes() for P in mats]
    return taken


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["example1", "example3"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.sampled_from([0.0, 0.02, 0.1, 0.3, None]), min_size=1, max_size=6),
    st.sampled_from([2, 5, 20]),
)
def test_repair_walks_are_one_trial_loops(name, seed, owned, scales, max_steps):
    # 1-6 walks on one penalty, each from its own start
    pen, _ = _repair_case(name, seed, owned, scales[0])
    starts = [_repair_case(name, seed + i, owned, scale)[1] for i, scale in enumerate(scales)]
    _check_walks(*_walks_and_references(pen, starts, max_steps))


def _outcome_pool(name, max_steps):
    """A penalty and starts it repairs, and starts it does not, within
    max_steps trials."""
    pen, _ = _repair_case(name, 3, True, 0.02)
    good, bad = [], []
    for seed in range(8):
        for scale in (0.1, 0.3, None):
            mats = _repair_case(name, seed, True, scale)[1]
            ok = ref_repair_matching(pen, _start(mats), max_steps)[0]
            (good if ok else bad).append(mats)
    return pen, good, bad


def test_repair_walks_take_the_first_success():
    # all walks fail; a success after failures; a success before others
    for name in ("example1", "example3"):
        pen, good, bad = _outcome_pool(name, 20)
        assert len(good) >= 2 and len(bad) >= 2, (name, len(good), len(bad))
        for starts, want in (
            (bad[:2], None),
            (bad[:2] + good[:1], 2),
            ([bad[0], good[0], bad[1], good[1]], 1),
            (good[:2] + bad[:1], 0),
        ):
            assert _check_walks(*_walks_and_references(pen, starts, 20)) == want


_STEP_MULTIPLIERS = {(1, ((1, 2),)): (0.5, 1.5), (2, ((2, 1),)): (0.25, 3.0)}


def _steps_both(pen, mats, G, etas, width):
    """The stacked basis step and the one-attempt loop from one start:
    both results, and whether the bases and multipliers agree bit for
    bit."""
    got, want = (
        Candidate(matrices=_start(mats).matrices, multipliers=dict(_STEP_MULTIPLIERS))
        for _ in range(2)
    )
    results = _basis_step(pen, got, G, etas, width), ref_basis_step(pen, want, G, etas)
    same = [P.tobytes() for P in got.matrices] == [P.tobytes() for P in want.matrices]
    return results, same and got.multipliers == want.multipliers


def _etas(eta, attempts):
    out = []
    for _ in range(attempts):
        out.append(eta)
        eta *= 0.25
    return out


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["example1", "example3"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.02, 0.3, None]),
    st.sampled_from([0.05, 0.5, 2.0, 8.0]),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_basis_step_is_the_one_attempt_loop(name, seed, scale, eta, attempts, width):
    # the outcome, the attempts made, the bases and the multipliers
    pen, mats = _repair_case(name, seed, True, scale)
    G = np.random.default_rng(seed).standard_normal(np.shape(mats))
    (got, want), same = _steps_both(pen, mats, G + G.swapaxes(1, 2), _etas(eta, attempts), width)
    assert got == want
    assert same


def test_basis_step_reaches_every_outcome():
    # the first attempt, a later one (past a doubled batch), or none
    seen = set()
    for name in ("example1", "example3"):
        for seed in range(6):
            pen, mats = _repair_case(name, seed, True, 0.02)
            G = np.random.default_rng(seed).standard_normal(np.shape(mats))
            for eta in (0.5, 8.0, 64.0):
                for width in (1, 2, 8):
                    etas = _etas(eta, 6)
                    (got, want), same = _steps_both(pen, mats, G + G.swapaxes(1, 2), etas, width)
                    assert got == want and same
                    ok, attempts = got
                    seen.add("none" if not ok else "first" if attempts == 1 else "later")
    assert seen == {"none", "first", "later"}


def test_basis_step_without_a_penalty_takes_the_first_attempt():
    # no matching to repair: the first attempt's normalized projection
    _, mats = _repair_case("example1", 1, True, 0.1)
    cand = Candidate(matrices=_start(mats).matrices, multipliers=dict(_STEP_MULTIPLIERS))
    G = np.ones(np.shape(mats))
    want = _normalize(
        Candidate(
            matrices=list(project_psd(np.stack(cand.matrices) - 0.5 * G, floor=1e-6)),
            multipliers=dict(_STEP_MULTIPLIERS),
        )
    )
    assert _basis_step(None, cand, G, [0.5, 0.125], 4) == (True, 1)
    assert [P.tobytes() for P in cand.matrices] == [P.tobytes() for P in want.matrices]
    assert cand.multipliers == want.multipliers


def test_scaled_multipliers_round_after_each_factor():
    ys = {(1, ((1, 2),)): (0.1, 3.0)}
    c1, c2 = 1.1, 0.3
    assert _scaled_multipliers(ys, [c1, c2]) == {(1, ((1, 2),)): (c2 * (c1 * 0.1), c2 * (c1 * 3.0))}

"""Per-row forms of the set-valued derivative kernels, kept as references
for the tests: the closed-form weights of one equation, the lambda set,
and the Lie and Clarke ranges of one ``VertexTable``, each computed one
row, one weight and one product at a time."""

import itertools
import math

import numpy as np

from maxminlyap.errors import InternalCheckError
from maxminlyap.policy import DEFAULT_POLICY
from maxminlyap.setderiv import (
    EMPTY,
    FULL,
    POINT,
    POLYTOPE,
    SEGMENT,
    ClarkeSet,
    LieSet,
    SimplexSet,
    _vertices_by_support,
)


def equations(gradients, fields, policy=DEFAULT_POLICY):
    """The equalization rows C[k, j] = (g_{k+1} - g_k) . f_j, their
    tolerance, and the indices of the live rows (some |C[k, j]| > tol)."""
    C = np.array(
        [[(gradients[k + 1] - gradients[k]) @ f for f in fields] for k in range(len(gradients) - 1)]
    ).reshape(len(gradients) - 1, len(fields))
    scale = max(1.0, float(np.abs(C).max())) if C.size else 1.0
    tol = policy.abs_tol + policy.rel_tol * scale
    return C, tol, [k for k in range(len(C)) if np.abs(C[k]).max() > tol]


def lambda_set(gradients, fields, policy=DEFAULT_POLICY):
    """The ``SimplexSet`` of one row: closed form for one live equation,
    support enumeration for more."""
    grads = [np.asarray(g, dtype=float) for g in gradients]
    flds = [np.asarray(f, dtype=float) for f in fields]
    m = len(flds)
    full = SimplexSet(kind=FULL, m=m, vertices=tuple(np.eye(m)[j] for j in range(m)))
    if len(grads) == 1:
        return full
    C, tol, live = equations(grads, flds, policy)
    if not live:
        return full
    if len(live) == 1:
        verts = vertices_one_equation(C[live[0]].tolist(), m, tol)
    else:
        verts = _vertices_by_support(C[live], m, tol)
    kind = {0: EMPTY, 1: POINT, 2: SEGMENT}.get(len(verts), POLYTOPE)
    return SimplexSet(kind=kind, m=m, vertices=tuple(verts))


def vertices_one_equation(c, m, tol):
    """``_vertices_by_support`` for the one equation c . w = 0: the e_j with
    |c_j| <= tol, then per pair i < j the solution w_i = c_j / (c_j - c_i),
    w_j = -c_i / (c_j - c_i), under the same rank test, negative-weight
    floor and de-duplication."""
    eye = np.eye(m)
    verts = [eye[j] for j in range(m) if abs(c[j]) <= tol]
    for i, j in itertools.combinations(range(m), 2):
        d = c[j] - c[i]
        # smallest singular value of [[1, 1], [c_i, c_j]] is |d| / sigma_max
        frob = 2.0 + c[i] * c[i] + c[j] * c[j]
        sigma_max = math.sqrt(0.5 * (frob + math.sqrt(max(frob * frob - 4.0 * d * d, 0.0))))
        if abs(d) <= 1e-12 * max(1.0, abs(c[i]), abs(c[j])) * sigma_max:
            continue
        wi, wj = c[j] / d, -c[i] / d
        if min(wi, wj) < -max(tol, 1e-12):
            continue
        w = np.zeros(m)
        w[i], w[j] = max(wi, 0.0), max(wj, 0.0)
        w /= w.sum()
        if not any(np.abs(w - v).max() <= 1e-9 for v in verts):
            verts.append(w)
    return verts


def products(table):
    """grad V_k(x) . f_i(x), one 1-D dot product per entry."""
    return np.array([[g @ f for f in table.fields] for g in table.hull.vertices])


def lie(table, policy=DEFAULT_POLICY):
    """(weights, Lie set) of one ``VertexTable``: the first table row at
    each extreme weight, every other row checked against it."""
    lam = lambda_set(table.hull.vertices, table.fields, policy)
    if lam.is_empty:
        return lam, LieSet.empty_set()
    T = products(table)
    tol = 100.0 * (policy.abs_tol + policy.rel_tol * max(1.0, float(np.abs(T).max())))
    values = []
    for w in lam.vertices:
        per_grad = T @ w
        spread = per_grad.max() - per_grad.min()
        if spread > tol:
            raise InternalCheckError(
                f"active gradients disagree on an equalized velocity (spread {spread:.3e}); "
                "the essentially-active set is over-approximated"
            )
        values.append(float(per_grad[0]))
    lo, hi = int(np.argmin(values)), int(np.argmax(values))
    return lam, LieSet(empty=False, lo=values[lo], hi=values[hi])


def clarke(table):
    """The interval spanned by the table entries, by Python's min and max."""
    entries = products(table).ravel().tolist()
    return ClarkeSet(lo=min(entries), hi=max(entries))

"""Per-group form of the condition (i) multiplier search, kept as the
reference for the tests: each group's coordinate descent on its own,
with one golden-section step and one eigen-solve at a time."""

import numpy as np

from maxminlyap.certifier import _pencil, _pencil_matrix
from maxminlyap.numkernel import negdef_margin


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
    pencil = _pencil(sys, cand.matrices, group)
    slots = list(cand.multipliers_for(group))

    def margin_at(xs):
        return negdef_margin(_pencil_matrix(pencil, xs))

    for _ in range(sweeps):
        for slot in range(len(pencil[1])):

            def f(v, slot=slot):
                return margin_at(slots[:slot] + [v] + slots[slot + 1 :])

            hi = max(10.0, 4.0 * abs(slots[slot]) + 1.0)
            while f(hi) < f(hi / 2.0) and hi < 1e6:
                hi *= 4.0
            slots[slot] = golden_min(f, 0.0, hi)
    return tuple(slots)

"""Per-row forms of the switched system's batch evaluations, kept as
references for the tests: an expression mode's field and the region
values, with the compiled point function called at one row at a time."""

import numpy as np

from maxminlyap.numkernel import quad_forms


def field(mode, X):
    """An expression mode's ``field`` at each row of X[S, n], one point
    call per row."""
    X = np.asarray(X, dtype=float)
    return np.array([mode.field(row) for row in X]).reshape(X.shape)


def region_values(sys, X):
    """``sys.region_values`` with each expression region evaluated point
    by point."""
    X = np.asarray(X, dtype=float)
    out = np.full((len(X), sys.M), np.inf)
    if sys._cones:
        out[:, sys._cones] = quad_forms(X, sys._cone_stack)
    for c in sys._exprs:
        region = sys.modes[c]._H_compiled
        out[:, c] = [region(x)[0] for x in X]
    return out

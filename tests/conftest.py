import numpy as np
import pytest


def _planar_sign_criterion(g1, g2, f1, f2):
    """Two-gradient/two-field emptiness test: the equalizing weight
    exists iff the normal components of the two fields do not point to
    the same side, i.e. the product below is <= 0."""
    d = np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float)
    return float(d @ np.asarray(f1, dtype=float)) * float(d @ np.asarray(f2, dtype=float))


@pytest.fixture
def planar_sign_criterion():
    return _planar_sign_criterion

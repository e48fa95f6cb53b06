import re
from pathlib import Path

import numpy as np
import pytest

from maxminlyap import fixtures
from maxminlyap.inclusion import Mode, SwitchedSystem
from maxminlyap.sysdsl.config import parse_config
from expr_text import parse_expr_text


def _planar_sign_criterion(g1, g2, f1, f2):
    """Two-gradient/two-field emptiness test: the equalizing weight
    exists iff the normal components of the two fields do not point to
    the same side, i.e. the product below is <= 0."""
    d = np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float)
    return float(d @ np.asarray(f1, dtype=float)) * float(d @ np.asarray(f2, dtype=float))


@pytest.fixture
def planar_sign_criterion():
    return _planar_sign_criterion


def _linear_system(A_list, Q_list=None):
    """Linear modes with optional conic regions (None entries mean R^n)."""
    Q_list = Q_list or [None] * len(A_list)
    modes = [Mode(index=i, A=A, Q=Q) for i, (A, Q) in enumerate(zip(A_list, Q_list), start=1)]
    return SwitchedSystem(dim=np.asarray(A_list[0]).shape[0], modes=modes)


@pytest.fixture
def linear_system():
    return _linear_system


@pytest.fixture
def example2_linear_system():
    """The b = 0 linear part of example 2, on example 2's cones."""
    Qs = [m.Q for m in fixtures.example("example2")[0].modes]
    return _linear_system(
        [np.array([[-0.1, 1.0], [-5.0, -0.1]]), np.array([[-0.1, -5.0], [1.0, -0.1]])], Qs
    )


@pytest.fixture
def onedim_abs():
    """(spec, basis) of V(x) = max{x, -x} = |x| over one state variable."""
    basis = parse_config("[basis]\nV1 = x1\nV2 = -x1\n[structure]\nS1 = {1}\nS2 = {2}\n").basis
    return basis.to_spec(), basis.to_basis()


def _onedim_two_mode_system(f1, f2):
    return SwitchedSystem(
        dim=1,
        modes=[
            Mode(index=1, f=(parse_expr_text(repr(float(f1))),), H=parse_expr_text("-x1")),
            Mode(index=2, f=(parse_expr_text(repr(float(f2))),), H=parse_expr_text("x1")),
        ],
    )


@pytest.fixture
def onedim_two_mode_system():
    """Two constant-field modes meeting at the origin: f1 on x<0, f2 on x>0."""
    return _onedim_two_mode_system


@pytest.fixture
def example1_signal_text():
    """configs/example1.cfg with its three cones moved from the mode blocks
    to [signal] Q1..Q3."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "example1.cfg").read_text()
    cones = re.findall(r"^  Q = (.*)$", text, flags=re.M)
    assert len(cones) == 3
    inline_free = re.sub(r"^  Q = .*\n", "", text, flags=re.M)
    return inline_free + "\n[signal]\n" + "".join(f"Q{i} = {Q}\n" for i, Q in enumerate(cones, 1))

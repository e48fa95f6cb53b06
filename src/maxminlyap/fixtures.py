"""Built-in benchmark systems used by the reproduce subcommands and tests.

example1: three planar linear modes on a three-cone partition whose
  trajectories rotate clockwise through the cones; certified GAS by a
  max of {min of two quadratics, a third quadratic}.
example2: two planar modes with a saturating (arctan) perturbation on
  the double-cone partition x1^2 > x2^2 / x1^2 < x2^2; exhibits one
  converging and one diverging sliding line.
example3: two three-dimensional linear modes split by an invertible
  signature cone; certified GAS by a max of two quadratics.
"""

import math

import numpy as np

from .certifier import Candidate
from .inclusion import SwitchedSystem
from .maxmin import MaxMinSpec, QuadraticBasis
from .sysdsl.config import parse_expr_text

_R2 = math.sqrt(2.0)

EXAMPLE1_A = (
    np.array([[-0.1, 1.0], [-5.0, -0.1]]),
    np.array([[-0.1, 5.0], [-1.0, -0.1]]),
    np.array([[1.9, 3.0], [-3.0, -2.1]]),
)
EXAMPLE1_Q = (
    np.array([[-(1.0 + _R2), -(2.0 + _R2) / 2.0], [-(2.0 + _R2) / 2.0, -1.0]]),
    np.array([[-1.0 / (1.0 + _R2), -_R2 / 2.0], [-_R2 / 2.0, -1.0]]),
    np.array([[1.0, _R2], [_R2, 1.0]]),
)
EXAMPLE1_P = (
    np.diag([5.0, 1.0]),
    np.diag([1.0, 5.0]),
    np.array([[3.0, 2.0], [2.0, 3.0]]),
)
EXAMPLE1_Z0 = np.array([-1.0, 1.0])

# switching-line directions (unit vectors, first component positive)
EXAMPLE1_LINES = {
    "S13": np.array([1.0, -(1.0 + _R2)]) / math.hypot(1.0, 1.0 + _R2),
    "S21": np.array([1.0, -1.0]) / _R2,
    "S32": np.array([1.0 + _R2, -1.0]) / math.hypot(1.0, 1.0 + _R2),
}


def example1_system():
    return SwitchedSystem.linear(list(EXAMPLE1_A), list(EXAMPLE1_Q))


def example1_spec():
    return MaxMinSpec(K=3, families=((1, 2), (3,)), polarity="maxmin")


def example1_basis():
    return QuadraticBasis(list(EXAMPLE1_P))


def example1_candidate():
    """Reference multipliers for the four reduced inequalities."""
    return Candidate(
        matrices=[P.copy() for P in EXAMPLE1_P],
        taus={
            (1, ((3, 1, 2),)): (0.258, 0.102),
            (2, ((3, 2, 1),)): (0.258, 0.102),
            (3, ((1, 2, 3), (1, 3, 2), (2, 1, 3))): (0.284,),
            (3, ((2, 3, 1),)): (0.193, 0.090),
        },
        betas={},
    )


EXAMPLE2_A = (
    np.array([[-0.1, 1.0], [-5.0, -0.1]]),
    np.array([[-0.1, -5.0], [1.0, -0.1]]),
)
EXAMPLE2_Q = np.diag([1.0, -1.0])
EXAMPLE2_P = (np.diag([5.0, 1.0]), np.diag([1.0, 5.0]))


def example2_system(b=10.0):
    """Modes f_i(x) = A_i x - b*(atan(x1), atan(x2)) on the cones -/+ x^T Q x."""
    bs = repr(float(b))
    f1 = (
        parse_expr_text(f"-0.1*x1 + x2 - {bs}*atan(x1)"),
        parse_expr_text(f"-5*x1 - 0.1*x2 - {bs}*atan(x2)"),
    )
    f2 = (
        parse_expr_text(f"-0.1*x1 - 5*x2 - {bs}*atan(x1)"),
        parse_expr_text(f"x1 - 0.1*x2 - {bs}*atan(x2)"),
    )
    from .inclusion import Mode

    return SwitchedSystem(
        dim=2,
        modes=[
            Mode(index=1, f=f1, Q=-EXAMPLE2_Q),
            Mode(index=2, f=f2, Q=EXAMPLE2_Q.copy()),
        ],
    )


def example2_spec():
    return MaxMinSpec(K=2, families=((1, 2),), polarity="maxmin")


def example2_basis():
    return QuadraticBasis([P.copy() for P in EXAMPLE2_P])


EXAMPLE3_A = (
    np.array([[-0.1, -1.0, 0.0], [1.0, -0.1, 0.0], [0.0, 0.0, 0.2]]),
    np.array([[-0.2, 1.0, 0.1], [-1.0, -0.2, 0.0], [0.1, 0.0, -0.1]]),
)
EXAMPLE3_Q = np.diag([1.0, 1.0, -1.0])
EXAMPLE3_P = (np.diag([4.0, 4.0, 1.0]), np.diag([3.0, 3.0, 2.0]))


def example3_system():
    return SwitchedSystem.linear(list(EXAMPLE3_A), [EXAMPLE3_Q, -EXAMPLE3_Q])


def example3_spec():
    return MaxMinSpec(K=2, families=((1,), (2,)), polarity="maxmin")


def example3_basis():
    return QuadraticBasis([P.copy() for P in EXAMPLE3_P])


def example3_candidate():
    return Candidate(
        matrices=[P.copy() for P in EXAMPLE3_P],
        taus={},
        betas={(1, ((2, 1),)): 0.6, (2, ((1, 2),)): 0.0},
    )


def onedim_abs_spec_basis():
    """V(x) = max{x, -x} = |x| over one state variable."""
    from .maxmin import ExprBasis

    basis = ExprBasis([parse_expr_text("x1"), parse_expr_text("-x1")], dim=1)
    spec = MaxMinSpec(K=2, families=((1,), (2,)), polarity="maxmin")
    return spec, basis


def onedim_two_mode_system(f1, f2):
    """Two constant-field modes meeting at the origin: f1 on x<0, f2 on x>0."""
    from .inclusion import Mode

    return SwitchedSystem(
        dim=1,
        modes=[
            Mode(index=1, f=(parse_expr_text(repr(float(f1))),), H=parse_expr_text("-x1")),
            Mode(index=2, f=(parse_expr_text(repr(float(f2))),), H=parse_expr_text("x1")),
        ],
    )

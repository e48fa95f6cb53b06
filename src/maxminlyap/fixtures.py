"""The paper's bundled examples and its reference numbers.

Each example is one config file shipped in the package,
``maxminlyap/examples/<name>.cfg`` (linked as ``configs/<name>.cfg`` in
the source tree). ``example(name)`` parses it on each call, so the
``reproduce`` subcommands, the tests and the demos run exactly what
users pass to ``certify``. Only the paper's numbers live here: the
example1 start point and switching lines, and the reference
multipliers of the example1 and example3 candidates.

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
from importlib import resources

import numpy as np

from .inclusion import SwitchedSystem
from .sysdsl.config import parse_config

_R2 = math.sqrt(2.0)

EXAMPLE1_Z0 = np.array([-1.0, 1.0])

# switching-line directions (unit vectors, first component positive)
EXAMPLE1_LINES = {
    "S13": np.array([1.0, -(1.0 + _R2)]) / math.hypot(1.0, 1.0 + _R2),
    "S21": np.array([1.0, -1.0]) / _R2,
    "S32": np.array([1.0 + _R2, -1.0]) / math.hypot(1.0, 1.0 + _R2),
}


def example(name):
    """(system, spec, basis) of the bundled config ``<name>.cfg``."""
    path = resources.files(__package__) / "examples" / f"{name}.cfg"
    parsed = parse_config(path.read_text(encoding="utf-8"))
    basis = parsed.require_basis()
    return (
        SwitchedSystem.from_config(parsed.require_system()),
        basis.to_spec(),
        basis.to_basis(),
    )


def example1_candidate():
    """Reference multipliers for the four reduced inequalities."""
    from .certifier import Candidate
    return Candidate(
        matrices=list(example("example1")[2].matrices),
        multipliers={
            (1, ((3, 1, 2),)): (0.258, 0.102, 0.0),
            (2, ((3, 2, 1),)): (0.258, 0.102, 0.0),
            (3, ((1, 2, 3), (1, 3, 2), (2, 1, 3))): (0.284, 0.0),
            (3, ((2, 3, 1),)): (0.193, 0.090, 0.0),
        },
    )


def example3_candidate():
    from .certifier import Candidate
    return Candidate(
        matrices=list(example("example3")[2].matrices),
        multipliers={(1, ((2, 1),)): (0.0, 0.6), (2, ((1, 2),)): (0.0, 0.0)},
    )

"""Central numeric policy.

Every tolerance that influences a verdict lives here and is passed
explicitly, so any downstream result can be reproduced from a config.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInputError


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances and determinism knobs shared by all verdict-producing code.

    abs_tol / rel_tol enter scale-aware comparisons of the form
    ``|a - b| <= abs_tol + rel_tol * scale``.  ``margin`` is the strictness
    required of certified inequalities (a margin must be below ``-margin``,
    a sampled exclusion product above ``+margin``).  ``seed`` drives every
    randomized sampling step.  Tolerances are finite and not negative,
    and so is the seed (numpy's generators take no negative seed).
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    margin: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "margin"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidInputError(
                    f"{name} must be finite and not negative, got {getattr(self, name)}"
                )
        if self.seed < 0:
            raise InvalidInputError(f"seed must not be negative, got {self.seed}")


DEFAULT_POLICY = NumericPolicy()

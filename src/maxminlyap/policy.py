"""Central numeric policy.

Every tolerance that influences a verdict lives here and is passed
explicitly, so any downstream result can be reproduced from a config.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances and determinism knobs shared by all verdict-producing code.

    abs_tol / rel_tol enter scale-aware comparisons of the form
    ``|a - b| <= abs_tol + rel_tol * scale``.  ``margin`` is the strictness
    required of certified inequalities (a margin must be below ``-margin``,
    a sampled exclusion product above ``+margin``).  ``seed`` drives every
    randomized sampling step.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    margin: float = 1e-6
    seed: int = 0


DEFAULT_POLICY = NumericPolicy()

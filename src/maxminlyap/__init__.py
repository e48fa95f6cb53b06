"""Nonsmooth Lyapunov analysis for state-dependent switched systems.

The package builds Lyapunov candidates as max/min combinations of smooth
base functions (typically quadratic forms), computes their set-valued
derivatives along switched dynamics, simulates Filippov solutions with
sliding modes, and certifies global asymptotic stability of linear
switched systems over conic partitions via matrix-inequality checks.

Only ``policy`` and ``errors``, which every module uses, load with the
package.  Every other name in ``__all__`` loads its module on first
access (PEP 562), so a CLI command pays for the modules it runs and no
others.
"""

__version__ = "0.1.0"

import importlib

from .policy import NumericPolicy
from .errors import (
    ConfigError,
    DomainEvalError,
    InternalCheckError,
    InvalidInputError,
    PartitionError,
)

# the submodule that defines each name loaded on first access
_LAZY = {
    "MaxMinSpec": "maxmin",
    "QuadraticBasis": "maxmin",
    "ExprBasis": "maxmin",
    "SwitchedSystem": "inclusion",
    "LieSet": "setderiv",
    "ClarkeSet": "setderiv",
    "lie_derivative": "setderiv",
    "clarke_derivative": "setderiv",
    "SimOptions": "filippovsim",
    "simulate": "filippovsim",
    "Candidate": "certifier",
    "certify": "certifier",
}

__all__ = [
    "NumericPolicy",
    "ConfigError",
    "DomainEvalError",
    "InternalCheckError",
    "InvalidInputError",
    "PartitionError",
    *_LAZY,
]


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

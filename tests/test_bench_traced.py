"""The benchmark's layer tracer looks up public names of the package;
an API change that drops one would break ``bench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_names():
    """(module, attribute) pairs of the TRACED table in bench/run.py."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("bench/run.py has no TRACED table")


def resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) >= 20
    assert [n for n in names if not resolves(*n)] == []

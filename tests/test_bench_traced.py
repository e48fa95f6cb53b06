"""The benchmark looks up public names of the package: its layer tracer
wraps the functions of the TRACED table in ``bench/run.py``, and its
workloads read ``mm.<module>.<name>`` in ``bench/workloads.py``.  An API
change that drops one of them would break ``bench/run.py``."""

import ast
import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
RUN = BENCH / "run.py"
WORKLOADS = BENCH / "workloads.py"


def traced_names():
    """(module, attribute) pairs of the TRACED table in bench/run.py."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("bench/run.py has no TRACED table")


def imported(module, name):
    """What ``from module import name`` binds."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name)


def namespace():
    """The workloads' ``mm`` namespace: what ``import_library`` in
    bench/run.py imports, by the name it binds."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "import_library":
            return {
                alias.asname or alias.name: imported(imp.module, alias.name)
                for imp in ast.walk(node)
                if isinstance(imp, ast.ImportFrom)
                for alias in imp.names
            }
    raise AssertionError("bench/run.py has no import_library")


def workload_names():
    """(namespace attribute, dotted name) pairs the workloads read, through
    ``mm.<module>.<name>`` or a local alias ``x = mm.<module>``."""
    text = WORKLOADS.read_text()
    refs = set(re.findall(r"\bmm\.(\w+)\.(\w+(?:\.\w+)*)", text))
    for alias, module in re.findall(r"^\s*(\w+) = mm\.(\w+)$", text, re.M):
        refs |= {(module, name) for name in re.findall(rf"\b{alias}\.(\w+)", text)}
    return sorted(refs)


def lookup(obj, attr):
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) >= 20
    assert [n for n in names if not callable(lookup(importlib.import_module(n[0]), n[1]))] == []


def test_every_workload_name_resolves():
    mm = namespace()
    names = workload_names()
    assert len(names) >= 15
    assert [(m, a) for m, a in names if lookup(mm[m], a) is None] == []

"""The benchmark looks up public names of the package: its layer tracer
wraps the functions of the TRACED table in ``bench/run.py``, and its
workloads read ``mm.<module>.<name>`` in ``bench/workloads.py``.  An API
change that drops one of them, or a parameter a workload passes, or an
active-set method the tracer does not count, would break
``bench/run.py``."""

import ast
import importlib
import inspect
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
RUN = BENCH / "run.py"
WORKLOADS = BENCH / "workloads.py"
SRC = Path(__file__).resolve().parent.parent / "src" / "maxminlyap"


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


def dotted(node):
    """The names of a ``a.b.c`` expression, or None for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def workload_calls():
    """(line, names under ``mm``, (positional count, keyword names)) of
    every call the workloads make into the package, through ``mm.<...>``
    or a local alias ``x = mm.<module>``; None for the counts of a call
    with ``*args`` or ``**kwargs``, which cannot be checked."""
    tree = ast.parse(WORKLOADS.read_text())
    aliases = {
        node.targets[0].id: path[1]
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and (path := dotted(node.value)) is not None and len(path) == 2 and path[0] == "mm"
    }
    calls = []
    for node in ast.walk(tree):
        path = dotted(node.func) if isinstance(node, ast.Call) else None
        if path is None or (path[0] != "mm" and path[0] not in aliases):
            continue
        path = path[1:] if path[0] == "mm" else [aliases[path[0]]] + path[1:]
        unbound = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        counts = None if unbound else (len(node.args), tuple(k.arg for k in node.keywords))
        calls.append((node.lineno, path, counts))
    return calls


def test_every_workload_call_binds():
    mm = namespace()
    calls = workload_calls()
    assert len(calls) >= 20
    bad = []
    for line, path, counts in calls:
        fn = lookup(mm[path[0]], ".".join(path[1:])) if len(path) > 1 else mm[path[0]]
        if counts is None:
            bad.append((line, ".".join(path), "*args or **kwargs cannot be checked"))
            continue
        try:
            inspect.signature(fn).bind(*range(counts[0]), **dict.fromkeys(counts[1]))
        except (TypeError, ValueError) as err:
            bad.append((line, ".".join(path), str(err)))
    assert bad == []


def test_active_path_counts_every_active_set_method():
    """Every ``ActiveSet(method=...)`` the package builds has a counter in
    ``_ACTIVE_PATH``; a new method would be a KeyError in the traced pass."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_ACTIVE_PATH" for t in node.targets
        ):
            counted = ast.literal_eval(node.value)
            break
    else:
        raise AssertionError("bench/run.py has no _ACTIVE_PATH table")
    methods = set()
    for path in SRC.rglob("*.py"):
        name = ".".join(("maxminlyap",) + path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (dotted(node.func) or [""])[-1] == "ActiveSet":
                method = next(k.value for k in node.keywords if k.arg == "method")
                if isinstance(method, ast.Name):
                    methods.add(getattr(importlib.import_module(name), method.id))
                else:
                    methods.add(ast.literal_eval(method))
    assert len(methods) >= 3
    assert methods - counted.keys() == set()

"""The package's public names load their modules on first access, and
the API is the one the eager imports gave."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxminlyap
from maxminlyap import certifier, filippovsim, inclusion, maxmin, setderiv

SRC = Path(__file__).resolve().parent.parent / "src"

DEFINED_IN = {
    "NumericPolicy": "policy",
    "ConfigError": "errors",
    "DomainEvalError": "errors",
    "InternalCheckError": "errors",
    "InvalidInputError": "errors",
    "PartitionError": "errors",
    "MaxMinSpec": maxmin,
    "QuadraticBasis": maxmin,
    "ExprBasis": maxmin,
    "SwitchedSystem": inclusion,
    "LieSet": setderiv,
    "ClarkeSet": setderiv,
    "lie_derivative": setderiv,
    "clarke_derivative": setderiv,
    "SimOptions": filippovsim,
    "simulate": filippovsim,
    "Candidate": certifier,
    "certify": certifier,
}


def fresh(script):
    """The last stdout line of ``script`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_all_lists_the_public_names():
    assert maxminlyap.__all__ == list(DEFINED_IN)


@pytest.mark.parametrize("name", list(DEFINED_IN))
def test_each_public_name_is_its_module_attribute(name):
    module = DEFINED_IN[name]
    if isinstance(module, str):
        module = getattr(maxminlyap, module)
    assert getattr(maxminlyap, name) is getattr(module, name)


def test_star_import_and_dir_give_all():
    namespace = {}
    exec("from maxminlyap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(maxminlyap.__all__)
    for name in maxminlyap.__all__:
        assert namespace[name] is getattr(maxminlyap, name)
    assert set(maxminlyap.__all__) <= set(dir(maxminlyap))
    assert "__version__" in dir(maxminlyap)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        maxminlyap.no_such_name  # noqa: B018
    assert not hasattr(maxminlyap, "no_such_name")


def test_submodules_import_by_name_in_a_fresh_interpreter():
    # certifier and fixtures are no names of the package; `from import`
    # falls back to importing them as submodules
    out = fresh(
        "from maxminlyap import certifier, fixtures\n"
        "print(certifier.__name__, fixtures.__name__)\n"
    )
    assert out == "maxminlyap.certifier maxminlyap.fixtures"


def test_package_import_loads_no_heavy_module():
    out = fresh(
        "import sys\n"
        "import maxminlyap\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'maxminlyap')))\n"
    )
    assert out.split() == ["maxminlyap", "maxminlyap.errors", "maxminlyap.policy"]


def test_first_access_loads_the_module_and_caches_the_name():
    out = fresh(
        "import sys\n"
        "import maxminlyap\n"
        "before = 'maxminlyap.certifier' in sys.modules\n"
        "cached = 'certify' in vars(maxminlyap)\n"
        "f = maxminlyap.certify\n"
        "print(before, cached, 'maxminlyap.certifier' in sys.modules,\n"
        "      vars(maxminlyap)['certify'] is f is sys.modules['maxminlyap.certifier'].certify)\n"
    )
    assert out == "False False True True"


def test_sysdsl_exports_only_its_submodules():
    # the package re-exports nothing: its public names are the submodules
    # that have been imported, and it has no __all__
    out = fresh(
        "import maxminlyap.sysdsl as sysdsl\n"
        "bare = sorted(n for n in vars(sysdsl) if not n.startswith('_'))\n"
        "import maxminlyap.sysdsl.config\n"
        "full = sorted(n for n in vars(sysdsl) if not n.startswith('_'))\n"
        "print(bare, full, hasattr(sysdsl, '__all__'))\n"
    )
    assert out == "[] ['config', 'expr'] False"


@pytest.mark.parametrize("module", ["maxmin", "inclusion"])
def test_the_system_model_loads_no_config_reader(module):
    # the bases and the system model evaluate expressions; only the
    # commands that read a config load the reader
    out = fresh(
        "import sys\n"
        f"import maxminlyap.{module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('maxminlyap.sysdsl')))\n"
    )
    assert out == "['maxminlyap.sysdsl', 'maxminlyap.sysdsl.expr']"

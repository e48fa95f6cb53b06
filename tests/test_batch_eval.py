"""The batch target of ``compile_exprs`` against the point function, row
by row, and the batch evaluations built on it (expression mode fields,
expression bases, expression regions, the decrease check's entries)
against their per-row references."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxminlyap import fixtures
from maxminlyap.errors import InvalidInputError
from maxminlyap.inclusion import Mode, SwitchedSystem
from maxminlyap.maxmin import ExprBasis, MaxMinSpec, QuadraticBasis
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import decrease_check
from maxminlyap.sysdsl import (
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    QuadForm,
    Sub,
    Var,
    compile_exprs,
    parse_config,
)
import inclusion_reference
import maxmin_reference
import setderiv_reference

POLICY = NumericPolicy()

# ---------------------------------------------------------------------------
# random trees over x1..x3 and rows of states

_NUMBERS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e200]), st.floats(-2.0, 2.0))


@st.composite
def _quadforms(draw):
    m = draw(st.integers(1, 3))
    P = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m * m, max_size=m * m)))
    P = P.reshape(m, m) + P.reshape(m, m).T
    return QuadForm(tuple(tuple(float(v) for v in row) for row in P))


def _nodes(kids):
    return st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Neg, kids),
        st.builds(Pow, kids, st.integers(-3, 3).filter(bool)),
        st.builds(Call, st.sampled_from(["sin", "cos", "atan", "sqrt"]), kids),
    )


TREES = st.recursive(
    st.one_of(st.builds(Num, _NUMBERS), st.builds(Var, st.integers(1, 3)), _quadforms()),
    _nodes,
    max_leaves=10,
)

# signed zeros, subnormals, and values whose products overflow
_ENTRIES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e154, -1e200, 1e300]
    ),
    st.floats(-3.0, 3.0),
)


@st.composite
def _rows(draw, columns=3):
    """0-50 rows, the count drawn first so that long batches are common."""
    S = draw(st.integers(0, 50))
    rows = draw(st.lists(_ENTRIES, min_size=S * columns, max_size=S * columns))
    return np.array(rows, dtype=float).reshape(S, columns)


def _canonical(a):
    """The bytes of a float array with every NaN the same NaN: CPython's
    float sum and product of two NaNs of opposite sign return either one
    (see ``test_expr._outcome``), so no NaN sign is pinned."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _outcome(fn, *args):
    """The canonical bytes and shape of fn's array, or the type and text
    of the error it raises."""
    try:
        got = fn(*args)
    except Exception as err:  # noqa: BLE001 - the comparison is the test
        return type(err), str(err)
    return np.shape(got), _canonical(got)


def _point_rows(point, X, count):
    """The point function's values at each row of X in turn, (S, count)."""
    return np.array([point(x) for x in X], dtype=float).reshape(len(X), count)


# ---------------------------------------------------------------------------
# the batch target


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(TREES, min_size=1, max_size=3), X=_rows(), columns=st.integers(0, 3))
@example(exprs=[Div(Num(1.0), Var(1))], X=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), columns=3)
@example(exprs=[Pow(Mul(Var(1), Var(2)), 2)], X=np.array([[1e200, 1e200, 0.0]]), columns=3)
@example(exprs=[Call("sin", Mul(Var(1), Var(1)))], X=np.array([[1e200, 0.0, 0.0]]), columns=3)
@example(exprs=[Call("sqrt", Sub(Var(1), Num(2.0)))], X=np.zeros((0, 3)), columns=3)
@example(exprs=[Num(2.0), Var(3)], X=np.ones((4, 3)), columns=2)
@example(  # an element call raises at row 1 before row 0's domain test
    exprs=[Add(Pow(Var(2), 2), Div(Num(1.0), Var(1)))],
    X=np.array([[0.0, 1.0, 0.0], [1.0, 1e200, 0.0]]),
    columns=3,
)
def test_batch_columns_are_the_point_rows(exprs, X, columns):
    # each column holds the point function's bits at every row (a NaN as
    # NaN), or the batch raises the error of the first row and node the
    # row-by-row loop raises at; a state shorter than the largest
    # variable index raises as it does at one point
    X = X[:, :columns]
    fn = compile_exprs(exprs)
    want = _outcome(_point_rows, fn, X, len(exprs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow and invalid warnings are silenced
        got = _outcome(lambda: np.stack(fn.batch(X), axis=1).reshape(len(X), len(exprs)))
    assert got == want
    if not isinstance(got[0], type):
        cols = fn.batch(X)
        assert len(cols) == len(exprs)
        for col in cols:
            assert col.shape == (len(X),) and col.dtype == np.float64
            assert not np.shares_memory(col, X)


def test_batch_calls_the_point_codes_functions():
    # numpy's arctan and power round otherwise at some of these rows; the
    # batch applies math.atan and ** element by element
    rng = np.random.default_rng(0)
    X = rng.uniform(-20.0, 20.0, size=(2000, 1))
    fn = compile_exprs([Call("atan", Var(1)), Pow(Var(1), -3)])
    atan, power = fn.batch(X)
    assert atan.tobytes() == np.array([math.atan(v) for v in X[:, 0]]).tobytes()
    assert power.tobytes() == np.array([v**-3 for v in X[:, 0].tolist()]).tobytes()


def test_batch_code_reads_no_config_text():
    # as for the point function: numbers come from the constants tuple
    exprs = [Mul(Num(1e400), Var(1)), Call("sqrt", Var(2))]
    code = compile_exprs(exprs).batch.__code__
    assert not [c for c in code.co_consts if isinstance(c, (float, complex))]
    assert set(code.co_names) <= {"_h", "shape"}


def test_batch_takes_rows_only():
    fn = compile_exprs([Var(1)])
    with pytest.raises(InvalidInputError, match="rows of states"):
        fn.batch(np.zeros(3))


# ---------------------------------------------------------------------------
# evaluations built on it, against their per-row references


@settings(max_examples=150, deadline=None)
@given(f=st.lists(TREES, min_size=3, max_size=3), X=_rows())
def test_mode_field_is_the_per_row_field(f, X):
    mode = Mode(index=1, f=tuple(f))
    assert _outcome(mode.field, X) == _outcome(inclusion_reference.field, mode, X)


@settings(max_examples=100, deadline=None)
@given(exprs=st.lists(TREES, min_size=1, max_size=3), X=_rows())
def test_expr_basis_values_and_gradients_are_the_per_row_ones(exprs, X):
    basis = ExprBasis(exprs, dim=3)
    assert _outcome(basis.values, X) == _outcome(maxmin_reference.expr_values, basis, X)
    for k in range(1, basis.K + 1):
        want = _outcome(maxmin_reference.expr_gradient, basis, k, X)
        assert _outcome(basis.gradient, k, X) == want


@settings(max_examples=150, deadline=None)
@given(H=st.lists(TREES, min_size=2, max_size=2), X=_rows())
def test_region_values_are_the_per_row_ones(H, X):
    # a cone region, two expression regions and the whole space
    Q = np.diag([1.0, -1.0, 0.5])
    modes = [Mode(index=1, A=np.eye(3), Q=Q), Mode(index=2, A=np.eye(3), H=H[0])]
    modes += [Mode(index=3, A=np.eye(3), H=H[1]), Mode(index=4, A=np.eye(3))]
    sysm = SwitchedSystem(dim=3, modes=modes)
    with np.errstate(over="ignore"):  # the cone's quadratic form of 1e300
        want = _outcome(inclusion_reference.region_values, sysm, X)
        assert _outcome(sysm.region_values, X) == want


# ---------------------------------------------------------------------------
# the decrease check's entries

NAN_FIELD = "(1e308*x2*x2*x2 - 1e308*x2*x2*x2)"
H_REGIONS_CFG = (
    "[system]\ndim = 2\n"
    f"mode 1 {{\n  f = (1, 1 + {NAN_FIELD})\n  H = -x1\n}}\n"
    f"mode 2 {{\n  f = (-1, 1 + {NAN_FIELD})\n  H = x1\n}}\n"
)


def _decrease_problem(name):
    """Structure, basis, system and finite sample points: unit-sphere
    points, points on the lines x1 = 0 and x1 = +-x2 (region and base tie
    boundaries) and a zero row."""
    rng = np.random.default_rng(4)
    if name == "example2":
        sysm, spec, basis = fixtures.example("example2")
    else:
        sysm = SwitchedSystem.from_config(parse_config(H_REGIONS_CFG).require_system())
        spec = MaxMinSpec(K=2, families=((1, 2),))
        basis = QuadraticBasis([np.diag([5.0, 1.0]), np.diag([1.0, 5.0])])
    t = rng.uniform(0.0, 2.0 * np.pi, 300)
    r = rng.uniform(0.2, 1.0, (40, 1))
    lines = [r * [0.0, 1.0], r * [1.0, 1.0], r * [1.0, -1.0], -r * [0.0, 1.0]]
    X = np.vstack([np.stack([np.cos(t), np.sin(t)], axis=1), *lines, np.zeros((1, 2))])
    return spec, basis, sysm, X[rng.permutation(len(X))]


def _key(entries):
    return [
        (e.x.tobytes(), None if e.value is None else float.hex(e.value), float.hex(e.bound), e.ok)
        for e in entries
    ]


@pytest.mark.parametrize("use_clarke", [False, True], ids=["lie", "clarke"])
@pytest.mark.parametrize("rate", [0.0, 20.0])
@pytest.mark.parametrize("name", ["example2", "h-regions"])
def test_decrease_entries_are_the_per_row_construction(monkeypatch, name, rate, use_clarke):
    # the check with its fields, bases and regions evaluated row by row,
    # then its entries built one sample at a time, gives the entries of
    # the batch check to the bit
    spec, basis, sysm, X = _decrease_problem(name)
    got = decrease_check(spec, basis, sysm, X, rate, POLICY, use_clarke=use_clarke)
    field = Mode.field

    def field_by_rows(mode, x):
        if np.ndim(x) == 2 and mode.A is None:
            return inclusion_reference.field(mode, x)
        return field(mode, x)

    monkeypatch.setattr(Mode, "field", field_by_rows)
    monkeypatch.setattr(SwitchedSystem, "region_values", inclusion_reference.region_values)
    by_rows = decrease_check(spec, basis, sysm, X, rate, POLICY, use_clarke=use_clarke)
    kept = X[np.vecdot(X, X) > 0.0]
    want = setderiv_reference.decrease_entries(kept, rate, [e.value for e in by_rows.entries])
    assert _key(got.entries) == _key(by_rows.entries) == _key(want)
    assert len(want) == len(X) - 1
    assert all(type(e.ok) is bool and type(e.bound) is float for e in got.entries)
    assert all(e.value is None or type(e.value) is float for e in got.entries)

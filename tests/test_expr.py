import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminlyap.errors import DomainEvalError
from maxminlyap.sysdsl import expr as sysdsl_expr
from maxminlyap.sysdsl.expr import (
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
    differentiate,
    eval_expr,
    max_var,
    to_str,
)
from expr_text import parse_expr_text


def test_eval_quadform():
    e = QuadForm(((1.0, 0.0), (0.0, 5.0)))
    assert eval_expr(e, (1.0, 1.0)) == pytest.approx(6.0)


def test_eval_atan():
    assert eval_expr(parse_expr_text("atan(x1)"), (1.0,)) == pytest.approx(math.pi / 4)


def test_eval_product():
    assert eval_expr(parse_expr_text("x1*x2"), (3.0, -2.0)) == pytest.approx(-6.0)


def test_diff_quadform_component():
    # gradient of x' diag(5,1) x is (10 x1, 2 x2)
    e = QuadForm(((5.0, 0.0), (0.0, 1.0)))
    d1 = differentiate(e, 1)
    assert eval_expr(d1, (1.0, 1.0)) == pytest.approx(10.0)
    d2 = differentiate(e, 2)
    assert eval_expr(d2, (1.0, 1.0)) == pytest.approx(2.0)


def test_diff_atan_at_zero():
    d = differentiate(parse_expr_text("atan(x1)"), 1)
    assert eval_expr(d, (0.0,)) == pytest.approx(1.0)


def test_diff_constant_is_zero():
    d = differentiate(parse_expr_text("3.5"), 1)
    assert eval_expr(d, (0.7,)) == 0.0


def _random_expr(rng, depth, dim):
    roll = rng.integers(0, 11 if depth > 0 else 3)
    if roll == 0:
        return Num(float(rng.uniform(-2.0, 2.0)))
    if roll == 1:
        return Var(int(rng.integers(1, dim + 1)))
    if roll == 2:
        m = int(rng.integers(1, dim + 1))
        P = rng.uniform(-2.0, 2.0, size=(m, m))
        return QuadForm(tuple(tuple(float(v) for v in row) for row in P + P.T))
    a = _random_expr(rng, depth - 1, dim)
    b = _random_expr(rng, depth - 1, dim)
    if roll == 3:
        return Add(a, b)
    if roll == 4:
        return Sub(a, b)
    if roll == 5:
        return Mul(a, b)
    if roll == 6:
        return Div(a, b)
    if roll == 7:
        return Neg(a)
    if roll == 8:
        return Call(str(rng.choice(["sin", "cos", "atan", "sqrt"])), a)
    if roll == 9:
        return Pow(a, int(rng.integers(1, 4)))
    return Pow(a, -int(rng.integers(1, 4)))


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 150:
        dim = int(rng.integers(1, 4))
        e = _random_expr(rng, 3, dim)
        x = rng.uniform(-1.5, 1.5, size=dim)
        var = int(rng.integers(1, dim + 1))
        d = differentiate(e, var)
        h = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[var - 1] += h
        xm[var - 1] -= h
        try:
            fd = (eval_expr(e, xp) - eval_expr(e, xm)) / (2 * h)
            exact = eval_expr(d, x)
        except DomainEvalError:
            continue
        if not (math.isfinite(fd) and math.isfinite(exact)):
            continue
        scale = max(1.0, abs(exact))
        if abs(fd) > 1e4:  # steep spots make the FD oracle itself unreliable
            continue
        assert abs(fd - exact) <= 1e-5 * scale, to_str(e)
        checked += 1


def test_roundtrip_random_asts():
    # parse(print(.)) is a fixed point on parser-canonical trees
    rng = np.random.default_rng(9)
    for _ in range(300):
        raw = _random_expr(rng, 3, 3)
        e = parse_expr_text(to_str(raw))
        text = to_str(e)
        again = parse_expr_text(text)
        assert again == e
        assert to_str(again) == text
        x = rng.uniform(-1.0, 1.0, size=3)
        try:
            v1 = eval_expr(raw, x)
            v2 = eval_expr(again, x)
        except DomainEvalError:
            continue
        if math.isfinite(v1):
            assert v1 == pytest.approx(v2, abs=0.0)


def test_roundtrip_fixture_texts():
    for text in (
        "-0.1*x1 + x2 - 10.0*atan(x1)",
        "quadform([[5.0, 0.0], [0.0, 1.0]]) - pow(x2, 3)",
        "sqrt(x1*x1 + 1.0)/(2.0 - cos(x2))",
    ):
        e = parse_expr_text(text)
        assert to_str(parse_expr_text(to_str(e))) == to_str(e)


def test_domain_error_reports_subexpression():
    e = parse_expr_text("sqrt(x1 - 2.0)")
    with pytest.raises(DomainEvalError) as err:
        eval_expr(e, (0.0,))
    assert "sqrt" in str(err.value)


def test_division_by_zero():
    with pytest.raises(DomainEvalError):
        eval_expr(parse_expr_text("1.0/x1"), (0.0,))


def test_max_var():
    assert max_var(parse_expr_text("x1*atan(x3) + 2.0")) == 3
    assert max_var(Num(1.0)) == 0
    assert max_var(QuadForm(((1.0, 0.0), (0.0, 1.0)))) == 2


def test_pow_and_div_derivatives():
    e = Div(Num(1.0), Var(1))
    d = differentiate(e, 1)
    assert eval_expr(d, (2.0,)) == pytest.approx(-0.25)
    p = Pow(Var(1), 3)
    dp = differentiate(p, 1)
    assert eval_expr(dp, (2.0,)) == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# compiled expression sets against eval_expr

STATE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, 1e300, math.inf, -math.inf, math.nan)


def _outcome(fn, x):
    """The bits of every value fn returns at x (signed zeros included),
    or the type and message of the error it raises.

    A NaN counts as NaN whatever its sign: CPython's float product and
    sum of two NaNs of opposite sign return either one, depending on
    whether the interpreter has specialised that instruction yet, so
    even eval_expr alone gives both signs for one tree and state.
    """
    try:
        values = fn(x)
    except Exception as err:  # noqa: BLE001 - the comparison is the test
        return type(err), str(err)
    return tuple("nan" if math.isnan(v) else struct.pack("<d", v) for v in values)



def _reference(exprs):
    return lambda x: [eval_expr(e, x) for e in exprs]


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    count=st.integers(1, 3),
    state=st.lists(
        st.one_of(st.sampled_from(STATE_VALUES), st.floats(-3.0, 3.0)), min_size=3, max_size=3
    ),
    length=st.integers(0, 3),
)
def test_compiled_exprs_match_eval_expr_bit_for_bit(seed, dim, count, state, length):
    # same bits (signed zeros included, a NaN as NaN), or the same error
    # with the same message: domain errors at the same node, and
    # eval_expr's error for a state shorter than the largest variable index
    rng = np.random.default_rng(seed)
    exprs = [_random_expr(rng, 4, dim) for _ in range(count)]
    x = np.array(state[:length])
    assert _outcome(compile_exprs(exprs), x) == _outcome(_reference(exprs), x)


@pytest.mark.parametrize(
    "text, x",
    [
        ("sqrt(x1 - 2.0)/x2", (0.0, 0.0)),  # the divisor is evaluated first
        ("sqrt(x1 - 2.0)/x2", (0.0, 1.0)),
        ("pow(x1, -2) + 1.0/x2", (-0.0, 1.0)),
        ("x1*atan(x3)", (1.0, 2.0)),
        ("quadform([[1.0, 0.0], [0.0, 1.0]]) + x1", (1.0,)),
    ],
)
def test_compiled_exprs_raise_as_eval_expr(text, x):
    e = parse_expr_text(text)
    got = _outcome(compile_exprs([e]), x)
    assert got == _outcome(_reference([e]), x)
    assert issubclass(got[0], Exception)


def test_compiled_exprs_handle_a_sum_nested_600_deep():
    # one statement per node: no nesting limit of the Python parser
    e = Var(1)
    for i in range(600):
        e = Add(e, Num(0.1 * i))
    for x in ((0.3,), (-0.0,), (math.nan,)):
        assert _outcome(compile_exprs([e]), x) == _outcome(_reference([e]), x)


def test_compiled_code_reads_no_config_text():
    # numbers reach the code through the constants tuple and function
    # names through the fixed helper table; printed into the source, the
    # literal 1e400 would come back as the name inf
    texts = (
        "1e400*x1 + sqrt(x2)/pow(x1, -2) - atan(quadform([[1.0, 0.5], [0.5, 2.0]]))",
        "1e400*x1",
    )
    exprs = [parse_expr_text(t) for t in texts]
    fn = compile_exprs(exprs)
    code = fn.__code__
    assert set(code.co_names) <= {"_h", "float"}
    assert not [c for c in code.co_consts if isinstance(c, (float, complex))]
    assert {c for c in code.co_consts if isinstance(c, str)} <= set(sysdsl_expr._HELPERS)
    for x in ((2.0, 1.0), (-1.0, 4.0), (0.0, 1.0), (-0.0, 0.0), (math.nan, 1.0)):
        assert _outcome(fn, x) == _outcome(_reference(exprs), x)


@pytest.mark.parametrize("bad", [Call("__import__", Var(1)), Add(Var(1), "x2")])
def test_compile_refuses_unknown_functions_and_nodes(bad):
    with pytest.raises(TypeError):
        compile_exprs([bad])


@pytest.mark.parametrize(
    "text, want",
    [
        ("-3", Num(-3.0)),
        ("-x1", Neg(Var(1))),
        ("--x1", Var(1)),
        ("-(-(x1))", Var(1)),
    ],
)
def test_unary_minus_folds_to_the_same_tree(text, want):
    # a minus on a number is the negative number, and two minuses cancel
    assert parse_expr_text(text) == want


@pytest.mark.parametrize(
    "text, x, want",
    [
        ("pow(x1, 41)", (1e8,), math.inf),
        ("pow(x1, 41)", (-1e8,), -math.inf),
        ("pow(x1, 40)", (-1e8,), math.inf),
        ("pow(x1, -3)", (-1e-200,), -math.inf),
        ("x2 + pow(x1, 41)", (1e8, 1.0), math.inf),
        ("sin(x1)", (math.inf,), math.nan),
        ("cos(x1)", (-math.inf,), math.nan),
        ("cos(pow(x1, 41))", (1e8,), math.nan),
    ],
)
def test_overflowing_power_and_trig_at_infinity_give_ieee_values(text, x, want):
    # Python's float ** raises OverflowError and math.sin/cos of +-inf
    # raise ValueError; the tree, the point function and the batch give
    # IEEE's signed infinity or NaN instead, bit for bit alike, and the
    # batch's other rows keep their values
    e = parse_expr_text(text)
    compiled = compile_exprs([e])
    other = [0.5] * len(x)
    column = compiled.batch(np.array([x, other]))[0]
    got = [eval_expr(e, x), compiled(np.array(x))[0], column[0]]
    assert {struct.pack("<d", v) for v in got} == {struct.pack("<d", want)}
    assert column[1] == eval_expr(e, other)

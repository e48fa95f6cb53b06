"""Expression ASTs with exact symbolic differentiation.

Gradients of region functions and non-quadratic base functions are
needed at machine precision; finite differences would pollute the
set-valued derivative verdicts, so derivatives are taken symbolically.
The node set is deliberately small: real literals, state variables
x1..xn, arithmetic, integer powers, sin/cos/atan/sqrt, and quadform(P)
as sugar for x^T P x.  ``eval_expr`` walks a tree once; ``compile_exprs``
turns a set of trees that is evaluated many times into one Python
function with the same results, bit for bit, and a batch form of it
over rows of states.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainEvalError, InvalidInputError


class Expr:
    """Base class for AST nodes; nodes are immutable and compare structurally."""

    def __str__(self):
        return to_str(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based state coordinate


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # sin | cos | atan | sqrt
    arg: Expr


@dataclass(frozen=True)
class QuadForm(Expr):
    matrix: tuple  # tuple of row tuples, symmetric

    @property
    def dim(self):
        return len(self.matrix)


FUNCTIONS = {"sin": math.sin, "cos": math.cos, "atan": math.atan, "sqrt": math.sqrt}


# ---------------------------------------------------------------------------
# smart constructors with light constant folding (keeps derivative ASTs small)

ZERO = Num(0.0)
ONE = Num(1.0)


def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def div(a, b):
    if _is_num(a, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def powi(base, n):
    if n == 0:
        return ONE
    if n == 1:
        return base
    return Pow(base, n)


# ---------------------------------------------------------------------------
# evaluation

_DOMAIN_MESSAGES = {
    Div: "division by zero",
    Pow: "zero raised to a negative power",
    Call: "sqrt of a negative value",
}


def _domain_error(node):
    """Raise the domain error of ``node``; its text is formatted only here."""
    raise DomainEvalError(_DOMAIN_MESSAGES[type(node)], to_str(node))


def eval_expr(e, x):
    """Numeric value of ``e`` at state vector ``x`` (sequence, 0-indexed)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(x):
            raise InvalidInputError(
                f"state has dimension {len(x)}, expression uses x{e.index}"
            )
        return float(x[e.index - 1])
    if isinstance(e, Add):
        return eval_expr(e.a, x) + eval_expr(e.b, x)
    if isinstance(e, Sub):
        return eval_expr(e.a, x) - eval_expr(e.b, x)
    if isinstance(e, Mul):
        return eval_expr(e.a, x) * eval_expr(e.b, x)
    if isinstance(e, Div):
        d = eval_expr(e.b, x)
        if d == 0.0:
            _domain_error(e)
        return eval_expr(e.a, x) / d
    if isinstance(e, Neg):
        return -eval_expr(e.a, x)
    if isinstance(e, Pow):
        base = eval_expr(e.base, x)
        if base == 0.0 and e.exponent < 0:
            _domain_error(e)
        try:
            return base**e.exponent
        except OverflowError:  # out of range: IEEE's infinity, signed as the power
            return math.copysign(math.inf, base) if e.exponent % 2 else math.inf
    if isinstance(e, Call):
        v = eval_expr(e.arg, x)
        if e.fn == "sqrt" and v < 0.0:
            _domain_error(e)
        try:
            return FUNCTIONS[e.fn](v)
        except ValueError:  # sin or cos of +-inf, which IEEE makes NaN
            return math.nan
    if isinstance(e, QuadForm):
        n = e.dim
        if len(x) < n:
            raise InvalidInputError(
                f"state has dimension {len(x)}, quadform needs {n}"
            )
        acc = 0.0
        for i in range(n):
            row = e.matrix[i]
            for j in range(n):
                acc += float(x[i]) * row[j] * float(x[j])
        return acc
    raise TypeError(f"unknown expression node {type(e).__name__}")


# ---------------------------------------------------------------------------
# compilation


def _eval_all(x, exprs):
    return tuple(eval_expr(e, x) for e in exprs)


def _by_rows(point, X, count):
    """The batch target's fallback: ``point`` at each row of X in turn,
    so the first row and node that raise raise as they would alone."""
    values = np.array([point(x) for x in X], dtype=float).reshape(len(X), count)
    return tuple(values.T)


def _each(fn, v):
    """``fn`` at each element of a column, or at a number."""
    if isinstance(v, np.ndarray):
        return np.array(list(map(fn, v.tolist())), dtype=float)
    return fn(v)


def _power(v, k):
    """``** k`` at each element of a column, or at a number."""
    if isinstance(v, np.ndarray):
        return np.array([t**k for t in v.tolist()], dtype=float)
    return v**k


def _column(v, count):
    """A new (count,) array of the column or number v."""
    out = np.empty(count)
    out[...] = v
    return out


class _Fallback(Exception):
    """A domain test of the batch target holds at some row."""


def _states(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError(f"batch evaluation takes rows of states, got shape {X.shape}")
    return X


# Everything compiled code reads besides its state and locals: ``float``
# and this table of the analytic functions and helpers.
_HELPERS = dict(
    FUNCTIONS,
    len=len,
    domain=_domain_error,
    reference=_eval_all,
    rows=_by_rows,
    each=_each,
    power=_power,
    column=_column,
    states=_states,
    any=np.any,
    quiet=lambda: np.errstate(all="ignore"),
    fallback=_Fallback,
    raised=(_Fallback, ArithmeticError, ValueError),
    unlike_ieee=(OverflowError, ValueError),
)
_GLOBALS = {"__builtins__": {}, "float": float, "_h": _HELPERS}
_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*"}


def compile_exprs(exprs):
    """One straight-line function of the state x returning the tuple of
    the values of ``exprs``, bit for bit those of ``eval_expr``: the same
    operations in the same order, and the same domain error at the same
    node.

    Each node is one statement, so no depth that ``eval_expr`` handles
    meets a nesting limit of the Python parser.  Numbers, exponents and
    the nodes a domain error names are read from a constants tuple, and
    function names from ``FUNCTIONS``, so no config text reaches
    ``compile``.  A state shorter than the largest variable index goes to
    ``eval_expr``, which raises its error; so does a state where a ``**``
    overflows or sin or cos meets +-inf, where Python raises and
    ``eval_expr`` gives IEEE's signed infinity or NaN.

    The same walk emits a second target, the function's ``batch``
    attribute: rows X[S, n] in, one new (S,) column per expression out,
    each row bit for bit the point function's values there.  ``+``,
    ``-``, ``*``, ``/`` and negation are numpy operations on whole
    columns (IEEE operations, which round as the point code's floats
    do; numpy's warnings are silenced); every power and function call
    applies the point code's own ``**`` or ``math`` function element by
    element, because numpy's ``power`` and trigonometric loops round
    otherwise.  Where a domain test holds at any row, or an element call
    raises (``ArithmeticError``, ``ValueError``), or X has fewer columns
    than the largest variable index, the batch evaluates its rows one by
    one with the point function, which raises the same error at the
    same row and node.
    """
    exprs = tuple(exprs)
    consts, lines, batch, loaded = [0.0], [], [], {}  # c0 is the zero of sums and domain tests

    def const(value):
        consts.append(value)
        return f"c{len(consts) - 1}"

    def temp(rhs, batch_rhs=None):
        name = f"v{len(lines)}"
        lines.append(f"{name} = {rhs}")
        batch.append(f"{name} = {batch_rhs or rhs}")
        return name

    def check(test, node):
        lines.append(f"if {test}: _h['domain']({const(node)})")
        batch.append(f"if _h['any']({test}): raise _h['fallback']")

    def emit(e):
        # mirrors eval_expr branch by branch; returns the name of e's value
        if isinstance(e, Num):
            return const(e.value)
        if isinstance(e, Var):
            if e.index not in loaded:
                i = int(e.index) - 1
                loaded[e.index] = temp(f"float(x[{i}])", f"X[:, {i}]")
            return loaded[e.index]
        if isinstance(e, (Add, Sub, Mul)):
            a, b = emit(e.a), emit(e.b)
            return temp(f"{a} {_BINARY_OPS[type(e)]} {b}")
        if isinstance(e, Div):
            d = emit(e.b)
            check(f"{d} == c0", e)
            return temp(f"{emit(e.a)} / {d}")
        if isinstance(e, Neg):
            return temp(f"-{emit(e.a)}")
        if isinstance(e, Pow):
            base = emit(e.base)
            if e.exponent < 0:
                check(f"{base} == c0", e)
            k = const(e.exponent)
            return temp(f"{base} ** {k}", f"_h['power']({base}, {k})")
        if isinstance(e, Call):
            if e.fn not in FUNCTIONS:
                raise TypeError(f"unknown function {e.fn!r}")
            v = emit(e.arg)
            if e.fn == "sqrt":
                check(f"{v} < c0", e)
            return temp(f"_h[{e.fn!r}]({v})", f"_h['each'](_h[{e.fn!r}], {v})")
        if isinstance(e, QuadForm):
            acc = "c0"
            for i, row in enumerate(e.matrix):
                for j, p in enumerate(row):
                    xi, xj = emit(Var(i + 1)), emit(Var(j + 1))
                    acc = temp(f"{acc} + {xi} * {const(p)} * {xj}")
            return acc
        raise TypeError(f"unknown expression node {type(e).__name__}")

    results = [emit(e) for e in exprs]
    n = max((max_var(e) for e in exprs), default=0)
    body = [f"if _h['len'](x) < {n}: return _h['reference'](x, _e)"] if n else []
    columns = "".join(f"_h['column']({r}, S), " for r in results)
    source = "\n".join(
        ["def _make(_c, _e):"]
        + [f"    {', '.join(f'c{i}' for i in range(len(consts)))}, = _c"]
        + ["    def compiled(x):"]
        + [f"        {line}" for line in body]
        + ["        try:"]
        + [f"            {line}" for line in lines]
        + [f"            return ({''.join(r + ', ' for r in results)})"]
        + ["        except _h['unlike_ieee']:", "            return _h['reference'](x, _e)"]
        + ["    def batch(X):"]
        + ["        X = _h['states'](X)", "        S = _h['len'](X)"]
        + [f"        if X.shape[1] >= {n}:", "            try:"]
        + ["                with _h['quiet']():"]
        + [f"                    {line}" for line in batch]
        + [f"                    return ({columns})"]
        + ["            except _h['raised']:", "                pass"]
        + [f"        return _h['rows'](compiled, X, {len(exprs)})"]
        + ["    compiled.batch = batch", "    return compiled"]
    )
    namespace = dict(_GLOBALS)
    exec(compile(source, "<compiled expressions>", "exec"), namespace)
    return namespace["_make"](tuple(consts), exprs)


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e, var):
    """Exact partial derivative of ``e`` with respect to x<var> (1-based)."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Add):
        return add(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Sub):
        return sub(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.a, var), e.b), mul(e.a, differentiate(e.b, var))
        )
    if isinstance(e, Div):
        num = sub(
            mul(differentiate(e.a, var), e.b), mul(e.a, differentiate(e.b, var))
        )
        return div(num, powi(e.b, 2))
    if isinstance(e, Neg):
        return neg(differentiate(e.a, var))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        return mul(mul(Num(float(e.exponent)), powi(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        inner = differentiate(e.arg, var)
        if e.fn == "sin":
            return mul(Call("cos", e.arg), inner)
        if e.fn == "cos":
            return neg(mul(Call("sin", e.arg), inner))
        if e.fn == "atan":
            return div(inner, add(ONE, powi(e.arg, 2)))
        if e.fn == "sqrt":
            return div(inner, mul(Num(2.0), Call("sqrt", e.arg)))
    if isinstance(e, QuadForm):
        # gradient of x^T P x is 2 P x
        if var > e.dim:
            return ZERO
        row = e.matrix[var - 1]
        acc = ZERO
        for j in range(e.dim):
            acc = add(acc, mul(Num(2.0 * row[j]), Var(j + 1)))
        return acc
    raise TypeError(f"unknown expression node {type(e).__name__}")


def max_var(e):
    """Largest state index referenced by ``e`` (0 for constants)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, QuadForm):
        return e.dim
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_var(e.a), max_var(e.b))
    if isinstance(e, Neg):
        return max_var(e.a)
    if isinstance(e, Pow):
        return max_var(e.base)
    if isinstance(e, Call):
        return max_var(e.arg)
    return 0


# ---------------------------------------------------------------------------
# printing (deterministic; parse(to_str(e)) reproduces e structurally)

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e, limit):
    s = to_str(e)
    return f"({s})" if _prec(e) < limit else s


def _fmt_num(v):
    return repr(float(v))


def to_str(e):
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Add):
        return f"{_wrap(e.a, _PREC_ADD)} + {_wrap(e.b, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.a, _PREC_ADD)} - {_wrap(e.b, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC_MUL)}*{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC_MUL)}/{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.a, _PREC_NEG + 1)}"
    if isinstance(e, Pow):
        return f"pow({to_str(e.base)}, {e.exponent})"
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    if isinstance(e, QuadForm):
        rows = ", ".join(
            "[" + ", ".join(_fmt_num(v) for v in row) + "]" for row in e.matrix
        )
        return f"quadform([{rows}])"
    raise TypeError(f"unknown expression node {type(e).__name__}")

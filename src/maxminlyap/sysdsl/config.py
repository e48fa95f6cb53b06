"""Line-oriented configuration format.

A config has up to four sections::

    # comment
    [system]
    dim = 2
    mode 1 { A = [[-0.1, 1], [-5, -0.1]]; Q = [[1, 0], [0, -1]] }
    mode 2 { f = (-0.1*x1 + x2, -x1); H = x1 - x2 }

    [basis]
    P1 = [[5, 0], [0, 1]]          # or V1 = <expr> for non-quadratic bases
    P2 = [[1, 0], [0, 5]]

    [structure]
    polarity = maxmin               # optional, maxmin (default) or minmax
    S1 = {1, 2}

    [signal]                        # optional alternative home for regions
    Q1 = [[1, 0], [0, -1]]

Matrix entries are constant expressions (``-(1+sqrt(2))`` is fine) and
are evaluated while parsing; one that is not finite (``1e400``) or
leaves its domain (``1/0``) is an error at the entry.  Newlines separate
statements; they are ignored inside parentheses and matrix brackets, so
literals may span lines.  ``;`` is an explicit separator inside mode blocks.  An entry
given twice is an error.
"""

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError, DomainEvalError, InvalidInputError
from ..numkernel import as_symmetric, negdef_margin, positive_definite
from . import expr as ex

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[\[\]{}()=,;+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | newline | eof
    value: str
    line: int
    col: int


def tokenize(text):
    tokens = []
    depth = 0  # () and [] nesting; newlines inside are insignificant
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ConfigError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1
                )
            kind = m.lastgroup
            value = m.group()
            if kind == "op":
                if value in "([":
                    depth += 1
                elif value in ")]":
                    depth = max(0, depth - 1)
            tokens.append(Token(kind, value, lineno, pos + 1))
            pos = m.end()
        if depth == 0 and tokens and tokens[-1].kind != "newline":
            tokens.append(Token("newline", "\n", lineno, len(raw) + 1))
    tokens.append(Token("eof", "", len(text.splitlines()) + 1, 1))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, skip_newlines=False):
        j = self.i
        if skip_newlines:
            while self.tokens[j].kind == "newline":
                j += 1
        return self.tokens[j]

    def next(self, skip_newlines=False):
        if skip_newlines:
            while self.tokens[self.i].kind == "newline":
                self.i += 1
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, value, skip_newlines=False):
        tok = self.next(skip_newlines)
        if tok.value != value:
            raise ConfigError(
                f"expected {value!r}, found {tok.value!r}", tok.line, tok.col
            )
        return tok


# ---------------------------------------------------------------------------
# expression parsing (recursive descent, shared by config values)


def _parse_expr(ts):
    node = _parse_term(ts)
    while ts.peek().value in ("+", "-") and ts.peek().kind == "op":
        op = ts.next().value
        rhs = _parse_term(ts)
        node = ex.Add(node, rhs) if op == "+" else ex.Sub(node, rhs)
    return node


def _parse_term(ts):
    node = _parse_factor(ts)
    while ts.peek().value in ("*", "/") and ts.peek().kind == "op":
        op = ts.next().value
        rhs = _parse_factor(ts)
        node = ex.Mul(node, rhs) if op == "*" else ex.Div(node, rhs)
    return node


def _parse_factor(ts):
    tok = ts.peek()
    if tok.kind == "op" and tok.value == "-":
        ts.next()
        return ex.neg(_parse_factor(ts))
    return _parse_atom(ts)


def _parse_atom(ts):
    tok = ts.next()
    if tok.kind == "number":
        return ex.Num(float(tok.value))
    if tok.kind == "op" and tok.value == "(":
        node = _parse_expr(ts)
        ts.expect(")")
        return node
    if tok.kind == "ident":
        name = tok.value
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise ConfigError("state variables are numbered from x1", tok.line, tok.col)
            return ex.Var(idx)
        if name == "pow":
            ts.expect("(")
            base = _parse_expr(ts)
            ts.expect(",")
            etok = ts.next()
            sign = 1
            if etok.kind == "op" and etok.value == "-":
                sign = -1
                etok = ts.next()
            if etok.kind != "number" or any(c in etok.value for c in ".eE"):
                raise ConfigError("pow exponent must be an integer", etok.line, etok.col)
            ts.expect(")")
            return ex.Pow(base, sign * int(etok.value))
        if name == "quadform":
            ts.expect("(")
            mat = _parse_matrix(ts)
            ts.expect(")")
            return ex.QuadForm(tuple(tuple(row) for row in mat.tolist()))
        if name in ex.FUNCTIONS:
            ts.expect("(")
            arg = _parse_expr(ts)
            ts.expect(")")
            return ex.Call(name, arg)
        raise ConfigError(f"unknown identifier {name!r}", tok.line, tok.col)
    raise ConfigError(
        f"expected an expression, found {tok.value!r}", tok.line, tok.col
    )


def _parse_const(ts):
    tok = ts.peek()
    node = _parse_expr(ts)
    if ex.max_var(node) > 0:
        raise ConfigError("matrix entries must be constant", tok.line, tok.col)
    try:
        value = ex.eval_expr(node, ())
    except OverflowError:  # pow of a float; the float operators give inf
        value = math.inf
    except DomainEvalError as err:
        raise ConfigError(str(err), tok.line, tok.col) from None
    if not math.isfinite(value):
        raise ConfigError("matrix entry is not finite", tok.line, tok.col)
    return value


def _parse_matrix(ts):
    """``[[a, b], [c, d]]`` row-major; entries are constant expressions."""
    open_tok = ts.expect("[")
    rows = []
    while True:
        ts.expect("[")
        row = [_parse_const(ts)]
        while ts.peek().value == ",":
            ts.next()
            row.append(_parse_const(ts))
        ts.expect("]")
        rows.append(row)
        tok = ts.next()
        if tok.value == "]":
            break
        if tok.value != ",":
            raise ConfigError(
                f"expected ',' or ']' in matrix literal, found {tok.value!r}",
                tok.line,
                tok.col,
            )
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("ragged matrix literal", open_tok.line, open_tok.col)
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# configuration objects


@dataclass
class ModeConfig:
    index: int
    A: Optional[np.ndarray] = None  # linear field fast path
    f: Optional[tuple] = None  # tuple of Expr, one per coordinate
    Q: Optional[np.ndarray] = None  # conic region x^T Q x > 0
    H: Optional[ex.Expr] = None  # general region H(x) > 0
    region_all: bool = False


@dataclass
class SystemConfig:
    dim: int
    modes: list  # list[ModeConfig], indices 1..M


@dataclass
class BasisConfig:
    kind: str  # "quadratic" | "expr"
    matrices: Optional[list] = None  # list[np.ndarray]
    exprs: Optional[list] = None  # list[Expr]
    families: Optional[tuple] = None  # tuple of tuples of 1-based indices
    polarity: str = "maxmin"

    @property
    def K(self):
        return len(self.matrices if self.kind == "quadratic" else self.exprs)

    def to_spec(self):
        from ..maxmin import MaxMinSpec

        return MaxMinSpec(K=self.K, families=self.families, polarity=self.polarity)

    def to_basis(self):
        from ..maxmin import ExprBasis, QuadraticBasis

        if self.kind == "quadratic":
            return QuadraticBasis(self.matrices)
        dim = max(ex.max_var(e) for e in self.exprs)
        return ExprBasis(self.exprs, dim=max(dim, 1))


@dataclass
class ParsedConfig:
    system: Optional[SystemConfig]
    basis: Optional[BasisConfig]

    def require_system(self):
        if self.system is None:
            raise ConfigError("config has no [system] section")
        return self.system

    def require_basis(self):
        if self.basis is None:
            raise ConfigError("config has no [basis]/[structure] sections")
        return self.basis


# ---------------------------------------------------------------------------
# section parsing


def _parse_mode_block(ts, index):
    mode = ModeConfig(index=index)
    seen = set()
    ts.expect("{", skip_newlines=True)
    while True:
        tok = ts.peek(skip_newlines=True)
        if tok.value == "}":
            ts.next(skip_newlines=True)
            break
        tok = ts.next(skip_newlines=True)
        if tok.kind != "ident":
            raise ConfigError(
                f"expected a mode entry, found {tok.value!r}", tok.line, tok.col
            )
        key = tok.value
        if key in seen:
            raise ConfigError(f"duplicate {key} in mode {index}", tok.line, tok.col)
        seen.add(key)
        ts.expect("=")
        if key == "A":
            mode.A = _parse_matrix(ts)
        elif key == "f":
            ts.expect("(")
            comps = [_parse_expr(ts)]
            while ts.peek().value == ",":
                ts.next()
                comps.append(_parse_expr(ts))
            ts.expect(")")
            mode.f = tuple(comps)
        elif key == "Q":
            mode.Q = _parse_matrix(ts)
        elif key == "H":
            mode.H = _parse_expr(ts)
        elif key == "region":
            val = ts.next()
            if val.value != "all":
                raise ConfigError(
                    f"only 'region = all' is supported, found {val.value!r}",
                    val.line,
                    val.col,
                )
            mode.region_all = True
        else:
            raise ConfigError(f"unknown mode entry {key!r}", tok.line, tok.col)
        sep = ts.peek()
        if sep.value == ";" or sep.kind == "newline":
            ts.next()
    return mode


def _parse_index_set(ts):
    ts.expect("{")
    items = []
    if ts.peek().value == "}":
        tok = ts.next()
        raise ConfigError("empty index set", tok.line, tok.col)
    while True:
        tok = ts.next()
        if tok.kind != "number" or any(c in tok.value for c in ".eE"):
            raise ConfigError("index sets contain integers", tok.line, tok.col)
        items.append(int(tok.value))
        tok = ts.next()
        if tok.value == "}":
            break
        if tok.value != ",":
            raise ConfigError(
                f"expected ',' or '}}', found {tok.value!r}", tok.line, tok.col
            )
    return tuple(items)


_NAMED_RE = re.compile(r"([A-Za-z]+?)(\d+)")

# Entries named <letter><index>, per section: the hint that errors name,
# and each letter's value parser.
_NAMED = {
    "basis": ("P<k> or V<k>", {"P": _parse_matrix, "V": _parse_expr}),
    "structure": ("S<j>", {"S": _parse_index_set}),
    "signal": ("Q<i> or H<i>", {"Q": _parse_matrix, "H": _parse_expr}),
}


def parse_config(text):
    """Parse and validate a configuration; raises ConfigError with position."""
    dim, modes, polarity, named = _read_entries(text)
    system = _assemble_system(dim, modes, named["signal", "Q"], named["signal", "H"])
    basis = _assemble_basis(
        named["basis", "P"], named["basis", "V"], named["structure", "S"], polarity, system
    )
    return ParsedConfig(system=system, basis=basis)


def parse_structure(text):
    """Spec of a text whose only section is [structure], as in a report
    that carries no basis; K is the largest base index named."""
    from ..maxmin import MaxMinSpec

    _, _, polarity, named = _read_entries(text)
    if not named["structure", "S"]:
        raise ConfigError("[structure] declares no families")
    fams = _assemble_families(named["structure", "S"], None)
    return MaxMinSpec(K=max(map(max, fams)), families=fams, polarity=polarity)


def _read_entries(text):
    """Tokenize the sections into (dim, modes, polarity, named), unassembled;
    ``named[section, letter]`` maps each index to its (value, name token)."""
    ts = _Stream(tokenize(text))
    dim = None
    modes = {}
    polarity = None
    named = defaultdict(dict)
    section = None

    while True:
        tok = ts.peek(skip_newlines=True)
        if tok.kind == "eof":
            break
        if tok.value == "[":
            ts.next(skip_newlines=True)
            name = ts.next()
            if name.kind != "ident":
                raise ConfigError("expected a section name", name.line, name.col)
            ts.expect("]")
            if name.value not in ("system", *_NAMED):
                raise ConfigError(
                    f"unknown section [{name.value}]", name.line, name.col
                )
            section = name.value
            continue
        if section is None:
            raise ConfigError(
                "statements must appear inside a section", tok.line, tok.col
            )
        tok = ts.next(skip_newlines=True)
        if tok.kind != "ident":
            raise ConfigError(f"unexpected token {tok.value!r}", tok.line, tok.col)
        key = tok.value

        if section == "system":
            if key == "dim":
                if dim is not None:
                    raise ConfigError("duplicate dim", tok.line, tok.col)
                ts.expect("=")
                num = ts.next()
                if num.kind != "number":
                    raise ConfigError("dim must be an integer", num.line, num.col)
                dim = _positive_int(num, "dim must be an integer, at least 1")
            elif key == "mode":
                num = ts.next()
                if num.kind != "number":
                    raise ConfigError(
                        "mode keyword takes an index", num.line, num.col
                    )
                idx = _positive_int(num, "mode index must be an integer, at least 1")
                if idx in modes:
                    raise ConfigError(f"duplicate mode {idx}", num.line, num.col)
                modes[idx] = _parse_mode_block(ts, idx)
            else:
                raise ConfigError(
                    f"unknown [system] entry {key!r}", tok.line, tok.col
                )
        elif section == "structure" and key == "polarity":
            if polarity is not None:
                raise ConfigError("duplicate polarity", tok.line, tok.col)
            ts.expect("=")
            val = ts.next()
            if val.value not in ("maxmin", "minmax"):
                raise ConfigError(
                    "polarity is maxmin or minmax", val.line, val.col
                )
            polarity = val.value
        else:
            hint, parsers = _NAMED[section]
            m = _NAMED_RE.fullmatch(key)
            if m is None or m.group(1) not in parsers:
                raise ConfigError(
                    f"{section} entries are {hint}, found {key!r}", tok.line, tok.col
                )
            letter, index = m.group(1), int(m.group(2))
            entries = named[section, letter]
            if index in entries:
                raise ConfigError(f"duplicate entry {letter}{index}", tok.line, tok.col)
            ts.expect("=")
            entries[index] = (parsers[letter](ts), tok)

    return dim, modes, polarity or "maxmin", named


def _positive_int(num, message):
    """The value of a number token if it is a whole number >= 1, else
    ConfigError(message) at the token."""
    value = float(num.value)
    if not (math.isfinite(value) and value >= 1 and value.is_integer()):
        raise ConfigError(message, num.line, num.col)
    return int(value)


def _skewed(M):
    """Whether a matrix literal is further from symmetric than 1e-12
    relative to its largest entry (at least 1).  A difference of entries
    of 2^1023 or more in size overflows to inf, which is skewed, and
    gives no warning."""
    with np.errstate(over="ignore"):
        return np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max())


def _assemble_system(dim, modes, signal_Q, signal_H):
    if not modes and dim is not None:
        raise ConfigError("[system] declares dim but no modes")
    if modes and dim is None:
        raise ConfigError("[system] must declare dim")
    if sorted(modes) != list(range(1, len(modes) + 1)):
        raise ConfigError("modes must be numbered 1..M without gaps")
    for letter, entries in (("Q", signal_Q), ("H", signal_H)):
        for i, (_, tok) in entries.items():
            if not 1 <= i <= len(modes):
                raise ConfigError(
                    f"[signal] {letter}{i} names mode {i}, the system has {len(modes)}",
                    tok.line,
                    tok.col,
                )
    if not modes:
        return None
    out = []
    for i in range(1, len(modes) + 1):
        mode = modes[i]
        if (mode.A is None) == (mode.f is None):
            raise ConfigError(f"mode {i} needs exactly one of A or f")
        if mode.A is not None and mode.A.shape != (dim, dim):
            raise ConfigError(f"mode {i}: A must be {dim}x{dim}")
        if mode.f is not None:
            if len(mode.f) != dim:
                raise ConfigError(
                    f"mode {i}: f has {len(mode.f)} components, dim is {dim}"
                )
            for comp in mode.f:
                if ex.max_var(comp) > dim:
                    raise ConfigError(
                        f"mode {i}: field references x{ex.max_var(comp)}, dim is {dim}"
                    )
        inline = sum(x is not None for x in (mode.Q, mode.H)) + mode.region_all
        external = (i in signal_Q) + (i in signal_H)
        if inline + external > 1:
            raise ConfigError(f"mode {i}: region specified more than once")
        if i in signal_Q:
            mode.Q = signal_Q[i][0]
        if i in signal_H:
            mode.H = signal_H[i][0]
        if mode.Q is not None:
            if mode.Q.shape != (dim, dim):
                raise ConfigError(f"mode {i}: Q must be {dim}x{dim}")
            if _skewed(mode.Q):
                raise ConfigError(f"mode {i}: non-symmetric matrix literal for Q")
            if negdef_margin(as_symmetric(mode.Q, f"mode {i}: Q")) <= 0:
                raise ConfigError(
                    f"mode {i}: Q is negative semidefinite, region would be empty"
                )
        if mode.H is not None and ex.max_var(mode.H) > dim:
            raise ConfigError(f"mode {i}: H references x{ex.max_var(mode.H)}")
        if mode.Q is None and mode.H is None:
            mode.region_all = True
        out.append(mode)
    return SystemConfig(dim=dim, modes=out)


def _assemble_families(families, K):
    """Families S1..SJ as sorted index tuples; with K None only the
    lower index bound is checked."""
    if sorted(families) != list(range(1, len(families) + 1)):
        raise ConfigError("families must be numbered S1..SJ without gaps")
    fams = []
    for j in range(1, len(families) + 1):
        fam, _ = families[j]
        for k in fam:
            if k < 1 or (K is not None and k > K):
                raise ConfigError(f"S{j} references base {k}, K is {K}")
        fams.append(tuple(sorted(set(fam))))
    return tuple(fams)


def _assemble_basis(basis_P, basis_V, families, polarity, system):
    if not basis_P and not basis_V:
        if families:
            raise ConfigError("[structure] present but [basis] is missing")
        return None
    if basis_P and basis_V:
        raise ConfigError("mix of matrix (P) and expression (V) basis entries")
    entries = basis_P or basis_V
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ConfigError("basis entries must be numbered 1..K without gaps")
    K = len(entries)
    if not families:
        raise ConfigError("[basis] present but [structure] is missing")
    fams = _assemble_families(families, K)

    if basis_P:
        mats = []
        for k in range(1, K + 1):
            P, tok = basis_P[k]
            if _skewed(P):
                raise ConfigError(
                    f"non-symmetric matrix literal for P{k}", tok.line, tok.col
                )
            try:
                as_symmetric(P, f"P{k}")
            except InvalidInputError as err:  # a finite literal whose symmetrization overflows
                raise ConfigError(str(err), tok.line, tok.col) from None
            if not positive_definite(P):
                raise ConfigError(
                    f"P{k} is not positive definite", tok.line, tok.col
                )
            if system is not None and P.shape != (system.dim, system.dim):
                raise ConfigError(
                    f"P{k} must be {system.dim}x{system.dim}", tok.line, tok.col
                )
            mats.append(P)
        return BasisConfig(
            kind="quadratic", matrices=mats, families=fams, polarity=polarity
        )
    exprs = []
    for k in range(1, K + 1):
        e, tok = basis_V[k]
        if system is not None and ex.max_var(e) > system.dim:
            raise ConfigError(
                f"V{k} references x{ex.max_var(e)}, dim is {system.dim}",
                tok.line,
                tok.col,
            )
        exprs.append(e)
    return BasisConfig(
        kind="expr", exprs=exprs, families=fams, polarity=polarity
    )

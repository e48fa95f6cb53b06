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
from ..inclusion import Mode, SwitchedSystem
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
        self.nesting = 0  # open parentheses, unary minus signs and calls

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

# levels of an expression, in its parser nesting and in its tree: the
# parser and the tree walks of ``sysdsl.expr`` recurse once per level
MAX_DEPTH = 100


def _too_deep(tok):
    return ConfigError(f"expression is deeper than {MAX_DEPTH} levels", tok.line, tok.col)


def _parse_value(ts):
    """One whole expression, refused where its tree is deeper than MAX_DEPTH."""
    tok = ts.peek()
    node = _parse_expr(ts)
    depth, level = 0, [node]
    while level:  # counted level by level, without recursion
        depth += 1
        level = [c for e in level for c in vars(e).values() if isinstance(c, ex.Expr)]
    if depth > MAX_DEPTH:
        raise _too_deep(tok)
    return node


def _nested(ts, tok, parse):
    """parse(ts) one level deeper, refused past MAX_DEPTH levels."""
    if ts.nesting == MAX_DEPTH:
        raise _too_deep(tok)
    ts.nesting += 1
    node = parse(ts)
    ts.nesting -= 1
    return node


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
        return ex.neg(_nested(ts, tok, _parse_factor))
    return _parse_atom(ts)


def _parse_atom(ts):
    tok = ts.next()
    if tok.kind == "number":
        return ex.Num(float(tok.value))
    if tok.kind == "op" and tok.value == "(":
        node = _nested(ts, tok, _parse_expr)
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
            base = _nested(ts, tok, _parse_expr)
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
            arg = _nested(ts, tok, _parse_expr)
            ts.expect(")")
            return ex.Call(name, arg)
        raise ConfigError(f"unknown identifier {name!r}", tok.line, tok.col)
    raise ConfigError(
        f"expected an expression, found {tok.value!r}", tok.line, tok.col
    )


def _parse_const(ts):
    tok = ts.peek()
    node = _parse_value(ts)
    if ex.max_var(node) > 0:
        raise ConfigError("matrix entries must be constant", tok.line, tok.col)
    try:
        value = ex.eval_expr(node, ())
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
class BasisConfig:
    kind: str  # "quadratic" | "expr"
    dim: int  # the system's dim, else the P literals' size, else the largest x index
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
        return ExprBasis(self.exprs, dim=self.dim)


@dataclass
class ParsedConfig:
    system: Optional[SwitchedSystem]
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
    """The entries of a mode block by key: A, f, Q, H or region."""
    entries = {}
    ts.expect("{", skip_newlines=True)
    while True:
        tok = ts.peek(skip_newlines=True)
        if tok.value == "}":
            ts.next(skip_newlines=True)
            return entries
        tok = ts.next(skip_newlines=True)
        if tok.kind != "ident":
            raise ConfigError(
                f"expected a mode entry, found {tok.value!r}", tok.line, tok.col
            )
        key = tok.value
        if key in entries:
            raise ConfigError(f"duplicate {key} in mode {index}", tok.line, tok.col)
        ts.expect("=")
        if key in ("A", "Q"):
            value = _parse_matrix(ts)
        elif key == "f":
            ts.expect("(")
            comps = [_parse_value(ts)]
            while ts.peek().value == ",":
                ts.next()
                comps.append(_parse_value(ts))
            ts.expect(")")
            value = tuple(comps)
        elif key == "H":
            value = _parse_value(ts)
        elif key == "region":
            val = ts.next()
            if val.value != "all":
                raise ConfigError(
                    f"only 'region = all' is supported, found {val.value!r}",
                    val.line,
                    val.col,
                )
            value = val.value
        else:
            raise ConfigError(f"unknown mode entry {key!r}", tok.line, tok.col)
        entries[key] = value
        sep = ts.peek()
        if sep.value == ";" or sep.kind == "newline":
            ts.next()


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
    "basis": ("P<k> or V<k>", {"P": _parse_matrix, "V": _parse_value}),
    "structure": ("S<j>", {"S": _parse_index_set}),
    "signal": ("Q<i> or H<i>", {"Q": _parse_matrix, "H": _parse_value}),
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
        entries = modes[i]
        A, f = entries.get("A"), entries.get("f")
        if (A is None) == (f is None):
            raise ConfigError(f"mode {i} needs exactly one of A or f")
        if A is not None and A.shape != (dim, dim):
            raise ConfigError(f"mode {i}: A must be {dim}x{dim}")
        if f is not None:
            if len(f) != dim:
                raise ConfigError(f"mode {i}: f has {len(f)} components, dim is {dim}")
            for comp in f:
                if ex.max_var(comp) > dim:
                    raise ConfigError(
                        f"mode {i}: field references x{ex.max_var(comp)}, dim is {dim}"
                    )
        given = sum(key in entries for key in ("Q", "H", "region"))
        if given + (i in signal_Q) + (i in signal_H) > 1:
            raise ConfigError(f"mode {i}: region specified more than once")
        Q = signal_Q[i][0] if i in signal_Q else entries.get("Q")
        H = signal_H[i][0] if i in signal_H else entries.get("H")
        if Q is not None:
            if Q.shape != (dim, dim):
                raise ConfigError(f"mode {i}: Q must be {dim}x{dim}")
            if _skewed(Q):
                raise ConfigError(f"mode {i}: non-symmetric matrix literal for Q")
        if H is not None and ex.max_var(H) > dim:
            raise ConfigError(f"mode {i}: H references x{ex.max_var(H)}")
        mode = Mode(i, A, f, Q, H)
        if Q is not None and negdef_margin(mode.Q) <= 0:
            raise ConfigError(f"mode {i}: Q is negative semidefinite, region would be empty")
        out.append(mode)
    return SwitchedSystem(dim, out)


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
    if system is not None:
        dim = system.dim
    elif basis_P:
        dim = len(basis_P[1][0])
    else:
        dim = max(1, *(ex.max_var(e) for e, _ in basis_V.values()))

    if basis_P:
        mats = []
        for k in range(1, K + 1):
            P, tok = basis_P[k]
            if P.shape != (dim, dim):
                raise ConfigError(f"P{k} must be {dim}x{dim}", tok.line, tok.col)
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
            mats.append(P)
        return BasisConfig(
            kind="quadratic", dim=dim, matrices=mats, families=fams, polarity=polarity
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
    return BasisConfig(kind="expr", dim=dim, exprs=exprs, families=fams, polarity=polarity)

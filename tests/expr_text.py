"""Standalone expression strings for tests: the config reader's expression
grammar, applied to one string with nothing after it."""

from maxminlyap.errors import ConfigError
from maxminlyap.sysdsl.config import _parse_expr, _Stream, tokenize


def parse_expr_text(text):
    """Parse a standalone expression string."""
    ts = _Stream(tokenize(text))
    node = _parse_expr(ts)
    tok = ts.peek(skip_newlines=True)
    if tok.kind != "eof":
        raise ConfigError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return node

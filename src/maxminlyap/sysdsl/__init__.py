"""Configuration language: expressions and derivatives (``expr``), parsing (``config``).

The text format is line-oriented with bracketed sections ([system],
[basis], [structure], [signal]), matrix literals ``[[a,b],[c,d]]`` and
mode blocks ``mode i { A = ...; Q = ... }``.  Expressions admit the
analytic builtins sin, cos, atan, sqrt, pow and quadform, which keeps
every region function analytic by construction.

``compile_exprs`` emits two targets from one walk over a set of trees:
a function of one state (the simulator's) and, as its ``batch``
attribute, a function of rows of states returning one column per
expression.  Both give ``eval_expr``'s bits; where a domain test holds
at any row, or an element call raises, the batch falls back to the
point function row by row, which raises as one point does.
"""

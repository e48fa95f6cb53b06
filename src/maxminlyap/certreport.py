"""Certificate text reports.

A certificate is written in the same grammar family as configs: the
[system], [basis] and [structure] sections are literally config
syntax, so the embedded problem data can be re-parsed, and the
[condition_i] section carries the multipliers per inequality group,
one ``group N { key = value; ... }`` line each: ``tau`` then ``beta`` is
the group's multiplier tuple, beta last (inert without a cone term).
That is sufficient for an independent party to recompute every margin
from scratch, which is what ``re_verify``, the one reader of reports,
does; it reads every [meta] line and every [condition_i] line whole,
refuses any other, and compares the report with the recomputed
certificate rewritten by the same line writers: every group line, and
when the verdicts agree the ``pairing`` line and [condition_ii] too.
"""

import ast
import itertools
import re

import numpy as np

from . import __version__
from .certifier import VERDICT_COND_I_ONLY, VERDICT_GAS, VERDICT_NOT_CERTIFIED
from .certifier import Candidate, Certificate, certify, group_diffs, without_candidate
from .errors import ConfigError, InvalidInputError
from .policy import NumericPolicy
from .sysdsl.config import parse_config, parse_structure


def _fmt_matrix(M):
    return repr(np.asarray(M, dtype=float).tolist())


def _pairing_line(cert):
    return f"pairing = {'all' if cert.cond_i.matching is None else 'matched'}"


def _group_lines(cert):
    """The [condition_i] line of each group, in the report's order."""
    lines = []
    for gno, (g, margin) in enumerate(zip(cert.cond_i.groups, cert.cond_i.margins), start=1):
        *tau, beta = cert.candidate.multipliers_for(g)
        terms = ", ".join(f"P{u}-P{w}" for u, w in g.diffs)
        lines.append(
            f"group {gno} {{ mode = {g.mode}; base = {g.phi_index}; "
            f"perms = {g.perms}; terms = [{terms}]; "
            f"tau = {tuple(map(float, tau))!r}; beta = {float(beta)!r}; margin = {margin:.6e} }}"
        )
    return lines


def _condition_ii_lines(cert):
    """The [condition_ii] lines: the kind, then its evidence."""
    lines = [f"kind = {cert.cond_ii_kind}"]
    if cert.cond_ii_kind == "planar" and cert.cond_ii is not None:
        for e in cert.cond_ii.entries:
            v = ", ".join(f"{c:.9f}" for c in e.v)
            margin = "none" if e.margin is None else f"{e.margin:.6e}"
            lines.append(
                f"line {e.position} {{ v = ({v}); modes = {e.modes}; "
                f"alpha = {{{', '.join(str(k) for k in e.hull.indices)}}}; "
                f"weights = {e.lam_kind}; margin = {margin}; "
                f"ok = {str(e.ok).lower()} }}"
            )
    elif cert.cond_ii_kind == "two-mode" and cert.cond_ii is not None:
        ex_rep = cert.cond_ii.exclusion
        lines.append(
            f"exclusion = {{ min_product = {ex_rep.min_product!r}; "
            f"samples = {ex_rep.n_samples}; seed = {ex_rep.seed}; "
            f"ok = {str(ex_rep.ok).lower()} }}"
        )
        for (j1, j2), sv in sorted(cert.cond_ii.rank_margins.items()):
            lines.append(f"rank P{j1}-P{j2} = {sv!r}")
    return lines


def serialize_certificate(cert, sys):
    """Render a certificate as a re-verifiable text report."""
    pol = cert.policy
    lines = [
        f"# maxminlyap certificate v1 (tool {__version__})",
        "[meta]",
        f"verdict = {cert.verdict}",
        _pairing_line(cert),
        f"abs = {pol.abs_tol!r}",
        f"rel = {pol.rel_tol!r}",
        f"margin = {pol.margin!r}",
        f"seed = {pol.seed}",
        *(f"# note: {note}" for note in cert.notes),
        "",
        "[system]",
        f"dim = {sys.dim}",
    ]
    for m in sys.modes:
        region = "region = all" if m.Q is None else f"Q = {_fmt_matrix(m.Q)}"
        lines.append(f"mode {m.index} {{ A = {_fmt_matrix(m.A)}; {region} }}")
    lines += ["", "[basis]"]
    lines += [f"P{k} = {_fmt_matrix(P)}" for k, P in enumerate(cert.candidate.matrices, start=1)]
    lines += ["", "[structure]", f"polarity = {cert.spec.polarity}"]
    for j, fam in enumerate(cert.spec.families, start=1):
        lines.append(f"S{j} = {{{', '.join(str(k) for k in fam)}}}")
    lines += ["", "[condition_i]"]
    if cert.cond_i.matching is not None:
        pairs = ", ".join(f"{i}:{f}" for i, f in sorted(cert.cond_i.matching.items()))
        lines.append(f"# matched pairing mode:base {pairs}; "
                     f"validated on {cert.cond_i.evidence.get('samples', 0)} samples")
    lines += _group_lines(cert)
    lines += ["", "[condition_ii]", *_condition_ii_lines(cert)]
    return "\n".join(lines) + "\n"


_GROUP_KEYS = {"mode", "base", "perms", "terms", "tau", "beta", "margin"}


def _split_sections(text):
    """The lines of each [section], comments stripped and blank lines
    dropped; lines before the first section header are skipped."""
    sections, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        m = re.fullmatch(r"\[(\w+)\]", line)
        if m:
            current = sections.setdefault(m.group(1), [])
        elif current is not None and line:
            current.append(line)
    return sections


def _entries(parts, where):
    """The ``key = value`` strings in parts as a dict; a part without ``=``
    or with a key given before is a ConfigError naming ``where``."""
    out = {}
    for part in parts:
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq or key in out:
            why = "repeats a key" if eq else "is not key = value"
            raise ConfigError(f"certificate {where} is malformed: {part.strip()!r} {why}")
        out[key] = value
    return out


def _groups(lines):
    """The [condition_i] groups keyed by (mode, perms): each one's name
    (``group N``), line and multiplier tuple (the taus, then beta).  Each
    line must be one whole ``group N { ... }`` entry carrying each of
    ``_GROUP_KEYS`` once, for a (mode, perms) pair that no earlier group
    gave, with a tau per ordering term those perms give; anything else is
    a ConfigError.  The rest of the line is left to the comparison with
    the recomputation."""
    table = {}
    for line in lines:
        m = re.fullmatch(r"group\s+(\d+)\s*\{(.*)\}", line)
        if m is None:
            raise ConfigError(f"certificate [condition_i] is malformed: {line!r} is not a group")
        where = f"group {m.group(1)}"
        fields = _entries(m.group(2).split(";"), where)
        try:
            if fields.keys() != _GROUP_KEYS:
                raise ValueError(f"its keys are {sorted(fields)}, not {sorted(_GROUP_KEYS)}")
            key = (int(fields["mode"]), tuple(tuple(p) for p in ast.literal_eval(fields["perms"])))
            if key in table:
                raise ValueError(f"mode {key[0]} perms {key[1]} were given by an earlier group")
            ys = tuple(map(float, (*ast.literal_eval(fields["tau"]), fields["beta"])))
            terms = len(group_diffs(key[1]))
        except (ValueError, TypeError, SyntaxError) as exc:
            raise ConfigError(f"certificate {where} is malformed: {exc}") from None
        if len(ys) != terms + 1:
            raise ConfigError(f"certificate {where} has {len(ys) - 1} tau for its {terms} terms")
        table[key] = (where, line, ys)
    return table


def _compare(where, reads, writes):
    """Refuse the first of the report's lines ``reads`` that is not the
    recomputation's line ``writes`` at its place."""
    for got, want in itertools.zip_longest(reads, writes):
        if got != want:
            got, want = ("nothing" if ln is None else repr(ln) for ln in (got, want))
            raise ConfigError(
                f"certificate {where} does not match the recomputation: "
                f"it reads {got}, the recomputation writes {want}"
            )


def _check_groups(table, cert):
    """Every group line of the report's ``table`` must be the line written
    for the recomputed group of its key, and every recomputed group must
    be in the table.  A ConfigError names the first group that fails."""
    written = dict(zip((g.key for g in cert.cond_i.groups), _group_lines(cert)))
    for key, (where, line, _) in table.items():
        if key not in written:
            raise ConfigError(
                f"certificate {where} does not match the rebuilt groups: "
                f"none has mode {key[0]} and perms {key[1]}"
            )
        _compare(where, [line], [written[key]])
    for gno, g in enumerate(cert.cond_i.groups, start=1):
        if g.key not in table:
            raise ConfigError(
                f"certificate group {gno} is missing: no line has mode {g.mode} and perms {g.perms}"
            )


def re_verify(text):
    """Recompute a certificate from its own report, from scratch, and
    compare the report with the recomputation rewritten.

    This is the one reader of reports: the [system], [basis] and
    [structure] lines go through the config parser, and every [meta] and
    [condition_i] line is read whole (``_groups``); a missing or
    malformed entry is a ConfigError.  The stored bases and multipliers
    are certified verbatim (no repair), and input the certifier refuses,
    such as a negative multiplier, is a ConfigError too.  Then each
    group line must be the line written for the recomputed group of its
    mode and perms, and when the verdicts agree, so must the ``pairing``
    line and every [condition_ii] line; a difference is a ConfigError
    quoting both lines.  So tampering with any number in the report
    flips the recomputed verdict or is refused.
    Returns (fresh Certificate, stored verdict, match flag).
    """
    sections = _split_sections(text)
    for needed in ("meta", "system", "basis", "structure", "condition_i"):
        if needed not in sections:
            raise ConfigError(f"certificate is missing the [{needed}] section")
    block = {name: "\n".join([f"[{name}]", *lines]) + "\n" for name, lines in sections.items()}
    # a search that found nothing leaves [basis] empty
    tail = block["basis"] + block["structure"] if sections["basis"] else ""
    parsed = parse_config(block["system"] + tail)
    meta = _entries(sections["meta"], "[meta]")
    missing = sorted({"verdict", "abs", "rel", "margin", "seed"} - meta.keys())
    if missing:
        raise ConfigError(f"certificate [meta] is missing {', '.join(map(repr, missing))}")
    verdicts = (VERDICT_GAS, VERDICT_COND_I_ONLY, VERDICT_NOT_CERTIFIED)
    if meta["verdict"] not in verdicts:
        raise ConfigError(
            f"certificate [meta] is malformed: verdict {meta['verdict']!r} "
            f"is none of {', '.join(verdicts)}"
        )
    try:
        policy = NumericPolicy(
            abs_tol=float(meta["abs"]),
            rel_tol=float(meta["rel"]),
            margin=float(meta["margin"]),
            seed=int(meta["seed"]),
        )
    except (ValueError, InvalidInputError) as exc:
        raise ConfigError(f"certificate [meta] is malformed: {exc}") from None
    table = _groups(sections["condition_i"])
    stored_verdict = meta["verdict"]
    sys = parsed.require_system()
    if parsed.basis is None:
        spec = parse_structure(block["structure"])
        fresh = without_candidate(spec, policy, "the report carries no candidate")
    else:
        cand = Candidate(
            matrices=parsed.basis.matrices,
            multipliers={key: ys for key, (_, _, ys) in table.items()},
        )
        try:
            fresh = certify(sys, parsed.basis.to_spec(), cand, policy, complete=False)
        except InvalidInputError as exc:
            raise ConfigError(f"certificate does not re-verify: {exc}") from None
    _check_groups(table, fresh)
    if fresh.verdict == stored_verdict:
        pairing = [f"pairing = {meta['pairing']}"] if "pairing" in meta else []
        _compare("[meta]", pairing, [_pairing_line(fresh)])
        _compare("[condition_ii]", sections.get("condition_ii", []), _condition_ii_lines(fresh))
    return fresh, stored_verdict, fresh.verdict == stored_verdict


__all__ = [
    "serialize_certificate",
    "re_verify",
    "Certificate",
]

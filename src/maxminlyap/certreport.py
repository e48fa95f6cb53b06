"""Certificate text reports.

A certificate is written in the same grammar family as configs: the
[system], [basis] and [structure] sections are literally config
syntax, so the embedded problem data can be re-parsed, and the
[condition_i] section carries the multipliers per inequality group,
one ``group N { key = value; ... }`` line each.  That is sufficient for
an independent party to recompute every margin from scratch, which is
what ``re_verify``, the one reader of reports, does; it reads every
[meta] line and every [condition_i] line whole and refuses any other.
"""

import ast
import re

import numpy as np

from . import __version__
from .certifier import Candidate, Certificate, certify, without_candidate
from .errors import ConfigError, InvalidInputError
from .inclusion import SwitchedSystem
from .policy import NumericPolicy
from .sysdsl.config import parse_config, parse_structure


def _fmt_matrix(M):
    rows = ", ".join(
        "[" + ", ".join(repr(float(v)) for v in row) + "]" for row in np.asarray(M)
    )
    return f"[{rows}]"


def _fmt_tuple(vals):
    inner = ", ".join(repr(float(v)) for v in vals)
    if len(vals) == 1:
        inner += ","
    return f"({inner})"


def serialize_certificate(cert, sys):
    """Render a certificate as a re-verifiable text report."""
    lines = [f"# maxminlyap certificate v1 (tool {__version__})"]
    lines.append("[meta]")
    lines.append(f"verdict = {cert.verdict}")
    pairing = "all" if cert.cond_i.matching is None else "matched"
    lines.append(f"pairing = {pairing}")
    pol = cert.policy
    lines.append(f"abs = {pol.abs_tol!r}")
    lines.append(f"rel = {pol.rel_tol!r}")
    lines.append(f"margin = {pol.margin!r}")
    lines.append(f"seed = {pol.seed}")
    for note in cert.notes:
        lines.append(f"# note: {note}")

    lines.append("")
    lines.append("[system]")
    lines.append(f"dim = {sys.dim}")
    for m in sys.modes:
        entry = f"mode {m.index} {{ A = {_fmt_matrix(m.A)}"
        if m.Q is not None:
            entry += f"; Q = {_fmt_matrix(m.Q)}"
        else:
            entry += "; region = all"
        entry += " }"
        lines.append(entry)

    lines.append("")
    lines.append("[basis]")
    for k, P in enumerate(cert.candidate.matrices, start=1):
        lines.append(f"P{k} = {_fmt_matrix(P)}")

    lines.append("")
    lines.append("[structure]")
    lines.append(f"polarity = {cert.spec.polarity}")
    for j, fam in enumerate(cert.spec.families, start=1):
        lines.append(f"S{j} = {{{', '.join(str(k) for k in fam)}}}")

    lines.append("")
    lines.append("[condition_i]")
    if cert.cond_i.matching is not None:
        pairs = ", ".join(
            f"{i}:{f}" for i, f in sorted(cert.cond_i.matching.items())
        )
        lines.append(f"# matched pairing mode:base {pairs}; "
                     f"validated on {cert.cond_i.evidence.get('samples', 0)} samples")
    for gno, (g, margin) in enumerate(
        zip(cert.cond_i.groups, cert.cond_i.margins), start=1
    ):
        tau = cert.candidate.tau_for(g)
        beta = cert.candidate.beta_for(g)
        perms = "(" + ", ".join(str(p) for p in g.perms) + ("," if len(g.perms) == 1 else "") + ")"
        diffs = ", ".join(f"P{u}-P{w}" for u, w in g.diffs)
        lines.append(
            f"group {gno} {{ mode = {g.mode}; base = {g.phi_index}; "
            f"perms = {perms}; terms = [{diffs}]; "
            f"tau = {_fmt_tuple(tau)}; beta = {beta!r}; margin = {margin:.6e} }}"
        )

    lines.append("")
    lines.append("[condition_ii]")
    lines.append(f"kind = {cert.cond_ii_kind}")
    if cert.cond_ii_kind == "planar" and cert.cond_ii is not None:
        for e in cert.cond_ii.entries:
            v = ", ".join(f"{c:.9f}" for c in e.v)
            margin = "none" if e.margin is None else f"{e.margin:.6e}"
            lines.append(
                f"line {e.position} {{ v = ({v}); modes = {e.modes}; "
                f"alpha = {{{', '.join(str(k) for k in e.alpha)}}}; "
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


def _multipliers(lines):
    """The multipliers (taus, betas) keyed by (mode, perms), from the
    [condition_i] lines: each must be one whole ``group N { ... }`` entry
    carrying each of ``_GROUP_KEYS`` once, for a (mode, perms) pair that
    no earlier group gave; anything else is a ConfigError."""
    taus, betas = {}, {}
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
            if key in taus:
                raise ValueError(f"mode {key[0]} perms {key[1]} were given by an earlier group")
            taus[key] = tuple(float(v) for v in ast.literal_eval(fields["tau"]))
            betas[key] = float(fields["beta"])
        except (ValueError, TypeError, SyntaxError) as exc:
            raise ConfigError(f"certificate {where} is malformed: {exc}") from None
    return taus, betas


def re_verify(text):
    """Recompute a certificate from its own report, from scratch.

    This is the one reader of reports: the [system], [basis] and
    [structure] lines go through the config parser, and every [meta] and
    [condition_i] line is read whole; a missing or malformed entry is a
    ConfigError.  The stored basis matrices and multipliers are checked
    verbatim (no repair), so tampering with any number in the report
    flips the recomputed verdict.  Returns (fresh Certificate, stored
    verdict, match flag).
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
    missing = sorted({"abs", "rel", "margin", "seed"} - meta.keys())
    if missing:
        raise ConfigError(f"certificate [meta] is missing {', '.join(map(repr, missing))}")
    try:
        policy = NumericPolicy(
            abs_tol=float(meta["abs"]),
            rel_tol=float(meta["rel"]),
            margin=float(meta["margin"]),
            seed=int(meta["seed"]),
        )
    except (ValueError, InvalidInputError) as exc:
        raise ConfigError(f"certificate [meta] is malformed: {exc}") from None
    taus, betas = _multipliers(sections["condition_i"])
    stored_verdict = meta.get("verdict", "")
    sys = SwitchedSystem.from_config(parsed.require_system())
    if parsed.basis is None:
        spec = parse_structure(block["structure"])
        fresh = without_candidate(spec, policy, "the report carries no candidate")
    else:
        cand = Candidate(matrices=parsed.basis.matrices, taus=taus, betas=betas)
        fresh = certify(sys, parsed.basis.to_spec(), cand, policy, complete=False)
    return fresh, stored_verdict, fresh.verdict == stored_verdict


__all__ = [
    "serialize_certificate",
    "re_verify",
    "Certificate",
]

"""Certificate text reports.

A certificate is written in the same grammar family as configs: the
[system], [basis] and [structure] sections are literally config
syntax, so the embedded problem data can be re-parsed, and the
[condition_i] section carries the multipliers per inequality group.
That is sufficient for an independent party to recompute every margin
from scratch, which is what ``re_verify`` does.
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


_GROUP_RE = re.compile(
    r"group\s+(?P<no>\d+)\s*\{\s*mode\s*=\s*(?P<mode>\d+).*?"
    r"perms\s*=\s*(?P<perms>.+?)\s*;\s*terms.*?"
    r"tau\s*=\s*(?P<tau>\([^)]*\))\s*;\s*beta\s*=\s*(?P<beta>[-+0-9.eE]+)",
    re.DOTALL,
)


def _split_sections(text):
    sections = {}
    current = None
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        m = re.fullmatch(r"\[(\w+)\]", stripped)
        if m:
            current = m.group(1)
            sections.setdefault(current, [])
            continue
        if current is not None and stripped:
            sections[current].append(raw)
    return {k: "\n".join(v) for k, v in sections.items()}


def parse_certificate(text):
    """Extract (system, basis config, policy, multipliers, stored verdict).

    A report without basis matrices (a search that found nothing) parses
    to a config whose ``basis`` is None.  A missing or malformed entry is
    a ConfigError.
    """
    return _parse_sections(_split_sections(text))


def _parse_sections(sections):
    for needed in ("meta", "system", "basis", "structure", "condition_i"):
        if needed not in sections:
            raise ConfigError(f"certificate is missing the [{needed}] section")
    config_text = "[system]\n" + sections["system"] + "\n"
    if sections["basis"].strip():
        config_text += (
            "[basis]\n" + sections["basis"] + "\n"
            "[structure]\n" + sections["structure"] + "\n"
        )
    parsed = parse_config(config_text)
    meta = {}
    for line in sections["meta"].splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            meta[key.strip()] = val.strip()
    missing = sorted({"abs", "rel", "margin", "seed"} - meta.keys())
    if missing:
        raise ConfigError(f"certificate [meta] is missing {', '.join(map(repr, missing))}")
    taus = {}
    betas = {}
    entry = "[meta]"
    try:
        policy = NumericPolicy(
            abs_tol=float(meta["abs"]),
            rel_tol=float(meta["rel"]),
            margin=float(meta["margin"]),
            seed=int(meta["seed"]),
        )
        for m in _GROUP_RE.finditer(sections["condition_i"]):
            entry = f"group {m.group('no')}"
            mode = int(m.group("mode"))
            perms = ast.literal_eval(m.group("perms"))
            if perms and isinstance(perms[0], int):
                perms = (tuple(perms),)
            key = (mode, tuple(tuple(p) for p in perms))
            taus[key] = tuple(float(v) for v in ast.literal_eval(m.group("tau")))
            betas[key] = float(m.group("beta"))
    except (ValueError, TypeError, SyntaxError, InvalidInputError) as exc:
        raise ConfigError(f"certificate {entry} is malformed: {exc}") from None
    return parsed, policy, taus, betas, meta.get("verdict", "")


def re_verify(text):
    """Recompute a certificate from its own report, from scratch.

    The stored basis matrices and multipliers are checked verbatim (no
    repair), so tampering with any number in the report flips the
    recomputed verdict.  Returns (fresh Certificate, stored verdict,
    match flag).
    """
    sections = _split_sections(text)
    parsed, policy, taus, betas, stored_verdict = _parse_sections(sections)
    sys = SwitchedSystem.from_config(parsed.require_system())
    if parsed.basis is None:
        spec = parse_structure("[structure]\n" + sections["structure"])
        fresh = without_candidate(spec, policy, "the report carries no candidate")
        return fresh, stored_verdict, fresh.verdict == stored_verdict
    basis_cfg = parsed.require_basis()
    spec = basis_cfg.to_spec()
    cand = Candidate(matrices=basis_cfg.matrices, taus=taus, betas=betas)
    fresh = certify(sys, spec, cand, policy, complete=False)
    return fresh, stored_verdict, fresh.verdict == stored_verdict


__all__ = [
    "serialize_certificate",
    "parse_certificate",
    "re_verify",
    "Certificate",
]

"""Command-line front end.

Subcommands: validate, phi, grad, lie, decrease, simulate, certify,
decompose, reproduce.  Exit codes: 0 success / certified, 1 check
failed / not certified, 2 usage or parse error, 3 internal assertion.
Outputs are deterministic functions of the arguments and seed; every
file written starts with a header comment carrying the tool version,
a manifest hash and the seed.

Each subcommand imports only the modules it runs: this module loads the
config reader and the system model that every command uses, and a
command imports the rest (the certifier, the simulator, the set-valued
derivatives, the svg writer, the bundled examples) when it runs.
"""

import argparse
import hashlib
import math
import sys as _sys

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DomainEvalError,
    InternalCheckError,
    InvalidInputError,
    MaxMinLyapError,
    PartitionError,
)
from .inclusion import cone_chain, sliding_exclusion
from .policy import NumericPolicy
from .numkernel import sphere_points
from .sysdsl.config import parse_config

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _policy_from(args):
    return NumericPolicy(
        abs_tol=args.abs_tol, rel_tol=args.rel_tol, margin=args.margin, seed=args.seed
    )


def _header(args, names):
    """Header line of a run: the version, a hash of the subcommand, its
    inputs, the options ``names`` and the seed, and the seed."""
    opts = tuple(sorted((k, repr(getattr(args, k))) for k in names))
    inputs = tuple(getattr(args, k) for k in ("config",) if hasattr(args, k))
    blob = repr((args.command, inputs, opts, args.seed))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return f"maxminlyap {__version__} manifest={digest} seed={args.seed}"


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _numbers(text, what):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidInputError(
            f"{what} {text!r} is not a comma-separated list of numbers"
        ) from None
    if not all(map(math.isfinite, vals)):
        raise InvalidInputError(f"{what} {text!r} has a non-finite value")
    return vals


def _point(text, dim=None):
    vals = _numbers(text, "point")
    if dim is not None and len(vals) != dim:
        raise InvalidInputError(f"point has {len(vals)} coordinates, expected {dim}")
    return np.array(vals)


def _checked(convert, ok, rule):
    """argparse type: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


SAMPLE_COUNT = _checked(int, lambda n: n >= 1, "at least 1")
RADIUS = _checked(float, lambda r: 0.0 < r < math.inf, "finite and positive")
BUDGET = _checked(float, lambda b: 0.0 <= b < math.inf, "finite and not negative")
RATE = _checked(float, math.isfinite, "finite")


def _write(path, text, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write(text)


def _fmt(x):
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    parsed = _load(args.config)
    out = []
    code = EXIT_OK
    if parsed.system is not None:
        violations, checked = parsed.system.validate_partition(
            _policy_from(args), n_samples=args.samples
        )
        out.append(f"partition: {checked} samples, {len(violations)} violations")
        for x, strict in violations[:10]:
            out.append(f"  violation at {np.round(x, 6).tolist()} strict={strict}")
        if violations:
            code = EXIT_FAILED
    if parsed.basis is not None:
        # the stored max-of-min form, which phi and certify use
        given = parsed.basis
        spec = given.to_spec()
        out.append(
            f"basis: K={spec.K} kind={given.kind} "
            f"families={spec.families} polarity={spec.polarity}"
        )
        if (given.families, given.polarity) != (spec.families, spec.polarity):
            out.append(
                f"  as given: families={given.families} polarity={given.polarity}"
            )
    out.append("config OK" if code == EXIT_OK else "config has violations")
    print("\n".join(out))
    return code


def cmd_phi(args):
    from .maxmin import MAX_BASES, all_permutations, phi

    parsed = _load(args.config)
    basis_cfg = parsed.require_basis()
    spec = basis_cfg.to_spec()
    if spec.K > MAX_BASES:
        raise InvalidInputError(f"phi table limited to K <= {MAX_BASES}")
    print(f"K={spec.K} families={spec.families}")
    for rho in all_permutations(spec.K):
        print(f"phi{rho} = {phi(spec, rho)}")
    return EXIT_OK


def cmd_grad(args):
    from .maxmin import active_indices, evaluate

    parsed = _load(args.config)
    basis_cfg = parsed.require_basis()
    spec, basis = basis_cfg.to_spec(), basis_cfg.to_basis()
    policy = _policy_from(args)
    x = _point(args.at, basis.dim)
    hull = active_indices(spec, basis, x, policy)
    print(f"V({x.tolist()}) = {_fmt(evaluate(spec, basis, x))}")
    print(f"active = {hull.indices} method = {hull.method}")
    if hull.warning:
        print(f"warning: {hull.warning}")
    for k, v in zip(hull.indices, hull.vertices):
        print(f"grad V_{k} = [{', '.join(_fmt(c) for c in v)}]")
    return EXIT_OK


def cmd_lie(args):
    from .setderiv import vertex_table

    parsed = _load(args.config)
    basis_cfg = parsed.require_basis()
    spec, basis = basis_cfg.to_spec(), basis_cfg.to_basis()
    sysm = parsed.require_system()
    policy = _policy_from(args)
    x = _point(args.at, sysm.dim)
    table = vertex_table(spec, basis, sysm, x, policy)
    lie, clarke = table.lie(policy)[1], table.clarke()
    _warn({table.hull.warning: 1} if table.hull.warning else {})
    if lie.empty:
        print("lie = empty (max = -inf)")
    else:
        print(f"lie = [{_fmt(lie.lo)}, {_fmt(lie.hi)}]")
    print(f"clarke = [{_fmt(clarke.lo)}, {_fmt(clarke.hi)}]")
    return EXIT_OK


def _warn(counts):
    """Each distinct active-set warning on stderr, with its point count."""
    for text, n in counts.items():
        print(f"warning: {text} ({n} point{'' if n == 1 else 's'})", file=_sys.stderr)


def _decrease_samples(args, sysm, policy):
    rng = np.random.default_rng(policy.seed)
    pts = sphere_points(sysm.dim, args.samples, rng, radius=args.radius)
    try:
        return np.vstack([pts, *cone_chain(sysm).vs])
    except (PartitionError, InvalidInputError):
        return pts


def cmd_decrease(args):
    from .setderiv import decrease_check

    parsed = _load(args.config)
    basis_cfg = parsed.require_basis()
    spec, basis = basis_cfg.to_spec(), basis_cfg.to_basis()
    sysm = parsed.require_system()
    policy = _policy_from(args)
    pts = _decrease_samples(args, sysm, policy)
    report = decrease_check(
        spec, basis, sysm, pts, args.rate, policy, use_clarke=args.clarke
    )
    _warn(report.warnings)
    violations = report.violations
    print(
        f"decrease[{report.mode}] rate={_fmt(args.rate)} "
        f"points={len(report.X)} violations={len(violations)}"
    )
    for e in violations[:20]:
        print(
            f"  violation at {np.round(e.x, 9).tolist()}: "
            f"value {_fmt(e.value)} > bound {_fmt(e.bound)}"
        )
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_simulate(args):
    from .filippovsim import SimOptions, export_csv, simulate

    parsed = _load(args.config)
    sysm = parsed.require_system()
    policy = _policy_from(args)
    if args.level and not args.svg:
        raise InvalidInputError("--level draws level sets on the --svg portrait; give --svg")
    if args.grid is not None and not args.level:
        raise InvalidInputError("--grid sets the level-set grid; give --level")
    if args.grid is not None and args.grid < 2:
        raise InvalidInputError(f"--grid needs at least 2 points per axis, got {args.grid}")
    if args.svg and sysm.dim != 2:
        raise InvalidInputError("svg output is planar only")
    if args.level and parsed.basis is None:
        raise InvalidInputError("--level needs a [basis] section in the config")
    levels = tuple(_numbers(args.level, "--level")) if args.level else ()
    x0 = _point(getattr(args, "from"), sysm.dim)
    opts = SimOptions(
        horizon=args.horizon,
        max_step=args.max_step,
        policy=policy,
    )
    traj = simulate(sysm, x0, opts)
    header = _header(args, ["horizon", "max_step"])
    print(
        f"status={traj.status} t_end={_fmt(traj.t_end)} "
        f"x_end=[{', '.join(_fmt(v) for v in traj.x_end)}] "
        f"samples={len(traj.samples)} crossings={len(traj.crossings)}"
    )
    for c in traj.crossings:
        print(
            f"  crossing t={_fmt(c.t)} mode {c.from_mode}->{c.to_mode} "
            f"|x|={_fmt(float(np.linalg.norm(c.x)))}"
        )
    spec = basis = None
    if parsed.basis is not None:
        spec, basis = parsed.basis.to_spec(), parsed.basis.to_basis()
    if args.csv:
        _write(args.csv, export_csv(traj, spec, basis), header)
        print(f"csv written to {args.csv}")
    if args.svg:
        from .svg import PORTRAIT_GRID, phase_portrait_svg

        coords = [s.x for s in traj.samples]
        value_fn = None
        if levels:
            from .maxmin import evaluate

            value_fn = lambda p: evaluate(spec, basis, p)  # noqa: E731
        svg = phase_portrait_svg(
            [coords],
            value_fn=value_fn,
            levels=levels,
            grid=PORTRAIT_GRID if args.grid is None else args.grid,
            header_comment=header,
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"svg written to {args.svg}")
    return EXIT_OK


def cmd_certify(args):
    from .certifier import VERDICT_GAS, Candidate, SearchOptions, certify
    from .certreport import serialize_certificate

    parsed = _load(args.config)
    basis_cfg = parsed.require_basis()
    spec = basis_cfg.to_spec()
    sysm = parsed.require_system()
    policy = _policy_from(args)
    if basis_cfg.kind != "quadratic":
        raise InvalidInputError("certification requires a quadratic basis")
    cand = None
    if not args.search:
        cand = Candidate(matrices=[np.array(P) for P in basis_cfg.matrices])
    search_opts = SearchOptions(time_budget=args.budget, seed=policy.seed)
    cert = certify(
        sysm, spec, cand, policy, search=args.search, search_opts=search_opts
    )
    if cert.cond_ii_kind == "planar":
        _warn(cert.cond_ii.warnings)
    report = serialize_certificate(cert, sysm)
    header = _header(args, ["search", "budget"])
    print(f"# {header}")
    print(report, end="")
    if args.out:
        _write(args.out, report, header)
    return EXIT_OK if cert.verdict == VERDICT_GAS else EXIT_FAILED


def cmd_decompose(args):
    parsed = _load(args.config)
    sysm = parsed.require_system()
    policy = _policy_from(args)
    if sysm.dim == 2:
        factors = cone_chain(sysm)
        print(f"chain order: {list(factors.order)}")
        for i, (mode, (t, t2), v) in enumerate(
            zip(factors.order, factors.factors, factors.vs), start=1
        ):
            Q = sysm.modes[mode - 1].Q
            err = float(np.abs(np.outer(t, t2) + np.outer(t2, t) - Q).max())
            print(
                f"theta_{i} = [{', '.join(_fmt(c) for c in t)}]  "
                f"line_{i} = [{', '.join(_fmt(c) for c in v)}]  "
                f"reconstruction_err = {err:.3e}"
            )
        return EXIT_OK
    if sysm.M == 2:
        rep = sliding_exclusion(sysm, policy, n_samples=args.samples)
        print(
            f"two-mode surface: min normal product = {_fmt(rep.min_product)} "
            f"over {rep.n_samples} samples -> {'no sliding' if rep.ok else 'sliding possible'}"
        )
        return EXIT_OK if rep.ok else EXIT_FAILED
    raise InvalidInputError("decompose supports planar cones or two-mode systems")


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args):
    name = args.example
    if name == "example1":
        return _reproduce_example1(args)
    if name == "example2":
        return _reproduce_example2(args)
    return _reproduce_example3(args)


def _reproduce_example1(args):
    from . import fixtures
    from .certifier import VERDICT_GAS, certify
    from .filippovsim import SimOptions, simulate
    from .maxmin import all_permutations, phi

    policy = _policy_from(args)
    sysm, spec, basis = fixtures.example("example1")
    cand = fixtures.example1_candidate()

    traj = simulate(
        sysm, fixtures.EXAMPLE1_Z0, SimOptions(horizon=1.3, max_step=0.01, policy=policy)
    )
    ok = True
    if len(traj.crossings) < 3:
        print(f"FAIL: expected 3 crossings, saw {len(traj.crossings)}")
        ok = False
    else:
        z3 = traj.crossings[2].x
        n3 = float(np.linalg.norm(z3))
        beta = n3 / float(np.linalg.norm(fixtures.EXAMPLE1_Z0))
        print(f"half-turn |z3| = {n3:.6f}  (reference 1.2671 +/- 1e-3)")
        print(f"contraction beta = {beta:.6f}  (reference 0.8961 +/- 1e-3)")
        ok &= abs(n3 - 1.2671) <= 1e-3 and abs(beta - 0.8961) <= 1e-3

    mm = spec
    print("phi table:")
    for rho in all_permutations(3):
        print(f"  phi{rho} = {phi(mm, rho)}")

    cert = certify(sysm, spec, cand, policy)
    print("condition (i) margins:")
    for g, m in zip(cert.cond_i.groups, cert.cond_i.margins):
        print(f"  mode {g.mode} perms {g.perms}: margin = {m:.6f}")
    ok &= cert.cond_i.ok

    v1 = fixtures.EXAMPLE1_LINES["S13"]
    P3 = basis.matrices[2]
    A1 = sysm.modes[0].A
    witness = float(v1 @ (P3 @ A1 + A1.T @ P3) @ v1)
    print(f"conservative-test witness at v1: {witness:.4f} (> 0)")

    if cert.cond_ii_kind == "planar":
        for e in cert.cond_ii.entries:
            print(
                f"  line {e.position} modes {e.modes}: alpha={e.hull.indices} "
                f"weights={e.lam_kind} ok={e.ok}"
            )
    print(f"verdict: {cert.verdict}")
    ok &= cert.verdict == VERDICT_GAS
    return EXIT_OK if ok else EXIT_FAILED


def _reproduce_example2(args):
    from . import fixtures
    from .filippovsim import SimOptions, simulate, sliding_lambda
    from .setderiv import decrease_check

    policy = _policy_from(args)
    sysm, spec, basis = fixtures.example("example2")
    ok = True

    lam_vals = []
    for a in (0.3, 1.0, 2.5):
        for line in (np.array([a, a]), np.array([a, -a])):
            lam = sliding_lambda(sysm, line, policy)
            lam_vals.append(lam)
    print(
        "sliding weights on both lines: "
        + ", ".join("none" if v is None else f"{v:.12f}" for v in lam_vals)
    )
    ok &= all(v is not None and abs(v - 0.5) <= 1e-9 for v in lam_vals)

    pts = [np.array([a, a]) for a in np.linspace(0.05, 2.0, 100)]
    rep = decrease_check(spec, basis, sysm, pts, rate=12.5, policy=policy)
    print(
        f"converging line, rate 12.5: {len(rep.violations)} violations "
        f"out of {len(rep.X)}"
    )
    ok &= rep.ok

    small = [np.array([a, -a]) for a in np.linspace(0.01, 0.1 / np.sqrt(2.0), 20)]
    rep_small = decrease_check(spec, basis, sysm, small, rate=0.0, policy=policy)
    print(
        f"diverging line near origin: {len(rep_small.violations)} violations "
        f"out of {len(rep_small.X)} (expected 0)"
    )
    ok &= rep_small.ok

    big = [np.array([a, -a]) for a in np.linspace(10.0 / np.sqrt(2.0), 25.0, 20)]
    rep_big = decrease_check(spec, basis, sysm, big, rate=0.0, policy=policy)
    print(
        f"diverging line far out: {len(rep_big.violations)} violations "
        f"out of {len(rep_big.X)} (expected some)"
    )
    ok &= not rep_big.ok

    traj = simulate(
        sysm, np.array([0.5, 0.0]), SimOptions(horizon=3.0, max_step=0.01, policy=policy)
    )
    slid = sum(1 for s in traj.samples if s.regime.kind == "sliding")
    print(
        f"trajectory from (0.5, 0): status={traj.status} sliding_samples={slid} "
        f"|x_end|={float(np.linalg.norm(traj.x_end)):.6f}"
    )
    ok &= slid > 0
    print("local sliding convergence reproduced" if ok else "reproduction FAILED")
    return EXIT_OK if ok else EXIT_FAILED


def _reproduce_example3(args):
    from . import fixtures
    from .certifier import VERDICT_GAS, certify

    policy = _policy_from(args)
    sysm, spec, _ = fixtures.example("example3")
    cand = fixtures.example3_candidate()
    cert = certify(sysm, spec, cand, policy)
    print("condition (i) margins:")
    for g, m in zip(cert.cond_i.groups, cert.cond_i.margins):
        print(f"  mode {g.mode}: margin = {m:.6f}")
    if cert.cond_ii_kind == "two-mode":
        excl = cert.cond_ii.exclusion
        print(
            f"sliding exclusion: min product = {excl.min_product:.6f} "
            f"over {excl.n_samples} samples"
        )
        for pair, sv in sorted(cert.cond_ii.rank_margins.items()):
            print(f"rank margin P{pair[0]}-P{pair[1]}: {sv:.6f}")
    print(f"verdict: {cert.verdict}")
    ok = cert.cond_i.ok and cert.verdict == VERDICT_GAS
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxminlyap",
        description="max-min Lyapunov analysis of state-dependent switched systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="configuration file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--abs-tol", type=float, default=1e-9, dest="abs_tol")
        p.add_argument("--rel-tol", type=float, default=1e-9, dest="rel_tol")
        p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("validate", help="parse a config and sample its partition")
    common(p)
    p.add_argument("--samples", type=SAMPLE_COUNT, default=2000)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("phi", help="print the active-base table over orderings")
    common(p)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("grad", help="generalized gradient at a point")
    common(p)
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.set_defaults(fn=cmd_grad)

    p = sub.add_parser("lie", help="set-valued derivatives at a point")
    common(p)
    p.add_argument("--at", required=True)
    p.set_defaults(fn=cmd_lie)

    p = sub.add_parser("decrease", help="sampled decrease verification")
    common(p)
    p.add_argument("--samples", type=SAMPLE_COUNT, default=100)
    p.add_argument("--rate", type=RATE, default=0.0)
    p.add_argument("--radius", type=RADIUS, default=1.0)
    p.add_argument("--clarke", action="store_true")
    p.set_defaults(fn=cmd_decrease)

    p = sub.add_parser("simulate", help="integrate a Filippov solution")
    common(p)
    p.add_argument("--from", required=True, help="initial state, comma separated")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--max-step", type=float, default=0.02, dest="max_step")
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--level", default=None, help="V level sets for the svg")
    p.add_argument("--grid", type=int, default=None, help="level-set grid points per axis")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("certify", help="matrix-inequality certification")
    common(p)
    p.add_argument("--search", action="store_true")
    p.add_argument("--budget", type=BUDGET, default=50.0)
    p.add_argument("--out", default=None, help="write the certificate here")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("decompose", help="switching-surface factorization")
    common(p)
    p.add_argument("--samples", type=SAMPLE_COUNT, default=10_000)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("reproduce", help="run a bundled benchmark end to end")
    p.add_argument("example", choices=["example1", "example2", "example3"])
    common(p, config=False)
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except (InvalidInputError, DomainEvalError, PartitionError, OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as err:
        print(f"internal check failed: {err}", file=_sys.stderr)
        return EXIT_INTERNAL
    except MaxMinLyapError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())

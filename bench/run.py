"""Benchmark of maxminlyap: end-to-end metrics per workload, and per-layer
metrics from a separate traced run.

Usage, from the repository root:

    python3 bench/run.py --workload search|check|simulate --seed N \\
        --seconds S --trace 0|1

The library is imported from ``src/`` of the current directory.  The
workload seed generates every input (see ``workloads.py``); the work done
is sized from ``--seconds``.  Everything runs in this one process with
BLAS limited to one thread; only the set-up timing starts fresh
interpreters, one after another.  Every time is in reference seconds
(``refclock.py``; set-up times on the clock of ``setup_child.py``), which
stay comparable while the host's speed drifts.

With ``--trace 0`` the run makes ``workloads.PASSES`` passes over the
operations and prints the end-to-end metrics.  With ``--trace 1`` it
makes one pass in which every operation runs untraced and then traced,
with the traced public functions wrapped (``tracing.py``), prints the
per-layer metrics, and writes the spans to ``.bench_out/``.  Either way
the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# One process and no worker threads; BLAS reads these when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("search", "check", "simulate")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "ratio"),
    ("search_s", "s"),
    ("certify_ms", "ms"),
    ("decrease_pts_per_s", "pts/s"),
    ("kink_planar_pts_per_s", "pts/s"),
    ("kink_3d_pts_per_s", "pts/s"),
    ("cross_traj_ms", "ms"),
    ("slide_traj_ms", "ms"),
    ("portrait_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# set-up


def check_checkout(root):
    src = root / "src"
    missing = [
        p
        for p in [src / "maxminlyap" / "__init__.py"]
        + [root / "configs" / f"{n}.cfg" for n in ("example1", "example2", "example3")]
        if not p.is_file()
    ]
    if missing:
        raise BenchError(
            "run from the repository root; missing " + ", ".join(map(str, missing))
        )
    return src


def time_fresh_setups(root, src, bench_dir):
    """Median import and set-up time over several fresh interpreters, in
    the reference seconds of ``setup_child.py``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(bench_dir / "setup_child.py")]
    cmd += [str(root / "configs" / f"{n}.cfg") for n in ("example1", "example2", "example3")]
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            proc = subprocess.run(
                cmd,
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
                check=True,
            )
        except (OSError, subprocess.SubprocessError) as err:
            raise BenchError(f"set-up interpreter failed: {err}") from err
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        if not pathlib.Path(got["package"]).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"set-up imported maxminlyap from {got['package']}")
        samples.append(got)
    return (
        statistics.median(s["setup_s"] for s in samples),
        statistics.median(s["import_s"] for s in samples),
    )


def import_library(src):
    sys.path.insert(0, str(src))
    import maxminlyap.cli  # noqa: F401  (what users import)
    from maxminlyap import (
        certifier,
        certreport,
        errors,
        filippovsim,
        inclusion,
        maxmin,
        setderiv,
        svg,
    )
    from maxminlyap.policy import NumericPolicy
    from maxminlyap.sysdsl import config as sysdsl_config

    if not pathlib.Path(maxminlyap.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported maxminlyap from {maxminlyap.__file__}")
    return types.SimpleNamespace(
        certifier=certifier,
        certreport=certreport,
        errors=errors,
        filippovsim=filippovsim,
        inclusion=inclusion,
        maxmin=maxmin,
        setderiv=setderiv,
        svg=svg,
        sysdsl_config=sysdsl_config,
        NumericPolicy=NumericPolicy,
    )


def environment(root, src):
    import numpy
    import scipy

    sha = "none (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return [
        f"git sha: {sha}",
        f"src sha256: {digest.hexdigest()[:16]}",
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}",
        f"nproc: {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})",
        f"blas: {blas}, {threads}",
    ]


# ---------------------------------------------------------------------------
# running operations


class Record:
    """One operation over all its runs, timed in reference seconds."""

    def __init__(self, op):
        self.op = op
        self.times = []  # reference seconds
        self.wall = []  # wall seconds
        self.outcome = None  # the worst outcome over the runs
        self.failures = 0
        self.search = None  # SearchResult of the last run, for searches

    @property
    def seconds(self):
        return statistics.median(self.times)

    def add(self, wall, reference, outcome):
        self.wall.append(wall)
        self.times.append(reference)
        if not outcome.ok:
            self.failures += 1
        if outcome.search is not None:
            self.search = outcome.search
        if self.outcome is None or outcome.severity > self.outcome.severity:
            self.outcome = outcome


def run_op(op, tracer=None, op_id=None, inside=True):
    """Run one operation on the reference clock, then check its result.

    With ``inside`` false the clock samples only around the operation;
    traced runs use that, so spans hold only library time."""
    if tracer is not None:
        tracer.begin_op(op_id, op.kind, op.label)
    result, error, wall, reference = refclock.call(op.run, inside=inside)
    if tracer is not None:
        tracer.end_op(reference / wall)
    if error is None:
        outcome = op.check(result)
    else:
        traceback.print_exception(error, file=sys.stderr)
        outcome = workloads.Outcome(False, f"{type(error).__name__}: {error}")
    return wall, reference, outcome


def run_untraced(ops, passes):
    """``passes`` passes over the operations; each keeps its median time."""
    records = [Record(op) for op in ops]
    for _ in range(passes):
        for rec in records:
            rec.add(*run_op(rec.op))
    return records


def run_traced(ops, tracer, setup):
    """One pass; each operation runs untraced, then traced right after, so
    both see the same machine state, and both on the same clock mode.
    Returns both sets of records."""
    tracer.install(TRACED)
    try:
        tracer.begin_op(-1, "setup", "parse configs")
        kernel = refclock.sample()
        setup()
        tracer.end_op(refclock.scaled(1.0, kernel))
    finally:
        tracer.uninstall()
    plain, traced = [Record(op) for op in ops], [Record(op) for op in ops]
    for op_id, (rec, trec) in enumerate(zip(plain, traced)):
        rec.add(*run_op(rec.op, inside=False))
        tracer.install(TRACED)
        try:
            trec.add(*run_op(trec.op, tracer, op_id, inside=False))
        finally:
            tracer.uninstall()
    return plain, traced


# ---------------------------------------------------------------------------
# metrics


def _per_config_median(records, kind):
    """Median time per operation for each config, averaged over configs so
    each config weighs the same whatever its operation count."""
    by_config = {}
    for r in records:
        if r.op.kind == kind:
            by_config.setdefault(r.op.config, []).append(r.seconds)
    return statistics.fmean(statistics.median(v) for v in by_config.values())


def _points_per_s(records, kind):
    chosen = [r for r in records if r.op.kind == kind]
    return sum(len(r.op.points) for r in chosen) / sum(r.seconds for r in chosen)


def end_to_end(records, setup_s):
    failed = sum(r.failures for r in records)
    attempted = sum(len(r.times) for r in records)
    values = {
        "setup_s": setup_s,
        "run_s": sum(r.seconds for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Laplace's rule of succession, (failed + 1) / (attempted + 2): the
        # failure rate estimate never reads 0, so regressions divide by it
        "fail_frac": (failed + 1) / (attempted + 2),
        "search_s": _per_config_median(records, "search"),
        "certify_ms": 1e3 * _per_config_median(records, "certify"),
        "decrease_pts_per_s": _points_per_s(records, "decrease"),
        "kink_planar_pts_per_s": _points_per_s(records, "kink_planar"),
        "kink_3d_pts_per_s": _points_per_s(records, "kink_3d"),
        "cross_traj_ms": 1e3 * _per_config_median(records, "traj_cross"),
        "slide_traj_ms": 1e3 * _per_config_median(records, "traj_slide"),
        "portrait_s": _per_config_median(records, "portrait"),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


_ACTIVE_PATH = {
    "exact-smooth": "active.smooth",
    "exact-sweep": "active.sweep",
    "perturbation-sampled": "active.sampled",
}


def _hook_active(counts, act):
    counts[_ACTIVE_PATH[act.method]] += 1


def _hook_lambda(counts, lam):
    counts["lambda.nonfull"] += lam.kind != "full-simplex"


def _hook_simulate(counts, traj):
    counts["sim.samples"] += len(traj.samples)
    counts["sim.crossings"] += len(traj.crossings)
    counts["sim.sliding"] += sum(1 for s in traj.samples if s.regime.kind == "sliding")


# (module, function or Class.method, result hook, keep per-call durations)
TRACED = (
    ("maxminlyap.sysdsl.config", "parse_config", None, False),
    ("maxminlyap.certifier", "search_condition_i", None, False),
    ("maxminlyap.certifier", "check_condition_i", None, False),
    ("maxminlyap.certifier", "derive_matching", None, False),
    ("maxminlyap.certifier", "complete_multipliers", None, False),
    ("maxminlyap.certifier", "planar_condition_ii", None, False),
    ("maxminlyap.certifier", "sliding_exclusion", None, False),
    ("maxminlyap.numkernel", "eig_sym", None, False),
    ("maxminlyap.numkernel", "project_psd", None, False),
    ("maxminlyap.numkernel", "negdef_margin", None, False),
    ("maxminlyap.certreport", "serialize_certificate", None, False),
    ("maxminlyap.certreport", "re_verify", None, False),
    ("maxminlyap.maxmin", "active_indices", _hook_active, False),
    ("maxminlyap.maxmin", "evaluate", None, False),
    ("maxminlyap.inclusion", "SwitchedSystem.index_set", None, False),
    ("maxminlyap.inclusion", "Mode.field", None, False),
    ("maxminlyap.setderiv", "decrease_check", None, False),
    ("maxminlyap.setderiv", "lie_derivative", None, True),
    ("maxminlyap.setderiv", "lambda_set", _hook_lambda, False),
    ("maxminlyap.filippovsim", "simulate", _hook_simulate, False),
    ("maxminlyap.filippovsim", "sliding_lambda", None, False),
    ("maxminlyap.filippovsim", "export_csv", None, False),
    ("maxminlyap.svg", "phase_portrait_svg", None, False),
)


def per_layer(tracer, traced, import_s, overhead_frac):
    """Per-layer metrics of the traced pass; ``traced`` are its records."""
    tot = tracer.totals()
    searches = [r.search for r in traced if r.search is not None]
    counts = tracer.counts

    def calls(span):
        return ("count", tot.get(span, (0, 0.0, 0.0))[0])

    def self_s(span):
        return ("s", tot.get(span, (0, 0.0, 0.0))[2])

    def count(key):
        return ("count", counts[key])

    lie = tracer.scaled_durations("setderiv.lie_derivative") or [0.0]
    sim_ops = tracer.ops_calling("filippovsim.simulate")
    sim_rhs = tracer.totals(sim_ops).get("inclusion.field", (0,))[0]
    samples = counts["sim.samples"]
    out = {"import.s": ("s", import_s)}
    for span in (
        "sysdsl.parse_config",
        "numkernel.eig_sym",
        "numkernel.project_psd",
        "numkernel.negdef_margin",
        "certifier.check_condition_i",
        "certifier.derive_matching",
        "maxmin.active_indices",
        "maxmin.evaluate",
        "inclusion.index_set",
        "inclusion.field",
        "setderiv.lie_derivative",
        "setderiv.lambda_set",
        "filippovsim.simulate",
        "filippovsim.sliding_lambda",
    ):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.s"] = self_s(span)
    for span in (
        "certifier.search_condition_i",
        "certifier.complete_multipliers",
        "certifier.planar_condition_ii",
        "certifier.sliding_exclusion",
        "certreport.serialize_certificate",
        "certreport.re_verify",
        "setderiv.decrease_check",
        "filippovsim.export_csv",
        "svg.phase_portrait_svg",
    ):
        out[f"{span}.s"] = self_s(span)
    out.update(
        {
            "certifier.search_condition_i.rounds": (
                "count",
                sum(s.rounds for s in searches),
            ),
            "certifier.search_condition_i.found": ("count", sum(s.found for s in searches)),
            "maxmin.active_indices.smooth": count("active.smooth"),
            "maxmin.active_indices.sweep": count("active.sweep"),
            "maxmin.active_indices.sampled": count("active.sampled"),
            "setderiv.lambda_set.nonfull": count("lambda.nonfull"),
            "setderiv.lie_derivative.us_p50": ("us", 1e6 * _quantile(lie, 0.50)),
            "setderiv.lie_derivative.us_p99": ("us", 1e6 * _quantile(lie, 0.99)),
            "filippovsim.samples": count("sim.samples"),
            "filippovsim.crossings": count("sim.crossings"),
            "filippovsim.sliding_samples": count("sim.sliding"),
            "filippovsim.rhs_per_sample": ("ratio", sim_rhs / samples if samples else 0.0),
            "trace.overhead_frac": ("ratio", overhead_frac),
        }
    )
    return {name: (value, unit) for name, (unit, value) in sorted(out.items())}


def _quantile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# reporting


def describe(records):
    lines = []
    for r in records:
        op, out = r.op, r.outcome
        status = "ok" if out.ok else ("FAILED (known)" if out.known else "FAILED")
        if op.kind == "search":
            extra = ""
            if r.search is not None:
                extra = f" rounds={r.search.rounds} found={r.search.found}"
            lines.append(f"search {op.label}: {r.seconds:.3f} s{extra} {status} {out.note}")
        elif not out.ok:
            lines.append(f"{op.kind} {op.label}: {status} {out.note}")
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r)
    for kind, rs in by_kind.items():
        bad = sum(r.failures for r in rs)
        runs = sum(len(r.times) for r in rs)
        lines.append(
            f"{kind}: {len(rs)} ops run {runs} times, {sum(r.seconds for r in rs):.3f} "
            f"reference s ({sum(sum(r.wall) for r in rs):.3f} wall s in all), "
            f"{bad} runs failed"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    bench_dir = pathlib.Path(__file__).resolve().parent
    try:
        src = check_checkout(root)
        setup_s, import_s = time_fresh_setups(root, src, bench_dir)
        mm = import_library(src)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    probs = workloads.load_problems(mm, root)
    work = workloads.build(mm, probs, args.workload, args.seed, args.seconds)
    lines = environment(root, src)
    lines.append(f"workload {args.workload} seed {args.seed}: {len(work.ops)} ops per pass")
    lines += work.notes
    lines.append(
        "search certificates are compared by content; the line "
        f"'{workloads.SEARCH_NOTE} X.Ys' is excluded (wall-clock time)"
    )

    if args.trace:
        tracer = tracing.Tracer()
        records, traced = run_traced(
            work.ops, tracer, lambda: workloads.load_problems(mm, root)
        )
        all_records = records + traced
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in records) - 1
        metrics = per_layer(tracer, traced, import_s, overhead)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(
            trace_path,
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
        )
        lines += describe(records)
        lines.append(f"spans written to {trace_path.relative_to(root)}")
    else:
        records = run_untraced(work.ops, workloads.PASSES)
        all_records = records
        metrics = end_to_end(records, setup_s)
        lines += describe(records)

    failed = sum(r.failures for r in all_records)
    attempted = sum(len(r.times) for r in all_records)
    correct = all(r.outcome.ok or r.outcome.known for r in all_records)
    lines.append(f"correct: {correct}  attempted: {attempted}  failed: {failed}")
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

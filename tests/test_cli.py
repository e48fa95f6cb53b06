import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

from maxminlyap.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
EX1 = str(CONFIGS / "example1.cfg")
EX2 = str(CONFIGS / "example2.cfg")
EX3 = str(CONFIGS / "example3.cfg")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_reference_configs(capsys):
    for cfg in (EX1, EX2, EX3):
        code, out, _ = run(capsys, ["validate", cfg, "--samples", "1000"])
        assert code == 0
        assert "0 violations" in out


def test_validate_prints_the_stored_structure(tmp_path, capsys):
    # a min-of-max structure is stored as its max-of-min dual; validate
    # prints that form, as phi does, and the given one beside it
    cfg = tmp_path / "minmax.cfg"
    text = (CONFIGS / "example1.cfg").read_text()
    old = "polarity = maxmin\nS1 = {1, 2}\nS2 = {3}"
    assert old in text
    cfg.write_text(text.replace(old, "polarity = minmax\nS1 = {1, 3}\nS2 = {2, 3}"))
    code, out, _ = run(capsys, ["validate", str(cfg), "--samples", "100"])
    assert code == 0
    assert "basis: K=3 kind=quadratic families=((3,), (1, 2)) polarity=maxmin\n" in out
    assert "  as given: families=((1, 3), (2, 3)) polarity=minmax\n" in out
    code, phi_out, _ = run(capsys, ["phi", str(cfg)])
    assert code == 0
    assert phi_out.startswith("K=3 families=((3,), (1, 2))\n")
    # a max-of-min structure is printed once, as given
    code, out, _ = run(capsys, ["validate", EX1, "--samples", "100"])
    assert "families=((1, 2), (3,)) polarity=maxmin\n" in out
    assert "as given" not in out


def test_phi_table(capsys):
    code, out, _ = run(capsys, ["phi", EX1])
    assert code == 0
    assert "phi(3, 1, 2) = 1" in out
    assert "phi(3, 2, 1) = 2" in out
    assert out.count("= 3") == 4


V1_TEXT = "0.3826834323650898,-0.9238795325112867"


def test_grad_at_kink(capsys):
    code, out, _ = run(capsys, ["grad", EX1, "--at", V1_TEXT])
    assert code == 0
    assert "active = (1, 3)" in out


def test_grad_near_kink_sweep_stays_exact(capsys):
    # a loose tolerance flags a tie, but the angular sweep still resolves
    # the slightly-off point to its true singleton instead of widening
    code, out, _ = run(
        capsys, ["grad", EX1, "--at", "0.38268,-0.92388", "--abs-tol", "1e-4"]
    )
    assert code == 0
    assert "active = (3,)" in out
    assert "exact-sweep" in out


def test_lie_and_clarke_at_kink(capsys):
    code, out, _ = run(capsys, ["lie", EX1, "--at", V1_TEXT])
    assert code == 0
    assert "lie = empty" in out
    assert "clarke = [" in out


def test_decrease_lie_vs_clarke(capsys):
    code, _, _ = run(capsys, ["decrease", EX1, "--samples", "50"])
    assert code == 0
    code2, out2, _ = run(capsys, ["decrease", EX1, "--samples", "50", "--clarke"])
    assert code2 == 1
    assert "violation" in out2


def test_simulate_with_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    svg_path = tmp_path / "traj.svg"
    code, out, _ = run(
        capsys,
        [
            "simulate", EX1, "--from=-1,1", "--horizon", "1.3",
            "--max-step", "0.01", "--csv", str(csv_path),
            "--svg", str(svg_path), "--grid", "60", "--level", "1.5",
        ],
    )
    assert code == 0
    assert "crossings=4" in out or "crossings=3" in out
    text = csv_path.read_text()
    assert text.startswith("# maxminlyap 0.1.0 manifest=")
    assert text.splitlines()[1] == "t,x1,x2,regime,lambda,V"
    svg = svg_path.read_text()
    assert "<svg" in svg and "polyline" in svg and "maxminlyap" in svg


def test_simulate_determinism(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        code, _, _ = run(
            capsys,
            ["simulate", EX2, "--from", "0.5,0", "--horizon", "1.0", "--csv", str(p)],
        )
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    # same arguments, same files: trajectory, crossings, CSV and portrait
    csv_path, svg_path = tmp_path / "traj.csv", tmp_path / "traj.svg"
    argv = [
        "simulate", EX1, "--from=-1,1", "--horizon", "1.3", "--csv", str(csv_path),
        "--svg", str(svg_path), "--grid", "80", "--level", "1,3,5",
    ]
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, argv)
        assert code == 0
        runs.append((out, csv_path.read_bytes(), svg_path.read_bytes()))
    assert runs[0] == runs[1]
    assert b"<line" in runs[0][2]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--grid", "-3", "--level", "1"], "at least 2 points"),
        (["--grid", "0", "--level", "1"], "at least 2 points"),
        (["--grid", "1", "--level", "1"], "at least 2 points"),
        (["--level", "abc"], "comma-separated list of numbers"),
        (["--level", "1,nan"], "non-finite"),
    ],
    ids=["grid-negative", "grid-0", "grid-1", "level-abc", "level-nan"],
)
def test_simulate_rejects_bad_svg_options(tmp_path, capsys, options, message):
    svg_path = tmp_path / "traj.svg"
    argv = ["simulate", EX1, "--from=-1,1", "--horizon", "0.2", "--svg", str(svg_path)]
    code, _, err = run(capsys, argv + options)
    assert code == 2
    assert message in err
    assert not svg_path.exists()


def test_simulate_level_needs_a_basis(tmp_path, capsys):
    cfg = tmp_path / "nobasis.cfg"
    cfg.write_text(Path(EX2).read_text().split("[basis]")[0])
    svg_path = tmp_path / "traj.svg"
    argv = ["simulate", str(cfg), "--from", "0.5,0", "--horizon", "0.2", "--svg", str(svg_path)]
    code, _, _ = run(capsys, argv)
    assert code == 0 and svg_path.exists()
    svg_path.unlink()
    code, _, err = run(capsys, argv + ["--level", "1"])
    assert code == 2
    assert "[basis]" in err
    assert not svg_path.exists()


@pytest.mark.parametrize(
    "config, point, options, message",
    [
        (EX3, "1,0.5,-0.3", [], "planar only"),
        ("nobasis", "0.5,0", ["--level", "1"], "[basis]"),
        (EX1, "-1,1", ["--level", "abc"], "comma-separated list of numbers"),
        (EX1, "-1,1", ["--level", "1", "--grid", "1"], "at least 2 points"),
    ],
    ids=["svg-3d", "level-no-basis", "level-abc", "grid-1"],
)
def test_simulate_usage_errors_come_before_the_run(
    tmp_path, capsys, config, point, options, message
):
    # a usage error exits 2 before simulating: no status line, no CSV
    if config == "nobasis":
        config = tmp_path / "nobasis.cfg"
        config.write_text(Path(EX2).read_text().split("[basis]")[0])
    csv_path, svg_path = tmp_path / "o.csv", tmp_path / "o.svg"
    argv = ["simulate", str(config), f"--from={point}", "--horizon", "2"]
    argv += ["--csv", str(csv_path), "--svg", str(svg_path), *options]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert message in err
    assert out == ""
    assert not csv_path.exists() and not svg_path.exists()


def test_simulate_level_needs_svg(capsys):
    argv = ["simulate", EX1, "--from=-1,1", "--horizon", "0.2", "--level", "1,2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "--svg" in err
    assert out == ""


@pytest.mark.parametrize("with_svg", [False, True], ids=["alone", "with-svg"])
def test_simulate_grid_needs_level(tmp_path, capsys, with_svg):
    svg_path = tmp_path / "traj.svg"
    argv = ["simulate", EX1, "--from=-1,1", "--horizon", "0.2", "--grid", "5"]
    if with_svg:
        argv += ["--svg", str(svg_path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "--level" in err
    assert out == ""
    assert not svg_path.exists()


def test_simulate_rejects_a_malformed_point(capsys):
    code, _, err = run(capsys, ["simulate", EX1, "--from", "abc", "--horizon", "0.2"])
    assert code == 2
    assert "comma-separated list of numbers" in err


def test_decrease_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["decrease", EX3, "--samples", "40", "--seed", "3"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_certify_reference_configs(capsys):
    for cfg in (EX1, EX3):
        code, out, _ = run(capsys, ["certify", cfg])
        assert code == 0
        assert "verdict = GAS-certified" in out


def test_certify_writes_reverifiable_report(tmp_path, capsys):
    out_path = tmp_path / "cert.txt"
    code, _, _ = run(capsys, ["certify", EX1, "--out", str(out_path)])
    assert code == 0
    from maxminlyap.certreport import re_verify

    body = out_path.read_text().split("\n", 1)[1]  # drop the manifest header
    fresh, stored, matches = re_verify(body)
    assert matches and stored == "GAS-certified"


def test_certify_not_certified_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        """
        [system]
        dim = 2
        mode 1 { A = [[1, 0], [0, 1]] }
        [basis]
        P1 = [[1, 0], [0, 1]]
        [structure]
        S1 = {1}
        """
    )
    code, out, _ = run(capsys, ["certify", str(bad), "--search", "--budget", "2"])
    assert code == 1
    assert "not-certified" in out


def test_certify_prints_active_set_warnings_on_stderr(tmp_path, capsys):
    # identical bases on a planar double cone: both switching lines take
    # their active sets from perturbation sampling, which warns; stdout is
    # the certificate alone, as before
    cfg = tmp_path / "identical.cfg"
    cfg.write_text(
        "[system]\ndim = 2\n"
        "mode 1 { A = [[-1, 0.5], [-0.5, -1]]; Q = [[1, 0], [0, -1]] }\n"
        "mode 2 { A = [[-1, -0.5], [0.5, -1]]; Q = [[-1, 0], [0, 1]] }\n"
        "[basis]\nP1 = [[1, 0], [0, 1]]\nP2 = [[1, 0], [0, 1]]\n"
        "[structure]\nS1 = {1, 2}\n"
    )
    code, out, err = run(capsys, ["certify", str(cfg)])
    assert code == 0
    assert err == "warning: bases 1 and 2 are identical (2 points)\n"
    assert "verdict = GAS-certified\n" in out and "kind = planar\n" in out
    assert "warning" not in out
    # the bundled planar example warns of nothing
    code, _, err = run(capsys, ["certify", EX1])
    assert (code, err) == (0, "")


def test_certify_refuses_nonlinear_modes(capsys):
    code, _, err = run(capsys, ["certify", EX2])
    assert code == 2
    assert "linear" in err


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.cfg"
    bad.write_text("[system]\ndim = 2\nmode 1 { A = [[1, 2], [3]] }\n")
    code, _, err = run(capsys, ["certify", str(bad)])
    assert code == 2
    assert "line 3" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_decompose_planar(capsys):
    code, out, _ = run(capsys, ["decompose", EX1])
    assert code == 0
    assert "theta_1" in out and "chain order: [1, 2, 3]" in out


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_decompose_planar_matches_golden_text(capsys, name):
    # golden files hold `decompose configs/<name>.cfg`: the chain order, and
    # per line the factor of mode order[i] on it, the line, and that
    # mode's reconstruction error
    code, out, _ = run(capsys, ["decompose", str(CONFIGS / f"{name}.cfg")])
    assert code == 0
    assert out == (GOLDEN / f"decompose_{name}.txt").read_text()


def test_decompose_two_mode(capsys):
    code, out, _ = run(capsys, ["decompose", EX3, "--samples", "2000"])
    assert code == 0
    assert "no sliding" in out


def assert_reproduce_matches_golden(capsys, name):
    # golden files hold the whole stdout of `reproduce <name>`
    code, out, _ = run(capsys, ["reproduce", name])
    assert code == 0
    assert out == (GOLDEN / f"reproduce_{name}.txt").read_text()


def test_reproduce_example1(capsys):
    assert_reproduce_matches_golden(capsys, "example1")


def test_reproduce_example2(capsys):
    assert_reproduce_matches_golden(capsys, "example2")


def test_reproduce_example3(capsys):
    assert_reproduce_matches_golden(capsys, "example3")


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_bundled_config_is_the_linked_file(name):
    # configs/<name>.cfg links to the package copy that `reproduce`
    # parses, so the two cannot drift apart
    shipped = resources.files("maxminlyap") / "examples" / f"{name}.cfg"
    linked = CONFIGS / f"{name}.cfg"
    assert linked.is_symlink()
    assert linked.resolve() == Path(str(shipped)).resolve()
    assert linked.read_bytes() == shipped.read_bytes()


def test_certify_search_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["certify", EX1, "--search", "--seed", "0"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "# note: condition (i) candidate found by search in 1 round\n" in outs[0]


def test_certify_search_imports_no_scipy(tmp_path):
    # the search's Lyapunov starts are numpy's; a fresh interpreter
    # lists every scipy module the run loaded
    script = (
        "import sys\n"
        "from maxminlyap.cli import main\n"
        f"code = main(['certify', '--search', '--seed', '0', {EX1!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


# the modules that loading the CLI and reading a config with a basis need
SETUP_MODULES = {
    "maxminlyap", "cli", "errors", "policy", "numkernel", "inclusion", "maxmin",
    "sysdsl", "sysdsl.expr", "sysdsl.config",
}


def loaded_modules(tmp_path, argv):
    """Exit status of ``main(argv)`` in a fresh interpreter, and the
    ``maxminlyap`` modules it loaded, named below the package."""
    script = (
        "import sys\n"
        "from maxminlyap.cli import main\n"
        f"code = main({argv!r})\n"
        "names = sorted(m for m in sys.modules if m.split('.')[0] == 'maxminlyap')\n"
        "print(code, ' '.join(names))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, *names = proc.stdout.splitlines()[-1].split()
    return int(code), {n.removeprefix("maxminlyap.") for n in names}


@pytest.mark.parametrize(
    "argv, code, want",
    [
        (["validate", EX1, "--samples", "100"], 0, SETUP_MODULES),
        (["phi", EX1], 0, SETUP_MODULES),
        (
            ["simulate", EX2, "--from", "0.5,0", "--horizon", "0.5"],
            0,
            SETUP_MODULES | {"filippovsim"},
        ),
        (
            ["simulate", EX2, "--from", "0.5,0", "--horizon", "0.5", "--svg", "p.svg"],
            0,
            SETUP_MODULES | {"filippovsim", "svg"},
        ),
        (["decrease", EX3, "--samples", "100"], 0, SETUP_MODULES | {"setderiv"}),
        # a planar cone system: the chain's switching lines come from the
        # system model, not the certifier
        (["decrease", EX1, "--samples", "100"], 0, SETUP_MODULES | {"setderiv"}),
        # decompose reads no basis, so not even maxmin
        (["decompose", EX1], 0, SETUP_MODULES - {"maxmin"}),
        (["decompose", EX3, "--samples", "100"], 0, SETUP_MODULES - {"maxmin"}),
        (
            ["reproduce", "example2"],
            0,
            SETUP_MODULES | {"fixtures", "filippovsim", "setderiv"},
        ),
        (["certify", EX3], 0, SETUP_MODULES | {"certifier", "setderiv", "certreport"}),
    ],
    ids=[
        "validate", "phi", "simulate", "simulate-svg", "decrease", "decrease-planar",
        "decompose-planar", "decompose-two-mode", "reproduce-example2", "certify",
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, want):
    got_code, got = loaded_modules(tmp_path, argv)
    assert got_code == code
    assert got == want


def test_phi_refuses_more_bases_than_the_table_lists(tmp_path, capsys):
    # the limit lives beside all_permutations, and the certifier reads
    # the same constant
    from maxminlyap import certifier, maxmin

    assert certifier.MAX_BASES is maxmin.MAX_BASES == 6
    head = (CONFIGS / "example1.cfg").read_text().split("[basis]")[0]
    bases = "".join(f"P{k} = [[{k}, 0], [0, 1]]\n" for k in range(1, 8))
    cfg = tmp_path / "k7.cfg"
    cfg.write_text(
        f"{head}[basis]\n{bases}\n[structure]\npolarity = maxmin\n"
        "S1 = {1, 2, 3, 4}\nS2 = {5, 6, 7}\n"
    )
    code, out, err = run(capsys, ["phi", str(cfg)])
    assert (code, out, err) == (2, "", "error: phi table limited to K <= 6\n")
    code, out, err = run(capsys, ["certify", str(cfg)])
    assert (code, out) == (2, "")
    assert err == "error: K=7 bases means 7! permutations; refusing beyond 6\n"


@pytest.mark.parametrize(
    "name, variant",
    [
        *[(name, variant) for name in ("example1", "example3") for variant in ("rate0.3", "clarke")],
        ("example2", "rate20"),
        ("example2", "clarke_rate20"),
    ],
)
def test_decrease_matches_golden_text(capsys, monkeypatch, name, variant):
    # golden files hold the stdout of `decrease configs/<name>.cfg
    # --samples 2000` at seed 0 from the per-point loop; batching the
    # smooth samples must not move a single byte.  At rate 20 example2
    # has 522 violations, and the first 20 print the values of its
    # arctan fields, which the batch target of the compiled expressions
    # evaluates
    monkeypatch.chdir(CONFIGS.parent)
    flags = {
        "rate0.3": ["--rate", "0.3"],
        "clarke": ["--clarke"],
        "rate20": ["--rate", "20"],
        "clarke_rate20": ["--rate", "20", "--clarke"],
    }[variant]
    argv = ["decrease", f"configs/{name}.cfg", "--samples", "2000", *flags]
    code, out, _ = run(capsys, argv)
    want = (GOLDEN / f"decrease_{name}_{variant}.txt").read_text()
    assert out == want
    assert code == (0 if " violations=0\n" in want else 1)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_decrease_lie_rate0_matches_golden_text(capsys, monkeypatch, name):
    # golden files hold the stdout of `decrease configs/<name>.cfg
    # --samples 2000` (Lie mode, rate 0) from the per-point active sets;
    # the planar ones include the cone_chain kink points, so the batched
    # active sets must not move a single byte
    monkeypatch.chdir(CONFIGS.parent)
    code, out, err = run(capsys, ["decrease", f"configs/{name}.cfg", "--samples", "2000"])
    assert out == (GOLDEN / f"decrease_{name}.txt").read_text()
    assert (code, err) == (0, "")


def test_lie_and_decrease_warn_on_stderr_only(capsys, tmp_path):
    # two identical bases: every tied point falls back to sampling with a
    # warning; stdout stays the per-point output, stderr counts the
    # warning once per distinct text
    cfg = tmp_path / "twin.cfg"
    text = (CONFIGS / "example1.cfg").read_text()
    assert "P2 = [[1, 0], [0, 5]]" in text
    cfg.write_text(text.replace("P2 = [[1, 0], [0, 5]]", "P2 = [[5, 0], [0, 1]]"))
    code, out, err = run(capsys, ["lie", str(cfg), "--at=1,0"])
    assert (code, out) == (0, "lie = [19, 19]\nclarke = [19, 19]\n")
    assert err == "warning: bases 1 and 2 are identical (1 point)\n"
    code, out, err = run(capsys, ["decrease", str(cfg), "--samples", "40"])
    assert (code, out) == (1, (GOLDEN / "decrease_identical_bases.txt").read_text())
    assert err == "warning: bases 1 and 2 are identical (21 points)\n"
    code, out, err = run(capsys, ["lie", EX1, "--at=1,0"])
    assert err == ""


COUNT = "argument --samples: must be at least 1, got "
RADIUS = "argument --radius: must be finite and positive"
BUDGET = "argument --budget: must be finite and not negative"
SIM = ["simulate", EX1, "--from=-1,1"]
POSITIVE = "must be finite and positive, got "
TOLERANCE = "must be finite and not negative, got "
SEED = "seed must not be negative, got -1"  # numpy's generators take no negative seed
NON_FINITE = "has a non-finite value"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", EX1, "--samples", "0"], COUNT + "0"),
        (["decrease", EX1, "--samples", "0"], COUNT + "0"),
        (["decompose", EX3, "--samples", "0"], COUNT + "0"),
        (["decompose", EX3, "--samples", "-5"], COUNT + "-5"),
        (["decrease", EX1, "--radius", "nan"], RADIUS),
        (["decrease", EX1, "--radius", "inf"], RADIUS),
        (["decrease", EX1, "--radius", "0"], RADIUS),
        (["decrease", EX1, "--radius", "-1"], RADIUS),
        (["certify", EX1, "--budget", "nan"], BUDGET),
        (["certify", EX1, "--budget", "-1"], BUDGET),
        (SIM + ["--horizon", "nan"], "horizon " + POSITIVE + "nan"),
        (SIM + ["--horizon", "inf"], "horizon " + POSITIVE + "inf"),
        (SIM + ["--horizon", "1", "--max-step", "nan"], "max_step " + POSITIVE + "nan"),
        (SIM + ["--horizon", "1", "--max-step", "inf"], "max_step " + POSITIVE + "inf"),
        (["certify", EX1, "--margin", "nan"], "margin " + TOLERANCE + "nan"),
        (["certify", EX1, "--margin=-1e-6"], "margin " + TOLERANCE + "-1e-06"),
        (["decrease", EX1, "--abs-tol", "inf"], "abs_tol " + TOLERANCE + "inf"),
        (["lie", EX1, "--at", "1,-1", "--rel-tol", "nan"], "rel_tol " + TOLERANCE + "nan"),
        (["grad", EX1, "--at", "nan,1"], NON_FINITE),
        (["lie", EX1, "--at", "1,inf"], NON_FINITE),
        (["simulate", EX1, "--from", "nan,1", "--horizon", "1"], NON_FINITE),
        (["decrease", EX1, "--rate", "nan"], "argument --rate: must be finite, got nan"),
        (["decrease", EX1, "--rate=-inf"], "argument --rate: must be finite, got -inf"),
        (["decrease", EX1, "--seed", "-1"], SEED),
        (["certify", EX1, "--seed", "-1"], SEED),
        (["validate", EX1, "--seed", "-1"], SEED),
        (["certify", "--search", EX1, "--seed", "-1"], SEED),
    ],
)
def test_bad_sample_counts_radii_and_budgets_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_grad_refuses_a_point_whose_base_values_overflow(capsys):
    # x'Px overflows at (1e200, 1e200): exit 2, nothing on stdout and no
    # numpy overflow warning; at (1e150, 1e150) it is finite and kept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["grad", EX1, "--at=1e200,1e200"])
        assert (code, out) == (2, "")
        assert "a base value is not finite" in err
        code, out, _ = run(capsys, ["grad", EX1, "--at=1e150,1e150"])
    assert code == 0
    assert "active = (3,) method = exact-smooth" in out


HUGE_Q_CONFIG = """[system]
dim = 2
mode 1 {
  A = [[-1, 0], [0, -1]]
  Q = [[1.5e308, 0], [0, -1.5e308]]
}
mode 2 {
  A = [[-1, 0], [0, -1]]
  Q = [[-1.5e308, 0], [0, 1.5e308]]
}
[basis]
P1 = [[1, 0], [0, 1]]
[structure]
S1 = {1}
"""


@pytest.mark.parametrize("command", ["validate", "certify"])
def test_a_cone_whose_symmetrization_overflows_is_an_input_error(capsys, tmp_path, command):
    # finite Q entries whose 0.5 (Q + Q^T) overflows: exit 2 with the
    # error on stderr, nothing on stdout and no numpy warning
    cfg = tmp_path / "huge_q.cfg"
    cfg.write_text(HUGE_Q_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [command, str(cfg)])
    assert (code, out) == (2, "")
    assert err == "error: mode 1: Q overflows when symmetrized\n"


HUGE_LITERALS = {
    "skewed-q": (
        "mode 1 {\n  A = [[-1, 0], [0, -1]]\n  Q = [[1, 1e308], [-1e308, -1]]\n}\n"
        "[basis]\nP1 = [[1, 0], [0, 1]]",
        "config error: mode 1: non-symmetric matrix literal for Q\n",
    ),
    "huge-p": (
        "mode 1 {\n  A = [[-1, 0], [0, -1]]\n}\n[basis]\nP1 = [[1.5e308, 0], [0, 1]]",
        "config error: line 7, col 1: P1 overflows when symmetrized\n",
    ),
}


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("case", sorted(HUGE_LITERALS))
def test_huge_matrix_literals_are_config_errors(capsys, tmp_path, command, case):
    # a skew Q literal whose entries overflow their difference, and a
    # symmetric basis literal whose symmetrization overflows: exit 2 with
    # one config error line, the basis one at P1's position, nothing on
    # stdout and no numpy warning
    body, message = HUGE_LITERALS[case]
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(f"[system]\ndim = 2\n{body}\n[structure]\nS1 = {{1}}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [command, str(cfg)])
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_certify_matches_golden_text(capsys, monkeypatch, name):
    # golden files hold the stdout of `certify configs/<name>.cfg` at seed 0;
    # the sampled checks behind it must not move a single digit
    monkeypatch.chdir(CONFIGS.parent)
    code, out, _ = run(capsys, ["certify", f"configs/{name}.cfg"])
    assert code == 0
    assert out == (GOLDEN / f"certify_{name}.txt").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "example1_half_turn",
            ["configs/example1.cfg", "--from=-1,1", "--horizon", "1.3", "--max-step", "0.01"],
        ),
        ("example2_sliding", ["configs/example2.cfg", "--from", "0.5,0", "--horizon", "1.0"]),
        ("example3", ["configs/example3.cfg", "--from=1,0.5,-0.3", "--horizon", "10"]),
    ],
)
def test_simulate_csv_matches_golden_bytes(capsys, monkeypatch, tmp_path, name, argv):
    # golden files hold the --csv output of `simulate` (the manifest header
    # hashes the config path as given, so the run uses the relative one);
    # the integrator and the field evaluation must not move a single byte
    monkeypatch.chdir(CONFIGS.parent)
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run(capsys, ["simulate", *argv, "--csv", str(out_csv)])
    assert code == 0
    assert out_csv.read_bytes() == (GOLDEN / f"simulate_{name}.csv").read_bytes()


# planar cone partitions whose chain needs no rescaling: A = -I style modes,
# two bases, and every switching line printed by `certify`
TWO_MODE_CFG = """\
[system]
dim = 2
mode 1 {
  A = [[-1, 0], [0, -2]]
  Q = [[-1, 0], [0, 1]]
}
mode 2 {
  A = [[-2, 0], [0, -1]]
  Q = [[1, 0], [0, -1]]
}

[basis]
P1 = [[1, 0], [0, 2]]
P2 = [[2, 0], [0, 1]]

[structure]
polarity = maxmin
S1 = {1, 2}
"""

FOUR_CONE_CFG = """\
[system]
dim = 2
mode 1 {
  A = [[-1, 0], [0, -1]]
  Q = [[0, 1], [1, -2]]
}
mode 2 {
  A = [[-1, 0], [0, -1]]
  Q = [[-2, 1], [1, 0]]
}
mode 3 {
  A = [[-1, 0], [0, -1]]
  Q = [[-2, -1], [-1, 0]]
}
mode 4 {
  A = [[-1, 0], [0, -1]]
  Q = [[0, -1], [-1, -2]]
}

[basis]
P1 = [[1, 0], [0, 2]]
P2 = [[2, 0], [0, 1]]

[structure]
polarity = maxmin
S1 = {1, 2}
"""

# twice mode 2's cone matrix: the same region, factors of unequal scale
TWO_MODE_SCALED_CFG = TWO_MODE_CFG.replace(
    "Q = [[1, 0], [0, -1]]", "Q = [[2, 0], [0, -2]]"
)


def write_config(monkeypatch, tmp_path, name, text):
    # the manifest header hashes the config path as given, so runs use the
    # bare file name inside tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    return name


@pytest.mark.parametrize(
    "name, text", [("two_mode_matched", TWO_MODE_CFG), ("four_cone_matched", FOUR_CONE_CFG)]
)
def test_certify_planar_chain_matches_golden_text(capsys, monkeypatch, tmp_path, name, text):
    # golden files hold `certify <name>.cfg` at seed 0 from the scaled
    # adjacency walk; reading the chain off sorted sectors must not move a byte
    cfg = write_config(monkeypatch, tmp_path, f"{name}.cfg", text)
    code, out, _ = run(capsys, ["certify", cfg])
    assert code == 0
    assert out == (GOLDEN / f"certify_{name}.txt").read_text()


def test_certify_planar_chain_at_unequal_cone_scales(capsys, monkeypatch, tmp_path):
    # scaling a cone matrix leaves its region as it is; the chain, the
    # certificate and the decrease samples on the switching lines follow
    cfg = write_config(monkeypatch, tmp_path, "two_mode_scaled.cfg", TWO_MODE_SCALED_CFG)
    code, out, _ = run(capsys, ["certify", cfg])
    assert code == 0
    assert "verdict = GAS-certified\n" in out
    assert "kind = planar\n" in out
    matched = (GOLDEN / "certify_two_mode_matched.txt").read_text()
    assert out.split("[condition_ii]")[1] == matched.split("[condition_ii]")[1]
    code, out, _ = run(capsys, ["decrease", cfg, "--samples", "100"])
    assert code == 0
    assert "points=102 violations=0" in out


def test_decompose_single_cone_exits_2(capsys, monkeypatch, tmp_path):
    text = TWO_MODE_CFG.split("mode 2 {")[0] + "\n[basis]" + TWO_MODE_CFG.split("[basis]")[1]
    cfg = write_config(monkeypatch, tmp_path, "one_cone.cfg", text)
    code, out, err = run(capsys, ["decompose", cfg])
    assert code == 2
    assert out == ""
    assert "a single cone cannot partition the plane" in err


# one base P = I on regions that leave gaps: the vacuous condition (ii)
# path needs a proven cover
GAP_PLANAR_CFG = """[system]
dim = 2
mode 1 {
  A = [[-1, 0], [0, -1]]
  Q = [[1, 0], [0, -1]]
}

[basis]
P1 = [[1, 0], [0, 1]]

[structure]
S1 = {1}
"""

GAP_R3_CFG = """[system]
dim = 3
mode 1 {
  A = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
  Q = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
}
mode 2 {
  A = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
  Q = [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]
}

[basis]
P1 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

[structure]
S1 = {1}
"""


def test_certify_a_single_planar_cone_exits_2(capsys, monkeypatch, tmp_path):
    cfg = write_config(monkeypatch, tmp_path, "gap_planar.cfg", GAP_PLANAR_CFG)
    code, out, err = run(capsys, ["certify", cfg])
    assert code == 2
    assert out == ""
    assert "a single cone cannot partition the plane" in err


def test_certify_a_semidefinite_planar_cone_is_gas(capsys, monkeypatch, tmp_path):
    # Q = diag(1, 0): the plane but the x2 axis, whose closure covers it
    text = GAP_PLANAR_CFG.replace("Q = [[1, 0], [0, -1]]", "Q = [[1, 0], [0, 0]]")
    cfg = write_config(monkeypatch, tmp_path, "semidefinite.cfg", text)
    code, out, _ = run(capsys, ["validate", cfg])
    assert code == 0
    assert "config OK" in out
    code, out, _ = run(capsys, ["certify", cfg])
    assert code == 0
    assert "verdict = GAS-certified\n" in out
    assert "kind = vacuous\n" in out


def test_certify_r3_cones_with_gaps_is_condition_i_only(capsys, monkeypatch, tmp_path):
    cfg = write_config(monkeypatch, tmp_path, "gap_r3.cfg", GAP_R3_CFG)
    code, out, _ = run(capsys, ["certify", cfg])
    assert code == 1
    assert "verdict = condition-i-only\n" in out
    assert "# note: condition (ii) unchecked: vacuous: no proof that the 2 cone regions cover R^3\n" in out
    assert "kind = unchecked\n" in out
    for text in (GAP_PLANAR_CFG, GAP_R3_CFG):
        (tmp_path / "v.cfg").write_text(text)
        code, out, _ = run(capsys, ["validate", "v.cfg", "--samples", "2000"])
        assert code == 1
        assert "config has violations" in out

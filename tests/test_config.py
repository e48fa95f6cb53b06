import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from maxminlyap.errors import ConfigError, InvalidInputError
from maxminlyap.inclusion import SwitchedSystem
from maxminlyap.sysdsl.config import parse_config, parse_structure

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_single_linear_mode_region_all():
    parsed = parse_config(
        """
        [system]
        dim = 2
        mode 1 { A = [[-1, 0], [0, -1]] }
        """
    )
    sys_cfg = parsed.require_system()
    assert sys_cfg.dim == 2
    assert len(sys_cfg.modes) == 1
    assert sys_cfg.modes[0].region_kind == "all"
    np.testing.assert_allclose(sys_cfg.modes[0].A, -np.eye(2))


def test_example3_reference_config():
    parsed = parse_config((CONFIGS / "example3.cfg").read_text())
    sys_cfg = parsed.require_system()
    assert sys_cfg.dim == 3
    assert len(sys_cfg.modes) == 2
    np.testing.assert_allclose(sys_cfg.modes[0].Q, np.diag([1.0, 1.0, -1.0]))
    basis = parsed.require_basis()
    assert basis.kind == "quadratic"
    assert basis.families == ((1,), (2,))


def test_example1_reference_config_constants():
    parsed = parse_config((CONFIGS / "example1.cfg").read_text())
    q1 = parsed.require_system().modes[0].Q
    assert q1[0, 0] == pytest.approx(-(1 + math.sqrt(2.0)), abs=1e-15)


def test_empty_family_rejected():
    with pytest.raises(ConfigError, match="empty"):
        parse_config(
            """
            [basis]
            P1 = [[1, 0], [0, 1]]
            [structure]
            S1 = {}
            """
        )


def test_error_carries_position():
    try:
        parse_config("[system]\ndim = 2\nmode 1 { A = [[1, 2], [3]] }\n")
    except ConfigError as err:
        assert err.line == 3
    else:
        pytest.fail("expected ConfigError")


def test_nonsymmetric_q_rejected():
    with pytest.raises(ConfigError, match="non-symmetric"):
        parse_config(
            """
            [system]
            dim = 2
            mode 1 { A = [[-1, 0], [0, -1]]; Q = [[1, 2], [0, -1]] }
            """
        )


def test_negative_semidefinite_q_rejected():
    with pytest.raises(ConfigError, match="negative semidefinite"):
        parse_config(
            """
            [system]
            dim = 2
            mode 1 { A = [[-1, 0], [0, -1]]; Q = [[-1, 0], [0, -2]] }
            """
        )


@pytest.mark.parametrize(
    "Q", ["[[1.5e308, 0], [0, -1.5e308]]", "[[-1.5e308, 0], [0, 1.5e308]]"], ids=["Q", "-Q"]
)
def test_q_whose_symmetrization_overflows_rejected(Q):
    # finite entries whose 0.5 (Q + Q^T) is inf: a typed error naming the
    # mode's Q, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^mode 1: Q overflows when symmetrized$"):
            parse_config(f"[system]\ndim = 2\nmode 1 {{ A = [[-1, 0], [0, -1]]; Q = {Q} }}")


def test_huge_matrix_literals_are_config_errors():
    # entries whose difference overflows fail the symmetry test without a
    # warning; a symmetric basis literal whose symmetrization overflows is
    # a ConfigError at P1's position
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^mode 1: non-symmetric matrix literal for Q$"):
            parse_config(
                "[system]\ndim = 2\n"
                "mode 1 { A = [[-1, 0], [0, -1]]; Q = [[1, 1e308], [-1e308, -1]] }"
            )
        skewed = "^line 2, col 1: non-symmetric matrix literal for P1$"
        with pytest.raises(ConfigError, match=skewed):
            parse_config("[basis]\nP1 = [[1, 1e308], [-1e308, 1]]\n[structure]\nS1 = {1}")
        overflow = "^line 2, col 1: P1 overflows when symmetrized$"
        with pytest.raises(ConfigError, match=overflow) as err:
            parse_config("[basis]\nP1 = [[1.5e308, 0], [0, 1]]\n[structure]\nS1 = {1}")
        assert (err.value.line, err.value.column) == (2, 1)


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigError):
        parse_config(
            """
            [system]
            dim = 2
            mode 1 { f = (x1 + x3, -x2) }
            """
        )


def test_duplicate_region_rejected():
    with pytest.raises(ConfigError, match="more than once"):
        parse_config(
            """
            [system]
            dim = 2
            mode 1 { A = [[-1, 0], [0, -1]]; Q = [[1, 0], [0, -1]] }
            [signal]
            Q1 = [[1, 0], [0, -1]]
            """
        )


def test_basis_not_positive_definite_rejected():
    with pytest.raises(ConfigError, match="positive definite"):
        parse_config(
            """
            [basis]
            P1 = [[1, 0], [0, -1]]
            [structure]
            S1 = {1}
            """
        )


def test_singular_basis_rejected_exactly():
    # eigh's smallest eigenvalue of this singular P is about 1e-14 > 0
    with pytest.raises(ConfigError, match=r"line 4, col \d+: P2 is not positive definite"):
        parse_config(
            """
            [basis]
            P1 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            P2 = [[25, -10, -5], [-10, 53, -61], [-5, -61, 82]]
            [structure]
            S1 = {1, 2}
            """
        )


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nonsense]\nfoo = 1\n")


def test_structure_out_of_range_rejected():
    with pytest.raises(ConfigError, match="references base"):
        parse_config(
            """
            [basis]
            P1 = [[1, 0], [0, 1]]
            [structure]
            S1 = {1, 2}
            """
        )


def test_expression_basis_and_signal_section():
    parsed = parse_config(
        """
        [system]
        dim = 1
        mode 1 { f = (-1.0) }
        mode 2 { f = (2.0) }
        [signal]
        H1 = -x1
        H2 = x1
        [basis]
        V1 = x1
        V2 = -x1
        [structure]
        S1 = {1}
        S2 = {2}
        """
    )
    sys_cfg = parsed.require_system()
    assert sys_cfg.modes[0].H is not None
    basis = parsed.require_basis()
    assert basis.kind == "expr"
    spec = basis.to_spec()
    assert spec.K == 2 and len(spec.families) == 2


def test_matrix_entries_are_constant_expressions():
    parsed = parse_config(
        """
        [system]
        dim = 2
        mode 1 { A = [[-1, 0], [0, -1]]; Q = [[1, sqrt(2)], [sqrt(2), 1]] }
        """
    )
    q = parsed.require_system().modes[0].Q
    assert q[0, 1] == pytest.approx(math.sqrt(2.0), abs=0)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("[basis]\nX1 = [[1]]\n", "basis entries are P<k> or V<k>, found 'X1'", 2, 1),
        ("[basis]\nP = [[1]]\n", "basis entries are P<k> or V<k>, found 'P'", 2, 1),
        ("[structure]\nT1 = {1}\n", "structure entries are S<j>, found 'T1'", 2, 1),
        ("[signal]\nR1 = [[1]]\n", "signal entries are Q<i> or H<i>, found 'R1'", 2, 1),
        ("[system]\nfoo = 1\n", "unknown [system] entry 'foo'", 2, 1),
        ("[system]\ndim = x\n", "dim must be an integer", 2, 7),
        ("[system]\nmode x { A = [[1]] }\n", "mode keyword takes an index", 2, 6),
        (
            "[system]\ndim = 1\nmode 1 { A = [[-1]] }\nmode 1 { A = [[-1]] }\n",
            "duplicate mode 1",
            4,
            6,
        ),
        ("[structure]\npolarity = maximin\n", "polarity is maxmin or minmax", 2, 12),
        ("dim = 2\n", "statements must appear inside a section", 1, 1),
        ("[ 3 ]\n", "expected a section name", 1, 3),
    ],
)
def test_reader_error_message_and_position(text, message, line, col):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (info.value.line, info.value.column) == (line, col)
    assert str(info.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        (
            "[system]\ndim = 1\nmode 1 { A = [[-1]]; A = [[-2]] }\n",
            "duplicate A in mode 1",
            3,
            22,
        ),
        (
            "[system]\ndim = 2\nmode 2 { A = [[-1, 0], [0, -1]]\n"
            "  Q = [[1, 0], [0, -1]]\n  Q = [[-1, 0], [0, 1]] }\n"
            "mode 1 { A = [[-1, 0], [0, -1]] }\n",
            "duplicate Q in mode 2",
            5,
            3,
        ),
        ("[system]\ndim = 1\ndim = 2\nmode 1 { A = [[-1]] }\n", "duplicate dim", 3, 1),
        (
            "[basis]\nP1 = [[1]]\n[structure]\npolarity = maxmin\n"
            "S1 = {1}\npolarity = minmax\n",
            "duplicate polarity",
            6,
            1,
        ),
        ("[basis]\nP1 = [[1]]\nP1 = [[2]]\n[structure]\nS1 = {1}\n", "duplicate entry P1", 3, 1),
        ("[basis]\nV1 = x1\nV01 = x1\n[structure]\nS1 = {1}\n", "duplicate entry V1", 3, 1),
        ("[basis]\nP1 = [[1]]\n[structure]\nS1 = {1}\nS1 = {1}\n", "duplicate entry S1", 5, 1),
        (
            "[system]\ndim = 2\nmode 1 { A = [[-1, 0], [0, -1]] }\n"
            "[signal]\nH1 = x1\nH1 = x2\n",
            "duplicate entry H1",
            6,
            1,
        ),
    ],
)
def test_repeated_entry_rejected_at_the_repeat(text, message, line, col):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"line {line}, col {col}: {message}"


DIM_ERROR = "dim must be an integer, at least 1"
MODE_ERROR = "mode index must be an integer, at least 1"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("[system]\ndim = 2.5\nmode 1 { A = [[-1, 0], [0, -1]] }\n", DIM_ERROR, 2, 7),
        ("[system]\ndim = 1e400\nmode 1 { A = [[-1]] }\n", DIM_ERROR, 2, 7),
        ("[system]\ndim = 0\nmode 1 { A = [[-1]] }\n", DIM_ERROR, 2, 7),
        ("[system]\ndim = 1\nmode 1.5 { A = [[-1]] }\n", MODE_ERROR, 3, 6),
        ("[system]\ndim = 1\nmode 1e400 { A = [[-1]] }\n", MODE_ERROR, 3, 6),
        ("[system]\ndim = 1\nmode 0 { A = [[-1]] }\n", MODE_ERROR, 3, 6),
    ],
    ids=["dim-fraction", "dim-overflow", "dim-zero", "mode-fraction", "mode-overflow", "mode-zero"],
)
def test_bad_dim_or_mode_index_rejected_at_the_token(text, message, line, col):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"line {line}, col {col}: {message}"


def test_whole_number_dim_and_mode_index_in_float_form_parse():
    parsed = parse_config("[system]\ndim = 2.0\nmode 1e0 { A = [[-1, 0], [0, -1]] }\n")
    assert parsed.require_system().dim == 2
    assert len(parsed.require_system().modes) == 1


@pytest.mark.parametrize(
    "entry, message",
    [
        ("Q2 = [[1, 0], [0, -1]]", "[signal] Q2 names mode 2, the system has 1"),
        ("H2 = x1", "[signal] H2 names mode 2, the system has 1"),
    ],
    ids=["Q", "H"],
)
def test_signal_entry_for_a_missing_mode_rejected(entry, message):
    text = f"[system]\ndim = 2\nmode 1 {{ A = [[-1, 0], [0, -1]] }}\n[signal]\n{entry}\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"line 5, col 1: {message}"


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("[system]\ndim = 1\nmode 1 { A = [[-1e400]] }\n", 3, 16),
        ("[system]\ndim = 1\nmode 1 { A = [[1e200*1e200]] }\n", 3, 16),
        ("[system]\ndim = 1\nmode 1 { A = [[pow(1e200, 2)]] }\n", 3, 16),
        ("[system]\ndim = 2\nmode 1 { A = [[-1, 0], [0, -1]]; Q = [[1, 0], [0, 1e400]] }\n", 3, 51),
        (
            "[system]\ndim = 1\nmode 1 { A = [[-1]] }\n[basis]\nP1 = [[1e400]]\n"
            "[structure]\nS1 = {1}\n",
            5,
            8,
        ),
        ("[system]\ndim = 1\nmode 1 { A = [[-1]] }\n[signal]\nQ1 = [[1e400 - 1e400]]\n", 5, 8),
    ],
    ids=["A", "A-product", "A-pow", "Q", "P", "signal-Q"],
)
def test_non_finite_matrix_entry_rejected_at_the_entry(text, line, col):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"line {line}, col {col}: matrix entry is not finite"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1/0", "division by zero in '1.0/0.0'"),
        ("sqrt(-1)", "sqrt of a negative value in 'sqrt(-1.0)'"),
    ],
    ids=["div", "sqrt"],
)
@pytest.mark.parametrize(
    "template, line, col",
    [
        ("[system]\ndim = 1\nmode 1 {{ A = [[{}]] }}\n", 3, 16),
        ("[system]\ndim = 1\nmode 1 {{ A = [[-1]]; Q = [[{}]] }}\n", 3, 28),
        (
            "[system]\ndim = 1\nmode 1 {{ A = [[-1]] }}\n[basis]\nP1 = [[{}]]\n"
            "[structure]\nS1 = {{1}}\n",
            5,
            8,
        ),
    ],
    ids=["A", "Q", "P"],
)
def test_domain_error_in_matrix_entry_is_a_config_error_at_the_entry(
    template, line, col, entry, message
):
    with pytest.raises(ConfigError) as info:
        parse_config(template.format(entry))
    assert str(info.value) == f"line {line}, col {col}: {message}"


SYS1 = "[system]\ndim = 1\nmode 1 { A = [[-1]] }\n"
SYS2 = "[system]\ndim = 2\nmode 1 { A = [[-1, 0], [0, -1]] }\n"

# Every message of the reader, with its line and column (None where the
# message names a mode, a family or a section rather than a token).
READER_MESSAGES = [
    ("[system]\ndim = 2 $\n", "unexpected character '$'", 2, 9),
    ("[basis]\nP1 [[1]]\n", "expected '=', found '['", 2, 4),
    ("[basis]\nV1 = x0\n", "state variables are numbered from x1", 2, 6),
    ("[basis]\nV1 = pow(x1, 2.5)\n", "pow exponent must be an integer", 2, 14),
    ("[basis]\nV1 = foo(x1)\n", "unknown identifier 'foo'", 2, 6),
    ("[basis]\nV1 = )\n", "expected an expression, found ')'", 2, 6),
    ("[basis]\nP1 = [[x1]]\n", "matrix entries must be constant", 2, 8),
    ("[basis]\nP1 = [[1] [2]]\n", "expected ',' or ']' in matrix literal, found '['", 2, 11),
    ("[system]\ndim = 2\nmode 1 { A = [[1, 2], [3]] }\n", "ragged matrix literal", 3, 14),
    ("[system]\ndim = 1\nmode 1 { 1 }\n", "expected a mode entry, found '1'", 3, 10),
    (
        "[system]\ndim = 1\nmode 1 { A = [[-1]]; region = none }\n",
        "only 'region = all' is supported, found 'none'",
        3,
        31,
    ),
    ("[system]\ndim = 1\nmode 1 { B = [[-1]] }\n", "unknown mode entry 'B'", 3, 10),
    ("[basis]\nP1 = [[1]]\n[structure]\nS1 = {}\n", "empty index set", 4, 7),
    ("[basis]\nP1 = [[1]]\n[structure]\nS1 = {1.5}\n", "index sets contain integers", 4, 7),
    ("[basis]\nP1 = [[1]]\n[structure]\nS1 = {1 2}\n", "expected ',' or '}', found '2'", 4, 9),
    ("[nonsense]\nfoo = 1\n", "unknown section [nonsense]", 1, 2),
    ("[system]\n= 2\n", "unexpected token '='", 2, 1),
    ("[system]\ndim = 2\n", "[system] declares dim but no modes", None, None),
    ("[system]\nmode 1 { A = [[-1]] }\n", "[system] must declare dim", None, None),
    (
        "[system]\ndim = 1\nmode 2 { A = [[-1]] }\n",
        "modes must be numbered 1..M without gaps",
        None,
        None,
    ),
    ("[system]\ndim = 1\nmode 1 { Q = [[1]] }\n", "mode 1 needs exactly one of A or f", None, None),
    (
        "[system]\ndim = 1\nmode 1 { A = [[-1]]; f = (-x1) }\n",
        "mode 1 needs exactly one of A or f",
        None,
        None,
    ),
    ("[system]\ndim = 2\nmode 1 { A = [[-1]] }\n", "mode 1: A must be 2x2", None, None),
    (
        "[system]\ndim = 2\nmode 1 { f = (-x1) }\n",
        "mode 1: f has 1 components, dim is 2",
        None,
        None,
    ),
    (
        "[system]\ndim = 2\nmode 1 { f = (-x1, -x3) }\n",
        "mode 1: field references x3, dim is 2",
        None,
        None,
    ),
    (
        "[system]\ndim = 1\nmode 1 { A = [[-1]]; Q = [[1]]; H = x1 }\n",
        "mode 1: region specified more than once",
        None,
        None,
    ),
    (
        "[system]\ndim = 1\nmode 1 { A = [[-1]]; region = all; H = x1 }\n",
        "mode 1: region specified more than once",
        None,
        None,
    ),
    (
        "[system]\ndim = 1\nmode 1 { A = [[-1]]; region = all }\n[signal]\nQ1 = [[1]]\n",
        "mode 1: region specified more than once",
        None,
        None,
    ),
    (
        SYS1 + "[signal]\nQ1 = [[1]]\nH1 = x1\n",
        "mode 1: region specified more than once",
        None,
        None,
    ),
    (
        "[system]\ndim = 2\nmode 1 { A = [[-1, 0], [0, -1]]; Q = [[1]] }\n",
        "mode 1: Q must be 2x2",
        None,
        None,
    ),
    (SYS2 + "[signal]\nQ1 = [[1]]\n", "mode 1: Q must be 2x2", None, None),
    (
        SYS2 + "[signal]\nQ1 = [[1, 2], [0, -1]]\n",
        "mode 1: non-symmetric matrix literal for Q",
        None,
        None,
    ),
    (
        SYS2 + "[signal]\nQ1 = [[-1, 0], [0, -1]]\n",
        "mode 1: Q is negative semidefinite, region would be empty",
        None,
        None,
    ),
    (
        "[system]\ndim = 2\nmode 1 { A = [[-1, 0], [0, -1]]; H = x3 }\n",
        "mode 1: H references x3",
        None,
        None,
    ),
    (SYS2 + "[signal]\nH1 = x1 - x3\n", "mode 1: H references x3", None, None),
    (
        "[basis]\nP1 = [[1]]\n[structure]\nS2 = {1}\n",
        "families must be numbered S1..SJ without gaps",
        None,
        None,
    ),
    ("[basis]\nP1 = [[1]]\n[structure]\nS1 = {0}\n", "S1 references base 0, K is 1", None, None),
    ("[basis]\nP1 = [[1]]\n[structure]\nS1 = {1, 2}\n", "S1 references base 2, K is 1", None, None),
    ("[structure]\nS1 = {1}\n", "[structure] present but [basis] is missing", None, None),
    (
        "[basis]\nP1 = [[1]]\nV2 = x1\n[structure]\nS1 = {1}\n",
        "mix of matrix (P) and expression (V) basis entries",
        None,
        None,
    ),
    (
        "[basis]\nP2 = [[1]]\n[structure]\nS1 = {1}\n",
        "basis entries must be numbered 1..K without gaps",
        None,
        None,
    ),
    ("[basis]\nP1 = [[1]]\n", "[basis] present but [structure] is missing", None, None),
    (
        "[basis]\nP1 = [[1, 2], [0, 1]]\n[structure]\nS1 = {1}\n",
        "non-symmetric matrix literal for P1",
        2,
        1,
    ),
    ("[basis]\nP1 = [[-1]]\n[structure]\nS1 = {1}\n", "P1 is not positive definite", 2, 1),
    (SYS2 + "[basis]\nP1 = [[1]]\n[structure]\nS1 = {1}\n", "P1 must be 2x2", 5, 1),
    (
        "[basis]\nP1 = [[1, 0, 0], [0, 1, 0]]\n[structure]\nS1 = {1}\n",
        "P1 must be 2x2",
        2,
        1,
    ),
    (
        "[system]\ndim = 3\nmode 1 { A = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]] }\n"
        "[basis]\nP1 = [[1, 0, 0], [0, 1, 0]]\n[structure]\nS1 = {1}\n",
        "P1 must be 3x3",
        5,
        1,
    ),
    ("[system]\ndim = 1\nmode 1 { A = [[sin(1e400)]] }\n", "matrix entry is not finite", 3, 16),
    (
        "[system]\ndim = 1\nmode 1 { A = [[cos(pow(10, 400))]] }\n",
        "matrix entry is not finite",
        3,
        16,
    ),
    (SYS2 + "[basis]\nV1 = x3\n[structure]\nS1 = {1}\n", "V1 references x3, dim is 2", 5, 1),
    (
        SYS1 + "[basis]\nP1 = [[1]]\n[structure]\nS1 = {1}\n[signal]\nQ2 = [[1]]\n",
        "[signal] Q2 names mode 2, the system has 1",
        9,
        1,
    ),
]


@pytest.mark.parametrize("text, message, line, col", READER_MESSAGES)
def test_every_reader_message_and_position(text, message, line, col):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (info.value.line, info.value.column) == (line, col)
    where = "" if line is None else f"line {line}, col {col}: "
    assert str(info.value) == where + message


@pytest.mark.parametrize(
    "text, message",
    [
        ("[structure]\npolarity = minmax\n", "[structure] declares no families"),
        ("[structure]\nS2 = {1}\n", "families must be numbered S1..SJ without gaps"),
        ("[structure]\nS1 = {0}\n", "S1 references base 0, K is None"),
    ],
)
def test_structure_reader_messages(text, message):
    with pytest.raises(ConfigError) as info:
        parse_structure(text)
    assert (info.value.line, info.value.column) == (None, None)
    assert str(info.value) == message


# sha256 of every mode's A and Q bytes in mode order (b"-" for no matrix):
# the symmetrized cones and the literal fields of the bundled configs
MODEL_BYTES = {
    "example1": "541a4f36d31e1b54",
    "example2": "529d245768f5df5c",
    "example3": "0e500d141dda1695",
}


def model_bytes(system):
    digest = hashlib.sha256()
    for mode in system.modes:
        for M in (mode.A, mode.Q):
            digest.update(b"-" if M is None else M.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(MODEL_BYTES))
def test_parsed_system_keeps_the_matrix_bytes(name):
    system = parse_config((CONFIGS / f"{name}.cfg").read_text()).system
    assert isinstance(system, SwitchedSystem)
    copy = SwitchedSystem.from_config(system)
    assert model_bytes(system) == model_bytes(copy) == MODEL_BYTES[name]


def test_signal_cones_parse_as_inline_cones(example1_signal_text):
    signal = parse_config(example1_signal_text).system
    assert model_bytes(signal) == MODEL_BYTES["example1"]
    assert [m.region_kind for m in signal.modes] == ["cone"] * 3

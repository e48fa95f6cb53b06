"""Level-set portraits against the per-point and cell-by-cell loops they replaced."""

import numpy as np
import pytest

from maxminlyap import fixtures, svg
from maxminlyap.errors import InvalidInputError
from maxminlyap.maxmin import MINMAX, MaxMinSpec, QuadraticBasis, evaluate
from maxminlyap.sysdsl.config import parse_config


def ref_grid_values(F, xs, ys):
    """F at every grid point, one point at a time."""
    vals = np.empty((len(xs), len(ys)))
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            vals[i, j] = F(np.array([xv, yv]))
    return vals


def ref_marching_squares(vals, xs, ys, level):
    """Line segments approximating {F = level}, one grid cell at a time."""
    nx, ny = len(xs), len(ys)
    segs = []

    def interp(p1, v1, p2, v2):
        t = 0.5 if v2 == v1 else (level - v1) / (v2 - v1)
        t = min(1.0, max(0.0, t))
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))

    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = [
                ((xs[i], ys[j]), vals[i, j]),
                ((xs[i + 1], ys[j]), vals[i + 1, j]),
                ((xs[i + 1], ys[j + 1]), vals[i + 1, j + 1]),
                ((xs[i], ys[j + 1]), vals[i, j + 1]),
            ]
            above = [v >= level for _, v in corners]
            if all(above) or not any(above):
                continue
            pts = []
            for k in range(4):
                (p1, v1), (p2, v2) = corners[k], corners[(k + 1) % 4]
                if (v1 >= level) != (v2 >= level):
                    pts.append(interp(p1, v1, p2, v2))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:  # saddle cell: join remaining pair
                segs.append((pts[2], pts[3]))
    return segs


def _grids():
    rng = np.random.default_rng(3)
    xs, ys = np.linspace(-1.3, 0.7, 23), np.linspace(-0.4, 2.1, 17)
    # few distinct values: ties with the level and saddle cells are common
    yield rng.integers(0, 3, (23, 17)).astype(float), xs, ys, 1.0
    yield rng.standard_normal((23, 17)), xs, ys, 0.0
    yield np.array([[1.0, 0.0], [0.0, 1.0]]), xs[:2], ys[:2], 0.5  # one saddle
    _, spec, basis = fixtures.example("example1")
    xs, ys = np.linspace(-2.0, 2.0, 41), np.linspace(-1.5, 2.5, 37)
    vals = np.array([[evaluate(spec, basis, np.array([x, y])) for y in ys] for x in xs])
    for level in (0.5, 2.0, 6.0):
        yield vals, xs, ys, level


@pytest.mark.parametrize("vals, xs, ys, level", list(_grids()))
def test_marching_squares_matches_cell_loop(vals, xs, ys, level):
    got = svg._marching_squares(vals, xs, ys, level)
    want = np.array(ref_marching_squares(vals, xs, ys, level), dtype=float).reshape(-1, 2, 2)
    assert len(want) > 0
    assert got.tobytes() == want.tobytes()


def test_portrait_text_matches_cell_loop(monkeypatch):
    _, spec, basis = fixtures.example("example1")
    traj = [np.array([np.cos(a), 1.3 * np.sin(a)]) for a in np.linspace(0.0, 6.0, 50)]

    def portrait():
        return svg.phase_portrait_svg(
            [traj], value_fn=lambda p: evaluate(spec, basis, p), levels=(0.3, 1.0), grid=80
        )

    got = portrait()
    monkeypatch.setattr(svg, "_marching_squares", ref_marching_squares)
    assert got == portrait()
    assert got.count("<line") > 100


def _expr_spec_basis():
    basis = parse_config(
        """
        [basis]
        V1 = x1*x1 + 0.5*x1*x2 + x2*x2
        V2 = 2*x1*x1 + atan(x2)*atan(x2)
        V3 = x1*x1*x1*x1 + x2*x2
        [structure]
        S1 = {1, 3}
        S2 = {2}
        """
    ).require_basis()
    return basis.to_spec(), basis.to_basis()


def _tie_spec_basis():
    # bases 1 and 2 are equal and tie everywhere; diag(5, 1) and diag(1, 5)
    # tie on both diagonals, exactly on a grid of multiples of 1/8
    P, R = np.diag([5.0, 1.0]), np.diag([1.0, 5.0])
    return MaxMinSpec(K=3, families=((1, 3), (2,)), polarity=MINMAX), QuadraticBasis([P, P, R])


GRID_CASES = {
    "example1": lambda: fixtures.example("example1")[1:],
    "example2": lambda: fixtures.example("example2")[1:],
    "minmax": lambda: (
        MaxMinSpec(K=3, families=((1, 2), (3,)), polarity=MINMAX),
        fixtures.example("example1")[2],
    ),
    "expr": _expr_spec_basis,
    "ties": _tie_spec_basis,
}


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_grid_values_match_point_loop(case):
    spec, basis = GRID_CASES[case]()
    if case == "ties":
        xs = ys = np.linspace(-2.0, 2.0, 33)
    else:
        xs, ys = np.linspace(-2.0, 2.0, 41), np.linspace(-1.5, 2.5, 37)

    def F(p):
        return evaluate(spec, basis, p)

    got = svg._grid_values(F, xs, ys)
    assert got.tobytes() == ref_grid_values(F, xs, ys).tobytes()
    if case == "ties":
        vals = basis.values(np.column_stack([xs, ys]))
        assert np.all(vals[:, 0] == vals[:, 1]) and np.all(vals[:, 0] == vals[:, 2])


def _portrait(value_fn, grid, levels=(0.3, 1.0)):
    traj = [np.array([np.cos(a), 1.3 * np.sin(a)]) for a in np.linspace(0.0, 6.0, 50)]
    return svg.phase_portrait_svg([traj], value_fn=value_fn, levels=levels, grid=grid)


@pytest.mark.parametrize("grid", [50, 400])
def test_value_fn_gets_blocks_of_whole_columns(grid):
    """Each call takes whole grid columns, x outer and y inner, at most
    ``GRID_BLOCK`` points: a 50 x 50 grid is one call, a 400 x 400 grid a
    few calls of 40 columns."""
    _, spec, basis = fixtures.example("example1")
    blocks = []

    def value_fn(p):
        blocks.append(p.copy())
        return evaluate(spec, basis, p)

    _portrait(value_fn, grid=grid)
    if grid == 50:
        assert [b.shape for b in blocks] == [(2500, 2)]
    assert all(len(b) % grid == 0 and len(b) <= svg.GRID_BLOCK for b in blocks)
    assert all(len(b) == len(blocks[0]) for b in blocks[:-1])
    assert len(blocks[0]) == grid * min(grid, svg.GRID_BLOCK // grid)
    points = np.concatenate(blocks).reshape(grid, grid, 2)
    assert (points[:, :, 0] == points[:, :1, 0]).all()  # one x per column
    assert (points[:, :, 1] == points[:1, :, 1]).all()  # the same ys in each


def test_point_only_value_fn_is_rejected():
    with pytest.raises(InvalidInputError, match=r"\(S, 2\) array of points to S values"):
        _portrait(lambda p: p[0] ** 2 + p[1] ** 2, grid=20)


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_portrait_text_matches_point_loop(monkeypatch, example):
    spec, basis = GRID_CASES[example]()

    def portrait():
        return _portrait(lambda p: evaluate(spec, basis, p), grid=80)

    got = portrait()
    monkeypatch.setattr(svg, "_grid_values", ref_grid_values)
    assert got == portrait()
    assert got.count("<line") > 100

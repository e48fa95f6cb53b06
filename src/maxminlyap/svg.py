"""Static SVG phase portraits for planar systems.

One polyline per trajectory plus optional level-set curves of a scalar
function, extracted by marching squares on a regular grid.  Output is
a plain SVG string; no plotting dependency.
"""

import numpy as np

from .errors import InvalidInputError


GRID_BLOCK = 16384  # most grid points passed to value_fn in one call


def _grid_values(F, xs, ys):
    """F at every grid point, vals[i, j] = F((xs[i], ys[j])), in blocks of
    whole columns of at most GRID_BLOCK points (one column if it is longer).

    Not one batch for the whole grid: a single batch of 400 x 400 points
    raised the peak memory of a portrait run by 12 MB.
    """
    ny = len(ys)
    vals = np.empty((len(xs), ny))
    step = max(1, GRID_BLOCK // ny)
    for i in range(0, len(xs), step):
        block = xs[i : i + step]
        S = len(block) * ny
        out = F(np.column_stack([np.repeat(block, ny), np.tile(ys, len(block))]))
        if np.shape(out) != (S,):
            raise InvalidInputError(
                "value_fn must map an (S, 2) array of points to S values; "
                f"got shape {np.shape(out)} for S = {S}"
            )
        vals[i : i + len(block)] = np.reshape(out, (len(block), ny))
    return vals


def _marching_squares(vals, xs, ys, level):
    """Line segments approximating {F = level} from precomputed grid values.

    Returns an array of shape (S, 2, 2): segment, endpoint, coordinate.
    Cells come row-major (x index outer).  Within a cell the level
    crossings come edge by edge, counter-clockwise from corner (i, j),
    and consecutive crossings pair up, so a saddle cell gives two
    segments.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = len(xs), len(ys)
    # corner k of cell (i, j) is the grid point (i + di[k], j + dj[k])
    di, dj = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
    above = vals >= level
    corner = [above[a : nx - 1 + a, b : ny - 1 + b] for a, b in zip(di, dj)]
    crosses = np.stack([corner[k] != corner[(k + 1) % 4] for k in range(4)], axis=-1)
    cell, k1 = np.divmod(np.flatnonzero(crosses), 4)
    i, j = np.divmod(cell, ny - 1)
    k2 = (k1 + 1) % 4
    i1, j1, i2, j2 = i + di[k1], j + dj[k1], i + di[k2], j + dj[k2]
    v1, v2 = vals[i1, j1], vals[i2, j2]
    t = (level - v1) / (v2 - v1)  # v1 != v2: one is below the level
    t = np.where(t > 0.0, t, 0.0)  # min(1, max(0, t)), keeping Python's tie rule
    t = np.where(t < 1.0, t, 1.0)
    x = xs[i1] + t * (xs[i2] - xs[i1])
    y = ys[j1] + t * (ys[j2] - ys[j1])
    return np.stack([x, y], axis=1).reshape(-1, 2, 2)


PORTRAIT_PX = 640  # width and height of the square picture
PORTRAIT_MARGIN = 0.08  # blank border, as a fraction of the data span
PORTRAIT_GRID = 400  # default level-set grid points per axis


def phase_portrait_svg(
    trajectories,
    value_fn=None,
    levels=(),
    grid=PORTRAIT_GRID,
    header_comment=None,
):
    """Render 2-D trajectories (lists of state vectors) and level sets.

    ``value_fn`` maps an (S, 2) array of points to an array of S values,
    one per row, as ``maxmin.evaluate`` does; it is called on blocks of
    whole grid columns, at most ``GRID_BLOCK`` points each (one column
    if a column is longer).  ``grid`` (at least 2) is the number of grid
    points per axis.
    """
    pts = np.vstack([np.array([s for s in traj]) for traj in trajectories])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - PORTRAIT_MARGIN * span
    hi = hi + PORTRAIT_MARGIN * span
    span = hi - lo
    size = PORTRAIT_PX

    def to_px(P):
        """Pixel coordinates (u, v) of points P[..., 2], as Python floats."""
        P = np.asarray(P, dtype=float)
        u = (P[..., 0] - lo[0]) / span[0] * size
        v = size - (P[..., 1] - lo[1]) / span[1] * size
        return np.stack([u, v], axis=-1).tolist()

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    if header_comment:
        parts.append(f"<!-- {header_comment} -->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">'
    )
    parts.append(f'<rect width="{size}" height="{size}" fill="white"/>')

    if value_fn is not None and levels:
        n = int(grid)
        if n < 2:
            raise InvalidInputError(
                f"level-set grid needs at least 2 points per axis, got {grid}"
            )
        xs = np.linspace(lo[0], hi[0], n)
        ys = np.linspace(lo[1], hi[1], n)
        vals = _grid_values(value_fn, xs, ys)
        for level in levels:
            segs = np.reshape(_marching_squares(vals, xs, ys, level), (-1, 2, 2))
            for (x1, y1), (x2, y2) in to_px(segs):
                parts.append(
                    f'<line x1="{x1:.2f}" y1="{y1:.2f}" '
                    f'x2="{x2:.2f}" y2="{y2:.2f}" '
                    'stroke="#cc3333" stroke-width="1" stroke-dasharray="4 3"/>'
                )

    colors = ("#1f4e99", "#2e8540", "#7d3c98", "#b9770e")
    for k, traj in enumerate(trajectories):
        coords = " ".join(f"{u:.2f},{v:.2f}" for u, v in to_px(traj))
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{colors[k % len(colors)]}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""The integer lattice under the input optimizer's simplex grid, and the
bounds by which a concave function's values on a coarse sub-lattice rule out
grid cells.

A grid of m divisions has one point per integer i in 0..m at |S|=2
(p = (1 - i/m, i/m)) and per (i, j) with i + j <= m at |S|=3
(p = (i/m, j/m, 1 - (i+j)/m)).  The coarse sub-lattice of stride
s = isqrt(m) holds the points s*a with sum(a) <= m // s; its unit simplices
(segments at |S|=2, upward and downward triangles at |S|=3) are the cells.

A concave f lies below the affine extrapolation L_T of its values on a
lattice simplex T wherever one vertex b of T has barycentric mu_b >= 1 and
the others mu <= 0: b is then a convex combination of that point and the
other vertices.  A cell whose corners all lie there is bounded by the
largest L_T at its corners, as L_T is affine.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

MARGIN = 1e-9  # bits; computed objective values lie within ~1e-13 of exact
_REACH = 2  # a cell is bounded by the lattice simplices at most this far away
# The unit simplices that tile the lattice, as vertex offsets from an origin.
# Each is the unit box cut to the levels (coordinate sums) of its vertices.
_SHAPES = {1: (((0,), (1,)),),
           2: (((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)))}


def points(k: int, m: int) -> np.ndarray:
    """The integer coordinates of the grid points, in grid order, shape
    (G, k - 1)."""
    if k == 2:
        return np.arange(m + 1)[:, None]
    i, ij = np.triu_indices(m + 1)
    return np.stack([i, ij - i], axis=1)


def rows(pts: np.ndarray, m: int) -> np.ndarray:
    """The grid rows of the lattice points pts (n, k - 1)."""
    if pts.shape[1] == 1:
        return pts[:, 0]
    i, j = pts[:, 0], pts[:, 1]
    return i * (m + 1) - i * (i - 1) // 2 + j


def _coarse(k: int, m: int):
    """(stride s, top, coarse points a with sum(a) <= top)."""
    s = math.isqrt(m)
    top = m // s
    return s, top, points(k, top)


def sample_rows(k: int, m: int) -> np.ndarray:
    """The grid rows of the coarse sub-lattice, in grid order."""
    s, _, coarse = _coarse(k, m)
    return rows(s * coarse, m)


def _barycentric(vertices, x) -> tuple:
    """Barycentric coordinates of the integer point x in the unit lattice
    simplex with the d + 1 given integer vertices (d = 1, 2): integers, as the
    simplex has determinant +-1."""
    if len(x) == 1:
        (t0,), (t1,) = vertices
        mu = (x[0] - t0) * (t1 - t0)
        return (1 - mu, mu)
    (x0, y0), (x1, y1), (x2, y2) = vertices
    u, w = x[0] - x0, x[1] - y0
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    mu1 = (u * (y2 - y0) - (x2 - x0) * w) * det
    mu2 = ((x1 - x0) * w - u * (y1 - y0)) * det
    return (1 - mu1 - mu2, mu1, mu2)


def _extrapolations(d: int):
    """For each cell shape, the unit simplices T that bound it: (cell, verts,
    mu) with verts (T, d + 1, d) the vertices of each T relative to the
    cell's origin and mu (T, corners, d + 1) the barycentric coordinates of
    the cell's corners in T; every corner has mu <= 0 off one vertex b of T,
    the same for all corners, and so mu_b >= 1."""
    out = []
    for cell in _SHAPES[d]:
        verts, mus = [], []
        for shape in _SHAPES[d]:
            for shift in product(range(-_REACH, _REACH + 1), repeat=d):
                t = [tuple(a + b for a, b in zip(v, shift)) for v in shape]
                mu = [_barycentric(t, c) for c in cell]
                if any(all(x <= 0 for row in mu for x in row[:b] + row[b + 1:])
                       for b in range(d + 1)):
                    verts.append(t)
                    mus.append(mu)
        out.append((cell, np.array(verts), np.array(mus, dtype=float)))
    return out


_EXTRAPOLATIONS = {d: _extrapolations(d) for d in _SHAPES}


def unruled(k: int, m: int, samples, best: float) -> np.ndarray:
    """The mask of grid rows that a concave f, with finite values ``samples``
    at `sample_rows`, does not rule out below ``best``.

    A cell is ruled out when its least bound over the lattice simplices T
    near it, each corner's L_T raised by MARGIN * (1 + sum |mu|) for
    rounding, plus MARGIN is below best: f is then below best at every point
    of the cell.  The mask holds the samples, the points of the other cells
    and the points that no cell covers.
    """
    d = k - 1
    s, top, coarse = _coarse(k, m)
    keep = np.zeros(m + 1 if k == 2 else (m + 1) * (m + 2) // 2, dtype=bool)
    keep[rows(s * coarse, m)] = True
    if s * top < m:  # no cell holds the points past level s*top
        keep[points(k, m).sum(axis=1) > s * top] = True
    pad = _REACH + 1
    at_coarse = np.full((top + 1 + 2 * pad,) * d, np.nan)  # nan off the simplex
    at_coarse[tuple((coarse + pad).T)] = samples
    box = np.indices((s + 1,) * d).reshape(d, -1).T  # a cell's points lie in it
    level = box.sum(axis=1)
    for cell, verts, mu in _EXTRAPOLATIONS[d]:
        levels = [sum(v) for v in cell]
        origins = points(k, top - max(levels))  # where the cell fits
        at = at_coarse[tuple(np.moveaxis(origins[:, None, None] + verts + pad, -1, 0))]
        corners = np.einsum("otv,tcv->otc", at, mu)
        corners += MARGIN * (1.0 + np.abs(mu).sum(axis=2))
        bound = np.fmin.reduce(corners.max(axis=2), axis=1)  # nan: no T fits
        live = origins[~(bound + MARGIN < best)]
        dots = box[(s * min(levels) <= level) & (level <= s * max(levels))]
        keep[rows((s * live[:, None] + dots).reshape(-1, d), m)] = True
    return keep

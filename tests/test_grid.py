"""Grid, norms and snapshot round trips."""

import math

import numpy as np
import pytest

from maxglm.grid import Grid2D, l2_norm, read_snapshot, write_snapshot


def test_cell_centers_are_midpoints():
    g = Grid2D(4, 4)
    X, Y = g.cell_centers()
    assert np.allclose(X[:, 0], [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(Y[0, :], [-0.75, -0.25, 0.25, 0.75])


def test_vertices_sit_at_cell_corners():
    g = Grid2D(4, 4)
    X, Y = g.vertices()
    assert np.allclose(X[:, 0], [-0.5, 0.0, 0.5, 1.0])
    assert np.allclose(Y[0, :], [-0.5, 0.0, 0.5, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(1, 4)
    with pytest.raises(ValueError):
        Grid2D(4, 4, x_min=1.0, x_max=-1.0)
    with pytest.raises(ValueError):
        Grid2D(4, 4).points("edges")


def test_l2_norm_examples():
    g = Grid2D(10, 10)
    assert l2_norm(g, np.zeros((10, 10))) == 0.0
    # constant 1 on a domain of area 4
    assert l2_norm(g, np.ones((10, 10))) == pytest.approx(2.0)


def test_l2_norm_planar_profile():
    # integral of sin^2 over the periodic box is half the area; the midpoint
    # rule is exact for this trigonometric integrand
    g = Grid2D(160, 160)
    X, Y = g.cell_centers()
    assert l2_norm(g, np.sin(np.pi * (X - Y))) == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_l2_norm_scaling_and_triangle():
    g = Grid2D(9, 5)
    rng = np.random.default_rng(6)
    u = rng.standard_normal((9, 5))
    v = rng.standard_normal((9, 5))
    assert l2_norm(g, 2.5 * u) == pytest.approx(2.5 * l2_norm(g, u))
    assert l2_norm(g, u + v) <= l2_norm(g, u) + l2_norm(g, v) + 1e-14


def test_l2_norm_accepts_fields_and_vectors():
    g = Grid2D(6, 6)
    vals = np.ones((6, 6, 3))
    # a 3-vector field sums its components' squares: sqrt(3) times one component's norm
    assert l2_norm(g, vals) == pytest.approx(math.sqrt(g.cell_volume * vals.size))
    assert l2_norm(g, vals) == pytest.approx(math.sqrt(3.0) * l2_norm(g, vals[..., 0]))


def test_snapshot_round_trip_scalar(tmp_path):
    g = Grid2D(6, 4, 0.0, 3.0, -1.0, 1.0)
    rng = np.random.default_rng(8)
    u = rng.standard_normal((6, 4))
    path = tmp_path / "snap.txt"
    write_snapshot(path, g, u, "cells", 1.25)
    g2, u2, loc, t = read_snapshot(path)
    assert (g2.nx, g2.ny) == (6, 4)
    assert (g2.x_min, g2.x_max, g2.y_min, g2.y_max) == (0.0, 3.0, -1.0, 1.0)
    assert loc == "cells" and t == 1.25
    assert np.array_equal(u, u2)  # 17 significant digits round-trip exactly


def test_snapshot_round_trip_vector(tmp_path):
    g = Grid2D(5, 3)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((5, 3, 3))
    path = tmp_path / "snap_vec.txt"
    write_snapshot(path, g, u, "vertices", 0.0)
    _, u2, loc, _ = read_snapshot(path)
    assert loc == "vertices"
    assert np.array_equal(u, u2)

"""Grid, norms and snapshot files."""

import math
import os

import numpy as np
import pytest

from maxglm import harness
from maxglm.grid import Grid2D, l2_norm


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


@pytest.mark.parametrize("scheme", ["htc", "simm"])
def test_snapshot_holds_the_state_bitwise(tmp_path, monkeypatch, scheme):
    written = []
    original = harness.write_snapshot

    def recording(path, *args):
        original(path, *args)
        written.append((path, os.path.getsize(path)))  # the exact path, no suffix added

    monkeypatch.setattr(harness, "write_snapshot", recording)
    cfg = harness.RunConfig(scheme=scheme, nx=12, ny=8, x_max=2.0, ic="gauss_t2", rk="rk4",
                            cfl=None, dt=0.05, t_end=0.1, snapshot_every=2,
                            output_dir=str(tmp_path))
    _, final = harness.simulate(cfg)
    assert [os.path.basename(p) for p, _ in written] == ["snap_000000.npz", "snap_000002.npz"]
    assert all(size > 0 for _, size in written)

    fields = harness._state_fields(final)
    if scheme == "htc":
        assert not fields["B"].flags.c_contiguous  # views into the packed state
    locations = harness.HTC_LOCATIONS if scheme == "htc" else harness.SIMM_LOCATIONS
    with np.load(written[-1][0]) as snap:
        assert sorted(snap.files) == sorted(
            ["t", "bounds"] + list(fields) + [name + "_location" for name in fields])
        for name, value in fields.items():
            saved = snap[name]
            assert saved.dtype == value.dtype and saved.shape == value.shape
            assert saved.tobytes() == value.tobytes()
            assert snap[name + "_location"] == locations[name]
        assert snap["t"] == final.t
        assert snap["bounds"].tolist() == [-1.0, 2.0, -1.0, 1.0]

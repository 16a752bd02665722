"""Mimetic operators: stencil oracles, exactness, identities, adjointness.

The loop-based oracles below implement the four-point stencils directly with
wrapped indices, independently of the padded-buffer implementation; the
np.roll forms in reference_ops.py pin its operation order bit for bit.
"""

import numpy as np
import pytest
from reference_ops import GRIDS, OPS, planted_fields, same_bits

from maxglm import mimetic
from maxglm.grid import Grid2D
from maxglm.mimetic import (check_identities, curl_c2v, curl_v2c, div_c2v,
                            div_v2c, grad_c2v, grad_v2c)


def _dx_cv_oracle(u, g):
    out = np.empty_like(u)
    for i in range(g.nx):
        for j in range(g.ny):
            i1, j1 = (i + 1) % g.nx, (j + 1) % g.ny
            out[i, j] = (u[i1, j1] + u[i1, j] - u[i, j1] - u[i, j]) / (2 * g.dx)
    return out


def _dy_cv_oracle(u, g):
    out = np.empty_like(u)
    for i in range(g.nx):
        for j in range(g.ny):
            i1, j1 = (i + 1) % g.nx, (j + 1) % g.ny
            out[i, j] = (u[i1, j1] + u[i, j1] - u[i1, j] - u[i, j]) / (2 * g.dy)
    return out


def _dx_vc_oracle(v, g):
    out = np.empty_like(v)
    for i in range(g.nx):
        for j in range(g.ny):
            i0, j0 = (i - 1) % g.nx, (j - 1) % g.ny
            out[i, j] = (v[i, j] + v[i, j0] - v[i0, j] - v[i0, j0]) / (2 * g.dx)
    return out


def _dy_vc_oracle(v, g):
    out = np.empty_like(v)
    for i in range(g.nx):
        for j in range(g.ny):
            i0, j0 = (i - 1) % g.nx, (j - 1) % g.ny
            out[i, j] = (v[i, j] + v[i0, j] - v[i, j0] - v[i0, j0]) / (2 * g.dy)
    return out


@pytest.fixture(params=[(8, 8), (9, 7)])
def grid(request):
    nx, ny = request.param
    return Grid2D(nx, ny, 0.0, 1.5, -1.0, 1.0)


def test_constants_are_annihilated(grid):
    phi = np.full((grid.nx, grid.ny), 4.2)
    A = np.full((grid.nx, grid.ny, 3), -1.7)
    assert np.all(grad_c2v(grid, phi) == 0.0)
    assert np.all(grad_v2c(grid, phi) == 0.0)
    assert np.all(div_c2v(grid, A) == 0.0)
    assert np.all(div_v2c(grid, A) == 0.0)
    assert np.all(curl_c2v(grid, A) == 0.0)
    assert np.all(curl_v2c(grid, A) == 0.0)


def test_gradient_exact_on_linears_interior():
    g = Grid2D(8, 8)
    X, Y = g.cell_centers()
    gx = grad_c2v(g, X)
    # interior vertices (wrap rows/columns excluded)
    assert np.allclose(gx[:-1, :-1, 0], 1.0)
    assert np.allclose(gx[:-1, :-1, 1], 0.0)
    assert np.all(gx[..., 2] == 0.0)
    Xv, Yv = g.vertices()
    gy = grad_v2c(g, Yv)
    assert np.allclose(gy[1:, 1:, 1], 1.0)
    assert np.allclose(gy[1:, 1:, 0], 0.0)


def test_divergence_exact_on_linears_interior():
    g = Grid2D(8, 6)
    X, _ = g.cell_centers()
    A = np.zeros((8, 6, 3))
    A[..., 0] = X
    d = div_c2v(g, A)
    assert np.allclose(d[:-1, :-1], 1.0)


def test_curl_exact_on_linears_interior():
    g = Grid2D(8, 6)
    X, _ = g.cell_centers()
    A = np.zeros((8, 6, 3))
    A[..., 1] = X  # A = (0, x, 0) has curl (0, 0, 1)
    c = curl_c2v(g, A)
    assert np.allclose(c[:-1, :-1, 2], 1.0)
    assert np.allclose(c[..., 0], 0.0)
    assert np.allclose(c[..., 1], 0.0)


def test_all_six_operators_match_loop_oracle(grid):
    rng = np.random.default_rng(10)
    phi = rng.standard_normal((grid.nx, grid.ny))
    A = rng.standard_normal((grid.nx, grid.ny, 3))

    gv = grad_c2v(grid, phi)
    assert np.allclose(gv[..., 0], _dx_cv_oracle(phi, grid), atol=1e-13)
    assert np.allclose(gv[..., 1], _dy_cv_oracle(phi, grid), atol=1e-13)

    gc = grad_v2c(grid, phi)
    assert np.allclose(gc[..., 0], _dx_vc_oracle(phi, grid), atol=1e-13)
    assert np.allclose(gc[..., 1], _dy_vc_oracle(phi, grid), atol=1e-13)

    assert np.allclose(div_c2v(grid, A),
                       _dx_cv_oracle(A[..., 0], grid) + _dy_cv_oracle(A[..., 1], grid),
                       atol=1e-13)
    assert np.allclose(div_v2c(grid, A),
                       _dx_vc_oracle(A[..., 0], grid) + _dy_vc_oracle(A[..., 1], grid),
                       atol=1e-13)

    cv = curl_c2v(grid, A)
    assert np.allclose(cv[..., 0], _dy_cv_oracle(A[..., 2], grid), atol=1e-13)
    assert np.allclose(cv[..., 1], -_dx_cv_oracle(A[..., 2], grid), atol=1e-13)
    assert np.allclose(cv[..., 2],
                       _dx_cv_oracle(A[..., 1], grid) - _dy_cv_oracle(A[..., 0], grid),
                       atol=1e-13)

    cc = curl_v2c(grid, A)
    assert np.allclose(cc[..., 0], _dy_vc_oracle(A[..., 2], grid), atol=1e-13)
    assert np.allclose(cc[..., 1], -_dx_vc_oracle(A[..., 2], grid), atol=1e-13)
    assert np.allclose(cc[..., 2],
                       _dx_vc_oracle(A[..., 1], grid) - _dy_vc_oracle(A[..., 0], grid),
                       atol=1e-13)


@pytest.mark.parametrize("shape", GRIDS)
def test_six_operators_match_roll_stencils_bitwise(shape):
    g = Grid2D(*shape)
    phi, A = planted_fields(g, 13)
    for name, reference in OPS.items():
        arg = phi if name.startswith("grad") else A
        before = arg.copy()
        assert same_bits(getattr(mimetic, name)(g, arg), reference(g, arg)), name
        assert same_bits(arg, before), name


def test_identities_vanish_for_zero_fields():
    g = Grid2D(8, 8)
    z = np.zeros((8, 8))
    zv = np.zeros((8, 8, 3))
    assert np.all(curl_v2c(g, grad_c2v(g, z)) == 0.0)
    assert np.all(div_v2c(g, curl_c2v(g, zv)) == 0.0)


def test_identities_hold_to_roundoff():
    # unit spacing isolates the stencil cancellation from difference-quotient
    # amplification; see also the acceptance suite
    for nx, ny in ((6, 6), (9, 7), (32, 32)):
        g = Grid2D(nx, ny, 0.0, float(nx), 0.0, float(ny))
        assert check_identities(g, trials=25, seed=3) <= 1e-13


def test_check_identities_rejects_no_trials():
    with pytest.raises(ValueError):
        check_identities(Grid2D(8, 8), trials=0)


def test_summation_by_parts_grad_div(grid):
    rng = np.random.default_rng(11)
    w = grid.cell_volume
    for _ in range(20):
        phi = rng.standard_normal((grid.nx, grid.ny))
        A = rng.standard_normal((grid.nx, grid.ny, 3))
        lhs = w * np.sum(grad_c2v(grid, phi) * A)
        rhs = -w * np.sum(phi * div_v2c(grid, A))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # and the mirrored pairing
        lhs = w * np.sum(grad_v2c(grid, phi) * A)
        rhs = -w * np.sum(phi * div_c2v(grid, A))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_curl_is_self_adjoint(grid):
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = rng.standard_normal((grid.nx, grid.ny, 3))
        C = rng.standard_normal((grid.nx, grid.ny, 3))
        lhs = np.sum(curl_c2v(grid, A) * C)
        rhs = np.sum(A * curl_v2c(grid, C))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

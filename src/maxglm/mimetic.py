"""Mimetic nabla operators between the primary (cell) and dual (vertex) mesh.

All six operators are built from one four-point stencil: the x-derivative at a
vertex averages the forward difference of the two cell columns around it (and
mirrored for the vertex->cell direction).  With vertex (i,j) at the upper
right corner of cell (i,j):

    cell -> vertex:   d/dx u |_(i,j) = (u[i+1,j+1] + u[i+1,j] - u[i,j+1] - u[i,j]) / (2 dx)
    vertex -> cell:   d/dx v |_(i,j) = (v[i,j] + v[i,j-1] - v[i-1,j] - v[i-1,j-1]) / (2 dx)

(y analogous, periodic wrap via np.roll everywhere).  The two directions are
exact negative adjoints in the volume-weighted inner product, which is what
makes curl-of-grad and div-of-curl vanish identically on the periodic grid --
to roundoff, not just to truncation error.  Everything is specialized to 2D:
d/dz = 0, but vector fields keep all three components.
"""

import numpy as np


def _dx_cv(u, g):
    up = np.roll(u, -1, 0)
    return (np.roll(up, -1, 1) + up - np.roll(u, -1, 1) - u) / (2.0 * g.dx)


def _dy_cv(u, g):
    up = np.roll(u, -1, 1)
    return (np.roll(up, -1, 0) + up - np.roll(u, -1, 0) - u) / (2.0 * g.dy)


def _dx_vc(v, g):
    vm = np.roll(v, 1, 0)
    return (v + np.roll(v, 1, 1) - vm - np.roll(vm, 1, 1)) / (2.0 * g.dx)


def _dy_vc(v, g):
    vm = np.roll(v, 1, 1)
    return (v + np.roll(v, 1, 0) - vm - np.roll(vm, 1, 0)) / (2.0 * g.dy)


def grad_c2v(g, phi_c):
    """Gradient of a cell scalar, evaluated at the vertices (z-component 0)."""
    out = np.zeros(phi_c.shape + (3,))
    out[..., 0] = _dx_cv(phi_c, g)
    out[..., 1] = _dy_cv(phi_c, g)
    return out


def div_c2v(g, A_c):
    """Divergence of a cell vector field, evaluated at the vertices."""
    return _dx_cv(A_c[..., 0], g) + _dy_cv(A_c[..., 1], g)


def curl_c2v(g, A_c):
    """Curl of a cell vector field, evaluated at the vertices (d/dz = 0)."""
    out = np.empty(A_c.shape)
    out[..., 0] = _dy_cv(A_c[..., 2], g)
    out[..., 1] = -_dx_cv(A_c[..., 2], g)
    out[..., 2] = _dx_cv(A_c[..., 1], g) - _dy_cv(A_c[..., 0], g)
    return out


def grad_v2c(g, phi_p):
    """Gradient of a vertex scalar, evaluated at the cell centers."""
    out = np.zeros(phi_p.shape + (3,))
    out[..., 0] = _dx_vc(phi_p, g)
    out[..., 1] = _dy_vc(phi_p, g)
    return out


def div_v2c(g, A_p):
    """Divergence of a vertex vector field, evaluated at the cell centers."""
    return _dx_vc(A_p[..., 0], g) + _dy_vc(A_p[..., 1], g)


def curl_v2c(g, A_p):
    """Curl of a vertex vector field, evaluated at the cell centers."""
    out = np.empty(A_p.shape)
    out[..., 0] = _dy_vc(A_p[..., 2], g)
    out[..., 1] = -_dx_vc(A_p[..., 2], g)
    out[..., 2] = _dx_vc(A_p[..., 1], g) - _dy_vc(A_p[..., 0], g)
    return out


def check_identities(g, trials=100, seed=0):
    """Max |curl grad| and |div curl| residual over random fields, both ways.

    Exact arithmetic gives identically zero; float64 leaves O(1e-15) noise for
    unit-scale fields.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phi = rng.standard_normal((g.nx, g.ny))
        A = rng.standard_normal((g.nx, g.ny, 3))
        worst = max(
            worst,
            np.max(np.abs(curl_v2c(g, grad_c2v(g, phi)))),
            np.max(np.abs(curl_c2v(g, grad_v2c(g, phi)))),
            np.max(np.abs(div_v2c(g, curl_c2v(g, A)))),
            np.max(np.abs(div_c2v(g, curl_v2c(g, A)))),
        )
    return worst

"""Mimetic nabla operators between the primary (cell) and dual (vertex) mesh.

All six operators are built from one four-point stencil: the x-derivative at a
vertex averages the forward difference of the two cell columns around it (and
mirrored for the vertex->cell direction).  With vertex (i,j) at the upper
right corner of cell (i,j):

    cell -> vertex:   d/dx u |_(i,j) = (u[i+1,j+1] + u[i+1,j] - u[i,j+1] - u[i,j]) / (2 dx)
    vertex -> cell:   d/dx v |_(i,j) = (v[i,j] + v[i,j-1] - v[i-1,j] - v[i-1,j-1]) / (2 dx)

(y analogous, indices wrap periodically).  The two directions are exact
negative adjoints in the volume-weighted inner product, which is what makes
curl-of-grad and div-of-curl vanish identically on the periodic grid -- to
roundoff, not just to truncation error.  Everything is specialized to 2D:
d/dz = 0, but vector fields keep all three components.

The wrap is done by padding, not by rolled copies.  A padded field is a flat
buffer of nx+1 rows of stride s = ny+1; a cell field stores its wrap row and
column last, a vertex field first.  Either way output o reads X[o+s+1],
X[o+s], X[o+1] and X[o], so `diff` computes each direction as
((a + b) - c) - d over contiguous slices (b, c swapped for d/dy), the order
of the formulas above, and writes at offset s+1 (vertex) or 0 (cell) of its
output.  Once `wrap` fills that buffer's wrap, it is the next stencil's input.
"""

import numpy as np


def interior(g, X, vertex):
    """The (nx, ny) field of padded buffer X, as a view."""
    P = X.reshape(g.nx + 1, g.ny + 1)
    return P[1:, 1:] if vertex else P[:-1, :-1]


def wrap(g, X, vertex):
    """Fill the periodic wrap row and column of padded buffer X in place."""
    P = X.reshape(g.nx + 1, g.ny + 1)
    if vertex:
        P[1:, 0] = P[1:, -1]
        P[0] = P[-1]
    else:
        P[:-1, -1] = P[:-1, 0]
        P[-1] = P[0]


def pad(g, u, vertex, out=None):
    """Copy the (nx, ny) field u into a padded buffer and fill its wrap."""
    X = np.empty((g.nx + 1) * (g.ny + 1)) if out is None else out
    interior(g, X, vertex)[...] = u
    wrap(g, X, vertex)
    return X


def diff(g, X, axis, out, vertex):
    """Difference of padded X along axis into padded `out` of layout `vertex`.

    X has the other layout; the wrap of `out` is left unfilled.  Returns the
    (nx, ny) view of the result.
    """
    s = g.ny + 1
    n = g.nx * s - 1
    b, c = X[s:s + n], X[1:1 + n]
    if axis:
        b, c = c, b
    y = out[s + 1:] if vertex else out[:n]
    np.add(X[s + 1:], b, out=y)
    np.subtract(y, c, out=y)
    np.subtract(y, X[:n], out=y)
    y /= 2.0 * (g.dy if axis else g.dx)
    return interior(g, out, vertex)


def _d(g, u, axis, to_vertex):
    """d/dx (axis 0) or d/dy (axis 1) of the plain field u, as an (nx, ny) view."""
    X = pad(g, u, not to_vertex)
    return diff(g, X, axis, np.empty_like(X), to_vertex)


def grad_c2v(g, phi_c):
    """Gradient of a cell scalar, evaluated at the vertices (z-component 0)."""
    out = np.zeros(phi_c.shape + (3,))
    out[..., 0] = _d(g, phi_c, 0, True)
    out[..., 1] = _d(g, phi_c, 1, True)
    return out


def div_c2v(g, A_c):
    """Divergence of a cell vector field, evaluated at the vertices."""
    return _d(g, A_c[..., 0], 0, True) + _d(g, A_c[..., 1], 1, True)


def curl_c2v(g, A_c):
    """Curl of a cell vector field, evaluated at the vertices (d/dz = 0)."""
    out = np.empty(A_c.shape)
    out[..., 0] = _d(g, A_c[..., 2], 1, True)
    out[..., 1] = -_d(g, A_c[..., 2], 0, True)
    out[..., 2] = _d(g, A_c[..., 1], 0, True) - _d(g, A_c[..., 0], 1, True)
    return out


def grad_v2c(g, phi_p):
    """Gradient of a vertex scalar, evaluated at the cell centers."""
    out = np.zeros(phi_p.shape + (3,))
    out[..., 0] = _d(g, phi_p, 0, False)
    out[..., 1] = _d(g, phi_p, 1, False)
    return out


def div_v2c(g, A_p):
    """Divergence of a vertex vector field, evaluated at the cell centers."""
    return _d(g, A_p[..., 0], 0, False) + _d(g, A_p[..., 1], 1, False)


def curl_v2c(g, A_p):
    """Curl of a vertex vector field, evaluated at the cell centers."""
    out = np.empty(A_p.shape)
    out[..., 0] = _d(g, A_p[..., 2], 1, False)
    out[..., 1] = -_d(g, A_p[..., 2], 0, False)
    out[..., 2] = _d(g, A_p[..., 1], 0, False) - _d(g, A_p[..., 0], 1, False)
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

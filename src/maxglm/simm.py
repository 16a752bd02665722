"""Staggered semi-implicit scheme (quadratic energy only).

The state is a `model.State` whose B and psi are sampled at cell centers and
whose E and phi are sampled at vertices.  One step of size dt solves for the
half-time averages w = (u^n + u^{n+1})/2 of phi and E:

  1. eliminate B from the phi update (Schur complement) and solve the scalar
     wave equation  A_phi w_phi = phi^n - (dt ch/2) div B^n  at vertices,
     with A_phi = I - dt^2 ch^2/4 div grad;
  2. eliminate B and psi from the E update and solve the vector wave equation
     A_E w_E = E^n + (dt c0/2) curl B^n - (dt ch/2) grad psi^n, with
     A_E = I + dt^2 c0^2/4 curl curl - dt^2 ch^2/4 grad div.  In 2D its z row
     reads only E3 and is A_phi with c0 in place of ch, so E3 is a scalar
     solve and the in-plane pair (E1, E2) a two-component one;
  3. set u^{n+1} = 2 w - u^n and update B and psi explicitly from w.

The eliminations decouple exactly because the mimetic identities div curl = 0
and curl grad = 0 hold to roundoff.  Both implicit operators are symmetric
positive definite in the volume-weighted inner product (the two stencil
directions are negative adjoints of each other), so a plain conjugate
gradient iteration solves them matrix-free.  The step conserves the total
energy (`diagnostics.total_energy`) for any dt: an inexact w changes it by
dV <w, r> for the solve residual r, and CG started from zero keeps r
orthogonal to its iterate, so the energy does not depend on CG's tolerance.

The solves dominate the cost: each implicit operator chains the padded
stencils of `mimetic` over a per-step workspace of four reused buffers, and
CG updates its vectors in place, both bitwise equal to the plain
compositions.  CG's inner products are single-threaded reductions (`_dot`),
so a run uses one core and its output bits do not depend on the machine's
thread count.
"""

import math

import numpy as np

from .mimetic import curl_c2v, curl_v2c, diff, div_c2v, div_v2c, grad_c2v, grad_v2c, pad, wrap
from .model import FIELDS, State

# CG's stop: a relative residual, beside a relative rounding floor (about half eps)
CG_TOL = 1e-12
ROUNDING_FLOOR = 1e-16


class NonConvergence(RuntimeError):
    """CG hit the iteration cap; carries how far it got."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            "conjugate gradient did not converge: relative residual %.3e "
            "after %d iterations" % (residual, iterations))


def _dot(a, b):
    """Euclidean inner product of two equally shaped real arrays.

    A single-threaded einsum contraction, not BLAS: its summation order, and
    so its bits, do not depend on the number of threads BLAS may use.
    """
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def cg_solve(apply_op, rhs, tol=CG_TOL, maxiter=0, op_norm=1.0):
    """Solve apply_op(x) = rhs for an SPD operator of norm <= op_norm, from zero.

    Stops once the true residual meets ||r|| <= tol ||b|| + ROUNDING_FLOOR
    (||b|| + op_norm ||x||) (Euclidean norms: the volume weight is uniform),
    and raises NonConvergence after maxiter iterations (0: ten per grid
    point).  A zero rhs returns exact zeros, which keeps untouched components
    exactly untouched.  If rounding has made the residual recurrence
    optimistic, CG restarts from the true residual; a restart that does not
    improve on the previous one returns x if it meets the stop with 1e-12 in
    place of ROUNDING_FLOOR, and raises otherwise.  apply_op must return a
    fresh array: the iteration updates it in place.
    """
    b = np.ascontiguousarray(rhs, dtype=float)
    b2 = _dot(b, b)
    if b2 == 0.0:
        return np.zeros_like(b)
    if not maxiter:
        maxiter = 10 * (b.shape[0] * b.shape[1] if b.ndim >= 2 else b.size)
    bn = math.sqrt(b2)
    x = np.zeros_like(b)

    def bound2(floor):
        return (tol * bn + floor * (bn + op_norm * math.sqrt(_dot(x, x)))) ** 2

    r = b.copy()
    d = r.copy()
    tmp = np.empty_like(b)
    rs = b2
    restart_rs = math.inf
    it = 0
    while it < maxiter:
        Ad = apply_op(d)
        alpha = rs / _dot(d, Ad)
        x += np.multiply(alpha, d, out=tmp)
        r -= np.multiply(alpha, Ad, out=Ad)
        it += 1
        rs_new = _dot(r, r)
        stop2 = bound2(ROUNDING_FLOOR)
        if rs_new <= stop2:
            r = b - apply_op(x)
            rt = _dot(r, r)
            if rt <= stop2:
                return x
            if rt >= restart_rs:
                if rt <= bound2(1e-12):
                    return x
                raise NonConvergence(it, math.sqrt(rt / b2))
            restart_rs = rs = rt
            np.copyto(d, r)
            continue
        d *= rs_new / rs
        d += r
        rs = rs_new
    raise NonConvergence(it, math.sqrt(rs / b2))


def workspace(grid):
    """Four padded buffers (rows) for apply_phi_operator / apply_E_operator."""
    return np.empty((4, (grid.nx + 1) * (grid.ny + 1)))


def apply_phi_operator(grid, params, dt, phi_p, work=None, speed=None):
    """(I - dt^2 c^2/4 * div grad) acting on a vertex scalar, c = speed or ch.

    At c = c0 this is the E3 row of the E operator.  `work` (from
    `workspace`) is reused between calls; the result is fresh.
    """
    g, s = grid, params.ch if speed is None else speed
    c = 0.25 * dt * dt * s * s
    X, Gx, Gy = (workspace(g) if work is None else work)[:3]
    pad(g, phi_p, True, X)
    for axis, G in enumerate((Gx, Gy)):
        diff(g, X, axis, G, False)
        wrap(g, G, False)
    v = diff(g, Gx, 0, X, True)
    v += diff(g, Gy, 1, Gx, True)
    v *= c
    return phi_p - v


def apply_E_operator(grid, params, dt, E_p, work=None):
    """(I + dt^2 c0^2/4 curl curl - dt^2 ch^2/4 grad div) on the pair (E1, E2).

    E_p has shape (nx, ny, 2).  Bitwise the x and y rows of the composition
    of the public operators, which read only E1 and E2.
    """
    g = grid
    cc = 0.25 * dt * dt * params.c0 * params.c0
    ch2 = 0.25 * dt * dt * params.ch * params.ch
    X, T, D, W2 = workspace(g) if work is None else work
    pad(g, E_p[..., 0], True, X)
    d = diff(g, X, 0, D, False)
    w2 = diff(g, X, 1, W2, False)
    pad(g, E_p[..., 1], True, X)
    d += diff(g, X, 1, T, False)
    np.subtract(diff(g, X, 0, T, False), w2, out=w2)
    wrap(g, D, False)
    wrap(g, W2, False)

    out = np.empty(E_p.shape)
    # (E_k + cc dW2/dy | E_k - cc dW2/dx) - ch2 dD/dx_k
    for k, add in ((0, np.add), (1, np.subtract)):
        v = diff(g, W2, 1 - k, X, True)
        v *= cc
        add(E_p[..., k], v, out=out[..., k])
        v = diff(g, D, k, X, True)
        v *= ch2
        out[..., k] -= v
    return out


def simm_step(state, dt, maxiter=0):
    """Advance the staggered state by one step of size dt.

    Solves for the half-time averages of phi, (E1, E2) and E3 (see the module
    docstring); CG_TOL and maxiter go to all three CG solves, each stopped
    with the bound 1 + (dt c/2)^2 (4/dx^2 + 4/dy^2) on its operator's norm.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    g = state.grid
    m = state.model.params
    c0, ch = m.c0, m.ch
    work = workspace(g)
    # contiguous copies: the stencils and updates below run measurably slower
    # on q's interleaved views (about 4% of a 160^2 run with ch = 1)
    B, phi, E, psi = (np.ascontiguousarray(state.q[..., FIELDS[name]])
                      for name in ("B", "phi", "E", "psi"))

    def solve(apply_op, rhs, c, **speed):
        norm = 1.0 + (0.5 * dt * c) ** 2 * (4.0 / g.dx ** 2 + 4.0 / g.dy ** 2)
        return cg_solve(lambda u: apply_op(g, m, dt, u, work, **speed), rhs, CG_TOL, maxiter,
                        norm)

    # phi's solve eliminates B (div curl E drops out), E's eliminates B and psi
    # (curl grad phi drops out)
    w_phi = solve(apply_phi_operator, phi - 0.5 * dt * ch * div_c2v(g, B), ch)
    rhs_E = E + 0.5 * dt * c0 * curl_c2v(g, B) - 0.5 * dt * ch * grad_c2v(g, psi)
    w_E = np.empty_like(E)
    w_E[..., :2] = solve(apply_E_operator, rhs_E[..., :2], max(c0, ch))
    w_E[..., 2] = solve(apply_phi_operator, rhs_E[..., 2], c0, speed=c0)

    q = np.empty_like(state.q)
    q[..., FIELDS["B"]] = B - dt * c0 * curl_v2c(g, w_E) - dt * ch * grad_v2c(g, w_phi)
    q[..., FIELDS["phi"]] = 2.0 * w_phi - phi
    q[..., FIELDS["E"]] = 2.0 * w_E - E
    q[..., FIELDS["psi"]] = psi - dt * ch * div_v2c(g, w_E)
    return State(g, state.model, q, state.t + dt)

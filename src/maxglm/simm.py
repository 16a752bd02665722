"""Staggered semi-implicit scheme (quadratic energy only).

The state is a `model.State` whose B and psi are sampled at cell centers and
whose E and phi are sampled at vertices.  One step of size dt:

  1. eliminate B from the phi update (Schur complement) and solve the scalar
     wave equation  A_phi phi^{n+1} = 2 phi^n - A_phi phi^n - dt ch div B^n
     at vertices, with A_phi = I - dt^2 ch^2/4 div grad;
  2. eliminate B and psi from the E update and solve the vector wave equation
     A_E E^{n+1} = 2 E^n - A_E E^n + dt c0 curl B^n - dt ch grad psi^n, with
     A_E = I + dt^2 c0^2/4 curl curl - dt^2 ch^2/4 grad div;
  3. update B and psi explicitly from the half-time averages of E and phi.

The eliminations decouple exactly because the mimetic identities div curl = 0
and curl grad = 0 hold to roundoff.  Both implicit operators are symmetric
positive definite in the volume-weighted inner product (the two stencil
directions are negative adjoints of each other), so a plain conjugate
gradient iteration solves them matrix-free.  With exact solves the scheme
conserves the total energy (`diagnostics.total_energy`) identically, for any
dt.

The solves dominate the cost: each implicit operator chains the padded
stencils of `mimetic` over a per-step workspace of six reused buffers, and CG
updates its vectors in place, both bitwise equal to the plain compositions.
CG's inner products are single-threaded reductions (`_dot`), so a run uses
one core and its output bits do not depend on the machine's thread count.
"""

import math

import numpy as np

from .mimetic import (curl_c2v, curl_v2c, diff, div_c2v, div_v2c, grad_c2v, grad_v2c,
                      interior, pad, wrap)
from .model import FIELDS, State


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


def cg_solve(apply_op, rhs, tol=1e-12, maxiter=0):
    """Solve apply_op(x) = rhs for an SPD operator, starting from zero.

    Returns x with ||apply_op(x) - rhs|| <= tol * ||rhs|| (Euclidean norms:
    the volume weight is uniform, so they give the weighted test exactly),
    raising NonConvergence after maxiter iterations; maxiter 0 means ten per
    grid point.  A zero rhs returns an exactly zero field (this matters: it
    keeps untouched components exactly untouched in long
    divergence-preservation runs).  On convergence of the
    residual recurrence the true residual is re-checked once; if rounding has
    made the recurrence optimistic the iteration restarts from the true
    residual (only ever observed for extreme dt*ch).  A restart whose true
    residual is no smaller than the previous restart's means the tolerance is
    below what rounding allows, and raises NonConvergence at once.  apply_op
    must return a fresh array: the iteration updates it in place.
    """
    b = np.asarray(rhs, dtype=float)
    b2 = _dot(b, b)
    if b2 == 0.0:
        return np.zeros_like(b)
    if not maxiter:
        maxiter = 10 * (b.shape[0] * b.shape[1] if b.ndim >= 2 else b.size)
    tol2 = tol * tol * b2

    x = np.zeros_like(b)
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
        if rs_new <= tol2:
            r = b - apply_op(x)
            rt = _dot(r, r)
            if rt <= tol2:
                return x
            if rt >= restart_rs:
                raise NonConvergence(it, math.sqrt(rt / b2))
            restart_rs = rs = rt
            np.copyto(d, r)
            continue
        d *= rs_new / rs
        d += r
        rs = rs_new
    raise NonConvergence(it, math.sqrt(rs / b2))


def workspace(grid):
    """Six padded buffers (rows) for apply_phi_operator / apply_E_operator."""
    return np.empty((6, (grid.nx + 1) * (grid.ny + 1)))


def apply_phi_operator(grid, params, dt, phi_p, work=None):
    """(I - dt^2 ch^2/4 * div grad) acting on a vertex scalar.

    `work` (from `workspace`) is reused between calls; the result is fresh.
    """
    g, c = grid, 0.25 * dt * dt * params.ch * params.ch
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
    """(I + dt^2 c0^2/4 curl curl - dt^2 ch^2/4 grad div) on a vertex vector.

    Bitwise the composition of the public operators (W1 is negated before its
    difference, as in curl_v2c); only the z row's `- ch2 * 0` is skipped.
    """
    g = grid
    cc = 0.25 * dt * dt * params.c0 * params.c0
    ch2 = 0.25 * dt * dt * params.ch * params.ch
    X, T, D, W0, W1, W2 = workspace(g) if work is None else work
    pad(g, E_p[..., 0], True, X)
    d = diff(g, X, 0, D, False)
    w2 = diff(g, X, 1, W2, False)
    pad(g, E_p[..., 1], True, X)
    d += diff(g, X, 1, T, False)
    np.subtract(diff(g, X, 0, T, False), w2, out=w2)
    pad(g, E_p[..., 2], True, X)
    diff(g, X, 1, W0, False)
    np.negative(diff(g, X, 0, T, False), out=interior(g, W1, False))
    for Y in (D, W0, W1, W2):
        wrap(g, Y, False)

    out = np.empty(E_p.shape)
    # rows x and y: (E_k + cc dW2/dy | E_k - cc dW2/dx) - ch2 dD/dx_k
    for k, add in ((0, np.add), (1, np.subtract)):
        v = diff(g, W2, 1 - k, X, True)
        v *= cc
        add(E_p[..., k], v, out=out[..., k])
        v = diff(g, D, k, X, True)
        v *= ch2
        out[..., k] -= v
    v = diff(g, W1, 0, X, True)
    v -= diff(g, W0, 1, T, True)
    v *= cc
    np.add(E_p[..., 2], v, out=out[..., 2])
    return out


def simm_step(state, dt, tol=1e-12, maxiter=0):
    """Advance the staggered state by one step of size dt.

    Each solve A u^{n+1} = rhs takes its old-level terms from the operator
    it inverts, rhs = 2 u^n - A u^n plus the coupling to B and psi (see the
    module docstring).  tol and maxiter go to both CG solves.
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

    # scalar wave solve for phi^{n+1} (B eliminated; div curl E drops out)
    rhs_phi = 2.0 * phi - apply_phi_operator(g, m, dt, phi, work) - dt * ch * div_c2v(g, B)
    phi_new = cg_solve(lambda u: apply_phi_operator(g, m, dt, u, work), rhs_phi, tol, maxiter)

    # vector wave solve for E^{n+1} (B, psi eliminated; curl grad phi drops out)
    rhs_E = (2.0 * E - apply_E_operator(g, m, dt, E, work)
             + dt * c0 * curl_c2v(g, B) - dt * ch * grad_c2v(g, psi))
    E_new = cg_solve(lambda u: apply_E_operator(g, m, dt, u, work), rhs_E, tol, maxiter)

    # explicit updates from the half-time averages
    phi_half = 0.5 * (phi + phi_new)
    E_half = 0.5 * (E + E_new)
    q = np.empty_like(state.q)
    q[..., FIELDS["B"]] = B - dt * c0 * curl_v2c(g, E_half) - dt * ch * grad_v2c(g, phi_half)
    q[..., FIELDS["phi"]] = phi_new
    q[..., FIELDS["E"]] = E_new
    q[..., FIELDS["psi"]] = psi - dt * ch * div_v2c(g, E_half)
    return State(g, state.model, q, state.t + dt)

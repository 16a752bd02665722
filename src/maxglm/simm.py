"""Staggered semi-implicit scheme (quadratic energy only).

B and psi live at cell centers, E and phi at vertices.  One step of size dt:

  1. eliminate B from the phi update (Schur complement) and solve the scalar
     wave equation  (I - dt^2 ch^2/4 div grad) phi^{n+1} = rhs  at vertices;
  2. eliminate B and psi from the E update and solve the vector wave equation
     (I + dt^2 c0^2/4 curl curl - dt^2 ch^2/4 grad div) E^{n+1} = rhs;
  3. update B and psi explicitly from the half-time averages of E and phi.

The eliminations decouple exactly because the mimetic identities div curl = 0
and curl grad = 0 hold to roundoff.  Both implicit operators are symmetric
positive definite in the volume-weighted inner product (the two stencil
directions are negative adjoints of each other), so a plain conjugate
gradient iteration solves them matrix-free.  With exact solves the scheme
conserves the staggered total energy identically, for any dt.
"""

import math

import numpy as np

from .mimetic import curl_c2v, curl_v2c, div_c2v, div_v2c, grad_c2v, grad_v2c


class StaggeredState:
    """Staggered solution: B, psi on cells; E, phi on vertices."""

    def __init__(self, grid, params, B_c, psi_c, E_p, phi_p, t=0.0):
        self.grid = grid
        self.params = params
        self.B_c = np.asarray(B_c, dtype=float)
        self.psi_c = np.asarray(psi_c, dtype=float)
        self.E_p = np.asarray(E_p, dtype=float)
        self.phi_p = np.asarray(phi_p, dtype=float)
        shp = (grid.nx, grid.ny)
        if (self.B_c.shape != shp + (3,) or self.E_p.shape != shp + (3,)
                or self.psi_c.shape != shp or self.phi_p.shape != shp):
            raise ValueError("field shapes do not fit the grid")
        self.t = float(t)


class CGConfig:
    """Conjugate gradient settings.

    tol      -- relative residual tolerance (volume-weighted norm; the weight
                is uniform so plain Euclidean norms give the identical test)
    maxiter  -- iteration cap; 0 means 10 * (number of grid points)
    """

    def __init__(self, tol=1e-12, maxiter=0):
        if not tol > 0.0:
            raise ValueError("tol must be positive")
        if maxiter < 0:
            raise ValueError("maxiter must be >= 1 (or 0 for the default)")
        self.tol = float(tol)
        self.maxiter = int(maxiter)


class NonConvergence(RuntimeError):
    """CG hit the iteration cap; carries how far it got."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            "conjugate gradient did not converge: relative residual %.3e "
            "after %d iterations" % (residual, iterations))


def _dot(a, b):
    return float(np.vdot(a, b))


def cg_solve(apply_op, rhs, cfg=None):
    """Solve apply_op(x) = rhs for an SPD operator, starting from zero.

    Returns x with ||apply_op(x) - rhs|| <= tol * ||rhs||.  A zero rhs returns
    an exactly zero field (this matters: it keeps untouched components exactly
    untouched in long divergence-preservation runs).  On convergence of the
    residual recurrence the true residual is re-checked once; if rounding has
    made the recurrence optimistic the iteration restarts from the true
    residual (only ever observed for extreme dt*ch).
    """
    if cfg is None:
        cfg = CGConfig()
    b = np.asarray(rhs, dtype=float)
    b2 = _dot(b, b)
    if b2 == 0.0:
        return np.zeros_like(b)
    if cfg.maxiter:
        maxiter = cfg.maxiter
    else:
        pts = b.shape[0] * b.shape[1] if b.ndim >= 2 else b.size
        maxiter = 10 * pts
    tol2 = cfg.tol * cfg.tol * b2

    x = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rs = b2
    it = 0
    while it < maxiter:
        Ad = apply_op(d)
        alpha = rs / _dot(d, Ad)
        x += alpha * d
        r -= alpha * Ad
        it += 1
        rs_new = _dot(r, r)
        if rs_new <= tol2:
            r_true = b - apply_op(x)
            rt = _dot(r_true, r_true)
            if rt <= tol2:
                return x
            r = r_true
            d = r.copy()
            rs = rt
            continue
        d = r + (rs_new / rs) * d
        rs = rs_new
    raise NonConvergence(it, math.sqrt(rs / b2))


def apply_phi_operator(grid, params, dt, phi_p):
    """(I - dt^2 ch^2/4 * div grad) acting on a vertex scalar."""
    c = 0.25 * dt * dt * params.ch * params.ch
    return phi_p - c * div_c2v(grid, grad_v2c(grid, phi_p))


def apply_E_operator(grid, params, dt, E_p):
    """(I + dt^2 c0^2/4 curl curl - dt^2 ch^2/4 grad div) on a vertex vector."""
    cc = 0.25 * dt * dt * params.c0 * params.c0
    ch2 = 0.25 * dt * dt * params.ch * params.ch
    return (E_p
            + cc * curl_c2v(grid, curl_v2c(grid, E_p))
            - ch2 * grad_c2v(grid, div_v2c(grid, E_p)))


def simm_step(state, dt, cfg=None):
    """Advance the staggered state by one step of size dt."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    g = state.grid
    m = state.params
    c0, ch = m.c0, m.ch
    quarter = 0.25 * dt * dt

    # scalar wave solve for phi^{n+1} (B eliminated; div curl E drops out)
    rhs_phi = (state.phi_p
               - dt * ch * div_c2v(g, state.B_c)
               + quarter * ch * ch * div_c2v(g, grad_v2c(g, state.phi_p)))
    phi_new = cg_solve(lambda u: apply_phi_operator(g, m, dt, u), rhs_phi, cfg)

    # vector wave solve for E^{n+1} (B, psi eliminated; curl grad phi drops out)
    rhs_E = (state.E_p
             + dt * c0 * curl_c2v(g, state.B_c)
             - quarter * c0 * c0 * curl_c2v(g, curl_v2c(g, state.E_p))
             - dt * ch * grad_c2v(g, state.psi_c)
             + quarter * ch * ch * grad_c2v(g, div_v2c(g, state.E_p)))
    E_new = cg_solve(lambda u: apply_E_operator(g, m, dt, u), rhs_E, cfg)

    # explicit updates from the half-time averages
    phi_half = 0.5 * (state.phi_p + phi_new)
    E_half = 0.5 * (state.E_p + E_new)
    B_new = (state.B_c
             - dt * c0 * curl_v2c(g, E_half)
             - dt * ch * grad_v2c(g, phi_half))
    psi_new = state.psi_c - dt * ch * div_v2c(g, E_half)

    return StaggeredState(g, m, B_new, psi_new, E_new, phi_new, state.t + dt)


def total_energy_staggered(state):
    """sum |Omega_c| (B^2 + psi^2)/2 + sum |Omega_p| (E^2 + phi^2)/2."""
    w = state.grid.cell_volume
    return w * float(
        0.5 * np.sum(state.B_c * state.B_c)
        + 0.5 * np.sum(state.psi_c * state.psi_c)
        + 0.5 * np.sum(state.E_p * state.E_p)
        + 0.5 * np.sum(state.phi_p * state.phi_p))

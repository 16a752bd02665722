"""Collocated finite volume scheme with an energy-compatible two-point flux.

The semi-discrete update for cell l is

    dq_l/dt = -(1/|Omega_l|) sum_faces |face| * fhat(q_l, q_r, n)

with fhat the central flux plus a scalar correction alpha*(p_r - p_l) chosen
such that the discrete compatibility condition

    p_l . (fhat - f_l.n) + p_r . (f_r.n - fhat) = (F_r - F_l) . n

holds for every face, for any energy potential.  Summing over the periodic
mesh then telescopes the energy fluxes and the semi-discrete total energy is
conserved exactly -- no upwind dissipation and no limiter anywhere.

For Maxwell-GLM the fluxes are linear in the main field, f_k = H_k p with H_k
symmetric, so the numerator of alpha, (F_r - F_l) + (p_l + p_r).(f_l - f_r)/2,
vanishes identically for every energy potential and fhat is the central flux.
The solver therefore applies it as a periodic central difference of the main
field, dq/dt = -(delta_x p H1 + delta_y p H2), evaluated with one main-field
pass and one difference buffer reused for both axes; abgrall_flux is kept as
the pointwise general form that the compatibility checks measure.  Time
integration is plain explicit Runge-Kutta (see tableaux).
"""

import numpy as np

from .model import State, main_field

# Below this squared jump in the main field the correction is switched off;
# its numerator vanishes at the same quadratic rate, so a pure central flux
# keeps both consistency and compatibility.
ALPHA_GUARD = 1e-28


def abgrall_flux(qL, qR, n, model):
    """Energy-compatible numerical flux across a face with unit normal n.

    Works pointwise on (8,) states or vectorized on (..., 8) arrays.  The
    solver does not call it: for f_k = H_k p its alpha is roundoff, and
    semidiscrete_rhs applies the central flux it reduces to directly.  n is
    an axis-aligned 2-vector here, but the formula is written for general n.
    """
    qL = np.asarray(qL, dtype=float)
    qR = np.asarray(qR, dtype=float)
    mats = model.matrices
    Hn = n[0] * mats.H1 + n[1] * mats.H2

    pL = main_field(qL, model)
    pR = main_field(qR, model)
    fL = pL @ Hn
    fR = pR @ Hn
    FL = 0.5 * np.sum(pL * fL, axis=-1)
    FR = 0.5 * np.sum(pR * fR, axis=-1)

    dp = pR - pL
    dp2 = np.sum(dp * dp, axis=-1)
    num = (FR - FL) + 0.5 * np.sum((pL + pR) * (fL - fR), axis=-1)
    # alpha = num/dp2 with the degenerate-jump guard (array-safe division)
    alpha = np.where(dp2 < ALPHA_GUARD, 0.0, num / np.where(dp2 < ALPHA_GUARD, 1.0, dp2))
    return 0.5 * (fL + fR) - alpha[..., None] * dp


def _central_difference(p, axis, h, out=None):
    """Periodic (p[i+1] - p[i-1]) / (2h) along grid axis 0 or 1, into out if given."""
    if out is None:
        out = np.empty_like(p)
    pv, ov = np.moveaxis(p, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(pv[2:], pv[:-2], out=ov[1:-1])
    np.subtract(pv[1], pv[-1], out=ov[0])
    np.subtract(pv[0], pv[-2], out=ov[-1])
    out /= 2.0 * h
    return out


def semidiscrete_rhs(state):
    """-1/|Omega| times the net central flux out of every cell, shape (nx, ny, 8)."""
    g = state.grid
    mats = state.model.matrices
    p = main_field(state.q, state.model)
    d = _central_difference(p, 0, g.dx)
    rhs = d @ mats.H1
    rhs += _central_difference(p, 1, g.dy, out=d) @ mats.H2
    return np.negative(rhs, out=rhs)


def rk_step(state, dt, tab):
    """One explicit Runge-Kutta step of size dt; returns the advanced state."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    a, b, c = tab.a, tab.b, tab.c
    q0, t0 = state.q, state.t
    k = np.empty((tab.stages,) + q0.shape)
    qi = np.empty_like(q0)
    scratch = np.empty_like(q0)
    for i in range(tab.stages):
        # in place, in tableau order: bitwise q0 + (dt a_i0) k_0 + (dt a_i1) k_1 + ...
        qi[...] = q0
        for j in range(i):
            if a[i, j] != 0.0:
                qi += np.multiply(dt * a[i, j], k[j], out=scratch)
        k[i] = semidiscrete_rhs(State(state.grid, state.model, qi, t0 + c[i] * dt))
    # accumulate into a copy: callers keep the input state and views of it
    qn = q0.copy()
    for i in range(tab.stages):
        if b[i] != 0.0:
            qn += np.multiply(dt * b[i], k[i], out=scratch)
    return State(state.grid, state.model, qn, t0 + dt)


def cfl_dt(grid, params, cfl):
    """Time step dt = cfl/(c0/dx + c0/dy) from the CFL number.

    This is the convention of all convergence/energy runs, where c0 = ch; it
    does not honour a faster cleaning speed ch > c0.
    """
    if not (0.0 < cfl <= 1.0):
        raise ValueError("cfl must be in (0, 1], got %r" % (cfl,))
    c0 = params.c0
    return cfl / (c0 / grid.dx + c0 / grid.dy)

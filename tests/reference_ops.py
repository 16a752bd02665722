"""np.roll reference forms of the mimetic stencils, the implicit operators and CG.

These are the straightforward allocating implementations that the package's
padded-buffer stencil, fused operators and in-place CG must reproduce bit for
bit: every expression below keeps the operation order of the formulas in
`maxglm.mimetic` and `maxglm.simm`.
"""

import math

import numpy as np

from maxglm.simm import ROUNDING_FLOOR, NonConvergence


def dx_cv(u, g):
    up = np.roll(u, -1, 0)
    return (np.roll(up, -1, 1) + up - np.roll(u, -1, 1) - u) / (2.0 * g.dx)


def dy_cv(u, g):
    up = np.roll(u, -1, 1)
    return (np.roll(up, -1, 0) + up - np.roll(u, -1, 0) - u) / (2.0 * g.dy)


def dx_vc(v, g):
    vm = np.roll(v, 1, 0)
    return (v + np.roll(v, 1, 1) - vm - np.roll(vm, 1, 1)) / (2.0 * g.dx)


def dy_vc(v, g):
    vm = np.roll(v, 1, 1)
    return (v + np.roll(v, 1, 0) - vm - np.roll(vm, 1, 0)) / (2.0 * g.dy)


def _grad(dx, dy):
    def grad(g, phi):
        out = np.zeros(phi.shape + (3,))
        out[..., 0] = dx(phi, g)
        out[..., 1] = dy(phi, g)
        return out
    return grad


def _div(dx, dy):
    return lambda g, A: dx(A[..., 0], g) + dy(A[..., 1], g)


def _curl(dx, dy):
    def curl(g, A):
        out = np.empty(A.shape)
        out[..., 0] = dy(A[..., 2], g)
        out[..., 1] = -dx(A[..., 2], g)
        out[..., 2] = dx(A[..., 1], g) - dy(A[..., 0], g)
        return out
    return curl


OPS = {
    "grad_c2v": _grad(dx_cv, dy_cv), "div_c2v": _div(dx_cv, dy_cv),
    "curl_c2v": _curl(dx_cv, dy_cv), "grad_v2c": _grad(dx_vc, dy_vc),
    "div_v2c": _div(dx_vc, dy_vc), "curl_v2c": _curl(dx_vc, dy_vc),
}


def phi_operator(g, params, dt, phi_p, speed=None):
    s = params.ch if speed is None else speed
    c = 0.25 * dt * dt * s * s
    return phi_p - c * OPS["div_c2v"](g, OPS["grad_v2c"](g, phi_p))


def E_operator(g, params, dt, E_p):
    """The vector wave operator on a full (nx, ny, 3) vertex vector."""
    cc = 0.25 * dt * dt * params.c0 * params.c0
    ch2 = 0.25 * dt * dt * params.ch * params.ch
    return (E_p
            + cc * OPS["curl_c2v"](g, OPS["curl_v2c"](g, E_p))
            - ch2 * OPS["grad_c2v"](g, OPS["div_v2c"](g, E_p)))


def E_pair_operator(g, params, dt, E_p):
    """Rows x and y of E_operator on the in-plane pair (E1, E2), with E3 = 0."""
    E = np.concatenate([E_p, np.zeros(E_p.shape[:2] + (1,))], axis=-1)
    return E_operator(g, params, dt, E)[..., :2]


def dot(a, b):
    """The package's reduction order: one einsum over the flattened arrays."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def cg(apply_op, b, op_norm, tol=1e-12):
    """Allocating CG with the package's stop and restarts, as a bitwise reference."""
    b = np.ascontiguousarray(b)
    b2 = dot(b, b)
    if b2 == 0.0:
        return np.zeros_like(b)
    maxiter = 10 * b.shape[0] * b.shape[1]
    bn = math.sqrt(b2)
    x = np.zeros_like(b)

    def bound2(floor):
        return (tol * bn + floor * (bn + op_norm * math.sqrt(dot(x, x)))) ** 2

    r = b.copy()
    d = r.copy()
    rs = b2
    restart_rs = math.inf
    for it in range(1, maxiter + 1):
        Ad = apply_op(d)
        alpha = rs / dot(d, Ad)
        x += alpha * d
        r -= alpha * Ad
        rs_new = dot(r, r)
        stop2 = bound2(ROUNDING_FLOOR)
        if rs_new <= stop2:
            r = b - apply_op(x)
            rs = dot(r, r)
            if rs <= stop2:
                return x
            if rs >= restart_rs:
                if rs <= bound2(1e-12):
                    return x
                raise NonConvergence(it, math.sqrt(rs / b2))
            restart_rs = rs
            d = r.copy()
            continue
        d = r + (rs_new / rs) * d
        rs = rs_new
    raise NonConvergence(maxiter, math.sqrt(rs / b2))


def step(state, dt, applies):
    """The staggered step of `maxglm.simm.simm_step`, from the forms above.

    Solves for the half-time averages of phi, (E1, E2) and E3, and returns
    the new (B, phi, E, psi); counts operator applications in `applies` (the
    E3 solve uses the phi operator at c0 and counts as "phi").
    """
    g, m = state.grid, state.model.params
    c0, ch = m.c0, m.ch
    q = state.q
    B, phi, E, psi = q[..., 0:3], q[..., 3], q[..., 4:7], q[..., 7]

    def counted(name, op, **speed):
        def apply(u):
            applies[name] += 1
            return op(g, m, dt, u, **speed)
        return apply

    def norm(c):
        return 1.0 + (0.5 * dt * c) ** 2 * (4.0 / g.dx ** 2 + 4.0 / g.dy ** 2)

    w_phi = cg(counted("phi", phi_operator), phi - 0.5 * dt * ch * OPS["div_c2v"](g, B),
               norm(ch))
    rhs_E = (E + 0.5 * dt * c0 * OPS["curl_c2v"](g, B)
             - 0.5 * dt * ch * OPS["grad_c2v"](g, psi))
    w_E = np.empty(E.shape)
    w_E[..., :2] = cg(counted("E", E_pair_operator), rhs_E[..., :2], norm(max(c0, ch)))
    w_E[..., 2] = cg(counted("phi", phi_operator, speed=c0), rhs_E[..., 2], norm(c0))
    B_new = (B
             - dt * c0 * OPS["curl_v2c"](g, w_E)
             - dt * ch * OPS["grad_v2c"](g, w_phi))
    psi_new = psi - dt * ch * OPS["div_v2c"](g, w_E)
    return B_new, 2.0 * w_phi - phi, 2.0 * w_E - E, psi_new


# grids for the bitwise checks: square, dx != dy, and the smallest shapes
GRIDS = [
    (160, 160, -1.0, 1.0, -1.0, 1.0),
    (24, 16, -1.0, 1.0, -1.0, 0.5),
    (2, 3, 0.0, 1.0, 0.0, 2.0),
    (5, 2, 0.0, 3.0, -1.0, 1.0),
]


def same_bits(a, b):
    """Equal values and equal sign bits (so +0.0 and -0.0 differ)."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def planted_fields(g, seed):
    """Random scalar and vector fields; the vector's z-component is signed zeros."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((g.nx, g.ny))
    A = rng.standard_normal((g.nx, g.ny, 3))
    A[..., 2] = np.where(rng.random((g.nx, g.ny)) < 0.5, 0.0, -0.0)
    return phi, A

"""Tests for the staggered semi-implicit scheme and its CG solver."""

import math

import numpy as np
import pytest

from maxglm.diagnostics import staggered_divergences
from maxglm.grid import Grid2D, l2_norm
from maxglm.harness import SIMM_LOCATIONS, ic_gaussian, ic_planar
from maxglm.model import ModelParams
from maxglm.simm import (
    CGConfig,
    NonConvergence,
    StaggeredState,
    apply_E_operator,
    apply_phi_operator,
    cg_solve,
    simm_step,
    total_energy_staggered,
)


def _grid(n=16):
    return Grid2D(n, n, -1.0, 1.0, -1.0, 1.0)


def _random_state(grid, params, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    shp = (grid.nx, grid.ny)
    return StaggeredState(
        grid, params,
        B_c=rng.normal(scale=scale, size=shp + (3,)),
        psi_c=rng.normal(scale=scale, size=shp),
        E_p=rng.normal(scale=scale, size=shp + (3,)),
        phi_p=rng.normal(scale=scale, size=shp),
    )


# --- implicit operators ----------------------------------------------------

def test_operators_fix_constants():
    g = _grid()
    params = ModelParams(c0=1.0, ch=3.0)
    phi = np.full((g.nx, g.ny), 0.7)
    E = np.tile([0.2, -0.1, 0.5], (g.nx, g.ny, 1))
    assert np.array_equal(apply_phi_operator(g, params, 0.1, phi), phi)
    assert np.array_equal(apply_E_operator(g, params, 0.1, E), E)


def test_operators_reduce_to_identity_at_dt_zero():
    g = _grid()
    params = ModelParams()
    rng = np.random.default_rng(1)
    phi = rng.normal(size=(g.nx, g.ny))
    E = rng.normal(size=(g.nx, g.ny, 3))
    assert np.array_equal(apply_phi_operator(g, params, 0.0, phi), phi)
    assert np.array_equal(apply_E_operator(g, params, 0.0, E), E)


@pytest.mark.parametrize("dt,ch", [(0.05, 1.0), (1e-2, 1e2), (1e-2, 1e5)])
def test_operators_symmetric_positive_definite(dt, ch):
    """Both Schur operators must be SPD even for stiff dt*ch, or CG is invalid."""
    g = _grid(12)
    params = ModelParams(c0=1.0, ch=ch)
    rng = np.random.default_rng(2)
    for apply_op, shape in (
        (apply_phi_operator, (g.nx, g.ny)),
        (apply_E_operator, (g.nx, g.ny, 3)),
    ):
        for _ in range(25):
            u = rng.normal(size=shape)
            v = rng.normal(size=shape)
            Au = apply_op(g, params, dt, u)
            Av = apply_op(g, params, dt, v)
            uAv = float(np.vdot(u, Av))
            vAu = float(np.vdot(v, Au))
            scale = max(abs(uAv), abs(vAu), 1.0)
            assert abs(uAv - vAu) / scale <= 1e-13
            # definiteness: the correction terms only ever add energy
            quad = float(np.vdot(u, Au))
            assert quad >= float(np.vdot(u, u)) * (1.0 - 1e-12)


# --- conjugate gradient ----------------------------------------------------

def test_cg_identity_operator_one_iteration():
    applies = []

    def identity(u):
        applies.append(1)
        return u

    b = np.random.default_rng(3).normal(size=(8, 8))
    x = cg_solve(identity, b, CGConfig(tol=1e-12))
    assert np.allclose(x, b, atol=1e-14)
    # one iteration applies the operator once, plus once for the true residual
    assert len(applies) == 2


def test_cg_zero_rhs_returns_exact_zeros():
    x = cg_solve(lambda u: 2.0 * u, np.zeros((6, 6)))
    assert np.array_equal(x, np.zeros((6, 6)))


def test_cg_diagonal_operator():
    rng = np.random.default_rng(4)
    diag = rng.uniform(0.5, 3.0, size=(10, 10))
    b = rng.normal(size=(10, 10))
    x = cg_solve(lambda u: diag * u, b, CGConfig(tol=1e-13))
    assert np.max(np.abs(x - b / diag)) <= 1e-11


def test_cg_nonconvergence_carries_progress():
    g = _grid(10)
    params = ModelParams(c0=1.0, ch=50.0)
    b = np.random.default_rng(5).normal(size=(g.nx, g.ny))
    with pytest.raises(NonConvergence) as info:
        cg_solve(lambda u: apply_phi_operator(g, params, 0.5, u), b,
                 CGConfig(tol=1e-14, maxiter=2))
    assert info.value.iterations == 2
    assert info.value.residual > 0.0
    assert "did not converge" in str(info.value)


def test_cg_config_validation():
    with pytest.raises(ValueError):
        CGConfig(tol=0.0)
    with pytest.raises(ValueError):
        CGConfig(maxiter=-1)


# --- stepping --------------------------------------------------------------

def test_step_keeps_uniform_state_exactly():
    g = _grid(8)
    params = ModelParams(c0=1.0, ch=2.0)
    shp = (g.nx, g.ny)
    state = StaggeredState(
        g, params,
        B_c=np.tile([0.1, -0.2, 1.0], shp + (1,)),
        psi_c=np.full(shp, 0.4),
        E_p=np.tile([0.3, 0.0, -0.5], shp + (1,)),
        phi_p=np.full(shp, -0.8),
    )
    new = simm_step(state, 0.07)
    assert np.array_equal(new.B_c, state.B_c)
    assert np.array_equal(new.psi_c, state.psi_c)
    assert np.array_equal(new.E_p, state.E_p)
    assert np.array_equal(new.phi_p, state.phi_p)
    assert new.t == pytest.approx(0.07)


def test_step_rejects_nonpositive_dt():
    state = _random_state(_grid(8), ModelParams())
    with pytest.raises(ValueError):
        simm_step(state, 0.0)


def test_step_conserves_energy_for_random_data():
    """Midpoint-in-time staggering conserves the discrete energy for any dt."""
    g = _grid(24)
    state = _random_state(g, ModelParams(c0=1.0, ch=1.0), seed=6, scale=0.1)
    cfg = CGConfig(tol=1e-13)
    e0 = total_energy_staggered(state)
    for _ in range(20):
        state = simm_step(state, 0.05, cfg)
        drift = abs(total_energy_staggered(state) - e0) / e0
        assert drift <= 1e-10, drift


def test_step_preserves_zero_divergence():
    # out-of-plane gaussian data: both divergences start at zero and the
    # mimetic identities keep them there step after step
    g = Grid2D(24, 24, -1.0, 1.0, -1.0, 1.0)
    params = ModelParams()
    fields = ic_gaussian(g, "t1", locations=SIMM_LOCATIONS)
    state = StaggeredState(g, params, fields["B"], fields["psi"],
                           fields["E"], fields["phi"])
    cfg = CGConfig(tol=1e-12)
    worst = 0.0
    for _ in range(10):
        nxt = simm_step(state, 0.05, cfg)
        div_B, div_E = staggered_divergences(state, nxt)
        worst = max(worst, div_B, div_E)
        state = nxt
    assert worst <= 1e-12, worst


def test_planar_wave_returns_after_one_period():
    """20x20 smoke test of the full scheme against the travelling wave.

    After t = sqrt(2) the exact solution equals the initial data; the
    second-order scheme at this resolution lands within a few percent.
    """
    g = Grid2D(20, 20, -1.0, 1.0, -1.0, 1.0)
    params = ModelParams()
    fields = ic_planar(g, SIMM_LOCATIONS)
    state = StaggeredState(g, params, fields["B"], fields["psi"],
                           fields["E"], fields["phi"])
    t_end = math.sqrt(2.0)
    dt0 = 0.9 / (params.c0 / g.dx + params.c0 / g.dy)
    cfg = CGConfig(tol=1e-12)
    while state.t < t_end - 1e-12:
        state = simm_step(state, min(dt0, t_end - state.t), cfg)
    err_B1 = l2_norm(g, state.B_c[..., 0] - fields["B"][..., 0])
    assert 1.5e-2 < err_B1 < 6e-2, err_B1


# --- energy functional and state ------------------------------------------

def test_total_energy_examples():
    g = Grid2D(10, 10, -1.0, 1.0, -1.0, 1.0)
    params = ModelParams()
    shp = (g.nx, g.ny)
    zero = StaggeredState(g, params, np.zeros(shp + (3,)), np.zeros(shp),
                          np.zeros(shp + (3,)), np.zeros(shp))
    assert total_energy_staggered(zero) == 0.0
    # |B| = 1 everywhere on a domain of area 4 -> energy 2
    ez = StaggeredState(g, params, np.tile([0.0, 0.0, 1.0], shp + (1,)),
                        np.zeros(shp), np.zeros(shp + (3,)), np.zeros(shp))
    assert total_energy_staggered(ez) == pytest.approx(2.0)


def test_total_energy_matches_direct_sum():
    g = Grid2D(7, 9, 0.0, 2.0, -1.0, 1.0)
    state = _random_state(g, ModelParams(), seed=7)
    direct = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            direct += 0.5 * (np.sum(state.B_c[i, j] ** 2) + state.psi_c[i, j] ** 2
                             + np.sum(state.E_p[i, j] ** 2) + state.phi_p[i, j] ** 2)
    assert total_energy_staggered(state) == pytest.approx(g.cell_volume * direct)


def test_state_validates_shapes():
    g = _grid(8)
    shp = (g.nx, g.ny)
    with pytest.raises(ValueError, match="do not fit"):
        StaggeredState(g, ModelParams(), np.zeros(shp + (2,)), np.zeros(shp),
                       np.zeros(shp + (3,)), np.zeros(shp))

"""Tests for the collocated finite volume scheme and its compatible flux."""

import numpy as np
import pytest

from maxglm.grid import Grid2D
from maxglm.htc import FVState, abgrall_flux, cfl_dt, rk_step, semidiscrete_rhs
from maxglm.model import (
    EnergyModel,
    ModelParams,
    energy_density,
    energy_flux,
    main_field,
    physical_flux,
)
from maxglm.tableaux import DP8, RK4, get_tableau

X_NORMAL = (1.0, 0.0)
Y_NORMAL = (0.0, 1.0)


def _models(c0=1.0, ch=1.0):
    params = ModelParams(c0=c0, ch=ch)
    return EnergyModel("quadratic", params), EnergyModel("exponential", params)


@pytest.mark.parametrize("normal", [X_NORMAL, Y_NORMAL])
def test_flux_consistency(normal):
    """Equal states on both sides reproduce the physical flux exactly."""
    rng = np.random.default_rng(3)
    q = rng.normal(size=(50, 8))
    k = 1 if normal == X_NORMAL else 2
    for model in _models(c0=1.2, ch=0.7):
        fhat = abgrall_flux(q, q, normal, model)
        assert np.array_equal(fhat, physical_flux(q, model, k))


def test_flux_antisymmetry():
    # swapping the sides and flipping the normal must negate the flux,
    # otherwise two neighbouring cells would disagree about their shared face
    rng = np.random.default_rng(4)
    qL = rng.normal(size=(40, 8))
    qR = rng.normal(size=(40, 8))
    for model in _models():
        fwd = abgrall_flux(qL, qR, X_NORMAL, model)
        bwd = abgrall_flux(qR, qL, (-1.0, 0.0), model)
        assert np.array_equal(bwd, -fwd)


@pytest.mark.parametrize("normal,k", [(X_NORMAL, 1), (Y_NORMAL, 2)])
def test_flux_compatibility(normal, k):
    """pL.(fhat - fL) + pR.(fR - fhat) == FR - FL, the whole point of the flux.

    Relative residual: non-unit speeds with the exponential potential push the
    flux magnitudes to 1e4 and beyond, so roundoff scales with the terms.
    """
    rng = np.random.default_rng(5)
    qL = rng.normal(size=(500, 8))
    qR = rng.normal(size=(500, 8))
    for model in _models(c0=2.0, ch=5.0):
        fhat = abgrall_flux(qL, qR, normal, model)
        pL = main_field(qL, model)
        pR = main_field(qR, model)
        tL = pL * (fhat - physical_flux(qL, model, k))
        tR = pR * (physical_flux(qR, model, k) - fhat)
        lhs = np.sum(tL, axis=-1) + np.sum(tR, axis=-1)
        FL = energy_flux(qL, model, k)
        FR = energy_flux(qR, model, k)
        scale = (1.0 + np.sum(np.abs(tL), axis=-1) + np.sum(np.abs(tR), axis=-1)
                 + np.abs(FL) + np.abs(FR))
        assert np.max(np.abs(lhs - (FR - FL)) / scale) <= 1e-13


def test_flux_pure_jump_in_phi():
    """Hand-computed face: phi=1 on the left, vacuum on the right.

    The compatibility numerator vanishes for this pair, so the correction is
    off and the result is the plain central flux ch/2 in the B1 slot.
    """
    model = EnergyModel("quadratic", ModelParams(c0=1.0, ch=2.0))
    qL = np.zeros(8)
    qL[3] = 1.0
    qR = np.zeros(8)
    fhat = abgrall_flux(qL, qR, X_NORMAL, model)
    expected = np.zeros(8)
    expected[0] = 1.0  # ch/2
    assert np.allclose(fhat, expected, atol=1e-15)


def _smooth_state(grid, model, seed=0):
    X, Y = grid.cell_centers()
    rng = np.random.default_rng(seed)
    q = np.empty((grid.nx, grid.ny, 8))
    for s in range(8):
        ax, ay, bx, by = rng.normal(size=4)
        q[..., s] = ax * np.sin(2 * np.pi * X) + ay * np.cos(2 * np.pi * Y) + 0.1 * bx * by
    return FVState(grid, model, q)


def test_rhs_uniform_state_is_zero():
    grid = Grid2D(12, 10, -1.0, 1.0, -1.0, 1.0)
    for model in _models():
        q = np.tile(np.arange(1.0, 9.0), (grid.nx, grid.ny, 1))
        rhs = semidiscrete_rhs(FVState(grid, model, q))
        assert np.array_equal(rhs, np.zeros_like(q))


def test_rhs_componentwise_conservation():
    # periodic telescoping: the volume-weighted rhs sums to zero per component
    grid = Grid2D(16, 16, -1.0, 1.0, -1.0, 1.0)
    for model in _models(c0=1.0, ch=2.0):
        state = _smooth_state(grid, model, seed=11)
        totals = grid.cell_volume * np.sum(semidiscrete_rhs(state), axis=(0, 1))
        assert np.max(np.abs(totals)) <= 1e-12


@pytest.mark.parametrize("kind,scale", [("quadratic", 1.0), ("exponential", 0.5)])
def test_rhs_zero_energy_production(kind, scale):
    """sum |Omega| p.rhs = 0: the compatible flux conserves the semi-discrete energy."""
    grid = Grid2D(16, 16, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel(kind, ModelParams(c0=1.0, ch=2.0))
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        q = rng.normal(scale=scale, size=(grid.nx, grid.ny, 8))
        state = FVState(grid, model, q)
        rhs = semidiscrete_rhs(state)
        p = main_field(q, model)
        production = grid.cell_volume * np.sum(p * rhs)
        scale_ref = max(1.0, grid.cell_volume * np.sum(energy_density(q, model)))
        worst = max(worst, abs(production) / scale_ref)
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("amplitude", [1.5, 2.0])
def test_rhs_energy_production_is_roundoff_at_large_amplitude(amplitude):
    """sum p.rhs stays at roundoff of its own terms for large exponential states.

    A correction alpha = num/|p_r - p_l|^2 evaluated on faces where num is
    pure roundoff amplifies that roundoff for large states; the production
    must stay at the level of the cancelling terms sum |p|.|rhs|.
    """
    grid = Grid2D(16, 16, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("exponential", ModelParams(c0=1.0, ch=2.0))
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        q = rng.normal(scale=amplitude, size=(grid.nx, grid.ny, 8))
        rhs = semidiscrete_rhs(FVState(grid, model, q))
        p = main_field(q, model)
        worst = max(worst, abs(np.sum(p * rhs)) / np.sum(np.abs(p) * np.abs(rhs)))
    assert worst <= 1e-14, worst


def _two_flux_rhs(state):
    """The face-by-face form: one compatible flux per face direction."""
    g = state.grid
    q = state.q
    # face i+1/2: left state is cell i, right state is cell i+1 (periodic)
    fx = abgrall_flux(q, np.roll(q, -1, axis=0), X_NORMAL, state.model)
    fy = abgrall_flux(q, np.roll(q, -1, axis=1), Y_NORMAL, state.model)
    # |face|/|Omega| = 1/dx for x-faces, 1/dy for y-faces
    return -((fx - np.roll(fx, 1, axis=0)) / g.dx + (fy - np.roll(fy, 1, axis=1)) / g.dy)


def _gaussian_state(grid, model, amplitude):
    X, Y = grid.cell_centers()
    bump = np.exp(-((X - 0.1) ** 2 + (Y + 0.2) ** 2) / (2 * 0.2 ** 2))
    weights = np.array([0.3, -0.7, 1.0, 0.4, 0.9, -0.5, 0.8, -0.6])
    return FVState(grid, model, amplitude * bump[..., None] * weights)


@pytest.mark.parametrize("kind", ["quadratic", "exponential"])
@pytest.mark.parametrize("amplitude", [0.1, 0.5])
def test_rhs_matches_face_flux_form(kind, amplitude):
    """The central-difference RHS is the compatible flux differenced per cell."""
    grid = Grid2D(48, 40, -1.0, 1.0, -1.0, 0.5)
    assert grid.dx != grid.dy
    model = EnergyModel(kind, ModelParams(c0=1.0, ch=1.7))
    states = [_gaussian_state(grid, model, amplitude)]
    rng = np.random.default_rng(31)
    states.append(FVState(grid, model, rng.normal(scale=amplitude, size=(48, 40, 8))))
    for state in states:
        ref = _two_flux_rhs(state)
        rhs = semidiscrete_rhs(state)
        assert np.max(np.abs(rhs - ref)) <= 1e-13 * np.max(np.abs(ref))


def _list_rk_step(state, dt, tab):
    """Reference Runge-Kutta step with one fresh array per stage product."""
    a, b, c = tab.a, tab.b, tab.c
    q0, t0 = state.q, state.t
    k = []
    for i in range(tab.stages):
        qi = q0
        for j in range(i):
            if a[i, j] != 0.0:
                qi = qi + (dt * a[i, j]) * k[j]
        k.append(semidiscrete_rhs(state.copy_with(qi, t0 + c[i] * dt)))
    qn = q0
    for i in range(tab.stages):
        if b[i] != 0.0:
            qn = qn + (dt * b[i]) * k[i]
    return state.copy_with(qn, t0 + dt)


@pytest.mark.parametrize("tab", [RK4, DP8], ids=["rk4", "dp8"])
@pytest.mark.parametrize("kind", ["quadratic", "exponential"])
def test_rk_step_matches_list_based_loop(tab, kind):
    grid = Grid2D(16, 12, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel(kind, ModelParams(c0=1.0, ch=1.5))
    state = _smooth_state(grid, model, seed=7)
    state.q *= 0.5
    q_before = state.q.copy()
    new = rk_step(state, 0.01, tab)
    ref = _list_rk_step(state, 0.01, tab)
    assert np.array_equal(new.q, ref.q)
    assert new.t == ref.t
    assert np.array_equal(state.q, q_before)  # the input state is untouched
    assert not np.shares_memory(new.q, state.q)


def test_cfl_dt_examples():
    grid = Grid2D(10, 10, 0.0, 1.0, 0.0, 1.0)
    params = ModelParams(c0=1.0, ch=10.0)
    assert cfl_dt(grid, params, 0.9) == pytest.approx(0.045)


@pytest.mark.parametrize("cfl", [0.0, -0.5, 1.5])
def test_cfl_dt_rejects_bad_cfl(cfl):
    grid = Grid2D(10, 10, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cfl_dt(grid, ModelParams(), cfl)


def test_rk_step_uniform_state_unchanged():
    grid = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("quadratic", ModelParams())
    q = np.full((8, 8, 8), 0.3)
    new = rk_step(FVState(grid, model, q), 0.01, get_tableau("rk4"))
    assert np.array_equal(new.q, q)
    assert new.t == pytest.approx(0.01)


def test_rk_step_rejects_nonpositive_dt():
    grid = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("quadratic", ModelParams())
    state = FVState(grid, model, np.zeros((8, 8, 8)))
    with pytest.raises(ValueError):
        rk_step(state, 0.0, get_tableau("rk4"))


def test_rk_step_temporal_order():
    """Self-convergence in dt alone (fixed mesh) shows the RK4 rate."""
    grid = Grid2D(16, 16, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("quadratic", ModelParams())
    tab = get_tableau("rk4")

    def advance(n_steps):
        state = _smooth_state(grid, model, seed=2)
        dt = 0.2 / n_steps
        for _ in range(n_steps):
            state = rk_step(state, dt, tab)
        return state.q

    q1, q2, q4 = advance(4), advance(8), advance(16)
    e1 = np.max(np.abs(q1 - q2))
    e2 = np.max(np.abs(q2 - q4))
    order = np.log2(e1 / e2)
    assert order > 3.5, (e1, e2, order)


def test_fvstate_validates_shape():
    grid = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("quadratic", ModelParams())
    with pytest.raises(ValueError, match="does not fit"):
        FVState(grid, model, np.zeros((8, 7, 8)))

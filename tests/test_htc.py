"""Tests for the collocated finite volume scheme and its compatible flux."""

import itertools

import numpy as np
import pytest

from maxglm.diagnostics import collocated_divergence
from maxglm.grid import Grid2D, l2_norm
from maxglm.harness import ic_planar
from maxglm.htc import _central_difference, abgrall_flux, cfl_dt, rk_step, semidiscrete_rhs
from maxglm.model import (
    EnergyModel,
    ModelParams,
    State,
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
    return State(grid, model, q)


def test_rhs_uniform_state_is_zero():
    grid = Grid2D(12, 10, -1.0, 1.0, -1.0, 1.0)
    for model in _models():
        q = np.tile(np.arange(1.0, 9.0), (grid.nx, grid.ny, 1))
        rhs = semidiscrete_rhs(State(grid, model, q))
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
        state = State(grid, model, q)
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
        rhs = semidiscrete_rhs(State(grid, model, q))
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
    return State(grid, model, amplitude * bump[..., None] * weights)


@pytest.mark.parametrize("kind", ["quadratic", "exponential"])
@pytest.mark.parametrize("amplitude", [0.1, 0.5])
def test_rhs_matches_face_flux_form(kind, amplitude):
    """The central-difference RHS is the compatible flux differenced per cell."""
    grid = Grid2D(48, 40, -1.0, 1.0, -1.0, 0.5)
    assert grid.dx != grid.dy
    model = EnergyModel(kind, ModelParams(c0=1.0, ch=1.7))
    states = [_gaussian_state(grid, model, amplitude)]
    rng = np.random.default_rng(31)
    states.append(State(grid, model, rng.normal(scale=amplitude, size=(48, 40, 8))))
    for state in states:
        ref = _two_flux_rhs(state)
        rhs = semidiscrete_rhs(state)
        assert np.max(np.abs(rhs - ref)) <= 1e-13 * np.max(np.abs(ref))


def _roll_difference(p, axis, h):
    """Periodic central difference from two rolled copies: the reference form."""
    return (np.roll(p, -1, axis=axis) - np.roll(p, 1, axis=axis)) / (2.0 * h)


def _bitwise_equal(a, b):
    """Same shape and values, NaNs equal, and the same sign on every zero."""
    return (np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("nx,ny,y_max", [(24, 16, 0.5), (80, 80, 1.0)])
@pytest.mark.parametrize("amplitude", [1e-3, 0.1, 1.0, 2.0])
def test_rhs_and_divergence_match_roll_difference(nx, ny, y_max, amplitude):
    grid = Grid2D(nx, ny, -1.0, 1.0, -1.0, y_max)
    rng = np.random.default_rng(17)
    noisy = amplitude * rng.standard_normal((nx, ny, 8))
    noisy[..., 6] = 0.0 * noisy[..., 6]  # signed zeros in E3 must come through unchanged
    # on a square grid the plane wave's x and y differences cancel exactly in
    # some cells, where -(a + b) and (-a) + (-b) differ in the sign of zero
    planar = ic_planar(grid)
    for model, q in itertools.product(_models(c0=1.0, ch=1.7), (noisy, planar)):
        state = State(grid, model, q)
        mats = model.matrices
        p = main_field(q, model)
        ref = -(_roll_difference(p, 0, grid.dx) @ mats.H1
                + _roll_difference(p, 1, grid.dy) @ mats.H2)
        assert _bitwise_equal(semidiscrete_rhs(state), ref)
        for field, u in (("B", q[..., 0:3]), ("E", q[..., 4:7])):
            div = (_roll_difference(u[..., 0], 0, grid.dx)
                   + _roll_difference(u[..., 1], 1, grid.dy))
            assert collocated_divergence(state, field) == l2_norm(grid, div)


@pytest.mark.parametrize("axis", [0, 1])
def test_central_difference_into_buffer(axis):
    rng = np.random.default_rng(19)
    for shape in ((7, 5, 8), (2, 3)):
        p = rng.standard_normal(shape)
        p_before = p.copy()
        out = np.full(shape, np.nan)
        got = _central_difference(p, axis, 0.1, out=out)
        assert got is out
        assert _bitwise_equal(out, _roll_difference(p, axis, 0.1))
        assert _bitwise_equal(p, p_before)


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
        k.append(semidiscrete_rhs(State(state.grid, state.model, qi, t0 + c[i] * dt)))
    qn = q0
    for i in range(tab.stages):
        if b[i] != 0.0:
            qn = qn + (dt * b[i]) * k[i]
    return State(state.grid, state.model, qn, t0 + dt)


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
    new = rk_step(State(grid, model, q), 0.01, get_tableau("rk4"))
    assert np.array_equal(new.q, q)
    assert new.t == pytest.approx(0.01)


def test_fvstate_validates_shape():
    """The collocated scheme's state is the single State: q must be (nx, ny, 8)."""
    grid = Grid2D(8, 6, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("quadratic", ModelParams())
    with pytest.raises(ValueError, match="does not fit"):
        State(grid, model, np.zeros((6, 8, 8)))  # transposed cell grid
    with pytest.raises(ValueError, match="does not fit"):
        State(grid, model, np.zeros((8, 6, 9)))
    new = rk_step(State(grid, model, np.zeros((8, 6, 8))), 0.01, get_tableau("rk4"))
    assert new.q.shape == (8, 6, 8)


def test_rk_step_rejects_nonpositive_dt():
    grid = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    model = EnergyModel("quadratic", ModelParams())
    state = State(grid, model, np.zeros((8, 8, 8)))
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

"""Tests for the staggered semi-implicit scheme and its CG solver."""

import math

import numpy as np
import pytest
import reference_ops as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from maxglm import simm
from maxglm.diagnostics import staggered_divergences, total_energy
from maxglm.grid import Grid2D, l2_norm
from maxglm.harness import SIMM_LOCATIONS, ic_gaussian, ic_planar
from maxglm.model import FIELDS, EnergyModel, ModelParams, State
from maxglm.simm import (
    NonConvergence,
    apply_E_operator,
    apply_phi_operator,
    cg_solve,
    simm_step,
    workspace,
)


def _grid(n=16):
    return Grid2D(n, n, -1.0, 1.0, -1.0, 1.0)


def _state(grid, params, q):
    return State(grid, EnergyModel("quadratic", params), q)


def _random_state(grid, params, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return _state(grid, params, rng.normal(scale=scale, size=(grid.nx, grid.ny, 8)))


# --- implicit operators ----------------------------------------------------

def _operators(g, params, dt):
    """The three implicit solves' operators: phi, (E1, E2), and E3 at c0."""
    return ((lambda u: apply_phi_operator(g, params, dt, u), (g.nx, g.ny)),
            (lambda u: apply_E_operator(g, params, dt, u), (g.nx, g.ny, 2)),
            (lambda u: apply_phi_operator(g, params, dt, u, speed=params.c0), (g.nx, g.ny)))


def test_operators_fix_constants():
    g = _grid()
    params = ModelParams(c0=1.0, ch=3.0)
    phi = np.full((g.nx, g.ny), 0.7)
    E = np.tile([0.2, -0.1], (g.nx, g.ny, 1))
    for apply_op, shape in _operators(g, params, 0.1):
        u = E if shape == E.shape else phi
        assert np.array_equal(apply_op(u), u)


def test_operators_reduce_to_identity_at_dt_zero():
    g = _grid()
    rng = np.random.default_rng(1)
    for apply_op, shape in _operators(g, ModelParams(), 0.0):
        u = rng.normal(size=shape)
        assert np.array_equal(apply_op(u), u)


@pytest.mark.parametrize("dt,ch", [(0.05, 1.0), (1e-2, 1e2), (1e-2, 1e5)])
def test_operators_symmetric_positive_definite(dt, ch):
    """All three Schur operators must be SPD even for stiff dt*ch, or CG is invalid."""
    g = _grid(12)
    params = ModelParams(c0=1.0, ch=ch)
    rng = np.random.default_rng(2)
    for apply_op, shape in _operators(g, params, dt):
        for _ in range(25):
            u = rng.normal(size=shape)
            v = rng.normal(size=shape)
            Au = apply_op(u)
            Av = apply_op(v)
            # exactly rounded sums, so only the operator's own rounding shows
            uAv = math.fsum((u * Av).ravel().tolist())
            vAu = math.fsum((v * Au).ravel().tolist())
            scale = max(abs(uAv), abs(vAu), 1.0)
            assert abs(uAv - vAu) / scale <= 1e-13
            # definiteness: the correction terms only ever add energy
            quad = simm._dot(u, Au)
            assert quad >= simm._dot(u, u) * (1.0 - 1e-12)


@pytest.mark.parametrize("ch", [1.0, 7.0, 1e5])
@pytest.mark.parametrize("shape", ref.GRIDS)
def test_operators_match_roll_reference_bitwise(shape, ch):
    """The pair and scalar operators are bitwise the rows of the 3-vector composition.

    In 2D the z row of the vector wave operator reads only E3 and equals the
    phi operator at c0 (up to the sign of a zero result), and its x and y
    rows read only E1 and E2, so the split E solve is exact.
    """
    g = Grid2D(*shape)
    params = ModelParams(c0=1.0, ch=ch)
    phi, planted = ref.planted_fields(g, 14)  # E3 planted as signed zeros
    random_z = planted.copy()
    random_z[..., 2] = np.random.default_rng(15).standard_normal((g.nx, g.ny))
    for dt in (1e-2, 0.3):
        assert ref.same_bits(apply_phi_operator(g, params, dt, phi),
                             ref.phi_operator(g, params, dt, phi))
        full = ref.E_operator(g, params, dt, random_z)
        assert ref.same_bits(apply_E_operator(g, params, dt, random_z[..., :2]), full[..., :2])
        assert ref.same_bits(
            apply_phi_operator(g, params, dt, random_z[..., 2], speed=params.c0), full[..., 2])
        # on signed zeros the z row of the composition and the scalar operator
        # differ in the sign of zero only; the scalar one keeps its own bits
        assert ref.same_bits(
            apply_phi_operator(g, params, dt, planted[..., 2], speed=params.c0),
            ref.phi_operator(g, params, dt, planted[..., 2], speed=params.c0))


def test_operator_workspace_is_reusable_and_private():
    g = Grid2D(24, 16, -1.0, 1.0, -1.0, 0.5)
    params = ModelParams(c0=1.0, ch=7.0)
    rng = np.random.default_rng(15)
    work = workspace(g)
    for apply_op, shape in ((apply_phi_operator, (g.nx, g.ny)),
                            (apply_E_operator, (g.nx, g.ny, 2))):
        for _ in range(2):  # the second call finds the first one's data
            u = rng.normal(size=shape)
            before = u.copy()
            got = apply_op(g, params, 0.05, u, work)
            assert ref.same_bits(got, apply_op(g, params, 0.05, u))
            assert ref.same_bits(u, before)
            assert not any(np.shares_memory(got, buf) for buf in work)


# --- conjugate gradient ----------------------------------------------------

def test_cg_identity_operator_one_iteration():
    applies = []

    def identity(u):
        applies.append(1)
        return u

    b = np.random.default_rng(3).normal(size=(8, 8))
    x = cg_solve(identity, b, tol=1e-12)
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
    x = cg_solve(lambda u: diag * u, b, tol=1e-13)
    assert np.max(np.abs(x - b / diag)) <= 1e-11


def test_cg_nonconvergence_carries_progress():
    g = _grid(10)
    params = ModelParams(c0=1.0, ch=50.0)
    b = np.random.default_rng(5).normal(size=(g.nx, g.ny))
    with pytest.raises(NonConvergence) as info:
        cg_solve(lambda u: apply_phi_operator(g, params, 0.5, u), b,
                 tol=1e-14, maxiter=2)
    assert info.value.iterations == 2
    assert info.value.residual > 0.0
    assert "did not converge" in str(info.value)


def test_cg_stops_when_true_residual_stagnates():
    # at dt*ch = 1e3 rounding keeps the true residual near 1e-9 relative, so
    # tol=1e-12 with no operator norm (op_norm 1, no rounding floor to speak
    # of) is out of reach: restarts stop improving, and CG must say so
    # instead of restarting up to its iteration cap
    g = _grid(16)
    params = ModelParams(c0=1.0, ch=1e5)
    b = np.random.default_rng(0).normal(size=(g.nx, g.ny, 2))
    applies = []

    def apply_op(u):
        applies.append(1)
        return apply_E_operator(g, params, 1e-2, u)

    with pytest.raises(NonConvergence) as info:
        cg_solve(apply_op, b, tol=1e-12)
    assert len(applies) <= 250
    assert info.value.residual > 1e-12


def _noisy_diagonal(noise, seed=17):
    """A diagonal SPD operator whose every application adds relative noise."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.5, 3.0, size=(10, 10))
    return diag, lambda u: diag * u * (1.0 + noise * rng.standard_normal(u.shape))


def test_cg_returns_at_the_rounding_floor():
    """A solve whose true residual stalls at 1e-14 relative returns its iterate.

    tol=1e-15 and the floor term (1e-16 of ||b|| + 3 ||x||) are both out of
    reach, so restarts stop improving; the residual meets the stop with 1e-12
    in place of the floor, so x is returned, and it is accurate to the noise.
    """
    diag, apply_op = _noisy_diagonal(1e-14)
    b = np.random.default_rng(18).normal(size=(10, 10))
    x = cg_solve(apply_op, b, tol=1e-15, op_norm=3.0)
    assert np.linalg.norm(diag * x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_raises_above_the_rounding_floor():
    """Noise of 1e-9 relative is far above any floor: CG must not return."""
    _, apply_op = _noisy_diagonal(1e-9)
    b = np.random.default_rng(18).normal(size=(10, 10))
    with pytest.raises(NonConvergence) as info:
        cg_solve(apply_op, b, tol=1e-15, op_norm=3.0)
    assert info.value.residual > 1e-12


def test_cg_stiff_solve_stops_at_its_rounding_floor():
    """With its operator-norm bound the stiff solve above converges, backward stable.

    ||A|| <= 1 + (dt ch/2)^2 (4/dx^2 + 4/dy^2); the returned x has a normwise
    backward error ||r|| / (||b|| + ||A|| ||x||) at rounding level.
    """
    g = _grid(16)
    params = ModelParams(c0=1.0, ch=1e5)
    dt = 1e-2
    norm = 1.0 + (0.5 * dt * params.ch) ** 2 * (4.0 / g.dx ** 2 + 4.0 / g.dy ** 2)
    b = np.random.default_rng(0).normal(size=(g.nx, g.ny, 2))
    x = cg_solve(lambda u: apply_E_operator(g, params, dt, u), b, tol=1e-12, op_norm=norm)
    r = apply_E_operator(g, params, dt, x) - b
    backward = np.linalg.norm(r) / (np.linalg.norm(b) + norm * np.linalg.norm(x))
    assert backward <= 1e-15, backward


@pytest.mark.parametrize("ch", [1.0, 1e3])
def test_cg_matches_dense_solve(ch):
    """CG against LAPACK on the column-by-column assembled operators (dx != dy).

    At dt = 0.05 the condition numbers are 1.03 (ch=1, and E3 at c0) and
    2.5e4 (ch=1e3).  Over 200 right-hand sides per case the worst relative
    error was 1.6e-12 (the in-plane E operator at ch=1e3); the bound below
    leaves a margin of about 6.
    """
    g = Grid2D(6, 5, -1.0, 1.0, -1.0, 0.5)
    params = ModelParams(c0=1.0, ch=ch)
    dt = 0.05
    rng = np.random.default_rng(16)
    for apply_op, shape in _operators(g, params, dt):
        n = math.prod(shape)
        A = np.empty((n, n))
        for j, e in enumerate(np.eye(n)):
            A[:, j] = apply_op(e.reshape(shape)).ravel()
        for _ in range(10):
            b = rng.normal(size=shape)
            x = cg_solve(apply_op, b)
            want = np.linalg.solve(A, b.ravel()).reshape(shape)
            assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)


def test_stiff_step_matches_allocating_reference(monkeypatch):
    """simm_step, its fused operators and in-place CG against the np.roll step."""
    # dx != dy, and x / (2h) differs from x * (1 / (2h)) for both spacings
    g = Grid2D(16, 16, -1.1, 1.1, -1.25, 1.25)
    params = ModelParams(c0=1.0, ch=1e5)
    state = _state(g, params, ic_gaussian(g, "ap", locations=SIMM_LOCATIONS))
    applies = {"phi": 0, "E": 0}
    for name in applies:
        original = getattr(simm, "apply_%s_operator" % name)

        def counted(*args, _name=name, _original=original, **kwargs):
            applies[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(simm, "apply_%s_operator" % name, counted)
    new = simm_step(state, 1e-2)
    ref_applies = {"phi": 0, "E": 0}
    expected = ref.step(state, 1e-2, ref_applies)
    for slots, want in zip(FIELDS.values(), expected):
        assert ref.same_bits(new.q[..., slots], want)
    assert applies == ref_applies


# --- stepping --------------------------------------------------------------

def test_step_keeps_uniform_state_exactly():
    g = _grid(8)
    params = ModelParams(c0=1.0, ch=2.0)
    # (B, phi, E, psi) = ((0.1, -0.2, 1), -0.8, (0.3, 0, -0.5), 0.4)
    q = np.tile([0.1, -0.2, 1.0, -0.8, 0.3, 0.0, -0.5, 0.4], (g.nx, g.ny, 1))
    state = _state(g, params, q)
    new = simm_step(state, 0.07)
    assert np.array_equal(new.q, state.q)
    assert new.t == pytest.approx(0.07)


def test_step_rejects_nonpositive_dt():
    state = _random_state(_grid(8), ModelParams())
    with pytest.raises(ValueError):
        simm_step(state, 0.0)


def test_step_conserves_energy_for_random_data():
    """Midpoint-in-time staggering conserves the discrete energy for any dt."""
    g = _grid(24)
    state = _random_state(g, ModelParams(c0=1.0, ch=1.0), seed=6, scale=0.1)
    e0 = total_energy(state)
    for _ in range(20):
        state = simm_step(state, 0.05, tol=1e-13)
        drift = abs(total_energy(state) - e0) / e0
        assert drift <= 1e-10, drift


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-3.0, 0.0),
       log_dt_ch=st.floats(-2.0, 3.0), log_scale=st.floats(-3.0, 1.0))
def test_one_step_conserves_energy_at_any_stiffness(seed, log_dt, log_dt_ch, log_scale):
    """One step on random 8x6 data, dt*ch from 1e-2 to 1e3, CG tol 1e-12.

    The step solves for the half-time averages w, and CG keeps its residual
    orthogonal to w, so the energy error does not grow with the stiffness
    (dt ch)^2 (1/dx^2 + 1/dy^2) of the implicit operators nor with CG's
    tolerance.  Over 24000 random cases the relative drift stayed below
    5.1e-13, so the bound below leaves a margin of about 10.
    """
    g = Grid2D(8, 6, -1.0, 1.0, -1.0, 1.0)
    dt, dt_ch = 10.0 ** log_dt, 10.0 ** log_dt_ch
    q = 10.0 ** log_scale * np.random.default_rng(seed).normal(size=(8, 6, 8))
    state = _state(g, ModelParams(c0=1.0, ch=dt_ch / dt), q)
    drift = abs(total_energy(simm_step(state, dt)) / total_energy(state) - 1.0)
    assert drift <= 5e-12, drift


def test_step_preserves_zero_divergence():
    # out-of-plane gaussian data: both divergences start at zero and the
    # mimetic identities keep them there step after step
    g = Grid2D(24, 24, -1.0, 1.0, -1.0, 1.0)
    params = ModelParams()
    state = _state(g, params, ic_gaussian(g, "t1", locations=SIMM_LOCATIONS))
    worst = 0.0
    for _ in range(10):
        nxt = simm_step(state, 0.05)
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
    q0 = ic_planar(g, SIMM_LOCATIONS)
    state = _state(g, params, q0)
    t_end = math.sqrt(2.0)
    dt0 = 0.9 / (params.c0 / g.dx + params.c0 / g.dy)
    while state.t < t_end - 1e-12:
        state = simm_step(state, min(dt0, t_end - state.t))
    err_B1 = l2_norm(g, state.q[..., 0] - q0[..., 0])
    assert 1.5e-2 < err_B1 < 6e-2, err_B1


# --- energy functional and state ------------------------------------------

def test_total_energy_examples():
    g = Grid2D(10, 10, -1.0, 1.0, -1.0, 1.0)
    params = ModelParams()
    q = np.zeros((g.nx, g.ny, 8))
    assert total_energy(_state(g, params, q)) == 0.0
    # |B| = 1 everywhere on a domain of area 4 -> energy 2
    q[..., 2] = 1.0
    assert total_energy(_state(g, params, q)) == pytest.approx(2.0)


def test_state_validates_shapes():
    """The staggered fields share one (nx, ny, 8) array; a lone field does not fit."""
    g = _grid(8)
    shp = (g.nx, g.ny)
    with pytest.raises(ValueError, match="does not fit"):
        _state(g, ModelParams(), np.zeros(shp + (2,)))  # B alone
    with pytest.raises(ValueError, match="does not fit"):
        _state(g, ModelParams(), np.zeros((g.nx + 1, g.ny, 8)))
    new = simm_step(_state(g, ModelParams(), np.zeros(shp + (8,))), 0.05)
    assert new.q.shape == shp + (8,)


def test_total_energy_matches_direct_sum():
    g = Grid2D(7, 9, 0.0, 2.0, -1.0, 1.0)
    state = _random_state(g, ModelParams(), seed=7)
    direct = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            # cells (B, psi) and vertices (E, phi) weigh the same dx*dy
            direct += 0.5 * sum(v * v for v in state.q[i, j])
    assert total_energy(state) == pytest.approx(g.cell_volume * direct)

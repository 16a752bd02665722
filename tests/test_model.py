"""Model-level tests: energies, main field, fluxes, system matrices.

The flux oracles here are written out component by component from the PDE
(curl terms with c0, grad/div coupling with ch) so they do not reuse the
matrix assembly they are checking.
"""

import numpy as np
import pytest

from maxglm.grid import Grid2D
from maxglm.model import (EnergyModel, ModelParams, State, assemble_matrices,
                          energy_density, energy_flux, main_field,
                          physical_flux)


def state_vector(B=(0.0, 0.0, 0.0), phi=0.0, E=(0.0, 0.0, 0.0), psi=0.0):
    """q = (B1, B2, B3, phi, E1, E2, E3, psi) from its named parts."""
    return np.array([*B, phi, *E, psi], dtype=float)


def quad_model(c0=1.0, ch=1.0):
    return EnergyModel("quadratic", ModelParams(c0, ch))


def exp_model(c0=1.0, ch=1.0):
    return EnergyModel("exponential", ModelParams(c0, ch))


# --- energy density ---------------------------------------------------------

def test_energy_density_zero_state():
    assert energy_density(np.zeros(8), quad_model()) == 0.0


def test_energy_density_unit_fields_quadratic():
    q = state_vector(B=(1, 0, 0), E=(0, 1, 0))
    assert energy_density(q, quad_model()) == pytest.approx(1.0)


def test_energy_density_zero_state_exponential():
    # measured from the vacuum value 2 c0 + 2 ch^2/c0, so exactly 0 at q = 0
    assert energy_density(np.zeros(8), exp_model(1.0, 2.0)) == 0.0


def test_energy_density_positive_exponential():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((50, 8))
    assert np.all(energy_density(q, exp_model(1.0, 2.0)) > 0.0)


# --- main field --------------------------------------------------------------

def test_main_field_is_identity_for_quadratic():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((10, 8))
    assert np.array_equal(main_field(q, quad_model()), q)


def test_main_field_zero_for_exponential_at_origin():
    assert np.array_equal(main_field(np.zeros(8), exp_model()), np.zeros(8))


@pytest.mark.parametrize("make", [quad_model, exp_model])
def test_main_field_matches_energy_gradient(make):
    # independent oracle: centered finite differences of energy_density
    model = make(1.0, 2.0)
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(20):
        q = rng.normal(0.0, 0.7, size=8)
        p = main_field(q, model)
        for i in range(8):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (energy_density(qp, model) - energy_density(qm, model)) / (2 * h)
            assert p[i] == pytest.approx(fd, rel=1e-7, abs=1e-9)


# --- equivalence with the per-slice formulas -----------------------------------

def _per_slice_energy_density(q, model):
    """E(q) with np.sum over each 3-vector: the reference the fast form must match.

    The exponential terms use expm1, the energy above its vacuum value.
    """
    B2 = np.sum(q[..., 0:3] * q[..., 0:3], axis=-1)
    E2 = np.sum(q[..., 4:7] * q[..., 4:7], axis=-1)
    phi, psi = q[..., 3], q[..., 7]
    if model.kind == "quadratic":
        return 0.5 * (B2 + E2) + 0.5 * (phi * phi + psi * psi)
    c0, ch = model.params.c0, model.params.ch
    w = ch * ch / c0
    return (c0 * np.expm1(0.5 * B2) + c0 * np.expm1(0.5 * E2)
            + w * np.expm1(0.5 * phi * phi) + w * np.expm1(0.5 * psi * psi))


def _per_slice_main_field(q, model):
    """p(q) with np.sum over each 3-vector and one exp per field."""
    if model.kind == "quadratic":
        return q.copy()
    c0, ch = model.params.c0, model.params.ch
    w = ch * ch / c0
    p = np.empty_like(q)
    for v in (slice(0, 3), slice(4, 7)):
        p[..., v] = c0 * np.exp(0.5 * np.sum(q[..., v] * q[..., v], axis=-1))[..., None] * q[..., v]
    for s in (3, 7):
        p[..., s] = w * np.exp(0.5 * q[..., s] ** 2) * q[..., s]
    return p


def _bitwise_equal(a, b):
    """Same shape and values, NaNs equal, and the same sign on every zero."""
    return (np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("shape", [(8,), (5, 8), (24, 16, 8), (80, 80, 8)])
@pytest.mark.parametrize("amplitude", [1e-3, 0.1, 1.0, 2.0, 40.0])
def test_main_field_and_energy_match_per_slice_sums(shape, amplitude):
    # 40 overflows exp to inf, and the zeroed E3 slot then gives inf * 0 = nan
    rng = np.random.default_rng(6)
    q = amplitude * rng.standard_normal(shape)
    q[..., 6] = 0.0
    for model in (quad_model(), exp_model(), exp_model(1.3, 2.7)):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bitwise_equal(main_field(q, model), _per_slice_main_field(q, model))
            assert _bitwise_equal(energy_density(q, model), _per_slice_energy_density(q, model))


# --- fluxes -------------------------------------------------------------------

def flux_oracle(q, c0, ch, k):
    """Componentwise quadratic flux, written from the PDE (not from H_k)."""
    B, phi, E, psi = q[0:3], q[3], q[4:7], q[7]
    e = np.zeros(3)
    e[k - 1] = 1.0
    fB = c0 * np.cross(e, E) + ch * phi * e
    fE = -c0 * np.cross(e, B) + ch * psi * e
    return np.concatenate([fB, [ch * B[k - 1]], fE, [ch * E[k - 1]]])


def test_flux_zero_state():
    for k in (1, 2, 3):
        assert np.array_equal(physical_flux(np.zeros(8), quad_model(), k), np.zeros(8))


def test_flux_unit_phi_state():
    # a pure phi state fluxes into B1 with speed ch
    q = state_vector(phi=1.0)
    f = physical_flux(q, quad_model(c0=1.0, ch=1.0), 1)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(f, expected, atol=0.0)


def test_flux_unit_E3_state():
    q = state_vector(E=(0, 0, 1))
    f = physical_flux(q, quad_model(), 1)
    expected = np.zeros(8)
    expected[1] = -1.0  # -c0 in the B2 slot
    assert np.allclose(f, expected, atol=0.0)


def test_flux_matches_componentwise_oracle():
    rng = np.random.default_rng(3)
    model = quad_model(c0=1.3, ch=0.6)
    for _ in range(50):
        q = rng.standard_normal(8)
        for k in (1, 2, 3):
            assert np.allclose(physical_flux(q, model, k),
                               flux_oracle(q, 1.3, 0.6, k), atol=1e-14)


def test_flux_rejects_bad_axis():
    with pytest.raises(ValueError):
        physical_flux(np.zeros(8), quad_model(), 4)


def test_energy_flux_poynting_example():
    q = state_vector(B=(0, 0, 1), E=(0, 1, 0))
    assert energy_flux(q, quad_model(), 1) == pytest.approx(1.0)


def test_energy_flux_cleaning_example():
    q = state_vector(B=(1, 0, 0), phi=1.0)
    assert energy_flux(q, quad_model(c0=1.0, ch=2.0), 1) == pytest.approx(2.0)


def test_energy_flux_matches_vector_formula():
    # F_k = c0 (E x B)_k + ch (psi E_k + phi B_k) for the quadratic energy
    rng = np.random.default_rng(4)
    c0, ch = 1.7, 0.9
    model = quad_model(c0, ch)
    q = rng.standard_normal((1000, 8))
    B, phi, E, psi = q[:, 0:3], q[:, 3], q[:, 4:7], q[:, 7]
    F = c0 * np.cross(E, B) + ch * (psi[:, None] * E + phi[:, None] * B)
    for k in (1, 2, 3):
        assert np.max(np.abs(energy_flux(q, model, k) - F[:, k - 1])) <= 1e-13


@pytest.mark.parametrize("make", [quad_model, exp_model])
def test_flux_energy_flux_compatibility_along_segments(make):
    # p(q) . d f_k/ds == d F_k/ds along segments between random states
    model = make()
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        q1 = rng.normal(0.0, 0.5, size=8)
        q2 = rng.normal(0.0, 0.5, size=8)
        s = rng.uniform(0.2, 0.8)
        q = q1 + s * (q2 - q1)
        dq = q2 - q1
        for k in (1, 2, 3):
            df = (physical_flux(q + h * dq, model, k)
                  - physical_flux(q - h * dq, model, k)) / (2 * h)
            dF = (energy_flux(q + h * dq, model, k)
                  - energy_flux(q - h * dq, model, k)) / (2 * h)
            lhs = float(np.dot(main_field(q, model), df))
            assert lhs == pytest.approx(dF, rel=1e-7, abs=1e-8)


# --- system matrices ----------------------------------------------------------

def test_matrix_entries_match_printed_pattern():
    m = assemble_matrices(ModelParams(1.0, 1.0))
    # 1-based (row, col) pairs in the (B, phi, E, psi) ordering
    assert m.H1[0, 3] == 1.0    # (1,4) = ch
    assert m.H1[1, 6] == -1.0   # (2,7) = -c0
    assert m.H1[2, 5] == 1.0    # (3,6) = c0
    assert m.H1[4, 7] == 1.0    # (5,8) = ch
    assert np.count_nonzero(m.H1) == 8


def test_matrices_exactly_symmetric():
    for c0, ch in ((0.5, 0.5), (1.0, 1.0), (2.0, 10.0), (10.0, 0.5)):
        m = assemble_matrices(ModelParams(c0, ch))
        for H in (m.H1, m.H2, m.H3):
            assert np.array_equal(H, H.T)


def test_eigendecomposition_of_H1():
    for c0 in (0.5, 1.0, 2.0, 10.0):
        for ch in (0.5, 1.0, 2.0, 10.0):
            m = assemble_matrices(ModelParams(c0, ch))
            assert np.max(np.abs(m.H1 @ m.R - m.R * m.Lambda)) <= 1e-12


def test_eigenvalues_cross_checked_against_eigvalsh():
    m = assemble_matrices(ModelParams(2.0, 5.0))
    assert np.allclose(np.sort(m.Lambda), np.array([-5, -5, -2, -2, 2, 2, 5, 5]))
    assert np.allclose(np.linalg.eigvalsh(m.H1), np.sort(m.Lambda), atol=1e-12)
    # H2 and H3 share the spectrum
    assert np.allclose(np.linalg.eigvalsh(m.H2), np.sort(m.Lambda), atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(m.H3), np.sort(m.Lambda), atol=1e-12)


def test_params_reject_nonpositive_speeds():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0)


@pytest.mark.parametrize("c0,ch", [(1.0, np.inf), (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)])
def test_params_reject_nonfinite_speeds(c0, ch):
    with pytest.raises(ValueError, match="finite and positive"):
        ModelParams(c0, ch)


# --- state ------------------------------------------------------------------

def test_state_validates_shape():
    grid = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    model = quad_model()
    with pytest.raises(ValueError, match="does not fit"):
        State(grid, model, np.zeros((8, 7, 8)))
    with pytest.raises(ValueError, match="does not fit"):
        State(grid, model, np.zeros((8, 8, 7)))
    state = State(grid, model, np.zeros((8, 8, 8)), 0.5)
    assert state.q.dtype == np.float64 and state.t == 0.5

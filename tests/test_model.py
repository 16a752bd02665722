"""Model-level tests: energies, main field, fluxes, system matrices.

The flux oracles here are written out component by component from the PDE
(curl terms with c0, grad/div coupling with ch) so they do not reuse the
matrix assembly they are checking.
"""

import numpy as np
import pytest

from maxglm.model import (EnergyModel, ModelParams, assemble_matrices,
                          energy_density, energy_flux, main_field,
                          max_signal_speed, physical_flux)


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
    # c0 + c0 + ch^2/c0 + ch^2/c0 at q = 0 with c0 = ch = 1
    assert energy_density(np.zeros(8), exp_model()) == pytest.approx(4.0)


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


def test_max_signal_speed():
    assert max_signal_speed(ModelParams(1, 1)) == 1.0
    assert max_signal_speed(ModelParams(1, 10)) == 10.0
    assert max_signal_speed(ModelParams(2, 5)) == 5.0


def test_params_reject_nonpositive_speeds():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0)

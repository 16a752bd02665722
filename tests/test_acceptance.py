"""Acceptance gate: the headline guarantees of both schemes, end to end.

Each test prints one PASS/FAIL line with the measured numbers (run with -s to
see them on success).  Reference error tables are frozen copies here, on
purpose: a change inside the package cannot silently move the goalposts.
The collocated t=10 energy run and refinement study are the slow part (under
a minute together on 2 cores); all other tests are seconds.
"""

import math

import numpy as np
import pytest

from maxglm.grid import Grid2D
from maxglm.harness import (RunConfig, initial_fields, simulate, study_ap,
                            study_convergence)
from maxglm.htc import abgrall_flux, cfl_dt, rk_step, semidiscrete_rhs
from maxglm.mimetic import check_identities
from maxglm.model import (
    EnergyModel,
    ModelParams,
    State,
    assemble_matrices,
    energy_flux,
    main_field,
    physical_flux,
)
from maxglm.simm import apply_E_operator, apply_phi_operator
from maxglm.tableaux import DP8

# L2 errors after one period of the planar wave (per component, per N);
# every measured value must land within this factor of its reference.
ERROR_FACTOR = 2.0
MIN_ORDER = 1.9
TABLE_COMPONENTS = ("B1", "B2", "B3", "phi", "E1", "E2", "psi")

REFERENCE_ERRORS = {
    "htc": {
        20: {"B1": 2.57e-2, "B2": 2.57e-2, "B3": 1.45e-1, "phi": 3.63e-2,
             "E1": 1.54e-1, "E2": 5.14e-2, "psi": 7.27e-2},
        40: {"B1": 6.45e-3, "B2": 6.45e-3, "B3": 3.65e-2, "phi": 9.12e-3,
             "E1": 3.87e-2, "E2": 1.29e-2, "psi": 1.82e-2},
        80: {"B1": 1.61e-3, "B2": 1.61e-3, "B3": 9.13e-3, "phi": 2.28e-3,
             "E1": 9.69e-3, "E2": 3.23e-3, "psi": 4.57e-3},
        160: {"B1": 4.04e-4, "B2": 4.04e-4, "B3": 2.28e-3, "phi": 5.71e-4,
              "E1": 2.42e-3, "E2": 8.07e-4, "psi": 1.14e-3},
    },
    "simm": {
        20: {"B1": 3.06e-2, "B2": 3.06e-2, "B3": 1.73e-1, "phi": 4.33e-2,
             "E1": 1.84e-1, "E2": 6.12e-2, "psi": 8.65e-2},
        40: {"B1": 7.74e-3, "B2": 7.74e-3, "B3": 4.38e-2, "phi": 1.09e-2,
             "E1": 4.64e-2, "E2": 1.55e-2, "psi": 2.19e-2},
        80: {"B1": 1.94e-3, "B2": 1.94e-3, "B3": 1.10e-2, "phi": 2.74e-3,
             "E1": 1.16e-2, "E2": 3.88e-3, "psi": 5.49e-3},
        160: {"B1": 4.85e-4, "B2": 4.85e-4, "B3": 2.75e-3, "phi": 6.86e-4,
              "E1": 2.91e-3, "E2": 9.71e-4, "psi": 1.37e-3},
    },
}

# final (|div B|, |div E|) of the cleaning-speed study, keyed by ch
DIVERGENCE_DECAY_REFERENCE = {
    1e2: (3.831380e-5, 3.831579e-5),
    1e3: (3.569500e-6, 3.569623e-6),
    1e4: (4.351311e-8, 4.351523e-8),
    1e5: (4.368280e-10, 4.358525e-10),
    1e6: (4.356025e-12, 4.356025e-12),
    1e7: (4.356034e-14, 4.356055e-14),
}


def _gate(ok, name, detail):
    print("%s  %-58s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


# 1 -- the discrete vector identities hold to roundoff


def test_mimetic_identities_to_roundoff():
    worst = 0.0
    for nx, ny in ((8, 8), (33, 17), (64, 64)):
        g = Grid2D(nx, ny, 0.0, float(nx), 0.0, float(ny))
        worst = max(worst, check_identities(g, trials=100, seed=7))
    _gate(worst <= 1e-13, "div curl = 0 and curl grad = 0 (100 fields)",
          "max residual %.3e <= 1e-13" % worst)


# 2 -- flux matrices: exact symmetry and the known eigenstructure


def test_flux_matrix_symmetry_and_eigenstructure():
    worst_sym, worst_eig = 0.0, 0.0
    for c0, ch in ((1.0, 1.0), (1.0, 2.0), (2.0, 5.0), (1.0, 10.0)):
        mats = assemble_matrices(ModelParams(c0, ch))
        worst_sym = max(worst_sym, max(
            np.max(np.abs(H - H.T)) for H in (mats.H1, mats.H2, mats.H3)))
        worst_eig = max(worst_eig, np.max(np.abs(
            mats.H1 @ mats.R - mats.R * mats.Lambda)))
    ok = worst_sym == 0.0 and worst_eig <= 1e-12
    _gate(ok, "H symmetric, H1 R = R Lambda (4 speed pairs)",
          "asymmetry %.1e (exact), eigen residual %.3e <= 1e-12"
          % (worst_sym, worst_eig))


# 3 -- two-point flux compatibility for both energy potentials


def test_flux_compatibility_both_energies():
    rng = np.random.default_rng(23)
    params = ModelParams(1.0, 1.0)
    worst = 0.0
    for kind in ("quadratic", "exponential"):
        model = EnergyModel(kind, params)
        qL = rng.normal(0.0, 0.5, size=(10000, 8))
        qR = rng.normal(0.0, 0.5, size=(10000, 8))
        pL, pR = main_field(qL, model), main_field(qR, model)
        for n, k in (((1.0, 0.0), 1), ((0.0, 1.0), 2)):
            fhat = abgrall_flux(qL, qR, n, model)
            res = (np.sum(pL * (fhat - physical_flux(qL, model, k)), axis=-1)
                   + np.sum(pR * (physical_flux(qR, model, k) - fhat), axis=-1)
                   - (energy_flux(qR, model, k) - energy_flux(qL, model, k)))
            worst = max(worst, float(np.max(np.abs(res))))
    _gate(worst <= 1e-13, "flux compatibility (10000 pairs, both energies)",
          "max residual %.3e <= 1e-13" % worst)


# 4 / 5 -- planar-wave refinement studies for both schemes


def _convergence_gate(scheme):
    rows, orders = study_convergence(scheme, [20, 40, 80, 160])
    worst_factor, worst_at = 0.0, "-"
    for N, errs in rows:
        for c in TABLE_COMPONENTS:
            ratio = errs[c] / REFERENCE_ERRORS[scheme][N][c]
            off = max(ratio, 1.0 / ratio)
            if off > worst_factor:
                worst_factor, worst_at = off, "%s@N=%d" % (c, N)
    min_order = min(o for c in TABLE_COMPONENTS for o in orders[c])
    ok = worst_factor <= ERROR_FACTOR and min_order >= MIN_ORDER
    _gate(ok, "planar-wave convergence, %s scheme" % scheme,
          "worst error x%.3f of reference (%s, allowed x%g), min order %.2f >= %g"
          % (worst_factor, worst_at, ERROR_FACTOR, min_order, MIN_ORDER))


def test_collocated_planar_convergence():
    _convergence_gate("htc")


def test_staggered_planar_convergence():
    _convergence_gate("simm")


# 6 -- long-run energy conservation of the collocated scheme, both energies


def test_collocated_energy_conservation_long_run():
    drifts = {}
    for kind, cfl in (("quadratic", 0.6), ("exponential", 0.9)):
        series, _ = simulate(RunConfig(scheme="htc", energy=kind, nx=80, ny=80,
                                       cfl=cfl, t_end=10.0, ic="gauss_t2"))
        drifts[kind] = series.max_abs_energy_error()
    ok = all(d <= 1e-11 for d in drifts.values())
    _gate(ok, "collocated energy drift, t=10, 80x80",
          "quadratic %.3e / exponential %.3e <= 1e-11"
          % (drifts["quadratic"], drifts["exponential"]))


def _exponential_excess_energy(state):
    """Total exponential energy minus its vacuum value, summed via expm1.

    Written out per field with np.sum, apart from `model.energy_density`
    (which measures the same excess), so the gate does not rest on it alone.
    """
    q = state.q
    c0, ch = state.model.params.c0, state.model.params.ch
    w = ch * ch / c0
    density = (c0 * np.expm1(0.5 * np.sum(q[..., 0:3] ** 2, axis=-1))
               + c0 * np.expm1(0.5 * np.sum(q[..., 4:7] ** 2, axis=-1))
               + w * np.expm1(0.5 * q[..., 3] ** 2)
               + w * np.expm1(0.5 * q[..., 7] ** 2))
    return state.grid.cell_volume * float(np.sum(density))


def test_collocated_exponential_excess_energy_drift():
    config = RunConfig(scheme="htc", energy="exponential", rk="dp8", nx=40, ny=40,
                       cfl=0.9, t_end=2.0, ic="gauss_t2")
    grid = Grid2D(config.nx, config.ny, config.x_min, config.x_max,
                  config.y_min, config.y_max)
    params = ModelParams(config.c0, config.ch)
    state = State(grid, EnergyModel("exponential", params), initial_fields(config, grid))
    dt0 = cfl_dt(grid, params, config.cfl)
    excess0 = _exponential_excess_energy(state)
    drift = 0.0
    while config.t_end - state.t > 1e-12:
        state = rk_step(state, min(dt0, config.t_end - state.t), DP8)
        drift = max(drift, abs(_exponential_excess_energy(state) / excess0 - 1.0))
    _gate(drift <= 1e-11, "collocated excess energy drift, exponential, t=2, 40x40",
          "max |relative drift| %.3e of excess %.3e <= 1e-11" % (drift, excess0))


# 7 -- long-run energy conservation of the staggered scheme


def test_staggered_energy_conservation_long_run():
    series, _ = simulate(RunConfig(scheme="simm", nx=50, ny=50, cfl=0.9,
                                   t_end=10.0, ic="gauss_t2", cg_tol=1e-12))
    drift = series.max_abs_energy_error()
    _gate(drift <= 1e-10, "staggered energy drift, t=10, 50x50",
          "max |relative drift| %.3e <= 1e-10" % drift)


# 8 -- the staggered scheme keeps both divergences at roundoff, every step


def test_staggered_divergence_preservation_long_run():
    series, _ = simulate(RunConfig(scheme="simm", nx=50, ny=50, cfl=0.9,
                                   t_end=10.0, ic="gauss_t1", cg_tol=1e-12))
    worst = max(max(series.div_B), max(series.div_E))
    _gate(worst <= 1e-11, "staggered divergence preservation, t=10, 50x50",
          "max |div| over all steps %.3e <= 1e-11" % worst)


# 9 -- divergence decay with the cleaning speed (stiff runs stay solvable)


def test_divergence_decay_with_cleaning_speed():
    rows, orders = study_ap(sorted(DIVERGENCE_DECAY_REFERENCE))
    worst_factor = 0.0
    for ch, div_b, div_e in rows:
        ref_b, ref_e = DIVERGENCE_DECAY_REFERENCE[ch]
        worst_factor = max(worst_factor, div_b / ref_b, ref_b / div_b,
                           div_e / ref_e, ref_e / div_e)
    ob, oe = orders[-1]
    ok = worst_factor <= ERROR_FACTOR and 1.9 <= ob <= 2.1 and 1.9 <= oe <= 2.1
    _gate(ok, "divergence decay vs cleaning speed (ch up to 1e7)",
          "worst x%.3f of reference (allowed x%g), final orders B %.2f / E %.2f"
          % (worst_factor, ERROR_FACTOR, ob, oe))


# 10 -- the semi-discrete collocated operator produces no energy


def test_semidiscrete_energy_production_is_zero():
    g = Grid2D(16, 16)
    rng = np.random.default_rng(23)
    worst = 0.0
    for kind, scale in (("quadratic", 1.0), ("exponential", 0.5)):
        model = EnergyModel(kind, ModelParams())
        for _ in range(100):
            q = rng.normal(0.0, scale, size=(g.nx, g.ny, 8))
            rhs = semidiscrete_rhs(State(g, model, q))
            production = g.cell_volume * float(np.sum(main_field(q, model) * rhs))
            worst = max(worst, abs(production))
    _gate(worst <= 1e-12, "semi-discrete energy production (100 fields x 2)",
          "max |sum p.rhs| %.3e <= 1e-12" % worst)


# 11 -- the implicit wave operators are SPD even for extreme dt*ch


def test_implicit_operators_spd_for_stiff_settings():
    """phi, and the E solve as its in-plane pair (E1, E2) beside E3 (phi's operator at c0)."""
    g = Grid2D(32, 32)
    rng = np.random.default_rng(29)
    worst_sym, min_quad = 0.0, math.inf
    for dt, ch in ((1e-2, 1e2), (1e-2, 1e5)):
        params = ModelParams(1.0, ch)

        def apply_E(u):
            E3 = apply_phi_operator(g, params, dt, u[..., 2], speed=params.c0)
            return np.concatenate([apply_E_operator(g, params, dt, u[..., :2]),
                                   E3[..., None]], axis=-1)
        for apply_op, shape in ((lambda u: apply_phi_operator(g, params, dt, u),
                                 (g.nx, g.ny)),
                                (apply_E, (g.nx, g.ny, 3))):
            for _ in range(100):
                u = rng.standard_normal(shape)
                v = rng.standard_normal(shape)
                Au = apply_op(u)
                Av = apply_op(v)
                a, b = float(np.sum(u * Av)), float(np.sum(Au * v))
                worst_sym = max(worst_sym, abs(a - b) / max(1.0, abs(a), abs(b)))
                min_quad = min(min_quad, float(np.sum(u * Au) / np.sum(u * u)))
    ok = worst_sym <= 1e-13 and min_quad > 0.0
    _gate(ok, "implicit operators SPD at dt*ch in {1, 1000}",
          "symmetry residual %.3e <= 1e-13, min quadratic form %.6f > 0"
          % (worst_sym, min_quad))


# 12 -- the staggered energy depends neither on stiffness nor on CG's tolerance

# stiff runs to t = 0.1 at dt = 1e-2 (dt*ch up to 1e5, dt*c0 up to 1e3)
STIFF_DRIFT_RUNS = {
    "ch=1e5 sigma=0.02 40x40": dict(ch=1e5, ic="gauss_ap", sigma=0.02, nx=40, ny=40),
    "ch=1e7 40x40": dict(ch=1e7, ic="gauss_ap", nx=40, ny=40),
    "c0=1e5 ch=1 32x32": dict(c0=1e5, ch=1.0, ic="gauss_t2", nx=32, ny=32),
}


@pytest.mark.parametrize("name", sorted(STIFF_DRIFT_RUNS))
def test_staggered_energy_conservation_stiff(name):
    series, _ = simulate(RunConfig(scheme="simm", cfl=None, dt=1e-2, t_end=0.1,
                                   **STIFF_DRIFT_RUNS[name]))
    drift = series.max_abs_energy_error()
    _gate(drift <= 1e-10, "staggered energy drift, %s" % name,
          "max |relative drift| %.3e <= 1e-10" % drift)


def test_staggered_energy_independent_of_cg_tolerance():
    """Solving for the half-time averages leaves no tolerance in the energy.

    At cg_tol = 1e-2 the solutions are inaccurate, but CG's residual stays
    orthogonal to its iterate; the worst drift measured was 1.0e-15.
    """
    drifts = []
    for tol in (1e-2, 1e-6, 1e-12):
        series, _ = simulate(RunConfig(scheme="simm", nx=64, ny=64, ch=3.0, cfl=None,
                                       dt=0.05, t_end=2.0, ic="gauss_t2", cg_tol=tol))
        drifts.append(series.max_abs_energy_error())
    _gate(max(drifts) <= 1e-13, "staggered energy drift vs cg_tol 1e-2/1e-6/1e-12",
          "max |relative drift| %s <= 1e-13" % " / ".join("%.3e" % d for d in drifts))

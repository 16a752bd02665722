"""Tests for the diagnostics: energies, divergences, orders, CSV output."""

import numpy as np
import pytest

from maxglm.diagnostics import (
    DiagnosticsSeries,
    collocated_divergence,
    config_hash,
    convergence_order,
    staggered_divergences,
    total_energy_collocated,
    write_errors_csv,
)
from maxglm.grid import Grid2D
from maxglm.harness import SIMM_LOCATIONS, ic_gaussian, ic_planar, pack_state
from maxglm.htc import FVState
from maxglm.model import EnergyModel, ModelParams, energy_density
from maxglm.simm import StaggeredState


def _state(grid, q, kind="quadratic"):
    return FVState(grid, EnergyModel(kind, ModelParams()), q)


# --- total energy -----------------------------------------------------------

def test_total_energy_zero_state():
    g = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    assert total_energy_collocated(_state(g, np.zeros((8, 8, 8)))) == 0.0


def test_total_energy_uniform_state():
    # density (1 + 2^2)/2 = 2.5 is constant, so the total is area 6 times it
    g = Grid2D(8, 12, -1.0, 1.0, 0.0, 3.0)
    q = np.tile(np.array([1.0, 0, 0, 0, 0, 2.0, 0, 0]), (8, 12, 1))
    assert total_energy_collocated(_state(g, q)) == pytest.approx(15.0)


def test_total_energy_matches_direct_quadrature():
    g = Grid2D(32, 32, -1.0, 1.0, -1.0, 1.0)
    q = pack_state(ic_planar(g))
    state = _state(g, q)
    direct = g.cell_volume * sum(
        energy_density(q[i, j], state.model) for i in range(g.nx) for j in range(g.ny))
    assert total_energy_collocated(state) == pytest.approx(direct, rel=1e-13)


# --- divergences ------------------------------------------------------------

def test_collocated_divergence_uniform_is_zero():
    g = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    q = np.tile(np.arange(8.0), (8, 8, 1))
    state = _state(g, q)
    assert collocated_divergence(state, "B") == 0.0
    assert collocated_divergence(state, "E") == 0.0


def test_collocated_divergence_matches_loop_oracle():
    g = Grid2D(6, 5, -1.0, 1.0, -1.0, 1.0)
    rng = np.random.default_rng(8)
    q = rng.normal(size=(6, 5, 8))
    state = _state(g, q)
    div = np.zeros((6, 5))
    for i in range(6):
        for j in range(5):
            div[i, j] = ((q[(i + 1) % 6, j, 4] - q[(i - 1) % 6, j, 4]) / (2 * g.dx)
                         + (q[i, (j + 1) % 5, 5] - q[i, (j - 1) % 5, 5]) / (2 * g.dy))
    expected = np.sqrt(g.cell_volume * np.sum(div * div))
    assert collocated_divergence(state, "E") == pytest.approx(expected, rel=1e-13)


def test_collocated_divergence_rejects_unknown_field():
    g = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        collocated_divergence(_state(g, np.zeros((8, 8, 8))), "phi")


def test_staggered_divergences_zero_for_out_of_plane_fields():
    # B and E purely in the third component have no in-plane divergence at all
    g = Grid2D(16, 16, -1.0, 1.0, -1.0, 1.0)
    f = ic_gaussian(g, "t1", locations=SIMM_LOCATIONS)
    s0 = StaggeredState(g, ModelParams(), f["B"], f["psi"], f["E"], f["phi"])
    div_B, div_E = staggered_divergences(s0, s0)
    assert div_B == 0.0
    assert div_E == 0.0


def test_staggered_divergences_half_time_average():
    g = Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)
    rng = np.random.default_rng(9)
    shp = (8, 8)

    def rand_state():
        return StaggeredState(g, ModelParams(), rng.normal(size=shp + (3,)),
                              rng.normal(size=shp), rng.normal(size=shp + (3,)),
                              rng.normal(size=shp))

    s0, s1 = rand_state(), rand_state()
    mid = StaggeredState(g, ModelParams(), 0.5 * (s0.B_c + s1.B_c),
                         np.zeros(shp), 0.5 * (s0.E_p + s1.E_p), np.zeros(shp))
    assert staggered_divergences(s0, s1) == pytest.approx(
        staggered_divergences(mid, mid))


# --- convergence orders -----------------------------------------------------

def test_convergence_order_exact_second_order():
    assert convergence_order([(10, 4.0), (20, 1.0)]) == pytest.approx([2.0])


def test_convergence_order_reference_sequence():
    errors = [(20, 2.57e-2), (40, 6.45e-3), (80, 1.61e-3), (160, 4.04e-4)]
    orders = convergence_order(errors)
    assert orders == pytest.approx([1.99, 2.00, 2.00], abs=0.01)


def test_convergence_order_cubic_and_scale_invariance():
    errors = [(n, 7.3 * n ** -3.0) for n in (8, 16, 32)]
    assert convergence_order(errors) == pytest.approx([3.0, 3.0])
    scaled = [(n, 100.0 * e) for n, e in errors]
    assert convergence_order(scaled) == pytest.approx(convergence_order(errors))


def test_convergence_order_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        convergence_order([(10, 1.0), (20, 0.0)])
    with pytest.raises(ValueError, match="increase"):
        convergence_order([(20, 1.0), (10, 2.0)])


# --- series and CSV ---------------------------------------------------------

def test_series_relative_error_and_monotone_time():
    s = DiagnosticsSeries({"run": "demo"})
    s.append(0.0, 2.0)
    s.append(0.5, 2.0 + 2e-12, div_B=1e-15)
    assert s.rel_energy_err[0] == 0.0
    assert s.rel_energy_err[1] == pytest.approx(1e-12)
    assert s.max_abs_energy_error() == pytest.approx(1e-12)
    assert len(s) == 2
    with pytest.raises(ValueError, match="strictly increasing"):
        s.append(0.5, 2.0)


def test_series_rejects_zero_initial_energy():
    # the relative drift divides by the first energy
    with pytest.raises(ValueError, match="initial energy is 0"):
        DiagnosticsSeries().append(0.0, 0.0)


def test_energy_csv_round_trip(tmp_path):
    s = DiagnosticsSeries()
    s.append(0.0, 1.0 / 3.0, div_B=1e-16, div_E=2e-16)
    s.append(0.1, 1.0 / 3.0 + 1e-15)
    p = tmp_path / "energy.csv"
    s.write_energy_csv(p)
    data = np.genfromtxt(p, delimiter=",", names=True)
    # 17 significant digits round-trip doubles exactly
    assert data["energy"][0] == 1.0 / 3.0
    assert data["rel_energy_err"][1] == s.rel_energy_err[1]

    d = tmp_path / "div.csv"
    s.write_divergence_csv(d)
    ddata = np.genfromtxt(d, delimiter=",", names=True)
    assert ddata["div_B"][0] == 1e-16
    assert ddata["div_E"][0] == 2e-16


def test_errors_csv_orders_and_zero_columns(tmp_path):
    rows = [
        (20, {"B1": 4.0e-2, "E3": 0.0}),
        (40, {"B1": 1.0e-2, "E3": 0.0}),
    ]
    p = tmp_path / "errors.csv"
    write_errors_csv(p, ["B1", "E3"], rows)
    lines = p.read_text().splitlines()
    assert lines[0] == "N,B1,E3,order_B1,order_E3"
    last = lines[2].split(",")
    assert last[0] == "40"
    assert float(last[3]) == pytest.approx(2.0, abs=1e-3)
    assert last[4] == ""  # zero-error component gets no order, not a crash


def test_config_hash_stable_and_order_independent():
    h1 = config_hash({"a": 1, "b": 2.5})
    h2 = config_hash({"b": 2.5, "a": 1})
    assert h1 == h2
    assert len(h1) == 12
    assert h1 != config_hash({"a": 1, "b": 2.50001})

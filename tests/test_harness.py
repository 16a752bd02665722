"""Tests for configs, initial data, the time loop driver, and the studies."""

import math
import os

import numpy as np
import pytest

from maxglm.harness import (
    HTC_LOCATIONS,
    PLANAR_B0,
    PLANAR_E0,
    SIMM_LOCATIONS,
    RunConfig,
    check,
    ic_gaussian,
    ic_planar,
    initial_fields,
    make_config,
    parse_config_file,
    resolve_output_dir,
    simulate,
    study_ap,
    study_convergence,
    summarize_ap,
    summarize_convergence,
)
from maxglm.grid import Grid2D
from maxglm.model import FIELDS


def _fields(q):
    """The named fields of a state array, as views."""
    return {name: q[..., slots] for name, slots in FIELDS.items()}


# --- config files and overrides ---------------------------------------------

def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# a comment line\n"
        "scheme = simm\n"
        "\n"
        "nx = 12   # trailing comment\n"
        "cfl = 0.5\n")
    assert parse_config_file(p) == {"scheme": "simm", "nx": "12", "cfl": "0.5"}


def test_parse_config_file_rejects_malformed_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("scheme = htc\nthis is not a pair\n")
    with pytest.raises(ValueError, match=":2:"):
        parse_config_file(p)


def test_make_config_defaults_and_overrides():
    cfg = make_config({"nx": "12", "scheme": "simm"}, overrides=["ny=6", "ch=2.5"])
    assert (cfg.nx, cfg.ny) == (12, 6)
    assert cfg.scheme == "simm"
    assert cfg.ch == 2.5
    assert cfg.cfl == 0.9  # untouched default


def test_make_config_fixed_dt_clears_default_cfl():
    cfg = make_config({"dt": "0.01"})
    assert cfg.dt == 0.01
    assert cfg.cfl is None


def test_make_config_explicit_none():
    cfg = make_config({"cfl": "none", "dt": "0.02"})
    assert cfg.cfl is None and cfg.dt == 0.02


def test_make_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        make_config({"dx": "0.1"})


def test_make_config_rejects_bad_override():
    with pytest.raises(ValueError, match="key=value"):
        make_config({}, overrides=["just-a-word"])


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(scheme="simm", energy="exponential"), "quadratic energy only"),
        (dict(cfl=0.9, dt=0.01), "exactly one"),
        (dict(cfl=None, dt=None), "exactly one"),
        (dict(ic="vortex"), "ic must be"),
        (dict(rk="rk9"), "rk must be"),
        (dict(t_end=-1.0), "t_end"),
        (dict(cg_tol=0.0), "cg_tol"),
        (dict(snapshot_every=-1), "nonnegative"),
        (dict(t_end=math.nan), "t_end must be finite"),
        (dict(t_end=math.inf), "t_end must be finite"),
        (dict(sigma=0.0), "sigma"),
        (dict(sigma=-0.1), "sigma"),
        (dict(ch=math.inf), "wave speeds must be finite and positive"),
        (dict(c0=math.inf), "wave speeds must be finite and positive"),
        (dict(c0=0.0), "wave speeds must be finite and positive"),
        (dict(cg_tol=math.inf), "cg_tol must be finite and positive"),
        (dict(cg_maxiter=-1), "nonnegative"),
    ],
)
def test_config_validation_errors(kwargs, match):
    cfg = RunConfig(**kwargs)
    with pytest.raises(ValueError, match=match):
        cfg.validate()


# --- initial conditions -----------------------------------------------------

def test_planar_ic_spot_values():
    g = Grid2D(4, 4, -1.0, 1.0, -1.0, 1.0)
    f = _fields(ic_planar(g, HTC_LOCATIONS))
    # cell centers: -0.75, -0.25, 0.25, 0.75; on the diagonal the wave is zero
    assert f["B"][0, 0] == pytest.approx((0.0, 0.0, 0.0))
    # at (x, y) = (-0.25, -0.75) the profile sin(pi(x - y)) is exactly 1
    assert f["B"][1, 0] == pytest.approx(PLANAR_B0, rel=1e-15)
    assert f["E"][1, 0] == pytest.approx(PLANAR_E0, rel=1e-15)
    assert f["phi"][1, 0] == pytest.approx(0.25, rel=1e-15)
    assert f["psi"][1, 0] == pytest.approx(0.5, rel=1e-15)


def test_planar_ic_staggered_locations():
    g = Grid2D(4, 4, -1.0, 1.0, -1.0, 1.0)
    f = _fields(ic_planar(g, SIMM_LOCATIONS))
    # vertices: -1, -0.5, 0, 0.5; (x, y) = (-0.5, -1) gives profile 1
    assert f["phi"][1, 0] == pytest.approx(0.25, rel=1e-15)
    assert f["E"][1, 0] == pytest.approx(PLANAR_E0, rel=1e-15)
    # cells keep their own coordinates
    assert f["B"][0, 0] == pytest.approx((0.0, 0.0, 0.0))


def test_gaussian_ic_peak_amplitudes():
    g = Grid2D(5, 5, -1.0, 1.0, -1.0, 1.0)  # odd count puts a center at 0
    t1 = _fields(ic_gaussian(g, "t1"))
    assert t1["B"][2, 2] == pytest.approx((0.0, 0.0, 1e-2))
    assert t1["E"][2, 2] == pytest.approx((0.0, 0.0, 1e-2))
    assert not np.any(t1["phi"])
    assert not np.any(t1["psi"])
    t2 = _fields(ic_gaussian(g, "t2"))
    assert t2["B"][2, 2] == pytest.approx((0.25e-2, 0.0, 1e-2))
    assert t2["phi"][2, 2] == pytest.approx(0.5e-2)


def test_gaussian_ic_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown gaussian variant"):
        ic_gaussian(Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0), "t3")


def test_initial_fields_dispatch():
    cfg = RunConfig(scheme="simm", ic="gauss_t2", nx=8, ny=8)
    f = _fields(initial_fields(cfg, Grid2D(8, 8, -1.0, 1.0, -1.0, 1.0)))
    assert f["B"].shape == (8, 8, 3)
    assert f["phi"].shape == (8, 8)


# --- the driver -------------------------------------------------------------

def test_run_zero_time_is_single_row():
    series, _ = simulate(RunConfig(nx=8, ny=8, t_end=0.0))
    assert len(series) == 1
    assert series.rel_energy_err == [0.0]


def test_simulate_reaches_t_end_exactly():
    series, final = simulate(RunConfig(nx=8, ny=8, t_end=0.3, rk="rk4"))
    assert final.t == pytest.approx(0.3, abs=1e-12)
    assert series.t[-1] == pytest.approx(0.3, abs=1e-12)


def test_simulate_is_deterministic():
    cfg = dict(nx=8, ny=8, t_end=0.2, rk="rk4")
    s1, _ = simulate(RunConfig(**cfg))
    s2, _ = simulate(RunConfig(**cfg))
    assert s1.energy == s2.energy
    assert s1.div_B == s2.div_B


def test_simulate_writes_outputs_and_snapshots(tmp_path):
    out = tmp_path / "demo"
    cfg = RunConfig(nx=8, ny=8, t_end=0.2, rk="rk4",
                    output_dir=str(out), snapshot_every=100)
    simulate(cfg)
    assert (out / "energy.csv").read_text().startswith("t,energy,rel_energy_err")
    assert (out / "divergence.csv").exists()
    assert (out / "snap_000000.npz").exists()


def test_simulate_surfaces_cg_failure_as_runtime_error():
    cfg = RunConfig(scheme="simm", ch=50.0, nx=16, ny=16,
                    cfl=None, dt=0.1, t_end=0.1, cg_maxiter=2)
    with pytest.raises(RuntimeError, match="run aborted in step 1"):
        simulate(cfg)


def test_resolve_output_dir(tmp_path, monkeypatch):
    assert resolve_output_dir("") is None
    monkeypatch.setenv("MAXGLM_OUTPUT_ROOT", str(tmp_path))
    path = resolve_output_dir("runs/demo")
    assert path == str(tmp_path / "runs" / "demo")
    assert os.path.isdir(path)
    # absolute paths ignore the root
    absolute = str(tmp_path / "elsewhere")
    assert resolve_output_dir(absolute) == absolute


# --- studies and summaries ---------------------------------------------------

def test_study_convergence_small(tmp_path):
    rows, orders = study_convergence("htc", [8, 16], rk="rk4",
                                     output_dir=str(tmp_path / "conv"))
    assert [N for N, _ in rows] == [8, 16]
    assert rows[1][1]["B1"] < rows[0][1]["B1"]
    assert 1.5 < orders["B1"][0] < 2.5
    assert (tmp_path / "conv" / "errors.csv").exists()
    assert (tmp_path / "conv" / "summary.txt").exists()


def test_study_ap_csv_format(tmp_path):
    rows, orders = study_ap([10.0, 20.0], output_dir=str(tmp_path / "ap"))
    lines = (tmp_path / "ap" / "ap.csv").read_text().splitlines()
    assert lines[0] == "ch,eps,div_B,div_E,order_B,order_E"
    assert len(lines) == 3
    # full-precision values, and no orders on the first row
    _, div_b, div_e = rows[0]
    assert lines[1] == "10,0.10000000000000001,%.17g,%.17g,," % (div_b, div_e)
    assert float(lines[1].split(",")[2]) == div_b
    order_b = lines[2].split(",")[4]
    assert order_b == "%.3f" % orders[0][0]
    assert len(order_b.split(".")[1]) == 3


def test_summarize_convergence_pass_fail_skip():
    from maxglm.harness import PLANAR_REFERENCE_ERRORS

    good = [(20, dict(PLANAR_REFERENCE_ERRORS["htc"][20]))]
    lines = summarize_convergence("htc", good, {"B1": [2.0]})
    assert lines[0].startswith("PASS")
    assert lines[1].startswith("PASS")

    bad = [(20, {c: 3.0 * v for c, v in PLANAR_REFERENCE_ERRORS["htc"][20].items()})]
    assert summarize_convergence("htc", bad, {})[0].startswith("FAIL")

    assert summarize_convergence("htc", [(24, {})], {})[0].startswith("SKIP")
    assert summarize_convergence("htc", good, {"B1": [1.2]})[-1].startswith("FAIL")


def test_summarize_ap_gates_only_final_pair():
    from maxglm.harness import AP_REFERENCE

    rows = [(ch, b, e) for ch, (b, e) in sorted(AP_REFERENCE.items())]
    orders = [(1.0, 1.0), (1.9, 1.9), (2.0, 2.0)]
    lines = summarize_ap(rows, orders)
    assert all(l.startswith("PASS") for l in lines)

    truncated = summarize_ap(rows[:2], [(1.0, 1.0)])
    # pre-asymptotic pair: informational, not a failure
    assert truncated[-1].startswith("INFO")

    bad = summarize_ap(rows, [(1.0, 1.0), (1.9, 1.9), (1.5, 2.0)])
    assert bad[-1].startswith("FAIL")


def test_check_matrices_suite():
    report = check("matrices")
    assert report.passed
    assert all(line.startswith("PASS") for line in report.lines())


def test_check_rejects_unknown_suite():
    with pytest.raises(ValueError, match="suite must be"):
        check("everything")

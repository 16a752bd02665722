"""End-to-end tests of the command-line interface (in-process via main())."""

import warnings

import pytest

from maxglm.cli import main


def test_run_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scheme = htc\n"
        "nx = 8\n"
        "ny = 8\n"
        "rk = rk4\n"
        "t_end = 0.2\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg),
               "--override", "output_dir=%s" % out,
               "--override", "snapshot_every=100"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "scheme=htc" in captured.out
    assert "max |relative drift|" in captured.out
    assert (out / "energy.csv").exists()
    assert (out / "snap_000000.npz").exists()


def test_run_without_config_uses_defaults(capsys):
    rc = main(["run", "--override", "nx=8", "--override", "ny=8",
               "--override", "t_end=0.1", "--override", "rk=rk4"])
    assert rc == 0
    assert "grid=8x8" in capsys.readouterr().out


def test_run_reports_config_errors(capsys):
    rc = main(["run", "--override", "scheme=simm", "--override", "energy=exponential"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "quadratic" in captured.err


def test_run_reports_missing_config_file(capsys):
    rc = main(["run", "--config", "/nonexistent/run.cfg"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_reports_bad_override(capsys):
    rc = main(["run", "--override", "nx"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


def test_run_rejects_the_retired_cg_tol_key(capsys):
    # CG's tolerance is the constant simm.CG_TOL; old configs fail by name
    rc = main(["run", "--override", "cg_tol=1e-12"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: unknown config key 'cg_tol'\n"
    assert captured.out == ""


@pytest.mark.parametrize("overrides", [
    ["ic=gauss_t1", "sigma=1e-3", "nx=8", "ny=8"],  # samples to all-zero data
    ["sigma=0"],
    ["t_end=nan"],
    ["t_end=inf"],
    ["ch=inf", "nx=8", "ny=8", "t_end=0.2"],
    ["scheme=simm", "ic=gauss_t2", "nx=8", "ny=8", "t_end=0.2", "cg_maxiter=-1"],
    ["c0=1e300", "nx=8", "ny=8", "t_end=0.2"],  # dt ~ 1e-301 would never reach t_end
    # the exponential energy is measured from its vacuum value, so zero too
    ["energy=exponential", "ic=gauss_t1", "sigma=1e-3", "nx=8", "ny=8"],
    # sin(pi (x - y)) sampled at its zeros: an initial energy of 4e-32, not 0
    ["nx=2", "ny=2"],
    # the same zeros at x - y = 1000: sin(1000 pi) = 3e-13 is the rounding of
    # the argument, which grows with it
    ["nx=2", "ny=2", "x_min=-1000", "x_max=1000", "y_min=-1000", "y_max=1000"],
    ["scheme=simm", "nx=2", "ny=2", "x_min=-1000", "x_max=1000", "y_min=-1000",
     "y_max=1000"],
])
def test_run_rejects_degenerate_configs(capsys, overrides):
    rc = main(["run"] + [a for ov in overrides for a in ("--override", ov)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_run_aborts_on_non_finite_energy(capsys):
    # ch far above the c0-based CFL step: the state overflows within 9 steps.
    # The run silences numpy's overflow warnings itself, so stderr carries
    # only the abort.
    overrides = ["ch=1e5", "nx=8", "ny=8", "t_end=1", "rk=rk4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run"] + [a for ov in overrides for a in ("--override", ov)])
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc == 1
    assert captured.err.startswith("error: run aborted in step ")
    assert "energy is inf" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ch", ["1e6", "1e7"])
def test_staggered_run_aborts_on_energy_drift(tmp_path, capsys, ch):
    # at dt*ch >= 1e6 the in-plane CG solve stops on an O(1) residual, and
    # the staggered energy, conserved at any dt, drifts in the first step
    out = tmp_path / "drift"
    overrides = ["scheme=simm", "ch=" + ch, "dt=1", "ic=gauss_ap", "nx=16", "ny=16",
                 "t_end=3", "output_dir=%s" % out]
    rc = main(["run"] + [a for ov in overrides for a in ("--override", ov)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: run aborted in step 1 ")
    assert "dt*ch=%s" % ch.replace("e", "e+0") in captured.err
    assert "relative energy drift" in captured.err
    assert captured.out == ""
    # the CSVs keep every row through the aborted step
    for name in ("energy.csv", "divergence.csv"):
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 3 and lines[2].startswith("1,"), lines


def test_aborted_run_keeps_its_record(tmp_path, capsys):
    # CG capped at 2 iterations cannot solve the first step at ch=50
    out = tmp_path / "abort"
    overrides = ["scheme=simm", "ch=50", "nx=16", "ny=16", "dt=0.1", "t_end=0.3",
                 "cg_maxiter=2", "snapshot_every=1", "output_dir=%s" % out]
    rc = main(["run"] + [a for ov in overrides for a in ("--override", ov)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: run aborted in step 1 ")
    assert "did not converge" in captured.err
    for name, header in (("energy.csv", "t,energy,rel_energy_err"),
                         ("divergence.csv", "t,div_B,div_E")):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 2 and lines[1].startswith("0,"), lines
    assert sorted(p.name for p in out.iterdir()) == [
        "divergence.csv", "energy.csv", "snap_000000.npz"]


def test_convergence_subcommand(tmp_path, capsys):
    out = tmp_path / "conv"
    rc = main(["convergence", "--scheme", "htc", "--n", "8,16", "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "planar wave, htc scheme" in captured.out
    assert "SKIP" in captured.out  # 8 and 16 have no reference rows
    assert (out / "errors.csv").exists()
    assert (out / "summary.txt").exists()


def test_convergence_requires_scheme(capsys):
    with pytest.raises(SystemExit):
        main(["convergence"])


def test_convergence_rejects_bad_resolution_list(capsys):
    with pytest.raises(SystemExit):
        main(["convergence", "--scheme", "htc", "--n", "8,big"])


@pytest.mark.parametrize("n", ["", "40,20", "20,20"])
def test_convergence_rejects_non_increasing_resolutions(tmp_path, capsys, n):
    # an order needs two increasing resolutions, and a table needs one
    rc = main(["convergence", "--scheme", "htc", "--n=" + n,
               "--output-dir", str(tmp_path / "conv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert "strictly increasing" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "conv").exists()


def test_convergence_has_no_integrator_or_cfl_options(capsys):
    # the study runs the configuration its reference table was measured at
    for flag in (["--rk", "rk4"], ["--cfl", "0.5"]):
        with pytest.raises(SystemExit):
            main(["convergence", "--scheme", "htc", "--n", "8,16"] + flag)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_ap_subcommand(tmp_path, capsys):
    out = tmp_path / "ap"
    # modest cleaning speeds keep this a smoke test, not a study
    rc = main(["ap", "--ch", "10,20", "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "divergence vs cleaning speed" in captured.out
    assert "INFO" in captured.out  # non-asymptotic pair reports, doesn't gate
    assert (out / "ap.csv").exists()


@pytest.mark.parametrize("ch", ["1e2,1e2", "1e3,1e2", "-1,1", "0", ""])
def test_ap_rejects_bad_cleaning_speeds(tmp_path, capsys, ch):
    # equal neighbours would divide by log(1) = 0 in the order column
    rc = main(["ap", "--ch=" + ch, "--output-dir", str(tmp_path / "ap")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "strictly increasing" in captured.err
    assert not (tmp_path / "ap").exists()


def test_check_subcommand(capsys):
    rc = main(["check", "--suite", "matrices"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "checks passed" in captured.out
    assert "PASS" in captured.out


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["check", "--suite", "nonsense"])


def test_no_command_is_an_error():
    with pytest.raises(SystemExit):
        main([])

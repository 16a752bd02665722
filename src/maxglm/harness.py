"""Experiment harness: run configuration, initial conditions, studies, checks.

The harness owns everything around the two solvers: parsing `key = value`
config files, sampling initial data at the right mesh locations, the time
loop, the convergence / cleaning-speed studies and the property check suites
exposed by the CLI.  `simulate` is one loop for both schemes: both hold a
`model.State`, whose fields are sampled at the scheme's `LOCATIONS`, and
`_setup` gives the loop the scheme's step and divergence functions.  Every
`snapshot_every` steps a run writes `snap_<step>.npz` (see `write_snapshot`).
A staggered run aborts once its energy drift exceeds `SIMM_DRIFT_BOUND`.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import diagnostics, htc, mimetic, simm
from .grid import Grid2D, l2_norm
from .model import (FIELDS, EnergyModel, ModelParams, State, assemble_matrices,
                    energy_flux, main_field, physical_flux)
from .tableaux import TABLEAUX, get_tableau

OUTPUT_ROOT_ENV = "MAXGLM_OUTPUT_ROOT"

# the staggered scheme conserves energy at any dt: a run whose relative drift
# exceeds this has had a solve fail, and aborts
SIMM_DRIFT_BOUND = 1e-10

ENERGIES = ("quadratic", "exponential")
ICS = ("planar", "gauss_t1", "gauss_t2", "gauss_ap")

# where each field lives, per scheme
HTC_LOCATIONS = {"B": "cells", "phi": "cells", "E": "cells", "psi": "cells"}
SIMM_LOCATIONS = {"B": "cells", "psi": "cells", "E": "vertices", "phi": "vertices"}
LOCATIONS = {"htc": HTC_LOCATIONS, "simm": SIMM_LOCATIONS}
SCHEMES = tuple(LOCATIONS)

COMPONENT_NAMES = ("B1", "B2", "B3", "phi", "E1", "E2", "E3", "psi")


@dataclass
class RunConfig:
    scheme: str = "htc"
    energy: str = "quadratic"
    c0: float = 1.0
    ch: float = 1.0
    nx: int = 40
    ny: int = 40
    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    cfl: float | None = 0.9
    dt: float | None = None
    t_end: float = math.sqrt(2.0)
    ic: str = "planar"
    sigma: float = 0.2
    rk: str = "rk_high"
    cg_maxiter: int = 0
    output_dir: str = ""
    snapshot_every: int = 0

    def validate(self):
        if self.scheme not in SCHEMES:
            raise ValueError("scheme must be one of %s" % (SCHEMES,))
        if self.energy not in ENERGIES:
            raise ValueError("energy must be one of %s" % (ENERGIES,))
        if self.scheme == "simm" and self.energy != "quadratic":
            raise ValueError("the staggered scheme supports the quadratic energy only")
        if self.ic not in ICS:
            raise ValueError("ic must be one of %s" % (ICS,))
        if self.rk not in TABLEAUX:
            raise ValueError("rk must be one of %s" % (sorted(TABLEAUX),))
        if (self.cfl is None) == (self.dt is None):
            raise ValueError("set exactly one of cfl / dt")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError("t_end must be finite and nonnegative")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        ModelParams(self.c0, self.ch)  # finite, positive wave speeds
        if self.snapshot_every < 0 or self.cg_maxiter < 0:
            raise ValueError("counts must be nonnegative")


_OPTIONAL_FLOATS = ("cfl", "dt")


def _coerce(name, text):
    """Turn a config-file string into the typed value for RunConfig.name."""
    ftypes = {f.name: f.type for f in fields(RunConfig)}
    if name not in ftypes:
        raise ValueError("unknown config key %r" % (name,))
    if name in _OPTIONAL_FLOATS:
        return None if text.lower() in ("none", "") else float(text)
    kind = ftypes[name]
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def parse_config_file(path):
    """Read `key = value` lines (# comments, blank lines allowed) into a dict."""
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected 'key = value', got %r" % (path, lineno, raw.strip()))
            key, _, val = line.partition("=")
            pairs[key.strip()] = val.strip()
    return pairs


def make_config(pairs=None, overrides=()):
    """Build a validated RunConfig from string pairs plus key=value overrides."""
    cfg = RunConfig()
    merged = dict(pairs or {})
    for ov in overrides:
        if "=" not in ov:
            raise ValueError("override must look like key=value, got %r" % (ov,))
        key, _, val = ov.partition("=")
        merged[key.strip()] = val.strip()
    for key, val in merged.items():
        setattr(cfg, key, _coerce(key, val))
    # a config that fixes dt should not also inherit the default cfl
    if "dt" in merged and "cfl" not in merged and cfg.dt is not None:
        cfg.cfl = None
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Initial conditions

_PLANAR_B = math.sqrt(2.0) / 2.0
PLANAR_B0 = (0.25 * _PLANAR_B, -0.25 * _PLANAR_B, 1.0)
PLANAR_E0 = (1.5 * _PLANAR_B, 0.5 * _PLANAR_B, 0.0)

GAUSSIAN_AMPLITUDES = {
    "t1": {"B": (0.0, 0.0, 1e-2), "E": (0.0, 0.0, 1e-2), "phi": 0.0, "psi": 0.0},
    "t2": {"B": (0.25e-2, 0.0, 1e-2), "E": (0.25e-2, 0.0, 1e-2),
           "phi": 0.5e-2, "psi": 0.5e-2},
    "ap": {"B": (1e-4, 0.0, 1e-2), "E": (1e-4, 0.0, 1e-2), "phi": 0.0, "psi": 0.0},
}

# initial data whose samples all lie below this share of its largest
# amplitude is roundoff of a profile's zeros, not a field
ROUNDOFF_SHARE = 1e-14


def _sampled(grid, locations, profile, amplitudes, share=ROUNDOFF_SHARE):
    """(nx, ny, 8) state q: each field's amplitudes times profile at its points.

    Raises ValueError when every sample is at roundoff of the amplitudes (the
    points fall on the profile's zeros), where energy drifts mean nothing.
    """
    q = np.empty((grid.nx, grid.ny, 8))
    for name, slots in FIELDS.items():
        q[..., slots] = np.multiply.outer(profile(*grid.points(locations[name])),
                                          amplitudes[name])
    peak = np.max(np.abs(q))
    scale = max(np.max(np.abs(a)) for a in amplitudes.values())
    if not peak > share * scale:
        raise ValueError("the initial data is zero to roundoff on this %dx%d grid: its "
                         "largest value is %.3g, its amplitudes reach %g"
                         % (grid.nx, grid.ny, peak, scale))
    return q


def ic_planar(grid, locations=HTC_LOCATIONS):
    """Sinusoidal plane wave sin(pi(x-y)), as an (nx, ny, 8) state array."""
    amplitudes = {"B": PLANAR_B0, "E": PLANAR_E0, "phi": 0.25, "psi": 0.5}
    # sin's rounding grows with its argument, which reaches pi max|x - y|
    reach = math.pi * max(abs(grid.x_max - grid.y_min), abs(grid.y_max - grid.x_min))
    return _sampled(grid, locations, lambda X, Y: np.sin(np.pi * (X - Y)), amplitudes,
                    ROUNDOFF_SHARE * max(1.0, reach))


def ic_gaussian(grid, variant, sigma=0.2, locations=HTC_LOCATIONS):
    """Gaussian bump exp(-(x^2+y^2)/(2 sigma^2)) scaled per variant t1|t2|ap, as q."""
    try:
        amplitudes = GAUSSIAN_AMPLITUDES[variant]
    except KeyError:
        raise ValueError("unknown gaussian variant %r (have t1, t2, ap)" % (variant,))
    s2 = 2.0 * sigma * sigma
    return _sampled(grid, locations,
                    lambda X, Y: np.exp(-(X * X + Y * Y) / s2), amplitudes)


def initial_fields(config, grid):
    locations = LOCATIONS[config.scheme]
    if config.ic == "planar":
        return ic_planar(grid, locations)
    return ic_gaussian(grid, config.ic.removeprefix("gauss_"), config.sigma, locations)


# ---------------------------------------------------------------------------
# Running

def resolve_output_dir(output_dir):
    """Map a config's output_dir to a real path (optional env root), mkdir -p."""
    if not output_dir:
        return None
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    path = output_dir if (os.path.isabs(output_dir) or not root) else os.path.join(root, output_dir)
    os.makedirs(path, exist_ok=True)
    return path


def write_snapshot(path, grid, fields_dict, locations, t):
    """Write the fields, t, the domain bounds and each field's location to `path`.

    One uncompressed .npz of plain arrays: the fields under their names, `t`,
    `bounds` = (x_min, x_max, y_min, y_max), and `<name>_location` = 'cells'
    or 'vertices'.  `path` must end in .npz, or numpy appends the suffix.
    """
    np.savez(path, t=t, bounds=np.array([grid.x_min, grid.x_max, grid.y_min, grid.y_max]),
             **fields_dict, **{name + "_location": locations[name] for name in fields_dict})


def _state_fields(state):
    """The {B, phi, E, psi} fields of a state, as views of q."""
    return {name: state.q[..., slots] for name, slots in FIELDS.items()}


def _setup(config, grid, params):
    """Initial state plus the scheme's step(state, dt) and divergences(prev, state).

    Solvers and diagnostics are looked up on their modules at call time.
    """
    state = State(grid, EnergyModel(config.energy, params), initial_fields(config, grid))
    if config.scheme == "htc":
        tab = get_tableau(config.rk)
        return (state,
                lambda s, dt: htc.rk_step(s, dt, tab),
                lambda prev, s: (diagnostics.collocated_divergence(s, "B"),
                                 diagnostics.collocated_divergence(s, "E")))
    return (state,
            lambda s, dt: simm.simm_step(s, dt, config.cg_maxiter),
            lambda prev, s: diagnostics.staggered_divergences(prev, s))


def simulate(config):
    """Time loop; returns (DiagnosticsSeries, final solver state)."""
    config.validate()
    grid = Grid2D(config.nx, config.ny, config.x_min, config.x_max,
                  config.y_min, config.y_max)
    params = ModelParams(config.c0, config.ch)
    dt0 = config.dt if config.dt is not None else htc.cfl_dt(grid, params, config.cfl)
    eps = 1e-12 * max(1.0, config.t_end)  # the loop's end tolerance
    if dt0 <= eps:
        raise ValueError("time step %.3g is too small to advance t to t_end=%g "
                         "(the loop resolves steps above %.3g)" % (dt0, config.t_end, eps))
    outdir = resolve_output_dir(config.output_dir)
    series = diagnostics.DiagnosticsSeries()
    state, advance, divergences = _setup(config, grid, params)

    dt = dt0
    divs = divergences(state, state)  # 0.5 (u + u) == u: the initial divergences
    # a blow-up is reported once, by the finite-energy abort below, and not
    # as numpy overflow warnings on the way there; an aborted run still
    # writes the rows it recorded
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in itertools.count():
                e = diagnostics.total_energy(state)
                if not math.isfinite(e):
                    raise RuntimeError(
                        "run aborted in step %d (t=%.6g, dt=%.6g): energy is %r, "
                        "the state is no longer finite" % (step, state.t, dt, e))
                series.append(state.t, e, *divs)
                drift = series.rel_energy_err[-1]
                if config.scheme == "simm" and abs(drift) > SIMM_DRIFT_BOUND:
                    raise RuntimeError(
                        "run aborted in step %d (t=%.6g, dt=%.6g, dt*ch=%.3g): relative "
                        "energy drift %.3e exceeds %.0e, so an implicit solve failed"
                        % (step, state.t, dt, dt * config.ch, drift, SIMM_DRIFT_BOUND))
                if outdir and config.snapshot_every and step % config.snapshot_every == 0:
                    write_snapshot(os.path.join(outdir, "snap_%06d.npz" % step), grid,
                                   _state_fields(state), LOCATIONS[config.scheme], state.t)
                if config.t_end - state.t <= eps:
                    break
                dt = min(dt0, config.t_end - state.t)
                try:
                    nxt = advance(state, dt)
                except simm.NonConvergence as exc:
                    raise RuntimeError(
                        "run aborted in step %d (t=%.6g -> %.6g): %s"
                        % (step + 1, state.t, state.t + dt, exc)) from exc
                divs = divergences(state, nxt)
                state = nxt
    finally:
        if outdir:
            series.write_energy_csv(os.path.join(outdir, "energy.csv"))
            series.write_divergence_csv(os.path.join(outdir, "divergence.csv"))
    return series, state


# ---------------------------------------------------------------------------
# Studies
#
# Reference baselines for the two standard studies. A study passes when every
# measured value lands within a factor of 2 of its baseline and the observed
# orders clear the thresholds below.

ERROR_FACTOR = 2.0
MIN_ORDER = 1.9

_TABLE_COMPONENTS = ("B1", "B2", "B3", "phi", "E1", "E2", "psi")

# the planar references were measured one period long with rk_high at this cfl
PLANAR_REFERENCE_CFL = 0.9

PLANAR_REFERENCE_ERRORS = {
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

# (div-B, div-E) baselines for the cleaning-speed study, keyed by ch
AP_REFERENCE = {
    1e2: (3.831380e-5, 3.831579e-5),
    1e3: (3.569500e-6, 3.569623e-6),
    1e4: (4.351311e-8, 4.351523e-8),
    1e5: (4.368280e-10, 4.358525e-10),
    1e6: (4.356025e-12, 4.356025e-12),
    1e7: (4.356034e-14, 4.356055e-14),
}
# the final order is gated when both speeds of the final pair have a
# reference row and reach the asymptotic regime
AP_ORDER_TARGET = (1.9, 2.1)
AP_ASYMPTOTIC_CH = 1e4


def _band(measured, reference):
    """The factor (>= 1) between a measured value and its reference."""
    return max(measured / reference, reference / measured)


def summarize_convergence(scheme, rows, orders):
    """Pass/fail lines comparing a refinement study against its baselines."""
    baselines = PLANAR_REFERENCE_ERRORS[scheme]
    lines = []
    for N, errs in rows:
        if N not in baselines:
            lines.append("SKIP  N=%d: no reference row" % N)
            continue
        offs = [_band(errs[c], baselines[N][c]) for c in _TABLE_COMPONENTS]
        worst = max(offs)
        worst_name = _TABLE_COMPONENTS[offs.index(worst)]
        ok = worst <= ERROR_FACTOR
        lines.append("%s  N=%d errors within factor %g of reference"
                     " (worst %s: x%.3f)"
                     % ("PASS" if ok else "FAIL", N, ERROR_FACTOR, worst_name, worst))
    measured = [o for c in _TABLE_COMPONENTS for o in orders.get(c, [])]
    if measured:
        worst = min(measured)
        lines.append("%s  observed orders >= %.1f (worst %.2f)"
                     % ("PASS" if worst >= MIN_ORDER else "FAIL", MIN_ORDER, worst))
    return lines


def summarize_ap(rows, orders):
    """Pass/fail lines comparing a cleaning-speed study against its baselines."""
    lines = []
    for ch, div_b, div_e in rows:
        ref = AP_REFERENCE.get(ch)
        if ref is None:
            lines.append("SKIP  ch=%g: no reference row" % ch)
            continue
        off = max(_band(div_b, ref[0]), _band(div_e, ref[1]))
        ok = off <= ERROR_FACTOR
        lines.append("%s  ch=%g divergences within factor %g of reference (worst x%.3f)"
                     % ("PASS" if ok else "FAIL", ch, ERROR_FACTOR, off))
    if orders:
        (ob, oe) = orders[-1]
        ch_pair = (rows[-2][0], rows[-1][0])
        if all(ch in AP_REFERENCE and ch >= AP_ASYMPTOTIC_CH for ch in ch_pair):
            lo, hi = AP_ORDER_TARGET
            ok = lo <= ob <= hi and lo <= oe <= hi
            lines.append("%s  final order in [%.1f, %.1f] (B: %.2f, E: %.2f)"
                         % ("PASS" if ok else "FAIL", lo, hi, ob, oe))
        else:
            lines.append("INFO  order between ch=%g and ch=%g: B %.2f, E %.2f"
                         % (ch_pair[0], ch_pair[1], ob, oe))
    return lines


def _write_summary(outdir, lines):
    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _final_errors(config, final):
    """Per-component L2 errors of the final state against the initial data."""
    dq = final.q - initial_fields(config, final.grid)
    return {name: l2_norm(final.grid, dq[..., i]) for i, name in enumerate(COMPONENT_NAMES)}


def _increasing(name, values):
    """values, or ValueError unless they are positive and strictly increasing."""
    if not values or values[0] <= 0 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("%s must be positive and strictly increasing, got %s"
                         % (name, ", ".join("%g" % v for v in values) or "none"))
    return values


def study_convergence(scheme, resolutions, output_dir=None):
    """Planar-wave refinement study; returns (rows, orders).

    rows   -- [(N, {component: L2 error}), ...] for increasing resolutions N
    orders -- {component: [order between consecutive rows, ...]}
    The run goes one period (t_end = sqrt(2)) with rk_high at
    PLANAR_REFERENCE_CFL, so the exact solution is the initial condition.
    """
    rows = []
    for N in _increasing("resolutions", list(resolutions)):
        config = RunConfig(scheme=scheme, nx=N, ny=N, cfl=PLANAR_REFERENCE_CFL,
                           dt=None, t_end=math.sqrt(2.0), ic="planar", rk="rk_high")
        _, final = simulate(config)
        rows.append((N, _final_errors(config, final)))
    orders = {}
    for name in COMPONENT_NAMES:
        seq = [(N, errs[name]) for N, errs in rows]
        # a component that is identically zero (E3) has no order
        orders[name] = [] if any(e <= 0.0 for _, e in seq) else diagnostics.convergence_order(seq)
    outdir = resolve_output_dir(output_dir)
    if outdir:
        diagnostics.write_csv(
            os.path.join(outdir, "errors.csv"),
            ("N",) + COMPONENT_NAMES + tuple("order_" + c for c in COMPONENT_NAMES),
            ([str(N)] + diagnostics.full_precision(errs[c] for c in COMPONENT_NAMES)
             + ["%.3f" % orders[c][i - 1] if i and orders[c] else "" for c in COMPONENT_NAMES]
             for i, (N, errs) in enumerate(rows)))
        _write_summary(outdir, summarize_convergence(scheme, rows, orders))
    return rows, orders


def study_ap(ch_values, output_dir=None):
    """Divergence decay vs cleaning speed for the staggered scheme.

    Gaussian data with a non-solenoidal in-plane component, 40x40 cells,
    fixed dt = 1e-2 to t = 0.1; reports the half-time divergence norms of the
    final step per ch, plus observed orders in eps = c0/ch between rows.
    """
    rows = []
    for ch in _increasing("ch values", [float(ch) for ch in ch_values]):
        config = RunConfig(scheme="simm", energy="quadratic", c0=1.0, ch=ch,
                           nx=40, ny=40, cfl=None, dt=1e-2, t_end=0.1,
                           ic="gauss_ap")
        series, _ = simulate(config)
        rows.append((ch, series.div_B[-1], series.div_E[-1]))
    orders = list(zip(diagnostics.convergence_order([(ch, b) for ch, b, _ in rows]),
                      diagnostics.convergence_order([(ch, e) for ch, _, e in rows])))
    outdir = resolve_output_dir(output_dir)
    if outdir:
        diagnostics.write_csv(
            os.path.join(outdir, "ap.csv"),
            ("ch", "eps", "div_B", "div_E", "order_B", "order_E"),
            (diagnostics.full_precision((ch, 1.0 / ch, div_b, div_e))
             + (["", ""] if i == 0 else ["%.3f" % o for o in orders[i - 1]])
             for i, (ch, div_b, div_e) in enumerate(rows)))
        _write_summary(outdir, summarize_ap(rows, orders))
    return rows, orders


# ---------------------------------------------------------------------------
# Property check suites

class CheckReport:
    def __init__(self):
        self.rows = []  # (name, measured, threshold, ok)

    def add(self, name, value, threshold):
        self.rows.append((name, float(value), float(threshold), value <= threshold))

    @property
    def passed(self):
        return all(ok for _, _, _, ok in self.rows)

    def lines(self):
        out = []
        for name, value, threshold, ok in self.rows:
            out.append("%s  %-46s max residual %.3e  (allowed %.0e)"
                       % ("PASS" if ok else "FAIL", name, value, threshold))
        return out


def _check_matrices(report):
    for c0, ch in ((1.0, 1.0), (1.0, 2.0), (2.0, 5.0), (1.0, 10.0), (0.5, 10.0)):
        mats = assemble_matrices(ModelParams(c0, ch))
        asym = max(np.max(np.abs(H - H.T)) for H in (mats.H1, mats.H2, mats.H3))
        report.add("H symmetric (c0=%g, ch=%g)" % (c0, ch), asym, 0.0)
        eig = np.max(np.abs(mats.H1 @ mats.R - mats.R * mats.Lambda))
        report.add("H1 R = R Lambda (c0=%g, ch=%g)" % (c0, ch), eig, 1e-12)


def _adjoint_residual(u, Av, v, Bu):
    """|u.Av - v.Bu| / (|u| |Av| + |v| |Bu|), at roundoff when B is A's adjoint.

    The norm products bound both inner products, so the ratio measures the
    operators' rounding even where u.Av nearly cancels.
    """
    return abs(np.sum(u * Av) - np.sum(v * Bu)) / (
        np.linalg.norm(u) * np.linalg.norm(Av) + np.linalg.norm(v) * np.linalg.norm(Bu))


def _check_ops(report):
    for nx, ny in ((8, 8), (33, 17), (64, 64)):
        # unit spacing: the compositions cancel stencil-by-stencil, so the
        # residual is pure roundoff, without the 1/(dx*dy) difference-quotient
        # amplification a physical domain would add on top
        g = Grid2D(nx, ny, 0.0, float(nx), 0.0, float(ny))
        report.add("vector identities %dx%d" % (nx, ny),
                   mimetic.check_identities(g, trials=100, seed=7), 1e-13)
    g = Grid2D(32, 32)
    rng = np.random.default_rng(11)
    worst_sbp = 0.0
    for _ in range(100):
        phi = rng.standard_normal((g.nx, g.ny))
        A = rng.standard_normal((g.nx, g.ny, 3))
        C = rng.standard_normal((g.nx, g.ny, 3))
        worst_sbp = max(
            worst_sbp,
            _adjoint_residual(C, mimetic.grad_c2v(g, phi), phi, -mimetic.div_v2c(g, C)),
            _adjoint_residual(C, mimetic.curl_c2v(g, A), A, mimetic.curl_v2c(g, C)))
    report.add("summation by parts (grad/div, curl/curl)", worst_sbp, 1e-15)

    for ch in (1e2, 1e5):
        params = ModelParams(1.0, ch)
        dt = 1e-2
        cc = 0.25 * dt * dt * params.c0 * params.c0
        ch2 = 0.25 * dt * dt * params.ch * params.ch

        def pair(u):  # the in-plane rows of the vector operator, E3 = 0
            E = np.concatenate([u, np.zeros(u.shape[:2] + (1,))], axis=-1)
            return (E + cc * mimetic.curl_c2v(g, mimetic.curl_v2c(g, E))
                    - ch2 * mimetic.grad_c2v(g, mimetic.div_v2c(g, E)))[..., :2]

        def scalar(speed, c):
            return ((g.nx, g.ny), lambda u: simm.apply_phi_operator(g, params, dt, u, speed=speed),
                    lambda u: u - c * mimetic.div_c2v(g, mimetic.grad_v2c(g, u)))
        # phi, E3 (the phi operator at c0) and (E1, E2), fused and composed
        ops = (scalar(ch, ch2), scalar(params.c0, cc),
               ((g.nx, g.ny, 2), lambda u: simm.apply_E_operator(g, params, dt, u), pair))
        worst_sym, min_quad, worst_fused = 0.0, np.inf, 0.0
        for _ in range(100):
            for shape, apply_op, composed in ops:
                u, v = rng.standard_normal(shape), rng.standard_normal(shape)
                Au, Av = apply_op(u), apply_op(v)
                worst_sym = max(worst_sym, _adjoint_residual(u, Av, v, Au))
                min_quad = min(min_quad, np.sum(u * Au) / np.sum(u * u))
                worst_fused = max(worst_fused, np.max(np.abs(Au - composed(u))))
        report.add("implicit operator symmetry (ch=%g)" % ch, worst_sym, 1e-15)
        # positive definiteness: the quadratic form must stay >= ||u||^2
        report.add("implicit operator positivity (ch=%g)" % ch,
                   1.0 - min_quad, 0.0)
        report.add("fused implicit ops = composition (ch=%g)" % ch,
                   worst_fused, 0.0)


def _compatibility_residual(qL, qR, n, model):
    pL = main_field(qL, model)
    pR = main_field(qR, model)
    fhat = htc.abgrall_flux(qL, qR, n, model)
    fnL = n[0] * physical_flux(qL, model, 1) + n[1] * physical_flux(qL, model, 2)
    fnR = n[0] * physical_flux(qR, model, 1) + n[1] * physical_flux(qR, model, 2)
    FnL = n[0] * energy_flux(qL, model, 1) + n[1] * energy_flux(qL, model, 2)
    FnR = n[0] * energy_flux(qR, model, 1) + n[1] * energy_flux(qR, model, 2)
    return np.abs(np.sum(pL * (fhat - fnL), axis=-1)
                  + np.sum(pR * (fnR - fhat), axis=-1)
                  - (FnR - FnL))


def _check_flux(report):
    rng = np.random.default_rng(23)
    params = ModelParams(1.0, 1.0)
    for kind in ENERGIES:
        model = EnergyModel(kind, params)
        qL = rng.normal(0.0, 0.5, size=(10000, 8))
        qR = rng.normal(0.0, 0.5, size=(10000, 8))
        worst = 0.0
        for n in ((1.0, 0.0), (0.0, 1.0)):
            worst = max(worst, float(np.max(_compatibility_residual(qL, qR, n, model))))
        report.add("flux compatibility, %s energy" % kind, worst, 1e-13)

    g = Grid2D(16, 16)
    for kind in ENERGIES:
        model = EnergyModel(kind, params)
        worst = 0.0
        for _ in range(100):
            q = rng.normal(0.0, 0.5, size=(g.nx, g.ny, 8))
            rhs = htc.semidiscrete_rhs(State(g, model, q))
            p = main_field(q, model)
            production = g.cell_volume * float(np.sum(p * rhs))
            worst = max(worst, abs(production))
        report.add("semi-discrete energy production, %s energy" % kind, worst, 1e-12)


CHECK_SUITES = {
    "matrices": _check_matrices,
    "ops": _check_ops,
    "flux": _check_flux,
}


def check(suite="all"):
    """Run one or all property suites; returns a CheckReport."""
    if suite != "all" and suite not in CHECK_SUITES:
        raise ValueError("suite must be all|%s" % "|".join(sorted(CHECK_SUITES)))
    report = CheckReport()
    names = sorted(CHECK_SUITES) if suite == "all" else [suite]
    for name in names:
        CHECK_SUITES[name](report)
    return report

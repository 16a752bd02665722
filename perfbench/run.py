"""End-to-end benchmark of `maxglm run` for both schemes.

Usage (from the repository root):

    python3 perfbench/run.py --workload htc_quadratic --seed 1 --seconds 25 --trace 0

Each workload is one fixed `maxglm run` configuration. The benchmark is a
closed loop with one client: it starts `python -m maxglm run` as a child
process (with `src` on PYTHONPATH), waits for it to exit, checks its output
and starts the next one, until `--seconds` are used up. Every run writes its
CSVs (and snapshots) to a fresh directory under `perfbench/_work`, which is
deleted once the output checks are done. A run that fails a check counts as
failed and is not timed.

The seed shifts the periodic domain by a sub-cell offset (the same shift on
x and y), so each seed samples different initial data at identical cost.

--trace 0 reports the end-to-end metrics, measured from outside the child:
  wall_s             median spawn-to-exit time of a run
  cpu_s              median user + sys time of the child
  setup_s            median wall time of the same command with t_end=0
  mcell_steps_per_s  nx*ny*steps / (wall_s - setup_s) / 1e6
  peak_rss_mb        median peak resident memory of the child
Failed runs are the `failed` field of the result, out of `attempted`.

--trace 1 makes pairs of one untraced and one traced run, in alternating
order (trace_child.py wraps the package's public functions and records
spans), and reports the per-layer metrics of the traced runs. Traced CSVs must
be bitwise identical to the untraced run's. trace.overhead_s is the median
over pairs of traced minus untraced wall time, and simm.cg.failed counts the
solves that raised NonConvergence in every traced run, failed runs included.

The last line of stdout is the JSON result; the lines before it are a
human-readable summary, the environment record and the seed.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
TRACE_CHILD = os.path.join(BENCH_DIR, "trace_child.py")

SETUP_PER_RUN = 8
RUN_TIMEOUT_S = 90.0  # a run slower than this is killed and counted as failed
DRIFT_GATES = {"htc": 1e-11, "simm": 1e-10}  # acceptance gates on max |rel. drift|
SNAPSHOT_NAME = re.compile(r"snap_(\d+)")


@dataclass
class Workload:
    """One `maxglm run` configuration; `config` fixes every key the checks use."""

    name: str
    why: str
    config: dict = field(default_factory=dict)

    def overrides(self, seed, **extra):
        """--override arguments, with the seeded domain shift applied."""
        cfg = dict(self.config)
        shift = domain_shift(seed, int(cfg["nx"]))
        cfg.update(x_min=repr(-1.0 + shift), x_max=repr(1.0 + shift),
                   y_min=repr(-1.0 + shift), y_max=repr(1.0 + shift))
        cfg.update(extra)
        args = []
        for key, value in cfg.items():
            args += ["--override", "%s=%s" % (key, value)]
        return args

    def expected_steps(self, seed, t_end=None):
        """ceil(t_end/dt), with dt worked out the way the CLI documents it."""
        cfg = self.config
        t_end = float(cfg["t_end"] if t_end is None else t_end)
        if t_end == 0.0:
            return 0
        if "dt" in cfg:
            dt = float(cfg["dt"])
        else:
            shift = domain_shift(seed, int(cfg["nx"]))
            dx = ((1.0 + shift) - (-1.0 + shift)) / int(cfg["nx"])
            dy = ((1.0 + shift) - (-1.0 + shift)) / int(cfg["ny"])
            c0 = float(cfg.get("c0", 1.0))
            dt = float(cfg["cfl"]) / (c0 / dx + c0 / dy)
        return math.ceil(t_end / dt - 1e-9)

    @property
    def cells(self):
        return int(self.config["nx"]) * int(self.config["ny"])


WORKLOADS = {w.name: w for w in (
    Workload("htc_quadratic",
             "collocated DP8, quadratic energy: flux-bound RHS where alpha is 0",
             dict(scheme="htc", energy="quadratic", rk="dp8", ic="gauss_t2",
                  nx=80, ny=80, c0=1.0, ch=1.0, cfl=0.9, t_end=2.0)),
    Workload("htc_exponential",
             "collocated DP8, exponential energy: main_field exp and live alpha",
             dict(scheme="htc", energy="exponential", rk="dp8", ic="gauss_t2",
                  nx=80, ny=80, c0=1.0, ch=1.0, cfl=0.9, t_end=1.0)),
    Workload("simm_wave",
             "staggered scheme, cheap CG solves, text snapshots every 25 steps",
             dict(scheme="simm", ic="gauss_t2", nx=160, ny=160, c0=1.0, ch=1.0,
                  cfl=0.9, t_end=2.0, snapshot_every=25)),
    Workload("simm_stiff",
             "staggered scheme at ch=1e5: nearly all time in the implicit solves",
             dict(scheme="simm", ch=1e5, ic="gauss_ap", nx=160, ny=160, c0=1.0,
                  dt=1e-2, t_end=0.05)),
)}


def domain_shift(seed, nx):
    """Seeded sub-cell offset of the periodic domain [-1, 1]^2."""
    return random.Random(seed).random() * 2.0 / nx


# ---------------------------------------------------------------------------
# Running one child process


@dataclass
class RunResult:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    output: str
    timed_out: bool


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MAXGLM_OUTPUT_ROOT", None)
    return env


def run_child(argv):
    """Run argv to completion; wall time, and CPU and peak RSS of the child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    try:
        output = proc.stdout.read()  # EOF when the child exits
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return RunResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, output.decode(errors="replace"), killed.is_set())


def maxglm_argv(workload, seed, outdir, **extra):
    return ([sys.executable, "-m", "maxglm", "run"]
            + workload.overrides(seed, output_dir=outdir, **extra))


# ---------------------------------------------------------------------------
# Output checks


def _read_columns(path, names):
    """The named columns of a CSV with a header row, as lists of floats."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        missing = [n for n in names if n not in header]
        if missing:
            raise ValueError("%s has no column %s" % (os.path.basename(path), missing))
        rows = [line.split(",") for line in fh if line.strip()]
    return {n: [float(row[header.index(n)]) for row in rows] for n in names}


def snapshot_steps(outdir):
    """Steps that wrote a snapshot, from file names snap_<step>*."""
    return {int(m.group(1)) for m in map(SNAPSHOT_NAME.match, os.listdir(outdir)) if m}


def check_run(result, outdir, workload, seed, t_end=None):
    """Reasons the run fails its output checks; an empty list means it passed."""
    if result.timed_out:
        return ["killed after %.0f s" % RUN_TIMEOUT_S]
    if result.exit_code != 0:
        return ["exit code %d: %s" % (result.exit_code, result.output.strip()[-300:])]
    try:
        energy = _read_columns(os.path.join(outdir, "energy.csv"),
                               ("t", "energy", "rel_energy_err"))
        div = _read_columns(os.path.join(outdir, "divergence.csv"), ("t", "div_B", "div_E"))
    except (OSError, ValueError, IndexError) as exc:
        return ["unreadable CSV: %s" % exc]
    problems = []
    columns = list(energy.values()) + list(div.values())
    if not all(math.isfinite(v) for col in columns for v in col):
        problems.append("non-finite value in energy.csv or divergence.csv")
    steps = workload.expected_steps(seed, t_end)
    if len(energy["t"]) != steps + 1 or len(div["t"]) != steps + 1:
        problems.append("%d energy rows, %d divergence rows, expected %d steps"
                        % (len(energy["t"]), len(div["t"]), steps))
    gate = DRIFT_GATES[workload.config["scheme"]]
    drift = max((abs(v) for v in energy["rel_energy_err"]), default=math.inf)
    if not drift <= gate:
        problems.append("max |relative energy drift| %.3e exceeds %.0e" % (drift, gate))
    every = int(workload.config.get("snapshot_every", 0))
    want = set(range(0, steps + 1, every)) if every else set()
    got = snapshot_steps(outdir)
    if got != want:
        problems.append("snapshots at %d steps, expected %d" % (len(got), len(want)))
    return problems


def read_outputs(outdir):
    out = {}
    for name in ("energy.csv", "divergence.csv"):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# Traced runs: turn spans into per-layer metrics

# self time of a span = its duration minus its direct children of these names
SELF_EXCLUDES = {
    "htc.rk_step": ("htc.rhs",),
    "htc.rhs": ("htc.flux",),
    "simm.step": ("simm.cg.phi", "simm.cg.E"),  # RHS assembly + explicit updates
}


def _per(total, count):
    return total / count if count else 0.0


def layer_metrics(trace, steps):
    """Per-layer metrics of one traced run from its span record."""
    spans = trace["spans"]  # [name, start, end, parent index, extra]
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    applies = defaultdict(int)  # cg span index -> operator applications inside
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        calls[name] += 1
        busy[name] += t1 - t0
        self_time[name] += t1 - t0
        if parent >= 0:
            pname = spans[parent][0]
            if name in SELF_EXCLUDES.get(pname, ()):
                self_time[pname] -= t1 - t0
            if name.startswith("simm.apply_op."):
                applies[parent] += 1
    per_kind_applies = defaultdict(int)
    for idx, n in applies.items():
        per_kind_applies[spans[idx][0]] += n
    simulate = next((s for s in spans if s[0] == "harness.simulate"), [None, 0.0, 0.0])
    first_step = next((s[1] for s in spans if s[0] in ("htc.rk_step", "simm.step")),
                      simulate[2])
    solves = calls["simm.cg.phi"] + calls["simm.cg.E"]
    ms = 1e3
    return {
        "cli.import_ms": trace["import_s"] * ms,
        "harness.setup_ms": (first_step - simulate[1]) * ms,
        "htc.rk_step.calls": calls["htc.rk_step"],
        "htc.rk_step.self_ms": self_time["htc.rk_step"] * ms,
        "htc.rhs.calls": calls["htc.rhs"],
        "htc.rhs.ms_per_call": _per(busy["htc.rhs"], calls["htc.rhs"]) * ms,
        "htc.rhs.self_ms": self_time["htc.rhs"] * ms,
        "htc.flux.calls": calls["htc.flux"],
        "htc.flux.ms_per_call": _per(busy["htc.flux"], calls["htc.flux"]) * ms,
        "model.main_field.calls": calls["model.main_field"],
        "model.main_field.ms_per_call":
            _per(busy["model.main_field"], calls["model.main_field"]) * ms,
        "simm.step.self_ms": self_time["simm.step"] * ms,
        "simm.cg.solves": solves,
        "simm.cg.ms_per_solve": _per(busy["simm.cg.phi"] + busy["simm.cg.E"], solves) * ms,
        "simm.cg.applies_per_solve.phi":
            _per(per_kind_applies["simm.cg.phi"], calls["simm.cg.phi"]),
        "simm.cg.applies_per_solve.E": _per(per_kind_applies["simm.cg.E"], calls["simm.cg.E"]),
        "simm.cg.applies": sum(applies.values()),
        "simm.apply_op.ms_per_call.phi":
            _per(busy["simm.apply_op.phi"], calls["simm.apply_op.phi"]) * ms,
        "simm.apply_op.ms_per_call.E":
            _per(busy["simm.apply_op.E"], calls["simm.apply_op.E"]) * ms,
        "mimetic.calls": calls["mimetic"],
        "mimetic.ms_per_call": _per(busy["mimetic"], calls["mimetic"]) * ms,
        "diagnostics.ms_per_step": busy["diagnostics.per_step"] / (steps + 1) * ms,
        "diagnostics.csv_ms": busy["diagnostics.csv"] * ms,
        "grid.snapshot.calls": calls["grid.snapshot"],
        "grid.snapshot.ms_per_call": _per(busy["grid.snapshot"], calls["grid.snapshot"]) * ms,
        "grid.snapshot.bytes": sum(s[4] for s in spans if s[0] == "grid.snapshot"),
    }


def cg_failures(trace):
    """CG solves of one traced run that raised NonConvergence."""
    return sum(1 for s in trace["spans"]
               if s[0].startswith("simm.cg.") and s[4] == "NonConvergence")


# Reported with --trace 1, in this order; units as in BENCHMARK.json.
PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "harness.setup_ms": "ms",
    "htc.rk_step.calls": "count", "htc.rk_step.self_ms": "ms",
    "htc.rhs.calls": "count", "htc.rhs.ms_per_call": "ms", "htc.rhs.self_ms": "ms",
    "htc.flux.calls": "count", "htc.flux.ms_per_call": "ms",
    "model.main_field.calls": "count", "model.main_field.ms_per_call": "ms",
    "simm.step.self_ms": "ms",
    "simm.cg.solves": "count", "simm.cg.ms_per_solve": "ms",
    "simm.cg.applies_per_solve.phi": "count", "simm.cg.applies_per_solve.E": "count",
    "simm.cg.applies_spread": "count", "simm.cg.failed": "count",
    "simm.apply_op.ms_per_call.phi": "ms", "simm.apply_op.ms_per_call.E": "ms",
    "mimetic.calls": "count", "mimetic.ms_per_call": "ms",
    "diagnostics.ms_per_step": "ms", "diagnostics.csv_ms": "ms",
    "grid.snapshot.calls": "count", "grid.snapshot.ms_per_call": "ms",
    "grid.snapshot.bytes": "bytes",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Environment record


def _blas_threads(np):
    """Thread count the bundled OpenBLAS would use, or None if not found."""
    import ctypes
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# The benchmark


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failures = []  # (kind, reasons)
        self.steps = workload.expected_steps(seed)

    def one_run(self, traced=False, t_end=None):
        """One checked run: (RunResult, problems, CSV bytes or None, spans or None).

        A traced run's spans are returned even when the run fails its checks,
        so that the solves that made it fail are still counted.
        """
        outdir = tempfile.mkdtemp(prefix=self.workload.name + "_", dir=WORK)
        try:
            extra = {} if t_end is None else {"t_end": repr(t_end)}
            argv = maxglm_argv(self.workload, self.seed, outdir, **extra)
            trace_path = os.path.join(outdir, "spans.json")
            if traced:
                argv = [sys.executable, TRACE_CHILD, trace_path] + argv[3:]
            result = run_child(argv)
            problems = check_run(result, outdir, self.workload, self.seed, t_end)
            trace = None
            if traced and os.path.isfile(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
            if problems:
                return result, problems, None, trace
            return result, [], read_outputs(outdir), trace
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def counted_run(self, kind, traced=False):
        self.attempted += 1
        result, problems, outputs, trace = self.one_run(traced)
        if problems:
            self.fail(kind, problems)
        return result, outputs, trace

    def fail(self, kind, problems):
        self.failures.append((kind, problems))
        print("FAILED %s run: %s" % (kind, "; ".join(problems)))

    def setup_run(self):
        """Wall time of the t_end=0 run; a failure here stops the benchmark."""
        result, problems, _, _ = self.one_run(t_end=0.0)
        if problems:
            raise SystemExit("set-up run failed: %s" % "; ".join(problems))
        return result.wall

    def timed_loop(self):
        """Timed runs until --seconds are used, each after SETUP_PER_RUN set-up runs.

        Spreading the set-up runs over the whole window, instead of taking
        them in one burst, keeps setup_s from following a short slow spell.
        Time spent in set-up runs does not count against --seconds.
        """
        self.setup_run()  # untimed warm-up: byte-compiles the package once
        samples, setups = [], []
        busy = 0.0
        while True:
            setups += [self.setup_run() for _ in range(SETUP_PER_RUN)]
            result, outputs, _ = self.counted_run("timed")
            if outputs is not None:
                samples.append(result)
            busy += result.wall
            if busy + result.wall > self.seconds:
                return samples, setups

    def traced_loop(self):
        """Pairs of an untraced and a traced run; compare their CSVs bitwise.

        The pair's order alternates, so that a drift in machine speed does
        not read as tracer cost. Returns the wall-time differences (traced
        minus untraced) of the pairs where both runs passed, the per-layer
        metrics of the traced runs that passed, and the count of failed CG
        solves over all traced runs.
        """
        overheads, layers = [], []
        cg_failed = 0
        start = time.perf_counter()
        for pair in itertools.count():
            t0 = time.perf_counter()
            runs = {}
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                runs[traced] = self.counted_run("traced" if traced else "untraced", traced)
            (plain, plain_out, _), (result, outputs, trace) = runs[False], runs[True]
            if trace is not None:
                cg_failed += cg_failures(trace)
            if outputs is not None and plain_out is not None:
                if outputs != plain_out:
                    self.fail("traced", ["CSVs differ from the untraced run"])
                else:
                    overheads.append(result.wall - plain.wall)
                    layers.append(layer_metrics(trace, self.steps))
            if time.perf_counter() - start + (time.perf_counter() - t0) > self.seconds:
                return overheads, layers, cg_failed


def high_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(bench, samples, setups):
    wall = median([r.wall for r in samples])
    setup = median(setups)
    return {
        "wall_s": wall,
        "cpu_s": median([r.cpu for r in samples]),
        "setup_s": setup,
        "mcell_steps_per_s": bench.workload.cells * bench.steps / (wall - setup) / 1e6,
        "peak_rss_mb": median([r.rss_mb for r in samples]),
    }


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
             "mcell_steps_per_s": "Mcell-steps/s", "peak_rss_mb": "MB"}


def per_layer(overheads, layers, cg_failed):
    out = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            out[name] = median(overheads)
        elif name == "simm.cg.failed":
            out[name] = cg_failed
        elif name == "simm.cg.applies_spread":
            totals = [m["simm.cg.applies"] for m in layers]
            out[name] = max(totals) - min(totals)
        else:
            out[name] = median([m[name] for m in layers])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record (samples, env) here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxglm", "__init__.py")):
        print("error: no maxglm package under %s" % SRC, file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    bench = Bench(workload, args.seed, args.seconds)
    env = environment()
    shift = domain_shift(args.seed, int(workload.config["nx"]))
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "domain_shift": shift, "config": workload.config, "env": env}
    print("seed %d, domain shift %.17g" % (args.seed, shift))
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        overheads, layers, cg_failed = bench.traced_loop()
        if not layers:
            print("error: no pair of untraced and traced runs passed its checks",
                  file=sys.stderr)
            return 1
        metrics = per_layer(overheads, layers, cg_failed)
        units = PER_LAYER_UNITS
        record.update(trace_overhead_s=overheads, layers=layers)
    else:
        samples, setups = bench.timed_loop()
        if not samples:
            print("error: no run passed its checks", file=sys.stderr)
            return 1
        metrics = end_to_end(bench, samples, setups)
        units = E2E_UNITS
        record.update(setup_s=setups, wall_s=[r.wall for r in samples],
                      cpu_s=[r.cpu for r in samples], peak_rss_mb=[r.rss_mb for r in samples])
        walls = [r.wall for r in samples]
        tail = high_percentile(walls)
        print("wall_s median %.4f over %d runs%s" % (
            median(walls), len(walls),
            "" if tail is None else ", p%.0f %.4f" % tail))

    record.update(attempted=bench.attempted, failures=bench.failures, metrics=metrics)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    for name, value in metrics.items():
        print("%-34s %.6g %s" % (name, value, units[name]))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

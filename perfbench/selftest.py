"""Self-test of the benchmark's output checks and of its failed-solve count.

Usage (from the repository root): python3 perfbench/selftest.py

1. Runs `maxglm run` with the collocated scheme at ch=10 on the default 40x40
   grid. The CFL step is taken from c0, not from the faster ch, so the run
   blows up: its relative energy drift is of order 1e16, yet the CLI exits 0.
   The benchmark's checks must flag it as failed.
2. Runs the staggered scheme traced, at ch=1e5 with CG capped at 2
   iterations, so the first solve raises NonConvergence and the run aborts.
   The run must be flagged as failed, and its spans must still count the
   failed solve that simm.cg.failed reports.

Exits 0 when both hold.
"""

import math
import os
import shutil
import sys
import tempfile

import run as bench

UNSTABLE = bench.Workload(
    "selftest_ch10", "unstable collocated run that still exits 0",
    dict(scheme="htc", energy="quadratic", rk="rk_high", ic="gauss_t2", nx=40, ny=40,
         c0=1.0, ch=10.0, cfl=0.9, t_end=math.sqrt(2.0)))

CG_CAPPED = bench.Workload(
    "selftest_cg_cap", "stiff staggered run whose CG solves cannot converge",
    dict(scheme="simm", ch=1e5, ic="gauss_ap", nx=16, ny=16, c0=1.0,
         dt=1e-2, t_end=0.02, cg_maxiter=2))


def check_unstable():
    outdir = tempfile.mkdtemp(prefix="selftest_", dir=bench.WORK)
    try:
        result = bench.run_child(bench.maxglm_argv(UNSTABLE, 0, outdir))
        problems = bench.check_run(result, outdir, UNSTABLE, 0)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print("ch=10: exit code %d; check found: %s"
          % (result.exit_code, "; ".join(problems) or "nothing"))
    return any("energy drift" in p for p in problems)


def check_cg_failure():
    result, problems, _, trace = bench.Bench(CG_CAPPED, 0, 1.0).one_run(traced=True)
    failed = bench.cg_failures(trace) if trace is not None else 0
    print("cg_maxiter=2: exit code %d; check found: %s; failed solves in spans: %d"
          % (result.exit_code, "; ".join(problems)[:200] or "nothing", failed))
    return bool(problems) and failed >= 1


def main():
    os.makedirs(bench.WORK, exist_ok=True)
    ok = True
    for name, check in (("the ch=10 run is flagged for its energy drift", check_unstable),
                        ("the capped-CG run is flagged and its failed solve counted",
                         check_cg_failure)):
        passed = check()
        ok = ok and passed
        print("%s: %s" % ("PASS" if passed else "FAIL", name))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

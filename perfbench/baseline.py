"""Run the benchmark over ten seeds, twice, and write one BENCH record.

Usage (from the repository root):

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json

Every workload of BENCHMARK.json runs untraced on seeds 1..10 for
`run_seconds` each; then the whole set is taken a second time, and then
seeds 1 and 2 run traced. For each set and end-to-end metric the record
holds the median, the quartiles and the spread (q3 - q1) / median over
seeds, and how much worse the second set's median is than the first's, next
to the metric's bound. Wall times of all untraced runs are pooled for the
highest percentile with at least ten samples above it. Per-layer metrics are
the median, min and max over the traced runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import run as bench

BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")
SEEDS = range(1, 11)
TRACE_SEEDS = SEEDS[:2]
SETS = 2


def run_once(workload, seed, seconds, trace):
    fd, path = tempfile.mkstemp(suffix=".json", dir=bench.WORK)
    os.close(fd)
    try:
        argv = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--record", path]
        proc = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit("%s seed %d trace %d failed:\n%s%s"
                             % (workload, seed, trace, proc.stdout, proc.stderr))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(path, encoding="utf-8") as fh:
            return result, json.load(fh)
    finally:
        os.remove(path)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first, second, better):
    """Share by which the second median is worse than the first (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    os.makedirs(bench.WORK, exist_ok=True)

    sets = [{name: [run_once(name, s, seconds, 0) for s in SEEDS] for name in names}
            for _ in range(SETS)]
    out = {"seconds": seconds, "env": sets[0][names[0]][0][1]["env"], "workloads": {}}
    for name in names:
        runs = [r for one_set in sets for r in one_set[name]]
        traced = [run_once(name, s, seconds, 1) for s in TRACE_SEEDS]
        entry = {
            "why": bench.WORKLOADS[name].why,
            "config": bench.WORKLOADS[name].config,
            "seeds": list(SEEDS),
            "trace_seeds": list(TRACE_SEEDS),
            "attempted": sum(r["attempted"] for r, _ in runs + traced),
            "failed": sum(r["failed"] for r, _ in runs + traced),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in spec["end_to_end"]:
            key = metric["name"]
            per_set = [summary([r["metrics"][key]["value"] for r, _ in one_set[name]])
                       for one_set in sets]
            worse = worse_by(per_set[0]["median"], per_set[-1]["median"], metric["better"])
            entry["end_to_end"][key] = {"unit": metric["unit"], "bound": metric["bound"],
                                        "sets": per_set, "second_worse_by": worse}
            for i, s in enumerate(per_set):
                print("%-16s %-18s set %d median %10.5g  spread %.3f  (bound %.2f, target < %.3f)%s"
                      % (name, key, i + 1, s["median"], s["spread"], metric["bound"],
                         metric["bound"] / 3,
                         "" if s["spread"] < metric["bound"] / 3 else "  WIDE"))
            print("%-16s %-18s second set worse by %+.3f%s" % (
                name, key, worse, "" if worse <= metric["bound"] else "  OVER BOUND"),
                flush=True)
        walls = [w for _, rec in runs for w in rec["wall_s"]]
        tail = bench.high_percentile(walls)
        entry["wall_s_pooled"] = {"samples": len(walls), "median": statistics.median(walls)}
        if tail is not None:
            entry["wall_s_pooled"].update(percentile=tail[0], value=tail[1])
        for metric in traced[0][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r, _ in traced]
            entry["per_layer"][metric] = {"median": statistics.median(values),
                                          "min": min(values), "max": max(values),
                                          "unit": traced[0][0]["metrics"][metric]["unit"]}
        out["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

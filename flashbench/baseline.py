#!/usr/bin/env python3
"""Measure the benchmark's baseline and check that it is steady.

Run from the root of a flashsim checkout:

    python3 flashbench/baseline.py

For every workload in BENCHMARK.json this makes SETS sets of RUNS untraced
runs of BENCHMARK.json's run_seconds, each with its own --seed, and then two
traced runs, whose deterministic counts must agree; the first gives the
per-layer table. For each end-to-end metric it reports every set's median
and quartiles, the spread (the distance between the quartiles as a share of
the median) and the drift of each later set's median from the first. A
spread above a third of the metric's bound, or a drift either way above the
bound, is flagged and makes the exit status 1. It also keeps each run's
unscaled wall and set-up times and calibration kernel time (its
"# unscaled" line), which have no bound. The result is written to
flashbench/baseline.json.
"""

import json
import re
import statistics
import subprocess
import sys
import time


# Simulated counts that must repeat exactly from run to run.
DETERMINISTIC = ["sim.events", "sim.flash_cycles", "workload.refs", "magic.handlers", "network.msgs"]

RUNS = 10
SETS = 2
OUT = "flashbench/baseline.json"


def run(workload, seed, seconds, trace):
    cmd = ["bash", "flashbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env, unscaled = {}, {}
    for line in lines:
        if line.startswith("# go="):
            env = dict(re.findall(r"(\w+)=(\S+)", line))
        m = re.match(r"# unscaled: wall_s (\S+) setup_s (\S+); calibration kernel (\S+) ms", line)
        if m:
            unscaled = {"unscaled.wall_s": float(m[1]), "unscaled.setup_s": float(m[2]), "unscaled.calib_ms": float(m[3])}
    env["run_s"] = round(time.monotonic() - start, 1)
    return json.loads(lines[-1]), env, unscaled


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"run_seconds": seconds, "runs_per_set": RUNS, "workloads": {}}
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        entry = {"attempted": 0, "failed": 0, "sets": []}
        for s in range(SETS):
            vals = {}
            for i in range(RUNS):
                seed = 1000 * (s + 1) + i
                res, env, unscaled = run(w, seed, seconds, 0)
                run_s = env.pop("run_s")
                result["host"] = env
                entry["attempted"] += res["attempted"]
                entry["failed"] += res["failed"]
                for name, m in res["metrics"].items():
                    vals.setdefault(name, []).append(m["value"])
                for name, v in unscaled.items():
                    vals.setdefault(name, []).append(v)
                print(f"{w} set {s} seed {seed} ({run_s} s): " + " ".join(
                    f"{k}={v[-1]:.4g}" for k, v in sorted(vals.items())), flush=True)
            entry["sets"].append({name: summary(v) for name, v in sorted(vals.items())})
        tables = []
        for seed in (1, 2):
            traced, _, _ = run(w, seed, seconds, 1)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            tables.append({k: m["value"] for k, m in sorted(traced["metrics"].items())})
        entry["per_layer"] = tables[0]
        result["workloads"][w] = entry
        for name in DETERMINISTIC:
            same = tables[0][name] == tables[1][name]
            ok = ok and same
            print(f"{w:15s} {name:16s} {tables[0][name]:.0f}" + ("" if same else f" != {tables[1][name]:.0f} NOT DETERMINISTIC"))

        first = entry["sets"][0]
        for name in sorted(bounds):
            bound = bounds[name]
            line = f"{w:15s} {name:16s} bound {bound:.2f}"
            for s, stats in enumerate(entry["sets"]):
                st = stats[name]
                flag = ""
                if st["spread"] > bound / 3:
                    flag, ok = " SPREAD>bound/3", False
                drift = st["median"] / first[name]["median"] - 1
                if abs(drift) > bound:
                    flag, ok = flag + " DRIFT>bound", False
                line += f" | set {s}: median {st['median']:.5g} spread {st['spread']:.3f} drift {drift:+.3f}{flag}"
            print(line)
        print(f"{w:15s} failed {entry['failed']} of {entry['attempted']} simulations")
        ok = ok and entry["failed"] == 0

    with open(OUT, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

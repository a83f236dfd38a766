#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Run from the repository root:

    python3 perfbench/run.py --workload campus_reads --seed 1 --seconds 5 --trace 0

The script builds perfbench/bench.exe with dune, runs it, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json.  With --trace 1 the workload runs twice with the same
seed, untraced and then traced, and the metrics are the per-layer ones:
the traced run's layer figures, the tracing overhead (traced minus
untraced) of every end-to-end metric, and the query time spent outside
dispatch.  The two runs' deterministic counts must match exactly, or the
result is marked incorrect.  Raw results and the traced run's Chrome
trace are written to perfbench/out/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = os.path.join("perfbench", "out")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_bench(args, trace, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", OUT]
    # its own process group, so a timeout also stops the set-up children
    # it forks
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("bench.exe timed out")
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("bench.exe exited with %d" % p.returncode)
    res = json.loads(lines[-1])
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    return res


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    os.makedirs(OUT, exist_ok=True)

    # the runs must end within 180 s of the start (the build is a no-op
    # but for the first run in a checkout)
    start = time.monotonic()
    deadline = start + 170
    plain = run_bench(args, 0, deadline if args.trace == 0 else start + 85)
    if args.trace == 0:
        result = plain
        values = dict(plain["e2e"])
        declared = spec["end_to_end"]
    else:
        traced = run_bench(args, 1, deadline)
        result = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
        }
        # counts are a function of the seed alone: any difference between
        # the two runs is a determinism bug
        a, b = plain["counts"], traced["counts"]
        diffs = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        for k in diffs:
            print("run.py: count %s differs across same-seed runs: %s vs %s"
                  % (k, a.get(k), b.get(k)), file=sys.stderr)
        if diffs:
            result["correct"] = False
        values = dict(traced["layers"])
        for k, v in plain["e2e"].items():
            values["overhead." + k] = traced["e2e"][k] - v
        values["rpc.outside_dispatch_us"] = (
            plain["e2e"]["query_p50_us"] - traced["layers"]["glue.dispatch_p50_us"])
        declared = spec["per_layer"]

    names = [m["name"] for m in declared]
    if set(names) != set(values):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(names) - set(values)), sorted(set(values) - set(names))))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

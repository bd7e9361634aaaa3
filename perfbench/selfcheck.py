#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [--seed N]

For each workload, it runs the benchmark twice at one seed and once at the
next seed, then twice traced at the first seed, each with --seconds 1, and
checks four things:
  * at the same seed, the input and answer digests and every metric
    labelled `exact` (end-to-end and per-layer) are identical;
  * the other seed changes the generated inputs (for tpcc, whose inputs are
    drawn inside RunTraffic, its exact simulated metrics);
  * every run is correct and no operation failed;
  * BENCHMARK.json names the metrics, with their units, that the untraced
    and traced runs print.
Exits non-zero on the first mismatch.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("selfcheck: %s failed (exit %d)\n%s" % (" ".join(cmd), out.returncode,
                                                           out.stderr[-2000:]))
    result = json.loads(lines[-1])
    notes = dict(re.findall(r"^# (\w+_digest)=(\d+)$", out.stdout, re.M))
    # "e2e|info <name> <value> ..." and "layer <layer> <name> <value> ...".
    exact = dict(re.findall(r"^(?:e2e|info|layer +\S+) +(\S+) +(\S+) .*\[exact\]",
                            out.stdout, re.M))
    if not result["correct"] or result["failed"] != 0:
        sys.exit("selfcheck: %s seed %d: correct=%s failed=%d" %
                 (workload, seed, result["correct"], result["failed"]))
    return result, notes, exact


def expect(cond, what):
    if not cond:
        sys.exit("selfcheck: " + what)
    print("ok   " + what)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in [w["name"] for w in bench["workloads"]]:
        a, a_notes, a_exact = run(w, seed)
        b, b_notes, b_exact = run(w, seed)
        c, c_notes, c_exact = run(w, seed + 1)
        printed = {k: v["unit"] for k, v in a["metrics"].items()}
        expect(printed == declared, "%s: end-to-end metrics match BENCHMARK.json" % w)
        expect(a_exact and a_exact == b_exact,
               "%s: %d exact metrics identical at seed %d" % (w, len(a_exact), seed))
        expect(a_notes == b_notes,
               "%s: digests identical at seed %d %s" % (w, seed, sorted(a_notes)))
        if a_notes:
            expect(a_notes["inputs_digest"] != c_notes["inputs_digest"],
                   "%s: seed %d changes the inputs" % (w, seed + 1))
        else:
            expect(a_exact != c_exact, "%s: seed %d changes the simulated run" % (w, seed + 1))
        traced, _, t_exact = run(w, seed, trace=1)
        _, _, t2_exact = run(w, seed, trace=1)
        printed = {k: v["unit"] for k, v in traced["metrics"].items()}
        expect(printed == declared_layers, "%s: per-layer metrics match BENCHMARK.json" % w)
        expect(t_exact and t_exact == t2_exact,
               "%s: %d traced exact metrics identical at seed %d" % (w, len(t_exact), seed))
    print("selfcheck passed")


if __name__ == "__main__":
    main()

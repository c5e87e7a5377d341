"""Self-test of the benchmark at tiny sizes (sampling n = 6, counts n = 10).

Usage: python3 perfbench/selftest.py

Checks that every workload reports each metric BENCHMARK.json names,
with its unit, and no failed operation; that a wrong pinned count
shows up as failed operations; and that two traced runs with one seed
give identical layer counts.  Exits 1 on the first failed check.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

# Counts of children and replays per run.BASE_SECONDS.
TINY = {
    "sample-tanglegram": {"what": "tanglegram", "n": 6, "count": 5,
                          "children": 2, "warm": 2, "probes": 1},
    "sample-tree": {"what": "tree", "n": 6, "count": 5, "children": 2, "warm": 2, "probes": 1},
    "count-direct": {"route": "direct", "n": 10, "children": 1, "warm": 1},
    "count-recurrence": {"route": "recurrence", "n": 10, "children": 1, "warm": 2},
    "count-mu": {"route": "mu", "n": 10, "children": 1, "warm": 1},
}
PINNED = {"10": "382728552"}
EXACT_COUNTS = ("partition.partitions_listed", "sample.split_misses",
                "sample.tree_build_calls", "tree.node_calls", "perm.conjugator_calls",
                "counting.result_digits")


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    check(sorted(TINY) == sorted(w["name"] for w in bench["workloads"]),
          "TINY covers the workloads of BENCHMARK.json")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for name, spec in TINY.items():
            report, _ = run.run_workload(name, spec, 1, run.BASE_SECONDS, trace, PINNED)
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            check(got == want, "%s trace=%d metrics %s" % (name, trace, sorted(got.items())))
            check(report["correct"] and report["failed"] == 0 and report["attempted"] > 0,
                  "%s trace=%d error_rate is 0" % (name, trace))

    for name in ("count-direct", "count-recurrence", "count-mu"):
        report, _ = run.run_workload(name, TINY[name], 1, run.BASE_SECONDS, False,
                                     {"10": "382728553"})
        check(not report["correct"] and report["failed"] == 1,
              "%s: a wrong pinned count fails the operation: %r" % (name, report))

    for name, spec in TINY.items():
        a, _ = run.run_workload(name, spec, 2, run.BASE_SECONDS, True, PINNED)
        b, _ = run.run_workload(name, spec, 2, run.BASE_SECONDS, True, PINNED)
        for m in EXACT_COUNTS:
            check(a["metrics"][m] == b["metrics"][m], "%s: %s repeats exactly" % (name, m))
    print("selftest passed")


if __name__ == "__main__":
    main()

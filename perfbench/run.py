"""The repository benchmark: cold and warm sampling, and exact counting.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is one invocation of
tanglekit.cli.run(argv) in a child interpreter (perfbench/child.py)
that imports the package from src/.  Children run one at a time with a
fixed PYTHONHASHSEED.  The seed picks the sampler seeds; the counting
workloads compute one fixed count.  --seconds sets how much fixed work
the run does, never a time box.  Every timing is a total over that
work, because this class of host switches between two speed regimes
about 1.7x apart and a median of short slices flips between them (see
perfbench/README.md).

The last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the
per-layer metrics of a hooked run with --trace 1.  A summary goes to
stderr.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hooks import layer_metrics  # noqa: E402

# Each workload: what one child runs, and how many children and warm
# replays make up BASE_SECONDS of fixed work on a 2-CPU x86 host;
# --seconds scales the number of children, never the work inside one.
BASE_SECONDS = 15
WORKLOADS = {
    # The λ table (b(120) = 20,798 partitions) dominates set-up and cold
    # time; warm replays exercise tree assembly and the conjugator.
    "sample-tanglegram": {"what": "tanglegram", "n": 120, "count": 100,
                          "children": 3, "warm": 15, "probes": 0},
    # Split-table misses and q_of dominate cold time; the λ table is
    # tiny and no conjugator is drawn.  Set-up depends on the seed of the
    # first sample, so set-up probes add seeds cheaply.  Warm replays are
    # all split-table hits and cheap, so there are many.
    "sample-tree": {"what": "tree", "n": 60, "count": 40,
                    "children": 3, "warm": 40, "probes": 16},
    # No sampler code runs.  One workload per counting route, so that a
    # slowdown of one route is not diluted by the other two.  A warm
    # replay of the recurrence route is a hit in its module-level memo.
    "count-direct": {"route": "direct", "n": 200, "children": 8, "warm": 1},
    "count-recurrence": {"route": "recurrence", "n": 1000, "children": 4, "warm": 50},
    "count-mu": {"route": "mu", "n": 120, "children": 4, "warm": 1},
}

CHILD_CAP_S = 60.0


def load_pinned():
    with open(os.path.join(HERE, "counts.json")) as f:
        return json.load(f)["tanglegrams"]


def plan(name, spec, seed, seconds):
    """The fixed list of children for one run: (argv, warm replays).

    A count child computes the workload's one count, whatever the seed.
    A full sampling child samples `count` objects and replays them warm;
    a set-up probe samples one object, which times set-up alone.  Every
    sampling child has its own sampler seed, except the last one."""
    rng = random.Random("%s:%d" % (name, seed))
    scale = seconds / BASE_SECONDS

    def scaled(key, least):
        return max(least, round(spec[key] * scale))

    if "route" in spec:
        argv = ["count", "tanglegrams", "--n", str(spec["n"]), "--method", spec["route"]]
        return [(argv, spec["warm"])] * scaled("children", 1)

    def argv(seed, count):
        return ["sample", spec["what"], "--n", str(spec["n"]), "--seed", str(seed),
                "--count", str(count)]

    seeds = [rng.randrange(1, 10 ** 6) for _ in range(scaled("children", 2))]
    jobs = [(argv(s, spec["count"]), spec["warm"]) for s in seeds]
    probes = [(argv(rng.randrange(1, 10 ** 6), 1), 0) for _ in range(scaled("probes", 0))]
    for i, probe in enumerate(probes):
        # spread the probes evenly between the full children
        jobs.insert(round((i + 1) * len(seeds) / (len(probes) + 1)) + i, probe)
    # A second cold child with the first child's argv, without warm
    # replays, must reproduce its output byte for byte.
    jobs.append((argv(seeds[0], spec["count"]), 0))
    return jobs


def run_child(argv, warm, trace):
    """One child; returns its result dict, or None if it failed as a whole."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONHASHSEED": "0",
           "OMP_NUM_THREADS": "1"}
    spec = json.dumps({"argv": argv, "warm": warm, "trace": trace})
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_CAP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("child over its %.0f s cap: %s" % (CHILD_CAP_S, " ".join(argv)),
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("child exited %d: %s\n%s" % (proc.returncode, " ".join(argv), err[-2000:]),
              file=sys.stderr)
        return None
    if err:
        sys.stderr.write(err[-2000:])
    try:
        return json.loads(out)
    except ValueError:
        print("child printed no result: %s" % " ".join(argv), file=sys.stderr)
        return None


def check_samples(text, what, n, count, parse):
    """True when the output holds `count` well-formed samples of size n."""
    lines = text.splitlines()
    if len(lines) != count:
        return False
    for line in lines:
        try:
            obj = json.loads(line)
            trees = [obj["tree"]] if what == "tree" else [obj["left"], obj["right"]]
            keys = {"n", "tree"} if what == "tree" else {"n", "left", "right", "matching"}
            if set(obj) != keys or obj["n"] != n:
                return False
            for key in trees:
                t = parse(key)
                if t.key != key or t.leaves != n:
                    return False
            if what != "tree" and sorted(obj["matching"]) != list(range(1, n + 1)):
                return False
        except (ValueError, KeyError, TypeError, IndexError, AssertionError):
            return False
    return True


def run_workload(name, spec, seed, seconds, trace, pinned):
    """Runs one workload; returns (report dict, summary lines)."""
    if "route" not in spec:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from tanglekit.tree import parse

    start = time.monotonic()
    attempted = failed = 0
    results = []
    first_out = {}
    for argv, warm in plan(name, spec, seed, seconds):
        r = run_child(argv, warm, trace)
        if r is None:
            attempted += 1
            failed += 1
            continue
        attempted += 1 + r["warm_ops"]
        failed += r["warm_failed"]
        if "route" in spec:
            good = r["out"] == pinned.get(str(spec["n"]), "") + "\n"
        else:
            good = check_samples(r["out"], spec["what"], spec["n"], int(argv[-1]), parse)
            good = good and first_out.setdefault(tuple(argv), r["out"]) == r["out"]
        if not (r["ok"] and good):
            failed += 1
            print("failed check: %s" % " ".join(argv), file=sys.stderr)
        r["full"] = "route" in spec or argv[-1] == str(spec["count"])
        results.append(r)

    metrics = {}
    if results and trace:
        totals = {"seconds": {}, "calls": {}, "items": {}, "digits": 0, "build_lookups": 0}
        for r in results:
            t = r["trace"]
            for part in ("seconds", "calls", "items"):
                for k, v in t[part].items():
                    totals[part][k] = totals[part].get(k, 0) + v
            totals["digits"] += t["digits"]
            totals["build_lookups"] += t["build_lookups"]
        metrics = layer_metrics(totals)
        metrics["host.ref_ms"] = {"value": statistics.median(r["ref_ms"] for r in results),
                                  "unit": "ms"}
        warm_s = sum(r["warm_s"] for r in results)
        if warm_s:
            metrics["trace.overhead"] = {
                "value": warm_s / sum(r["untraced_s"] for r in results), "unit": "1"}
    elif results:
        full = [r for r in results if r["full"]]
        warm_s = sum(r["warm_s"] for r in results)
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in results),
                              "unit": "s"}
        # A metric whose children all failed is left out; the failures
        # are counted.
        if full:
            metrics["cold_s"] = {"value": statistics.fmean(r["cold_s"] for r in full),
                                 "unit": "s"}
            metrics["peak_rss_mb"] = {"value": statistics.fmean(r["rss_mb"] for r in full),
                                      "unit": "MiB"}
        if warm_s:
            metrics["warm_lines_per_s"] = {
                "value": sum(r["warm_lines"] for r in results) / warm_s, "unit": "1/s"}
    summary = ["%s seed=%d: %d children, %d operations, %d failed, error_rate %.4g,"
               " host.ref_ms %.2f, %.1f s"
               % (name, seed, len(results), attempted, failed,
                  failed / attempted if attempted else 0.0,
                  statistics.median(r["ref_ms"] for r in results) if results else 0.0,
                  time.monotonic() - start)]
    summary += ["  %s = %.6g %s" % (k, v["value"], v["unit"]) for k, v in metrics.items()]
    report = {"correct": failed == 0 and bool(results), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tanglekit", "cli.py")):
        sys.exit("run.py: no src/tanglekit under %s; run it from a full checkout" % ROOT)
    report, summary = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), load_pinned())
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps(report))


if __name__ == "__main__":
    main()

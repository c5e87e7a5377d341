"""One fresh interpreter of the benchmark: a cold CLI invocation, then
warm replays of the same argv in the same process.

Usage: python3 perfbench/child.py '<json spec>'

The spec holds "argv" (for tanglekit.cli.run), "warm" (the number of
replays) and "trace" (install the layer hooks).  The package is
imported from src/ of the checkout.  The child prints one JSON object:
its timings, the cold output, how many invocations failed, its peak
RSS and the time of a fixed reference loop.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tanglekit import cli, counting, sample  # noqa: E402


class Capture:
    """Stands in for sys.stdout; remembers when the first line ended."""

    def __init__(self):
        self.parts = []
        self.first_line = None

    def write(self, s):
        self.parts.append(s)
        if self.first_line is None and "\n" in s:
            self.first_line = time.perf_counter()
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


def invoke(argv):
    """Run the CLI once with stdout captured; returns (ok, capture, end)."""
    cap = Capture()
    sys.stdout = cap
    try:
        ok = cli.run(argv) == 0
    except Exception as e:  # a failing operation is counted, the child goes on
        print("child: %r raised %r" % (argv, e), file=sys.stderr)
        ok = False
    finally:
        sys.stdout = sys.__stdout__
    return ok, cap, time.perf_counter()


def reference_ms():
    """Time of a fixed pure-Python integer loop plus a Fraction/bigint
    loop, to tell a host speed shift from a program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    f = Fraction(0)
    for i in range(1, 1500):
        f += Fraction(i * i, 2 * i + 1)
    big = 3 ** 20000
    for _ in range(40):
        big = big * 7 // 5
    return (time.perf_counter() - t0) * 1000


def main():
    spec = json.loads(sys.argv[1])
    argv = spec["argv"]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, HERE)
        from hooks import Tracer

        tracer = Tracer({"cli": cli, "sample": sample, "counting": counting})
        tracer.install()
    ok, cap, end = invoke(argv)
    cold = cap.text()
    result = {
        "setup_s": (cap.first_line or end) - T0,
        "cold_s": end - T0,
        "ok": ok,
        "out": cold,
        "warm_ops": 0,
        "warm_failed": 0,
        "warm_s": 0.0,
        "warm_lines": 0,
        "untraced_s": 0.0,
    }
    # With tracing on, traced and untraced replays alternate so that the
    # ratio of their totals measures the hooks' overhead.
    replays = spec["warm"] * (2 if tracer else 1)
    for i in range(replays):
        traced = tracer is None or i % 2 == 0
        if not traced:
            tracer.uninstall()
        t0 = time.perf_counter()
        ok, cap, end = invoke(argv)
        if not traced:
            tracer.install()
            result["untraced_s"] += end - t0
            continue
        result["warm_ops"] += 1
        result["warm_s"] += end - t0
        out = cap.text()
        result["warm_lines"] += out.count("\n")
        if not ok or out != cold:
            result["warm_failed"] += 1
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.totals()
    result["ref_ms"] = reference_ms()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

"""Record the exact counts the count workload checks against.

Usage: python3 perfbench/pin_counts.py

Each value is computed by the route the benchmark times and confirmed
once by a second route before it is written to perfbench/counts.json:
direct against recurrence at n = 200, mu against recurrence at n = 120,
and recurrence against the asymptotic series t_asym(1000, 5, "a") to
15 significant digits.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpmath import mp, mpf  # noqa: E402

from tanglekit import asym, counting  # noqa: E402


def main():
    t200 = counting.tanglegram_count(200)
    if t200 != counting.tanglegram_count_rec(200):
        sys.exit("direct and recurrence disagree at n = 200")
    t120 = counting.tanglegram_count_mu(120)
    if t120 != counting.tanglegram_count_rec(120):
        sys.exit("mu and recurrence disagree at n = 120")
    t1000 = counting.tanglegram_count_rec(1000)
    with mp.workprec(200):
        rel = abs(asym.t_asym(1000, 5, "a", 200) / mpf(t1000) - 1)
    if rel > mpf("1e-15"):
        sys.exit("recurrence and t_asym disagree at n = 1000: %s" % rel)
    counts = {"120": str(t120), "200": str(t200), "1000": str(t1000)}
    with open(os.path.join(HERE, "counts.json"), "w") as f:
        json.dump({"tanglegrams": counts}, f, indent=1)
        f.write("\n")
    print("asymptotic relative error at n = 1000: %s" % mp.nstr(rel, 3))


if __name__ == "__main__":
    main()

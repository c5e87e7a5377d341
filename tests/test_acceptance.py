"""Acceptance suite.

Eleven numbered criteria, one test and one printed PASS/FAIL line each
(run with -s to see the lines).  Tolerances and time budgets are
asserted where stated; criterion 11 is a statistical probe whose miss
is logged as a finding, never as a failure.
"""

import random
import time
import warnings
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from tanglekit.asym import f_fixed_point, t_asym
from tanglekit.counting import (
    chain_count,
    chain_count_rec,
    double_coset_count,
    tanglegram_count,
    tanglegram_count_mu,
    tanglegram_count_rec,
    tree_count,
)
from tanglekit.oracle import (
    brute_pair_classes,
    brute_tanglegrams,
    canonical_chain_rep,
    canonical_rep,
    enumerate_trees,
    q_of,
    r_poly,
    tree_count_oracle,
    unordered_count,
)
from tanglekit.partition import binary_partitions
from tanglekit.sample import (
    cherry_statistics,
    random_chain,
    random_tanglegram,
    random_tree,
)
from tanglekit.tree import aut_size, cycle_type_table

from replay import exact_distribution
from support import caterpillar

TANGLEGRAMS = [1, 1, 2, 13, 114, 1509, 25595, 535753, 13305590, 382728552]
TREES = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98]
CHAINS3 = [1, 1, 5, 151, 9944, 1196991, 226435150, 61992679960,
           23198439767669, 11380100883484302]
T42 = 33889136420378480492869677415186948305278176263020722832251621520063757


def _report(num, desc, ok, elapsed=None):
    verdict = "PASS" if ok else "FAIL"
    suffix = "" if elapsed is None else " (%.2fs)" % elapsed
    print("\n[criterion %02d] %s: %s%s" % (num, desc, verdict, suffix))
    return ok


def test_c01_reference_sequences():
    t0 = time.monotonic()
    ok = (
        [tanglegram_count(n) for n in range(1, 11)] == TANGLEGRAMS
        and [tree_count(n) for n in range(1, 11)] == TREES
        and [chain_count(3, n) for n in range(1, 11)] == CHAINS3)
    el = time.monotonic() - t0
    assert _report(1, "three counting sequences for n = 1..10", ok and el < 1.0, el)


def test_c02_large_single_value():
    t0 = time.monotonic()
    ok = tanglegram_count(42) == T42
    el = time.monotonic() - t0
    assert _report(2, "exact tanglegram count at n = 42", ok and el < 1.0, el)


def test_c03_thousand_leaf_recurrence():
    t0 = time.monotonic()
    digits = len(str(tanglegram_count_rec(1000)))
    el = time.monotonic() - t0
    ok = digits == 3160
    assert _report(3, "recurrence count at n = 1000 has 3160 digits",
                   ok and el < 60.0, el)


def test_c04_route_agreement():
    t0 = time.monotonic()
    ok = all(
        tanglegram_count(n) == tanglegram_count_rec(n) == tanglegram_count_mu(n)
        for n in range(1, 61))
    # chains up to n = 64, so the direct sum places parts of 16, 32 and 64
    # and runs of 4s on sums that already hold 8s
    ok = ok and all(
        chain_count(k, n) == chain_count_rec(k, n)
        for k in range(1, 7) for n in range(1, 65))
    ok = ok and all(tree_count(n) == tree_count_oracle(n) for n in range(1, 201))
    el = time.monotonic() - t0
    assert _report(4, "independent counting routes agree exactly",
                   ok and el < 30.0, el)


def test_c05_brute_force_agreement():
    t0 = time.monotonic()
    ok = True
    # each size is listed once; the unordered count is read off that list
    for n, unordered in enumerate([1, 1, 2, 10, 69, 807, 13048], 1):
        reps = brute_tanglegrams(n)
        ok = ok and len(reps) == tanglegram_count(n) and unordered_count(reps) == unordered
    for n in range(1, 7):
        trees = enumerate_trees(n)
        ok = ok and all(
            len(brute_pair_classes(T, S)) == double_coset_count(T, S)
            for T in trees for S in trees)
    for n in range(4, 11):
        closed = (n * n - n + 2) * factorial(n - 2)
        assert closed % 4 == 0
        t = caterpillar(n)
        ok = ok and double_coset_count(t, t) == closed // 4
    el = time.monotonic() - t0
    assert _report(5, "brute-force class counts match formulas",
                   ok and el < 300.0, el)


def test_c06_cycle_type_mass():
    # summed over all trees of size n, the automorphism mass of each
    # cycle type equals its partition weight, as an exact rational
    ok = True
    for n in range(1, 10):
        trees = enumerate_trees(n)
        for lam in binary_partitions(n):
            mass = sum(
                Fraction(cycle_type_table(t).get(lam, 0), aut_size(t))
                for t in trees)
            ok = ok and mass == q_of(lam)
    assert _report(6, "cycle type mass identity for every type, n <= 9", ok)


def test_c07_polynomial_recursion():
    # the product polynomial satisfies its splitting recursion at
    # random rational points, exactly
    ok = True
    for n in range(1, 7):
        rng = random.Random(7000 + n)
        full = tuple(range(1, n + 1))
        others = full[1:]
        for _ in range(100):
            x = [Fraction(rng.randrange(-60, 61), rng.randrange(1, 30))
                 for _ in range(n)]
            half = [v / 2 for v in x]
            rhs = 2 ** (n - 1) * r_poly(full, half)
            for mask in range(2 ** (n - 1) - 1):
                s = (1,) + tuple(
                    others[i] for i in range(n - 1) if mask >> i & 1)
                comp = tuple(v for v in others if v not in s)
                rhs += r_poly(s, x) * r_poly(comp, x)
            ok = ok and r_poly(full, x) == rhs
    assert _report(7, "splitting recursion at 100 rational points per n <= 6", ok)


def test_c08_sampler_uniformity(monkeypatch):
    # the exact law of the three samplers, each at the largest size its
    # module test walks, by following every path of the choice tree
    t0 = time.monotonic()
    tangle = exact_distribution(
        lambda r: canonical_rep(random_tanglegram(4, r)), monkeypatch)
    trees = exact_distribution(lambda r: random_tree(8, r), monkeypatch)
    chains = exact_distribution(
        lambda r: canonical_chain_rep(random_chain(3, 3, r)), monkeypatch)
    el = time.monotonic() - t0
    ok = (len(tangle) == tanglegram_count(4)
          and set(tangle.values()) == {Fraction(1, tanglegram_count(4))}
          and set(trees) == set(enumerate_trees(8))
          and set(trees.values()) == {Fraction(1, tree_count(8))}
          and len(chains) == chain_count(3, 3)
          and set(chains.values()) == {Fraction(1, chain_count(3, 3))})
    assert _report(8, "exact sampler laws: every class equally likely",
                   ok and el < 60.0, el)


def test_c09_asymptotic_accuracy():
    exact = mpf(tanglegram_count_rec(1000))
    with mp.workprec(300):
        rel0 = abs(t_asym(1000, 0, "a", 300) / exact - 1)
        rel6 = abs(t_asym(1000, 6, "a", 300) / exact - 1)
    ok = rel0 <= mpf("1e-3") and rel6 <= mpf("1e-12")
    assert _report(9, "leading order within 1e-3 and full series within 1e-12", ok)


def test_c10_fixed_point_digits():
    f = f_fixed_point(128)
    with mp.workprec(200):
        ok = abs(f - mpf("0.27104169360883278703")) <= mpf("1e-20")
    assert _report(10, "fixed point constant to twenty digits", ok)


def test_c11_cherry_probe():
    out = cherry_statistics(100, 10000, random.Random(2026))
    mean = out["mean"]
    inside = 23.0 <= mean <= 27.0
    if inside:
        _report(11, "cherry mean probe at n = 100 inside [23, 27]", True)
    else:
        print("\n[criterion 11] cherry mean probe at n = 100 inside [23, 27]: "
              "SOFT-MISS (mean %.4f, logged as a finding, not a failure)" % mean)
        warnings.warn("cherry mean probe landed at %.4f, outside [23, 27]" % mean)
    assert sum(out["histogram"].values()) == 10000

from fractions import Fraction
from math import factorial

import pytest

from tanglekit.counting import (
    _TOP_GROUP,
    _level_table,
    _power_sum,
    catalan,
    chain_count,
    chain_count_rec,
    double_coset_count,
    level_options,
    tanglegram_count,
    tanglegram_count_mu,
    tanglegram_count_rec,
)
from tanglekit.oracle import enumerate_trees, q_of, r_poly, tree_count_oracle
from tanglekit.partition import binary_partitions, z_of
from tanglekit.tree import LEAF, node

from support import caterpillar, run_python

B_SEQ = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451]


def test_chain_example():
    # 1/2 + 27/6 = 5
    assert chain_count(3, 3) == 5
    assert Fraction(1, 2) + Fraction(27, 6) == 5


def test_direct_sum_against_partition_listing():
    # the sum by part size and its folded 2s and 1s against the formula
    # summed over a listing, with n large enough that every remainder of
    # 2s and 1s occurs
    for k, top in ((1, 40), (2, 40), (3, 40), (4, 24), (5, 24), (6, 24)):
        for n in range(1, top + 1):
            want = sum(z_of(lam) ** (k - 1) * q_of(lam) ** k for lam in binary_partitions(n))
            assert chain_count(k, n) == want, (k, n)


def test_mu_sum_against_partition_listing():
    # the loop over parts >= 4 and its folded 2s against the docstring's
    # formula summed over a listing of every mu = 2*nu, n large enough
    # that every remainder L, 0, 1 and 2 included, occurs
    for n in range(1, 41):
        total = Fraction(0)
        for m2 in range(0, n + 1, 2):
            for nu in binary_partitions(m2 // 2):
                mu = tuple(2 * p for p in nu)
                den = z_of(mu)
                left = n
                for part in mu:
                    for j in range(1, part):
                        den *= (2 * left - 2 * j - 1) ** 2
                    left -= part
                total += Fraction(factorial(n) // factorial(n - m2), den)
        c = catalan(n - 1)
        assert tanglegram_count_mu(n) == c * c * factorial(n) * total / 4 ** (n - 1), n


@pytest.mark.parametrize("limit, call, want", [
    (100, "tanglegram_count_mu(400)", [(2, 400)]),
    (100, "chain_count(2, 400), chain_count(6, 300)", [(2, 400), (6, 300)]),
    (200, "tree_count_oracle(400)", [(1, 400)]),
], ids=["mu", "direct", "tree-oracle"])
def test_route_is_a_loop(limit, call, want):
    # no route recurses: the direct and mu sums loop over part sizes and
    # the tree oracle over its table, so n = 400 runs under a recursion
    # limit of 100 or 200 in the child, below the 400 frames a recursive
    # recurrence would need; the level table checks each value at (k, n)
    proc = run_python(
        "import sys\n"
        "from tanglekit.counting import chain_count, tanglegram_count_mu\n"
        "from tanglekit.oracle import tree_count_oracle\n"
        "sys.setrecursionlimit(%d)\n"
        "print(%s)\n" % (limit, call))
    assert proc.returncode == 0, proc.stderr
    assert [int(v) for v in proc.stdout.split()] == [chain_count_rec(k, n) for k, n in want]


def test_counting_rejects_bad_args():
    with pytest.raises(ValueError):
        chain_count(0, 3)
    with pytest.raises(ValueError):
        tanglegram_count(0)
    with pytest.raises(ValueError):
        tanglegram_count_mu(0)
    assert tanglegram_count_mu(1) == 1


def test_tree_oracle():
    assert tree_count_oracle(2) == 1
    assert tree_count_oracle(6) == 6
    assert [tree_count_oracle(n) for n in range(1, 13)] == B_SEQ


def weights(k, n0, h, n):
    """The weights of the options of the state (h, n) of the (k, n0)
    table, in order."""
    return [w for _, w in level_options(k, n0, h, n)[1]]


def test_recurrence_internals():
    # the terms of the state (h, n) of the (k, n0) table sum to
    # R(h, n) = r(h, n, n0 - n*2^h) * n! * 2^(h*n) for chain length k:
    # 1 * 0! * 2^0 in the base case, and r(0, n0) * n0! at the top state
    for h in range(5):
        for n0 in (0, 3, 12):
            total, options = level_options(2, n0, h, 0)
            assert total == 1 and list(options) == [(0, 1)], (n0, h)
    assert sum(weights(2, 4, 0, 4)) == 637 * factorial(4) == 15288
    assert sum(weights(3, 3, 0, 3)) == 625 * factorial(3)
    # one table per (k, n0), keyed by (h, n), holding every state; the
    # count divides the top state
    table = _level_table(2, 4)
    assert table == {(2, 1): 7 ** 2, (1, 1): 7 ** 2, (1, 2): (3 * 7) ** 2 + 2 * 7 ** 2,
                     (0, 4): 15288}
    assert chain_count_rec(2, 4) == 637 // 7 ** 2 == 13
    # largest m first, m = 4, 2, 0 ones: P(0, m) * C(4, 2*rho) * (2*rho-1)!!,
    # times R(1, rho)
    total, options = level_options(2, 4, 0, 4)
    assert total == 15288
    assert list(options) == [(4, (1 * 3 * 5 * 7) ** 2), (2, 3 ** 2 * 6 * 7 ** 2), (0, 3 * 539)] \
        == [(4, 11025), (2, 2646), (0, 1617)]


def reference_level_r(k, n0):
    """r(h, n, n0 - n*2^h) of every state reached from (0, n0), in
    Fractions straight from the recurrence: c(h, m, s) is the product of
    (2*(s + j*2^h) - 1)^k / (j*2^h) over j = 1..m."""
    memo = {}

    def r(h, n):
        if n == 0:
            return Fraction(1)
        if (h, n) not in memo:
            step = 1 << h
            s = n0 - n * step
            total = Fraction(0)
            c = Fraction(1)
            for m in range(n + 1):
                if m:
                    c *= Fraction((2 * (s + m * step) - 1) ** k, m * step)
                if (n - m) % 2 == 0:
                    total += c * r(h + 1, (n - m) // 2)
            memo[(h, n)] = total
        return memo[(h, n)]

    r(0, n0)
    return memo


def test_level_table_against_fractions():
    # every state, the top one included, holds r * n! * 2^(h*n),
    # the sum of its terms, every term of every state is an int, and
    # every m of n's parity from 0 to n is an option exactly once
    for k in (1, 2, 3):
        for n0 in range(1, 40):
            table = _level_table(k, n0)
            ref = reference_level_r(k, n0)
            assert set(table) == set(ref), (k, n0)
            for (h, n), r in ref.items():
                want = r * factorial(n) * 2 ** (h * n)
                total, options = level_options(k, n0, h, n)
                options = list(options)
                assert all(type(w) is int for _, w in options)
                assert sum(w for _, w in options) == total == want, (k, n0, h, n)
                assert sorted(m for m, _ in options) == list(range(n % 2, n + 1, 2)), (k, n0, h, n)
                assert type(table[(h, n)]) is int and table[(h, n)] == want, (k, n0, h, n)


def test_level_transform_against_its_terms():
    # each level h >= 1 is built by one binomial transform; every entry
    # must still be the defining sum of its terms, also past n0 = 40
    # where the Fraction reference grows slow, and at n0 on both sides
    # of a power of 2, where the number of levels changes.  The top
    # state sums its n0 // 2 terms after the first in groups of
    # _TOP_GROUP: no group, one term, a partial last group and an exact
    # one are each hit
    G = _TOP_GROUP
    for k in (1, 2, 3, 4, 5):
        for n0 in (1, 2, 3, 2 * G - 2, 2 * G + 1, 2 * G + 2, 4 * G + 1, 64, 127, 128, 200, 255):
            table = _level_table(k, n0)
            assert set(table) == {(0, n0)} | {(h, n) for h in range(1, n0.bit_length())
                                              for n in range(1, (n0 >> h) + 1)}, (k, n0)
            for (h, n), r in table.items():
                assert r == sum(weights(k, n0, h, n)), (k, n0, h, n)
            # the top state is the direct sum's integer, which reads no table
            assert table[(0, n0)] == _power_sum(n0, k), (k, n0)


def test_routes_agree_where_the_first_part_size_changes():
    # the loop's first part size is the largest power of 2 <= n, so it
    # changes between 127 and 128 and between 255 and 256
    for n in (127, 128, 129, 255, 256, 257, 300):
        for k in (1, 2, 3):
            assert chain_count(k, n) == chain_count_rec(k, n), (k, n)
        assert tanglegram_count_mu(n) == tanglegram_count_rec(n), n


def test_catalan():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_double_coset_n3():
    t = enumerate_trees(3)[0]
    assert double_coset_count(t, t) == 2


def test_double_coset_n4_pairs():
    cat, bal = caterpillar(4), node(node(LEAF, LEAF), node(LEAF, LEAF))
    assert double_coset_count(cat, cat) == 7
    assert double_coset_count(cat, bal) == 2
    assert double_coset_count(bal, cat) == 2
    assert double_coset_count(bal, bal) == 2


def test_double_coset_sums_to_total():
    for n in range(1, 8):
        trees = enumerate_trees(n)
        total = sum(double_coset_count(t, s) for t in trees for s in trees)
        assert total == tanglegram_count(n)


def test_double_coset_mismatch():
    with pytest.raises(ValueError):
        double_coset_count(LEAF, caterpillar(3))


def test_r_poly_examples():
    x = [Fraction(7), Fraction(3, 2), Fraction(-2, 5)]
    assert r_poly([1, 2, 3], x) == (x[1] + x[2] - 1) * (x[2] - 1)
    assert r_poly([5], [0, 0, 0, 0, Fraction(9)]) == 1
    for k in range(1, 8):
        # all entries 2: the product is the odd double factorial (2k-3)!!
        val = r_poly(range(1, k + 1), [Fraction(2)] * k)
        expected = 1
        for j in range(2, k):
            expected *= 2 * (k - j) + 1
        assert val == expected
    with pytest.raises(ValueError):
        r_poly([], [Fraction(1)])

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

import tanglekit
from tanglekit.counting import (
    _level_table,
    catalan,
    chain_count,
    chain_count_rec,
    double_coset_count,
    level_r,
    level_terms,
    r_poly,
    tanglegram_count,
    tanglegram_count_mu,
    tanglegram_count_rec,
    tree_count,
    tree_count_oracle,
)
from tanglekit.partition import binary_partitions, q_of, z_of
from tanglekit.tree import LEAF, enumerate_trees, node

T_SEQ = [1, 1, 2, 13, 114, 1509, 25595, 535753, 13305590, 382728552]
B_SEQ = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451]
T3_SEQ = [1, 1, 5, 151, 9944, 1196991, 226435150, 61992679960,
          23198439767669, 11380100883484302]
T42 = 33889136420378480492869677415186948305278176263020722832251621520063757


def caterpillar(n):
    t = LEAF
    for _ in range(n - 1):
        t = node(t, LEAF)
    return t


def test_sequences():
    assert [tanglegram_count(n) for n in range(1, 11)] == T_SEQ
    assert [tree_count(n) for n in range(1, 13)] == B_SEQ
    assert [chain_count(3, n) for n in range(1, 11)] == T3_SEQ


def test_t42():
    assert tanglegram_count(42) == T42


def test_chain_specializations():
    for n in range(1, 31):
        assert chain_count(1, n) == tree_count(n)
        assert chain_count(2, n) == tanglegram_count(n)


def test_chain_example():
    # 1/2 + 27/6 = 5
    assert chain_count(3, 3) == 5
    assert Fraction(1, 2) + Fraction(27, 6) == 5


def test_direct_sum_against_partition_listing():
    # the folded walk against the formula summed over a listing, with
    # n large enough that every remainder of 2s and 1s occurs
    for k, top in ((1, 40), (2, 40), (3, 40), (4, 24), (5, 24), (6, 24)):
        for n in range(1, top + 1):
            want = sum(z_of(lam) ** (k - 1) * q_of(lam) ** k for lam in binary_partitions(n))
            assert chain_count(k, n) == want, (k, n)


def test_mu_sum_against_partition_listing():
    # the walk over parts >= 4 and its folded 2s against the docstring's
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


def test_mu_walk_is_shallow():
    # the walk recurses once per part size, about log2(n) frames, so
    # n = 400 fits a recursion limit of 100 in the child
    script = (
        "import sys\n"
        "from tanglekit.counting import tanglegram_count_mu\n"
        "sys.setrecursionlimit(100)\n"
        "print(tanglegram_count_mu(400))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tanglekit.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == tanglegram_count_rec(400)


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
    for n in range(1, 61):
        assert tree_count_oracle(n) == tree_count(n)


def test_tree_oracle_is_a_loop():
    # a recursive recurrence would need 400 frames, over a recursion
    # limit of 200 in the child; the level table checks the value
    script = (
        "import sys\n"
        "from tanglekit.counting import tree_count_oracle\n"
        "sys.setrecursionlimit(200)\n"
        "print(tree_count_oracle(400))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tanglekit.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == chain_count_rec(1, 400)


def test_recurrence_internals():
    # level_r(k, n0, h, n) is r(h, n, n0 - n*2^h) * n! * 2^(max(h, 1)*n)
    # for chain length k: 1 * 0! * 2^0 in the base case, and
    # r(0, n0) * n0! * 2^n0 at the top state
    for h in range(5):
        for n0 in (0, 3, 12):
            assert level_r(2, n0, h, 0) == 1
    assert level_r(2, 4, 0, 4) == 637 * factorial(4) * 2 ** 4 == 244608
    assert level_r(3, 3, 0, 3) == 625 * factorial(3) * 2 ** 3
    # one table per (k, n0), keyed by (h, n); the count reads it
    table = _level_table(2, 4)
    assert table[(0, 4)] == 244608
    assert all(n * 2 ** h <= 4 for h, n in table)
    assert chain_count_rec(2, 4) == 637 // 7 ** 2 == 13


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
    # every state holds r * n! * 2^(max(h, 1)*n), the sum of its terms,
    # and every term of every state is an int
    for k in (1, 2, 3):
        for n0 in range(1, 40):
            level_r(k, n0, 0, n0)
            table = _level_table(k, n0)
            ref = reference_level_r(k, n0)
            assert set(table) == set(ref), (k, n0)
            for (h, n), r in ref.items():
                want = r * factorial(n) * 2 ** (max(h, 1) * n)
                assert type(table[(h, n)]) is int and table[(h, n)] == want, (k, n0, h, n)
                weights = [w for _, w in level_terms(k, n0, h, n)]
                assert all(type(w) is int for w in weights)
                assert sum(weights) == level_r(k, n0, h, n), (k, n0, h, n)


def test_three_routes_agree():
    for n in range(1, 61):
        direct = tanglegram_count(n)
        assert tanglegram_count_rec(n) == direct
        assert tanglegram_count_mu(n) == direct


def test_chain_recurrence_agrees():
    for k in (1, 2, 3, 4, 5, 6):
        for n in range(1, 13):
            assert chain_count_rec(k, n) == chain_count(k, n)


def test_catalan():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_double_coset_one_cherry():
    for n in range(4, 11):
        t = caterpillar(n)
        assert double_coset_count(t, t) == (n * n - n + 2) * factorial(n - 2) // 4


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


def rand_fraction(rng):
    return Fraction(rng.randrange(-60, 61), rng.randrange(1, 30))


@pytest.mark.parametrize("n", range(1, 7))
def test_r_poly_recursion(n):
    # r_[n](x) = 2^(n-1) r_[n](x/2) + sum over proper subsets S
    # containing 1 of r_S(x) * r_([n] minus S)(x)
    rng = random.Random(500 + n)
    full = list(range(1, n + 1))
    for _ in range(25):
        x = [rand_fraction(rng) for _ in range(n)]
        lhs = r_poly(full, x)
        rhs = 2 ** (n - 1) * r_poly(full, [v / 2 for v in x])
        for mask in range(2 ** (n - 1) - 1):
            s = [1] + [i + 2 for i in range(n - 1) if mask >> i & 1]
            comp = [i for i in full if i not in s]
            rhs += r_poly(s, x) * r_poly(comp, x)
        assert lhs == rhs

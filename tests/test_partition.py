from fractions import Fraction

import pytest

from tanglekit.partition import (
    binary_partitions,
    q_numerator,
    q_of,
    split_pairs,
    z_of,
)


def bp_count(n):
    # independent count of binary partitions: c(2m+1) = c(2m),
    # c(2m) = c(2m-1) + c(m)
    c = [1] * (n + 1)
    for i in range(2, n + 1):
        c[i] = c[i - 1] + (c[i // 2] if i % 2 == 0 else 0)
    return c[n]


def test_enumeration_small():
    assert list(binary_partitions(1)) == [(1,)]
    assert list(binary_partitions(2)) == [(2,), (1, 1)]
    assert list(binary_partitions(4)) == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(binary_partitions(0)) == [()]


@pytest.mark.parametrize("n", range(1, 26))
def test_enumeration_valid_and_complete(n):
    seen = set()
    prev = None
    for lam in binary_partitions(n):
        assert sum(lam) == n
        assert all(p & (p - 1) == 0 for p in lam), "part is not a power of 2"
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        if prev is not None:
            assert lam < prev, "not in decreasing lexicographic order"
        prev = lam
        seen.add(lam)
    assert len(seen) == bp_count(n)


def test_max_part():
    assert list(binary_partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(binary_partitions(8, max_part=1)) == [(1,) * 8]


def test_z_of():
    assert z_of((4, 4, 2, 1, 1)) == 128
    assert z_of((1, 1, 1, 1)) == 24
    assert z_of((2, 1, 1)) == 4
    assert z_of(()) == 1
    # general cycle types, not just binary
    assert z_of((3, 3, 2)) == 36
    assert z_of((5,)) == 5


def test_z_divides_factorial():
    from math import factorial

    for n in range(1, 15):
        fn = factorial(n)
        for lam in binary_partitions(n):
            assert fn % z_of(lam) == 0


def test_q_numerator():
    assert q_numerator((4,)) == 1
    assert q_numerator((2, 2)) == 3
    assert q_numerator((2, 1, 1)) == 3
    assert q_numerator((1, 1, 1, 1)) == 15


def test_q_of_values():
    assert q_of((2, 1)) == Fraction(1, 2)
    assert q_of((1, 1, 1, 1)) == Fraction(5, 8)
    assert q_of((4,)) == Fraction(1, 4)
    assert q_of((2, 2)) == Fraction(3, 8)
    assert q_of((1,)) == Fraction(1)


def test_tanglegram_terms_for_n4():
    # the four summands whose total is 13
    terms = {lam: Fraction(q_numerator(lam) ** 2, z_of(lam))
             for lam in binary_partitions(4)}
    assert terms[(4,)] == Fraction(1, 4)
    assert terms[(2, 2)] == Fraction(9, 8)
    assert terms[(2, 1, 1)] == Fraction(9, 4)
    assert terms[(1, 1, 1, 1)] == Fraction(225, 24)
    assert sum(terms.values()) == 13


def halved_q(lam):
    # q of lam with every part halved; no such partition when a part is 1
    return q_of(tuple(p // 2 for p in lam)) if lam[-1] > 1 else 0


def test_split_pairs_counts_and_unions():
    for lam in [(2, 1, 1), (4, 2, 2, 1), (1, 1, 1), (8,)]:
        pairs = list(split_pairs(lam))
        runs = {}
        for p in lam:
            runs[p] = runs.get(p, 0) + 1
        expected = 1
        for m in runs.values():
            expected *= m + 1
        assert len(pairs) == expected
        assert len(set(pairs)) == expected
        for a, b in pairs:
            assert tuple(sorted(a + b, reverse=True)) == lam
        assert ((), lam) in pairs
        assert (lam, ()) in pairs


def test_split_identity():
    # 2*q(lam) = q(lam/2) + sum over splits into two nonempty halves of
    # q(half1)*q(half2), for every binary partition with |lam| >= 2:
    # the root of a tree with an automorphism of type lam either splits
    # lam between its two subtrees or swaps them and halves it.
    for n in range(2, 21):
        for lam in binary_partitions(n):
            total = halved_q(lam)
            for a, b in split_pairs(lam):
                if a and b:
                    total += q_of(a) * q_of(b)
            assert total == 2 * q_of(lam), lam


def test_split_identity_fails_for_singleton():
    # |lam| = 1 is a genuine exception: both sides are empty of content.
    lam = (1,)
    total = halved_q(lam)
    assert total == 0 != 2 * q_of(lam)

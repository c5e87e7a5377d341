import itertools
import random

import pytest

from tanglekit.perm import (
    compose,
    cycle_type,
    cycles_of,
    flip,
    identity,
    interleave,
    inverse,
    sample_conjugator,
)


def all_perms():
    """Every permutation of 1..n for n = 1..8, in one-line notation."""
    for n in range(1, 9):
        yield from itertools.permutations(range(1, n + 1))


def test_compose_examples():
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    assert compose(identity(5), (3, 1, 2, 5, 4)) == (3, 1, 2, 5, 4)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse_roundtrip():
    for p in all_perms():
        n = len(p)
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)
        assert inverse(inverse(p)) == p


def test_cycles_canonical():
    for p in all_perms():
        cycs = cycles_of(p)
        flat = [a for c in cycs for a in c]
        assert sorted(flat) == list(range(1, len(p) + 1))
        mins = [c[0] for c in cycs]
        assert all(c[0] == min(c) for c in cycs)
        assert mins == sorted(mins)
        for c in cycs:
            for i, a in enumerate(c):
                assert p[a - 1] == c[(i + 1) % len(c)]


def test_cycle_type_examples():
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)
    w = (9, 10, 8, 6, 7, 1, 4, 2, 5, 3)
    assert cycle_type(w) == (6, 4)


def test_cycle_type_is_partition():
    for p in all_perms():
        ct = cycle_type(p)
        assert sum(ct) == len(p)
        assert all(ct[i] >= ct[i + 1] for i in range(len(ct) - 1))
        assert cycle_type(inverse(p)) == ct


def test_flip():
    assert flip(1) == (2, 1)
    assert flip(5) == (6, 7, 8, 9, 10, 1, 2, 3, 4, 5)
    for k in range(1, 7):
        pi = flip(k)
        assert compose(pi, pi) == identity(2 * k)
        assert cycle_type(pi) == (2,) * k


def test_interleave_worked_example():
    # w1 = (1 4)(2 5)(3), w2 = (1 4 2)(3 5), k = 5; on the padded
    # halves w2 is (6 9 7)(8 10)
    w1 = (4, 5, 3, 1, 2)
    w2 = (4, 1, 5, 2, 3)
    w = interleave(w1, w2)
    assert w == (9, 10, 8, 6, 7, 1, 4, 2, 5, 3)
    # (6 1 9 5 7 4)(8 2 10 3)
    assert cycles_of(w) == [(1, 9, 5, 7, 4, 6), (2, 10, 3, 8)]


def test_interleave_identities():
    assert cycle_type(interleave(identity(2), identity(2))) == (2, 2)


def test_interleave_size_check():
    assert interleave((2, 1), identity(2)) == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        interleave(identity(2), identity(3))


def test_interleave_doubles_cycle_type():
    # every pair (w1, w2) for k <= 4, and fixed-seed pairs at k = 5 and 6
    pairs = [(w1, w2) for k in range(1, 5)
             for w1 in itertools.permutations(range(1, k + 1))
             for w2 in itertools.permutations(range(1, k + 1))]
    rng = random.Random(5)
    for k in (5, 6):
        for _ in range(100):
            pairs.append((tuple(rng.sample(range(1, k + 1), k)),
                          tuple(rng.sample(range(1, k + 1), k))))
    for w1, w2 in pairs:
        k = len(w1)
        w = interleave(w1, w2)
        assert cycle_type(w) == tuple(sorted((2 * c for c in cycle_type(w2)), reverse=True))
        # the same permutation as pi o w1 o pi o w1^-1 o pi o w2 on the
        # padded halves
        w1e = w1 + identity(2 * k)[k:]
        w2e = identity(k) + tuple(v + k for v in w2)
        pi = flip(k)
        assert w == compose(pi, compose(w1e, compose(pi, compose(inverse(w1e), compose(pi, w2e)))))


def test_conjugator_rejects_mismatch():
    with pytest.raises(ValueError):
        sample_conjugator((2, 1, 3), identity(3), random.Random(0))

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from tanglekit import sample
from tanglekit.counting import (
    _level_table,
    chain_count,
    chain_count_rec,
    tanglegram_count,
    tree_count,
)
from tanglekit.partition import binary_partitions, z_of
from tanglekit.perm import compose, cycle_type, cycles_of, inverse, sample_conjugator
from tanglekit.oracle import (
    AUT_CAP,
    automorphism_group,
    canonical_chain_rep,
    canonical_rep,
    enumerate_trees,
    q_of,
)
from tanglekit.sample import (
    TangledChain,
    Tanglegram,
    cherry_statistics,
    random_automorphism,
    random_chain,
    random_tanglegram,
    random_tree,
    random_tree_and_perm,
)
from tanglekit.tree import LEAF, aut_size, node, parse

from replay import exact_distribution
from support import run_python

CHERRY = node(LEAF, LEAF)
BAL4 = node(CHERRY, CHERRY)
CAT4 = node(node(CHERRY, LEAF), LEAF)


# ---------------------------------------------------------------- alg 1

def test_random_automorphism_membership():
    rng = random.Random(11)
    for n in range(1, 8):
        for t in enumerate_trees(n):
            group = set(automorphism_group(t))
            for _ in range(10):
                assert random_automorphism(t, rng) in group


def test_random_automorphism_uniform_cherry(monkeypatch):
    dist = exact_distribution(lambda r: random_automorphism(CHERRY, r), monkeypatch)
    assert dist == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}


def test_random_automorphism_uniform_bal4(monkeypatch):
    dist = exact_distribution(lambda r: random_automorphism(BAL4, r), monkeypatch)
    assert set(dist) == set(automorphism_group(BAL4))
    assert len(dist) == 8 == aut_size(BAL4)
    assert set(dist.values()) == {Fraction(1, 8)}


def test_random_automorphism_leaf():
    rng = random.Random(14)
    assert random_automorphism(LEAF, rng) == (1,)


# ---------------------------------------------------------------- alg 2

def test_tree_and_perm_trivial_cases():
    rng = random.Random(21)
    assert random_tree_and_perm((1,), rng) == (LEAF, (1,))
    for _ in range(20):
        t, w = random_tree_and_perm((2,), rng)
        assert t == CHERRY and w == (2, 1)


def test_tree_and_perm_empty_partition_rejected():
    # empty, not a power of 2, not positive, or not weakly decreasing
    rng = random.Random(22)
    for parts in ((), (3,), (0,), (-1,), (6, 2), (1, 2), (1, 2, 1), (2, 1, 2), (1, 1, 2)):
        with pytest.raises(ValueError, match="parts"):
            random_tree_and_perm(parts, rng)


def _in_child_at_depth_limit(body):
    """Runs body in a child interpreter under a recursion limit of 200,
    after defining Zero, an rng that always answers 0, and cat, the
    400-leaf caterpillar, 399 vertices deep; asserts that it exits 0."""
    script = (
        "import sys\n"
        "from tanglekit import sample\n"
        "from tanglekit.tree import LEAF, node\n"
        "class Zero:\n"
        "    def randrange(self, n):\n"
        "        return 0\n"
        "sys.setrecursionlimit(200)\n"
        "cat = LEAF\n"
        "for _ in range(399):\n"
        "    cat = node(cat, LEAF)\n"
    ) + body
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_tree_and_perm_is_a_loop():
    # Zero inserts every leaf above vertex 0, the first leaf, so
    # (1,)*400 builds the caterpillar with the identity
    _in_child_at_depth_limit(
        "t, w = sample.random_tree_and_perm((1,) * 400, Zero())\n"
        "assert t.leaves == 400 and t == cat, t.key\n"
        "assert w == tuple(range(1, 401)), w\n")


def test_random_tree_is_a_loop():
    # Zero takes each state's first m and puts every cycle above the
    # first leaf, so the tree is 322 vertices deep
    _in_child_at_depth_limit(
        "from itertools import accumulate\n"
        "t = sample.random_tree(400, Zero())\n"
        "depth = max(accumulate({'(': 1, ')': -1, '.': 0}[c] for c in t.key))\n"
        "assert t.leaves == 400 and depth > 200, depth\n")


def test_pick_scan_exact():
    # each x that randrange can return lands on option j for exactly
    # w_j values of x, and the scan reads no pair past the one drawn
    class Fixed:
        def __init__(self, x, total):
            self.x, self.total = x, total

        def randrange(self, n):
            assert n == self.total
            return self.x

    for weights in ([1], [3], [1, 1], [0, 2, 0, 1], [5, 0, 3], [2, 7, 1, 4], [1, 0]):
        total = sum(weights)
        hits = Counter()
        for x in range(total):
            it = enumerate(weights)
            j = sample._pick_scan(it, total, Fixed(x, total))
            assert len(list(it)) == len(weights) - j - 1, (weights, x)
            hits[j] += 1
        assert hits == Counter({j: w for j, w in enumerate(weights) if w}), weights


def test_tree_and_perm_draws_once_per_cycle():
    # one randrange per cycle after the first, and no other draw
    class Counted:
        def __init__(self, seed):
            self.rng = random.Random(seed)
            self.calls = 0

        def randrange(self, n):
            self.calls += 1
            return self.rng.randrange(n)

    for n in range(1, 13):
        for seed, lam in enumerate(binary_partitions(n)):
            rng = Counted(seed)
            random_tree_and_perm(lam, rng)
            assert rng.calls == len(lam) - 1, lam


def test_tree_and_perm_consistency():
    # the returned permutation always realizes the requested cycle type
    # and belongs to the automorphism group of the returned tree
    rng = random.Random(23)
    for n in range(1, 9):
        for lam in binary_partitions(n):
            for _ in range(3):
                t, w = random_tree_and_perm(lam, rng)
                assert t.leaves == n
                assert cycle_type(w) == lam
                assert w in set(automorphism_group(t))


# ---------------------------------------------------------------- lam draw

def test_lam_draw_exact(monkeypatch):
    # each binary partition gets exactly z^(k-1) q^k / t(k, n), by the
    # replay of every path of the draw
    for k in (1, 2, 3):
        for n in range(1, 17):
            t = chain_count(k, n)
            want = {lam: z_of(lam) ** (k - 1) * q_of(lam) ** k / t
                    for lam in binary_partitions(n)}
            got = exact_distribution(lambda r: sample._draw_lam(n, k, r), monkeypatch)
            assert got == want, (k, n)


def test_level_table_holds_every_state():
    # the table holds every state, the top state (0, n) included, and
    # neither the count nor the lam walk adds a state to it
    _level_table.cache_clear()
    chain_count_rec.cache_clear()
    rng = random.Random(41)
    for n in (1, 2, 37, 64):
        states = {(0, n)} | {(h, m) for h in range(1, n.bit_length())
                             for m in range(1, (n >> h) + 1)}
        assert set(_level_table(2, n)) == states, n
        chain_count_rec(2, n)
        assert set(_level_table(2, n)) == states, n
        for _ in range(20):
            random_tanglegram(n, rng)
        assert set(_level_table(2, n)) == states, n


def test_lam_draw_reads_weights_lazily(monkeypatch):
    # the weights are made as the scan reads them, largest m first, so a
    # draw of lam = (1^n), most of the mass, reads one weight at the top
    read = []
    pick_scan = sample._pick_scan

    def counting_scan(options, total, rng):
        seen = []

        def counted():
            for option in options:
                seen.append(option)
                yield option

        m = pick_scan(counted(), total, rng)
        read.append(len(seen))
        return m

    monkeypatch.setattr(sample, "_pick_scan", counting_scan)
    rng = random.Random(42)
    ones = 0
    for _ in range(50):
        read.clear()
        lam = sample._draw_lam(1000, 2, rng)
        if lam == (1,) * 1000:
            ones += 1
            assert read == [1], read
    assert ones >= 30


# ---------------------------------------------------------------- alg 3

def test_random_tanglegram_smallest():
    rng = random.Random(31)
    tg = random_tanglegram(1, rng)
    assert tg.left is LEAF and tg.right is LEAF and tg.matching == (1,)


def test_random_tanglegram_shape():
    rng = random.Random(32)
    for n in (2, 3, 5, 8, 12):
        tg = random_tanglegram(n, rng)
        assert tg.n == n
        assert sorted(tg.matching) == list(range(1, n + 1))


# ---------------------------------------------------------------- alg 4

def test_random_tree_uniform():
    # the law at n <= 8 is checked exactly by test_exact_uniform_trees and
    # acceptance criterion 8
    rng = random.Random(41)
    with pytest.raises(ValueError):
        random_tree(0, rng)
    assert random_tree(3, rng) == parse("((..).)")


def test_random_tree_is_the_one_tree_chain():
    # one route: a tree is the tree of a chain of length 1, by the same draws
    for n, seed in ((1, 0), (2, 1), (7, 2), (60, 3), (129, 4), (200, 5)):
        chain = random_chain(1, n, random.Random(seed))
        assert random_tree(n, random.Random(seed)) == chain.trees[0], (n, seed)


# ---------------------------------------------------------------- alg 5

def test_random_chain_shape():
    rng = random.Random(53)
    ch = random_chain(1, 4, rng)
    assert ch.k == 1 and ch.matchings == ()
    ch = random_chain(4, 6, rng)
    assert ch.k == 4 and ch.n == 6
    assert len(ch.trees) == 4 and len(ch.matchings) == 3
    for m in ch.matchings:
        assert sorted(m) == list(range(1, 7))


# ------------------------------------------------------- canonical reps

def test_canonical_rep_idempotent_and_invariant():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(2, 7)
        tg = random_tanglegram(n, rng)
        rep = canonical_rep(tg)
        assert rep.matching <= tg.matching
        assert canonical_rep(rep) == rep
        # acting by automorphisms on either side never changes the class
        u = rng.choice(automorphism_group(tg.left))
        w = rng.choice(automorphism_group(tg.right))
        moved = Tanglegram(tg.left, tg.right, compose(u, compose(tg.matching, w)))
        assert canonical_rep(moved) == rep


def test_canonical_rep_counts_classes_exhaustively():
    reps = set()
    for left in enumerate_trees(4):
        for right in enumerate_trees(4):
            for m in itertools.permutations(range(1, 5)):
                reps.add(canonical_rep(Tanglegram(left, right, m)))
    assert len(reps) == 13


def test_canonical_rep_cap():
    rng = random.Random(62)
    tg = random_tanglegram(AUT_CAP + 1, rng)
    with pytest.raises(ValueError):
        canonical_rep(tg)


def test_canonical_chain_rep_invariant():
    rng = random.Random(63)
    for _ in range(30):
        ch = random_chain(3, 4, rng)
        rep = canonical_chain_rep(ch)
        ts = [rng.choice(automorphism_group(t)) for t in ch.trees]
        moved = []
        for i, m in enumerate(ch.matchings):
            moved.append(compose(ts[i], compose(m, inverse(ts[i + 1]))))
        assert canonical_chain_rep(TangledChain(ch.trees, tuple(moved))) == rep


# ----------------------------------------------------- exact uniformity

# Acceptance criterion 8 walks the largest size of each sampler here:
# tanglegrams at n = 4, random_tree at n = 8 and chains at k = 3, n = 3.

def test_exact_uniform_tanglegrams(monkeypatch):
    rep = functools.cache(canonical_rep)
    for n in range(1, 4):
        dist = exact_distribution(lambda r: rep(random_tanglegram(n, r)), monkeypatch)
        assert len(dist) == tanglegram_count(n)
        assert set(dist.values()) == {Fraction(1, tanglegram_count(n))}, n


def test_exact_uniform_trees(monkeypatch):
    for n in range(1, 8):
        dist = exact_distribution(lambda r: random_tree(n, r), monkeypatch)
        assert set(dist) == set(enumerate_trees(n))
        assert set(dist.values()) == {Fraction(1, tree_count(n))}, n


def test_exact_uniform_chains(monkeypatch):
    # k = 2 for n <= 4 and k = 3 for n <= 2
    rep = functools.cache(canonical_chain_rep)
    for k, top in ((2, 4), (3, 2)):
        for n in range(1, top + 1):
            dist = exact_distribution(lambda r: rep(random_chain(k, n, r)), monkeypatch)
            assert len(dist) == chain_count(k, n)
            assert set(dist.values()) == {Fraction(1, chain_count(k, n))}, (k, n)


def test_exact_tree_and_perm_lemma(monkeypatch):
    # each tree T and each A(T)-conjugacy class C of its automorphisms
    # of cycle type lam is hit with probability exactly
    # |C|/(|A(T)| q(lam)), the sum of 1/(|A(T)| q(lam)) over C
    def conjugacy_class(t, w):
        return t, min(compose(a, compose(w, inverse(a))) for a in automorphism_group(t))

    for n in range(1, 8):
        for lam in binary_partitions(n):
            want = Counter()
            for t in enumerate_trees(n):
                for w in automorphism_group(t):
                    if cycle_type(w) == lam:
                        want[conjugacy_class(t, w)] += 1 / (aut_size(t) * q_of(lam))
            got = Counter()
            dist = exact_distribution(lambda r: random_tree_and_perm(lam, r), monkeypatch)
            for (t, w), p in dist.items():
                got[conjugacy_class(t, w)] += p
            assert got == want, lam


def test_exact_uniform_conjugator(monkeypatch):
    # for every pair (u, v) of one cycle type, n <= 5, the conjugator
    # hits exactly the w with w o v o w^-1 = u, each with probability
    # 1/z(type)
    for n in range(1, 6):
        perms = list(itertools.permutations(range(1, n + 1)))
        for v in perms:
            conjugators = {}  # u -> every w with w o v o w^-1 = u
            for w in perms:
                conjugators.setdefault(compose(w, compose(v, inverse(w))), set()).add(w)
            z = z_of(cycle_type(v))
            for u, ws in conjugators.items():
                dist = exact_distribution(lambda r: sample_conjugator(u, v, r), monkeypatch)
                assert set(dist) == ws and len(ws) == z, (u, v)
                assert set(dist.values()) == {Fraction(1, z)}, (u, v)


# ------------------------------------------------------------ containers

def test_tanglegram_validation():
    with pytest.raises(ValueError):
        Tanglegram(CHERRY, LEAF, (1, 2))
    with pytest.raises(ValueError):
        Tanglegram(CHERRY, CHERRY, (1, 1))
    with pytest.raises(ValueError):
        Tanglegram(CHERRY, CHERRY, (1, 2, 3))


def test_chain_validation():
    with pytest.raises(ValueError):
        TangledChain((CHERRY, node(CHERRY, LEAF)), ((1, 2),))
    with pytest.raises(ValueError):
        TangledChain((CHERRY, CHERRY), ())


def test_json_shapes():
    tg = Tanglegram(CAT4, BAL4, (1, 2, 3, 4))
    d = tg.to_json()
    assert list(d) == ["n", "left", "right", "matching"]
    assert d["n"] == 4 and d["left"] == CAT4.key and d["right"] == BAL4.key
    ch = TangledChain((CHERRY, CHERRY), ((2, 1),))
    d = ch.to_json()
    assert list(d) == ["n", "trees", "matchings"]
    assert d["trees"] == [CHERRY.key, CHERRY.key]
    assert d["matchings"] == [[2, 1]]


def test_tanglegram_is_two_tree_chain():
    tg = Tanglegram(CAT4, BAL4, (2, 1, 4, 3))
    ch = TangledChain((CAT4, BAL4), ((2, 1, 4, 3),))
    assert isinstance(tg, TangledChain) and tg.k == 2 and tg.n == 4
    assert tg == ch and ch == tg and hash(tg) == hash(ch)
    assert tg != TangledChain((BAL4, CAT4), ((2, 1, 4, 3),))
    assert repr(tg) == "Tanglegram(%s, %s, [2, 1, 4, 3])" % (CAT4.key, BAL4.key)


# ------------------------------------------------------------ statistics

def test_cherry_statistics_degenerate():
    rng = random.Random(71)
    out = cherry_statistics(2, 500, rng)
    assert out["mean"] == 1.0
    assert out["variance"] == 0.0
    assert out["reference"] == 0.5


def test_cherry_statistics_rejects_bad_arguments():
    for n, samples in ((5, 0), (5, -1), (0, 5)):
        with pytest.raises(ValueError, match="need n >= 1 and samples >= 1"):
            cherry_statistics(n, samples, random.Random(75))


def test_cherry_statistics_n4(monkeypatch):
    # the left tree of a uniform tanglegram on four leaves has one cherry
    # in 9 of the 13 classes and two in 4, so the mean is 17/13
    def one_sample(r):
        out = cherry_statistics(4, 1, r)
        assert out["statistic"] == "cherries"
        assert out["histogram"] == {out["mean"]: 1}
        return out["mean"]

    dist = exact_distribution(one_sample, monkeypatch)
    assert dist == {1.0: Fraction(9, 13), 2.0: Fraction(4, 13)}
    assert sum(Fraction(m) * p for m, p in dist.items()) == Fraction(17, 13)


def test_cherry_statistics_variance_rounded_once():
    # the variance of the histogram as one int / int division, so the
    # float is the correctly rounded exact value
    for seed in (1, 2, 3):
        out = cherry_statistics(40, 300, random.Random(seed))
        hist = out["histogram"]
        samples = sum(hist.values())
        total = sum(v * c for v, c in hist.items())
        total_sq = sum(v * v * c for v, c in hist.items())
        assert out["variance"] == (samples * total_sq - total * total) / (samples * samples)


def test_pattern_statistics_cherry_matches_reference():
    rng = random.Random(73)
    out = cherry_statistics(8, 400, rng, pattern=CHERRY)
    assert out["statistic"] == "pattern (..)"
    assert out["reference"] == 2.0  # n / 4 for the two-leaf pattern
    assert sum(out["histogram"].values()) == 400


def test_key_order():
    rng = random.Random(74)
    out = cherry_statistics(3, 50, rng)
    assert list(out) == [
        "n", "samples", "statistic", "mean", "variance", "reference",
        "histogram"]


# ----------------------------------------------------------- determinism

def test_same_seed_same_stream():
    a = random.Random(90)
    b = random.Random(90)
    for _ in range(40):
        assert random_tanglegram(6, a) == random_tanglegram(6, b)
    a = random.Random(91)
    b = random.Random(91)
    for _ in range(20):
        assert random_chain(3, 5, a) == random_chain(3, 5, b)


# ------------------------------------------------------- reference equality

def _reference_random_tree_and_perm(parts, rng):
    """random_tree_and_perm before the 1-cycles had a step of their
    own: every cycle goes through the orbit loop, the children's order
    asks Tree.__eq__, and the leaf-numbering DFS always runs.  It draws
    as random_tree_and_perm does, one randrange per cycle after the
    first."""
    if not parts:
        raise ValueError("empty partition")
    left, right, parent, sigma = [], [], [], []
    root = 0
    for c in reversed(parts):
        orbit = []
        if sigma:
            v = rng.randrange(len(sigma))
            orbit.append(v)
            while sigma[orbit[-1]] != v:
                orbit.append(sigma[orbit[-1]])
        d = len(orbit) or 1
        base = len(sigma) - d  # (e, j) gets the id base + e + j
        e = d
        while e <= c:
            for j in range(e):
                sigma.append(base + e + (j + 1) % e)
                left.append(base + 2 * e + j if e < c else -1)
                right.append(base + 3 * e + j if e < c else -1)
                parent.append(base + e // 2 + j % (e // 2) if e > d else -1)
            e *= 2
        top = len(sigma)
        for t, u in enumerate(orbit):
            p = parent[u]
            if p < 0:
                root = top + t
            elif left[p] == u:
                left[p] = top + t
            else:
                right[p] = top + t
            sigma.append(top + (t + 1) % d)
            left.append(u)
            right.append(base + d + t)
            parent.append(p)
            parent[u] = parent[base + d + t] = top + t
    # ancestors come before descendants in this breadth-first order
    order = [root]
    for v in order:
        if left[v] >= 0:
            order += (left[v], right[v])
    tree = [LEAF] * len(sigma)
    for v in reversed(order):
        a, b = left[v], right[v]
        if a >= 0:
            t = tree[v] = node(tree[a], tree[b])
            # read the children in node's order
            if t.left != tree[a]:
                left[v], right[v] = b, a
    pos = [0] * len(sigma)
    leaves = []
    stack = [root]
    while stack:
        v = stack.pop()
        if left[v] < 0:
            leaves.append(v)
            pos[v] = len(leaves)
        else:
            stack += (right[v], left[v])
    return tree[root], tuple(pos[sigma[v]] for v in leaves)


def _reference_sample_conjugator(u, v, rng):
    """sample_conjugator before it sorted its cycle lists by length and
    checked u o w = w o v without building three tuples: a dict of
    cycles per length, and an index modulo the length per point.  It
    draws as sample_conjugator does, so no offset for a 1-cycle."""
    cu, cv = {}, {}  # cycle length -> the cycles of that length, in canonical order
    for by_len, p in ((cu, u), (cv, v)):
        for c in cycles_of(p):
            by_len.setdefault(len(c), []).append(c)
    if sorted(cu) != sorted(cv) or any(len(cu[c]) != len(cv[c]) for c in cu):
        raise ValueError("cycle types differ")
    w = [0] * len(u)
    for ln, vcycs in cv.items():
        targets = list(cu[ln])
        rng.shuffle(targets)
        for vc, uc in zip(vcycs, targets):
            r = rng.randrange(ln) if ln > 1 else 0  # a 1-cycle has one offset
            for idx, a in enumerate(vc):
                w[a - 1] = uc[(idx + r) % ln]
    w = tuple(w)
    assert compose(w, compose(v, inverse(w))) == u
    return w


def _assert_same_as_reference(lam, seed):
    # two trees and the conjugator between their automorphisms, from
    # two identically seeded generators, leave them in the same state
    new, ref = random.Random(seed), random.Random(seed)
    pairs = [random_tree_and_perm(lam, new) for _ in range(2)]
    assert pairs == [_reference_random_tree_and_perm(lam, ref) for _ in range(2)], lam
    (_, u), (_, v) = pairs
    assert sample_conjugator(u, v, new) == _reference_sample_conjugator(u, v, ref), lam
    assert new.getstate() == ref.getstate(), lam


def test_tree_perm_and_conjugator_match_reference():
    # the pinned outputs almost never reach parts >= 4, so the partitions
    # with long cycles are asked for here
    for n in range(1, 13):
        for lam in binary_partitions(n):
            for seed in range(3):
                _assert_same_as_reference(lam, seed)
    for seed, lam in enumerate([(64,), (32, 32), (16, 8, 4, 2, 1, 1), (1,) * 120]):
        _assert_same_as_reference(lam, 100 + seed)
    rng = random.Random(125)
    for n in (64, 120, 257):
        for i in range(200):
            _assert_same_as_reference(sample._draw_lam(n, 1 + i % 2, rng), rng.randrange(1 << 30))

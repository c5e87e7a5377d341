import functools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tanglekit import sample
from tanglekit.counting import chain_count, tanglegram_count, tree_count
from tanglekit.partition import binary_partitions, q_of, z_of
from tanglekit.perm import compose, cycle_type, identity, inverse
from tanglekit.oracle import AUT_CAP, automorphism_group, canonical_chain_rep, canonical_rep
from tanglekit.sample import (
    _lam_step,
    TangledChain,
    Tanglegram,
    cherry_statistics,
    random_automorphism,
    random_chain,
    random_tanglegram,
    random_tree,
    random_tree_and_perm,
)
from tanglekit.tree import LEAF, aut_size, enumerate_trees, node, parse

CHERRY = node(LEAF, LEAF)
BAL4 = node(CHERRY, CHERRY)
CAT4 = node(node(CHERRY, LEAF), LEAF)


def band(draws, prob):
    # five-sigma acceptance band around the expected count
    mu = draws * prob
    sigma = math.sqrt(draws * prob * (1 - prob))
    return mu - 5 * sigma, mu + 5 * sigma


# ---------------------------------------------------------------- alg 1

def test_random_automorphism_membership():
    rng = random.Random(11)
    for n in range(1, 8):
        for t in enumerate_trees(n):
            group = set(automorphism_group(t))
            for _ in range(10):
                assert random_automorphism(t, rng) in group


def test_random_automorphism_uniform_cherry():
    rng = random.Random(12)
    draws = 4000
    hits = sum(random_automorphism(CHERRY, rng) == (2, 1) for _ in range(draws))
    lo, hi = band(draws, 0.5)
    assert lo < hits < hi


def test_random_automorphism_uniform_bal4():
    rng = random.Random(13)
    draws = 16000
    counts = Counter(random_automorphism(BAL4, rng) for _ in range(draws))
    assert len(counts) == 8 == aut_size(BAL4)
    lo, hi = band(draws, 1 / 8)
    for c in counts.values():
        assert lo < c < hi


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
    rng = random.Random(22)
    with pytest.raises(ValueError):
        random_tree_and_perm((), rng)


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(sample.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tree_and_perm_is_a_loop():
    # Zero inserts every leaf above vertex 0, the first leaf, so
    # (1,)*400 builds the caterpillar with the identity
    _in_child_at_depth_limit(
        "t, w = sample.random_tree_and_perm((1,) * 400, Zero())\n"
        "assert t.leaves == 400 and t == cat, t.key\n"
        "assert w == tuple(range(1, 401)), w\n")


def test_random_tree_is_a_loop():
    # Zero takes the smallest subtree at every vertex
    _in_child_at_depth_limit(
        "t = sample.random_tree(400, Zero())\n"
        "assert t.leaves == 400 and t == cat, t.key\n")


def test_pick_scan_exact():
    # each x that randrange can return lands on option j for exactly
    # w_j values of x, and the scan reads no weight past the one drawn
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
            it = iter(weights)
            j = sample._pick_scan(it, total, Fixed(x, total))
            assert len(list(it)) == len(weights) - j - 1, (weights, x)
            hits[j] += 1
        assert hits == Counter({j: w for j, w in enumerate(weights) if w}), weights


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


def test_tree_and_perm_identity_marginal_n4():
    # conditioned on the all-ones type, trees appear with probability
    # inversely proportional to their automorphism group size:
    # caterpillar 4/5, balanced 1/5
    rng = random.Random(24)
    draws = 5000
    hits = sum(
        random_tree_and_perm((1, 1, 1, 1), rng)[0] == BAL4 for _ in range(draws))
    lo, hi = band(draws, 1 / 5)
    assert lo < hits < hi


# ---------------------------------------------------------------- lam draw

def _lam_walk(k, n):
    """Exact distribution of the lam draw: every branch of the level
    walk, with the probability its cumulative weights give it."""
    out = {}

    def rec(h, units, parts, p):
        if not units:
            lam = tuple(sorted(parts, reverse=True))
            out[lam] = out.get(lam, 0) + p
            return
        counts, cum = _lam_step(k, n, h, units)
        prev = 0
        for m, c in zip(counts, cum):
            rec(h + 1, (units - m) // 2, parts + [1 << h] * m, p * Fraction(c - prev, cum[-1]))
            prev = c

    rec(0, n, [], Fraction(1))
    return out


def test_lam_draw_exact():
    # each binary partition gets exactly z^(k-1) q^k / t(k, n)
    for k in (1, 2, 3):
        for n in range(1, 17):
            t = chain_count(k, n)
            want = {lam: z_of(lam) ** (k - 1) * q_of(lam) ** k / t
                    for lam in binary_partitions(n)}
            assert _lam_walk(k, n) == want, (k, n)


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


def test_random_tanglegram_uniform_n3():
    # two classes for three leaves, split evenly
    rng = random.Random(33)
    draws = 4000
    counts = Counter(canonical_rep(random_tanglegram(3, rng)) for _ in range(draws))
    assert len(counts) == 2
    lo, hi = band(draws, 0.5)
    for c in counts.values():
        assert lo < c < hi


def test_random_tanglegram_uniform_n4():
    rng = random.Random(34)
    draws = 13000
    counts = Counter(canonical_rep(random_tanglegram(4, rng)) for _ in range(draws))
    assert len(counts) == 13
    lo, hi = band(draws, 1 / 13)
    for c in counts.values():
        assert lo < c < hi


# ---------------------------------------------------------------- alg 4

def test_random_tree_uniform():
    rng = random.Random(41)
    with pytest.raises(ValueError):
        random_tree(0, rng)
    assert random_tree(3, rng) == parse("((..).)")
    draws = 6000
    counts = Counter(random_tree(6, rng) for _ in range(draws))
    assert len(counts) == 6
    lo, hi = band(draws, 1 / 6)
    for c in counts.values():
        assert lo < c < hi


# ---------------------------------------------------------------- alg 5

def test_random_chain_single_tree_matches_tree_sampler():
    rng = random.Random(51)
    draws = 4000
    hits = 0
    for _ in range(draws):
        ch = random_chain(1, 4, rng)
        assert ch.k == 1 and ch.matchings == ()
        hits += ch.trees[0] == BAL4
    lo, hi = band(draws, 0.5)
    assert lo < hits < hi


def test_random_chain_two_trees_matches_tanglegram():
    # a chain of two trees carries the same classes as a tanglegram
    rng = random.Random(52)
    draws = 13000
    counts = Counter()
    for _ in range(draws):
        ch = random_chain(2, 4, rng)
        tg = Tanglegram(ch.trees[0], ch.trees[1], ch.matchings[0])
        counts[canonical_rep(tg)] += 1
    assert len(counts) == 13
    lo, hi = band(draws, 1 / 13)
    for c in counts.values():
        assert lo < c < hi


def test_random_chain_shape():
    rng = random.Random(53)
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
        u = random_automorphism(tg.left, rng)
        w = random_automorphism(tg.right, rng)
        moved = Tanglegram(tg.left, tg.right, compose(u, compose(tg.matching, w)))
        assert canonical_rep(moved) == rep


def test_canonical_rep_counts_classes_exhaustively():
    import itertools
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
        ts = [random_automorphism(t, rng) for t in ch.trees]
        moved = []
        for i, m in enumerate(ch.matchings):
            moved.append(compose(ts[i], compose(m, inverse(ts[i + 1]))))
        assert canonical_chain_rep(TangledChain(ch.trees, tuple(moved))) == rep


# ----------------------------------------------------- exact uniformity

class _Replay:
    """Stands in for the rng, and through it for sample._pick and
    sample._pick_scan: each draw takes the branch that the path names,
    or the first possible branch past the path's end.  A uniform draw
    records only its number of branches, a weighted one its integer
    weights.  shuffle is Fisher-Yates on randrange."""

    def __init__(self, path):
        self.path = path
        self.draws = []

    def _branch(self, draw):
        i = len(self.draws)
        self.draws.append(draw)
        if i == len(self.path):
            self.path.append(0 if type(draw) is int else next(j for j, w in enumerate(draw) if w))
        return self.path[i]

    def pick(self, cum):
        return self._branch([c - prev for prev, c in zip([0] + cum, cum)])

    def pick_scan(self, weights, total):
        weights = list(weights)
        assert sum(weights) == total
        return self._branch(weights)

    def randrange(self, n):
        return self._branch(n)

    def shuffle(self, x):
        for i in reversed(range(1, len(x))):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


def _exact_distribution(draw, monkeypatch):
    """The exact output distribution of draw(rng): the sampler is re-run
    once per path through its choice tree, and each output collects its
    path's probability, one Fraction of the products of the branch
    weights taken and of the branch totals."""
    monkeypatch.setattr(sample, "_pick", lambda cum, rng: rng.pick(cum))
    monkeypatch.setattr(sample, "_pick_scan",
                        lambda weights, total, rng: rng.pick_scan(weights, total))
    out = {}
    path = []
    while True:
        rep = _Replay(path)
        obj = draw(rep)
        assert len(rep.draws) == len(path)
        num = den = 1
        for d, i in zip(rep.draws, path):
            if type(d) is int:
                den *= d
            else:
                num *= d[i]
                den *= sum(d)
        out[obj] = out.get(obj, 0) + Fraction(num, den)
        # advance the deepest draw that has a further possible branch
        while path:
            d = rep.draws[len(path) - 1]
            if type(d) is int:
                nxt = path[-1] + 1 if path[-1] + 1 < d else None
            else:
                nxt = next((j for j in range(path[-1] + 1, len(d)) if d[j]), None)
            if nxt is not None:
                path[-1] = nxt
                break
            path.pop()
        if not path:
            return out


def test_exact_uniform_tanglegrams(monkeypatch):
    rep = functools.cache(canonical_rep)
    for n in range(1, 5):
        dist = _exact_distribution(lambda r: rep(random_tanglegram(n, r)), monkeypatch)
        assert len(dist) == tanglegram_count(n)
        assert set(dist.values()) == {Fraction(1, tanglegram_count(n))}, n


def test_exact_uniform_trees(monkeypatch):
    # the recursive method over b_n for n <= 8, and the paper's route at
    # k = 1 for n <= 7, whose choice tree has one path per labelled tree
    for draw, top in ((random_tree, 8), (lambda n, r: random_chain(1, n, r).trees[0], 7)):
        for n in range(1, top + 1):
            dist = _exact_distribution(lambda r: draw(n, r), monkeypatch)
            assert set(dist) == set(enumerate_trees(n))
            assert set(dist.values()) == {Fraction(1, tree_count(n))}, n


def test_exact_uniform_chains(monkeypatch):
    rep = functools.cache(canonical_chain_rep)
    for n in range(1, 4):
        dist = _exact_distribution(lambda r: rep(random_chain(3, n, r)), monkeypatch)
        assert len(dist) == chain_count(3, n)
        assert set(dist.values()) == {Fraction(1, chain_count(3, n))}, n


def test_exact_tree_and_perm_lemma(monkeypatch):
    # every (T, w) with w in A(T) of cycle type lam is hit with
    # probability exactly 1/(|A(T)| q(lam))
    for n in range(1, 8):
        for lam in binary_partitions(n):
            dist = _exact_distribution(lambda r: random_tree_and_perm(lam, r), monkeypatch)
            assert set(dist) == {(t, w) for t in enumerate_trees(n)
                                 for w in automorphism_group(t) if cycle_type(w) == lam}
            for (t, _), p in dist.items():
                assert p == 1 / (aut_size(t) * q_of(lam)), (lam, t)


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


def test_cherry_statistics_n4():
    rng = random.Random(72)
    out = cherry_statistics(4, 6000, rng)
    assert sum(out["histogram"].values()) == 6000
    assert set(out["histogram"]) <= {1, 2}
    exact = 17 / 13
    assert abs(out["mean"] - exact) < 0.03
    assert out["statistic"] == "cherries"


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

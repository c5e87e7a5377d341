"""Uniform random generation of tanglegrams, trees, and tangled chains.

Tanglegrams and chains follow the paper's route.  A binary partition
lam of n is drawn with probability proportional to z*q^2 for
tanglegrams, z^(k-1)*q^k for chains of length k, by a walk over the
integer level-recurrence table of counting.py.  Each tree is then
built together with an automorphism of cycle type lam by inserting the
cycles of a fixed permutation of that type one by one, Remy-style, a
loop whose output probability is exactly 1/(|A(T)|*q(lam)).  Finally matchings between
neighboring trees are filled in by sampling a uniform conjugator.  A
single tree needs no cycle type: random_tree draws it by the recursive
method over the tree counts b_m, and random_chain(1, n) keeps the
paper's route as an independent check of it.  Every draw is one
rng.randrange, over an integer total where the options are weighted,
so there is no floating-point bias anywhere.

Identical seeds give identical samples.  The rng argument everywhere is
an owned random.Random-like object with randrange and shuffle.
"""

import bisect
import itertools
from functools import lru_cache

from .counting import level_r, level_terms, tree_count_table
from .partition import q_numerator, split_pairs, z_of
from .perm import interleave, sample_conjugator
from .tree import LEAF, count_occurrences, fold, node, symmetry_count


class TangledChain:
    """k trees in a row with a matching between each neighboring pair:
    leaf i of trees[j] is tied to leaf matchings[j](i) of trees[j+1],
    leaves numbered by DFS.  Two chains are equal when their trees and
    matchings are, whatever their class, so a Tanglegram equals the
    two-tree TangledChain with the same trees and matching."""

    __slots__ = ("trees", "matchings")

    def __init__(self, trees, matchings):
        trees = tuple(trees)
        matchings = tuple(tuple(m) for m in matchings)
        if not trees:
            raise ValueError("need at least one tree")
        n = trees[0].leaves
        if any(t.leaves != n for t in trees) or len(matchings) != len(trees) - 1:
            raise ValueError("leaf counts and matching count must agree")
        if any(sorted(m) != list(range(1, n + 1)) for m in matchings):
            raise ValueError("every matching must be a permutation of 1..n")
        self.trees = trees
        self.matchings = matchings

    @property
    def n(self):
        return self.trees[0].leaves

    @property
    def k(self):
        return len(self.trees)

    def __eq__(self, other):
        return (isinstance(other, TangledChain)
                and self.trees == other.trees
                and self.matchings == other.matchings)

    def __hash__(self):
        return hash((self.trees, self.matchings))

    def __repr__(self):
        return "TangledChain(%r, %r)" % ([t.key for t in self.trees],
                                         [list(m) for m in self.matchings])

    def to_json(self):
        return {"n": self.n, "trees": [t.key for t in self.trees],
                "matchings": [list(m) for m in self.matchings]}


class Tanglegram(TangledChain):
    """The two-tree chain: leaf i of the left tree is tied to leaf
    matching(i) of the right tree."""

    __slots__ = ()

    def __init__(self, left, right, matching):
        super().__init__((left, right), (matching,))

    left = property(lambda self: self.trees[0])
    right = property(lambda self: self.trees[1])
    matching = property(lambda self: self.matchings[0])

    def __repr__(self):
        return "Tanglegram(%s, %s, %r)" % (self.left.key, self.right.key, list(self.matching))

    def to_json(self):
        return {"n": self.n, "left": self.left.key, "right": self.right.key,
                "matching": list(self.matching)}


def random_automorphism(t, rng):
    """Uniform element of A(t), as a leaf permutation.

    The children's permutations are concatenated; at a vertex whose two
    child subtrees coincide the two halves are swapped with probability
    1/2.  The vertices are visited in post-order, so the swaps are drawn
    left subtree first, then right subtree, then the vertex.
    """
    def join(v, w1, w2):
        k = v.left.leaves
        if v.left == v.right and rng.randrange(2):
            return tuple(x + k for x in w1) + w2
        return w1 + tuple(x + k for x in w2)

    return fold(t, (1,), join)


# Categorical draws: every option table holds cumulative integer
# weights, drawn with one randrange over their total plus a bisect,
# which is exact.

def _pick(cum, rng):
    """Index of an option drawn from the cumulative integer weights cum,
    option i with probability (cum[i] - cum[i-1]) / cum[-1]; a single
    option takes no randomness."""
    if len(cum) == 1:
        return 0
    return bisect.bisect_right(cum, rng.randrange(cum[-1]))


def _pick_scan(weights, total, rng):
    """Index of an option drawn from the integer weights, an iterable
    that sums to total: option j with probability weights[j] / total.
    The weights are read in order, and only up to the option drawn."""
    x = rng.randrange(total)
    for j, w in enumerate(weights):
        x -= w
        if x < 0:
            return j


def q_of(parts):
    """q(parts) as the integers (q_numerator, z); partition.q_of is the
    same ratio as a Fraction."""
    return q_numerator(parts), z_of(parts)


# No code here calls q_of, split_pairs or interleave, but
# perfbench/hooks.py times them by these module attributes and silently
# leaves out every layer metric whose name is gone.  They can go when
# the bench reads spans of its own (ROADMAP N1b).
PERFBENCH_NAMES = (q_of, split_pairs, interleave)


# The tree lemma: the number of leaf-labelled trees fixed by a given
# permutation sigma of cycle type lam is z(lam)*q(lam), the product of
# 2s - 1 over the sizes s of the suffixes (lam_i, ..., lam_len), i >= 2.
# Such a tree is built by inserting the cycles of sigma smallest first,
# each above one of the 2s - 1 vertices of the tree on the s leaves
# placed so far, together with that vertex's orbit; for lam = (1^n) this
# is Remy's algorithm (RAIRO Inform. Theor. 19 (1985) 179-195).  Each
# choice sequence gives a different labelled tree, and removing the
# last cycle undoes its insertion, so every sigma-invariant tree comes
# out with probability 1/(z*q).  Read out with a fair coin at every
# vertex whose two subtrees coincide, the pair (T, w) then has
# probability z * 1/(z*q) * 1/|A(T)| = 1/(|A(T)|*q(lam)).

def random_tree_and_perm(parts, rng):
    """A pair (T, w) with w an automorphism of T of cycle type `parts`,
    hit with probability exactly 1/(|A(T)| * q(parts)).

    The tree is kept as flat lists over vertex ids 0..V-1: the two
    children (-1 at a leaf), the parent (-1 at the root) and sigma.  A
    cycle of length c brings the vertices (e, j), j < e, for
    e = d, 2d, ..., c: (e, j) sits above the cycle's leaves whose index
    is j mod e, so its children are (2e, j) and (2e, j + e), (c, j) is a
    leaf, and sigma sends (e, j) to (e, j + 1 mod e).  The first cycle
    has d = 1 and is the whole tree.  Each later one draws a vertex v of
    the tree so far; the sigma-orbit of v has a size d that divides c,
    as every part is a power of 2 and none placed is longer than c, and
    a new vertex p_t takes the place of sigma^t(v) with the children
    sigma^t(v) and (d, t).  T and w are then read off by loops, so depth
    is not limited: node gives T bottom up, a coin orders each pair of
    equal subtrees, and a DFS numbers the leaves.
    """
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
            # read the children in node's order, or by a coin when equal
            if t.left == t.right:
                swap = rng.randrange(2)
            else:
                swap = t.left is not tree[a]
            if swap:
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


# The draw of lam walks the level recurrence of counting.py top down,
# the recursive method of Nijenhuis and Wilf.  At the state (h, n') of
# the (k, n) table, n' units of size 2^h are left to place; the walk
# takes m parts of size 2^h with the integer weight that level_terms
# gives the term m, and these weights sum to the state's table value
# level_r.  The step probabilities multiply to
# z(lam)^(k-1) * q(lam)^k / t(k, n) for the partition built.

@lru_cache(maxsize=1 << 12)
def _lam_step(k, n, h, units):
    """Option table of the lam walk at the state (h, units) of the
    (k, n) table: (part counts m, cumulative integer weights)."""
    counts, weights = zip(*level_terms(k, n, h, units))
    cum = list(itertools.accumulate(weights))
    assert cum[-1] == level_r(k, n, h, units)
    return counts, cum


def _draw_lam(n, k, rng):
    """A binary partition of n drawn with probability
    z^(k-1) * q^k / t(k, n)."""
    parts = []
    h, units = 0, n
    while units:
        counts, cum = _lam_step(k, n, h, units)
        m = counts[_pick(cum, rng)]
        parts += [1 << h] * m
        units = (units - m) // 2
        h += 1
    parts.reverse()
    return tuple(parts)


def _draw_chain(k, n, rng):
    """Trees and matchings of a uniform tangled chain of length k on n
    leaves: lam, then the k trees with their automorphisms of type lam,
    then the k - 1 conjugators between neighbors."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    lam = _draw_lam(n, k, rng)
    pairs = [random_tree_and_perm(lam, rng) for _ in range(k)]
    matchings = [sample_conjugator(pairs[i][1], pairs[i + 1][1], rng)
                 for i in range(k - 1)]
    return [t for t, _ in pairs], matchings


def random_chain(k, n, rng):
    """Uniform over ordered tangled chains of length k on n leaves."""
    return TangledChain(*_draw_chain(k, n, rng))


def random_tanglegram(n, rng):
    """Uniform over all tanglegrams of size n."""
    (left, right), (matching,) = _draw_chain(2, n, rng)
    return Tanglegram(left, right, matching)


# A uniform tree of size m >= 2 joins a tree of size i to one of size
# m - i.  By the tree counts b of counting.tree_count_table, the options
# are, with weights that sum to 2*b_m:
#   i = 1 .. ceil(m/2) - 1, two independent trees, weight 2*b_i*b_(m-i);
#   i = m/2 for even m, two independent trees, weight b_(m/2)^2;
#   i = m/2 + 1 for even m, one tree of size m/2 doubled, weight b_(m/2).
# Every tree of size m then has probability 1/b_m: with subtrees of
# sizes i < m - i it is one pair, drawn with probability 2/(2*b_m); with
# two distinct halves it is either of two ordered pairs, and with two
# equal halves T it is the pair (T, T) or T doubled, each of them drawn
# with probability 1/(2*b_m).  This is the recursive method of
# Nijenhuis and Wilf; scanning from the small side, as _pick_scan does,
# costs O(n log n) expected (Flajolet, Zimmermann and Van Cutsem 1994).

def _tree_weights(b, m):
    """The weights of the options at size m, smallest i first."""
    for i in range(1, (m + 1) // 2):
        yield 2 * b[i] * b[m - i]
    if m % 2 == 0:
        half = b[m // 2]
        yield half * half
        yield half


_JOIN = object()
_DOUBLE = object()


def random_tree(n, rng):
    """Uniform over the inequivalent binary trees with n leaves.

    The subtrees are built by a loop over an explicit stack, in the
    order a recursion would take: the smaller subtree's draws first."""
    if n < 1:
        raise ValueError("need n >= 1")
    b = tree_count_table(n)
    todo = [n]
    done = []
    while todo:
        m = todo.pop()
        if m is _JOIN:
            t2 = done.pop()
            done.append(node(done.pop(), t2))
        elif m is _DOUBLE:
            t1 = done.pop()
            done.append(node(t1, t1))
        elif m == 1:
            done.append(LEAF)
        else:
            # b_m = 1 at m = 2, 3: one tree, so no draw, as _pick takes
            # none for one option
            i = 1 if b[m] == 1 else _pick_scan(_tree_weights(b, m), 2 * b[m], rng) + 1
            if i > m // 2:
                todo += (_DOUBLE, m // 2)
            else:
                todo += (_JOIN, m - i, i)
    return done[0]


def cherry_statistics(n, samples, rng, pattern=None):
    """Sample statistics of the left tree of uniform tanglegrams.

    Only lam (drawn as for tanglegrams) and the left tree are drawn:
    given lam the trees and the conjugator are independent, so the left
    tree has the same law as in a whole tanglegram.  With no pattern,
    counts cherries (the pattern (..)); with a pattern tree, counts
    occurrences of that shape.  The reference value is the conjectured
    limit mean n/2^(l+k-1) for a pattern with l leaves and k
    symmetries, which is n/4 for a cherry.
    """
    if pattern is None:
        name = "cherries"
        pattern = node(LEAF, LEAF)
    else:
        name = "pattern " + pattern.key
    reference = n / 2 ** (pattern.leaves + symmetry_count(pattern) - 1)
    hist = {}
    total = 0
    total_sq = 0
    for _ in range(samples):
        left, _ = random_tree_and_perm(_draw_lam(n, 2, rng), rng)
        v = count_occurrences(pattern, left)
        hist[v] = hist.get(v, 0) + 1
        total += v
        total_sq += v * v
    mean = total / samples
    # one int / int division: the exact variance, rounded once
    var = (samples * total_sq - total * total) / (samples * samples)
    return {
        "n": n,
        "samples": samples,
        "statistic": name,
        "mean": mean,
        "variance": var,
        "reference": reference,
        "histogram": {k: hist[k] for k in sorted(hist)},
    }

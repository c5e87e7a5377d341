"""Uniform random generation of tanglegrams, trees, and tangled chains.

Tanglegrams and chains follow the paper's route.  A binary partition
lam of n is drawn with exact rational weights (z*q^2 for tanglegrams,
z^(k-1)*q^k for chains of length k) by a walk over the level-recurrence
table of counting.py, then each tree is built together with an
automorphism of cycle type lam by splitting lam in two again and again,
a loop whose output probability is exactly 1/(|A(T)|*q(lam)), and
finally matchings between neighboring trees are filled in by sampling
a uniform conjugator.  A single tree needs no cycle type: random_tree
draws it by the recursive method over the tree counts b_m, and
random_chain(1, n) keeps the paper's route as an independent check of
it.  All weights are exact integers, read from the integer tables or
scaled by z(lam); a single rng.randrange drives each categorical draw,
so there is no floating-point bias anywhere.

Identical seeds give identical samples.  The rng argument everywhere is
an owned random.Random-like object with randrange and shuffle.
"""

import bisect
import itertools
from functools import lru_cache
from math import gcd

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


# The tree sampler splits lam into an ordered pair of nonempty halves
# (a, b) with weight q(a)*q(b), or, when every part is even, halves it
# with weight q(lam/2); the weights add up to 2*q(lam).  The split is
# drawn in two stages, in the recursive style of Nijenhuis and Wilf:
# first the size A = |a| of the left half, then a split of that size.
# A one-run lam (c^m) has one split of each size, so the tree build
# slices it, with no second draw; any other lam lists the splits of the
# size drawn.
#
# Scaled by z(lam), the weights are integers.  z(a)*z(b) is z(lam)
# divided by prod_r C(m_r, t_r), where t_r of the m_r parts c_r go to a,
# and q_numerator(a) is the product of (2*running sum - 1) over the
# parts of a added smallest first, without the last factor 2|a| - 1.
# So the weight of size A is a walk over the parts of lam, smallest
# first, with states (parts placed, left sum A): a part c placed on the
# left multiplies by 2(A + c) - 1, on the right by 2(B + c) - 1, where
# B is the right sum.  Walking the m parts of a run one by one sums
# over the C(m, t) orders of placing t of them on the left, so the
# binomials come for free.  The first run starts from the one state
# A = 0 and is done in closed form.  Each final state A is divided by
# (2A - 1)(2(|lam| - A) - 1), which every one of its paths ends with,
# so the division is exact.

@lru_cache(maxsize=1 << 12)
def _left_sizes(parts):
    """Option table of the first stage at `parts`: (options, cum), with
    cumulative integer weights z(lam) * sum q(a)*q(b) over the splits of
    each left size A, and z(lam) * q(lam/2) for the halved option None
    when every part is even.  Every option is a size A or None: the tree
    build slices the one split of size A out of a one-run lam (c^m) and
    draws one from _splits_of_size for any other lam.  The weights total
    2*q_numerator(lam); that identity is what makes the output
    probability come out to 1/(|A(T)|*q(lam)), so it is asserted here."""
    n = sum(parts)
    runs = [(c, len(list(g))) for c, g in itertools.groupby(reversed(parts))]
    (c, m), later = runs[0], runs[1:]
    # t of the first m parts on the left: C(m, t) * F(t) * F(m - t), with
    # F(t) = prod_{j<=t} (2jc - 1); each weight is the last one times a ratio
    w = 1
    for j in range(1, m + 1):
        w *= 2 * j * c - 1
    weight = {0: w}
    for t in range(1, m + 1):
        w = w * (m - t + 1) * (2 * t * c - 1) // (t * (2 * (m - t + 1) * c - 1))
        weight[t * c] = w
    placed = c * m
    for c, m in later:
        for _ in range(m):
            after = {A: w * (2 * (placed - A + c) - 1) for A, w in weight.items()}
            for A, w in weight.items():
                after[A + c] = after.get(A + c, 0) + w * (2 * (A + c) - 1)
            weight = after
            placed += c
    options = [A for A in sorted(weight) if 0 < A < n]
    weights = [weight[A] // ((2 * A - 1) * (2 * (n - A) - 1)) for A in options]
    if parts[-1] > 1:
        options.append(None)
        weights.append(q_numerator(tuple(p // 2 for p in parts)) << len(parts))
    cum = list(itertools.accumulate(weights))
    assert cum[-1] == 2 * q_numerator(parts)
    return options, cum


def q_of(parts):
    """q(parts) as the integers (q_numerator, z); partition.q_of is the
    same ratio as a Fraction.  perfbench's tracer times it by this name."""
    return q_numerator(parts), z_of(parts)


@lru_cache(maxsize=1 << 12)
def _splits_of_size(parts, left):
    """Option table of the second stage: the splits (a, b) of `parts`
    with |a| = left, weighted by the integer z(lam)*q(a)*q(b), which is
    z(lam) // (z(a)*z(b)) = prod_r C(m_r, t_r) times q_numerator(a) *
    q_numerator(b), divided by the gcd of these weights."""
    splits = list(split_pairs(parts, left))
    z = z_of(parts)
    weights = []
    for a, b in splits:
        (qa, za), (qb, zb) = q_of(a), q_of(b)
        weights.append(z // (za * zb) * qa * qb)
    g = gcd(*weights)
    return splits, list(itertools.accumulate(w // g for w in weights))


_JOIN = object()
_DOUBLE = object()


def random_tree_and_perm(parts, rng):
    """A pair (T, w) with w an automorphism of T of cycle type `parts`,
    hit with probability exactly 1/(|A(T)| * q(parts)).

    A nonempty split (lam1, lam2) builds the two subtrees and joins them
    with node, which puts them in canonical order; the permutations
    follow their subtrees.  The halved option builds one subtree T1 with
    a permutation of type parts/2, doubles the tree, and interleaves so
    the two copies are swapped by w.  The subtrees are built by a loop
    over an explicit stack, in the order a recursion would take: the
    left half's draws, then the right half's, and for the halved option
    the draws of T1, then its automorphism.
    """
    if not parts:
        raise ValueError("empty partition")
    todo = [parts]
    done = []
    while todo:
        item = todo.pop()
        if item is _JOIN:
            t2, w2 = done.pop()
            t1, w1 = done.pop()
            t = node(t1, t2)
            if t.left is not t1:
                w1, w2 = w2, w1
            k = t.left.leaves
            done.append((t, w1 + tuple(v + k for v in w2)))
        elif item is _DOUBLE:
            t1, w2 = done.pop()
            w1 = random_automorphism(t1, rng)
            done.append((node(t1, t1), interleave(w1, w2)))
        elif item == (1,):
            done.append((LEAF, (1,)))
        else:
            options, cum = _left_sizes(item)
            A = options[_pick(cum, rng)]
            if A is None:
                todo += (_DOUBLE, tuple(p // 2 for p in item))
            elif item[0] == item[-1]:
                t = A // item[0]
                todo += (_JOIN, item[t:], item[:t])
            else:
                splits, cum = _splits_of_size(item, A)
                a, b = splits[_pick(cum, rng)]
                todo += (_JOIN, b, a)
    return done[0]


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

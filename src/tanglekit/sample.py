"""Uniform random generation of tanglegrams, trees, and tangled chains.

Every object follows the paper's route.  A binary partition lam of n is
drawn with probability proportional to z^(k-1)*q^k for chains of
length k, trees (k = 1) and tanglegrams (k = 2) included, by a walk
over the integer level-recurrence table of counting.py.  Each tree is
then built together with an automorphism of cycle type lam by inserting
the cycles of a fixed permutation of that type one by one, Remy-style,
a loop that gives the tree T together with an automorphism in a given
A(T)-conjugacy class C of type lam probability exactly
|C|/(|A(T)|*q(lam)).  Finally matchings between neighboring trees are
filled in by sampling a uniform conjugator, and each class comes out
with probability exactly 1/t(k, n).  A lone tree has no matching, so
its automorphism is never read off.  Every draw is one rng.randrange,
over an integer total where the options are weighted, so there is no
floating-point bias anywhere.

Identical seeds give identical samples.  The rng argument everywhere is
an owned random.Random-like object with randrange and shuffle.  The
chain and tanglegram values returned are defined in tree.py.
"""

from .counting import level_options
from .partition import q_numerator, split_pairs, z_of
from .perm import interleave, sample_conjugator
from .tree import LEAF, Tanglegram, TangledChain, count_occurrences, fold, node, symmetry_count


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


def _pick_scan(options, total, rng):
    """One option of options, an iterable of (option, integer weight)
    pairs whose weights sum to total, drawn with probability
    weight / total by one randrange(total), which is exact.  The pairs
    are read in order, and only up to the one drawn.  This is the
    sampler's one weighted draw, and the lam walk its one caller."""
    x = rng.randrange(total)
    for option, w in options:
        x -= w
        if x < 0:
            return option


def q_of(parts):
    """q(parts) as the integers (q_numerator, z); oracle.q_of is the
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
# out with probability 1/(z*q).
#
# The tree is read out with its children in node's order, and no coin
# orders two equal subtrees, because a sampled class depends on each w
# only up to conjugation by A(T).  A chain's class is the orbit of its
# matchings under m_i -> t_i o m_i o t_(i+1)^-1, t_i in A(T_i), and
# sample_conjugator(w_i, w_(i+1)) draws m_i uniformly from
# {m : w_i o m = m o w_(i+1)}.  Replace w_i by a o w_i o a^-1, a in
# A(T_i): then m_i -> a o m_i and m_(i-1) -> m_(i-1) o a^-1 are
# bijections between the old and the new conjugator sets, and they keep
# every class.  So a class's probability depends on each w_i only
# through its A(T_i)-conjugacy class.  A fair coin at every vertex with
# two equal subtrees would conjugate w by a uniform a in A(T), as the
# flip patterns are exactly A(T), and would never change T; so it would
# change no class law, no tree law and no stats law.  With the coin the
# pair (T, w) would have probability z * 1/(z*q) * 1/|A(T)|, so without
# it each A(T)-conjugacy class C of type lam is hit with probability
# |C|/(|A(T)|*q(lam)).
#
# The 1-cycles come first, and while only 1-cycles are placed every
# vertex is its own orbit, so the general insertion reduces to Remy's
# step: one randrange(V) picks v, and the new leaf V and the new vertex
# V + 1 above v are the ids the orbit loop would give them, so sigma is
# the identity on that prefix and the choices are the same draws.  Most
# tanglegrams have lam = (1^n) (the share tends to e^(-1/8) = 0.88);
# then sigma is the identity, so w, which is sigma read on the leaves
# in DFS order, is the identity whatever the tree, and neither the
# children's order nor the leaf numbering is needed.

def _grow(parts, rng):
    """(T, (tree, left, right, sigma, root)): random_tree_and_perm's T, by
    all of its draws, and the flat lists its w is read from, tree[v] the
    Tree below v.  parts is unchecked: a lambda as _draw_lam gives it.

    The tree is kept as flat lists over vertex ids 0..V-1: the two
    children (-1 at a leaf), the parent (-1 at the root) and sigma.  The
    trailing run of 1s in `parts` is placed first by Remy's step.  A
    later cycle of length c brings the vertices (e, j), j < e, for
    e = d, 2d, ..., c: (e, j) sits above the cycle's leaves whose index
    is j mod e, so its children are (2e, j) and (2e, j + e), (c, j) is a
    leaf, and sigma sends (e, j) to (e, j + 1 mod e).  When no 1s come
    first, the first cycle has d = 1 and is the whole tree.  Each later
    one draws a vertex v of the tree so far; the sigma-orbit of v has a
    size d that divides c, as every part is a power of 2 and none placed
    is longer than c, and a new vertex p_t takes the place of
    sigma^t(v) with the children sigma^t(v) and (d, t).  node then gives
    T bottom up, by a loop, so depth is not limited.
    """
    randrange = rng.randrange
    ones = parts.count(1)
    head = parts[:len(parts) - ones]
    size = 2 * ones - 1 if ones else 0
    left, right, parent = [-1] * size, [-1] * size, [-1] * size
    root = 0
    for leaf in range(1, size, 2):
        v = randrange(leaf)
        p = parent[v]
        u = leaf + 1  # the new vertex above v
        if p < 0:
            root = u
        elif left[p] == v:
            left[p] = u
        else:
            right[p] = u
        left[u] = v
        right[u] = leaf
        parent[u] = p
        parent[v] = parent[leaf] = u
    sigma = list(range(size))
    for c in reversed(head):
        orbit = []
        if sigma:
            v = randrange(len(sigma))
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
        a = left[v]
        if a >= 0:
            order += (a, right[v])
    tree = [LEAF] * len(sigma)
    for v in reversed(order):
        a = left[v]
        if a >= 0:
            tree[v] = node(tree[a], tree[right[v]])
    return tree[root], (tree, left, right, sigma, root)


def random_tree_and_perm(parts, rng):
    """A pair (T, w) with w an automorphism of T of cycle type `parts`:
    the tree T together with a w in a given A(T)-conjugacy class C of
    that type has probability exactly |C|/(|A(T)| * q(parts)).
    It takes len(parts) - 1 draws, one randrange per inserted cycle.

    w is sigma read on T's leaves, numbered by a DFS loop that takes
    each vertex's children in node's order.
    """
    head = parts[:len(parts) - parts.count(1)]
    if not parts or any(c < 2 or c & (c - 1) or c < d for c, d in zip(head, head[1:] + head[-1:])):
        raise ValueError("parts must be weakly decreasing powers of 2, got %r" % (parts,))
    t, (tree, left, right, sigma, root) = _grow(parts, rng)
    if not head:
        return t, tuple(range(1, len(parts) + 1))
    pos = [0] * len(sigma)
    leaves = []
    stack = [root]
    while stack:
        v = stack.pop()
        a = left[v]
        if a < 0:
            leaves.append(v)
            pos[v] = len(leaves)
        elif tree[v].left is tree[a]:
            stack += (right[v], a)
        else:
            stack += (a, right[v])
    return t, tuple(pos[sigma[v]] for v in leaves)


# The draw of lam walks the level recurrence of counting.py top down,
# the recursive method of Nijenhuis and Wilf.  At the state (h, n') of
# the (k, n) table, n' units of size 2^h are left to place; the walk
# draws the number m of parts by _pick_scan over the (m, weight) options
# and their total R(h, n') that level_options gives.  At n' = 1 the one
# option m = 1 takes no draw.  The step probabilities multiply to
# z(lam)^(k-1) * q(lam)^k / t(k, n).  The weights are made as the scan
# reads them, from near the mode, and none is kept: at k = 2 lam = (1^n)
# carries about 88% of the mass, so most draws read one weight; at
# k = 1, n = 1000 a draw reads about 25.

def _draw_lam(n, k, rng):
    """A binary partition of n drawn with probability
    z^(k-1) * q^k / t(k, n)."""
    parts = []
    h, units = 0, n
    while units:
        m = 1
        if units > 1:
            total, options = level_options(k, n, h, units)
            m = _pick_scan(options, total, rng)
        parts += [1 << h] * m
        units = (units - m) // 2
        h += 1
    return tuple(reversed(parts))


def _draw_chain(k, n, rng):
    """Trees and matchings of a uniform tangled chain of length k on n
    leaves: lam, then the k trees with their automorphisms of type lam,
    then the k - 1 conjugators between neighbors."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    lam = _draw_lam(n, k, rng)
    if k == 1:
        return [_grow(lam, rng)[0]], []
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


def random_tree(n, rng):
    """Uniform over the inequivalent binary trees with n leaves: the one
    tree of random_chain(1, n, rng), by the same draws."""
    return _draw_chain(1, n, rng)[0][0]


def cherry_statistics(n, samples, rng, pattern=None):
    """Sample statistics of the left tree of uniform tanglegrams.

    Only lam (drawn as for tanglegrams) and the left tree are drawn, and
    no w is read off: given lam the trees and the conjugator are
    independent, so the left tree has the same law as in a whole
    tanglegram.  With no pattern, counts cherries (the pattern (..));
    with a pattern tree, counts occurrences of that shape.  The
    reference value is the conjectured limit mean n/2^(l+k-1) for a
    pattern with l leaves and k symmetries, which is n/4 for a cherry.
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
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
        left, _ = _grow(_draw_lam(n, 2, rng), rng)
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

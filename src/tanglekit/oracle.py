"""Brute-force enumeration and exact references at small sizes.

Everything here recomputes, from first principles and in the dumbest
safe way, quantities the rest of the package obtains from formulas:
the trees of a size by listing every join, their number b_n by the
classical recurrence (which `count trees --method oracle` prints),
automorphism groups by checking every leaf permutation against the
edge set, classes of tangled chains (a tanglegram is the two-tree
chain) by expanding whole orbits out of all tuples of matchings, and
the weights q, r_S and the generator sums toward f(1/4) in Fractions.
The point is independence: none of this shares code paths with the
counting formulas or the samplers it validates (it imports neither
counting.py nor sample.py, and takes the chain values from tree.py),
and only the CLI and the package's __init__ import it.  Every cap lives
here, and past one CapError is raised: trees are listed up to 20
leaves, brute automorphism groups stop at 8, and an enumeration expands
at most 7! tuples of matchings per tuple of trees, or 8!, which takes
minutes, behind an explicit flag.  b_n needs no cap: its recurrence
takes about n^2/4 bigint products.

The canonical class representatives (canonical_rep and
canonical_chain_rep), which the sampler tests bin draws by, use the
recursive automorphism_group instead: at n = 8 it lists all 23 groups
in about a millisecond, where brute_automorphisms takes seconds.  A
test keeps the two group constructions in agreement.
"""

import itertools
import warnings
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partition import q_numerator, z_of
from .perm import compose, flip, inverse
from .tree import LEAF, Tanglegram, TangledChain, node, symmetry_count

ENUMERATION_CAP = 20  # leaves of a listed tree
BRUTE_CAP = factorial(7)  # tuples of matchings per tuple of trees
SLOW_CAP = factorial(8)  # the same with allow_slow=True
AUT_CAP = 8


class CapError(ValueError):
    """A request beyond the size cap of an enumeration or a brute-force
    helper.  The CLI reports it with exit code 3."""


@lru_cache(maxsize=64)  # listings stop far below 64 leaves, so every size stays
def _all_trees(n):
    if n == 1:
        return (LEAF,)
    out = []
    for k in range(n - 1, (n - 1) // 2, -1):
        lefts = _all_trees(k)
        if 2 * k > n:
            rights = _all_trees(n - k)
            for a in lefts:
                for b in rights:
                    out.append(node(a, b))
        else:
            for i, a in enumerate(lefts):
                for b in lefts[i:]:
                    out.append(node(a, b))
    return tuple(out)


def tree_count_oracle(n):
    """b_n, the number of inequivalent binary trees with n leaves, by the
    classical recurrence B(x) = x + (B(x)^2 + B(x^2))/2: a tree of size
    m >= 2 joins two trees of sizes i < m - i, or, for even m, two trees
    of size m/2, equal or not.  A plain loop over b_1 .. b_n, so any n
    stays within the recursion limit, with no cap: it takes about n^2/4
    bigint products.  The list is allocated before the loop, so an n too
    large for this machine raises OverflowError or MemoryError at once."""
    if n < 1:
        raise ValueError("need n >= 1")
    b = [0, 1] + [0] * (n - 1)
    for m in range(2, n + 1):
        half = b[m // 2] if m % 2 == 0 else 0
        b[m] = sum(b[i] * b[m - i] for i in range(1, (m + 1) // 2)) + half * (half + 1) // 2
    return b[n]


def enumerate_trees(n):
    """All inequivalent binary trees with n leaves, in decreasing order
    under compare.  Enumeration is restricted to n <= 20; counts past
    the cap come from formulas, not listings."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > ENUMERATION_CAP:
        raise CapError("enumeration capped at %d leaves (asked for %d)" % (ENUMERATION_CAP, n))
    return _all_trees(n)


def _leaf_sets(t, offset=0):
    """Leaf-label set of every vertex, labels assigned by DFS."""
    if t.is_leaf:
        return [frozenset([offset + 1])]
    left = _leaf_sets(t.left, offset)
    right = _leaf_sets(t.right, offset + t.left.leaves)
    return left + right + [left[-1] | right[-1]]


def _vertex_family(t):
    sets = _leaf_sets(t)
    fam = frozenset(sets)
    assert len(fam) == len(sets), "duplicate vertex label sets"
    return fam


@lru_cache(maxsize=1 << 10)
def brute_automorphisms(t):
    """All leaf permutations that fix the edge set of t, where every
    vertex is labeled by the set of leaf labels below it.

    A permutation maps each vertex set S to {v(s) for s in S}; it
    preserves the edges iff it maps the family of vertex sets onto
    itself, since parent/child relations are recovered from inclusion.
    """
    n = t.leaves
    if n > AUT_CAP:
        raise CapError("brute automorphisms capped at %d leaves (asked for %d)" % (AUT_CAP, n))
    fam = _vertex_family(t)
    out = []
    for v in itertools.permutations(range(1, n + 1)):
        if frozenset(frozenset(v[s - 1] for s in ss) for ss in fam) == fam:
            out.append(v)
    return tuple(out)


@lru_cache(maxsize=1 << 10)
def automorphism_group(t):
    """Every element of A(t) as a leaf permutation, by recursion over
    the subtrees: products of the children's groups, doubled by the
    flip of the halves when the two children coincide."""
    if t.is_leaf:
        return ((1,),)
    k = t.left.leaves
    lefts = automorphism_group(t.left)
    rights = automorphism_group(t.right)
    out = []
    for w1 in lefts:
        for w2 in rights:
            out.append(w1 + tuple(v + k for v in w2))
    if t.left == t.right:
        pi = flip(k)
        out.extend(compose(pi, w) for w in list(out))
    return tuple(out)


def _orbit(matchings, groups):
    """Orbit of a tuple of matchings under the product of the trees'
    automorphism groups, acting by m_i -> t_i o m_i o t_{i+1}^-1.  Each
    member is its matchings joined into one flat tuple; all of them have
    length n, so the flat tuples order as the tuples of matchings do."""
    if not matchings:
        return {()}
    # heads: (the member so far, the next matching times t_i on the
    # left).  s runs over all of the next tree's group, so it stands for
    # t_{i+1}^-1, and its inverse multiplies the matching after it.
    heads = [((), compose(t, matchings[0])) for t in groups[0]]
    for m, group in zip(matchings[1:], groups[1:]):
        pairs = [(s, compose(inverse(s), m)) for s in group]
        heads = [(flat + compose(tm, s), sm) for flat, tm in heads for s, sm in pairs]
    return {flat + compose(tm, s) for flat, tm in heads for s in groups[-1]}


def _unflatten(flat, n):
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def _canonical(chain):
    if chain.n > AUT_CAP:
        raise CapError("canonical representatives capped at %d leaves" % AUT_CAP)
    return min(_orbit(chain.matchings, [automorphism_group(t) for t in chain.trees]))


def canonical_chain_rep(chain):
    """The member of the chain's class whose tuple of matchings is
    lexicographically minimal.  Two chains are equivalent iff their
    canonical_chain_rep outputs are equal."""
    return TangledChain(chain.trees, _unflatten(_canonical(chain), chain.n))


def canonical_rep(tg):
    """canonical_chain_rep as a Tanglegram: the matching minimal over
    {u o v o w : u in A(left), w in A(right)}."""
    return Tanglegram(tg.left, tg.right, _canonical(tg))


def _matching_tuples(k, n, allow_slow):
    """Every tuple of k - 1 matchings on n leaves, flat, in order: what a
    brute enumeration expands for each k-tuple of trees, within the cap."""
    count = factorial(n) ** (k - 1)
    if count > (SLOW_CAP if allow_slow else BRUTE_CAP):
        raise CapError("brute enumeration capped at %d tuples of matchings per tuple of "
                       "trees, %d with allow_slow=True or --allow-slow (asked for %d)"
                       % (BRUTE_CAP, SLOW_CAP, count))
    if count > BRUTE_CAP:
        warnings.warn("brute enumeration of %d tuples of matchings runs for minutes" % count)
    perms = list(itertools.permutations(range(1, n + 1)))
    return [sum(ms, ()) for ms in itertools.product(perms, repeat=k - 1)]


def _classes(trees, flats):
    """The least member, flat, of each orbit of tuples of matchings
    between neighbouring `trees`, in the order `flats` first meets them."""
    groups = [brute_automorphisms(t) for t in trees]
    seen = set()
    reps = []
    for flat in flats:
        if flat not in seen:
            orbit = _orbit(_unflatten(flat, trees[0].leaves), groups)
            seen |= orbit
            reps.append(min(orbit))
    assert len(seen) == len(flats)
    return reps


def brute_pair_classes(T, S):
    """Representatives of the double cosets splitting the n! matchings
    between the leaves of T and the leaves of S."""
    return _classes((T, S), _matching_tuples(2, T.leaves, allow_slow=False))


def brute_chains(k, n, allow_slow=False):
    """One canonical representative per class of k-tree chains on n leaves."""
    flats = _matching_tuples(k, n, allow_slow)
    return [TangledChain(trees, _unflatten(rep, n))
            for trees in itertools.product(enumerate_trees(n), repeat=k)
            for rep in _classes(trees, flats)]


def brute_tanglegrams(n, allow_slow=False):
    """brute_chains(2, n, allow_slow) as Tanglegrams."""
    return [Tanglegram(*chain.trees, *chain.matchings)
            for chain in brute_chains(2, n, allow_slow)]


def unordered_count(reps):
    """Tanglegram classes counted up to the extra swap
    (T, v, S) ~ (S, v^-1, T), from the ordered classes brute_tanglegrams
    lists: orbits of those under swap-then-canonicalize."""
    fixed = 0
    for tg in reps:
        if tg.left == tg.right:
            g = brute_automorphisms(tg.left)
            fixed += min(_orbit((inverse(tg.matching),), (g, g))) == tg.matching
    assert (len(reps) + fixed) % 2 == 0
    return (len(reps) + fixed) // 2


def q_of(lam):
    """The weight q of a partition tuple as an exact Fraction."""
    return Fraction(q_numerator(lam), z_of(lam))


def r_poly(indices, x):
    """The suffix-sum product r_S(x) for S = {i_1 < ... < i_k}:
    prod_{j=2}^{k} (x_{i_j} + x_{i_{j+1}} + ... + x_{i_k} - 1),
    an empty product (singleton S) being 1.  x is a 1-indexed sequence:
    x[i-1] is the value at index i."""
    s = sorted(indices)
    if not s:
        raise ValueError("need a nonempty index set")
    out = Fraction(1)
    suffix = Fraction(0)
    for i in reversed(s[1:]):
        suffix += x[i - 1]
        out *= suffix - 1
    return out


def generator_weight_sum(n):
    """sum over trees T with n leaves of 4^-(leaves + symmetry_count(T)),
    exact.  Summed over n = 1, 2, ... these partial sums increase
    toward f(1/4) of f_fixed_point from below; no convergence is
    asserted."""
    total = Fraction(0)
    for t in enumerate_trees(n):
        total += Fraction(1, 4 ** (n + symmetry_count(t)))
    return total

"""Brute-force enumeration at small sizes.

Everything here recomputes, from first principles and in the dumbest
safe way, quantities the rest of the package obtains from formulas:
automorphism groups by checking every leaf permutation against the edge
set, tanglegram classes by expanding entire double cosets out of all n!
matchings.  The point is independence: none of this shares code paths
with the counting formulas or the samplers it validates.  Caps keep the
factorial blowup at bay; n = 8 tanglegram enumeration is possible but
slow and sits behind an explicit flag.

The canonical class representatives (canonical_rep and
canonical_chain_rep), which the sampler tests bin draws by, use the
recursive automorphism_group instead: at n = 8 it lists all 23 groups
in about a millisecond, where brute_automorphisms takes seconds.  A
test keeps the two group constructions in agreement.
"""

import itertools
import warnings
from functools import lru_cache
from math import factorial

from .perm import compose, flip, inverse
from .sample import Tanglegram, TangledChain
from .tree import CapError, enumerate_trees

BRUTE_CAP = 7
AUT_CAP = 8


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


def _coset_min(v, gt, gs):
    """Minimum of the double coset {u o v o w} and the coset itself."""
    orbit = set()
    for u in gt:
        uv = compose(u, v)
        for w in gs:
            orbit.add(compose(uv, w))
    return min(orbit), orbit


def _chain_orbit(matchings, groups):
    """Orbit of a tuple of matchings under the product of the trees'
    automorphism groups, acting by m_i -> t_i o m_i o t_{i+1}^-1."""
    orbit = set()
    for ts in itertools.product(*groups):
        orbit.add(tuple(compose(ts[i], compose(m, inverse(ts[i + 1])))
                        for i, m in enumerate(matchings)))
    return orbit


def canonical_rep(tg, cap=AUT_CAP):
    """The member of tg's equivalence class whose matching is
    lexicographically minimal over {u o v o w : u in A(left),
    w in A(right)}.  Two tanglegrams are equivalent iff their
    canonical_rep outputs are equal."""
    if tg.n > cap:
        raise CapError("canonical_rep capped at %d leaves (asked for %d)" % (cap, tg.n))
    best, _ = _coset_min(tg.matching, automorphism_group(tg.left),
                         automorphism_group(tg.right))
    return Tanglegram(tg.left, tg.right, best)


def canonical_chain_rep(chain, cap=AUT_CAP):
    """Chain analogue of canonical_rep: the minimal tuple of matchings
    in the chain's orbit."""
    if chain.n > cap:
        raise CapError("canonical_chain_rep capped at %d leaves" % (cap,))
    groups = [automorphism_group(t) for t in chain.trees]
    return TangledChain(chain.trees, min(_chain_orbit(chain.matchings, groups)))


def brute_pair_classes(T, S):
    """Representatives of the double cosets splitting the n! matchings
    between the leaves of T and the leaves of S: every matching is
    expanded to its full class, the lexicographically minimal member
    representing it."""
    n = T.leaves
    gt = brute_automorphisms(T)
    gs = brute_automorphisms(S)
    seen = set()
    reps = []
    for v in itertools.permutations(range(1, n + 1)):
        if v in seen:
            continue
        rep, orbit = _coset_min(v, gt, gs)
        seen |= orbit
        reps.append(rep)
    assert len(seen) == factorial(n)
    return reps


def brute_tanglegrams(n, allow_slow=False):
    """One canonical representative per tanglegram class of size n,
    over all ordered tree pairs.  n = 8 takes minutes and must be
    requested with allow_slow=True."""
    if n > BRUTE_CAP + 1 or (n == BRUTE_CAP + 1 and not allow_slow):
        raise CapError(
            "brute tanglegram enumeration capped at %d leaves "
            "(%d allowed with allow_slow=True)" % (BRUTE_CAP, BRUTE_CAP + 1))
    if n == BRUTE_CAP + 1:
        warnings.warn("brute tanglegram enumeration at n=%d runs for minutes" % n)
    reps = []
    trees = enumerate_trees(n)
    for T in trees:
        for S in trees:
            for rep in brute_pair_classes(T, S):
                reps.append(Tanglegram(T, S, rep))
    return reps


def brute_unordered_count(n):
    """Tanglegram classes counted up to the extra swap
    (T, v, S) ~ (S, v^-1, T): orbits of the ordered classes under
    swap-then-canonicalize."""
    if n > BRUTE_CAP:
        raise CapError("unordered brute count capped at %d leaves" % BRUTE_CAP)
    reps = brute_tanglegrams(n)
    fixed = 0
    for tg in reps:
        if tg.left != tg.right:
            continue
        g = brute_automorphisms(tg.left)
        swapped, _ = _coset_min(inverse(tg.matching), g, g)
        if swapped == tg.matching:
            fixed += 1
    assert (len(reps) + fixed) % 2 == 0
    return (len(reps) + fixed) // 2


def brute_chains(k, n, cap=4):
    """One canonical representative per tangled chain class, by
    expanding full orbits of the product of automorphism groups acting
    on the matchings."""
    if n > cap:
        raise CapError("brute chain enumeration capped at %d leaves" % cap)
    trees = enumerate_trees(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    reps = []
    for combo in itertools.product(trees, repeat=k):
        groups = [brute_automorphisms(t) for t in combo]
        seen = set()
        for ms in itertools.product(perms, repeat=k - 1):
            if ms in seen:
                continue
            orbit = _chain_orbit(ms, groups)
            seen |= orbit
            reps.append(TangledChain(combo, min(orbit)))
    return reps

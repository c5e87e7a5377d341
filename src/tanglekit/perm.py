"""Permutations of {1..n} in one-line notation.

A permutation is a tuple p of length n with p[i-1] = p(i), values
1-indexed.  Composition is functional: compose(a, b) applies b first.
"""


def identity(n):
    return tuple(range(1, n + 1))


def compose(a, b):
    """(a o b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise ValueError("size mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(a[b[i] - 1] for i in range(len(b)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def cycles_of(p):
    """Disjoint cycles in canonical form: each cycle starts at its
    minimum element and cycles are listed in order of their minima
    (a first-unseen scan produces exactly this)."""
    n = len(p)
    seen = [False] * (n + 1)
    out = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        if p[i - 1] == i:  # a fixed point; no later cycle reaches it
            out.append((i,))
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(p):
    """Multiset of cycle lengths, sorted decreasing."""
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


def flip(k):
    """The involution on {1..2k} swapping i and i+k for 1 <= i <= k.
    Swapping the two halves of a tree with equal k-leaf subtrees induces
    exactly this leaf permutation."""
    return tuple(range(k + 1, 2 * k + 1)) + tuple(range(1, k + 1))


def interleave(w1, w2):
    """The permutation of {1..2k} that sends i to w1(i) + k and k + j
    to w1^-1(w2(j)), for k-permutations w1 and w2.

    It equals pi o w1 o pi o w1^-1 o pi o w2 with pi = flip(k), once w1
    is extended by the identity on [k+1,2k] and w2 is shifted onto
    [k+1,2k].  The result swaps the two halves while threading w1 and
    w2 through, so its cycle type is twice the cycle type of w2.
    """
    k = len(w1)
    if len(w2) != k:
        raise ValueError("size mismatch: %d vs %d" % (k, len(w2)))
    inv = inverse(w1)
    return tuple(v + k for v in w1) + tuple(inv[v - 1] for v in w2)


def sample_conjugator(u, v, rng):
    """Uniform w with u = w o v o w^-1.

    Writing both u and v in canonical cycle form, a conjugator is the
    same thing as a length-preserving matching of v's cycles to u's
    cycles plus a rotation offset per cycle; there are
    prod_c c^{m_c} m_c! of them.  Shuffling the target cycles of each
    length and drawing each offset uniformly hits every conjugator with
    equal probability.  The lengths are taken in the order in which
    they first occur among v's cycles, and a 1-cycle has one offset, so
    none is drawn for it.
    """
    cv = cycles_of(v)
    order = dict.fromkeys(map(len, cv))  # each length once, as it first occurs in v
    cu = sorted(cycles_of(u), key=len)
    cv.sort(key=len)  # stable: each length's run stays in canonical order
    lens = list(map(len, cv))
    if list(map(len, cu)) != lens:
        raise ValueError("cycle types differ")
    w = [0] * len(u)
    for ln in order:
        lo = lens.index(ln)
        hi = lo + lens.count(ln)
        targets = cu[lo:hi]
        rng.shuffle(targets)
        if ln == 1:
            for (a,), (b,) in zip(cv[lo:hi], targets):
                w[a - 1] = b
            continue
        for vc, uc in zip(cv[lo:hi], targets):
            r = rng.randrange(ln)
            for a, b in zip(vc, uc[r:] + uc[:r]):
                w[a - 1] = b
    # u o w = w o v, that is u = w o v o w^-1
    assert [u[x - 1] for x in w] == [w[x - 1] for x in v]
    return tuple(w)

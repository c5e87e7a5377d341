"""Binary partitions and the combinatorial weights attached to them.

A binary partition of n is a partition whose parts are all powers of 2.
Partitions are represented as tuples of ints in weakly decreasing order.
For a partition lam with m_h parts equal to 2^h we write

    z(lam) = prod_h (2^h)^{m_h} * m_h!

which is the order of the centralizer of a permutation of cycle type lam
inside the group generated by disjoint cycle rotations and permutations
of equal-length cycles.  The rational weight

    q(lam) = (1/z(lam)) * prod_{i=2..len} (2*(lam_i + ... + lam_len) - 1)

underlies every counting formula in this package: the sum of q over
binary partitions of n is the number of inequivalent binary trees with
n leaves, the sum of z*q^2 is the number of tanglegrams, and the sum of
z^(k-1)*q^k is the number of tangled chains of length k.  The package
computes with its integer parts z_of and q_numerator; the Fraction
q_of that the tests compare against lives in oracle.py.
"""

from itertools import groupby, product


def binary_partitions(n, max_part=None):
    """Yield binary partitions of n as decreasing tuples, in decreasing
    lexicographic order.  max_part bounds the largest usable part."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    p = 1 << (n.bit_length() - 1)
    if max_part is not None:
        while p > max_part:
            p >>= 1
    while p >= 1:
        for rest in binary_partitions(n - p, p):
            yield (p,) + rest
        p >>= 1


def z_of(parts):
    """Centralizer order prod c^{m_c} * m_c! of a cycle type.

    Works for arbitrary partitions, not only binary ones, though the
    package passes only cycle types of tree automorphisms, which are
    binary.
    """
    z = 1
    i = 0
    n = len(parts)
    while i < n:
        c = parts[i]
        m = 1
        while i + m < n and parts[i + m] == c:
            m += 1
        for j in range(1, m + 1):
            z *= c * j
        i += m
    return z


def q_numerator(parts):
    """prod_{i=2..len} (2*(lam_i+...+lam_len) - 1), the numerator of q.

    The product skips the largest part: each factor is one less than
    twice a suffix sum of the partition.
    """
    total = 0
    numer = 1
    for p in reversed(parts[1:]):
        total += p
        numer *= 2 * total - 1
    return numer


def split_pairs(parts):
    """Yield every ordered pair (mu, nu) of sub-multisets with
    mu + nu = parts, both halves allowed to be empty.

    A partition with multiplicities m_1, ..., m_r over its distinct
    parts produces prod (m_i + 1) ordered splits: mu takes t_i of the
    m_i parts of each run, and nu the rest.
    """
    runs = [(c, len(list(g))) for c, g in groupby(parts)]
    for takes in product(*(range(m + 1) for _, m in runs)):
        yield (sum(((c,) * t for (c, _), t in zip(runs, takes)), ()),
               sum(((c,) * (m - t) for (c, m), t in zip(runs, takes)), ()))

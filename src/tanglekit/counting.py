"""Exact counts of tanglegrams, inequivalent binary trees, and tangled
chains.

Everything here reduces to one family of sums over binary partitions
lam of n:

    t(k, n) = sum_lam ( prod_{i=2..len} (2*(lam_i+...+lam_len) - 1) )^k / z(lam)

k = 1 counts inequivalent binary trees, k = 2 counts tanglegrams, and
general k counts ordered tangled chains of length k.  Three independent
routes to the same numbers are provided: the direct sum, a recurrence
that never touches partitions explicitly, and (for k = 2) a rearranged
sum with a Catalan prefactor.  Agreement of all three is the strongest
internal consistency check in the package.  The direct sum lists only
the parts of size 4 and up; the 2s and 1s that complete them are folded
in closed form, one tail per number of units left.  The mu sum walks
its own parts of size 4 and up and folds its 2s the same way, in code
of its own.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm, prod

from .partition import binary_partitions, z_of
from .tree import aut_size, cycle_type_table

# No code here calls binary_partitions, but perfbench/hooks.py counts
# the partitions it lists by this module attribute and silently leaves
# out partition.partitions_listed once the name is gone.  The tuple can
# go when the bench reads spans of its own (ROADMAP N1b).
PERFBENCH_NAMES = (binary_partitions,)


def _power_sum(n, k):
    """n! * (2n-1)^k * t(k,n) as one exact integer.

    Walks the tree of binary partitions, part sizes from the largest
    power of 2 down to 4, carrying two quantities along each branch:
    W = n!/z(partial) and the product of (2r-1)^k over the parts placed,
    where r is the sum of a part and all parts after it.  No part is
    skipped, so a whole partition lam adds n! * (2n-1)^k * z^(k-1) * q^k:
    the largest part's factor is always (2n-1)^k, and the caller divides
    it out once.

    The walk stops where only 2s and 1s are left to place, and adds
    W * numer into acc[s], s being the units left.  Every completion of
    such a leaf is j twos and then s - 2j ones, so after the walk each s
    gets its tail once, summed over j:
    acc[s] / (j! * 2^j * (s-2j)!) * ((2(s-2j)-1)!!)^k * G(s, j), where
    G(s, j) = prod_{l<j} (2(s-2l)-1)^k are the factors of the j twos
    (suffix sums s, s-2, ...).  Each division is exact: z(partial) *
    2^j * j! * (s-2j)! is the z of a whole partition and divides n!, so
    every W, hence acc[s], is a multiple of j! * 2^j * (s-2j)!.  The
    walk's own divisions are exact for the same reason.
    """
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    tail = [1] * (n + 1)
    for m in range(1, n + 1):
        tail[m] = tail[m - 1] * (2 * m - 1) ** k
    acc = [0] * (n + 1)

    def rec(r, p, W, numer):
        while p > r:
            p //= 2
        if p <= 2:
            # only 2s and 1s are left, or nothing (r = 0 leaves p = 0)
            acc[r] += W * numer
            return
        rec(r, p // 2, W, numer)
        m = 0
        while r >= p:
            m += 1
            W //= p * m
            numer *= (2 * r - 1) ** k
            r -= p
            rec(r, p // 2, W, numer)

    rec(n, 1 << (n.bit_length() - 1), fact[n], 1)
    total = 0
    for s, a in enumerate(acc):
        if not a:
            continue
        twos = 1  # j! * 2^j
        grow = 1  # G(s, j)
        for j in range(s // 2 + 1):
            total += a // (twos * fact[s - 2 * j]) * tail[s - 2 * j] * grow
            grow *= (2 * (s - 2 * j) - 1) ** k
            twos *= 2 * (j + 1)
    return total


def chain_count(k, n):
    """Number of ordered tangled chains of length k on n leaves,
    t(k,n) = sum_lam z(lam)^(k-1) * q(lam)^k over binary partitions,
    with n >= 1."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    s = _power_sum(n, k)
    den = factorial(n) * (2 * n - 1) ** k
    assert s % den == 0, "partition sum failed to clear its denominator"
    return s // den


def tanglegram_count(n):
    """Number of tanglegrams of size n."""
    return chain_count(2, n)


def tree_count(n):
    """Number of inequivalent binary rooted trees with n leaves."""
    return chain_count(1, n)


@lru_cache(maxsize=4)
def tree_count_table(n):
    """(b_0, b_1, ..., b_n), for n >= 1, by the classical recurrence from
    B(x) = x + (B(x)^2 + B(x^2))/2: 2*b_m = sum_{i=1}^{m-1} b_i b_{m-i}
    + [m even] b_{m/2}, summed here over i < m/2 with the middle term
    b_{m/2}*(b_{m/2}+1)/2 added for even m.  A plain loop, so any n
    stays within the recursion limit.  The last few tables are kept,
    so a batch of tree samples at one size builds its table once."""
    b = [0, 1]
    for m in range(2, n + 1):
        tot = sum(b[i] * b[m - i] for i in range(1, (m + 1) // 2))
        if m % 2 == 0:
            half = b[m // 2]
            tot += half * (half + 1) // 2
        b.append(tot)
    return tuple(b)


def tree_count_oracle(n):
    """b_n read from tree_count_table(n), the classical recurrence."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tree_count_table(n)[n]


def double_coset_count(T, S):
    """Number of tanglegrams with left tree T and right tree S:
    (sum_lam |A(T)_lam| * |A(S)_lam| * z(lam)) / (|A(T)| * |A(S)|)."""
    if T.leaves != S.leaves:
        raise ValueError("leaf counts differ: %d vs %d" % (T.leaves, S.leaves))
    ta = cycle_type_table(T)
    tb = cycle_type_table(S)
    num = 0
    for lam, ca in ta.items():
        cb = tb.get(lam)
        if cb:
            num += ca * cb * z_of(lam)
    den = aut_size(T) * aut_size(S)
    assert num % den == 0, "double coset count came out fractional"
    return num // den


# The recurrence route.  r(h, n, s) counts weighted configurations at
# level h with n nodes left to place and partial weight s.  Base case
# r(h, 0, s) = 1; the step sums over how many parts of size 2^h are
# used, with parity matching n:
#
#   r(h, n, s) = sum_{m = n mod 2, m+2, ..., n}
#                  c(h, m, s) * r(h+1, (n-m)/2, s + m*2^h)
#   c(h, m, s) = P(h, m, s) / (m! * 2^(h*m)),
#   P(h, m, s) = prod_{j=1}^{m} (2*(s + j*2^h) - 1)^k
#
# and t(k, n) = r(0, n, 0) / (2n-1)^k.  Every state reached from
# r(0, n0, 0) has s = n0 - n*2^h, so one table per (k, n0) keyed by
# (h, n) holds them all.  The sampler in sample.py walks the same table
# top down to draw a cycle type.
#
# The table holds integers only.  Every state stores
# R(h, n) = r(h, n) * n! * 2^(max(h, 1) * n), and with rho = (n-m)/2 the
# step reads
#
#   R(h, n) = sum_m P(h, m) * n!/(m! * rho!) * 2^((h-1)*rho) * R(h+1, rho)
#
# for h >= 1, with 2^(m+rho) in place of 2^((h-1)*rho) at the top state.
# So every entry is the sum of its terms, and chain_count_rec divides
# R(0, n0) once, by n0! * 2^n0 * (2n0-1)^k.  Along one state,
# P * n!/(m! * rho!) is carried as one integer: from m to m + 2 it gains
# the two factors of P and rho, and loses (m+1)(m+2) by exact division.


@lru_cache(maxsize=4)
def _level_table(k, n0):
    """The memo of the (k, n0) recurrence, a dict (h, n) -> R(h, n); the
    last few are kept, so a batch of samples at one size reuses its table."""
    return {}


def level_terms(k, n0, h, n):
    """Yield (m, weight) for each admissible number m of parts of size
    2^h at the state (h, n) of the (k, n0) recurrence.  The weights are
    integers and sum to the table entry level_r(k, n0, h, n)."""
    step = 1 << h
    s = n0 - n * step
    m = n % 2
    rho = (n - m) // 2
    carry = perm(n, n - rho)  # P * n!/(m! * rho!) with m <= 1
    if m:
        carry *= (2 * (s + step) - 1) ** k
    while True:
        shift = (h - 1) * rho if h else m + rho
        yield m, (carry << shift) * level_r(k, n0, h + 1, rho)
        if not rho:
            return
        grow = ((2 * (s + (m + 1) * step) - 1) * (2 * (s + (m + 2) * step) - 1)) ** k
        carry = carry * (grow * rho) // ((m + 1) * (m + 2))
        m += 2
        rho -= 1


def level_r(k, n0, h, n):
    """R(h, n) = r(h, n) * n! * 2^(max(h, 1) * n) of the (k, n0) table,
    the sum of the weights level_terms yields at (h, n); 1 at n = 0."""
    if n == 0:
        return 1
    table = _level_table(k, n0)
    hit = table.get((h, n))
    if hit is None:
        hit = table[(h, n)] = sum(w for _, w in level_terms(k, n0, h, n))
    return hit


@lru_cache(maxsize=4)
def chain_count_rec(k, n):
    """t(k,n) = R(0, n) / (n! * 2^n * (2n-1)^k) by the level recurrence
    above, which lists no partition, so it scales to n in the thousands.
    The last few counts are kept, which spares a repeat the division."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    val, rem = divmod(level_r(k, n, 0, n), (factorial(n) << n) * (2 * n - 1) ** k)
    assert rem == 0, "recurrence value failed to clear its denominator"
    return val


def tanglegram_count_rec(n):
    return chain_count_rec(2, n)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def tanglegram_count_mu(n):
    """t_n as a Catalan prefactor times a short sum.

    t_n = (c_{n-1}^2 * n! / 4^{n-1}) * sum_mu  n(n-1)...(n-|mu|+1) /
          ( z(mu) * prod_i prod_{j=1}^{mu_i - 1}
                      (2n - 2(mu_1+...+mu_{i-1}) - 2j - 1)^2 )

    where mu runs over binary partitions with every part a positive
    power of 2 (parts >= 2), including mu = (), whose summand is 1, and
    |mu| <= n.  For n = 1 only mu = () occurs and c_0 = 1, so t_1 = 1.

    The sum is taken in integers over one common denominator
    D = n! * ((2n-3)!!)^2.  Each summand's denominator divides D: z(mu)
    divides |mu|!, hence n!, and the odd factors of one mu are distinct
    odd numbers below 2n - 1; the factors of part i run down from
    2n - 2(mu_1+...+mu_{i-1}) - 3 in steps of 2.  So D times any
    summand, or any sum of them, is an integer.

    Each mu is pi plus j twos, pi holding the parts >= 4 and leaving
    L = n - |pi|.  The walk lists only pi, part sizes from the largest
    power of 2 down to 4, and carries E(pi) = D * n(n-1)...(L+1) /
    (z(pi) * f(pi)^2), f being the product of the odd factors: D times
    the summand of mu = pi, so an integer.  The c-th
    part p placed with `left` still free multiplies E by
    left(left-1)...(left-p+1) and divides it by p * c * o^2, where o is
    the product of the odd numbers 2(left-p)+1 .. 2left-3; the quotient
    is the E of the longer pi, so the division is exact.  Each leaf adds
    its E into acc[L].  The twos then come in closed form: the j-th 2,
    placed with `left` free, multiplies a summand by left(left-1) /
    (2j * (2left-3)^2), and the quotient is again D times a sum of
    summands, so this division is exact too.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    odd = prod(range(1, 2 * n - 2, 2))  # (2n-3)!!
    acc = [0] * (n + 1)  # acc[L]: sum of E(pi) over pi with |pi| = n - L

    def walk(left, p, E):
        while p > left:
            p //= 2
        if p < 4:
            acc[left] += E
            return
        walk(left, p // 2, E)
        c = 0
        while left >= p:
            c += 1
            o = prod(range(2 * (left - p) + 1, 2 * left - 2, 2))
            E = E * perm(left, p) // (p * c * o * o)
            left -= p
            walk(left, p // 2, E)

    walk(n, 1 << (n.bit_length() - 1), factorial(n) * odd * odd)
    total = 0  # D times the sum
    for left, term in enumerate(acc):
        j = 0
        while term:
            total += term
            j += 1
            term = term * left * (left - 1) // (2 * j * (2 * left - 3) ** 2)
            left -= 2
    c = catalan(n - 1)
    val, rem = divmod(c * c * total, (odd * odd) << (2 * n - 2))
    assert rem == 0, "mu-form sum failed to clear its denominator"
    return val


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

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
internal consistency check in the package.  The direct sum lists no
partition: it sums its parts of size 4 and up one size at a time, into
one integer per number of units left, and the 2s and 1s that complete
them are folded in closed form, one tail of small-ratio steps per
number of units left.  The mu sum loops over its own parts of size 4
and up and folds its 2s the same way, in code of its own.

The samplers walk the recurrence's table, the one table here, for
every object; the classical tree recurrence lives in oracle.py.
"""

from functools import lru_cache
from itertools import chain, zip_longest
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

    Sums over the partial partitions into parts of size 4 and up, one
    part size at a time, from the largest power of 2 down to 4.  Each
    partial partition carries one integer E = n!/z(partial) times the
    product of (2r-1)^k over the parts placed, where r is the sum of a
    part and all parts after it.  No part is skipped, so a whole
    partition lam adds n! * (2n-1)^k * z^(k-1) * q^k: the largest part's
    factor is always (2n-1)^k, and the caller divides it out once.

    acc[r] holds the sum of E over the partial partitions whose parts of
    the sizes done so far are placed and which leave r units.  Size p
    keeps each of them with no part p, and places m = 1, 2, ... parts p
    on it: the m-th with r left does E = E // (p*m) * (2r-1)^k and
    leaves r - p.  Each partial partition's division is exact, because
    z(partial) * p * m is the z of a partial partition, which divides n!;
    acc[r] is a sum of such E's, so its division is exact too.  The
    loop takes about n^2/4 steps and lists no partition.

    Every completion of a partial partition leaving s is j twos and then
    s - 2j ones, so after the loop each s gets its tail once, summed over j:

        term_j = acc[s] / (j! * 2^j * (s-2j)!) * ((2(s-2j)-1)!!)^k * G(s, j),

    where G(s, j) = prod_{l<j} (2(s-2l)-1)^k are the factors of the j
    twos (suffix sums s, s-2, ...).  Each term_j is an integer:
    z(partial) * 2^j * j! * (s-2j)! is the z of a whole partition and
    divides n!, so every partial partition's E, hence acc[s], is a
    multiple of j! * 2^j * (s-2j)!.  term_0 = acc[s] // s! * ((2s-1)!!)^k,
    with s! and ((2s-1)!!)^k kept as running products over s, and each
    next term is term_j = term_(j-1) * L(L-1) // (2j * (2L-3)^k),
    L = s - 2(j-1), the units left before the j-th 2: a floor division
    whose quotient is the integer term_j, so it is exact.
    """
    # acc first: an n too large to allocate for fails here at once, not
    # after factorial(n)
    acc = [0] * (n + 1)
    acc[n] = factorial(n)
    p = 1 << (n.bit_length() - 1)
    while p >= 4:
        # top upwards: parts placed on acc[top] land below top, on entries
        # already read, so each entry is read before this size adds to it
        for top in range(p, n + 1):
            E, r, m = acc[top], top, 0
            while E and r >= p:
                m += 1
                E = E // (p * m) * (2 * r - 1) ** k
                r -= p
                acc[r] += E
        p //= 2
    total = 0
    fs = 1  # s!
    odd = 1  # ((2s-1)!!)^k
    for s, a in enumerate(acc):
        if a:
            term = a // fs * odd
            total += term
            for j in range(1, s // 2 + 1):
                L = s - 2 * (j - 1)
                term = term * (L * (L - 1)) // (2 * j * (2 * L - 3) ** k)
                total += term
        fs *= s + 1
        odd *= (2 * s + 1) ** k
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
# (h, n) holds them all, the top state (0, n0) included.  The sampler in
# sample.py walks the same table top down, through level_options, to
# draw a cycle type.
#
# The table holds integers only.  Every state, the top one included,
# stores R(h, n) = r(h, n) * n! * 2^(h*n).  With rho = (n-m)/2,
# n!/(m! * rho!) = C(n, 2*rho) * (2*rho-1)!! * 2^rho, so the step reads
#
#   R(h, n) = sum_m P(h, m) * C(n, 2*rho) * (2*rho-1)!! * 2^(h*rho) * R(h+1, rho).
#
# So every entry is the sum of its terms, and chain_count_rec divides
# R(0, n0) once, by n0! * (2n0-1)^k.  Along one state,
# P * C(n, 2*rho) * (2*rho-1)!! is carried as one integer, out from the
# first m of level_options: from m to m - 2 it gains m(m-1) and loses, by
# exact division, 2 * rho for the new rho and the two factors of P that
# drop out, and from m to m + 2 the other way round.
#
# level_options writes that sum out, one big-by-big product per term.  The
# table builds every state with few such products: each level h >= 1 by
# one binomial transform, and the top state by groups of small ratios.
# Fix a level h >= 1, let N = n0 // 2^h be its largest n, and put
#
#   f(u) = (2*(n0 - u*2^h) - 1)^k,   S(i) = f(i) * f(i+1) * ... * f(N-1),
#
# with S(N) = 1.  The factors of P(h, m) at the state (h, n) are f(u) for
# u = n - m = 2*rho .. n - 1, so P = S(2*rho) / S(n), and each weight
# is C(n, 2*rho) * c_(2*rho) / S(n), one term of
#
#   R(h, n) * S(n) = sum_i C(n, i) * c_i,
#   c_(2*rho) = (2*rho-1)!! * 2^(h*rho) * R(h+1, rho) * S(2*rho),
#
# with c_i = 0 for odd i: one binomial transform of c_0 .. c_N gives the
# whole level.  N rounds of Pascal's rule d_i += d_(i+1) on d = c leave
# sum_j C(t, j) * c_(i+j) in d_i after round t, so d_0 is then
# R(h, t) * S(t).  The division by S(t) is exact: the left side is an
# integer multiple of S(t), because R(h, t) is a sum of the integer
# weights that level_options gives.  A level costs about N^2/2 additions
# and N exact divisions, and it needs only the level below it, so the
# table is filled from the deepest level up, by plain loops.
#
# The top state comes last.  With m = n0 - 2*rho, its weights are
# carry_rho * R(1, rho), rho = 0 .. n0 // 2, with R(1, 0) = 1 and
# carry_0 = ((2*n0 - 1)!!)^k, and each carry is the one before times
# num_rho / den_rho, num_rho = (m+2)(m+1), den_rho = 2*rho * ((2m+1)(2m+3))^k,
# two small integers.  The sum starts from the rho = 0 term, carry_0, and
# takes rho = 1 .. n0 // 2 in groups of _TOP_GROUP, each from c, the
# carry of the rho just before the group.  Over one group,
#
#   sum_rho carry_rho * R(1, rho) = c * W // D,   D = prod den_rho,
#   W = sum_rho R(1, rho) * prod_(r <= rho) num_r * prod_(r > rho) den_r,
#
# with rho, r and both products over the group's rhos.  W is built by
# Horner's rule from the group's last rho down, each step a bigint times
# small integers, so a group costs one big-by-big product, c * W, where
# level_options pays one per term.  Both divisions by D are exact:
# c * W // D is a sum of the integer weights level_options gives, and
# c * prod num_rho // D is the integer carry of the group's last rho,
# which the next group starts from.  The sum does not depend on the
# order of its terms, so the same code serves k = 1, whose walk starts
# near the mode.


_TOP_GROUP = 16  # terms of the top state summed per big-by-big product


@lru_cache(maxsize=4)
def _level_table(k, n0):
    """The (k, n0) table, a dict (h, n) -> R(h, n) = r(h, n) * n! * 2^(h*n)
    holding every state at that one scale: each level h >= 1 one binomial
    transform of the level below, then the top state (0, n0),
    n0! * (2n0-1)^k * t(k, n0), the sum of the weights level_options
    gives there.  That sum is taken _TOP_GROUP terms at a time, with one
    big-by-big product and two divisions per group; each division is
    exact, because its quotient is a sum of integer weights or one
    integer carry.  No entry changes after the table is returned.  The
    last few tables are kept, so a batch of samples at one size reuses
    its table.  The one transform list, of the largest level's length,
    is allocated before the loop, so an n0 too large for this machine
    raises OverflowError or MemoryError at once."""
    table = {}
    d = [0] * (n0 // 2 + 1)  # c_0 .. c_N of a level, the odd ones and the spent ones 0
    for h in range(n0.bit_length() - 1, 0, -1):
        N = n0 >> h
        S = [1] * (N + 1)  # S[i] = f(i) * ... * f(N - 1)
        for u in range(N - 1, -1, -1):
            S[u] = S[u + 1] * (2 * (n0 - (u << h)) - 1) ** k
        odd = 1  # (2*rho - 1)!!
        for rho in range(N // 2 + 1):
            d[2 * rho] = (odd * S[2 * rho] * (table[(h + 1, rho)] if rho else 1)) << (h * rho)
            odd *= 2 * rho + 1
        for n in range(1, N + 1):
            for i in range(N - n + 1):
                d[i] += d[i + 1]
            d[N - n + 1] = 0  # spent, with no right neighbour left; the next level reads it as 0
            table[(h, n)] = d[0] // S[n]
    top = c = _carry(k, n0, 0, n0, n0)  # the rho = 0 term, carry_0 * R(1, 0)
    last = n0 // 2
    for g in range(1, last + 1, _TOP_GROUP):
        w, num, den = 0, 1, 1  # W, and the group's prod num_rho and prod den_rho so far
        for rho in range(min(g + _TOP_GROUP - 1, last), g - 1, -1):
            m = n0 - 2 * rho
            up = (m + 2) * (m + 1)
            w = (w + table[(1, rho)] * den) * up
            num *= up
            den *= 2 * rho * ((2 * m + 1) * (2 * m + 3)) ** k
        top += c * w // den
        c = c * num // den
    table[(0, n0)] = top
    return table


@lru_cache(maxsize=64)
def _carry(k, n0, h, n, m):
    """P(h, m) * C(n, m) * (n - m - 1)!! at the state (h, n).  The last
    64 are kept: every lambda draw starts from the top state's."""
    step = 1 << h
    s = n0 - n * step
    return (prod(range(2 * (s + step) - 1, 2 * (s + m * step), 2 * step)) ** k
            * comb(n, m) * prod(range(1, n - m, 2)))


def level_options(k, n0, h, n):
    """R(h, n) at the state (h, n) of the (k, n0) recurrence, and an
    iterator of (m, weight) over the admissible numbers m of parts of
    size 2^h there, each weight one integer term of the step above, so
    the weights sum to R(h, n).  The options run from an m0 near the
    mode outward, one step up and one down in turn while both sides
    last.  m0 = n for k >= 2; for k = 1 the mode moves from 0.63 * n at
    the top state toward n as the level empties, and m0 follows it.  Any
    fixed order keeps a draw exact; this one lets it read few weights,
    which are made as they are read.  The table holds no empty state:
    at n = 0 the total is 1 and the one option is (0, 1)."""
    if not n:
        return 1, iter(((0, 1),))
    table = _level_table(k, n0)
    m0 = n - 2 * (37 * n * (n << h) // (200 * n0)) if k == 1 else n

    def options():
        step = 1 << h
        a = 2 * (n0 - n * step) - 1  # the u-th factor of P(h, m) is (a + 2*u*2^h)^k
        hi = lo = _carry(k, n0, h, n, m0)
        outward = zip_longest(range(m0 + 2, n + 1, 2), range(m0 - 2, -1, -2))
        for m in chain((m0,), chain.from_iterable(outward)):
            if m is None:  # one side has run out
                continue
            rho = (n - m) // 2
            if m > m0:  # from m - 2: the factors m - 1 and m join P
                f = (a + 2 * (m - 1) * step) * (a + 2 * m * step)
                hi = hi * (2 * rho + 2) * f ** k // (m * (m - 1))
            elif m < m0:  # from m + 2: the factors m + 1 and m + 2 leave P
                f = (a + 2 * (m + 1) * step) * (a + 2 * (m + 2) * step)
                lo = lo * ((m + 2) * (m + 1)) // (2 * rho * f ** k)
            yield m, ((hi if m > m0 else lo) << h * rho) * (table[(h + 1, rho)] if rho else 1)

    return table[(h, n)], options()


@lru_cache(maxsize=4)
def chain_count_rec(k, n):
    """t(k,n) = R(0, n) / (n! * (2n-1)^k) by the level recurrence above,
    which lists no partition, so it scales to n in the thousands.  The
    last few counts are kept, which spares a repeat the division."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    top = _level_table(k, n)[(0, n)]
    val, rem = divmod(top, factorial(n) * (2 * n - 1) ** k)
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
    L = n - |pi|.  Each pi carries E(pi) = D * n(n-1)...(L+1) /
    (z(pi) * f(pi)^2), f being the product of the odd factors: D times
    the summand of mu = pi, so an integer.  acc[L] holds the sum of E
    over the pi of the part sizes done so far that leave L; sizes run
    from the largest power of 2 down to 4, and size p keeps each such pi
    and places c = 1, 2, ... parts p on it.  The c-th part p placed with
    `left` still free multiplies E by left(left-1)...(left-p+1) and
    divides it by p * c * o^2, where o is the product of the odd numbers
    2(left-p)+1 .. 2left-3; for one pi the quotient is the E of the
    longer pi, so the division is exact, and so it is for acc[left], a
    sum of such E's.  The twos then come in closed form: the j-th 2,
    placed with `left` free, multiplies a summand by left(left-1) /
    (2j * (2left-3)^2), and the quotient is again D times a sum of
    summands, so this division is exact too.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # acc first, as in _power_sum: an n too large fails at once
    acc = [0] * (n + 1)  # acc[L]: sum of E(pi) over pi with |pi| = n - L
    odd = prod(range(1, 2 * n - 2, 2))  # (2n-3)!!
    acc[n] = factorial(n) * odd * odd
    p = 1 << (n.bit_length() - 1)
    while p >= 4:
        factors = {}  # left -> (perm(left, p), p * o^2), made once per size
        # as in _power_sum, upwards, so acc[top] is still its own when read
        for top in range(p, n + 1):
            E, left, c = acc[top], top, 0
            while E and left >= p:
                c += 1
                if left not in factors:
                    o = prod(range(2 * (left - p) + 1, 2 * left - 2, 2))
                    factors[left] = perm(left, p), p * o * o
                num, den = factors[left]
                E = E * num // (c * den)
                left -= p
                acc[left] += E
        p //= 2
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

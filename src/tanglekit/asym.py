"""Asymptotic approximations of the tanglegram numbers and the
fixed-point constant f(1/4).

Two equivalent expansions of t_n are provided.  Family "a" keeps the
exact Catalan-and-factorial prefactor,

    t_n ~ e^{1/8} * c_{n-1}^2 * n! / 4^{n-1} * (1 + 1/(4n) + ...),

family "b" replaces it by its Stirling form,

    t_n ~ 2^{2n-3/2} * n^{n-5/2} / (sqrt(pi) * e^{n-1/8}) * (1 + 13/(12n) + ...).

Only this module touches floating point; everything else in the package
is exact.  Arithmetic is mpmath at a caller-chosen precision
(default 200 bits).  This module also formats every float the CLI
prints: to_decimal and relative_error return strings.
"""

from fractions import Fraction
from math import factorial

from mpmath import mp, mpf, nstr, sqrt, exp, power, pi

from .counting import catalan

COEFFS_A = (
    Fraction(1),
    Fraction(1, 4),
    Fraction(137, 256),
    Fraction(1285, 1024),
    Fraction(456017, 131072),
    Fraction(6140329, 524288),
)

COEFFS_B = (
    Fraction(1),
    Fraction(13, 12),
    Fraction(3089, 2304),
    Fraction(931423, 414720),
    Fraction(826301423, 159252480),
    Fraction(211060350013, 13377208320),
)


def t_asym(n, terms=0, family="a", precision=200):
    """Approximate t_n with the first `terms` corrections beyond the
    leading term.  Six coefficients are known per family (indices 0..5),
    so terms=6 adds nothing beyond terms=5; larger values are rejected.
    The working precision is in bits, at least 64 as for f_fixed_point.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= terms <= 6:
        raise ValueError("terms must be between 0 and 6")
    if precision < 64:
        raise ValueError("need precision >= 64 bits")
    fam = family.lower()
    if fam == "a":
        coeffs = COEFFS_A
    elif fam == "b":
        coeffs = COEFFS_B
    else:
        raise ValueError("family must be 'a' or 'b'")
    hi = min(terms, len(coeffs) - 1)
    series = Fraction(0)
    for j in range(hi + 1):
        series += coeffs[j] / Fraction(n) ** j
    with mp.workprec(precision):
        s = mpf(series.numerator) / mpf(series.denominator)
        if fam == "a":
            c = catalan(n - 1)
            pre = exp(mpf(1) / 8) * mpf(c * c * factorial(n)) / mpf(4) ** (n - 1)
        else:
            pre = (power(2, mpf(2 * n) - mpf(3) / 2) * power(n, mpf(n) - mpf(5) / 2)
                   / (sqrt(pi) * exp(mpf(n) - mpf(1) / 8)))
        val = +(pre * s)
    return val


def f_fixed_point(precision=200):
    """The constant f(1/4) where f solves f(x) = x + f(x)^2/2 +
    (x - 1/2) f(x^2), f(0) = 0.

    Solving the quadratic for f(x) gives the nested radical

        f(x) = 1 - sqrt(1 - 2x + (1 - 2x) f(x^2)),

    which is evaluated inside out: descend through x, x^2, x^4, ...
    until the argument underflows the working precision (f of it is
    then indistinguishable from 0), and unwind.  Each unwinding step
    roughly doubles the number of correct digits.
    """
    if precision < 64:
        raise ValueError("need precision >= 64 bits")
    with mp.workprec(precision + 40):
        x = mpf(1) / 4
        xs = [x]
        floor = mpf(2) ** (-(precision + 30))
        while xs[-1] > floor:
            xs.append(xs[-1] ** 2)
        g = mpf(0)
        for v in reversed(xs):
            g = 1 - sqrt(1 - 2 * v + (1 - 2 * v) * g)
    with mp.workprec(precision):
        g = +g
    return g


def to_decimal(x, precision):
    """x in decimal, to the digits `precision` bits carry and at least 8."""
    return nstr(x, max(int(precision * 0.301), 8), strip_zeros=False)


def relative_error(x, exact, precision):
    """x / exact - 1 at `precision` + 20 bits, to 6 significant digits."""
    with mp.workprec(precision + 20):
        rel = x / mpf(exact) - 1
    return nstr(rel, 6)

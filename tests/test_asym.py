from fractions import Fraction

import pytest
from mpmath import mp, mpf

from tanglekit.asym import (
    COEFFS_A,
    COEFFS_B,
    f_fixed_point,
    t_asym,
)
from tanglekit.counting import tanglegram_count_rec
from tanglekit.oracle import generator_weight_sum


def test_coefficients_frozen():
    assert COEFFS_A == (
        Fraction(1), Fraction(1, 4), Fraction(137, 256), Fraction(1285, 1024),
        Fraction(456017, 131072), Fraction(6140329, 524288))
    assert COEFFS_B == (
        Fraction(1), Fraction(13, 12), Fraction(3089, 2304),
        Fraction(931423, 414720), Fraction(826301423, 159252480),
        Fraction(211060350013, 13377208320))


def rel_error(n, terms, family):
    exact = tanglegram_count_rec(n)
    val = t_asym(n, terms, family, precision=300)
    with mp.workprec(300):
        return abs(val / mpf(exact) - 1)


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_monotone_improvement(n):
    for family in ("a", "b"):
        errs = [rel_error(n, t, family) for t in range(6)]
        for i in range(5):
            assert errs[i + 1] < errs[i], (family, n, errs)


def test_terms_six_is_terms_five():
    assert t_asym(500, 6, "a") == t_asym(500, 5, "a")


def test_families_agree():
    a = t_asym(1000, 5, "a", 300)
    b = t_asym(1000, 5, "b", 300)
    with mp.workprec(300):
        assert abs(a / b - 1) < mpf("1e-15")


def test_input_validation():
    with pytest.raises(ValueError):
        t_asym(1, 0, "a")
    with pytest.raises(ValueError):
        t_asym(10, 7, "a")
    with pytest.raises(ValueError):
        t_asym(10, -1, "a")
    with pytest.raises(ValueError):
        t_asym(10, 0, "c")
    with pytest.raises(ValueError):
        t_asym(100, 3, "a", precision=1)
    with pytest.raises(ValueError):
        f_fixed_point(32)


def test_fixed_point_stabilizes():
    # doubling the precision does not move the value beyond the stated
    # tolerance; the truncation error decays doubly exponentially
    with mp.workprec(600):
        lo = f_fixed_point(100)
        hi = f_fixed_point(200)
        hi2 = f_fixed_point(400)
        assert abs(hi - lo) < mpf(2) ** -50
        assert abs(hi2 - hi) < mpf(2) ** -100


def test_generator_weight_sum():
    assert generator_weight_sum(1) == Fraction(1, 4)
    assert generator_weight_sum(2) == Fraction(1, 64)
    assert generator_weight_sum(3) == Fraction(1, 256)


def test_generator_weight_partial_sums_below_limit():
    # partial sums of the weights increase toward f(1/4) from below
    # (every term is positive); no convergence rate is asserted
    total = Fraction(0)
    f = f_fixed_point(128)
    with mp.workprec(200):
        for n in range(1, 13):
            total += generator_weight_sum(n)
            assert mpf(total.numerator) / total.denominator < f

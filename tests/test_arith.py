import decimal
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gpaley.arith import (
    divisors,
    exact_decimal,
    exact_div,
    factorize,
    gcd_power,
    int_to_str,
    is_prime,
    same_product,
    v2,
)
from gpaley.errors import BudgetExceeded, InternalCheckError


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(341)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**60 + 1)


def test_factorize_roundtrip():
    for n in [2, 12, 4095, 728, 2**20 - 1, 3**13 - 1, 104729 * 104723]:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2**40 - 1))
def test_factorize_property(n):
    f = factorize(n)
    assert all(is_prime(p) and e >= 1 for p, e in f.items())
    assert math.prod(p**e for p, e in f.items()) == n


def test_factorize_exact():
    assert factorize(1) == {}
    assert factorize(2**20 - 1) == {3: 1, 5: 2, 11: 1, 31: 1, 41: 1}
    assert factorize(2**22 - 1) == {3: 1, 23: 1, 89: 1, 683: 1}
    assert factorize(3**13 - 1) == {2: 1, 797161: 1}


@pytest.mark.parametrize("n", [2**40, 2**40 + 1, 2**64 - 1, 3**100])
def test_factorize_refuses_40_bits_and_above(n):
    with pytest.raises(BudgetExceeded):
        factorize(n)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(27) == [1, 3, 9, 27]


def test_v2():
    assert v2(12) == 2
    assert v2(1) == 0
    assert v2(64) == 6


# gcd(q^m-1, q^ell+1) examples, frozen from the plain Euclidean values
def test_gcd_power_examples():
    assert math.gcd(4095, 3) == 3
    assert gcd_power(2, 12, 1) == 3
    assert math.gcd(728, 28) == 28
    assert gcd_power(3, 6, 3) == 28
    assert math.gcd(26, 4) == 2
    assert gcd_power(3, 3, 1) == 2


def test_gcd_power_exhaustive_vs_euclid():
    # gcd_power raises internally if the closed rule ever disagrees with
    # the Euclidean gcd, so calling it is the check
    for q in (2, 3, 4, 5, 7, 9):
        for m in range(1, 17):
            for ell in range(0, m + 1):
                gcd_power(q, m, ell)


@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25]), st.integers(1, 24), st.integers(0, 24))
def test_gcd_power_property(q, m, ell):
    assert gcd_power(q, m, ell) == math.gcd(q**m - 1, q**ell + 1)


def test_exact_div():
    assert exact_div(84, 7) == 12
    assert exact_div(-9, 3) == -3
    with pytest.raises(InternalCheckError):
        exact_div(10, 3)


def test_exact_div_names_a_huge_dividend_without_its_digits():
    # 10^5000 + 1 has more digits than str() converts by default
    with pytest.raises(InternalCheckError, match="remainder 1 modulo 10 of a 16610-bit"):
        exact_div(10**5000 + 1, 10)
    with exact_decimal(), pytest.raises(InternalCheckError, match="remainder 1 modulo 10 of"):
        exact_div(decimal.Decimal(10) ** 5000 + 1, 10)


def test_int_to_str_huge():
    n = 3 ** (5 * 4096)
    s = int_to_str(n)
    assert s.startswith("1") or s[0].isdigit()
    assert len(s) > 4300  # beyond the default conversion guard


def _str_unlimited(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_to_str_equals_str():
    limit = sys.get_int_max_str_digits()
    for n in [0, 7, -7, 10**599, -(10**600), 2**2000 + 1, -(2**2001), 3 ** (5 * 4096),
              -(7**9000) + 1]:
        assert int_to_str(n) == _str_unlimited(n)
        assert sys.get_int_max_str_digits() == limit  # the process-wide guard is left alone


@given(st.integers(min_value=-(2**40000), max_value=2**40000))
def test_int_to_str_property(n):
    assert int_to_str(n) == _str_unlimited(n)


@pytest.mark.parametrize(
    "left, right",
    [
        ([(4, 3)], [(2, 6)]),
        ([(12, 2)], [(4, 1), (36, 1)]),
        ([(-2, 2)], [(4, 1)]),
        ([], [(7, 0)]),
        ([(0, 2), (5, 1)], [(0, 1)]),
        ([(6, 4), (10, 2)], [(2, 6), (3, 4), (5, 2)]),
    ],
)
def test_same_product_holds_equal_products_written_differently(left, right):
    assert math.prod(b**e for b, e in left) == math.prod(b**e for b, e in right)
    assert same_product(left, right) and same_product(right, left)


@pytest.mark.parametrize(
    "left, right",
    [
        ([(4, 3)], [(4, 3), (2, 1)]),
        ([(-2, 3)], [(2, 3)]),
        ([(2, 3), (3, 5)], [(2, 5), (3, 3)]),
        ([(0, 1)], [(5, 2)]),
        ([(0, 1)], []),
        ([(12, 1)], [(18, 1)]),
    ],
)
def test_same_product_refuses_unequal_products(left, right):
    assert math.prod(b**e for b, e in left) != math.prod(b**e for b, e in right)
    assert not same_product(left, right) and not same_product(right, left)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-60, 60), st.integers(0, 6)), max_size=5),
    st.lists(st.tuples(st.integers(-60, 60), st.integers(0, 6)), max_size=5),
)
def test_same_product_property(left, right):
    value = lambda pairs: math.prod(b**e for b, e in pairs)
    assert same_product(left, right) == (value(left) == value(right))
    if value(left):
        assert same_product(left, left + [(value(right), 1)]) == (value(right) == 1)

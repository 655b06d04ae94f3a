"""Exact integer radius budgets: sqrt(num/den) - s, checked against Fractions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesep.tree_or_sep import Budget

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

budgets = st.builds(Budget, st.integers(0, 10**6), st.integers(1, 400), st.integers(-50, 50))


def at_least(q: Fraction, y) -> bool:
    """sqrt(q) >= y, by Fraction squaring."""
    return y <= 0 or Fraction(y) ** 2 <= q


def at_most(q: Fraction, y) -> bool:
    """sqrt(q) <= y, by Fraction squaring."""
    return y >= 0 and q <= Fraction(y) ** 2


def radicand(b: Budget) -> Fraction:
    return Fraction(b.num, b.den)


class TestBasics:
    def test_perfect_squares_collapse(self):
        assert Budget(9).floor() == Budget(9).ceil() == 3
        assert Budget(36, 4).floor() == Budget(36, 4).ceil() == 3
        assert (Budget(9, 4).floor(), Budget(9, 4).ceil()) == (1, 2)   # 3/2

    def test_irrational_comparisons_are_exact(self):
        r = Budget(2)
        assert r >= 1 and r < 2
        assert not (r <= 1)
        assert r * 10**6 >= 1414213   # 10^6 * sqrt(2) = 1414213.56...
        assert r * 10**6 <= 1414214
        assert not (r * 10**6 <= 1414213)

    def test_arithmetic_stays_in_field(self):
        r = (Budget(5) - 1) * 2        # 2*sqrt(5) - 2 = 2.47...
        assert (r.num, r.den, r.s) == (20, 1, 2)
        assert (r.floor(), r.ceil()) == (2, 3)
        assert (r - 3).floor() == -1

    def test_floor_and_ceil(self):
        assert Budget(2).floor() == 1
        assert Budget(2).ceil() == 2
        assert Budget(4).floor() == 2
        assert Budget(4).ceil() == 2
        assert (Budget(2) - 3).floor() == -2
        assert Budget.of(Fraction(7, 2)).floor() == 3

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1)
        with pytest.raises(ValueError):
            Budget(1, 0)

    def test_mixed_field_comparison_rejected(self):
        # only integers are compared: two radicals, or a float, are refused
        with pytest.raises(TypeError):
            _ = Budget(2) < Budget(3)
        with pytest.raises(TypeError):
            _ = Budget(2) <= 1.5
        with pytest.raises(TypeError):
            _ = Budget(2) * -1

    def test_as_exact_accepts_floats_and_fractions(self):
        assert (Budget.of(2.5).floor(), Budget.of(2.5).ceil()) == (2, 3)
        assert (Budget.of(Fraction(1, 3)).floor(), Budget.of(Fraction(1, 3)).ceil()) == (0, 1)
        assert (Budget.of(-4).floor(), Budget.of(-4).ceil()) == (-4, -4)
        r = Budget(2)
        assert Budget.of(r) is r


class TestAgainstFloats:
    @SETTINGS
    @given(st.integers(0, 400), st.integers(1, 20), st.integers(-10, 10))
    def test_floor_matches_high_precision(self, num, den, shift):
        f = Budget(num, den, -shift).floor()
        val = shift + math.sqrt(num / den)
        assert f <= val + 1e-9 and val - 1e-9 <= f + 1

    @SETTINGS
    @given(st.integers(0, 100), st.integers(0, 100))
    def test_square_comparison(self, a, d):
        # a <= sqrt(d) iff a*a <= d for nonnegative a
        assert (Budget(d) >= a) == (a * a <= d)


class TestAgainstFractions:
    """Every operation agrees with exact Fraction squaring."""

    @SETTINGS
    @given(budgets)
    def test_floor_and_ceil_bracket_the_value(self, b):
        q = radicand(b)
        f, c = b.floor(), b.ceil()
        assert at_least(q, f + b.s) and not at_least(q, f + 1 + b.s)
        assert at_most(q, c + b.s) and not at_most(q, c - 1 + b.s)
        assert c - f == (0 if q == Fraction(f + b.s) ** 2 else 1)

    @SETTINGS
    @given(budgets, st.integers(-2000, 2000))
    def test_comparisons_with_integers(self, b, x):
        q = radicand(b)
        assert (x <= b) == (b >= x) == at_least(q, x + b.s)
        assert (b <= x) == (x >= b) == at_most(q, x + b.s)
        assert (b < x) == (not at_least(q, x + b.s))

    @SETTINGS
    @given(budgets, st.integers(0, 300), st.integers(-10**5, 10**5))
    def test_scaled_check(self, b, n, cap):
        # n * (sqrt(q) - s) <= cap  iff  n * sqrt(q) <= cap + n*s
        y = cap + n * b.s
        assert (b * n <= cap) == (y >= 0 and n * n * radicand(b) <= y * y)

    @SETTINGS
    @given(budgets, st.integers(-100, 100), st.integers(-2000, 2000))
    def test_integer_subtraction(self, b, k, x):
        less = b - k
        assert (less.floor(), less.ceil()) == (b.floor() - k, b.ceil() - k)
        assert (less >= x) == (b >= x + k)
        assert (less <= x) == (b <= x + k)

    @SETTINGS
    @given(budgets, st.integers(1, 9))
    def test_ceil_of_quotient(self, b, d):
        # ceil(r/d) = ceil(ceil(r)/d): the least c with r <= c*d
        c = -(-b.ceil() // d)
        q = radicand(b)
        assert at_most(q, c * d + b.s) and not at_most(q, (c - 1) * d + b.s)

    @SETTINGS
    @given(budgets)
    def test_float(self, b):
        assert float(b) == pytest.approx(math.sqrt(b.num / b.den) - b.s, abs=1e-9)
        assert b.floor() - 1e-9 <= float(b) < b.floor() + 1 + 1e-9

    @SETTINGS
    @given(st.fractions(min_value=-50, max_value=50, max_denominator=1000),
           st.integers(-60, 60))
    def test_rationals_are_taken_exactly(self, r, x):
        b = Budget.of(r)
        assert (b.floor(), b.ceil()) == (math.floor(r), math.ceil(r))
        assert (b >= x) == (r >= x) and (b <= x) == (r <= x)

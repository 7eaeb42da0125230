from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apparition.exactnum import is_square, parse_rational, rth_root

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


@pytest.mark.parametrize(
    "text,value",
    [("3/4", F(3, 4)), ("-3/4", F(-3, 4)), ("5", F(5)), ("+7/2", F(7, 2)), ("0", F(0))],
)
def test_parse(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", " 1", "1 /2", "a", "1/-2", "1e3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_is_square_examples():
    assert is_square(F(9, 4)).root == F(3, 2)
    assert not is_square(5) and is_square(5).root is None
    assert not is_square(F(-192, 49)) and is_square(F(-192, 49)).root is None
    assert is_square(0) and is_square(0).root == 0  # a root of 0 is still a square


@given(rationals)
def test_square_of_rational_is_square(q):
    got = is_square(q * q)
    assert got
    assert got.root == abs(q)


def test_r_scaled_square_examples():
    # q = sign * r * b**2 exactly when q / (sign * r) is a square
    assert is_square(F(5) / 5).root == 1
    assert is_square(F(-192, 49) / -3).root == F(8, 7)
    assert is_square(F(-7, 4) / -7).root == F(1, 2)
    assert not is_square(F(5) / -5)
    assert not is_square(F(7) / 5)


@given(rationals, st.integers(2, 13), st.sampled_from([1, -1]))
def test_r_scaled_square_round_trip(b, r, sign):
    got = is_square(F(sign * r * b * b) / (sign * r))
    assert got
    assert got.root == abs(b)
    # exactness: q - sign*r*b**2 == 0
    assert sign * r * got.root**2 == sign * r * b * b


def test_rth_root():
    assert rth_root(343, 3) == 7
    assert rth_root(8, 2) is None
    assert rth_root(1, 5) == 1
    assert rth_root(2**60, 5) == 2**12
    assert rth_root(2**60 + 1, 5) is None
    with pytest.raises(ValueError):
        rth_root(0, 3)
    with pytest.raises(ValueError):
        rth_root(8, 1)


@given(st.integers(1, 10**9), st.integers(2, 7))
def test_rth_root_exact(d, r):
    assert rth_root(d**r, r) == d

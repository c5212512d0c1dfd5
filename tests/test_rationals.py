"""Strict rational parsing and smallest-denominator interval search."""

import random
from fractions import Fraction as Q

import pytest

from ruledcone.rationals import (format_ratio, format_rational, parse_rational,
                                 simplest_between)


def test_parse():
    assert parse_rational("3") == 3
    assert parse_rational("-5/2") == Q(-5, 2)
    assert parse_rational(" 7/3 ") == Q(7, 3)
    for bad in ("2.5", "1e3", "a", "1/0", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format():
    assert format_rational(Q(5, 2)) == "5/2"
    assert format_rational(Q(4, 2)) == "2"
    assert format_rational(Q(-1, 3)) == "-1/3"


def _format_by_copy(x) -> str:
    """The text of a rational as written by a copy into a Fraction."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def test_format_ratio_and_format_rational_write_the_same_text():
    values = [0, 7, -7, "3", "-5/2", "6/4", " 9/12 ", "0/5", Q(-10, 4),
              Q(1, 10**12), Q(-(10**20) - 1, 3)]
    for x in values:
        assert format_rational(x) == _format_by_copy(x), x
    rng = random.Random(11)
    for _ in range(300):
        p, q, k = rng.randint(-500, 500), rng.randint(1, 97), rng.randint(1, 9)
        # p/q and the unreduced kp/kq are one rational, written once
        assert format_ratio(k * p, k * q) == format_ratio(p, q) \
            == format_rational(Q(p, q)) == _format_by_copy(Q(p, q)), (p, q, k)
    assert (format_ratio(0, 9), format_ratio(-6, 3), format_ratio(6, 4)) \
        == ("0", "-2", "3/2")


def test_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        x = Q(rng.randint(-500, 500), rng.randint(1, 97))
        assert parse_rational(format_rational(x)) == x


def brute_simplest(lo: Q, hi: Q, q_max: int = 600) -> Q:
    for q in range(1, q_max + 1):
        p = int(lo * q) - 1
        while Q(p, q) <= lo:
            p += 1
        if Q(p, q) < hi:
            return Q(p, q)
    raise AssertionError("no rational found")


def test_simplest_between_matches_brute_force():
    rng = random.Random(19)
    for _ in range(300):
        lo = Q(rng.randint(-40, 40), rng.randint(1, 24))
        width = Q(rng.randint(1, 30), rng.randint(10, 400))
        hi = lo + width
        got = simplest_between(lo, hi)
        assert lo < got < hi
        assert got.denominator == brute_simplest(lo, hi).denominator


def test_simplest_between_specific():
    assert simplest_between(Q(0), Q(1, 2)) == Q(1, 3)
    assert simplest_between(Q(17, 9), Q(35, 18)) == Q(19, 10)
    assert simplest_between(Q(3), Q(10)) == 4
    with pytest.raises(ValueError):
        simplest_between(Q(1), Q(1))

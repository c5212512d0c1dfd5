"""Strict rational parsing and smallest-denominator interval search."""

import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledcone.rationals import (format_ratio, format_rational, parse_rational,
                                 simplest_between)


def test_parse():
    assert parse_rational("3") == 3
    assert parse_rational("-5/2") == Q(-5, 2)
    assert parse_rational(" 7/3 ") == Q(7, 3)
    for bad in ("2.5", "1e3", "a", "1/0", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


# the reader's grammar as a regular expression: \d is Unicode category Nd
_REFERENCE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _reference_parse(text: str) -> Q:
    m = _REFERENCE.match(text.strip())
    if m is None:
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Q(num, den)


def _outcome(read, text: str):
    """The Fraction `read` returns, or the text of the ValueError it raises."""
    try:
        value = read(text)
    except ValueError as err:
        return "error", str(err)
    assert type(value) is Q
    return "value", value


# ASCII digits, the characters of a sign, a ratio or a decimal, whitespace
# that strip() removes (\x1c and the em space among it), and digits of other
# scripts: Arabic-Indic and fullwidth three are Nd, superscript two is not
_ALPHABET = "0123456789+-/._ \t\n\x1c\u2003\u0663\uff13\u00b2"
_PIECE = st.text(_ALPHABET, max_size=4)
_DIGITS = st.text("0123456789\u0663\uff13\u00b2", min_size=1, max_size=4)


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(st.one_of(
    st.text(_ALPHABET, max_size=10),
    # near the grammar: whitespace, a sign, digits, a ratio, whitespace
    st.tuples(st.sampled_from(["", " ", "\t", "\x1c", "\u2003", "+", "-"]),
              _DIGITS, st.sampled_from(["", "/", "//", ".", "_"]),
              st.one_of(_DIGITS, _PIECE),
              st.sampled_from(["", "\n", " ", "\u2003"])).map("".join)))
@example("\u0663/\uff13")
@example(" -0/5\n")
@example("\u00b2")
@example("1/\u00b2")
@example("+-1")
@example("1_0")
@example("0/0")
def test_reader_matches_the_regular_expression(text):
    assert _outcome(parse_rational, text) == _outcome(_reference_parse, text)


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


def test_format_reads_text_as_p_q_and_refuses_floats():
    # Fraction's grammar would read "1e3" as 1000 and "1_0/40" as 1/4, and
    # a float holds a binary fraction
    for x in ("1e3", "1_0/40", 0.5):
        with pytest.raises(ValueError):
            format_rational(x)
    for x, text in ((12, "12"), (-3, "-3"), (Q(-6, 4), "-3/2"),
                    ("6/4", "3/2"), ("-7", "-7"), (" 9/12 ", "3/4")):
        assert format_rational(x) == text


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

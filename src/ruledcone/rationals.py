"""Exact rational helpers: strict ``p/q`` parsing and Stern-Brocot search.

Rationals cross every external boundary as ``p/q`` strings.  The reader,
`parse_rational`, takes ``[+-]?D+(/D+)?`` after stripping surrounding
whitespace, where a digit D is any character of Unicode category Nd, as
for ``str.isdecimal``.  Decimal literals are rejected on purpose: ``0.1``
silently becomes 3602879701896397/2**55 under float parsing, and the
chamber inequalities are exact half-open conditions where that error is
fatal.  For the same reason the library's entry points take their
rationals through `exact_rational`, which refuses a float and reads a
string with `parse_rational`.  The
Stern-Brocot search (`simplest_between`) has no caller in the package: the
benchmark's tracer wraps it, and the tests' reference hop chain picks its
hop targets with it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``"3"`` or ``"-5/2"`` into a Fraction.  Decimals are rejected."""
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not digits.isdecimal() or slash and not den.isdecimal():
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), den)


def exact_rational(x) -> Fraction:
    """An int, Fraction or ``p/q`` string as a Fraction; a string is read by
    `parse_rational`.  A float is refused: it holds a binary fraction, so
    ``2.5`` may be meant but ``0.1`` is not 1/10."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        raise ValueError(f"inexact float {x!r}: give an int, a Fraction or"
                         " a p/q string")
    return Fraction(x)


def format_ratio(p: int, q: int) -> str:
    """The rational p/q, q > 0, as ``"n"`` or ``"n/d"`` in lowest terms."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def format_rational(x: Fraction) -> str:
    """A Fraction, int or ``p/q`` string as `format_ratio` writes it; any
    other argument is read by `exact_rational`."""
    if not isinstance(x, Fraction):
        x = exact_rational(x)
    n, d = x.numerator, x.denominator  # a Fraction is in lowest terms
    return str(n) if d == 1 else f"{n}/{d}"


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly inside the open interval (lo, hi).

    Classic continued-fraction descent.  The planner once chained leftward
    hops toward such targets; the tests keep that chain as the reference
    for the leftward leg, and `perfbench/tracing.py` wraps this function.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    f = math.floor(lo)
    if f + 1 < hi:
        return Fraction(f + 1)
    if lo == f:
        # interval (f, hi) with hi <= f+1: answer is f + 1/m for minimal m
        m = math.floor(1 / (hi - f)) + 1
        return f + Fraction(1, m)
    return f + 1 / simplest_between(1 / (hi - f), 1 / (lo - f))

"""Curve counts for section classes and the stable-decomposition oracle.

For C = pB + qF on a genus-g ruled surface the curve count is

    Gr(C) = (p+1)^g,   valid when p = C.F >= 0 and the virtual dimension
    k(C) = (c_1(C) + C.C)/2 = (-K.C + C.C)/2 is non-negative,

and Gr(C) != 0 whenever p >= 0 and q >= g-1.  A class with C.F < 0 has no
J-curve, since a fibre passes through every point.  The decomposition
oracle backs the open-stratum section argument: it enumerates every way
B + gF can split into components with non-negative base and fiber
coefficients, confirms each splitting has exactly one component with base
coefficient 1, and reports whether that component is a plain section
B + xF (x <= g) or carries an exceptional term.  Components with
exceptional terms are reported, never suppressed: ruling them out is not
part of the arithmetic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .cone import area, normalized
from .lattice import ClassVector, SurfaceParams, canonical_class, pair

_Q = Fraction


def virtual_dim_k(c: ClassVector, params: SurfaceParams) -> Fraction:
    """Virtual dimension k(C) = (-K.C + C.C)/2, exact (integrality reported
    by the caller, not assumed)."""
    k = canonical_class(params)
    return _Q(-pair(k, c) + pair(c, c), 2)


def _more_digits_than(base: int, g: int, limit: int) -> bool:
    """Whether base**g (base >= 0) has more than `limit` decimal digits,
    decided by bit lengths where they settle it, so that a huge power is
    never built: 2^(g(bits-1)) <= base^g < 2^(g bits)."""
    bound = 10 ** limit
    bits, top = base.bit_length(), bound.bit_length()
    if base < 2 or g * bits < top:  # base^g < 2^(top-1) <= bound
        return False
    # else g bits < 2 top when the bit lengths do not settle it
    return g * (bits - 1) >= top or base ** g >= bound


def gromov_invariant(p: int, q: int, params: SurfaceParams) -> int:
    """Gr(pB + qF) = (p+1)^g, defined when p >= 0 and k(C) >= 0; a count
    with more digits than `sys.get_int_max_str_digits()` allows (0: no
    limit) could not be printed, so it is refused before it is built."""
    c = ClassVector(p, q, (0,))
    if p < 0:
        raise ValueError(
            f"({c}).F = {p} < 0: a fibre passes through every point, so {c}"
            " has no J-curve and the closed curve-count formula does not"
            " apply")
    k = virtual_dim_k(c, params)
    if k < 0:
        raise ValueError(
            f"k({c}) = {k} < 0: the closed curve-count formula does not apply")
    limit = sys.get_int_max_str_digits()
    if limit and _more_digits_than(p + 1, params.g, limit):
        raise ValueError(
            f"Gr({c}) = {p + 1}^{params.g} has more than {limit} digits, the"
            " limit of sys.get_int_max_str_digits() for printing an integer")
    return (p + 1) ** params.g


def gromov_nonzero_criterion(p: int, q: int, params: SurfaceParams) -> bool:
    """The sufficient nonvanishing condition p >= 0 and q >= g - 1 (for
    g = 0: p, q >= 0 and p + q > 0)."""
    if p < 0:
        return False
    if params.g == 0:
        return q >= 0 and p + q > 0
    return q >= params.g - 1


@dataclass(frozen=True)
class Decomposition:
    """A multiset of components summing to a fixed total class."""

    parts: tuple[ClassVector, ...]

    def total(self) -> ClassVector:
        out = self.parts[0]
        for a in self.parts[1:]:
            out = out + a
        return out

    def section_parts(self) -> tuple[ClassVector, ...]:
        return tuple(a for a in self.parts if a.p == 1)

    def as_json(self) -> dict:
        section = self.section_parts()
        sec = section[0] if len(section) == 1 else None
        return {
            "parts": [str(a) for a in self.parts],
            "section": str(sec) if sec is not None else None,
            "plain_section": bool(sec is not None and sec.r == (0,)),
            "section_fiber_coefficient": sec.q if sec is not None else None,
        }


def section_decompositions(params: SurfaceParams, q_bound: int,
                           r_bound: int = 1) -> list[Decomposition]:
    """All splittings of B + gF into parts pB + qF + rE with p in {0, 1},
    0 <= q <= q_bound, |r| <= r_bound, zero total exceptional coefficient,
    and positive area at the point u = (g+1, 1, 1/2), inside the mu > g range.

    The bound |r| <= 1 mirrors the one blow-up class available; it is a
    parameter so the restriction stays visible.
    """
    if q_bound < params.g:
        raise ValueError(f"q_bound must be at least g = {params.g}")
    u = normalized(params.g + 1, _Q(1, 2))

    def allowed(a: ClassVector) -> bool:
        return area(u, a) > 0

    # fiber-type parts (p = 0), largest-first for canonical multiset order
    fiber_parts = [ClassVector(0, q, (r,))
                   for q in range(q_bound, -1, -1)
                   for r in range(r_bound, -r_bound - 1, -1)]
    fiber_parts = [a for a in fiber_parts if allowed(a)]

    out: list[Decomposition] = []

    def extend(prefix: list[ClassVector], q_left: int, r_left: int,
               start: int) -> None:
        if q_left == 0 and r_left == 0:
            out.append(Decomposition(tuple(sorted(prefix))))
            return  # any further nonzero part would break the remainder
        # remaining parts can reach at worst -q_left * r_bound in total
        # exceptional weight (each negative-r part carries fiber weight)
        if r_left < -q_left * r_bound or (q_left == 0 and r_left < 0):
            return
        for i in range(start, len(fiber_parts)):
            a = fiber_parts[i]
            if a.q > q_left:
                continue
            prefix.append(a)
            extend(prefix, q_left - a.q, r_left - a.r[0], i)
            prefix.pop()

    for x in range(0, min(params.g, q_bound) + 1):
        for r in range(-r_bound, r_bound + 1):
            section = ClassVector(1, x, (r,))
            if not allowed(section):
                continue
            extend([section], params.g - x, -r, 0)

    out.sort(key=lambda d: d.parts)
    return out

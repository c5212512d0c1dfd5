"""Integer homology arithmetic for the one-point blow-up of a trivially ruled
surface.

Classes live in the basis B (base), F (fiber), E (exceptional sphere) of the
second homology of a genus-g ruled surface blown up at one point.  The
intersection form is

    B.F = 1,  B.B = F.F = 0,  E.E = -1,  B.E = F.E = 0.

Everything is exact integer arithmetic; there is no floating point in this
module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True, init=False)
class SurfaceParams:
    """Topological input: the base genus g, an int >= 0."""

    g: int

    def __init__(self, g: int) -> None:
        if type(g) is not int:
            raise ValueError(f"genus must be an int, got {g!r}")
        if g < 0:
            raise ValueError(f"genus must be >= 0, got {g}")
        self.__dict__["g"] = g


@dataclass(frozen=True, order=True, init=False)
class ClassVector:
    """p*B + q*F + r*E with integer coefficients, r held as the 1-tuple (r,).

    Ordering is lexicographic in (p, q, r); the planner uses it for
    deterministic tie-breaking.  Its text form (`format_class`) is built on
    first read and kept in the instance dict as `text`, beside `pairings`;
    neither is a field, so neither takes part in ==, hash or repr.
    """

    p: int
    q: int
    r: tuple[int] = (0,)

    def __init__(self, p: int, q: int, r: tuple[int] = (0,)) -> None:
        if not isinstance(r, tuple) or len(r) != 1:
            raise ValueError(f"exceptional coefficients must be a 1-tuple"
                             f" (one blow-up), got {r!r}")
        if type(p) is not int or type(q) is not int or type(r[0]) is not int:
            name, x = next((name, x) for name, x in
                           (("p", p), ("q", q), ("r[0]", r[0]))
                           if type(x) is not int)
            raise ValueError(f"class coefficient {name} must be an int,"
                             f" got {x!r}")
        fields = self.__dict__
        fields["p"] = p
        fields["q"] = q
        fields["r"] = r

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0 and self.r[0] == 0

    @cached_property
    def pairings(self) -> tuple[int, int, int, int]:
        """(Z.B, Z.F, Z.E, Z.Z): area increments per unit t along Z, and Z.Z."""
        return (pair(self, B), pair(self, F), pair(self, E), pair(self, self))

    @cached_property
    def text(self) -> str:
        """The text form, `format_class(self)`, e.g. "B-2F-E"."""
        return format_class(self)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        return ClassVector(self.p + other.p, self.q + other.q,
                           (self.r[0] + other.r[0],))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return ClassVector(self.p - other.p, self.q - other.q,
                           (self.r[0] - other.r[0],))

    def __neg__(self) -> "ClassVector":
        return ClassVector(-self.p, -self.q, (-self.r[0],))

    def __mul__(self, k: int) -> "ClassVector":
        return ClassVector(self.p * k, self.q * k, (self.r[0] * k,))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self.text


B = ClassVector(1, 0, (0,))
F = ClassVector(0, 1, (0,))
E = ClassVector(0, 0, (1,))


def pair(a: ClassVector, b: ClassVector) -> int:
    """Intersection pairing a.b (symmetric, bilinear over the integers)."""
    return a.p * b.q + a.q * b.p - a.r[0] * b.r[0]


def canonical_class(params: SurfaceParams) -> ClassVector:
    """K = -2B + (2g-2)F + E.

    With this choice adjunction gives genus g for every section-type class
    B - kF and B - kF - E, and genus 0 for E and F - E, which pins the
    stratum codimension table.
    """
    return ClassVector(-2, 2 * params.g - 2, (1,))


def adjunction_genus(a: ClassVector, params: SurfaceParams) -> int | None:
    """Genus forced by adjunction: g(A) = (K.A + A.A + 2) / 2.

    Returns None when that value is negative, i.e. no embedded representative
    is possible.  (K is characteristic for this form, so K.A + A.A is always
    even and integrality never fails.)
    """
    if a.is_zero():
        raise ValueError("adjunction genus of the zero class is undefined")
    k = canonical_class(params)
    twice = pair(k, a) + pair(a, a) + 2
    if twice % 2 != 0:  # unreachable for this lattice; kept as a guard
        return None
    genus = twice // 2
    return genus if genus >= 0 else None


def codim(a: ClassVector, params: SurfaceParams) -> int:
    """Real codimension 2(-A.A - 1 + g(A)) of the stratum labeled by A."""
    genus = adjunction_genus(a, params)
    if genus is None:
        raise ValueError(f"{a} admits no embedded representative")
    return 2 * (-pair(a, a) - 1 + genus)


# -- text form ---------------------------------------------------------------
#
# `p*B + q*F + r*E`, with +-1 coefficients and zero terms omitted, e.g.
# "B-2F-E".  "E1" is accepted for "E".

_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*\*?\s*(B|F|E(\d+)?)", re.IGNORECASE)


def parse_class(text: str) -> ClassVector:
    """Parse the text form of a class, e.g. ``B-2F-E`` or ``-2B+3F-E1``."""
    s = re.sub(r"\s+", "", text)
    if s in ("0", ""):
        return ClassVector(0, 0, (0,))
    p = q = r = 0
    pos = 0
    for m in _TERM_RE.finditer(s):
        # every term but the first carries its sign: "BB" is no class
        if m.start() != pos or (pos and not m.group(1)):
            raise ValueError(f"cannot parse class {text!r}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff = sign * (int(m.group(2)) if m.group(2) else 1)
        sym = m.group(3).upper()
        if sym == "B":
            p += coeff
        elif sym == "F":
            q += coeff
        else:
            idx = int(m.group(4)) if m.group(4) else 1
            if idx != 1:
                raise ValueError(f"exceptional index {idx} out of range in {text!r}")
            r += coeff
    if pos != len(s):
        raise ValueError(f"cannot parse class {text!r}")
    return ClassVector(p, q, (r,))


def format_class(a: ClassVector) -> str:
    parts: list[str] = []
    for coeff, name in ((a.p, "B"), (a.q, "F"), (a.r[0], "E")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
    return "".join(parts) if parts else "0"

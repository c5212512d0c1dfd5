"""Negative curve classes present at a cone point and the stratum labels.

For a valid class u of the one-point blow-up the negative-square classes with
embedded representatives come from four families:

    E, F-E          square -1, genus 0, codimension 0 (present everywhere),
    B-kF  (k >= 1)  square -2k,   genus g, codimension 2(2k-1+g),
    B-kF-E (k >= 0) square -2k-1, genus g, codimension 2(2k+g),

restricted to positive u-area.  A stratum label is an admissible subset
(pairwise non-negative intersections); its codimension is the sum of member
codimensions.  E and F-E exist for every compatible structure, so they are
implicit members of every label and the display name shows only the
positive-codimension core ("open" for the empty core).

Distinct positive-codimension family classes pair negatively, as
(B-kF).(B-jF) = (B-kF).(B-jF-E) = -(k+j) and (B-kF-E).(B-jF-E) = -(k+j+1),
and each pairs non-negatively with E and F-E, so a core is empty or one
class.  The halves 2k-1+g and 2j+g of the codimensions have opposite parity,
so labels never tie.  Which family classes have positive area is fixed by
the chamber (`ChamberId.section_classes`), so labels are a property of the
chamber: `chamber_labels`.

`wide_negative_classes` is the safety net: it scans all bounded (p, q, r)
under principled arithmetic filters and marks anything outside the four
families instead of silently dropping it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cone import ChamberId, NormalizedClass, area, chamber_of, require_valid
from .lattice import (E, F, ClassVector, SurfaceParams, adjunction_genus,
                      codim, pair)

UBIQUITOUS = (E, F - E)


@dataclass(frozen=True, order=True)
class StratumLabel:
    """An admissible set of negative classes, shown by its positive-codim core."""

    codim: int
    core: tuple[ClassVector, ...]

    @property
    def name(self) -> str:
        if not self.core:
            return "open"
        return " + ".join(str(a) for a in self.core)

    @property
    def is_open(self) -> bool:
        return not self.core

    def classes(self) -> tuple[ClassVector, ...]:
        """Full label: the core plus the ubiquitous codim-0 classes."""
        return self.core + UBIQUITOUS

    def as_json(self) -> dict:
        return {"core": [str(a) for a in self.core], "codim": self.codim}


OPEN_LABEL = StratumLabel(0, ())


def negative_classes(u: NormalizedClass, params: SurfaceParams,
                     cod_max: int | None = None) -> list[ClassVector]:
    """All family classes of positive u-area (and codim <= cod_max), sorted
    by (codim, k)."""
    found = [(0, 0, E), (0, 1, F - E)]
    found += [(codim(a, params), -a.q, a)
              for a in chamber_of(u).section_classes()]
    return [a for cod, _, a in sorted(found, key=lambda f: f[:2])
            if cod_max is None or cod <= cod_max]


def is_admissible(classes) -> bool:
    """True iff all distinct pairs intersect non-negatively."""
    classes = list(classes)
    return all(pair(a, b) >= 0 for a, b in itertools.combinations(classes, 2))


def cod_of_set(classes, params: SurfaceParams) -> int:
    """Total codimension of an admissible set (codim-0 members contribute 0)."""
    classes = list(classes)
    if not is_admissible(classes):
        raise ValueError("set is not admissible: some pair intersects negatively")
    return sum(codim(a, params) for a in classes)


def chamber_labels(cid: ChamberId, params: SurfaceParams,
                   cod_max: int | None = None) -> list[StratumLabel]:
    """All labels present on the chamber, sorted by codimension: the open
    label and one singleton core per positive-codimension section class (see
    the module docstring for why no larger core is admissible)."""
    return [OPEN_LABEL] + [
        StratumLabel(cod, (a,)) for a in cid.section_classes()
        if 0 < (cod := codim(a, params)) and (cod_max is None or cod <= cod_max)]


def stratum_labels(u: NormalizedClass, params: SurfaceParams,
                   cod_max: int | None = None) -> list[StratumLabel]:
    """All labels present at the valid class u: those of its chamber."""
    return chamber_labels(chamber_of(u), params, cod_max)


def label_for(core_classes, params: SurfaceParams) -> StratumLabel:
    """Build a label from its core classes, validating admissibility."""
    core = tuple(sorted(set(core_classes)))
    for a in core:
        if codim(a, params) <= 0:
            raise ValueError(f"{a} has codimension 0; it is implicit in every label")
        if pair(a, a) >= 0:
            raise ValueError(f"{a} has non-negative square")
    total = cod_of_set(core, params)
    return StratumLabel(total, core)


IN_FAMILIES = "family"
OUTSIDE_FAMILIES = "outside-families"


def wide_negative_classes(u: NormalizedClass, params: SurfaceParams,
                          bound: int) -> list[tuple[ClassVector, str]]:
    """Safety-net scan over all |p|,|q|,|r| <= bound.

    Filters: negative square, positive u-area, adjunction genus defined,
    non-negative pairing with each of F, E, F-E (an embedded connected curve
    distinct from them meets them non-negatively), and for multisections the
    covering bound g(A) >= p(g-1) + 1.  Classes passing the filters but lying
    outside the four families are tagged OUTSIDE_FAMILIES, not dropped:
    whether they actually occur is not settled arithmetic.
    """
    require_valid(u)
    out: list[tuple[ClassVector, str]] = []
    for p, q, r in itertools.product(range(-bound, bound + 1), repeat=3):
        a = ClassVector(p, q, (r,))
        if a.is_zero() or pair(a, a) >= 0 or area(u, a) <= 0:
            continue
        genus = adjunction_genus(a, params)
        if genus is None:
            continue
        if any(pair(a, c) < 0 for c in (F, E, F - E) if a != c):
            continue
        if p >= 1 and genus < p * (params.g - 1) + 1:
            continue
        families = (a in (E, F - E)
                    or (p == 1 and r == 0 and q <= -1)
                    or (p == 1 and r == -1 and q <= 0))
        out.append((a, IN_FAMILIES if families else OUTSIDE_FAMILIES))
    out.sort(key=lambda t: (t[0].p, t[0].q, t[0].r))
    return out

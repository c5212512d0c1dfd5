"""Negative curve classes present at a cone point and the stratum labels.

For a valid class u of the one-point blow-up the negative-square classes with
embedded representatives come from four families:

    E, F-E          square -1, genus 0, codimension 0 (present everywhere),
    B-kF  (k >= 1)  square -2k,   genus g, codimension 2(2k-1+g),
    B-kF-E (k >= 0) square -2k-1, genus g, codimension 2(2k+g),

restricted to positive u-area.  E and F-E exist for every compatible
structure, so they are implicit in every label.  Distinct embedded curves
meet non-negatively, and distinct positive-codimension family classes pair
negatively, as (B-kF).(B-jF) = (B-kF).(B-jF-E) = -(k+j) and
(B-kF-E).(B-jF-E) = -(k+j+1), so no structure carries two of them: a
stratum label is the open label or one positive-codimension class, named by
that class and carrying its codimension.  `StratumLabel` refuses any larger
core, and `label_for` any class outside the B-kF and B-kF-E families.  Each
such class pairs non-negatively with E and F-E.

In the order B-E, B-F, B-F-E, B-2F, ... the i-th section class (from 0)
has codimension exactly 2(g + i), so labels never tie.  Chamber n carries
the first n of them (`ChamberId.section_classes`), so labels are a property
of the chamber, and since codimension grows with i, the labels of a chamber
up to any codimension bound are a prefix of one sequence per genus:
`chamber_labels` slices its first _MEMO_INDEX labels, kept whole for the
_MEMO_INDEX genera used last, and builds longer prefixes per call, so
neither a large chamber index nor many genera pin memory.  `lattice.codim`
(adjunction) is the definition; the tests check the closed form against it.

`wide_negative_classes` is the safety net: it scans all bounded (p, q, r)
for classes of negative square, positive u-area and a defined adjunction
genus that meet the multisection covering bound, and marks anything
outside the four families instead of silently dropping it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .cone import (_MEMO_INDEX, ChamberId, NormalizedClass, area, chamber_of,
                   require_valid)
from .lattice import (E, F, ClassVector, SurfaceParams, adjunction_genus,
                      codim, pair)

UBIQUITOUS = (E, F - E)


@dataclass(frozen=True, order=True)
class StratumLabel:
    """The open label (empty core) or one positive-codimension class."""

    codim: int
    core: tuple[ClassVector, ...]

    def __post_init__(self):
        if len(self.core) > 1:
            raise ValueError(
                "a stratum label has at most one core class, got "
                + ", ".join(str(a) for a in self.core))
        # whether the label is the open one, and the test of its core's area
        # (p, q, r, floor): plain attributes outside the fields, as the
        # planner reads them on every call.  At an integer state (b, f, e, d)
        # d times the core's area is p b + q f + r e, which must exceed
        # floor; the open label has no core and tests 0 > -1.
        core = self.core[0] if self.core else None
        object.__setattr__(self, "is_open", core is None)
        object.__setattr__(self, "core_test",
                           (core.p, core.q, core.r[0], 0) if core is not None
                           else (0, 0, 0, -1))

    @property
    def name(self) -> str:
        return str(self.core[0]) if self.core else "open"

    def classes(self) -> tuple[ClassVector, ...]:
        """Full label: the core plus the ubiquitous codim-0 classes."""
        return self.core + UBIQUITOUS

    def as_json(self) -> dict:
        return {"core": [str(a) for a in self.core], "codim": self.codim}


OPEN_LABEL = StratumLabel(0, ())


def _section_codim(g: int, i: int) -> int:
    """Codimension of section class i of B-E, B-F, B-F-E, B-2F, ..."""
    return 2 * (g + i)


def negative_classes(u: NormalizedClass, params: SurfaceParams,
                     cod_max: int | None = None) -> list[ClassVector]:
    """All family classes of positive u-area (and codim <= cod_max), sorted
    by (codim, k)."""
    found = [(0, 0, E), (0, 1, F - E)]
    found += [(_section_codim(params.g, i), -a.q, a)
              for i, a in enumerate(chamber_of(u).section_classes())]
    return [a for cod, _, a in sorted(found, key=lambda f: f[:2])
            if cod_max is None or cod <= cod_max]


def _section_labels(g: int, lo: int, hi: int) -> list[StratumLabel]:
    """The labels of section classes lo, ..., hi - 1 at genus g, hi >= 1."""
    classes = ChamberId(hi).section_classes()
    return [StratumLabel(_section_codim(g, i), (classes[i],))
            for i in range(lo, hi)]


@functools.lru_cache(maxsize=_MEMO_INDEX)
def _memo_labels(g: int) -> tuple[StratumLabel, ...]:
    """The labels of section classes 0, ..., _MEMO_INDEX - 1 at genus g,
    the ones classify and the verifier read."""
    return tuple(_section_labels(g, 0, _MEMO_INDEX))


def chamber_labels(cid: ChamberId, params: SurfaceParams,
                   cod_max: int | None = None) -> list[StratumLabel]:
    """All labels present on the chamber, sorted by codimension: the open
    label and one per positive-codimension section class."""
    g = params.g
    stop = cid.index
    if cod_max is not None:  # 2(g + i) <= cod_max
        stop = max(0, min(stop, cod_max // 2 - g + 1))
    start = 1 if g == 0 else 0  # at g = 0, B-E has codimension 0
    if stop <= _MEMO_INDEX:
        return [OPEN_LABEL, *_memo_labels(g)[start:stop]]
    return [OPEN_LABEL, *_section_labels(g, start, stop)]


def stratum_labels(u: NormalizedClass, params: SurfaceParams,
                   cod_max: int | None = None) -> list[StratumLabel]:
    """All labels present at the valid class u: those of its chamber."""
    return chamber_labels(chamber_of(u), params, cod_max)


def _section_family(a: ClassVector) -> bool:
    """Whether a is B-kF (k >= 1) or B-kF-E (k >= 0)."""
    return a.p == 1 and (a.r == (0,) and a.q <= -1
                         or a.r == (-1,) and a.q <= 0)


def label_for(a: ClassVector, params: SurfaceParams) -> StratumLabel:
    """The label of the family class a of positive codimension."""
    cod = codim(a, params)
    if cod <= 0:
        why = ("it is implicit in every label" if a in UBIQUITOUS
               else "only positive-codimension classes label strata")
        raise ValueError(f"{a} has codimension {cod}; {why}")
    if pair(a, a) >= 0:
        raise ValueError(f"{a} has non-negative square")
    if not _section_family(a):
        raise ValueError(f"{a} is not B-kF (k >= 1) or B-kF-E (k >= 0);"
                         " only these families label strata")
    return StratumLabel(cod, (a,))


IN_FAMILIES = "family"
OUTSIDE_FAMILIES = "outside-families"


def wide_negative_classes(u: NormalizedClass, params: SurfaceParams,
                          bound: int) -> list[tuple[ClassVector, str]]:
    """Safety-net scan over all |p|,|q|,|r| <= bound.

    Filters: negative square, positive u-area, adjunction genus defined, and
    for multisections the covering bound g(A) >= p(g-1) + 1; together they
    imply that A meets each of F, E and F-E other than A non-negatively.
    Classes passing the filters but lying outside the four families are
    tagged OUTSIDE_FAMILIES, not dropped: whether they actually occur is not
    settled arithmetic.
    """
    require_valid(u)
    out: list[tuple[ClassVector, str]] = []
    for p, q, r in itertools.product(range(-bound, bound + 1), repeat=3):
        a = ClassVector(p, q, (r,))
        if pair(a, a) >= 0 or area(u, a) <= 0:
            continue
        genus = adjunction_genus(a, params)
        if genus is None:
            continue
        if p >= 1 and genus < p * (params.g - 1) + 1:
            continue
        families = a in UBIQUITOUS or _section_family(a)
        out.append((a, IN_FAMILIES if families else OUTSIDE_FAMILIES))
    out.sort(key=lambda t: (t[0].p, t[0].q, t[0].r))
    return out

"""The normalized symplectic cone of the one-point blow-up and its chambers.

A normalized class is u = (mu, 1, c): the areas of B, F and the exceptional
sphere E, with the fiber area scaled to 1.  Valid classes satisfy

    mu >= 1,  0 < c < 1,  c < mu.

The region mu < 1 is excluded outright: it is bounded by the Gromov width of
the minimal surface, which is unknown in general and not representable by
linear inequalities.  Of the walls B-kF and B-kF-E only B-E (k = 0) passes
through it, along mu = c; B-E has positive area on the whole cone, so
`active_walls` takes k >= 1.

The cone is partitioned into half-open chambers indexed by the walls the
class sits between:

    chamber 2k:    k < mu <= k + c        (between walls B-kF and B-kF-E)
    chamber 2k+1:  k + c < mu <= k + 1    (between walls B-kF-E and B-(k+1)F)

A point on a wall belongs to the chamber on its left: the inequality signs
are strict on the left condition and non-strict on the right, matching the
half-open intervals of the minimal case.

Validity and the chamber are one integer closed form, `chamber_index`, on
(m, n, d) with mu = m/d and c = n/d, which places the planner's states too.
A point computes both when it is built, so the planner's per-call
preconditions cost a read; an invalid point still constructs, has no
chamber, and `chamber_of` raises the same ValueError on every call.  Points
share one `ChamberId` per chamber, and `active_walls` one `Wall` per wall,
below a fixed index bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import B, E, F, ClassVector
from .rationals import exact_rational, format_rational

_Q = Fraction


@dataclass(frozen=True, init=False)
class NormalizedClass:
    """Areas (mu, 1, c) of B, F, E as exact rationals.

    Instances are plain data; they may violate the cone constraints (so that
    `is_valid` can report on them).  Use `validity_violations` to check.

    Construction takes mu and c as Fractions, ints or "p/q" strings (a float
    raises ValueError) and builds, outside the fields (==, hash, repr ignore
    them, pickle keeps them): `ints`, (m, n, d) with mu = m/d, c = n/d and d
    the lcm of the two denominators; and `_chamber`, the shared `ChamberId`
    of a valid point (None otherwise), from one `chamber_index` call.  The
    violation texts are built only when an invalid point is asked for them.
    """

    mu: Fraction
    c: Fraction

    def __init__(self, mu, c) -> None:
        if not isinstance(mu, Fraction):
            mu = exact_rational(mu)
        if not isinstance(c, Fraction):
            c = exact_rational(c)
        m, dm = mu.as_integer_ratio()
        n, d = c.as_integer_ratio()
        if dm != d:
            lcm = math.lcm(dm, d)
            m, n, d = m * (lcm // dm), n * (lcm // d), lcm
        # written once each, straight into the instance dict, which the
        # frozen __setattr__ leaves alone
        attrs = self.__dict__
        attrs["mu"] = mu
        attrs["c"] = c
        attrs["ints"] = (m, n, d)
        index = chamber_index(m, n, d)
        attrs["_chamber"] = (_CHAMBERS[index] if index < _MEMO_INDEX
                             else ChamberId(index))

    def __str__(self) -> str:
        return f"({format_rational(self.mu)}, {format_rational(self.c)})"


def normalized(mu, c) -> NormalizedClass:
    """Convenience constructor from (mu, c); NormalizedClass converts them."""
    return NormalizedClass(mu, c)


def area(u: NormalizedClass, a: ClassVector) -> Fraction:
    """Symplectic area p*mu + q + r*c of the class a, linear in both."""
    return a.p * u.mu + a.q + a.r[0] * u.c


def validity_violations(u: NormalizedClass) -> list[str]:
    """Violated cone constraints, mu >= 1 among them; empty when u is a
    valid normalized class.  The texts are built only for an invalid u."""
    bad: list[str] = []
    if u._chamber is not None:
        return bad
    m, n, d = u.ints
    if m <= 0:
        bad.append(f"mu > 0 violated (mu = {format_rational(u.mu)})")
    if not 0 < n < d:
        bad.append(f"0 < e_1 < 1 violated (e_1 = {format_rational(u.c)})")
    if n >= m:
        bad.append(f"e_1 < mu violated (e_1 = {format_rational(u.c)},"
                   f" mu = {format_rational(u.mu)})")
    if m < d:
        bad.append(f"mu >= 1 policy violated (mu = {format_rational(u.mu)});"
                   " the leftmost chamber is out of scope")
    return bad


def is_valid(u: NormalizedClass) -> bool:
    return u._chamber is not None


def require_valid(u: NormalizedClass) -> None:
    if u._chamber is None:
        raise ValueError("invalid normalized class: "
                         + "; ".join(validity_violations(u)))


@dataclass(frozen=True, init=False)
class ChamberId:
    """Region number of the chamber decomposition (index >= 1)."""

    index: int

    def __init__(self, index: int) -> None:
        if index < 1:
            raise ValueError(f"chamber index must be >= 1, got {index}")
        self.__dict__["index"] = index

    @property
    def k(self) -> int:
        return self.index // 2

    @property
    def is_even(self) -> bool:
        return self.index % 2 == 0

    def section_classes(self) -> list[ClassVector]:
        """The classes B-jF (j >= 1) and B-jF-E (j >= 0) of positive area on
        the chamber, by codimension: B-jF for j <= k, and B-jF-E for j < k on
        chamber 2k (mu - c in (k-1, k]) or j <= k on 2k+1 (mu - c in
        (k, k+1-c]); that is, the first `index` of B-E, B-F, B-F-E, B-2F..."""
        return [B - (i + 1) // 2 * F - (1 - i % 2) * E
                for i in range(self.index)]

    def inequalities(self) -> list[str]:
        k = self.k
        if self.is_even:
            return [f"mu > {k}", f"mu <= {k} + c"]
        return [f"mu > {k} + c", f"mu <= {k + 1}"]


# Points share the ChamberId of each index below _MEMO_INDEX (None at 0, the
# chamber of no point), and `active_walls` the Wall of each B-kF and B-kF-E
# with k below half of it, the walls of those chambers; larger ones are
# built per point.
_MEMO_INDEX = 64
_CHAMBERS = (None, *(ChamberId(i) for i in range(1, _MEMO_INDEX)))


def chamber_of(u: NormalizedClass) -> ChamberId:
    """Chamber of a valid class: index 2k on k < mu <= k+c, 2k+1 on k+c < mu <= k+1."""
    cid = u._chamber
    if cid is None:  # an invalid point: raise its validity error
        require_valid(u)
    return cid


def chamber_index(m: int, n: int, d: int) -> int:
    """Chamber index of the point (mu, c) = (m/d, n/d), and 0 unless it
    lies in the cone, 0 < n < d <= m (mu > 0 and c < mu follow): the one
    closed form of validity and of the chamber, for a point's (m, n, d) and
    for the planner's states (b, f, e, d) as (b, e, f)."""
    if not 0 < n < d <= m:
        return 0
    k = -(-m // d) - 1  # ceil(mu) - 1, the unique integer with k < mu <= k+1
    return 2 * k if m <= k * d + n else 2 * k + 1


@dataclass(frozen=True)
class Wall:
    """The locus area(u, curve_class) = 0 inside the cone."""

    curve_class: ClassVector

    @property
    def name(self) -> str:
        return str(self.curve_class)


def active_walls(u: NormalizedClass) -> list[Wall]:
    """Walls through a valid u: classes B-kF, B-kF-E (k >= 1) of zero area;
    at most one, since 0 < c < 1.

    The boundary classes E and F-E never qualify: the cone constraints give
    them positive area.
    """
    if u._chamber is None:  # an invalid point: raise its validity error
        require_valid(u)
    m, n, d = u.ints
    # mu = k + rest/d lies on B-kF when rest = 0 and on B-kF-E when rest = n;
    # 0 < n < d makes these exclusive, and k >= 1 as mu >= 1
    k, rest = divmod(m, d)
    if rest not in (0, n):
        return []
    slanted = rest != 0
    return [_WALLS.get((k, slanted)) or _wall(k, slanted)]


def _wall(k: int, slanted: bool) -> Wall:
    """The wall of B-kF-E if slanted, else of B-kF."""
    return Wall(ClassVector(1, -k, (-1,) if slanted else (0,)))


_WALLS = {(k, slanted): _wall(k, slanted)
          for k in range(1, _MEMO_INDEX // 2) for slanted in (False, True)}


# -- figure model ------------------------------------------------------------


@dataclass(frozen=True)
class WallSegment:
    """A wall drawn as a segment in the (mu, c) strip."""

    curve_class: ClassVector
    start: tuple[Fraction, Fraction]
    end: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class RegionLabel:
    chamber: ChamberId
    position: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class FigureModel:
    """Walls, cone boundaries and chamber labels of the cone picture.

    Coordinates are (mu, c).  Vertical walls mu = k carry B-kF, slanted
    walls from (k, 0) to (k+1, 1) carry B-kF-E, and the horizontal
    boundaries c = 0, c = 1 carry E and F-E.
    """

    mu_max: Fraction
    walls: tuple[WallSegment, ...]
    boundaries: tuple[WallSegment, ...]
    labels: tuple[RegionLabel, ...]

    def to_csv(self) -> str:
        lines = ["wall_class,x1,y1,x2,y2"]
        for seg in self.walls + self.boundaries:
            coords = (*seg.start, *seg.end)
            lines.append(str(seg.curve_class) + ","
                         + ",".join(format_rational(x) for x in coords))
        return "\n".join(lines) + "\n"

    def to_svg(self, scale: int = 100) -> str:
        """Deterministic SVG: x = mu * scale, y = (1 - c) * scale."""

        def pt(p: tuple[Fraction, Fraction]) -> tuple[float, float]:
            return (float(p[0] * scale), float((1 - p[1]) * scale))

        width = float(self.mu_max * scale)
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
            f'height="{scale}" viewBox="0 0 {width:.2f} {scale}">',
        ]
        for seg in self.boundaries:
            (x1, y1), (x2, y2) = pt(seg.start), pt(seg.end)
            out.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                       'stroke="#888888" stroke-dasharray="4 3" stroke-width="1"/>')
            lx, ly = pt(seg.start)
            out.append(f'<text x="{lx + 4:.3f}" y="{ly - 4:.3f}" font-size="10" '
                       f'fill="#888888">{seg.curve_class}</text>')
        for seg in self.walls:
            (x1, y1), (x2, y2) = pt(seg.start), pt(seg.end)
            out.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                       'stroke="#000000" stroke-width="1"/>')
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            out.append(f'<text x="{mx + 3:.3f}" y="{my:.3f}" font-size="10" '
                       f'fill="#000000">{seg.curve_class}</text>')
        for label in self.labels:
            x, y = pt(label.position)
            out.append(f'<text x="{x:.3f}" y="{y:.3f}" font-size="12" '
                       f'fill="#3030a0" text-anchor="middle">{label.chamber.index}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def figure_data(mu_max) -> FigureModel:
    """Wall segments and chamber labels for the strip 1 <= mu <= mu_max.

    Walls are emitted up to the window's right end: verticals mu = k for
    1 <= k < mu_max, slants (k,0)-(k+1,1) for 0 <= k, k+1 < mu_max; so B-E,
    (0,0)-(1,1), is drawn although it meets the window only at (1, 1).
    """
    mu_max = exact_rational(mu_max)
    if mu_max <= 1:
        raise ValueError("mu_max must exceed 1")

    walls = [WallSegment(B - k * F, (_Q(k), _Q(0)), (_Q(k), _Q(1)))
             for k in range(1, math.ceil(mu_max))]
    walls += [WallSegment(B - k * F - E, (_Q(k), _Q(0)), (_Q(k + 1), _Q(1)))
              for k in range(0, math.ceil(mu_max) - 1)]

    boundaries = (
        WallSegment(E, (_Q(1), _Q(0)), (mu_max, _Q(0))),
        WallSegment(F - E, (_Q(1), _Q(1)), (mu_max, _Q(1))),
    )

    # One label per region meeting the window, at the centroid of the region
    # clipped to mu <= mu_max.  Chamber 1 meets the window only in the
    # segment mu = 1.
    labels = [RegionLabel(ChamberId(1), (_Q(1), _Q(1, 2)))]
    for k in range(1, math.ceil(mu_max)):
        lo, hi = _Q(k), min(_Q(k + 1), mu_max)
        even_region = [(lo, _Q(0)), (hi, hi - k), (hi, _Q(1)), (lo, _Q(1))]
        labels.append(RegionLabel(ChamberId(2 * k), _polygon_centroid(even_region)))
        odd_region = [(lo, _Q(0)), (hi, _Q(0)), (hi, hi - k)]
        labels.append(RegionLabel(ChamberId(2 * k + 1), _polygon_centroid(odd_region)))

    return FigureModel(mu_max=mu_max, walls=tuple(walls),
                       boundaries=tuple(boundaries), labels=tuple(labels))


def _polygon_centroid(pts: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact centroid of a simple polygon of positive area given by its
    vertices in order."""
    twice_area = _Q(0)
    cx = cy = _Q(0)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        cross = x1 * y2 - x2 * y1
        twice_area += cross
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
    return (cx / (3 * twice_area), cy / (3 * twice_area))

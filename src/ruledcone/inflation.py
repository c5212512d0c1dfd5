"""Inflation as exact cohomology arithmetic.

Inflating a form of class u along a curve class Z adds t * PD(Z) for
t in [0, T), where T is infinite when Z.Z >= 0 and equals
area(u, Z) / (-Z.Z) when Z.Z < 0.  On the area vector of B, F and the one
exceptional class E the increment per unit t is (Z.B, Z.F, Z.E): pure linear
algebra over the rationals.

Steps chain on *unnormalized* area vectors: folding `apply_step` from a
start point and normalizing once at the end replays a sequence of steps.
This `Fraction` form serves the `inflate` command and the tests'
independent replay of plans; the planner certifies and replays its plans
on its own integer walk.  The upper bound T is strict: at t = T the area
of Z itself would reach zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cone import NormalizedClass
from .lattice import B, E, F, ClassVector, pair
from .rationals import exact_rational as _Q
from .rationals import format_rational


@dataclass(frozen=True)
class RawClass:
    """An unnormalized area vector (areas of B, F, E)."""

    b_area: Fraction
    f_area: Fraction
    e_area: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_area", _Q(self.b_area))
        object.__setattr__(self, "f_area", _Q(self.f_area))
        object.__setattr__(self, "e_area", _Q(self.e_area))

    def __str__(self) -> str:
        coords = ", ".join(format_rational(x)
                           for x in (self.b_area, self.f_area, self.e_area))
        return f"[{coords}]"


@dataclass(frozen=True)
class InflationStep:
    """Inflate along z with parameter t >= 0.

    `assumption` tags the curve-existence hypothesis the step leans on:
    "always" (F, E, F-E exist for every compatible structure), "open"
    (a section B+xF, x <= g, exists on the open stratum), or "stratum"
    (the labeling class of the stratum exists by definition).
    """

    z: ClassVector
    t: Fraction
    assumption: str | None = None

    def __post_init__(self) -> None:
        # the planner passes Fractions; ints and "p/q" strings are converted,
        # and a float is refused
        if not isinstance(self.t, Fraction):
            object.__setattr__(self, "t", _Q(self.t))
        if self.t.numerator < 0:
            raise ValueError(f"inflation parameter must be >= 0, got {self.t}")

    def as_json(self) -> dict:
        d = {"z": str(self.z), "t": format_rational(self.t)}
        if self.assumption is not None:
            d["assumption"] = self.assumption
        return d


def pd_area_vector(z: ClassVector) -> RawClass:
    """Areas gained per unit t: (z.B, z.F, z.E)."""
    return RawClass(pair(z, B), pair(z, F), pair(z, E))


def raw_from(u: NormalizedClass) -> RawClass:
    return RawClass(u.mu, 1, u.c)


def area_raw(raw: RawClass, a: ClassVector) -> Fraction:
    return a.p * raw.b_area + a.q * raw.f_area + a.r[0] * raw.e_area


def t_range_raw(raw: RawClass, z: ClassVector) -> Fraction | None:
    """Upper bound T of the valid interval [0, T); None means unbounded."""
    zz = pair(z, z)
    a = area_raw(raw, z)
    if a <= 0:
        raise ValueError(f"{z} has non-positive area {format_rational(a)};"
                         " it is not symplectic here, cannot inflate")
    if zz >= 0:
        return None
    return a / (-zz)


def t_range(u: NormalizedClass, z: ClassVector) -> Fraction | None:
    """T for inflating the normalized class u along z."""
    return t_range_raw(raw_from(u), z)


def check_step(raw: RawClass, step: InflationStep) -> None:
    """Raise unless step.t lies in [0, T) at this point."""
    bound = t_range_raw(raw, step.z)
    if bound is not None and step.t >= bound:
        raise ValueError(
            f"t = {format_rational(step.t)} outside [0, {format_rational(bound)})"
            f" for inflation along {step.z}")


def apply_step(raw: RawClass, step: InflationStep) -> RawClass:
    """Add t * PD(z) componentwise.  Range is not checked here."""
    inc = pd_area_vector(step.z)
    t = step.t
    return RawClass(
        raw.b_area + t * inc.b_area,
        raw.f_area + t * inc.f_area,
        raw.e_area + t * inc.e_area,
    )


def inflate(u: NormalizedClass, step: InflationStep) -> RawClass:
    """Inflate a normalized class one step, enforcing t in [0, T)."""
    raw = raw_from(u)
    check_step(raw, step)
    return apply_step(raw, step)


def normalize(raw: RawClass) -> NormalizedClass:
    """Scale so the fiber area is 1 again."""
    if raw.f_area <= 0:
        raise ValueError(f"fiber area must be positive to normalize, got"
                         f" {format_rational(raw.f_area)}")
    return NormalizedClass(raw.b_area / raw.f_area, raw.e_area / raw.f_area)

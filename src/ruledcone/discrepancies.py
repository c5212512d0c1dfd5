"""Arithmetic slips in the published recipes, re-derived and detected.

Samples are replayed with the `Fraction` engine of `inflation`
(`raw_from`, `apply_step`, `normalize`), independently of the planner's
integer walk.
"""

from __future__ import annotations

from fractions import Fraction

from .cone import normalized
from .gromov import virtual_dim_k
from .inflation import (InflationStep, apply_step, normalize, pd_area_vector,
                        raw_from)
from .lattice import B, E, F, SurfaceParams

_Q = Fraction


def _raise_end(mu: Fraction, c: Fraction, x: int, t1: Fraction,
               t2: Fraction):
    """The normalized end of t1 along B + xF, then t2 along F - E, from
    (mu, c)."""
    raw = apply_step(raw_from(normalized(mu, c)), InflationStep(B + x * F, t1))
    return normalize(apply_step(raw, InflationStep(F - E, t2)))


def detected_discrepancies() -> list[dict]:
    """The arithmetic slips in the published recipes, re-derived, not transcribed.

    Each record carries the stated expression, the recomputed one, and a
    `detected` flag set by actually evaluating both sides on sample data, so
    a silent transcription of the slip into this library would flip the flag
    and fail the build.
    """
    items = []

    # 1. Fixed-mu transport on the open stratum: the displayed increment sum
    # swaps the roles of the two parameters, and the displayed solutions
    # solve that swapped system.  Replaying them misses the target.
    sample = []
    for mu, x, c1, c2 in [(_Q(3), 1, _Q(1, 4), _Q(1, 2)),
                          (_Q(4), 2, _Q(1, 3), _Q(2, 3)),
                          (_Q(5), 0, _Q(1, 5), _Q(4, 5))]:
        t2_stated = (c2 - c1) / (1 - c2)
        t1_stated = (mu - x) * t2_stated
        t1 = (c2 - c1) / (mu - x - c2)
        t2 = (mu - x) * t1
        target = normalized(mu, c2)
        sample.append(_raise_end(mu, c1, x, t1, t2) == target
                      and _raise_end(mu, c1, x, t1_stated, t2_stated) != target)
    items.append({
        "id": "vertical-transport-solutions",
        "context": "fixed-mu transport raising the blow-up area (open stratum,"
                   " classes B+xF and F-E; same slip in the B-kF case, whose"
                   " stated blow-up-area condition carries a spurious t1 term"
                   " although B-kF pairs trivially with E)",
        "stated": "t1 = (mu-x)*t2 with (1-c2)*t2 = c2-c1",
        "recomputed": "t1 = (c2-c1)/(mu-x-c2), t2 = (mu-x)*t1;"
                      " positive solutions need mu > x + c2",
        "detected": all(sample),
    })

    # 2. Leftward inflation family along B-kF-E: the displayed family has +t
    # in the base slot, but PD(B-kF-E) contributes -k there.  The displayed
    # family is the combination with (k+1)t fibers, for which the closed
    # form t = (mu-mu')/(mu'-1) is exact.
    slots_differ = all(
        pd_area_vector(B - k * F - E).b_area == -k != 1 for k in range(1, 5))
    items.append({
        "id": "left-inflation-family",
        "context": "leftward inflation along B-kF-E (and B-kF, same slip)",
        "stated": "family (mu+t, 1+t, c1+t) for t*PD(B-kF-E)",
        "recomputed": "t*PD(B-kF-E) adds (-k, 1, 1) per unit t; the stated"
                      " family is the combination with (k+1)t fibers, under"
                      " which t = (mu-mu')/(mu'-1) is exact (a single-class"
                      " parameter would solve to (mu-mu')/(mu'+k))",
        "detected": slots_differ,
    })

    # 3. Virtual dimension of B+gF: the stated inline evaluation collapses to
    # the constant 2; the adjunction-consistent canonical class gives g+1.
    diffs = [virtual_dim_k(B + g * F, SurfaceParams(g)) for g in range(1, 5)]
    items.append({
        "id": "section-virtual-dimension",
        "context": "existence of a section on the open stratum via the"
                   " curve count of B+gF",
        "stated": "k(B+gF) = 2g+2-2g = 2",
        "recomputed": "k(B+gF) = (-K.(B+gF) + (B+gF).(B+gF))/2 = g+1 with"
                      " K = -2B+(2g-2)F+E (the two agree only at g = 1);"
                      " still >= 0, so the curve count stays valid",
        "detected": diffs == [_Q(g + 1) for g in range(1, 5)] and
                    any(d != 2 for d in diffs),
    })
    return items

"""Seeded inputs and independent output checks for the three workloads.

Nothing here imports ruledcone: every expected value is recomputed from the
mathematics in plain `Fraction` and integer code, so a check can never agree
with the program merely because it reuses the program's own replay.

A class p*B + q*F + r*E is held as the integer triple (p, q, r).  The
intersection form is B.F = 1, B.B = F.F = 0, E.E = -1, so

    (pB+qF+rE).(p'B+q'F+r'E) = pq' + qp' - rr',
    area of (p, q, r) at areas (b, f, e) of (B, F, E) = pb + qf + re,
    inflating by t along (p, q, r) adds t * (q, p, -r) to (b, f, e).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

E = (0, 0, 1)
F = (0, 1, 0)
FE = (0, 1, -1)

# -- class text ----------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d*)([BFE])")


def class_name(cls: tuple[int, int, int]) -> str:
    """Text form with +-1 coefficients and zero terms omitted: ``B-2F-E``."""
    parts: list[str] = []
    for coeff, sym in zip(cls, "BFE"):
        if coeff:
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            parts.append(f"{sign}{'' if mag == 1 else mag}{sym}")
    return "".join(parts) or "0"


def parse_class(text: str) -> tuple[int, int, int]:
    coeffs = {"B": 0, "F": 0, "E": 0}
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            break
        pos = m.end()
        mag = int(m.group(2)) if m.group(2) else 1
        coeffs[m.group(3)] += -mag if m.group(1) == "-" else mag
    if pos != len(text) or not text:
        raise ValueError(f"not a class: {text!r}")
    return coeffs["B"], coeffs["F"], coeffs["E"]


def rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- closed forms of criterion 1 and the stratum table ----------------------------


def chamber_index(mu: Fraction, c: Fraction) -> int:
    """Chamber by the integer inequality scan of acceptance criterion 1.

    With D the common denominator: 2k on Dk < D mu <= Dk + Dc, 2k+1 on
    Dk + Dc < D mu <= D(k+1).  Exactly one inequality pair holds.
    """
    d = math.lcm(mu.denominator, c.denominator)
    m, cc = int(mu * d), int(c * d)
    matches = []
    for k in range(0, math.ceil(mu) + 1):
        if d * k < m <= d * k + cc:
            matches.append(2 * k)
        if d * k + cc < m <= d * (k + 1):
            matches.append(2 * k + 1)
    if len(matches) != 1:
        raise ValueError(f"({mu}, {c}) lies in chambers {matches}")
    return matches[0]


def negative_classes(mu: Fraction, c: Fraction) -> list[tuple[int, int, int]]:
    """E, F-E, B-kF for 1 <= k < mu and B-kF-E for 0 <= k < mu - c."""
    out = [E, FE]
    out += [(1, -k, 0) for k in range(1, math.ceil(mu))]
    out += [(1, -k, -1) for k in range(0, math.ceil(mu - c))]
    return out


def codim(cls: tuple[int, int, int], g: int) -> int:
    """2(2k-1+g) for B-kF, 2(2k+g) for B-kF-E, 0 for E and F-E."""
    p, q, r = cls
    if p == 0:
        return 0
    return 2 * (-2 * q - 1 + g) if r == 0 else 2 * (-2 * q + g)


def stratum_labels(mu: Fraction, c: Fraction, g: int) -> list[tuple[int, str]]:
    """(codim, name) of every label at (mu, c): ``open`` plus one label per
    negative class of positive codimension, by increasing codimension."""
    cores = sorted((codim(a, g), class_name(a)) for a in negative_classes(mu, c)
                   if codim(a, g) > 0)
    return [(0, "open")] + cores


def active_walls(mu: Fraction, c: Fraction) -> list[tuple[int, int, int]]:
    """Walls through (mu, c): B-kF where mu = k, B-kF-E where mu = k + c."""
    walls = []
    for k in range(1, math.ceil(mu) + 2):
        if mu == k:
            walls.append((1, -k, 0))
        if mu == k + c:
            walls.append((1, -k, -1))
    return walls


def wide_family(mu: Fraction, c: Fraction, bound: int) -> list[tuple[int, int, int]]:
    """Family classes a bounded wide scan must report, in (p, q, r) order."""
    return sorted(a for a in negative_classes(mu, c)
                  if max(abs(x) for x in a) <= bound)


# -- grid-verify -------------------------------------------------------------------


def grid_chambers(g: int, mu_max: int, step: Fraction):
    """Points per chamber of the verifier grid, enumerated independently.

    Grid: mu = max(1, g) + i*step <= mu_max (i >= 1), c = j*step < 1 (j >= 1).
    Returns ({chamber: points}, cross-chamber pair count).
    """
    counts: dict[int, int] = {}
    mu = max(1, g) + step
    while mu <= mu_max:
        c = step
        while c < 1:
            if c < mu:
                index = chamber_index(mu, c)
                counts[index] = counts.get(index, 0) + 1
            c += step
        mu += step
    total = sum(counts.values())
    cross = total * (total - 1) // 2 - sum(n * (n - 1) // 2 for n in counts.values())
    return counts, cross


def chamber_sample(index: int) -> tuple[Fraction, Fraction]:
    """An interior point of a chamber (labels are constant on a chamber)."""
    k = index // 2
    if index % 2 == 0:
        return k + Fraction(1, 2), Fraction(3, 4)
    return k + Fraction(3, 4), Fraction(1, 4)


def grid_expected_ops(g: int, mu_max: int, step: Fraction) -> int:
    """Transport verdicts of one leg: sum over chambers of 2*C(points, 2)*labels."""
    counts, _ = grid_chambers(g, mu_max, step)
    return sum(n * (n - 1) * len(stratum_labels(*chamber_sample(i), g))
               for i, n in counts.items() if i >= 2 * g)


def check_grid(g: int, mu_max: int, step: Fraction, code: int, out: str,
               digest: str | None) -> str | None:
    """None when a verify-stability leg's output is right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if digest is None or hashlib.sha256(out.encode()).hexdigest() != digest:
        return "JSON bytes differ from the pinned digest"
    payload = json.loads(out)
    if payload["ok"] is not True:
        return "ok is not true"
    counts, cross = grid_chambers(g, mu_max, step)
    if payload["cross_chamber_pairs"] != cross:
        return "cross-chamber pair count differs"
    if payload["skipped_chambers"] != sorted(i for i in counts if i < 2 * g):
        return "skipped chambers differ"
    attempted = sorted(i for i in counts if i >= 2 * g)
    if [v["chamber"] for v in payload["chambers"]] != attempted:
        return "chamber list differs"
    for v in payload["chambers"]:
        n = counts[v["chamber"]]
        labels = [name for _, name in stratum_labels(*chamber_sample(v["chamber"]), g)]
        expect = n * (n - 1) * len(labels)
        if v["points"] != n or v["labels"] != labels:
            return f"chamber {v['chamber']}: points or labels differ"
        if not (v["checked"] == v["passed"] == expect and v["failed"] == 0
                and v["first_failure"] is None):
            return f"chamber {v['chamber']}: checked/passed is not {expect}"
    return None


# -- plan-serve --------------------------------------------------------------------

PLAN_DENOMINATORS = (4, 6, 8, 12, 16, 24, 32)


def _point_in_chamber(rng, index: int) -> tuple[Fraction, Fraction]:
    k, even = index // 2, index % 2 == 0
    d = rng.choice(PLAN_DENOMINATORS)
    while True:
        a, b = rng.randint(1, d), rng.randint(1, d - 1)
        if (a <= b) == even:  # even: mu <= k + c; odd: mu > k + c
            return k + Fraction(a, d), Fraction(b, d)


def plan_requests(rng):
    """Endless same-chamber plan requests (g, (mu1, c1), (mu2, c2), label).

    g is 1, 2 or 3; the chamber is one of 2g .. 2g+7, so mu lies in (g, g+4]
    as on the criterion-7 grids; the label is one present at the start point.
    """
    while True:
        g = rng.choice((1, 2, 3))
        index = rng.randrange(2 * g, 2 * g + 8)
        u1 = _point_in_chamber(rng, index)
        u2 = _point_in_chamber(rng, index)
        label = rng.choice(stratum_labels(*u1, g))[1]
        yield g, u1, u2, label


def plan_argv(request) -> list[str]:
    g, (mu1, c1), (mu2, c2), label = request
    return ["plan", "--from", f"{rational(mu1)},{rational(c1)}",
            "--to", f"{rational(mu2)},{rational(c2)}",
            "--g", str(g), "--label", label, "--json"]


def check_plan(request, code: int, out: str) -> str | None:
    """Re-apply every step of the plan JSON in plain Fraction code.

    Each t must lie in [0, area(z)/(-z.z)) (any t >= 0 when z.z >= 0, with
    area(z) > 0 always), each step's curve-existence assumption must fit its
    class, and the normalized endpoint must equal the requested one exactly.
    """
    g, (mu1, c1), (mu2, c2), label = request
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(out)
    if payload["label"] != label:
        return "label differs"
    if (Fraction(payload["start"]["mu"]), [Fraction(x) for x in payload["start"]["e"]]) \
            != (mu1, [c1]):
        return "start differs"
    if (Fraction(payload["end"]["mu"]), [Fraction(x) for x in payload["end"]["e"]]) \
            != (mu2, [c2]):
        return "claimed end differs from the request"
    core = None if label == "open" else parse_class(label)
    b, f, e = mu1, Fraction(1), c1
    for i, step in enumerate(payload["steps"], 1):
        z = parse_class(step["z"])
        t = Fraction(step["t"])
        p, q, r = z
        a = p * b + q * f + r * e
        zz = 2 * p * q - r * r
        if t < 0 or a <= 0 or (zz < 0 and t * -zz >= a):
            return f"step {i}: t = {step['t']} outside [0, area/(-z.z)) for {step['z']}"
        kind = step.get("assumption")
        if not ((kind == "always" and z in (E, F, FE))
                or (kind == "open" and core is None and p == 1 and r == 0
                    and 0 <= q <= g)
                or (kind == "stratum" and z == core)):
            return f"step {i}: assumption {kind!r} does not fit {step['z']}"
        b, f, e = b + t * q, f + t * p, e - t * r
    if f <= 0 or (b / f, e / f) != (mu2, c2):
        return "replayed endpoint differs from the request"
    return None


# -- classify ----------------------------------------------------------------------

WIDE_EVERY = 8
WIDE_BOUND = 3


def classify_points(rng):
    """Endless (g, mu, c): g in 0..4, mu in (1, 21], c = i/d with d <= 64.

    A quarter of the points sit on a vertical wall (mu = k) and a quarter on
    a slanted one (mu = k + c), so the half-open boundaries are exercised.
    """
    while True:
        g = rng.randrange(0, 5)
        d = rng.randint(2, 64)
        c = Fraction(rng.randint(1, d - 1), d)
        kind = rng.randrange(4)
        if kind == 0:
            mu = Fraction(rng.randint(2, 21))
        elif kind == 1:
            mu = rng.randint(1, 20) + c
        else:
            d2 = rng.randint(1, 64)
            mu = Fraction(rng.randint(d2 + 1, 21 * d2), d2)
        yield g, mu, c


def check_classify(point, chamber: int, walls, labels, wide) -> str | None:
    """Compare one classification with the closed forms.

    `walls` and the classes in `wide` are (p, q, r) triples, `labels` is a
    list of (codim, name), `wide` is None or a list of (class, status).
    """
    g, mu, c = point
    if chamber != chamber_index(mu, c):
        return f"chamber {chamber}, expected {chamber_index(mu, c)}"
    if list(walls) != active_walls(mu, c):
        return "active walls differ"
    if list(labels) != stratum_labels(mu, c, g):
        return "stratum labels differ"
    if wide is not None and sorted(a for a, s in wide if s == "family") \
            != wide_family(mu, c, WIDE_BOUND):
        return "wide scan family classes differ"
    return None

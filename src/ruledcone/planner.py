"""Exact inflation planning between normalized cone classes.

Every recipe is derived from the intersection pairing, never transcribed:
the published display of the transport recipes contains sign and role
slips (see `discrepancies.detected_discrepancies`), so the solver
recomputes each family from the area increments (Z.B, Z.F, Z.E) of PD(Z)
and the recipes' published conclusions are asserted as tests instead of
assumed.

Move catalogue (all parameters solved exactly, all steps certified):

  right     (F, t): areas (mu+t, 1, c); unbounded, stratum-blind.
  drop      (E, t): lowers the blow-up area at fixed mu; always available.
  vertical  raise the blow-up area at fixed normalized mu by combining the
            stratum's section-type class Z with F-E; solving
            u + t1 PD(Z) + t2 PD(F-E) for fixed mu and target c gives
              t1 = f (c2 - c) / ((mu - c2) (Z.F) - Z.B + Z.E),
              t2 = t1 (mu (Z.F) - Z.B).
            Near a wall neither single-class order satisfies its range even
            though the straight path stays positive, so the pair is realized
            as N interleaved rounds.  N is computed, not searched: the
            least power of two keeping F-E in range in the first and the
            last round, which implies every other check (`_interleaved`);
            for Z = B-kF-rE it is N area_end(F-E) > t1 Z.(F-E).  N grows
            like 1/(1 - c), so past _MAX_ROUNDS the raise is refused.
  left      inflate along Z together with (1 - Z.B) t fibers so the family
            is (mu+t, 1+t, ...); the solved parameter for a normalized start
            is t = (mu - mu') / (mu' - 1) (`stratum_left_parameter`).  Along
            B-kF-E the leg first drops c to a floor c0 and adds (1 - c0) t
            of E to hold it there, and it is realized as N rounds of
            (F, Z, E), N the least power of two keeping Z in range in the
            first and the last round (`_left_route`).  N grows like
            1/(mu' - limit) toward the wall limit max(1, k), so past
            _MAX_ROUNDS the leg is refused.

The open stratum guarantees a section B + xF for *some* x <= g only, so the
x used by each step is recorded as that step's assumption; where x is free
a raise to c' takes the largest x <= g with x < mu - c', in closed form
min(g, ceil(mu - c') - 1): its solution is positive exactly there.

Internally a cone point is an integer projective state (b, f, e, d): the
areas of B, F and E are b/d, f/d and e/d.  A NormalizedClass (m/d, n/d)
enters as (m, d, n, d) from its integer form.  A step is an integer
move (z, p, q, tag): inflate along z with t = p/q, q > 0, leaning on the
assumption `tag`; applying it is an integer multiply-add with the pairings
(Z.B, Z.F, Z.E, Z.Z) cached on Z.  Every comparison inside a plan is an
integer comparison on states, moves and the endpoints' (m, n, d):
`plan`'s preconditions, the sign and range checks 0 <= p and
p (-Z.Z) < q area(Z), the label check (E and F-E have positive area iff
0 < e < f), the sign of mu' - mu, the open-stratum refusals, and the
leftward leg's wall limit, blow-up-area floor and round count.  A plan
holds its moves; `InflationPlan.steps` builds the `InflationStep`s, with
t = Fraction(p, q), on first read.  A plan only judged (by the grid
verifier) or served (`as_json` writes t from p and q) builds no
`InflationStep` or step `Fraction`; `stays_in_chamber` places each state
by the cone's integer chamber formula.  Otherwise a `Fraction` is built
only for `stratum_left_parameter` or an error text.  One walk,
`_certify`, checks every move against its sign and range and every class
of the plan's label at every state it reaches, in one integer loop with
the label's core class bound before it; `_route` checks the start once,
so a certified plan stays in its stratum.  Leg builders advance states
only through the walk, so a plan is certified once, as it is built.  One
route, `_route`, serves every entry point: `_horizontal_leg` moves mu,
then `_vertical_steps` moves c, and the end state must equal the target
exactly, compared in integers.  `plan` checks both endpoints' validity
and chamber on every call, but a point computes both once, when it is
built (`cone.NormalizedClass`), as the grid verifier plans every point
many times; likewise the section B + xF is built once per x.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cone import (ChamberId, NormalizedClass, chamber_index, chamber_of,
                   is_valid, normalized, require_valid)
from .inflation import InflationStep
from .lattice import B, E, F, ClassVector, SurfaceParams
from .rationals import format_ratio, format_rational
from .strata import OPEN_LABEL, StratumLabel, chamber_labels

_Q = Fraction

ALWAYS = "always"
OPEN = "open"
STRATUM = "stratum"

_FE = F - E
_MAX_ROUNDS = 1 << 20


# Integer projective state (b, f, e, d): the areas of B, F and E are b/d,
# f/d and e/d, with d > 0 and the four integers coprime.  The start state of
# a plan has fiber area 1, and each t is measured in those area units.
State = tuple[int, int, int, int]

# Integer move (z, p, q, tag): inflate along z with t = p/q, q > 0, under the
# curve-existence assumption `tag` (see `InflationStep`).
Move = tuple[ClassVector, int, int, str]


def _state_of(u: NormalizedClass) -> State:
    m, n, d = u.ints
    return (m, d, n, d)


def _area3(state: State, z: ClassVector) -> int:
    """d times the area of z at the state (same sign as the area)."""
    b, f, e, _ = state
    return z.p * b + z.q * f + z.r[0] * e


def _normalized(state: State) -> NormalizedClass:
    b, f, e, _ = state
    if f <= 0:  # pragma: no cover - impossible for valid inflation chains
        raise PlanError("fiber area collapsed")
    return NormalizedClass(Fraction(b, f), Fraction(e, f))


def _require_label(state: State, label: StratumLabel) -> None:
    """Raise PlanError unless every class of `label` has positive area: its
    core class, then E and F-E, whose areas are e/d and (f - e)/d."""
    _, f, e, _ = state
    core = label.core
    bad = (core[0] if core and _area3(state, core[0]) <= 0
           else E if e <= 0 else _FE if f <= e else None)
    if bad is not None:
        raise PlanError(f"label {label.name} is absent at"
                        f" {_normalized(state)}: {bad} has non-positive"
                        " area")


def _certify(state: State, moves, label: StratumLabel | None,
             states: list[State] | None = None) -> State:
    """Walk `moves` from `state`, raising PlanError unless every t = p/q has
    p >= 0 and q > 0 and lies in its range [0, T) of a class of positive
    area, and every class of `label` has positive area at every state after
    the start (its caller checks the start); returns the end state, and
    appends every state after the start to `states` when given.

    One integer loop: the label's signs are tested inline, and
    `_require_label` runs only when one fails, to write the message."""
    checked = label is not None
    core = label.core[0] if checked and label.core else None
    # d times the core's area is cp b + cq f + cr e > floor; the open label
    # has no core and tests 0 > -1
    cp, cq, cr, floor = ((core.p, core.q, core.r[0], 0) if core is not None
                         else (0, 0, 0, -1))
    b, f, e, d = state
    for z, p, q, _ in moves:
        if p < 0 or q <= 0:
            raise PlanError(f"step ({z}, {p}/{q}) needs a parameter p/q"
                            " with p >= 0 and q > 0")
        a = z.p * b + z.q * f + z.r[0] * e  # d times the area of z
        if a <= 0:
            raise PlanError(f"{z} has non-positive area"
                            f" {format_rational(Fraction(a, d))} mid-plan")
        db, df, de, zz = z.pairings
        # t (-Z.Z) < a/d, denominators cleared
        if zz < 0 and p * -zz * d >= q * a:
            raise PlanError(
                f"step ({z}, {format_rational(Fraction(p, q))}) exceeds its"
                f" range [0, {format_rational(Fraction(a, d * -zz))})")
        # state + t PD(z), over the common denominator d q
        pd = p * d
        b, f, e, d = b * q + pd * db, f * q + pd * df, e * q + pd * de, d * q
        g = math.gcd(b, f, e, d)
        if g != 1:
            b, f, e, d = b // g, f // g, e // g, d // g
        if checked and not (0 < e < f and cp * b + cq * f + cr * e > floor):
            _require_label((b, f, e, d), label)
        if states is not None:
            states.append((b, f, e, d))
    return b, f, e, d


class PlanError(ValueError):
    """No valid plan: the message names the binding constraint."""


@dataclass(frozen=True)
class InflationPlan:
    """A certified sequence of inflation moves from start to end."""

    start: NormalizedClass
    moves: tuple[Move, ...]
    end: NormalizedClass
    label: StratumLabel | None = None

    @functools.cached_property
    def steps(self) -> tuple[InflationStep, ...]:
        """The moves as `InflationStep`s with t = p/q, built on first read."""
        return tuple(InflationStep(z, Fraction(p, q), tag)
                     for z, p, q, tag in self.moves)

    def _walk(self) -> list[State]:
        """The certified states of the moves from the start, the start first."""
        states = [_state_of(self.start)]
        if self.label is not None:
            _require_label(states[0], self.label)
        _certify(states[0], self.moves, self.label, states)
        return states

    def intermediates(self) -> list[NormalizedClass]:
        """Normalized points after each step (the last one equals `end`)."""
        return [_normalized(st) for st in self._walk()[1:]]

    def replay(self) -> NormalizedClass:
        """Re-run and re-certify the moves, and return the endpoint."""
        return _normalized(self._walk()[-1])

    def stays_in_chamber(self) -> bool:
        """Whether every intermediate point is valid and in the start chamber;
        the moves are re-walked and re-certified first."""
        states = self._walk()
        if not is_valid(self.start):
            return False
        index = chamber_of(self.start).index
        # a state (b, f, e, d) is valid iff 0 < e < f <= b; mu = b/f, c = e/f
        return all(0 < e < f <= b and chamber_index(b, e, f) == index
                   for b, f, e, _ in states[1:])

    def as_json(self) -> dict:
        """The `plan --json` payload, each move written as its
        `InflationStep` would be once `stays_in_chamber` has certified all."""
        stays = self.stays_in_chamber()
        steps = []
        for z, p, q, tag in self.moves:
            step = {"z": str(z), "t": format_ratio(p, q)}
            if tag is not None:
                step["assumption"] = tag
            steps.append(step)
        return {
            "start": {"mu": format_rational(self.start.mu),
                      "e": [format_rational(self.start.c)]},
            "end": {"mu": format_rational(self.end.mu),
                    "e": [format_rational(self.end.c)]},
            "label": self.label.name if self.label is not None else None,
            "steps": steps,
            "stays_in_chamber": stays,
        }


# -- vertical moves ----------------------------------------------------------


def _vertical_solve(state: State, z1: ClassVector,
                    c_target: Fraction) -> tuple[int, int, int]:
    """Solve state + t1 PD(z1) + t2 PD(F-E) for unchanged normalized mu and
    normalized blow-up area c_target, as integers (p1, p2, q) with t1 = p1/q,
    t2 = p2/q and q > 0.  Raises when no positive solution exists (the
    recipe's feasibility constraint)."""
    vb, vf, ve, _ = z1.pairings
    b, f, e, d = state
    cn, cd = c_target.numerator, c_target.denominator
    # with mu = b/f and c = e/f the denominator of the solution,
    # (mu - c_target) Z.F - Z.B + Z.E, is den / (f cd), and
    #   t1 = (f/d) (c_target - c) / that = rise f / (d den),
    #   t2 = t1 (mu Z.F - Z.B) = rise (b Z.F - Z.B f) / (d den)
    den = (b * cd - cn * f) * vf + (ve - vb) * f * cd
    if den <= 0:
        raise PlanError(
            f"raising the blow-up area to {format_rational(c_target)} along"
            f" {z1} and {_FE} needs mu >"
            f" {format_rational(vb - ve + c_target * vf)}"
            f" (mu = {format_rational(Fraction(b, f))}): no positive solution")
    rise, lean = cn * f - e * cd, b * vf - vb * f
    p1, p2, q = rise * f, rise * lean, d * den
    # f, d and den are positive, so t1 and t2 take the signs of rise and
    # rise lean, and den > 0 with c_target > c ensures both
    if rise <= 0 or lean < 0:  # pragma: no cover
        raise PlanError(f"vertical solve along {z1} gave non-positive"
                        f" parameters t1={Fraction(p1, q)},"
                        f" t2={Fraction(p2, q)}")
    return p1, p2, q


def _interleaved(state: State, z: ClassVector, p1: int, p2: int, q: int,
                 label: StratumLabel) -> tuple[list[Move], State]:
    """N rounds of (F-E, t2/N) then (z, t1/N), with t1 = p1/q and
    t2 = p2/q, realizing state + t1 PD(z) + t2 PD(F-E), and the state they
    reach.

    Each area the walk checks is affine in the round index, so a check
    binds in the first or the last round.  The label holds at both ends of
    the raise, z.z < 0 and (F-E).E > 0, and these imply every check but
    the range of F-E: N area_start(F-E) > t2 in the first round and
    N area_end(F-E) > t1 z.(F-E) in the last.  N is the least power of two
    meeting both, and the walk still certifies it.  For z = B-kF-rE
    (r = 0, 1) the second implies the first, as the area of F-E changes by
    t1 (1 - r - mu - k) <= 0 over the raise (mu >= 1); N = 1 for r = 1,
    where z.(F-E) = 0.  N grows like 1/(1 - c_target), so a target near 1
    can ask for any N; past _MAX_ROUNDS the raise is refused before a move
    is built.
    """
    _, vf, ve, _ = z.pairings
    _, f, e, d = state
    # area_start(F-E), t2 and t1 z.(F-E), all times d q; area_end(F-E) is
    # fe + rise1 - rise2, and N is the least power of two > both quotients
    fe, rise2, rise1 = (f - e) * q, p2 * d, p1 * (vf - ve) * d
    least = max(rise2 // fe, rise1 // (fe + rise1 - rise2))
    return _rounds(state, least, [(_FE, p2, q, ALWAYS), (z, p1, q, STRATUM)],
                   label, "the raise")


def _rounds(state: State, least: int, parts: list[Move],
            label: StratumLabel, leg: str) -> tuple[list[Move], State]:
    """N rounds of `parts` with every t divided by N, N the least power of
    two above `least`, and the state they reach; past _MAX_ROUNDS the leg
    is refused, by its name and the class of its stratum move, before a
    move is built."""
    rounds = 1 << least.bit_length()
    if rounds > _MAX_ROUNDS:
        z = next(z for z, _, _, tag in parts if tag == STRATUM)
        raise PlanError(f"{leg} along {z} needs {rounds} interleaved rounds,"
                        f" more than {_MAX_ROUNDS}")
    moves = ([(z, p, q * rounds, tag) for z, p, q, tag in parts] * rounds
             if rounds > 1 else parts)
    return moves, _certify(state, moves, label)


def _section(x: int, params: SurfaceParams) -> ClassVector:
    """The open-stratum section class B + xF, for 0 <= x <= g."""
    if not 0 <= x <= params.g:
        raise PlanError(f"section coefficient x={x} outside 0..{params.g}")
    return _section_class(x)


@functools.cache
def _section_class(x: int) -> ClassVector:
    """B + xF, built once per x, with its pairings cached on it."""
    return B + x * F


def _check_x(x: int, label: StratumLabel, params: SurfaceParams) -> None:
    """Check a pinned section coefficient up front, as routes with no
    section step never read x: in range, and pinned on the open label."""
    _section(x, params)
    if not label.is_open:
        raise PlanError(f"section coefficient x={x} pins an open-stratum"
                        f" section; label {label.name} is not open")


def _drop(state: State, cn: int, cd: int) -> Move:
    """The E move lowering the normalized blow-up area e/f to cn/cd (cd > 0):
    t = (f/d) (e/f - cn/cd)."""
    _, f, e, d = state
    return (E, e * cd - cn * f, cd * d, ALWAYS)


def _vertical_steps(state: State, c_target: Fraction,
                    label: StratumLabel | None, params: SurfaceParams | None,
                    x: int | None) -> tuple[list[Move], State]:
    """Moves taking normalized (mu, c) to (mu, c_target), and their end."""
    b, f, e, d = state
    cn, cd = c_target.as_integer_ratio()
    # the sign of c - c_target, with c = e/f
    above = e * cd - cn * f
    if above == 0:
        return [], state
    if above > 0:  # an embedded E always exists
        moves = [_drop(state, cn, cd)]
        return moves, _certify(state, moves, label)
    if label.is_open:
        if x is None:
            # the largest x <= g with x < mu - c_target (`_vertical_solve`'s
            # test), >= 0 as every route ends at mu >= 1 > c_target
            x = min(params.g, (b * cd - cn * f - 1) // (f * cd))
        section = _section(x, params)
        p1, p2, q = _vertical_solve(state, section, c_target)
        # B+xF has square 2x >= 0; applying it first always stays in range
        moves = [(section, p1, q, OPEN), (_FE, p2, q, ALWAYS)]
        return moves, _certify(state, moves, label)
    # rounds exist only if the label is present at the target (its classes
    # then stay positive on the straight path), so check (mu, c_target) first
    _require_label((b * cd, f * cd, cn * f, d * cd), label)
    z = label.core[0]
    return _interleaved(state, z, *_vertical_solve(state, z, c_target), label)


# -- horizontal moves --------------------------------------------------------


def stratum_left_parameter(u: NormalizedClass, z: ClassVector,
                           mu_target: Fraction) -> Fraction:
    """Solved parameter t of the leftward hop along z from a normalized start.

    The hop inflates along z and (1 - z.B) t fibers simultaneously, so the
    base-area slot of the family grows by exactly t per unit; solving
    (mu + t) / (1 + t) = mu_target gives the closed form.
    """
    require_valid(u)
    vb = z.pairings[0]
    if 1 - vb < 0:
        raise PlanError(f"{z} is not a leftward class")
    mu_target = _Q(mu_target)
    if not 1 < mu_target < u.mu:
        raise PlanError(f"leftward target must lie in (1,"
                        f" {format_rational(u.mu)}), got"
                        f" {format_rational(mu_target)}")
    return Fraction(*_hop_parameter(_state_of(u), mu_target.numerator,
                                    mu_target.denominator))


def _hop_parameter(state: State, mn: int, md: int) -> tuple[int, int]:
    """The hop parameter t = num/den, den > 0, taking the normalized mu of
    `state` to mn/md > 1: per unit t the base and fiber areas both grow by
    1, so t = (b/d - mu' f/d) / (mu' - 1)."""
    b, f, _, d = state
    return b * md - mn * f, d * (mn - md)


def _left_route(state: State, target: NormalizedClass,
                label: StratumLabel) -> tuple[list[Move], State]:
    """The leftward leg along the label's class z from the start state to
    mu' = target.mu, and the end state.

    Per unit t the class z with its fiber companion (1 - z.B) F moves the
    areas (b, f, e) by (1, 1, z.E), and the hop parameter T reaches mu'.
    The wall of z at vanishing blow-up area, limit = max(1, k), bounds
    every such leg, so targets at or below it are refused.  Along B-kF
    (z.E = 0) the leg is that hop.  Along B-kF-E the hop raises c while the
    area of z falls, so the leg first drops c to the floor
    c0 = min(c, c', (mu' - limit)/2), which raises the area of z, and an E
    amount w = (1 - c0) T then holds c at c0, where z stays positive
    (mu' - k - c0 >= (mu' - limit)/2).  The drop comes first, not spread
    over the rounds, so that near the wall of z the first round's z step
    does not spend the start's small area of z before E restores it.

    N rounds of (F, z, E), every t divided by N, realize the straight
    segment in (b, f, e) from there, so each area the walk checks is affine
    in the round index and binds in the first or the last round.  The label
    holds at both ends, and the range of a step along a class of negative
    square is the positivity of its area after the step, so only the range
    of z can bind: N area_start(z) > -drift T in the first round, with
    drift = z.z + 1 - z.B the change of the area of z per unit t, and
    N area_end(z) > (z.E) w in the last, whose E step follows z.  (E's range
    is e > 0 after each E step, which holds on the segment; along B-kF,
    (k - 1) T < area_start(z), so N = 1.)  N is the least power of two
    meeting both.  It grows like 1/(mu' - limit), so past _MAX_ROUNDS the
    leg is refused before a move is built.
    """
    z = label.core[0]
    limit = max(1, -z.q)
    m, n, dt = target.ints
    if m <= limit * dt:
        raise PlanError(
            f"mu' = {format_rational(target.mu)} is unreachable along {z}:"
            f" iterated hops are bounded by the wall at {limit}")
    # the floor fn/fd = min(c, target.c, (mu' - limit)/2), c = e/f here
    _, fd, fn, _ = state
    for pn, pd in ((n, dt), (m - limit * dt, 2 * dt)):
        if pn * fd < fn * pd:
            fn, fd = pn, pd
    vb, _, ve, zz = z.pairings
    moves: list[Move] = []
    if ve and state[2] * fd > fn * state[1]:  # c > floor: drop first
        moves = [_drop(state, fn, fd)]
        state = _certify(state, moves, label)
    num, den = _hop_parameter(state, m, dt)
    d = state[3]
    # T, the area of z at the start and w = ve (1 - c0) T, all times
    # d den fd, and the area of z at the end
    t = num * d * fd
    start = _area3(state, z) * den * fd
    w = ve * (fd - fn) * num * d
    end = start + (zz + 1 - vb) * t + ve * w
    least = max(0, (vb - 1 - zz) * t // start, ve * w // end)
    parts = [(F, (1 - vb) * num, den, ALWAYS), (z, num, den, STRATUM)]
    if w:  # w / (d den fd) with d cancelled, as ve = 1
        parts.append((E, (fd - fn) * num, den * fd, ALWAYS))
    more, state = _rounds(state, least, parts, label, "the leftward leg")
    return moves + more, state


def _left_refusal(what: str, low: int, closed: bool, mu: Fraction,
                  mu_target: Fraction) -> PlanError:
    """Refuse a leftward target outside the accepted set: the interval from
    low (included iff closed) up to mu, with mu itself (an empty leg)."""
    got = format_rational(mu_target)
    if mu < low or (mu == low and not closed):
        return PlanError(f"{what} must equal mu = {format_rational(mu)}"
                         f" (an empty leg), got {got}")
    return PlanError(f"{what} must lie in {'[' if closed else '('}{low},"
                     f" {format_rational(mu)}], got {got}")


def _open_left_refusal(params: SurfaceParams, mu: Fraction,
                       mu_target: Fraction) -> PlanError:
    """Open-stratum leftward targets lie above g, and in the cone (mu >= 1)."""
    return _left_refusal("open-stratum leftward targets", params.g or 1,
                         not params.g, mu, mu_target)


def _horizontal_leg(state: State, target: NormalizedClass,
                    label: StratumLabel | None, params: SurfaceParams | None,
                    x: int | None) -> tuple[list[Move], State]:
    """Moves taking the normalized mu = b/f of `state`, a plan's start, to
    mu' = target.mu, and the state they reach.

    Rightward is one F step.  Leftward on the open stratum is one hop along
    the section B + xF (x defaults to g): the normalized base area along it
    is x + (mu - x)/(1 + t), strictly decreasing with limit x, so targets at
    or below x are unreachable, and targets <= g or < 1 are refused.
    Leftward in a stratum is `_left_route` along the label's class.
    """
    b, f, _, d = state
    m, _, dt = target.ints
    shift = m * f - b * dt  # the sign of mu' - mu
    if shift == 0:
        return [], state
    if shift > 0:  # t = (f/d) (mu' - mu)
        moves = [(F, shift, dt * d, ALWAYS)]
        return moves, _certify(state, moves, label)
    if not label.is_open:
        return _left_route(state, target, label)
    x = params.g if x is None else x
    section = _section(x, params)
    if m <= x * dt:
        raise PlanError(f"mu' = {format_rational(target.mu)} is unreachable"
                        f" along B+{x}F: the normalized limit is {x}")
    if m <= params.g * dt or m < dt:
        raise _open_left_refusal(params, Fraction(b, f), target.mu)
    # t = (f/d) (mu - mu') / (mu' - x)
    moves = [(section, -shift, d * (m - x * dt), OPEN)]
    return moves, _certify(state, moves, label)


def _route(u: NormalizedClass, target: NormalizedClass,
           label: StratumLabel | None, params: SurfaceParams | None,
           hop_x: int | None = None,
           raise_x: int | None = None) -> InflationPlan:
    """Horizontal leg to target.mu (open-stratum hops along B + hop_x F),
    then vertical leg to target.c (raises along B + raise_x F), certified as
    built; the label is checked at the start first, so its absence is
    reported ahead of any leg error.  The end state must be the target
    exactly: with target = (m, n, d), b/f = m/d and e/f = n/d."""
    state = _state_of(u)
    if label is not None:
        _require_label(state, label)
    moves, state = _horizontal_leg(state, target, label, params, hop_x)
    more, state = _vertical_steps(state, target.c, label, params, raise_x)
    b, f, e, _ = state
    m, n, d = target.ints
    if b * d != m * f or e * d != n * f:  # pragma: no cover - exactness guard
        raise PlanError(f"plan ended at {_normalized(state)}, expected {target}")
    return InflationPlan(u, tuple(moves + more), target, label)


# -- the published recipe surface -------------------------------------------


def plan_vertical(u: NormalizedClass, c_target, label: StratumLabel,
                  params: SurfaceParams, x: int | None = None) -> InflationPlan:
    """Transport (mu, c) -> (mu, c_target) inside the stratum of `label`."""
    require_valid(u)
    c_target = _Q(c_target)
    if not 0 < c_target < 1:
        raise PlanError(f"target blow-up area must lie in (0, 1), got"
                        f" {format_rational(c_target)}")
    if x is not None:
        _check_x(x, label, params)
    return _route(u, normalized(u.mu, c_target), label, params, raise_x=x)


def plan_right(u: NormalizedClass, mu_target) -> InflationPlan:
    """Increase mu at fixed c by inflating along the fiber; stratum-blind."""
    require_valid(u)
    mu_target = _Q(mu_target)
    if mu_target < u.mu:
        raise PlanError(f"rightward target {format_rational(mu_target)} is"
                        f" below mu = {format_rational(u.mu)}")
    # F keeps c, so the route reads neither a label nor the surface params
    return _route(u, normalized(mu_target, u.c), None, None)


def plan_left_open(u: NormalizedClass, mu_target, params: SurfaceParams,
                   x: int | None = None) -> InflationPlan:
    """Decrease mu on the open stratum along a section B + xF (x defaults
    to g), then restore c; with x <= g every target > g and >= 1 works."""
    require_valid(u)
    mu_target = _Q(mu_target)
    # targets <= g or < 1 are refused by the hop, after its checks of x
    if mu_target > u.mu:
        raise _open_left_refusal(params, u.mu, mu_target)
    if x is not None:
        _check_x(x, OPEN_LABEL, params)
    return _route(u, normalized(mu_target, u.c), OPEN_LABEL, params, hop_x=x)


def plan_left_stratum(u: NormalizedClass, mu_target, label: StratumLabel,
                      params: SurfaceParams) -> InflationPlan:
    """Decrease mu inside a positive-codimension stratum, then restore c."""
    require_valid(u)
    mu_target = _Q(mu_target)
    if label.is_open:
        raise PlanError("leftward stratum moves need a positive-codimension"
                        " label")
    if mu_target != u.mu and not 1 < mu_target < u.mu:
        raise _left_refusal("leftward targets", 1, False, u.mu, mu_target)
    return _route(u, normalized(mu_target, u.c), label, params)


def plan(u1: NormalizedClass, u2: NormalizedClass, label: StratumLabel,
         params: SurfaceParams, x: int | None = None) -> InflationPlan:
    """Certified transport u1 -> u2 inside one chamber and one stratum.

    Route: rightward or leftward leg to mu2 first (stratum-dictated class),
    then the vertical leg to c2.  Every step is certified as it is built;
    failures raise PlanError naming the violated recipe precondition, which
    is checked on the endpoints' integer forms (m, n, d), mu = m/d, c = n/d.
    """
    # chamber_of checks validity; the point computed both when it was built
    i1, i2 = chamber_of(u1).index, chamber_of(u2).index
    if x is not None:
        _check_x(x, label, params)
    if i1 != i2:
        raise PlanError(
            f"{u1} and {u2} lie in chambers {i1} and {i2}; cross-chamber"
            " transport is out of scope")
    m1, _, d1 = u1.ints
    m2, _, d2 = u2.ints
    if label.is_open:
        if not (m1 > params.g * d1 and m2 > params.g * d2):
            raise PlanError(f"open-stratum transport needs mu > g ="
                            f" {params.g} at both endpoints")
    elif not (m1 > d1 and m2 > d2):
        raise PlanError("stratum transport needs mu > 1 at both endpoints")
    return _route(u1, u2, label, params, hop_x=x, raise_x=x)


# -- grid verification of intra-chamber transport ----------------------------


def _verify_chamber(params: SurfaceParams, index: int,
                    points: list[NormalizedClass]) -> dict:
    """The payload entry of one chamber: both directions of every pair of
    its points, for every label; each ordered pair is one `plan` call."""
    labels = chamber_labels(ChamberId(index), params)
    failed, first_failure = 0, None
    for ua, ub in itertools.combinations(points, 2):
        for label in labels:
            for src, dst in ((ua, ub), (ub, ua)):
                try:
                    plan(src, dst, label, params)
                except PlanError as err:
                    failed += 1
                    if first_failure is None:
                        first_failure = {
                            "from": str(src), "to": str(dst),
                            "label": label.name, "error": str(err),
                        }
    checked = len(points) * (len(points) - 1) * len(labels)
    return {"chamber": index, "points": len(points),
            "labels": [lb.name for lb in labels], "checked": checked,
            "passed": checked - failed, "failed": failed,
            "first_failure": first_failure}


def verify_stability(params: SurfaceParams, mu_max, grid_step, mu_min=None,
                     min_index: int | None = None) -> dict:
    """Check two-way transport for every same-chamber grid pair and label,
    and return the `verify-stability --json` payload
    (schemas/stability.schema.json).

    Grid: mu in (mu_min, mu_max] and c in (0, 1), both stepped by grid_step;
    mu_min defaults to max(1, g).  Chambers with index below min_index
    (default 2g) are recorded as skipped, not attempted.  Cross-chamber
    pairs are out of scope and only counted.
    """
    mu_max = _Q(mu_max)
    grid_step = _Q(grid_step)
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    mu_min = _Q(max(1, params.g)) if mu_min is None else _Q(mu_min)
    if min_index is None:
        min_index = 2 * params.g

    by_chamber: dict[int, list[NormalizedClass]] = {}
    mu = mu_min + grid_step
    while mu <= mu_max:
        c = grid_step
        while c < 1:
            u = normalized(mu, c)
            if is_valid(u):
                by_chamber.setdefault(chamber_of(u).index, []).append(u)
            c += grid_step
        mu += grid_step

    total_points = sum(len(pts) for pts in by_chamber.values())
    same_chamber_pairs = sum(len(pts) * (len(pts) - 1) // 2
                             for pts in by_chamber.values())
    cross = total_points * (total_points - 1) // 2 - same_chamber_pairs

    skipped = sorted(i for i in by_chamber if i < min_index)
    verdicts = [_verify_chamber(params, i, by_chamber[i])
                for i in sorted(by_chamber) if i >= min_index]

    return {
        "g": params.g, "mu_min": format_rational(mu_min),
        "mu_max": format_rational(mu_max),
        "grid_step": format_rational(grid_step),
        "min_chamber_index": min_index,
        "ok": all(v["failed"] == 0 for v in verdicts),
        "chambers": verdicts, "skipped_chambers": skipped,
        "cross_chamber_pairs": cross,
    }

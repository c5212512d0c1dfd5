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
            as N rounds of (F-E, Z).  N grows like 1/(1 - c), so past
            _MAX_ROUNDS the raise is refused.
  left      inflate along Z together with (1 - Z.B) t fibers so the family
            is (mu+t, 1+t, ...); the solved parameter for a normalized start
            is t = (mu - mu') / (mu' - 1) (`stratum_left_parameter`).  Along
            B-kF-E the leg first drops c to a floor c0 and adds (1 - c0) t
            of E to hold it there, as N rounds of (F, Z, E) (`_left_route`).
            N grows like 1/(mu' - limit) toward the wall limit max(1, k), so
            past _MAX_ROUNDS the leg is refused.

Segment rule: every leg is a straight segment in (b, f, e), its parts
taken in N rounds with every t divided by N.  `_rounds` walks one round,
and only if that refuses computes N (`_least_rounds`): each area the walk
checks is affine in the round index, so N is the least power of two
keeping each part of negative square in range in the first and the last
round.

The open stratum guarantees a section B + xF for *some* x <= g only, so the
x used by each step is recorded as that step's assumption; where x is free
a raise to c' takes the largest x <= g with x < mu - c', in closed form
min(g, ceil(mu - c') - 1): its solution is positive exactly there.

Invariants:

- A cone point is an integer projective state (b, f, e, d), the areas of
  B, F and E being b/d, f/d and e/d, and a step an integer move
  (z, p, q, tag): t = p/q, q > 0, under the assumption `tag`.  Every
  comparison inside a plan is an integer comparison.
- One walk, `_certify`, checks every move against its sign and range and
  every class of the plan's label at every state it reaches; `_route`
  checks the start, so a certified plan stays in its stratum.
- One route, `_route`, serves every entry point: the horizontal leg, then
  the vertical leg, ending exactly at the target.
- A plan is certified once, as it is built, and carries the states it
  reached (`InflationPlan.states`); a plan built by hand walks its moves
  once, on the first read of `states`, and `replay` re-walks every call.
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
from .lattice import B, E, F, ClassVector, SurfaceParams, pair
from .rationals import exact_rational, format_ratio, format_rational
from .strata import OPEN_LABEL, StratumLabel, chamber_labels

_Q = exact_rational  # an int, Fraction or p/q string; never a float

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
    core class (`StratumLabel.core_test`), then E and F-E, whose areas are
    e/d and (f - e)/d."""
    b, f, e, _ = state
    cp, cq, cr, floor = label.core_test
    if cp * b + cq * f + cr * e <= floor:
        bad = label.core[0]
    elif e <= 0:
        bad = E
    elif f <= e:
        bad = _FE
    else:
        return
    raise PlanError(f"label {label.name} is absent at {_normalized(state)}:"
                    f" {bad} has non-positive area")


def _certify(state: State, moves, label: StratumLabel | None,
             states: list[State]) -> State:
    """Walk `moves` from `state`, raising PlanError unless every t = p/q has
    p >= 0 and q > 0 and lies in its range [0, T) of a class of positive
    area, and every class of `label` has positive area at every state after
    the start (its caller checks the start); returns the end state, and
    appends every state after the start to `states`.

    One integer loop: the label's signs are tested inline, its core's by
    `StratumLabel.core_test`, and `_require_label` runs only when one
    fails, to write the message."""
    checked = label is not None
    # d times the core's area is cp b + cq f + cr e > floor
    cp, cq, cr, floor = label.core_test if checked else (0, 0, 0, -1)
    gcd = math.gcd
    append = states.append
    b, f, e, d = state
    for z, p, q, _ in moves:
        if p < 0 or q <= 0:
            raise PlanError(f"step ({z}, {p}/{q}) needs a parameter p/q"
                            " with p >= 0 and q > 0")
        db, df, de, zz = z.pairings  # (Z.B, Z.F, Z.E) = (z.q, z.p, -z.r)
        a = df * b + db * f - de * e  # d times the area of z
        if a <= 0:
            raise PlanError(f"{z} has non-positive area"
                            f" {format_rational(Fraction(a, d))} mid-plan")
        # t (-Z.Z) < a/d, denominators cleared
        if zz < 0 and p * -zz * d >= q * a:
            raise PlanError(
                f"step ({z}, {format_rational(Fraction(p, q))}) exceeds its"
                f" range [0, {format_rational(Fraction(a, d * -zz))})")
        # state + t PD(z), over the common denominator d q
        pd = p * d
        b, f, e, d = b * q + pd * db, f * q + pd * df, e * q + pd * de, d * q
        g = gcd(b, f, e, d)
        if g != 1:
            b, f, e, d = b // g, f // g, e // g, d // g
        if checked and not (0 < e < f and cp * b + cq * f + cr * e > floor):
            _require_label((b, f, e, d), label)
        append((b, f, e, d))
    return b, f, e, d


class PlanError(ValueError):
    """No valid plan: the message names the binding constraint."""


@dataclass(frozen=True, init=False)
class InflationPlan:
    """A certified sequence of inflation moves from start to end.

    A plan the planner built carries the states its build certified
    (`states`); a plan built by hand walks and certifies its moves once, on
    the first read of `states`, so a plan is judged only on states its own
    moves reached under their range and label checks."""

    start: NormalizedClass
    moves: tuple[Move, ...]
    end: NormalizedClass
    label: StratumLabel | None = None

    def __init__(self, start, moves, end, label=None) -> None:
        attrs = self.__dict__
        attrs["start"] = start
        attrs["moves"] = moves
        attrs["end"] = end
        attrs["label"] = label

    @functools.cached_property
    def steps(self) -> tuple[InflationStep, ...]:
        """The moves as `InflationStep`s with t = p/q, built on first read."""
        return tuple(InflationStep(z, Fraction(p, q), tag)
                     for z, p, q, tag in self.moves)

    @functools.cached_property
    def states(self) -> list[State]:
        """The certified states of the moves from the start, the start
        first: filled in by `_route`, which certified them as it built the
        plan, and for a plan built by hand walked once, on first read."""
        return self._walk()

    def _walk(self) -> list[State]:
        """The certified states of the moves from the start, the start first."""
        states = [_state_of(self.start)]
        if self.label is not None:
            _require_label(states[0], self.label)
        _certify(states[0], self.moves, self.label, states)
        return states

    def intermediates(self) -> list[NormalizedClass]:
        """Normalized points after each step (the last one equals `end`), from
        the certified `states`."""
        return [_normalized(st) for st in self.states[1:]]

    def replay(self) -> NormalizedClass:
        """Re-run and re-certify the moves, and return the endpoint: unlike
        `states`, a fresh walk on every call, by design."""
        return _normalized(self._walk()[-1])

    def stays_in_chamber(self) -> bool:
        """Whether every intermediate point is valid and in the start chamber,
        read from the certified `states` (walked first for a plan built by
        hand)."""
        states = self.states
        chamber = self.start._chamber  # None for an invalid start
        if chamber is None:
            return False
        index = chamber.index
        # mu = b/f and c = e/f; an invalid state has index 0
        for b, f, e, _ in states[1:]:
            if chamber_index(b, e, f) != index:
                return False
        return True

    def as_json(self) -> dict:
        """The `plan --json` payload, each move written as its
        `InflationStep` would be.  `stays_in_chamber` runs first, so a plan
        built by hand has every move certified before one is written; a
        planner-built plan was certified as it was built."""
        stays = self.stays_in_chamber()
        steps = []
        for z, p, q, tag in self.moves:
            step = {"z": z.text, "t": format_ratio(p, q)}
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


def _vertical_solve(state: State, z1: ClassVector, cn: int,
                    cd: int) -> tuple[int, int, int]:
    """Solve state + t1 PD(z1) + t2 PD(F-E) for unchanged normalized mu and
    normalized blow-up area c_target = cn/cd (cd > 0), as integers
    (p1, p2, q) with t1 = p1/q, t2 = p2/q and q > 0.  Raises when no
    positive solution exists (the recipe's feasibility constraint)."""
    vb, vf, ve, _ = z1.pairings
    b, f, e, d = state
    # with mu = b/f and c = e/f the denominator of the solution,
    # (mu - c_target) Z.F - Z.B + Z.E, is den / (f cd), and
    #   t1 = (f/d) (c_target - c) / that = rise f / (d den),
    #   t2 = t1 (mu Z.F - Z.B) = rise (b Z.F - Z.B f) / (d den)
    den = (b * cd - cn * f) * vf + (ve - vb) * f * cd
    if den <= 0:
        c_target = Fraction(cn, cd)
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


def _least_rounds(state: State, parts: list[Move]) -> int:
    """The least power of two N whose rounds of `parts` from `state`, every
    t divided by N, keep each part of negative square in range; 1 if an end
    area of one is not positive, where no N does.

    Along the segment each area is affine in the round index, so a range
    binds in the first or the last round: for part i, with t_l = p_l/q_l,
      N A_start(z_i) > -sum_{l <= i} t_l (z_l.z_i) in the first round and
      N A_end(z_i) > sum_{l > i} t_l (z_l.z_i) in the last.
    Sign and label checks bind no N, as the label holds at both ends."""
    d, q = state[3], math.lcm(*(qz for _, _, qz, _ in parts))
    amounts = [(z, p * (q // qz)) for z, p, qz, _ in parts]  # t = p/q
    least = 0
    for i, (zi, _) in enumerate(amounts):
        if zi.pairings[3] >= 0:
            continue
        # d q times the area of z_i at the start, and its rise per part
        start = _area3(state, zi) * q
        rises = [d * p * pair(z, zi) for z, p in amounts]
        end = start + sum(rises)
        if start <= 0 or end <= 0:
            return 1
        least = max(least, -sum(rises[:i + 1]) // start,
                    sum(rises[i + 1:]) // end)
    return 1 << least.bit_length()


def _rounds(state: State, parts: list[Move], label: StratumLabel | None,
            leg: str, moves: list[Move], states: list[State]) -> State:
    """Append the moves of one straight segment from `state` to `moves` and
    the states they certify to `states`, and return the end state: `parts`
    if one round certifies, else N rounds of them with every t divided by
    N = `_least_rounds`, or the round's refusal if N = 1.  The states of a
    refused round are dropped before its N rounds are walked.  Past
    _MAX_ROUNDS the leg is refused, by its name and the class of its stratum
    move, before its rounds are built."""
    mark = len(states)
    try:
        end = _certify(state, parts, label, states)
    except PlanError:
        rounds = _least_rounds(state, parts)
        if rounds == 1:
            raise
    else:
        moves += parts
        return end
    del states[mark:]
    if rounds > _MAX_ROUNDS:
        z = next(z for z, _, _, tag in parts if tag == STRATUM)
        raise PlanError(f"{leg} along {z} needs {rounds} interleaved rounds,"
                        f" more than {_MAX_ROUNDS}")
    parts = [(z, p, q * rounds, tag) for z, p, q, tag in parts] * rounds
    moves += parts
    return _certify(state, parts, label, states)


@functools.cache
def _section_class(x: int) -> ClassVector:
    """B + xF, built once per x, with its pairings cached on it."""
    return B + x * F


def _check_x(x: int, label: StratumLabel, params: SurfaceParams) -> None:
    """Check a pinned section coefficient up front, as routes with no
    section step never read x: in range, and pinned on the open label.  The
    legs' own x, the free raise's and the default hop's, are in range by
    construction, so no leg checks x again."""
    if not 0 <= x <= params.g:
        raise PlanError(f"section coefficient x={x} outside 0..{params.g}")
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
                    x: int | None, moves: list[Move],
                    states: list[State]) -> State:
    """Append the moves taking normalized (mu, c) to (mu, c_target), and
    their states, by `_rounds`; returns their end."""
    b, f, e, d = state
    cn, cd = c_target.as_integer_ratio()
    # the sign of c - c_target, with c = e/f
    above = e * cd - cn * f
    if above == 0:
        return state
    if above > 0:  # an embedded E always exists
        return _rounds(state, [_drop(state, cn, cd)], label, "the drop",
                       moves, states)
    if label.is_open:
        if x is None:
            # the largest x <= g with x < mu - c_target (`_vertical_solve`'s
            # test), >= 0 as every route ends at mu >= 1 > c_target
            x = min(params.g, (b * cd - cn * f - 1) // (f * cd))
        section = _section_class(x)
        p1, p2, q = _vertical_solve(state, section, cn, cd)
        # B+xF has square 2x >= 0; applying it first always stays in range
        return _rounds(state, [(section, p1, q, OPEN), (_FE, p2, q, ALWAYS)],
                       label, "the open raise", moves, states)
    # rounds exist only if the label is present at the target (its classes
    # then stay positive on the straight path), so check (mu, c_target) first
    _require_label((b * cd, f * cd, cn * f, d * cd), label)
    z = label.core[0]
    p1, p2, q = _vertical_solve(state, z, cn, cd)
    return _rounds(state, [(_FE, p2, q, ALWAYS), (z, p1, q, STRATUM)], label,
                   "the raise", moves, states)


# -- horizontal moves --------------------------------------------------------


def stratum_left_parameter(u: NormalizedClass, z: ClassVector,
                           mu_target: Fraction) -> Fraction:
    """Solved parameter t of the leftward hop along z from a normalized start.

    The hop inflates along z and (1 - z.B) t fibers simultaneously, so for a
    section class z (z.F = 1, z.B <= 1) the base and fiber areas both grow
    by exactly t per unit; solving (mu + t) / (1 + t) = mu_target gives the
    closed form.  Any other z is refused.
    """
    require_valid(u)
    vb, vf, _, _ = z.pairings
    if vf != 1 or vb > 1:
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


def _left_route(state: State, target: NormalizedClass, label: StratumLabel,
                moves: list[Move], states: list[State]) -> State:
    """Append the leftward leg along the label's class z from the start
    state to mu' = target.mu, by `_rounds`, and return its end state.

    Per unit t the class z with its fiber companion (1 - z.B) F moves the
    areas (b, f, e) by (1, 1, z.E), and the hop parameter T reaches mu'.
    The wall of z at vanishing blow-up area, limit = max(1, k), bounds
    every such leg, so targets at or below it are refused.  Along B-kF
    (z.E = 0) the leg is that hop.  Along B-kF-E the hop raises c while the
    area of z falls, so the leg first drops c to the floor
    c0 = min(c, c', (mu' - limit)/2), which raises the area of z, and an E
    amount (1 - c0) T then holds c at c0, where z stays positive
    (mu' - k - c0 >= (mu' - limit)/2).  The drop comes first, not spread
    over the rounds, so that near the wall of z the first round's z step
    does not spend the start's small area of z before E restores it.  The
    rest is one segment of parts (F, z, E), which `_rounds` builds.
    """
    z = label.core[0]
    limit = max(1, -z.q)
    m, n, dt = target.ints
    if m <= limit * dt:
        raise PlanError(
            f"mu' = {format_rational(target.mu)} is unreachable along {z}:"
            f" the leftward leg is bounded by the wall at {limit}")
    # the floor fn/fd = min(c, target.c, (mu' - limit)/2), c = e/f here
    _, fd, fn, _ = state
    for pn, pd in ((n, dt), (m - limit * dt, 2 * dt)):
        if pn * fd < fn * pd:
            fn, fd = pn, pd
    vb, _, ve, _ = z.pairings
    if ve and state[2] * fd > fn * state[1]:  # c > floor: drop first
        state = _rounds(state, [_drop(state, fn, fd)], label,
                        "the leftward leg", moves, states)
    num, den = _hop_parameter(state, m, dt)
    parts = [(F, (1 - vb) * num, den, ALWAYS), (z, num, den, STRATUM)]
    if ve:  # (1 - c0) T of E holds c at the floor
        parts.append((E, (fd - fn) * num, den * fd, ALWAYS))
    return _rounds(state, parts, label, "the leftward leg", moves, states)


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
                    x: int | None, moves: list[Move],
                    states: list[State]) -> State:
    """Append the moves taking the normalized mu = b/f of `state`, a plan's
    start, to mu' = target.mu, and their states, by `_rounds`; returns the
    state they reach.

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
        return state
    if shift > 0:  # t = (f/d) (mu' - mu)
        return _rounds(state, [(F, shift, dt * d, ALWAYS)], label,
                       "the rightward step", moves, states)
    if not label.is_open:
        return _left_route(state, target, label, moves, states)
    x = params.g if x is None else x
    section = _section_class(x)
    if m <= x * dt:
        raise PlanError(f"mu' = {format_rational(target.mu)} is unreachable"
                        f" along B+{x}F: the normalized limit is {x}")
    if m <= params.g * dt or m < dt:
        raise _open_left_refusal(params, Fraction(b, f), target.mu)
    # t = (f/d) (mu - mu') / (mu' - x)
    return _rounds(state, [(section, -shift, d * (m - x * dt), OPEN)], label,
                   "the open hop", moves, states)


def _route(u: NormalizedClass, target: NormalizedClass,
           label: StratumLabel | None, params: SurfaceParams | None,
           hop_x: int | None = None,
           raise_x: int | None = None) -> InflationPlan:
    """Horizontal leg to target.mu (open-stratum hops along B + hop_x F),
    then vertical leg to target.c (raises along B + raise_x F), certified as
    built into one moves list and one states list, which the plan carries;
    the label is checked at the start first, so its absence is reported
    ahead of any leg error.  The end state must be the target exactly: with
    target = (m, n, d), b/f = m/d and e/f = n/d."""
    m, n, d = u.ints
    state = (m, d, n, d)  # `_state_of(u)`, one call fewer per verdict
    if label is not None:
        _require_label(state, label)
    moves: list[Move] = []
    states = [state]
    state = _horizontal_leg(state, target, label, params, hop_x, moves,
                            states)
    state = _vertical_steps(state, target.c, label, params, raise_x, moves,
                            states)
    b, f, e, _ = state
    m, n, d = target.ints
    if b * d != m * f or e * d != n * f:  # pragma: no cover - exactness guard
        raise PlanError(f"plan ended at {_normalized(state)}, expected {target}")
    built = InflationPlan(u, tuple(moves), target, label)
    built.__dict__["states"] = states  # certified as built
    return built


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
    return _route(u1, u2, label, params, x, x)


# -- grid verification of intra-chamber transport ----------------------------


def _verify_chamber(params: SurfaceParams, index: int,
                    points: list[NormalizedClass]) -> dict:
    """The payload entry of one chamber: both directions of every pair of
    its points, for every label; each ordered pair is one `plan` call."""
    labels = chamber_labels(ChamberId(index), params)
    failed, first_failure = 0, None
    for ua, ub in itertools.combinations(points, 2):
        directions = (ua, ub), (ub, ua)
        for label in labels:
            for src, dst in directions:
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

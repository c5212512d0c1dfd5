"""Transport away from the verification grid, and the closed-form round counts.

A seeded sample of same-chamber verdicts: g = 1, 2, 3, chambers 2g..2g+7,
blow-up areas c = n/den with den <= 4,099, and mu either anywhere in the
chamber at that c or, for a fifth of the points, within 10^-3 of one of the
chamber's two walls.  Every certified plan is replayed with the independent
`Fraction` engine of `inflation`.  The same sample, and the two grids of
`tests/golden/verify.json`, record every segment that `planner._rounds`
builds.  On every stratum raise and leftward leg the round-count rule,
`planner._least_rounds`, is compared with doubling searches kept here as
the references, whether or not one round certified; on every other segment
it must give one round.  The hop chain that the leftward leg replaced is
kept here too, as the reference for its verdicts.
"""

import itertools
import random
from collections import Counter
from contextlib import contextmanager, suppress
from fractions import Fraction as Q

import pytest

import ruledcone.planner as planner
from ruledcone.cone import ChamberId, NormalizedClass, chamber_of, normalized
from ruledcone.inflation import apply_step, check_step, normalize, raw_from
from ruledcone.lattice import B, E, F, SurfaceParams, codim
from ruledcone.planner import PlanError, plan, plan_vertical, verify_stability
from ruledcone.rationals import simplest_between
from ruledcone.strata import StratumLabel, chamber_labels

SEED = 17
VERDICTS = 12_000
MAX_DEN = 4099
NEAR_WALL = Q(1, 5)


def _point(rng: random.Random, index: int) -> NormalizedClass:
    """A point of chamber `index`: 2k is k < mu <= k + c, 2k+1 is
    k + c < mu <= k + 1."""
    k = index // 2
    while True:
        den = rng.randint(2, MAX_DEN)
        c = Q(rng.randint(1, den - 1), den)
        lo, hi = (k, k + c) if index % 2 == 0 else (k + c, k + 1)
        if rng.random() < NEAR_WALL:
            off = Q(rng.randint(0, den), 1000 * den)
            mu = hi - off if rng.random() < 1 / 2 else lo + off
        else:
            mu = lo + (hi - lo) * Q(rng.randint(1, den), den)
        if lo < mu <= hi:  # the left wall belongs to the chamber before
            return NormalizedClass(mu, c)


def _sample():
    rng = random.Random(SEED)
    for _ in range(VERDICTS):
        g = rng.randint(1, 3)
        index = rng.randint(2 * g, 2 * g + 7)
        params = SurfaceParams(g)
        u1, u2 = _point(rng, index), _point(rng, index)
        label = rng.choice(chamber_labels(ChamberId(index), params))
        yield u1, u2, label, params


@contextmanager
def _recording(segments: list, legs: list):
    """Record (state, parts, label, leg, N) for every call of
    `planner._rounds` in `segments`, and (state, target, label, N, segment)
    for every call of `planner._left_route` in `legs`, its segment being
    the last `_rounds` call it made; N = None when the call raised."""
    rounds, left_route = planner._rounds, planner._left_route

    def recorded(state, parts, label, leg, moves, states):
        made = len(moves)
        try:
            end = rounds(state, parts, label, leg, moves, states)
        except PlanError:
            segments.append((state, parts, label, leg, None))
            raise
        segments.append((state, parts, label, leg,
                         (len(moves) - made) // len(parts)))
        return end

    def recorded_leg(state, target, label, moves, states):
        made = len(segments)
        try:
            return left_route(state, target, label, moves, states)
        finally:
            segment = segments[-1] if len(segments) > made else None
            legs.append((state, target, label,
                         None if segment is None else segment[4], segment))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_rounds", recorded)
        mp.setattr(planner, "_left_route", recorded_leg)
        yield


def _raises(segments: list) -> list:
    """(state, z, p1, p2, q, label, N, parts) of every stratum raise among
    the recorded segments, whose parts are (F-E, p2/q) and (z, p1/q)."""
    raises = []
    for state, parts, label, leg, n in segments:
        if leg == "the raise":
            (_, p2, q, _), (z, p1, _, _) = parts
            raises.append((state, z, p1, p2, q, label, n, parts))
    return raises


def _rule(state, parts) -> int | None:
    """The rule's N, or None past 2**20 as in the doubling searches."""
    rounds = planner._least_rounds(state, parts)
    return rounds if rounds <= 1 << 20 else None


@pytest.fixture(scope="module")
def off_grid():
    """The sample's (u1, u2, plan or PlanError), its segments and its
    leftward stratum legs."""
    outcomes, segments, legs = [], [], []
    with _recording(segments, legs):
        for u1, u2, label, params in _sample():
            assert chamber_of(u1).index == chamber_of(u2).index
            try:
                outcomes.append((u1, u2, plan(u1, u2, label, params)))
            except PlanError as err:
                outcomes.append((u1, u2, err))
    return outcomes, segments, legs


@pytest.fixture(scope="module")
def grids():
    """The segments and leftward stratum legs of the grids of
    tests/golden/verify.json."""
    segments, legs = [], []
    with _recording(segments, legs):
        verify_stability(SurfaceParams(1), 3, Q(1, 4))
        verify_stability(SurfaceParams(2), 3, Q(1, 4), mu_min=1, min_index=1)
    return segments, legs


def test_off_grid_verdicts_certify_and_replay_exactly(off_grid):
    outcomes, _, _ = off_grid
    for u1, u2, result in outcomes:
        assert not isinstance(result, PlanError), (u1, u2, result)
        raw = raw_from(u1)
        for step in result.steps:
            check_step(raw, step)
            raw = apply_step(raw, step)
        assert normalize(raw) == u2 == result.end


def _doubling_rounds(state, z, p1, p2, q, label) -> int | None:
    """The least N = 1, 2, 4, ... whose rounds certify (the search the
    closed form replaced), or None past 2**20."""
    rounds = 1
    while rounds <= 1 << 20:
        t1, t2 = Q(p1, q) / rounds, Q(p2, q) / rounds
        moves = [(F - E, t2.numerator, t2.denominator, planner.ALWAYS),
                 (z, t1.numerator, t1.denominator, planner.STRATUM)] * rounds
        try:
            planner._certify(state, moves, label, [])
            return rounds
        except PlanError:
            rounds *= 2
    return None


def test_interleave_round_count_matches_a_doubling_search(off_grid, grids):
    # raises along negative classes outside the B-kF, B-kF-E families,
    # which label no stratum (`label_for` refuses them) but which the
    # planner takes as a label core: on these the range of F-E in the first
    # round can bind
    other_segments, params = [], SurfaceParams(2)
    with _recording(other_segments, []):
        for a in (B + E, 2 * B + 2 * E, B - F + E, 2 * B - F, B - 2 * E):
            label = StratumLabel(codim(a, params), (a,))
            for i, j in itertools.product(range(7, 25), range(1, 6)):
                for k in range(j + 1, 6):
                    with suppress(PlanError):
                        plan_vertical(normalized(Q(i, 6), Q(j, 6)), Q(k, 6),
                                      label, params)
    grid_calls, off_grid_calls, other_calls = (
        _raises(grids[0]), _raises(off_grid[1]), _raises(other_segments))
    calls = grid_calls + off_grid_calls + other_calls
    mismatches = [c for c in calls
                  if not _doubling_rounds(*c[:6]) == c[6] == _rule(c[0], c[7])]
    assert mismatches == []
    assert Counter(c[6] for c in grid_calls) == {1: 394, 2: 6}
    assert Counter(c[6] for c in other_calls) == {
        1: 492, 2: 137, 4: 107, 8: 53, 16: 9}
    assert Counter(c[6] for c in off_grid_calls) == {
        1: 5197, 2: 182, 4: 93, 8: 51, 16: 24, 32: 11, 64: 7, 128: 5, 256: 5}


def test_other_segments_take_one_round(off_grid, grids):
    # the drop, the rightward step, the open hop, the leftward drop and the
    # open raise, whose end keeps F-E at area 1 - c' > 0
    segments = [s for s in off_grid[1] + grids[0]
                if len(s[1]) == 1 or s[3] == "the open raise"]
    assert {s[3] for s in segments} == {
        "the drop", "the rightward step", "the open hop", "the leftward leg",
        "the open raise"}
    assert {planner._least_rounds(*s[:2]) for s in segments} == {1}
    assert {s[4] for s in segments} == {1}


# -- the leftward stratum leg ------------------------------------------------

_MAX_HOPS = 256


def _reach_bound(state, z) -> Q:
    """Infimum of the normalized mu that one hop along z reaches: along the
    hop the area of z changes by z.z + 1 - z.B per unit t, and where that
    drift is negative the hop ends at the wall of z."""
    vb, _, _, zz = z.pairings
    drift = zz + 1 - vb
    if drift >= 0:
        return Q(1)
    a = planner._area3(state, z)  # the scale d of the state cancels
    return Q(-drift * state[0] + a, -drift * state[1] + a)


def _hop(state, z, mu):
    """One leftward hop to normalized mu: fiber companion first, then z."""
    num, den = planner._hop_parameter(state, mu.numerator, mu.denominator)
    return [(F, (1 - z.pairings[0]) * num, den, planner.ALWAYS),
            (z, num, den, planner.STRATUM)]


def _hop_chain(state, target, label, moves, states):
    """The leg the closed-form rounds replaced: hops toward targets picked
    by `simplest_between` just right of each hop's reach bound, with the
    blow-up area dropped to the floor min(c, c', (mu' - limit)/2) before a
    hop that could not reach mu' otherwise; past _MAX_HOPS hops the target
    is refused.  Appends the moves and their states, as
    `planner._left_route` does, and returns the end state."""
    z = label.core[0]
    limit = max(1, -z.q)
    if target.mu <= limit:
        raise PlanError(f"mu' = {target.mu} is unreachable along {z}")
    floor = min(Q(state[2], state[1]), target.c, (target.mu - limit) / 2)
    for _ in range(_MAX_HOPS):
        c = Q(state[2], state[1])
        if target.mu <= _reach_bound(state, z) and c > floor:
            drop = planner._drop(state, floor.numerator, floor.denominator)
            state = planner._certify(state, [drop], label, states)
            moves.append(drop)
        bound = _reach_bound(state, z)
        if target.mu > bound:
            hop = _hop(state, z, target.mu)
            moves += hop
            return planner._certify(state, hop, label, states)
        mu = Q(state[0], state[1])
        hop = _hop(state, z, simplest_between(bound, (7 * bound + mu) / 8))
        state = planner._certify(state, hop, label, states)
        moves += hop
    raise PlanError(f"leftward target {target.mu} needs more than"
                    f" {_MAX_HOPS} hops along {z}")


def _doubling_left_rounds(state, target, label) -> int | None:
    """The least N = 1, 2, 4, ... whose rounds of (F, z, E) certify after
    the leg's drop to its floor, from the leg's amounts in `Fraction`s, or
    None past 2**20."""
    z = label.core[0]
    vb, _, ve, _ = z.pairings
    floor = min(Q(state[2], state[1]), target.c,
                (target.mu - max(1, -z.q)) / 2)
    if ve and Q(state[2], state[1]) > floor:
        state = planner._certify(
            state, [planner._drop(state, floor.numerator, floor.denominator)],
            label, [])
    b, f, _, d = state
    t = Q(f, d) * (Q(b, f) - target.mu) / (target.mu - 1)
    parts = [(F, (1 - vb) * t, planner.ALWAYS), (z, t, planner.STRATUM)]
    parts += [(E, (1 - floor) * t, planner.ALWAYS)] if ve else []
    rounds = 1
    while rounds <= 1 << 20:
        moves = [(a, (s / rounds).numerator, (s / rounds).denominator, tag)
                 for a, s, tag in parts] * rounds
        try:
            planner._certify(state, moves, label, [])
            return rounds
        except PlanError:
            rounds *= 2
    return None


def _verdict(leg, state, target, label) -> bool:
    """Whether the leg and then the vertical leg to target.c certify."""
    try:
        end = leg(state, target, label, [], [state])
        planner._vertical_steps(end, target.c, label, None, None, [], [end])
    except PlanError:
        return False
    return True


def test_reference_hop_reach_bound():
    # along B-2F-E from (4, 1/2) one hop reaches exactly mu' > 19/7
    state = planner._state_of(normalized(4, Q(1, 2)))
    assert _reach_bound(state, B - 2 * F - E) == Q(19, 7)


def test_left_round_count_matches_a_doubling_search(off_grid, grids):
    legs = off_grid[2] + grids[1]
    mismatches = [leg for leg in legs
                  if not (_doubling_left_rounds(*leg[:3]) == leg[3]
                          == _rule(*leg[4][:2]))]
    assert mismatches == []
    assert Counter(leg[3] for leg in grids[1]) == {1: 298, 2: 10}
    assert Counter(leg[3] for leg in off_grid[2]) == {
        1: 5117, 2: 17, 4: 13, 8: 8, 16: 5, 32: 4, 128: 1}


def test_left_leg_certifies_every_hop_chain_verdict(off_grid, grids):
    legs = off_grid[2] + grids[1]
    lost = [leg for leg in legs
            if _verdict(_hop_chain, *leg[:3])
            and not _verdict(planner._left_route, *leg[:3])]
    assert lost == []

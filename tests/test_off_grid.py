"""Transport away from the verification grid, and the interleave round count.

A seeded sample of same-chamber verdicts: g = 1, 2, 3, chambers 2g..2g+7,
blow-up areas c = n/den with den <= 4,099, and mu either anywhere in the
chamber at that c or, for a fifth of the points, within 10^-3 of one of the
chamber's two walls.  Every certified plan is replayed with the independent
`Fraction` engine of `inflation`.  The same sample, and the two grids of
`tests/golden/verify.json`, feed every call of `planner._interleaved` to a
doubling search kept here as the reference for its closed-form round count.
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
def _recording(calls: list):
    """Record (state, z, p1, p2, q, label, N) for every call of
    `planner._interleaved` (t1 = p1/q, t2 = p2/q), N = None when it
    raised."""
    real = planner._interleaved

    def recorded(state, z, p1, p2, q, label):
        try:
            moves, end = real(state, z, p1, p2, q, label)
        except PlanError:
            calls.append((state, z, p1, p2, q, label, None))
            raise
        calls.append((state, z, p1, p2, q, label, len(moves) // 2))
        return moves, end

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_interleaved", recorded)
        yield


@pytest.fixture(scope="module")
def off_grid():
    """The sample's (u1, u2, plan or PlanError), and its interleaved calls."""
    outcomes, calls = [], []
    with _recording(calls):
        for u1, u2, label, params in _sample():
            assert chamber_of(u1).index == chamber_of(u2).index
            try:
                outcomes.append((u1, u2, plan(u1, u2, label, params)))
            except PlanError as err:
                outcomes.append((u1, u2, err))
    return outcomes, calls


def test_off_grid_verdicts_certify_and_replay_exactly(off_grid):
    outcomes, _ = off_grid
    refused = 0
    for u1, u2, result in outcomes:
        if isinstance(result, PlanError):
            assert f"needs more than {planner._MAX_HOPS} hops" in str(result)
            refused += 1
            continue
        raw = raw_from(u1)
        for step in result.steps:
            check_step(raw, step)
            raw = apply_step(raw, step)
        assert normalize(raw) == u2 == result.end
    assert refused == 0


def _doubling_rounds(state, z, p1, p2, q, label) -> int | None:
    """The least N = 1, 2, 4, ... whose rounds certify (the search the
    closed form replaced), or None past 2**20."""
    rounds = 1
    while rounds <= 1 << 20:
        t1, t2 = Q(p1, q) / rounds, Q(p2, q) / rounds
        moves = [(F - E, t2.numerator, t2.denominator, planner.ALWAYS),
                 (z, t1.numerator, t1.denominator, planner.STRATUM)] * rounds
        try:
            planner._certify(state, moves, label)
            return rounds
        except PlanError:
            rounds *= 2
    return None


def test_interleave_round_count_matches_a_doubling_search(off_grid):
    _, off_grid_calls = off_grid
    grid_calls = []
    with _recording(grid_calls):  # the grids of tests/golden/verify.json
        verify_stability(SurfaceParams(1), 3, Q(1, 4))
        verify_stability(SurfaceParams(2), 3, Q(1, 4), mu_min=1, min_index=1)
    # raises along negative classes outside the B-kF, B-kF-E families,
    # which label no stratum (`label_for` refuses them) but which the
    # planner takes as a label core: on these the range of F-E in the first
    # round can bind
    other_calls, params = [], SurfaceParams(2)
    with _recording(other_calls):
        for a in (B + E, 2 * B + 2 * E, B - F + E, 2 * B - F, B - 2 * E):
            label = StratumLabel(codim(a, params), (a,))
            for i, j in itertools.product(range(7, 25), range(1, 6)):
                for k in range(j + 1, 6):
                    with suppress(PlanError):
                        plan_vertical(normalized(Q(i, 6), Q(j, 6)), Q(k, 6),
                                      label, params)
    calls = grid_calls + off_grid_calls + other_calls
    mismatches = [c for c in calls if _doubling_rounds(*c[:6]) != c[6]]
    assert mismatches == []
    assert len(grid_calls) == 360
    assert Counter(c[6] for c in other_calls) == {
        1: 492, 2: 137, 4: 107, 8: 53, 16: 9}
    assert Counter(c[6] for c in off_grid_calls) == {
        1: 4939, 2: 182, 4: 93, 8: 51, 16: 24, 32: 11, 64: 7, 128: 5, 256: 5}

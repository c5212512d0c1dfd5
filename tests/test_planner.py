"""Transport recipes: vertical, rightward, leftward, composed plans,
grid verification and discrepancy detection."""

import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from ruledcone.cone import (ChamberId, area, chamber_index, chamber_of,
                            is_valid, normalized)
from ruledcone.discrepancies import detected_discrepancies
from ruledcone.inflation import InflationStep, apply_step, normalize, raw_from
from ruledcone.lattice import B, E, F, SurfaceParams, parse_class
from ruledcone.planner import (ALWAYS, OPEN, STRATUM, InflationPlan, PlanError,
                               _certify, _section, _state_of, plan,
                               plan_left_open, plan_left_stratum, plan_right,
                               plan_vertical, stratum_left_parameter,
                               verify_stability)
from ruledcone.strata import OPEN_LABEL, label_for, stratum_labels

P1 = SurfaceParams(1)
P2 = SurfaceParams(2)


def replay(plan_: InflationPlan):
    raw = raw_from(plan_.start)
    for step in plan_.steps:
        raw = apply_step(raw, step)
    return normalize(raw)


def assert_certified(plan_: InflationPlan, expected_end=None):
    assert plan_.replay() == plan_.end == replay(plan_)
    if expected_end is not None:
        assert plan_.end == expected_end


def test_vertical_open_solved_parameters():
    # raising c from 1/4 to 1/2 at mu = 3 with the section B+F
    pl = plan_vertical(normalized(3, Q(1, 4)), Q(1, 2), OPEN_LABEL, P2, x=1)
    assert [(str(s.z), s.t) for s in pl.steps] == \
        [("B+F", Q(1, 6)), ("F-E", Q(1, 3))]
    assert_certified(pl, normalized(3, Q(1, 2)))
    assert pl.stays_in_chamber()


def test_vertical_identity_is_empty():
    pl = plan_vertical(normalized(3, Q(1, 4)), Q(1, 4), OPEN_LABEL, P2)
    assert pl.steps == ()
    assert pl.end == pl.start


def test_vertical_decrease_is_single_exceptional_step():
    pl = plan_vertical(normalized(3, Q(1, 2)), Q(1, 5), OPEN_LABEL, P2)
    assert [(str(s.z), s.t, s.assumption) for s in pl.steps] == \
        [("E", Q(3, 10), ALWAYS)]
    assert_certified(pl, normalized(3, Q(1, 5)))


def test_vertical_open_searches_section_coefficient():
    # chamber 2g: x = g is infeasible there, the planner falls back
    u = normalized(Q(9, 8), Q(1, 8))
    assert chamber_of(u).index == 2 * P1.g
    pl = plan_vertical(u, Q(7, 8), OPEN_LABEL, P1)
    assert_certified(pl, normalized(Q(9, 8), Q(7, 8)))
    assert str(pl.steps[0].z) == "B"  # x = 1 fails, x = 0 works
    with pytest.raises(PlanError, match="mu >"):
        plan_vertical(u, Q(7, 8), OPEN_LABEL, P1, x=1)
    with pytest.raises(PlanError) as err:
        plan_vertical(u, Q(7, 8), OPEN_LABEL, P2, x=2)
    assert str(err.value) == (
        "raising the blow-up area to 7/8 along B+2F and F-E needs"
        " mu > 23/8 (mu = 9/8): no positive solution")


def test_free_section_coefficient_is_the_largest_that_works():
    # the closed form for x against a downward search over pinned x
    step = Q(1, 8)
    for g in range(4):
        params = SurfaceParams(g)
        for i in range(8, 33):  # mu = 1 .. 4
            for j in range(1, 8):
                u = normalized(i * step, j * step)
                for k in range(j + 1, 8):
                    pinned = None
                    for x in range(g, -1, -1):
                        try:
                            pinned = plan_vertical(u, k * step, OPEN_LABEL,
                                                   params, x=x)
                            break
                        except PlanError:
                            pass
                    assert plan_vertical(u, k * step, OPEN_LABEL,
                                         params) == pinned


def test_open_left_target_below_1_is_refused_at_g_0():
    # at g = 0 the hop along B reaches any mu > 0, but the cone ends at 1
    with pytest.raises(PlanError) as err:
        plan_left_open(normalized(2, Q(1, 2)), Q(1, 5), SurfaceParams(0))
    assert str(err.value) == ("open-stratum leftward targets must lie in"
                              " [1, 2], got 1/5")


def test_open_left_keeps_its_target_in_the_cone_at_g_0():
    # (1/2, 1/4) fails the mu >= 1 policy; it was once planned and certified
    u, P0 = normalized(2, Q(1, 4)), SurfaceParams(0)
    with pytest.raises(PlanError, match=r"must lie in \[1, 2\], got 1/2"):
        plan_left_open(u, Q(1, 2), P0)
    pl = plan_left_open(u, 1, P0)
    assert_certified(pl, normalized(1, Q(1, 4)))
    assert is_valid(pl.end)


@pytest.mark.parametrize("call, x", [
    # a pure E drop and an empty leftward leg: neither builds a section step
    (lambda x: plan_vertical(normalized(Q(5, 2), Q(1, 2)), Q(1, 4),
                             OPEN_LABEL, P2, x=x), 5),
    (lambda x: plan_left_open(normalized(Q(5, 2), Q(1, 2)), Q(5, 2), P2,
                              x=x), -1),
])
def test_pinned_x_is_checked_up_front(call, x):
    with pytest.raises(PlanError) as err:
        call(x)
    assert str(err.value) == f"section coefficient x={x} outside 0..2"
    assert not any(step.z.p for step in call(2).steps)


def test_pinned_x_is_refused_under_a_stratum_label():
    # x pins a section of the open stratum; the range is checked first
    label = label_for(B - 2 * F, P2)
    u1, u2 = normalized(4, Q(1, 2)), normalized(Q(15, 4), Q(1, 2))
    for call in (lambda x: plan(u1, u2, label, P2, x=x),
                 lambda x: plan_vertical(u1, Q(1, 4), label, P2, x=x)):
        with pytest.raises(PlanError) as err:
            call(1)
        assert str(err.value) == ("section coefficient x=1 pins an"
                                  " open-stratum section; label B-2F is not"
                                  " open")
        with pytest.raises(PlanError, match="x=3 outside 0..2"):
            call(3)
        assert call(None).steps


def test_left_refusals_name_the_targets_they_accept():
    # mu itself is accepted (an empty leg), so the intervals are closed at mu;
    # at mu = 1 they are empty and mu is the only target left
    u = normalized(1, Q(1, 4))
    with pytest.raises(PlanError) as err:
        plan_left_open(u, 2, P1)
    assert str(err.value) == ("open-stratum leftward targets must equal"
                              " mu = 1 (an empty leg), got 2")
    assert plan_left_open(u, 1, P1).steps == ()
    with pytest.raises(PlanError) as err:
        plan_left_stratum(u, 2, label_for(B - E, P1), P1)
    assert str(err.value) == ("leftward targets must equal mu = 1"
                              " (an empty leg), got 2")
    with pytest.raises(PlanError) as err:
        plan_left_open(normalized(2, Q(1, 4)), 3, P1)
    assert str(err.value) == ("open-stratum leftward targets must lie in"
                              " (1, 2], got 3")
    with pytest.raises(PlanError) as err:
        plan_left_stratum(normalized(2, Q(1, 4)), 3, label_for(B - F, P1), P1)
    assert str(err.value) == "leftward targets must lie in (1, 2], got 3"


def test_left_stratum_refuses_the_open_label():
    with pytest.raises(PlanError) as err:
        plan_left_stratum(normalized(4, Q(1, 2)), 3, OPEN_LABEL, P2)
    assert str(err.value) == ("leftward stratum moves need a"
                              " positive-codimension label")


def test_vertical_stratum_interleaves_near_wall():
    u = normalized(Q(21, 10), Q(1, 5))
    lab = label_for(B - 2 * F, P1)
    pl = plan_vertical(u, Q(9, 10), lab, P1)
    assert_certified(pl, normalized(Q(21, 10), Q(9, 10)))
    assert len(pl.steps) >= 4  # a single round would leave its range
    assert {s.assumption for s in pl.steps} == {ALWAYS, STRATUM}


def test_vertical_solutions_match_closed_forms():
    # t1 = (c2-c1)/(mu+k-c2) for B-kF, t1 = (c2-c1)/(mu+k+1-c2) for B-kF-E
    mu, c1, c2 = Q(4), Q(1, 4), Q(2, 3)
    for k in (1, 2):
        lab = label_for(B - k * F, P2)
        pl = plan_vertical(normalized(mu, c1), c2, lab, P2)
        t1 = sum(s.t for s in pl.steps if s.assumption == STRATUM)
        t2 = sum(s.t for s in pl.steps if s.assumption == ALWAYS)
        assert t1 == (c2 - c1) / (mu + k - c2)
        assert t2 == (mu + k) * t1
        lab = label_for(B - k * F - E, P2)
        pl = plan_vertical(normalized(mu, c1), c2, lab, P2)
        t1 = sum(s.t for s in pl.steps if s.assumption == STRATUM)
        assert t1 == (c2 - c1) / (mu + k + 1 - c2)


def test_plan_right():
    pl = plan_right(normalized(2, Q(1, 2)), 5)
    assert [(str(s.z), s.t, s.assumption) for s in pl.steps] == \
        [("F", Q(3), ALWAYS)]
    assert_certified(pl, normalized(5, Q(1, 2)))
    assert plan_right(normalized(2, Q(1, 2)), 2).steps == ()
    # rightward moves may change chamber and are still valid
    pl = plan_right(normalized(2, Q(1, 2)), Q(17, 8))
    assert chamber_of(pl.start) != chamber_of(pl.end)
    with pytest.raises(PlanError):
        plan_right(normalized(2, Q(1, 2)), 1)


def test_plan_left_open_example():
    pl = plan_left_open(normalized(4, Q(1, 2)), 3, P2, x=2)
    assert pl.steps[0].z == B + 2 * F and pl.steps[0].t == 1
    mid = pl.intermediates()[0]
    assert mid == normalized(3, Q(1, 4))
    assert_certified(pl, normalized(3, Q(1, 2)))
    assert pl.steps[0].assumption == OPEN


def test_left_moves_with_equal_target_are_empty():
    u = normalized(4, Q(1, 2))
    assert plan_left_open(u, 4, P2).steps == ()
    assert plan_left_stratum(u, 4, label_for(B - 2 * F, P2), P2).steps == ()


def test_plan_left_open_identityless_bounds():
    # the limit of the normalized base area along B+xF is x itself
    with pytest.raises(PlanError, match="unreachable"):
        plan_left_open(normalized(4, Q(1, 2)), 2, P2, x=2)
    with pytest.raises(PlanError):
        plan_left_open(normalized(4, Q(1, 2)), Q(5, 2), P2, x=3)  # x > g
    with pytest.raises(PlanError):
        plan_left_open(normalized(4, Q(1, 2)), 5, P2)  # not leftward


def test_left_hop_parameter_closed_form():
    # the hop parameter t = (mu - mu')/(mu' - 1), derived, not transcribed
    rng = random.Random(41)
    for _ in range(100):
        k = rng.randint(1, 6)
        mu_t = k + Q(rng.randint(1, 40), 8)
        mu = mu_t + Q(rng.randint(1, 40), 8)
        u = normalized(mu, Q(1, 2))
        got = stratum_left_parameter(u, B - k * F, mu_t)
        assert got == (mu - mu_t) / (mu_t - 1)


def test_left_hop_parameter_checks_its_start_and_names_mu():
    # c = 2 lies outside the cone: refused, as plan_left_stratum refuses it
    outside = normalized(3, 2)
    with pytest.raises(ValueError, match="0 < e_1 < 1 violated"):
        stratum_left_parameter(outside, B - F, 2)
    with pytest.raises(ValueError, match="0 < e_1 < 1 violated"):
        plan_left_stratum(outside, 2, label_for(B - F, P2), P2)
    with pytest.raises(PlanError) as exc:
        stratum_left_parameter(normalized(3, Q(1, 2)), B - F, 3)
    assert str(exc.value) == "leftward target must lie in (1, 3), got 3"
    # (B+2F).B = 2 > 1: a hop along it moves mu right, not left
    with pytest.raises(PlanError) as exc:
        stratum_left_parameter(normalized(3, Q(1, 2)), B + 2 * F, 2)
    assert str(exc.value) == "B+2F is not a leftward class"


def test_plan_left_stratum_single_hop():
    u = normalized(4, Q(1, 2))
    lab = label_for(B - 2 * F, P2)
    pl = plan_left_stratum(u, 3, lab, P2)
    # fiber companion first, then the stratum class, then the c-restore
    assert pl.steps[0].z == F and pl.steps[1].z == B - 2 * F
    assert pl.steps[1].t == (u.mu - 3) / (3 - 1)
    assert pl.steps[0].t == 3 * pl.steps[1].t  # (k+1) t fibers
    assert_certified(pl, normalized(3, Q(1, 2)))


def test_plan_left_stratum_reach_certificate():
    # along B-2F-E from (4, 1/2) the leg reaches mu' = 3 (a single hop
    # reaches down to 19/7, see test_off_grid.py::_reach_bound)
    u = normalized(4, Q(1, 2))
    lab = label_for(B - 2 * F - E, P2)
    pl = plan_left_stratum(u, 3, lab, P2)
    assert_certified(pl, normalized(3, Q(1, 2)))
    # a target below the iterated limit max(1, k) = 2 is rejected outright
    with pytest.raises(PlanError, match="unreachable"):
        plan_left_stratum(u, Q(3, 2), lab, P2)


def _b2fe(params=P2):
    return label_for(B - 2 * F - E, params)


# Each plan's steps ("class t assumption") or error text at a boundary of an
# integer comparison inside a plan, as captured from the Fraction planner of
# commit 0427f23; the two leftward legs that the closed-form rounds changed
# are recomputed.  From (4, 1/2) a hop along B-2F-E reaches down to 19/7,
# from (4, 1/4) and (3, 1/2) down to 13/5; its wall limit is max(1, 2) = 2.
BOUNDARIES = {
    # equal c at both ends, so the cap min(c1, c2) ties; 3 > 19/7: one hop
    "c cap tie, one hop": (
        lambda: plan_left_stratum(normalized(4, Q(1, 2)), 3, _b2fe(), P2),
        ["F 3/2 always", "B-2F-E 1/2 stratum", "E 1/4 always"]),
    "c cap tie in plan": (
        lambda: plan(normalized(Q(5, 2), Q(1, 2)),
                     normalized(Q(9, 4), Q(1, 2)), label_for(B - F - E, P2),
                     P2),
        ["F 2/5 always", "B-F-E 1/5 stratum", "E 1/10 always"]),
    # mu' is the reach bound and c equals the floor, so no drop comes first;
    # the last round's range of B-2F-E asks for N = 2
    "c cap tie, target at the bound": (
        lambda: plan_left_stratum(normalized(4, Q(1, 4)), Q(13, 5), _b2fe(),
                                  P2),
        ["F 21/16 always", "B-2F-E 7/16 stratum", "E 21/64 always",
         "F 21/16 always", "B-2F-E 7/16 stratum", "E 21/64 always"]),
    # the target's c caps the floor and ties (mu' - limit)/2 = 1/4
    "target c ties the floor": (
        lambda: plan(normalized(3, Q(1, 2)), normalized(Q(5, 2), Q(1, 4)),
                     _b2fe(), P2),
        ["E 1/4 always", "F 1 always", "B-2F-E 1/3 stratum", "E 1/4 always"]),
    # mu' = mu: the horizontal leg is empty
    "empty horizontal leg": (
        lambda: plan(normalized(Q(5, 2), Q(3, 10)),
                     normalized(Q(5, 2), Q(2, 5)), label_for(B - F, P2), P2),
        ["F-E 7/62 always", "B-F 1/31 stratum"]),
    "empty plan": (
        lambda: plan_left_stratum(normalized(4, Q(1, 2)), 4, _b2fe(), P2), []),
    # open-stratum leftward targets exactly at x and exactly at g
    "open target at x": (
        lambda: plan_left_open(normalized(4, Q(1, 2)), 1, P2, x=1),
        "mu' = 1 is unreachable along B+1F: the normalized limit is 1"),
    "open target at g": (
        lambda: plan_left_open(normalized(4, Q(1, 2)), 2, P2, x=1),
        "open-stratum leftward targets must lie in (2, 4], got 2"),
    "open target at x = g": (
        lambda: plan_left_open(normalized(4, Q(1, 2)), 2, P2),
        "mu' = 2 is unreachable along B+2F: the normalized limit is 2"),
    "open target at 1, g = 0": (
        lambda: plan_left_open(normalized(2, Q(1, 2)), 1, SurfaceParams(0)),
        ["B 1 open", "B 1 open", "F-E 1 always"]),
    # stratum-left targets exactly at the wall limit max(1, k)
    "stratum target at the wall limit": (
        lambda: plan_left_stratum(normalized(4, Q(1, 2)), 2, _b2fe(), P2),
        "mu' = 2 is unreachable along B-2F-E: the leftward leg is bounded"
        " by the wall at 2"),
    "stratum target at the wall limit, B-2F": (
        lambda: plan_left_stratum(normalized(4, Q(1, 2)), 2,
                                  label_for(B - 2 * F, P2), P2),
        "mu' = 2 is unreachable along B-2F: the leftward leg is bounded by"
        " the wall at 2"),
    # mu' = 19/7 is exactly one hop's reach bound and c > floor 5/14: drop
    # first, hold c at the floor, then raise it back to 1/2
    "target at the reach bound, drop first": (
        lambda: plan_left_stratum(normalized(4, Q(1, 2)), Q(19, 7), _b2fe(),
                                  P2),
        ["E 1/7 always", "F 9/4 always", "B-2F-E 3/4 stratum",
         "E 27/56 always", "F-E 33/146 always", "B-2F-E 7/146 stratum"]),
}


@pytest.mark.parametrize("case", BOUNDARIES)
def test_integer_comparisons_at_their_boundaries(case):
    call, expected = BOUNDARIES[case]
    try:
        pl = call()
    except PlanError as err:
        assert str(err) == expected
        return
    assert [f"{s.z} {s.t} {s.assumption}" for s in pl.steps] == expected
    assert_certified(pl)


def test_plan_left_stratum_multi_round():
    # one hop cannot pass the wall attractor; the leg drops the blow-up area
    # to its floor, then holds it there over rounds of (F, B-F-E, E)
    u1, u2 = normalized(2, Q(7, 8)), normalized(Q(5, 4), Q(1, 8))
    lab = label_for(B - F - E, P1)
    pl = plan(u1, u2, lab, P1)
    assert_certified(pl, u2)
    assert [str(s.z) for s in pl.steps] == ["E"] + ["F", "B-F-E", "E"] * 8
    assert max(s.t.denominator for s in pl.steps) == 64


def test_left_route_certifies_near_the_wall():
    # the hop chain refused (95/64, 1/64) -> (201/200, 4999/10^6), which
    # needed 294 hops against its cap of 256: the leg drops c to the floor
    # 1/400, takes 512 rounds and raises c to 4999/10^6, and the Fraction
    # engine replays it
    lab = label_for(B - F - E, P1)
    u1, u2 = normalized(Q(95, 64), Q(1, 64)), normalized(Q(201, 200),
                                                         Q(4999, 10**6))
    pl = plan(u1, u2, lab, P1)
    assert len(pl.steps) == 1539
    assert sum(s.assumption == STRATUM for s in pl.steps) == 512 + 1
    assert_certified(pl, u2)  # replays through the Fraction engine too
    # a start near the wall of B-F-E: dropping c first raises its area
    u1, u2 = normalized(Q(3, 2), Q(31999, 64000)), normalized(Q(503, 500),
                                                              Q(5999, 10**6))
    assert_certified(plan(u1, u2, lab, P1), u2)


def _walked(monkeypatch) -> list[int]:
    """The number of moves of each `_certify` walk from here on."""
    import ruledcone.planner as planner

    walks, certify = [], planner._certify

    def counted(state, moves, *args):
        walks.append(len(moves))
        return certify(state, moves, *args)

    monkeypatch.setattr(planner, "_certify", counted)
    return walks


def test_left_route_round_cap_refuses_at_once(monkeypatch):
    # 10^-9 above the wall limit 1 the rule asks for 2^31 rounds, refused
    # after the drop and one round of (F, B-F-E, E), before its rounds are
    # built
    lab = label_for(B - F - E, P1)
    u1, u2 = normalized(Q(95, 64), Q(1, 64)), normalized(1 + Q(1, 10**9),
                                                         Q(1, 10**10))
    walks = _walked(monkeypatch)
    with pytest.raises(PlanError) as err:
        plan(u1, u2, lab, P1)
    assert str(err.value) == ("the leftward leg along B-F-E needs 2147483648"
                              " interleaved rounds, more than 1048576")
    assert walks == [1, 3]


def test_rounds_keep_the_walks_refusal_where_no_count_certifies():
    # raising (2, 1/2) to c' = 1 along B-F ends at zero area of F-E, so no
    # number of rounds certifies: the one round's refusal is raised, not a
    # cap refusal
    import ruledcone.planner as planner

    lab = label_for(B - F, P1)
    state = _state_of(normalized(2, Q(1, 2)))
    p1, p2, q = planner._vertical_solve(state, B - F, Q(1))
    parts = [(F - E, p2, q, ALWAYS), (B - F, p1, q, STRATUM)]
    assert planner._least_rounds(state, parts) == 1
    with pytest.raises(PlanError) as walk:
        _certify(state, parts, lab)
    with pytest.raises(PlanError) as err:
        planner._rounds(state, parts, lab, "the raise")
    assert str(err.value) == str(walk.value)


def test_plan_same_point_and_vertical_only():
    u = normalized(Q(5, 2), Q(3, 10))
    assert plan(u, u, OPEN_LABEL, P2).steps == ()
    pl = plan(u, normalized(Q(5, 2), Q(2, 5)), OPEN_LABEL, P2)
    assert {s.assumption for s in pl.steps} <= {OPEN, ALWAYS}
    assert_certified(pl, normalized(Q(5, 2), Q(2, 5)))
    assert pl.stays_in_chamber()


def test_plan_right_then_vertical():
    u1, u2 = normalized(Q(13, 4), Q(1, 2)), normalized(Q(7, 2), Q(5, 8))
    assert chamber_of(u1) == chamber_of(u2)
    pl = plan(u1, u2, OPEN_LABEL, P2)
    assert pl.steps[0].z == F and pl.steps[0].t == Q(1, 4)
    assert_certified(pl, u2)


def test_plan_preconditions():
    with pytest.raises(PlanError, match="cross-chamber"):
        plan(normalized(Q(5, 2), Q(3, 10)), normalized(Q(11, 5), Q(3, 10)),
             OPEN_LABEL, P2)
    with pytest.raises(PlanError, match="mu > g"):
        plan(normalized(Q(3, 2), Q(3, 4)), normalized(Q(3, 2), Q(5, 8)),
             OPEN_LABEL, P2)
    with pytest.raises(PlanError, match="mu > 1"):
        plan(normalized(1, Q(1, 2)), normalized(1, Q(1, 4)),
             label_for(B - E, P1), P1)


def test_plan_label_absent():
    lab2 = label_for(B - 2 * F, P1)
    with pytest.raises(PlanError, match="absent"):
        plan(normalized(Q(3, 2), Q(3, 4)), normalized(Q(3, 2), Q(5, 8)),
             lab2, P1)


def test_label_absent_at_the_target_fails_fast():
    # B-F-E has zero area at (5/4, 1/4) and negative area at (3/2, 3/4); the
    # check at the target keeps B-F-E's area positive at the end of the
    # interleaved c-restore, as the round-count rule needs, so the refusal
    # comes before any round is built
    u = normalized(Q(3, 2), Q(1, 4))
    lab = label_for(B - F - E, P1)
    with pytest.raises(PlanError, match="absent at \\(5/4, 1/4\\)"):
        plan_left_stratum(u, Q(5, 4), lab, P1)
    with pytest.raises(PlanError, match="absent at \\(3/2, 3/4\\)"):
        plan_vertical(u, Q(3, 4), lab, P1)


def test_interleave_round_count_is_capped(monkeypatch):
    # N grows like 1/(1 - c_target): raising (2, 1/2) to 1 - 10^-9 along
    # B-F needs 2^28 rounds, refused by the rule after one round, before its
    # rounds are built (a list of 2^29 steps would not fit in memory)
    lab = label_for(B - F, P1)
    u = normalized(2, Q(1, 2))
    walks = _walked(monkeypatch)
    with pytest.raises(PlanError, match="needs 268435456 interleaved rounds,"
                       " more than 1048576"):
        plan_vertical(u, 1 - Q(1, 10**9), lab, P1)
    with pytest.raises(PlanError, match="more than 1048576"):
        plan_vertical(u, 1 - Q(1, 10**12), lab, P1)
    assert walks == [2, 2]


def test_interleave_round_cap_is_inclusive(monkeypatch):
    # (2, 1/2) -> (2, 999/1000) along B-F takes 256 rounds: a cap of 256
    # admits it, as the doubling search tried N up to its cap, and 128 not
    import ruledcone.planner as planner

    lab = label_for(B - F, P1)
    u = normalized(2, Q(1, 2))
    monkeypatch.setattr(planner, "_MAX_ROUNDS", 256)
    assert len(plan_vertical(u, Q(999, 1000), lab, P1).steps) == 512
    monkeypatch.setattr(planner, "_MAX_ROUNDS", 128)
    with pytest.raises(PlanError, match="needs 256 interleaved rounds, more"
                       " than 128"):
        plan_vertical(u, Q(999, 1000), lab, P1)


def test_replay_keeps_the_stratum():
    # every range holds, but the one step leaves the stratum of B-2F: its
    # area is 2 at (4, 1/2) and 0 at (2, 1/4)
    pl = InflationPlan(normalized(4, Q(1, 2)), ((B, 1, 1, OPEN),),
                       normalized(2, Q(1, 4)), label_for(B - 2 * F, P2))
    text = "label B-2F is absent at (2, 1/4): B-2F has non-positive area"
    for use in (pl.replay, pl.intermediates, pl.as_json):
        with pytest.raises(PlanError) as err:
            use()
        assert str(err.value) == text


def test_plan_replay_exactness_random_pairs():
    rng = random.Random(3)
    count = 0
    while count < 60:
        mu1 = 1 + Q(rng.randint(1, 40), 8)
        c1 = Q(rng.randint(1, 15), 16)
        u1 = normalized(mu1, c1)
        cid = chamber_of(u1)
        mu2 = mu1 + Q(rng.randint(-8, 8), 16)
        c2 = Q(rng.randint(1, 15), 16)
        u2 = normalized(mu2, c2)
        if not is_valid(u2) or chamber_of(u2).index != cid.index:
            continue
        labels = stratum_labels(u1, P2)
        label = labels[rng.randrange(len(labels))]
        if label.is_open and not (mu1 > P2.g and mu2 > P2.g):
            continue
        pl = plan(u1, u2, label, P2)
        assert_certified(pl, u2)
        for step in pl.steps:
            assert step.t > 0
        count += 1


def test_plan_steps_respect_ranges_by_replay():
    # tampering with a certified plan makes replay fail; the first step to
    # leave its range is the B-2F-E hop, and the message names its bound
    u = normalized(4, Q(1, 2))
    lab = label_for(B - 2 * F - E, P2)
    pl = plan_left_stratum(u, 3, lab, P2)
    for factor, text in (
            (50, "step (B-2F-E, 25) exceeds its range [0, 153/10)"),
            (2, "step (B-2F-E, 1) exceeds its range [0, 9/10)")):
        bad = InflationPlan(pl.start,
                            tuple((z, factor * p, q, tag)
                                  for z, p, q, tag in pl.moves), pl.end,
                            pl.label)
        with pytest.raises(PlanError) as err:
            bad.replay()
        assert str(err.value) == text


def test_certified_walk_range_boundaries():
    # (7/3, 2/5) is held with denominators cleared; the bound of a step is
    # strict and exact, whatever the scale of the state
    u = normalized(Q(7, 3), Q(2, 5))
    at_bound = InflationPlan(u, ((E, 2, 5, ALWAYS),), u)
    with pytest.raises(PlanError) as err:
        at_bound.replay()
    assert str(err.value) == "step (E, 2/5) exceeds its range [0, 2/5)"
    # an unreduced p/q is the same t
    at_bound = InflationPlan(u, ((E, 6, 15, ALWAYS),), u)
    with pytest.raises(PlanError) as err:
        at_bound.replay()
    assert str(err.value) == "step (E, 2/5) exceeds its range [0, 2/5)"
    t = Q(2, 5) - Q(1, 10**9)
    inside = InflationPlan(u, ((E, t.numerator, t.denominator, ALWAYS),), u)
    assert inside.replay() == normalized(Q(7, 3), Q(1, 10**9))
    assert str(inside.intermediates()[-1]) == "(7/3, 1/1000000000)"
    # after (F, 1/3) the areas are (8/3, 1, 2/5): B-3F has area -1/3
    negative = InflationPlan(u, ((F, 1, 3, ALWAYS),
                                 (B - 3 * F, 1, 1, STRATUM)), u)
    for walk in (negative.replay, negative.intermediates):
        with pytest.raises(PlanError) as err:
            walk()
        assert str(err.value) == "B-3F has non-positive area -1/3 mid-plan"
    # t = p/q needs p >= 0 and q > 0; t = 0 is in range
    for p, q in ((-1, 3), (1, 0), (1, -3), (0, 0)):
        bad = InflationPlan(u, ((F, p, q, ALWAYS),), u)
        for walk in (bad.replay, bad.intermediates):
            with pytest.raises(PlanError) as err:
                walk()
            assert str(err.value) == (f"step (F, {p}/{q}) needs a parameter"
                                      " p/q with p >= 0 and q > 0")
    assert InflationPlan(u, ((F, 0, 7, ALWAYS),), u).replay() == u


U_WALK = normalized(Q(7, 3), Q(2, 5))
U_OPEN = normalized(5, Q(1, 2))
U_B2F = normalized(4, Q(1, 2))


@pytest.mark.parametrize("start, moves, label, text, reached", [
    (U_WALK, ((F, -1, 3, ALWAYS),), OPEN_LABEL,
     "step (F, -1/3) needs a parameter p/q with p >= 0 and q > 0", 0),
    (U_WALK, ((F, 1, 0, ALWAYS),), OPEN_LABEL,
     "step (F, 1/0) needs a parameter p/q with p >= 0 and q > 0", 0),
    (U_WALK, ((F, 1, 3, ALWAYS), (B - 3 * F, 1, 1, STRATUM)), None,
     "B-3F has non-positive area -1/3 mid-plan", 1),
    (U_WALK, ((E, 2, 5, ALWAYS),), OPEN_LABEL,
     "step (E, 2/5) exceeds its range [0, 2/5)", 0),
    # B-2F has area 5/2 after (F, 1/2) and 0 after (B, 5/4), at (2, 2/9);
    # the last F step would restore it, but the walk stops at the loss
    (U_B2F, ((F, 1, 2, ALWAYS), (B, 5, 4, OPEN), (F, 1, 1, ALWAYS)),
     label_for(B - 2 * F, P2),
     "label B-2F is absent at (2, 2/9): B-2F has non-positive area", 1),
    # B+E lowers the area of E by t, B-2E that of F-E, both within range
    (U_OPEN, ((F, 1, 2, ALWAYS), (B + E, 1, 2, OPEN)), OPEN_LABEL,
     "label open is absent at (11/3, 0): E has non-positive area", 1),
    (U_OPEN, ((B - 2 * E, 1, 2, OPEN),), OPEN_LABEL,
     "label open is absent at (10/3, 1): F-E has non-positive area", 0),
    # after (F, 2/3) the areas are (3, 1, 2/5): B-3F has area exactly 0
    (U_WALK, ((F, 2, 3, ALWAYS), (B - 3 * F, 1, 1, STRATUM)), None,
     "B-3F has non-positive area 0 mid-plan", 1),
])
def test_certified_walk_refusal_texts(start, moves, label, text, reached):
    # one failing move per refusal of `_certify`, pinned byte for byte; the
    # label's message comes from `_require_label` at the failing state, and
    # the walk records only the states it reached before the failing move
    states = []
    with pytest.raises(PlanError) as err:
        _certify(_state_of(start), moves, label, states)
    assert str(err.value) == text
    assert len(states) == reached


def test_certified_walk_checks_no_label_without_one():
    # with no label only the steps are checked: E may reach zero area
    state = _certify(_state_of(U_OPEN), ((B + E, 1, 2, OPEN),), None)
    assert state[2] == 0
    with pytest.raises(PlanError, match="E has non-positive area"):
        _certify(_state_of(U_OPEN), ((B + E, 1, 2, OPEN),), OPEN_LABEL)


def test_section_class_is_built_once_per_x():
    assert _section(1, P2) is _section(1, P2) is _section(1, SurfaceParams(5))
    assert _section(1, P2) == B + F and _section(0, P1) == B
    for x, params in ((3, P2), (-1, P2), (1, SurfaceParams(0))):
        with pytest.raises(PlanError) as err:
            _section(x, params)
        assert str(err.value) == (f"section coefficient x={x} outside"
                                  f" 0..{params.g}")

def test_plan_reachability_is_symmetric_on_grid():
    step = Q(1, 4)
    pts = []
    mu = 1 + step
    while mu <= 3:
        c = step
        while c < 1:
            pts.append(normalized(mu, c))
            c += step
        mu += step
    for u1, u2 in itertools.combinations(pts, 2):
        if chamber_of(u1) != chamber_of(u2):
            continue
        if chamber_of(u1).index < 2 * P1.g:
            continue
        for label in stratum_labels(u1, P1):
            ok_fwd = ok_bwd = True
            try:
                plan(u1, u2, label, P1)
            except PlanError:
                ok_fwd = False
            try:
                plan(u2, u1, label, P1)
            except PlanError:
                ok_bwd = False
            assert ok_fwd == ok_bwd


def test_intermediate_points_of_vertical_plans_stay_in_chamber():
    cases = [
        (normalized(Q(5, 2), Q(3, 10)), Q(2, 5), OPEN_LABEL, P2),
        (normalized(Q(21, 10), Q(1, 5)), Q(9, 10), label_for(B - 2 * F, P1), P1),
        (normalized(Q(13, 4), Q(1, 2)), Q(7, 8), label_for(B - 2 * F - E, P2), P2),
    ]
    for u, c2, lab, params in cases:
        pl = plan_vertical(u, c2, lab, params)
        assert pl.stays_in_chamber()
        for v in pl.intermediates():
            assert is_valid(v) and chamber_of(u) == chamber_of(v)


def _stays_by_points(pl: InflationPlan) -> bool:
    """The chamber test on normalized points: each intermediate point is
    valid and in the start chamber."""
    if not is_valid(pl.start):
        return False
    cid = chamber_of(pl.start)
    return all(is_valid(v) and chamber_of(v).index == cid.index
               for v in pl.intermediates())


def test_stays_in_chamber_matches_the_point_test():
    rng = random.Random(10)
    verdicts = []
    for g in range(4):
        params = SurfaceParams(g)
        for _ in range(400):
            u1 = normalized(Q(rng.randint(8, 48), 8), Q(rng.randint(1, 15), 16))
            u2 = normalized(Q(rng.randint(8, 48), 8), Q(rng.randint(1, 15), 16))
            if not (is_valid(u2) and chamber_of(u1) == chamber_of(u2)):
                continue
            try:
                pl = plan(u1, u2, rng.choice(stratum_labels(u1, params)),
                          params)
            except PlanError:
                continue
            verdicts.append(pl.stays_in_chamber())
            assert verdicts[-1] == _stays_by_points(pl), (g, u1, u2)
    assert True in verdicts and False in verdicts
    # a step along B to mu = 1/2 leaves the cone; a start outside it
    out = InflationPlan(normalized(2, Q(1, 4)), ((B, 3, 1, OPEN),),
                        normalized(Q(1, 2), Q(1, 16)))
    outside = InflationPlan(normalized(Q(1, 2), Q(1, 4)), (),
                            normalized(Q(1, 2), Q(1, 4)))
    # from chamber 1 a step along B leaves the cone at (1/2, 1/4), where
    # the chamber formula still reads 1: only the validity test refuses it
    below = InflationPlan(normalized(1, Q(1, 2)), ((B, 1, 1, OPEN),),
                          normalized(Q(1, 2), Q(1, 4)))
    assert chamber_of(below.start).index == chamber_index(2, 1, 4) == 1
    for pl in (out, outside, below):
        assert pl.stays_in_chamber() is _stays_by_points(pl) is False


def test_label_classes_keep_positive_area_along_certified_plans():
    # every ordered same-chamber pair at index >= 2g of the step-1/4 grids
    # with mu <= g + 3, every label: each intermediate point of the plan
    # equals the independent replay (apply_step, then normalize) after the
    # same step, and the label's classes (core plus E and F-E) keep positive
    # area there
    import itertools

    step = Q(1, 4)
    plans = 0
    for params in (P1, P2):
        by_chamber = {}
        mu = max(1, params.g) + step
        while mu <= params.g + 3:
            c = step
            while c < 1:
                u = normalized(mu, c)
                if is_valid(u):
                    by_chamber.setdefault(chamber_of(u).index, []).append(u)
                c += step
            mu += step
        for index, pts in by_chamber.items():
            if index < 2 * params.g:
                continue
            labels = stratum_labels(pts[0], params)
            for u1, u2 in itertools.permutations(pts, 2):
                for label in labels:
                    pl = plan(u1, u2, label, params)
                    plans += 1
                    raw = raw_from(u1)
                    for s, v in zip(pl.steps, pl.intermediates(),
                                    strict=True):
                        raw = apply_step(raw, s)
                        assert v == normalize(raw), (u1, u2, label.name, s)
                        for z in label.classes():
                            assert area(v, z) > 0, (u1, u2, label.name, v, z)
    assert plans == 2340


def test_plan_fuzz_off_grid_denominators():
    # same-chamber pairs with mixed denominators (7, 11, 13, ...) exercise
    # the exact solves away from the verification grid
    rng = random.Random(4242)
    dens = (7, 11, 13, 9, 16, 5)
    done = 0
    while done < 120:
        g = rng.randint(1, 3)
        params = SurfaceParams(g)
        k = rng.randint(g, g + 3)
        d1, d2 = rng.choice(dens), rng.choice(dens)
        c1 = Q(rng.randint(1, d1 - 1), d1)
        c2 = Q(rng.randint(1, d2 - 1), d2)
        if rng.random() < 1 / 2:  # even chamber 2k
            mu1 = k + c1 * Q(rng.randint(1, 7), 8)
            mu2 = k + c2 * Q(rng.randint(1, 7), 8)
        else:  # odd chamber 2k+1
            mu1 = k + c1 + (1 - c1) * Q(rng.randint(1, 8), 8)
            mu2 = k + c2 + (1 - c2) * Q(rng.randint(1, 8), 8)
        u1, u2 = normalized(mu1, c1), normalized(mu2, c2)
        if not (is_valid(u1) and is_valid(u2) and chamber_of(u1) == chamber_of(u2)):
            continue
        if chamber_of(u1).index < 2 * g:
            continue
        labels = stratum_labels(u1, params)
        label = labels[rng.randrange(len(labels))]
        pl = plan(u1, u2, label, params)
        assert_certified(pl, u2)
        done += 1


def test_verify_stability_small_grid_all_pass():
    rep = verify_stability(P1, 3, Q(1, 4))
    assert rep["ok"]
    assert [v["chamber"] for v in rep["chambers"]] == [2, 3, 4, 5]
    assert all(v["failed"] == 0 and v["passed"] == v["checked"]
               for v in rep["chambers"])
    assert rep["skipped_chambers"] == []
    assert rep["cross_chamber_pairs"] > 0
    total = sum(v["checked"] for v in rep["chambers"])
    assert total == sum(v["points"] * (v["points"] - 1) * len(v["labels"])
                        for v in rep["chambers"])


def test_verify_stability_skips_low_chambers():
    rep = verify_stability(P2, 3, Q(1, 4), mu_min=1)
    assert rep["skipped_chambers"] == [2, 3]
    assert all(v["chamber"] >= 4 for v in rep["chambers"])


def test_verify_stability_below_threshold_finds_counterexamples():
    # below 2g the open-stratum recipes degenerate: transport fails, which is
    # exactly why those chambers are excluded
    rep = verify_stability(P2, 2, Q(1, 4), mu_min=1, min_index=2)
    assert not rep["ok"]
    failing = {v["chamber"] for v in rep["chambers"] if v["failed"]}
    assert failing and min(failing) < 4
    assert all(v["passed"] == v["checked"] - v["failed"]
               for v in rep["chambers"])
    bad = [v["first_failure"] for v in rep["chambers"] if v["first_failure"]]
    assert any("mu > g" in f["error"] for f in bad)


def test_verify_stability_empty_grid():
    rep = verify_stability(P1, Q(9, 8), Q(1, 4))
    assert rep["ok"] and rep["chambers"] == []
    # a step of 0 would never leave its first grid point
    for step in (0, Q(-1, 4)):
        with pytest.raises(ValueError, match="^grid step must be positive$"):
            verify_stability(P1, 3, step)


def test_open_label_section_quantifier_on_criterion_7_grids():
    # Pins what an open-label verdict assumes today: for each pair, some
    # x <= g certifies, possibly two in one plan.  On the criterion-7 grids
    # (mu in (g, g+4], step 1/8), with x free, 246 of the 6,048 ordered
    # pairs plan along two section classes, all in chamber 2g.  With x
    # pinned for the whole plan, every x < g certifies every pair, and
    # x = g fails 498 of the 756 pairs of chamber 2g, each at the raise.
    # For 352 of those no route along F, E, F-E and B+gF exists: a B+gF hop
    # keeps c/(mu - g), F-E moves it toward 1, F and E lower it, and these
    # targets have a larger ratio than max(the start's, 1).
    step = Q(1, 8)
    for g in (1, 2, 3):
        params = SurfaceParams(g)
        by_chamber = {}
        for i in range(1, 33):
            for j in range(1, 8):
                u = normalized(g + i * step, j * step)
                by_chamber.setdefault(chamber_of(u).index, []).append(u)
        assert sorted(by_chamber) == list(range(2 * g, 2 * g + 8))
        ordered, mixed, failed, unreachable = 0, Counter(), Counter(), 0
        for index, points in by_chamber.items():
            for src, dst in itertools.permutations(points, 2):
                ordered += 1
                steps = plan(src, dst, OPEN_LABEL, params).steps
                if len({s.z for s in steps if s.assumption == OPEN}) > 1:
                    mixed[index] += 1
                for x in range(g + 1):
                    try:
                        plan(src, dst, OPEN_LABEL, params, x=x)
                    except PlanError as err:
                        assert x == g, (src, dst, x, err)
                        assert "raising the blow-up area" in str(err)
                        failed[index] += 1
                        unreachable += (dst.c / (dst.mu - g)
                                        > max(src.c / (src.mu - g), 1))
        assert ordered == 6048 and len(by_chamber[2 * g]) == 28  # 756 pairs
        assert mixed == {2 * g: 246}
        assert failed == {2 * g: 498} and unreachable == 352


def test_verify_stability_plans_once_per_verdict(monkeypatch):
    # every verdict is one call of the module-level `plan`, failures included
    import ruledcone.planner as planner

    calls = []
    real = planner.plan

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "plan", counted)
    rep = verify_stability(SurfaceParams(3), 5, Q(1, 4), mu_min=1,
                           min_index=1)
    assert not rep["ok"] and any(v["failed"] == 0 for v in rep["chambers"])
    assert len(calls) == sum(v["checked"] for v in rep["chambers"]) == 1560


def test_verdicts_build_no_steps_and_steps_are_built_once(monkeypatch):
    # the verifier judges plans by their integer moves alone: on the two
    # step-1/4 grids of tests/golden/verify.json it builds no InflationStep
    built = []
    real = InflationStep.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(InflationStep, "__post_init__", counted)
    rep1 = verify_stability(P1, 3, Q(1, 4))
    rep2 = verify_stability(P2, 3, Q(1, 4), mu_min=1, min_index=1)
    assert sum(v["checked"] for r in (rep1, rep2) for v in r["chambers"]) > 0
    assert built == []
    # a read of `steps` builds them once, as Fraction(p, q) of each move
    pl = plan(normalized(4, Q(1, 2)), normalized(Q(15, 4), Q(5, 8)),
              label_for(B - 2 * F - E, P2), P2)
    steps = pl.steps
    assert len(built) == len(pl.moves) > 2
    assert pl.steps is steps and len(built) == len(pl.moves)
    assert steps == tuple(InflationStep(z, Q(p, q), tag)
                          for z, p, q, tag in pl.moves)


def _served_plans(monkeypatch, plan_requests) -> list[InflationPlan]:
    """Every plan of the two step-1/4 grids of tests/golden/verify.json and
    of 500 seeded plan-serve requests."""
    import ruledcone.planner as planner

    plans = []

    def kept(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    with monkeypatch.context() as patched:
        patched.setattr(planner, "plan", kept)
        verify_stability(P1, 3, Q(1, 4))
        verify_stability(P2, 3, Q(1, 4), mu_min=1, min_index=1)
    requests = plan_requests(random.Random(23))
    for g, u1, u2, name in itertools.islice(requests, 500):
        params = SurfaceParams(g)
        label = (OPEN_LABEL if name == "open"
                 else label_for(parse_class(name), params))
        plans.append(plan(normalized(*u1), normalized(*u2), label, params))
    return plans


def _stays_by_area_signs(pl: InflationPlan) -> bool:
    """The chamber test by area signs: each intermediate point is valid, the
    last section class of the start chamber n has positive area there and
    that of chamber n + 1 non-positive area."""
    if not is_valid(pl.start):
        return False
    index = chamber_of(pl.start).index
    left = ChamberId(index).section_classes()[-1]
    right = ChamberId(index + 1).section_classes()[-1]
    return all(is_valid(v) and area(v, left) > 0 >= area(v, right)
               for v in pl.intermediates())


def test_plan_json_formats_the_moves_as_their_steps(monkeypatch,
                                                    plan_requests):
    # `as_json` writes each move (z, p, q, tag) itself and builds no
    # InflationStep; its steps and chamber verdict are those the
    # InflationSteps and the start chamber's area signs give
    plans = _served_plans(monkeypatch, plan_requests)
    assert len(plans) > 1000
    built = []
    real = InflationStep.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    with monkeypatch.context() as patched:
        patched.setattr(InflationStep, "__post_init__", counted)
        payloads = [pl.as_json() for pl in plans]
    assert built == []
    verdicts = Counter()
    for pl, data in zip(plans, payloads):
        assert data["steps"] == [step.as_json() for step in pl.steps]
        assert data["stays_in_chamber"] is pl.stays_in_chamber() \
            is _stays_by_area_signs(pl), (pl.start, pl.end)
        verdicts[data["stays_in_chamber"]] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100
    # a hand-built move without its tag is written without "assumption"
    u = normalized(Q(7, 3), Q(2, 5))
    untagged = InflationPlan(u, ((F, 6, 4, None),), normalized(Q(23, 6),
                                                               Q(2, 5)))
    assert untagged.replay() == untagged.end
    assert untagged.as_json()["steps"] == [{"z": "F", "t": "3/2"}]
    assert untagged.as_json()["steps"] == [s.as_json() for s in untagged.steps]


def test_plan_json_certifies_every_move_before_writing_one():
    # t = p/q needs p >= 0 and q > 0: the walk refuses the move before any
    # text is written, from a start inside the cone or outside it
    for u in (normalized(Q(7, 3), Q(2, 5)), normalized(Q(1, 2), Q(1, 4))):
        for p, q in ((-1, 3), (1, 0), (1, -3), (0, 0)):
            bad = InflationPlan(u, ((E, 1, 9, ALWAYS), (F, p, q, ALWAYS)), u)
            with pytest.raises(PlanError) as err:
                bad.as_json()
            assert str(err.value) == (f"step (F, {p}/{q}) needs a parameter"
                                      " p/q with p >= 0 and q > 0")
    # a start outside the cone has no chamber; its moves are still walked
    outside = InflationPlan(normalized(Q(1, 2), Q(1, 4)),
                            ((F, 1, 2, ALWAYS),), normalized(1, Q(1, 4)))
    assert outside.replay() == outside.end
    assert outside.as_json()["stays_in_chamber"] is False
    assert outside.as_json()["steps"] == [{"z": "F", "t": "1/2",
                                           "assumption": "always"}]


def test_discrepancy_records():
    items = detected_discrepancies()
    ids = [d["id"] for d in items]
    assert ids == ["vertical-transport-solutions", "left-inflation-family",
                   "section-virtual-dimension"]
    assert all(d["detected"] for d in items)
    assert all(d["stated"] and d["recomputed"] for d in items)


def test_plan_json_shape():
    pl = plan(normalized(Q(13, 4), Q(1, 2)), normalized(Q(7, 2), Q(1, 2)),
              OPEN_LABEL, P2)
    data = pl.as_json()
    assert data["start"] == {"mu": "13/4", "e": ["1/2"]}
    assert data["end"] == {"mu": "7/2", "e": ["1/2"]}
    assert data["label"] == "open"
    assert data["steps"] == [{"z": "F", "t": "1/4", "assumption": "always"}]
    assert data["stays_in_chamber"] is True

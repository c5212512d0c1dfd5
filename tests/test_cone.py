"""Cone validity, chamber identification, walls and the figure model."""

import math
import pickle
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from ruledcone.cone import (ChamberId, NormalizedClass, active_walls, area,
                            chamber_of, figure_data, is_valid, normalized,
                            require_valid, validity_violations)
from ruledcone.lattice import B, E, F
from ruledcone.rationals import format_rational


def oracle_chamber_index(mu: Q, c: Q) -> int:
    """Independent inequality scan over both chamber families."""
    matches = []
    top = int(mu) + 2
    for k in range(0, top):
        if area(normalized(mu, c), B - k * F) > 0 and \
           area(normalized(mu, c), B - k * F - E) <= 0:
            matches.append(2 * k)
        if area(normalized(mu, c), B - k * F - E) > 0 and \
           area(normalized(mu, c), B - (k + 1) * F) <= 0:
            matches.append(2 * k + 1)
    assert len(matches) == 1, (mu, c, matches)
    return matches[0]


def test_area_examples():
    u = normalized(Q(5, 2), Q(3, 10))
    assert area(u, B - 2 * F - E) == Q(1, 5)
    assert area(u, F) == 1
    # on the slanted wall by construction
    for k in range(0, 5):
        c = Q(1, 3)
        assert area(normalized(k + c, c), B - k * F - E) == 0


def test_validity():
    assert is_valid(normalized(2, Q(1, 2)))
    assert not is_valid(normalized(2, 1))
    assert any("e_1 < 1" in v for v in validity_violations(normalized(2, 1)))
    assert not is_valid(normalized(Q(1, 2), Q(1, 4)))
    assert any("policy" in v
               for v in validity_violations(normalized(Q(1, 2), Q(1, 4))))


def test_normalized_class_is_two_rationals():
    assert NormalizedClass(3, Q(1, 3)) == normalized(3, Q(1, 3))


def test_chamber_examples():
    assert chamber_of(normalized(Q(5, 2), Q(3, 10))).index == 5
    assert chamber_of(normalized(1, Q(1, 2))).index == 1
    assert chamber_of(normalized(3, Q(1, 2))).index == 5
    assert chamber_of(normalized(Q(5, 2), Q(2, 5))).index == 5
    assert chamber_of(normalized(Q(11, 5), Q(3, 10))).index == 4


def test_wall_points_belong_to_the_left_chamber():
    # a point with mu = k lies on the wall B-kF and lands in chamber 2k-1
    for k in range(1, 6):
        for c in (Q(1, 4), Q(1, 2), Q(7, 8)):
            assert chamber_of(normalized(k, c)).index == 2 * k - 1
    # a point on the slanted wall mu = k + c lands in chamber 2k
    for k in range(1, 5):
        for c in (Q(1, 4), Q(1, 2)):
            assert chamber_of(normalized(k + c, c)).index == 2 * k


def test_chamber_matches_oracle_on_grid():
    step = Q(1, 16)
    mu = 1 + step
    while mu <= 4:
        c = step
        while c < 1:
            u = normalized(mu, c)
            assert chamber_of(u).index == oracle_chamber_index(mu, c)
            c += step
        mu += step


def test_chamber_requires_validity():
    with pytest.raises(ValueError):
        chamber_of(normalized(Q(1, 2), Q(1, 4)))


def test_chamber_id_fields():
    cid = ChamberId(5)
    assert cid.k == 2 and not cid.is_even
    assert cid.inequalities() == ["mu > 2 + c", "mu <= 3"]
    # chamber 5 is area(B-2F-E) > 0 >= area(B-3F)
    left = cid.section_classes()[-1]
    right = ChamberId(6).section_classes()[-1]
    assert left == B - 2 * F - E and right == B - 3 * F
    for mu, c, inside in ((Q(5, 2), Q(1, 4), True),
                          (Q(5, 2), Q(1, 2), False),  # on B-2F-E
                          (Q(3), Q(1, 2), True),  # on B-3F
                          (Q(13, 4), Q(1, 2), False)):
        u = normalized(mu, c)
        assert (area(u, left) > 0 >= area(u, right)) is inside
    with pytest.raises(ValueError):
        ChamberId(0)


def test_same_chamber():
    # two points share a chamber when chamber_of agrees, which is when
    # their chamber indices agree
    a, b = normalized(Q(5, 2), Q(3, 10)), normalized(Q(5, 2), Q(2, 5))
    c = normalized(Q(11, 5), Q(3, 10))
    assert chamber_of(a) == chamber_of(b) != chamber_of(c)
    assert chamber_of(a).index == chamber_of(b).index != chamber_of(c).index


def test_chamber_locally_constant():
    # small moves that cross no wall keep the index
    u = normalized(Q(5, 2), Q(3, 10))
    idx = chamber_of(u).index
    for dmu, dc in [(Q(1, 64), 0), (-Q(1, 64), 0), (0, Q(1, 64)),
                    (0, -Q(1, 64)), (Q(1, 128), Q(1, 128))]:
        assert chamber_of(normalized(u.mu + dmu, u.c + dc)).index == idx


def _walls_by_scan(u):
    """Every B-kF and B-kF-E of zero area with 1 <= k <= ceil(mu) + 1, by a
    scan."""
    k_max = math.ceil(u.mu) + 1
    return [a for k in range(1, k_max + 1)
            for a in (B - k * F, B - k * F - E) if area(u, a) == 0]


def test_active_walls_match_a_scan_over_k():
    points = {normalized(i * Q(1, n), j * Q(1, n)) for n in (8, 12)
              for i in range(1, 5 * n + 1) for j in range(1, n)}
    on_walls = 0
    for u in points:
        if not is_valid(u):
            continue
        walls = [w.curve_class for w in active_walls(u)]
        assert walls == _walls_by_scan(u), u
        on_walls += bool(_walls_by_scan(u))
    assert on_walls > 50


def test_chamber_section_classes():
    assert ChamberId(1).section_classes() == [B - E]
    assert ChamberId(4).section_classes() == [B - E, B - F, B - F - E,
                                              B - 2 * F]
    assert ChamberId(5).section_classes()[-1] == B - 2 * F - E
    # chamber n is where its last section class has positive area and the
    # last one of chamber n + 1 non-positive area
    points = [normalized(i * Q(1, 8), j * Q(1, 8))
              for i in range(8, 57) for j in range(1, 8)]
    for n in range(1, 12):
        cid = ChamberId(n)
        left = cid.section_classes()[-1]
        right = ChamberId(n + 1).section_classes()[-1]
        inside = [u for u in points if area(u, left) > 0 >= area(u, right)]
        assert inside, n
        assert inside == [u for u in points
                          if is_valid(u) and chamber_of(u) == cid], n


def test_active_walls():
    assert active_walls(normalized(2, Q(1, 2))) == \
        [w for w in active_walls(normalized(2, Q(1, 2)))]
    names = [w.name for w in active_walls(normalized(2, Q(1, 2)))]
    assert names == ["B-2F"]
    names = [w.name for w in active_walls(normalized(Q(7, 4), Q(3, 4)))]
    assert names == ["B-F-E"]
    assert active_walls(normalized(2, Q(1, 3))) == \
        active_walls(normalized(2, Q(1, 3)))
    assert not active_walls(normalized(Q(5, 2), Q(3, 10)))


def test_active_walls_require_a_valid_point():
    # below mu = 1 no wall passes, and the point lies outside the cone
    with pytest.raises(ValueError, match="mu >= 1 policy violated"):
        active_walls(normalized(Q(1, 2), Q(1, 4)))


def test_figure_walls_for_window():
    model = figure_data(4)
    verticals = [seg for seg in model.walls if seg.start[0] == seg.end[0]]
    slants = [seg for seg in model.walls if seg.start[0] != seg.end[0]]
    assert [str(s.curve_class) for s in verticals] == ["B-F", "B-2F", "B-3F"]
    assert [s.start[0] for s in verticals] == [1, 2, 3]
    assert [str(s.curve_class) for s in slants] == ["B-E", "B-F-E", "B-2F-E"]
    assert [(s.start, s.end) for s in slants] == \
        [((0, 0), (1, 1)), ((1, 0), (2, 1)), ((2, 0), (3, 1))]
    assert [str(s.curve_class) for s in model.boundaries] == ["E", "F-E"]


def test_figure_segments_lie_on_zero_loci():
    model = figure_data(5)
    for seg in model.walls + model.boundaries:
        pts = [seg.start, seg.end,
               ((seg.start[0] + seg.end[0]) / 2, (seg.start[1] + seg.end[1]) / 2)]
        for mu, c in pts:
            u = normalized(mu, c)  # may be invalid (boundary); area is linear anyway
            assert area(u, seg.curve_class) == 0


def test_figure_slant_passes_through_midpoint():
    model = figure_data(4)
    slant1 = [s for s in model.walls
              if str(s.curve_class) == "B-F-E"][0]
    mid = ((slant1.start[0] + slant1.end[0]) / 2,
           (slant1.start[1] + slant1.end[1]) / 2)
    assert mid == (Q(3, 2), Q(1, 2))


def test_figure_labels_sit_in_their_chambers():
    model = figure_data(Q(9, 2))
    for label in model.labels:
        mu, c = label.position
        assert chamber_of(normalized(mu, c)).index == label.chamber.index


def test_figure_even_region_between_vertical_and_slant():
    # the region left of the slant with the same k is even
    model = figure_data(4)
    for label in model.labels:
        if label.chamber.is_even:
            k = label.chamber.k
            mu, c = label.position
            assert k < mu <= k + c


def test_figure_output_deterministic():
    a, b = figure_data(4), figure_data(4)
    assert a.to_csv() == b.to_csv()
    assert a.to_svg() == b.to_svg()
    assert a.to_csv().startswith("wall_class,x1,y1,x2,y2\n")
    assert a.to_svg(scale=50) != a.to_svg(scale=100)


def test_figure_rejects_small_window():
    with pytest.raises(ValueError):
        figure_data(1)


def test_wall_sign_determines_index_threshold():
    # area(u, B-kF) > 0 exactly on chambers of index >= 2k, and
    # area(u, B-kF-E) > 0 exactly on chambers of index >= 2k+1
    step = Q(1, 8)
    mu = 1 + step
    while mu <= 5:
        c = step
        while c < 1:
            u = normalized(mu, c)
            idx = chamber_of(u).index
            for k in range(1, 6):
                assert (area(u, B - k * F) > 0) == (idx >= 2 * k)
                assert (area(u, B - k * F - E) > 0) == (idx >= 2 * k + 1)
            c += step
        mu += step


# -- the integer form against the Fraction closed forms ------------------------


def fraction_violations(mu: Q, c: Q) -> list[str]:
    """The cone constraints as Fraction comparisons, with their messages."""
    fm, fc = format_rational(mu), format_rational(c)
    bad = []
    if mu <= 0:
        bad.append(f"mu > 0 violated (mu = {fm})")
    if not 0 < c < 1:
        bad.append(f"0 < e_1 < 1 violated (e_1 = {fc})")
    if c >= mu:
        bad.append(f"e_1 < mu violated (e_1 = {fc}, mu = {fm})")
    if mu < 1:
        bad.append(f"mu >= 1 policy violated (mu = {fm});"
                   " the leftmost chamber is out of scope")
    return bad


def fraction_chamber(mu: Q, c: Q) -> int:
    k = math.ceil(mu) - 1
    return 2 * k if mu <= k + c else 2 * k + 1


def fraction_contains(index: int, mu: Q, c: Q) -> bool:
    k = index // 2
    if index % 2 == 0:
        return k < mu <= k + c
    return k + c < mu <= k + 1


def sweep_points():
    cs = [Q(1, 2), Q(1, 3), Q(2, 3), Q(3, 4), Q(5, 12), Q(6, 7), Q(1, 16)]
    for k in range(1, 6):
        for c in cs:
            yield k, c                    # vertical wall B-kF
            yield k + c, c                # slanted wall B-kF-E
            yield k + c / 2, c            # odd chamber interior
            yield k + c + (1 - c) / 3, c  # even chamber interior
    for mu, c in [(0, Q(1, 2)), (Q(-1, 2), Q(1, 4)), (Q(-3), Q(-1)),  # mu <= 0
                  (2, 0), (2, 1), (3, Q(3, 2)), (Q(5, 2), Q(-1, 3)),   # c
                  (Q(1, 2), Q(1, 2)), (Q(1, 3), Q(1, 2)), (1, 1),      # c >= mu
                  (Q(1, 2), Q(1, 4)), (Q(9, 10), Q(3, 5)),             # mu < 1
                  (Q(2, 3), Q(5, 7))]:
        yield Q(mu), Q(c)


def test_integer_form_agrees_with_fraction_closed_forms():
    for mu, c in sweep_points():
        u = normalized(mu, c)
        m, n, d = u.ints
        assert (Q(m, d), Q(n, d), d) == (mu, c, math.lcm(mu.denominator,
                                                         c.denominator))
        assert validity_violations(u) == fraction_violations(mu, c), (mu, c)
        if not is_valid(u):  # no chamber
            continue
        assert chamber_of(u).index == fraction_chamber(mu, c)
        for index in range(1, 2 * math.ceil(mu) + 3):
            assert (chamber_of(u).index == index) == \
                fraction_contains(index, mu, c), (index, mu, c)


def test_cached_integer_form_is_invisible_and_pickles():
    u, v = normalized(Q(7, 3), Q(1, 2)), normalized(Q(7, 3), Q(1, 2))
    assert u.ints == (14, 3, 6)
    assert u == v and hash(u) == hash(v) and repr(u) == repr(v)
    assert repr(u) == ("NormalizedClass(mu=Fraction(7, 3),"
                       " c=Fraction(1, 2))")
    w = pickle.loads(pickle.dumps(u))
    assert w == u and hash(w) == hash(u) and w.ints == (14, 3, 6)
    assert pickle.loads(pickle.dumps(v)).ints == (14, 3, 6)


def test_normalized_class_keeps_fractions_and_converts_the_rest():
    mu, c = Q(7, 3), Q(1, 2)
    u = NormalizedClass(mu, c)
    assert u.mu is mu and u.c is c
    for raw in (NormalizedClass(3, "1/2"), NormalizedClass("3", Q(1, 2))):
        assert raw == normalized(3, Q(1, 2))
        assert type(raw.mu) is Q and type(raw.c) is Q


def test_normalized_takes_ints_strings_and_fractions_alike():
    points = [normalized(3, "1/2"), normalized("3", Q(1, 2)),
              normalized(Q(3), "2/4"), normalized(Q(6, 2), Q(1, 2))]
    for u in points:
        assert u == points[0] and hash(u) == hash(points[0])
        assert type(u.mu) is Q and type(u.c) is Q
        assert u.ints == (6, 1, 2) and chamber_of(u).index == 5
    mu, c = Q(7, 3), Q(1, 2)
    assert normalized(mu, c).mu is mu and normalized(mu, c).c is c


def test_grid_points_compute_validity_and_chamber_once(monkeypatch):
    # on the g = 1, step-1/4 grid of tests/golden/verify.json every point
    # takes part in many `plan` calls, each checking validity and chamber;
    # the closed form that decides both runs once per point, and no
    # violation text is built for a valid point
    import ruledcone.cone as cone
    from ruledcone.lattice import SurfaceParams
    from ruledcone.planner import verify_stability

    counts = {"violations": Counter(), "chamber": Counter()}

    def counted(name, real, key):
        def wrapper(*args):
            counts[name][key(*args)] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(cone, "validity_violations",
                        counted("violations", cone.validity_violations,
                                lambda u: (u.mu, u.c)))
    # the chamber's closed form, on a point's cached (m, n, d)
    monkeypatch.setattr(cone, "chamber_index",
                        counted("chamber", cone.chamber_index,
                                lambda m, n, d: (Q(m, d), Q(n, d))))
    rep = verify_stability(SurfaceParams(1), 3, Q(1, 4))
    points = sum(v["points"] for v in rep["chambers"])
    assert sum(v["checked"] for v in rep["chambers"]) > 10 * points > 0
    assert len(counts["chamber"]) >= points
    assert set(counts["chamber"].values()) == {1}
    assert counts["violations"] == Counter()


def test_an_invalid_point_raises_the_same_error_on_every_call(monkeypatch):
    import ruledcone.cone as cone

    u = normalized(Q(1, 2), Q(1, 4))
    text = ("invalid normalized class: mu >= 1 policy violated (mu = 1/2);"
            " the leftmost chamber is out of scope")
    for check in (cone.require_valid, chamber_of, active_walls):
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                check(u)
            assert str(err.value) == text
    # the violations are returned as a new list on every call
    bad = validity_violations(u)
    bad.append("mutated")
    assert validity_violations(u) == [text.split(": ", 1)[1]]


def test_cached_validity_and_chamber_are_invisible_and_pickle():
    # every point carries (m, n, d) and its chamber from construction,
    # before any read, outside the fields
    u, v = normalized(Q(7, 3), Q(1, 2)), normalized(Q(7, 3), Q(1, 2))
    for point in (u, v):
        assert vars(point) == {"mu": Q(7, 3), "c": Q(1, 2), "ints": (14, 3, 6),
                               "_chamber": ChamberId(4)}
    assert is_valid(u) and chamber_of(u).index == 4
    assert u == v and hash(u) == hash(v) and repr(u) == repr(v)
    assert repr(u) == ("NormalizedClass(mu=Fraction(7, 3),"
                       " c=Fraction(1, 2))")
    w = pickle.loads(pickle.dumps(u))
    assert w == u and hash(w) == hash(u) and chamber_of(w) == chamber_of(u)
    assert vars(w) == vars(u)
    # an invalid point differs from a valid one whatever either carries
    x = normalized(Q(7, 3), 1)
    assert not is_valid(x) and x != u and repr(x) != repr(u)
    assert vars(pickle.loads(pickle.dumps(x))) == vars(x)


def test_invalid_points_construct_and_raise_only_when_placed():
    # building, comparing, printing and checking an invalid point raise
    # nothing; chamber_of, require_valid and active_walls raise its
    # violations
    invalid = [(mu, c) for mu, c in sweep_points()
               if fraction_violations(mu, c)]
    assert len(invalid) >= 10
    for mu, c in invalid:
        u = NormalizedClass(mu, c)
        assert u == normalized(mu, c) and str(u) and u._chamber is None
        assert not is_valid(u)
        text = "invalid normalized class: " + "; ".join(
            fraction_violations(mu, c))
        assert validity_violations(u) == fraction_violations(mu, c)
        for check in (chamber_of, require_valid, active_walls):
            with pytest.raises(ValueError) as err:
                check(u)
            assert str(err.value) == text


def test_active_walls_builds_the_wall_class_of_its_point():
    # seeded points on the vertical wall mu = k and the slanted wall
    # mu = k + c carry B-kF and B-kF-E, whose areas vanish there
    rng = random.Random(24)
    for _ in range(500):
        k, den = rng.randint(1, 20), rng.randint(2, 60)
        c = Q(rng.randint(1, den - 1), den)
        for mu, wall in ((Q(k), B - k * F), (k + c, B - k * F - E)):
            u = normalized(mu, c)
            assert [w.curve_class for w in active_walls(u)] == [wall], u
            assert area(u, wall) == 0
        # just off the walls, inside a chamber, no wall passes
        assert active_walls(normalized(k + c / 2, c)) == []

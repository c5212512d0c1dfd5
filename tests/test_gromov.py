"""Curve counts of section classes and the decomposition oracle."""

import sys
from fractions import Fraction as Q

import pytest

from ruledcone.gromov import (Decomposition, _more_digits_than,
                              gromov_invariant, gromov_nonzero_criterion,
                              section_decompositions, virtual_dim_k)
from ruledcone.lattice import B, E, F, ClassVector, SurfaceParams


def test_virtual_dim_values():
    for g in range(0, 7):
        params = SurfaceParams(g)
        assert virtual_dim_k(B + g * F, params) == g + 1
        assert virtual_dim_k(F, params) == 1
        assert virtual_dim_k(E, params) == 0


def test_virtual_dim_closed_form():
    # k(pB + qF) = q - (g-1) p + p q
    for g in range(0, 5):
        params = SurfaceParams(g)
        for p in range(0, 4):
            for q in range(0, 6):
                c = ClassVector(p, q, (0,))
                assert virtual_dim_k(c, params) == q - (g - 1) * p + p * q


def test_gromov_anchor():
    for g in range(0, 7):
        assert gromov_invariant(1, g, SurfaceParams(g)) == 2 ** g


def test_gromov_genus_zero():
    params = SurfaceParams(0)
    for p in range(0, 4):
        for q in range(0, 4):
            if p + q > 0:
                assert gromov_invariant(p, q, params) == 1
                assert gromov_nonzero_criterion(p, q, params)


def test_gromov_trivial_section():
    for g in range(0, 5):
        assert gromov_invariant(0, g, SurfaceParams(g)) == 1


def test_gromov_rejects_negative_virtual_dim():
    # k(B) = 1 - g < 0 for g >= 2
    with pytest.raises(ValueError, match="does not apply"):
        gromov_invariant(1, 0, SurfaceParams(3))


def test_negative_fibre_degree_has_no_count():
    # C.F = p < 0: a fibre through every point rules out a J-curve in C
    for g in range(0, 5):
        params = SurfaceParams(g)
        for p in range(-4, 0):
            for q in range(-2, 7):
                assert not gromov_nonzero_criterion(p, q, params)
                with pytest.raises(ValueError, match="has no J-curve"):
                    gromov_invariant(p, q, params)


def test_digit_count_decided_without_building_the_power():
    for base in range(0, 40):
        for g in range(0, 60):
            for limit in range(1, 40):
                assert _more_digits_than(base, g, limit) == \
                    (len(str(base ** g)) > limit), (base, g, limit)
    # a power of about 10^9 digits is refused from bit lengths alone
    assert _more_digits_than(10, 10 ** 9, 4300)


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="no integer string conversion limit")
def test_count_too_long_to_print_is_refused():
    limit = sys.get_int_max_str_digits()
    # k(9B + gF) = 9 + g >= 0; 10^(limit-1) has exactly `limit` digits
    assert gromov_invariant(9, limit - 1, SurfaceParams(limit - 1)) == \
        10 ** (limit - 1)
    for g in (limit, 10 ** 9):
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            gromov_invariant(9, g, SurfaceParams(g))


def test_nonvanishing_criterion_implies_applicability():
    # q >= g-1 forces k >= 0, so the count applies and is positive
    for g in range(1, 5):
        params = SurfaceParams(g)
        for p in range(0, 4):
            for q in range(0, 7):
                if gromov_nonzero_criterion(p, q, params):
                    assert gromov_invariant(p, q, params) > 0
        # the bound q = g-1 is met, q = g-2 is not
        for p in range(0, 3):
            assert gromov_nonzero_criterion(p, g - 1, params)
            assert not gromov_nonzero_criterion(p, g - 2, params)


def test_decompositions_sum_to_total():
    for g in (1, 2, 3):
        params = SurfaceParams(g)
        total = B + g * F
        for d in section_decompositions(params, g + 2):
            assert d.total() == total


def test_decompositions_unique_section_component():
    for g in (1, 2, 3):
        for d in section_decompositions(SurfaceParams(g), g + 2):
            assert len(d.section_parts()) == 1


def test_trivial_decomposition_present():
    for g in (1, 2, 3):
        decs = section_decompositions(SurfaceParams(g), g + 2)
        assert any(d.parts == (B + g * F,) for d in decs)


def test_section_fiber_coefficient_bounded_by_genus():
    for g in (1, 2, 3):
        for d in section_decompositions(SurfaceParams(g), g + 2):
            sec = d.section_parts()[0]
            assert 0 <= sec.q <= g


def test_exceptional_sections_are_reported_not_dropped():
    decs = section_decompositions(SurfaceParams(1), 3)
    reports = [d.as_json() for d in decs]
    assert any(not r["plain_section"] for r in reports)
    assert any(r["plain_section"] for r in reports)
    for r in reports:
        assert r["section"] is not None


def test_genus_one_decompositions_explicitly():
    decs = section_decompositions(SurfaceParams(1), 3)
    parts_sets = {tuple(str(p) for p in d.parts) for d in decs}
    assert ("B+F",) in parts_sets
    assert ("F", "B") in parts_sets or ("B", "F") in parts_sets
    assert all(len(d.section_parts()) == 1 for d in decs)


def test_r_bound_widens_part_pool():
    base = section_decompositions(SurfaceParams(2), 4)
    wide = section_decompositions(SurfaceParams(2), 4, r_bound=2)
    assert len(wide) >= len(base)
    assert {d.parts for d in base} <= {d.parts for d in wide}


def test_zero_area_sections_are_skipped():
    # at g = 0 the point is (1, 1, 1/2), where B-2E has area 0: no splitting
    # takes it, although |r| <= 2 admits it
    decs = section_decompositions(SurfaceParams(0), 0, r_bound=2)
    assert [[str(a) for a in d.parts] for d in decs] == [["E", "B-E"], ["B"]]


def test_q_bound_validation():
    with pytest.raises(ValueError):
        section_decompositions(SurfaceParams(3), 2)


def brute_force_decompositions(g, q_bound, r_bound=1):
    """Independent oracle: enumerate multisets by bounded per-part counts."""
    import itertools

    from ruledcone.cone import area, normalized

    u = normalized(g + 1, Q(1, 2))
    parts = [ClassVector(p, q, (r,))
             for p in (0, 1)
             for q in range(0, q_bound + 1)
             for r in range(-r_bound, r_bound + 1)]
    parts = [a for a in parts if not a.is_zero() and area(u, a) > 0]
    triples = [(a.p, a.q, a.r[0]) for a in parts]
    caps = []
    for a in parts:
        if a.q > 0:
            caps.append(g // a.q if a.q <= g else 0)
        elif a.p == 1:
            caps.append(1)
        else:  # pure exceptional part
            caps.append((g + 1) * r_bound)
    out = set()
    # sums of integer triples; classes are built for the hits only
    for counts in itertools.product(*(range(m + 1) for m in caps)):
        sp = sq = sr = n = 0
        for cnt, (p, q, r) in zip(counts, triples):
            if cnt:
                sp += cnt * p
                sq += cnt * q
                sr += cnt * r
                n += cnt
            if sp > 1 or sq > g:
                break
        else:
            if (sp, sq, sr) == (1, g, 0) and n > 0:
                ms = []
                for cnt, a in zip(counts, parts):
                    ms.extend([a] * cnt)
                out.add(tuple(sorted(ms)))
    return out


def test_enumeration_matches_brute_force_oracle():
    for g, r_bound in [(1, 1), (2, 1), (1, 2)]:
        got = {d.parts
               for d in section_decompositions(SurfaceParams(g), g + 2,
                                               r_bound=r_bound)}
        want = brute_force_decompositions(g, g + 2, r_bound)
        assert got == want


def test_decomposition_counts_frozen():
    # counts confirmed by the brute-force oracle above
    assert len(section_decompositions(SurfaceParams(1), 3)) == 8
    assert len(section_decompositions(SurfaceParams(2), 4)) == 25
    assert len(section_decompositions(SurfaceParams(3), 5)) == 66


def test_decomposition_json():
    d = Decomposition((B + F,))
    info = d.as_json()
    assert info == {"parts": ["B+F"], "section": "B+F",
                    "plain_section": True, "section_fiber_coefficient": 1}

"""Negative class enumeration, stratum labels, wide scan."""

import itertools
import pickle
import random
from fractions import Fraction as Q

import pytest

from ruledcone import strata
from ruledcone.cone import ChamberId, area, chamber_of, normalized
from ruledcone.lattice import (B, E, F, SurfaceParams, adjunction_genus, codim,
                               pair)
from ruledcone.strata import (IN_FAMILIES, OPEN_LABEL, OUTSIDE_FAMILIES,
                              StratumLabel, chamber_labels, label_for,
                              negative_classes, stratum_labels,
                              wide_negative_classes)

P2 = SurfaceParams(2)
U = normalized(Q(5, 2), Q(3, 10))


def test_negative_classes_enumeration():
    classes = negative_classes(U, P2, 20)
    names = [str(a) for a in classes]
    for required in ("E", "F-E", "B-F", "B-2F", "B-F-E", "B-2F-E"):
        assert required in names
    assert "B-3F" not in names  # area 5/2 - 3 <= 0
    assert "B-3F-E" not in names
    # sorted by codimension then k
    codims = [codim(a, P2) for a in classes]
    assert codims == sorted(codims)


def test_negative_classes_always_contain_exceptional_pair():
    for mu, c in [(Q(3, 2), Q(1, 8)), (Q(7), Q(9, 10)), (Q(1), Q(1, 2))]:
        classes = negative_classes(normalized(mu, c), P2, 4)
        assert E in classes and F - E in classes


def test_negative_classes_cod_max_zero():
    assert negative_classes(U, P2, 0) == [E, F - E]


def test_negative_classes_genus_and_adjunction():
    for a in negative_classes(normalized(Q(13, 2), Q(1, 3)), P2, 60):
        genus = adjunction_genus(a, P2)
        assert genus in (0, P2.g)
        assert pair(a, a) < 0


def test_stratum_labels_enumeration():
    labels = stratum_labels(U, P2, 12)
    as_pairs = [(lb.name, lb.codim) for lb in labels]
    assert as_pairs == [
        ("open", 0), ("B-E", 4), ("B-F", 6), ("B-F-E", 8),
        ("B-2F", 10), ("B-2F-E", 12),
    ]
    # no label carries two section-type classes: they pair negatively
    for lb in labels:
        assert len(lb.core) <= 1


def test_stratum_labels_cod_max_zero():
    assert stratum_labels(U, P2, 0) == [OPEN_LABEL]


def test_labels_are_singletons_because_cores_pair_negatively():
    # the mathematics behind the singleton form of `stratum_labels`
    step = Q(1, 8)
    for g in range(5):
        params = SurfaceParams(g)
        for i in range(8, 49):  # mu = 1 .. 6
            for j in range(1, 8):
                u = normalized(i * step, j * step)
                core = [a for a in negative_classes(u, params)
                        if codim(a, params) > 0]
                for a, b in itertools.combinations(core, 2):
                    assert pair(a, b) < 0, (g, u, a, b)
                for a in core:
                    assert pair(a, E) >= 0 and pair(a, F - E) >= 0
                labels = stratum_labels(u, params)
                assert labels == [OPEN_LABEL] + [label_for(a, params)
                                                 for a in core]
                assert labels == sorted(set(labels))
    # at g = 0 the section class B-E has codimension 0, so it labels nothing
    u, params = normalized(3, Q(1, 2)), SurfaceParams(0)
    assert B - E in negative_classes(u, params)
    assert all(lb.core != (B - E,) for lb in stratum_labels(u, params))


def test_chamber_labels_are_the_labels_at_each_point():
    # the chamber's labels against the family classes of positive area,
    # computed here, at every step-1/8 point of chambers 1..11
    step = Q(1, 8)
    families = ([B - k * F for k in range(1, 8)]
                + [B - k * F - E for k in range(8)])
    for g in range(5):
        params = SurfaceParams(g)
        seen = set()
        for i in range(8, 49):  # mu = 1 .. 6
            for j in range(1, 8):
                u = normalized(i * step, j * step)
                cid = chamber_of(u)
                at_u = sorted(label_for(a, params) for a in families
                              if area(u, a) > 0 and codim(a, params) > 0)
                assert chamber_labels(cid, params) == [OPEN_LABEL] + at_u
                assert stratum_labels(u, params) == [OPEN_LABEL] + at_u
                seen.add(cid.index)
        assert seen == set(range(1, 12))


SECTION_CLASSES = ChamberId(300).section_classes()  # B-E, B-F, B-F-E, ...


def test_section_class_codimension_is_closed_form():
    # `chamber_labels` gives class i the codimension 2(g + i); adjunction
    # (`codim`) is the definition
    assert SECTION_CLASSES[:4] == [B - E, B - F, B - F - E, B - 2 * F]
    for g in range(7):
        params = SurfaceParams(g)
        assert [codim(a, params) for a in SECTION_CLASSES] == [
            2 * (g + i) for i in range(300)]


def test_chamber_labels_match_a_from_scratch_reference(monkeypatch):
    # the labels as adjunction gives them, class by class, against the
    # per-genus memo filled from empty, in shuffled index order, up to and
    # past its cap
    strata._memo_labels.cache_clear()
    cods = {g: [codim(a, SurfaceParams(g)) for a in SECTION_CLASSES]
            for g in range(7)}

    def reference(index, g, cod_max):
        return [OPEN_LABEL] + [
            StratumLabel(cod, (a,))
            for a, cod in zip(SECTION_CLASSES[:index], cods[g])
            if 0 < cod and (cod_max is None or cod <= cod_max)]

    cases = [(index, g, cod_max) for index in range(1, 301) for g in range(7)
             for cod_max in (None, 0, 2, 7, 12, 40)]
    random.Random(16).shuffle(cases)
    for index, g, cod_max in cases:
        got = chamber_labels(ChamberId(index), SurfaceParams(g), cod_max)
        assert got == reference(index, g, cod_max), (index, g, cod_max)
    assert strata._memo_labels.cache_info().currsize == 7
    # the memo stops at its cap; indices past it are built per call
    assert all(len(strata._memo_labels(g)) == strata._MEMO_INDEX
               for g in range(7))


def test_chamber_labels_build_no_label_once_the_memo_reaches_them(
        monkeypatch):
    strata._memo_labels.cache_clear()
    built = []
    real = strata._section_labels

    def counted(g, lo, hi):
        built.append((g, lo, hi))
        return real(g, lo, hi)

    monkeypatch.setattr(strata, "_section_labels", counted)
    first = chamber_labels(ChamberId(9), P2)
    assert built == [(2, 0, strata._MEMO_INDEX)]  # the genus's whole memo
    built.clear()
    for index in range(1, 10):
        for cod_max in (None, 6, 100):
            chamber_labels(ChamberId(index), P2, cod_max)
    assert chamber_labels(ChamberId(9), P2) == first and built == []
    # past the memo's cap the labels are still built per call
    chamber_labels(ChamberId(strata._MEMO_INDEX + 2), P2)
    assert built == [(2, 0, strata._MEMO_INDEX + 2)]


def test_the_label_memo_keeps_at_most_memo_index_genera():
    # one memo entry per genus, the least recently used dropped first, so
    # many genera pin no more than _MEMO_INDEX of them
    strata._memo_labels.cache_clear()
    for g in range(3 * strata._MEMO_INDEX):
        labels = chamber_labels(ChamberId(40), SurfaceParams(g))
        assert labels[-1].codim == 2 * (g + 39)  # B-20F-E, class 39
    info = strata._memo_labels.cache_info()
    assert info.currsize == info.maxsize == strata._MEMO_INDEX


def test_is_open_is_set_at_construction_outside_the_fields():
    core = label_for(B - 2 * F, P2)
    assert vars(OPEN_LABEL)["is_open"] is True
    assert vars(core)["is_open"] is False
    twin = StratumLabel(core.codim, core.core)
    assert twin == core and hash(twin) == hash(core)
    assert repr(core) == ("StratumLabel(codim=10,"
                          " core=(ClassVector(p=1, q=-2, r=(0,)),))")
    assert OPEN_LABEL < core and not core < twin
    restored = pickle.loads(pickle.dumps(core))
    assert restored == core and vars(restored) == vars(core)


def test_chamber_labels_are_a_fresh_list_each_call():
    cid = ChamberId(6)
    first = chamber_labels(cid, P2)
    expected = list(first)
    first.append(OPEN_LABEL)
    first[1:3] = []
    assert chamber_labels(cid, P2) == expected
    assert chamber_labels(cid, P2, 6)[1:] == expected[1:3]


def test_stratum_labels_constant_on_chambers():
    for (m1, c1), (m2, c2) in [
        ((Q(5, 2), Q(3, 10)), (Q(5, 2), Q(2, 5))),
        ((Q(5, 2), Q(3, 10)), (Q(23, 8), Q(1, 2))),
        ((Q(9, 8), Q(1, 4)), (Q(15, 8), Q(15, 16))),
    ]:
        u1, u2 = normalized(m1, c1), normalized(m2, c2)
        assert chamber_of(u1) == chamber_of(u2)
        assert negative_classes(u1, P2) == negative_classes(u2, P2)
        assert stratum_labels(u1, P2) == stratum_labels(u2, P2)


def test_enumeration_constant_per_chamber_exhaustive():
    # one enumeration per chamber index over a whole grid, no exceptions
    from ruledcone.cone import chamber_of

    per_chamber = {}
    step = Q(1, 8)
    mu = 1 + step
    while mu <= 4:
        c = step
        while c < 1:
            u = normalized(mu, c)
            idx = chamber_of(u).index
            key = tuple(negative_classes(u, P2))
            per_chamber.setdefault(idx, set()).add(key)
            c += step
        mu += step
    assert per_chamber
    for idx, variants in per_chamber.items():
        assert len(variants) == 1, f"chamber {idx} saw {len(variants)} sets"


def test_label_full_classes_and_names():
    lb = label_for(B - 2 * F, P2)
    assert lb.codim == 10
    assert lb.name == "B-2F"
    assert set(lb.classes()) == {B - 2 * F, E, F - E}
    assert OPEN_LABEL.name == "open" and OPEN_LABEL.is_open
    with pytest.raises(ValueError):
        label_for(E, P2)  # codim 0 is implicit, not a core


@pytest.mark.parametrize("a", [2 * B + 2 * E, B + E, B - F + E, 2 * B - F,
                               B - 2 * E])
def test_label_for_refuses_classes_outside_the_families(a):
    # negative and of positive codimension, but no stratum is named by them
    assert codim(a, P2) > 0 > pair(a, a)
    with pytest.raises(ValueError, match="only these families label strata"):
        label_for(a, P2)


def test_label_core_is_at_most_one_class():
    # two positive-codimension classes pair negatively, so no label has both
    with pytest.raises(ValueError, match="at most one core class"):
        StratumLabel(22, (B - 2 * F, B - 3 * F))


def test_label_json_shape():
    lb = label_for(B - 2 * F, P2)
    assert lb.as_json() == {"core": ["B-2F"], "codim": 10}


def test_wide_scan_reduces_to_families_for_sections():
    found = wide_negative_classes(U, P2, 3)
    family = {a for a, status in found if status == IN_FAMILIES}
    assert family == set(negative_classes(U, P2))
    # every p <= 1 survivor is in the families
    for a, status in found:
        if a.p <= 1:
            assert status == IN_FAMILIES


def test_wide_scan_surfaces_multisection_candidates():
    found = dict(wide_negative_classes(U, P2, 3))
    two_b_minus_e = 2 * B - E
    assert found.get(two_b_minus_e) == OUTSIDE_FAMILIES
    assert adjunction_genus(two_b_minus_e, P2) == 2 * P2.g - 1


def test_wide_scan_meets_f_e_and_f_minus_e_non_negatively():
    """The scan's four filters (negative square, positive area, genus >= 0,
    multisection bound) leave no class A = pB+qF+rE that meets one of F, E,
    F-E other than itself negatively, so the scan equals a reference that
    also filters on those pairings.  With mu >= 1, 0 < c < 1 and g >= 0,
    the genus is 1 + (p-1)q + (g-1)p - r(r+1)/2, the area p mu + q + rc
    and A.A = 2pq - r^2:

    - p <= -1: the genus bound gives q <= 1 - r(r+1)/(2(1-p)).  For r <= 0
      that is q <= 1, while positive area needs q > -p mu >= 1; for r >= 1
      area needs q > -p - r, and both bounds at once ask
      r^2 - (1-2p)r + 2p^2 - 2p <= 0, whose discriminant 1 + 4p - 4p^2 is
      negative.
    - p = 0: r != 0, the genus is 1 - q - r(r+1)/2 and the area q + rc;
      only E and F-E pass, and each meets the other and F non-negatively.
    - p >= 1: the multisection bound reads 2q(p-1) >= r(r+1), which with
      2pq < r^2 forces -p <= r <= 0, so A.F = p, A.E = -r and
      A.(F-E) = p + r are all >= 0.

    Points on and 10^-9 off the walls mu = k and mu = k + c, and next to
    c = 0 and c = 1."""
    eps = Q(1, 10**9)
    points = [(Q(1), Q(1, 2)), (1 + eps, Q(1, 3)), (2 - eps, 1 - eps),
              (Q(2), eps), (2 + eps, Q(1, 2)), (Q(5, 2), Q(1, 2)),
              (Q(5, 2) + eps, Q(1, 2)), (Q(7, 2) - eps, Q(1, 2)),
              (Q(9, 2), Q(3, 10)), (Q(6), 1 - eps)]
    outside = 0
    for g in range(5):
        params = SurfaceParams(g)
        for mu, c in points:
            scan = wide_negative_classes(normalized(mu, c), params, 7)
            reference = [(a, status) for a, status in scan
                         if all(pair(a, x) >= 0
                                for x in (F, E, F - E) if a != x)]
            assert scan == reference, (g, mu, c)
            outside += sum(status == OUTSIDE_FAMILIES for _, status in scan)
    assert outside > 0  # the scan reaches past the families

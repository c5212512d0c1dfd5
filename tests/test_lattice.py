"""Intersection form, canonical class, adjunction and codimension."""

import random

import pytest

from ruledcone.lattice import (B, E, F, ClassVector, SurfaceParams,
                               adjunction_genus, canonical_class, codim,
                               format_class, pair, parse_class)


def random_class(rng, span=9):
    return ClassVector(rng.randint(-span, span), rng.randint(-span, span),
                       (rng.randint(-span, span),))


def test_form_on_basis():
    assert pair(B, F) == 1
    assert pair(B, B) == 0
    assert pair(F, F) == 0
    assert pair(E, E) == -1
    assert pair(B, E) == 0
    assert pair(F, E) == 0


def test_form_values():
    assert pair(B - 2 * F, B - 2 * F) == -4
    for k in range(0, 7):
        assert pair(B - k * F - E, E) == 1
    assert pair(F - E, F - E) == -1
    assert pair(B - 3 * F, B - 3 * F) == -6
    assert pair(B - 2 * F - E, B - 2 * F - E) == -5


def test_form_symmetric_bilinear():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (random_class(rng) for _ in range(3))
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert pair(a, b) == pair(b, a)
        assert pair(m * a + n * b, c) == m * pair(a, c) + n * pair(b, c)


def test_dimension_mismatch():
    # one blow-up: the exceptional coefficients are exactly a 1-tuple
    for r in [(), (0, 0), (1, -1), [0], 0]:
        with pytest.raises(ValueError, match="1-tuple"):
            ClassVector(1, 0, r)


def test_canonical_class():
    assert canonical_class(SurfaceParams(2)) == ClassVector(-2, 2, (1,))
    assert canonical_class(SurfaceParams(1)) == ClassVector(-2, 0, (1,))


def test_adjunction_genus_values():
    for g in range(0, 5):
        params = SurfaceParams(g)
        assert adjunction_genus(E, params) == 0
        assert adjunction_genus(F - E, params) == 0
        assert adjunction_genus(F, params) == 0
        assert adjunction_genus(B, params) == g
        for k in range(0, 6):
            assert adjunction_genus(B - k * F, params) == g
            assert adjunction_genus(B - k * F - E, params) == g


def test_adjunction_identity():
    # K.A = -A.A - 2 + 2 g(A) whenever the genus is defined
    rng = random.Random(23)
    for _ in range(400):
        g = rng.randint(0, 4)
        params = SurfaceParams(g)
        a = random_class(rng)
        if a.is_zero():
            continue
        genus = adjunction_genus(a, params)
        if genus is None:
            continue
        k = canonical_class(params)
        assert pair(k, a) == -pair(a, a) - 2 + 2 * genus


def test_adjunction_marker_for_impossible_classes():
    params = SurfaceParams(1)
    assert adjunction_genus(2 * E, params) is None
    assert adjunction_genus(3 * E, params) is None
    with pytest.raises(ValueError):
        adjunction_genus(ClassVector(0, 0, (0,)), params)


def test_codim_values():
    p2 = SurfaceParams(2)
    assert codim(E, p2) == 0
    assert codim(F - E, p2) == 0
    assert codim(B - F - E, p2) == 8
    for g in range(0, 5):
        params = SurfaceParams(g)
        for k in range(1, 6):
            assert codim(B - k * F, params) == 2 * (2 * k - 1 + g)
        for k in range(0, 6):
            assert codim(B - k * F - E, params) == 2 * (2 * k + g)


def test_codim_rejects_non_curves():
    with pytest.raises(ValueError):
        codim(2 * E, SurfaceParams(1))


def test_class_arithmetic_and_order():
    assert B - 2 * F - E == ClassVector(1, -2, (-1,))
    assert -(B - F) == ClassVector(-1, 1, (0,))
    assert sorted([B, E, F]) == [ClassVector(0, 0, (1,)),
                                 ClassVector(0, 1, (0,)),
                                 ClassVector(1, 0, (0,))]
    # lexicographic in (p, q, r), and only among class vectors
    classes = [B - 2 * F, B - 2 * F - E, E, F - E, B, F, -B, ClassVector(0, 0)]
    assert sorted(classes) == [-B, ClassVector(0, 0), E, F - E, F,
                               B - 2 * F - E, B - 2 * F, B]
    assert B - 2 * F - E < B - 2 * F <= B - 2 * F < B and not B < B
    with pytest.raises(TypeError):
        B < (1, 0, (0,))


@pytest.mark.parametrize("text,expected", [
    ("B-2F-E", ClassVector(1, -2, (-1,))),
    ("B", B),
    ("F-E", F - E),
    ("-2B+3F-E", ClassVector(-2, 3, (-1,))),
    ("2B", ClassVector(2, 0, (0,))),
    ("B+0F", B),
    ("0", ClassVector(0, 0, (0,))),
    ("E1", E),
])
def test_parse_class(text, expected):
    assert parse_class(text) == expected


def test_parse_class_multi_blowup():
    for text in ("E2", "B-E1-E2", "E0"):
        with pytest.raises(ValueError, match="exceptional index"):
            parse_class(text)
    with pytest.raises(ValueError):
        parse_class("B-2G")


def test_parse_class_refuses_a_gap_or_a_trailing_sign():
    # text between two terms is refused inside the term loop, a sign after
    # the last term by the check that the terms reach the end
    for text in ("B?F", "B+xF", "B+", "2B-"):
        with pytest.raises(ValueError) as err:
            parse_class(text)
        assert str(err.value) == f"cannot parse class {text!r}"


def test_parse_class_refuses_terms_without_a_sign():
    # a term after the first carries its sign: side by side, "BB" read as
    # 2B and "B-2FF" as B-F, classes the text does not write
    for text in ("BB", "B2F", "B-2FF"):
        with pytest.raises(ValueError) as err:
            parse_class(text)
        assert str(err.value) == f"cannot parse class {text!r}"
    assert parse_class("-2B+3F-E1") == ClassVector(-2, 3, (-1,))
    assert parse_class("2 B - F") == 2 * B - F


def test_format_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        a = random_class(rng)
        assert parse_class(format_class(a)) == a
    assert format_class(B - 2 * F - E) == "B-2F-E"
    assert format_class(ClassVector(0, 0, (0,))) == "0"


def test_class_text_is_kept_on_the_instance():
    # the cached text is format_class's, and str() reads it
    span = range(-3, 4)
    for p in span:
        for q in span:
            for r in span:
                a = ClassVector(p, q, (r,))
                assert "text" not in vars(a)
                assert a.text == format_class(a) == str(a)
                assert vars(a)["text"] is a.text is str(a)

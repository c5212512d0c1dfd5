"""Area-increment vectors, validity ranges and exactness of inflation."""

import random
from fractions import Fraction as Q

import pytest

from ruledcone.cone import area, normalized
from ruledcone.inflation import (InflationStep, RawClass, apply_step, inflate,
                                 normalize, pd_area_vector, raw_from, t_range)
from ruledcone.lattice import B, E, F, pair


def test_pd_vectors():
    assert pd_area_vector(F - E) == RawClass(1, 0, 1)
    for x in range(0, 5):
        assert pd_area_vector(B + x * F) == RawClass(x, 1, 0)
    for k in range(0, 5):
        assert pd_area_vector(B - k * F - E) == RawClass(-k, 1, 1)
    assert pd_area_vector(F) == RawClass(1, 0, 0)
    assert pd_area_vector(E) == RawClass(0, 0, -1)


def test_t_range():
    u = normalized(4, Q(1, 2))
    assert t_range(u, B - 2 * F - E) == Q(3, 10)
    assert t_range(u, F) is None
    assert t_range(u, B + 3 * F) is None
    for mu, c in [(Q(2), Q(1, 3)), (Q(7, 2), Q(4, 5))]:
        assert t_range(normalized(mu, c), E) == c
    with pytest.raises(ValueError):
        t_range(normalized(2, Q(1, 2)), B - 3 * F)  # negative area


def test_inflate_examples():
    raw = inflate(normalized(2, Q(1, 2)), InflationStep(F, 3))
    assert raw == RawClass(5, 1, Q(1, 2))
    raw = inflate(normalized(3, Q(1, 2)), InflationStep(E, Q(1, 4)))
    assert raw == RawClass(3, 1, Q(1, 4))
    raw = inflate(normalized(2, Q(1, 2)), InflationStep(F, 0))
    assert normalize(raw) == normalized(2, Q(1, 2))


def test_inflate_range_error_names_bound():
    u = normalized(4, Q(1, 2))
    with pytest.raises(ValueError, match="3/10"):
        inflate(u, InflationStep(B - 2 * F - E, Q(3, 10)))
    with pytest.raises(ValueError):
        InflationStep(E, -1)


def test_normalize():
    assert normalize(RawClass(5, 1, Q(1, 2))) == normalized(5, Q(1, 2))
    assert normalize(RawClass(3, 2, 1)) == normalized(Q(3, 2), Q(1, 2))
    # dividing by the fiber area, in symbols
    t, x, mu, c = Q(3), 2, Q(7), Q(1, 3)
    raw = RawClass(t * x + mu, 1 + t, c)
    assert normalize(raw) == normalized((t * x + mu) / (1 + t), c / (1 + t))
    with pytest.raises(ValueError):
        normalize(RawClass(1, 0, Q(1, 2)))


def test_raw_from_reads_the_two_rationals():
    assert raw_from(normalized(4, Q(1, 2))) == RawClass(4, 1, Q(1, 2))


def random_point(rng):
    mu = 1 + Q(rng.randint(1, 64), 16)
    c = Q(rng.randint(1, 15), 16)
    return normalized(mu, c)


def random_positive_class(rng, u):
    pool = [F, E, F - E, B, B + 2 * F,
            B - F, B - 2 * F, B - E, B - F - E, B - 2 * F - E]
    while True:
        z = pool[rng.randrange(len(pool))]
        if area(u, z) > 0:
            return z


def test_inflation_exactness_property():
    # area(u + t PD(z), A) - area(u, A) = t * (z . A), exactly
    rng = random.Random(77)
    for _ in range(500):
        u = random_point(rng)
        z = random_positive_class(rng, u)
        bound = t_range(u, z)
        t = Q(rng.randint(0, 200), 100) if bound is None else \
            bound * Q(rng.randint(0, 99), 100)
        raw = inflate(u, InflationStep(z, t))
        for a in (B, F, E, F - E):
            got = raw.b_area * a.p + raw.f_area * a.q + raw.e_area * a.r[0]
            assert got == area(u, a) + t * pair(z, a)


def test_area_of_inflated_class_stays_positive():
    # for z.z < 0 the area of z decreases linearly and stays positive on [0, T)
    rng = random.Random(99)
    for _ in range(200):
        u = random_point(rng)
        z = random_positive_class(rng, u)
        if pair(z, z) >= 0:
            continue
        bound = t_range(u, z)
        samples = sorted(bound * Q(i, 7) for i in range(7))
        areas = []
        for t in samples:
            raw = inflate(u, InflationStep(z, t))
            val = raw.b_area * z.p + raw.f_area * z.q + raw.e_area * z.r[0]
            assert val == area(u, z) + t * pair(z, z)
            assert val > 0
            areas.append(val)
        assert areas == sorted(areas, reverse=True)


def test_fiber_inflation_fixes_c_and_grows_mu():
    u = normalized(Q(5, 2), Q(3, 10))
    last_mu = u.mu
    for t in (Q(1, 2), Q(3, 2), Q(7)):
        v = normalize(inflate(u, InflationStep(F, t)))
        assert v.c == u.c
        assert v.mu == u.mu + t > last_mu
        last_mu = v.mu


def test_commuting_steps():
    rng = random.Random(13)
    for _ in range(100):
        u = random_point(rng)
        z1 = random_positive_class(rng, u)
        z2 = random_positive_class(rng, u)
        t1 = Q(rng.randint(0, 20), 100)
        t2 = Q(rng.randint(0, 20), 100)
        one = apply_step(apply_step(raw_from(u), InflationStep(z1, t1)),
                         InflationStep(z2, t2))
        two = apply_step(apply_step(raw_from(u), InflationStep(z2, t2)),
                         InflationStep(z1, t1))
        assert one == two


def test_step_serialization():
    step = InflationStep(B - 2 * F - E, Q(3, 20), "stratum")
    assert step.as_json() == {"z": "B-2F-E", "t": "3/20",
                              "assumption": "stratum"}


def test_step_parameter_is_a_fraction():
    # a Fraction is kept as given; an int or a "p/q" string is converted
    t = Q(3, 20)
    assert InflationStep(F, t).t is t
    for given, expected in ((2, Q(2)), (0, Q(0)), ("3/4", Q(3, 4)),
                            ("-0", Q(0))):
        step = InflationStep(F, given)
        assert type(step.t) is Q and step.t == expected
    for bad in (-1, Q(-1, 3), "-2/5"):
        with pytest.raises(ValueError, match="must be >= 0"):
            InflationStep(E, bad)

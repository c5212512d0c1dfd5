"""Property-based tests at the walls, where exact half-open conditions are
decided, and of the CLI's argument reader and JSON writer.

A point is drawn on a wall mu = k or mu = k + c, or within 2^-j or 10^-j of
one on either side, with a free second coordinate.  Its one-pass
construction must agree with an independent `Fraction` reference: the
violated cone constraints and their texts, the chamber read from the area
signs of the section classes, and the walls as the section classes of zero
area.  The CLI's `_json_text` must write what
``json.dumps(x, indent=2, sort_keys=True)`` writes for every nesting of
dicts, lists and tuples of str, int, bool and None, and refuse anything
else.  Whenever the CLI's `_read_known` builds a command's namespace, that
command's own parser must return the same one with no leftovers, and
whenever the parser exits (help or an error), the reader must have
declined.  On the served path, a rational's text must parse back to it,
and a certified plan's JSON must parse back to its integer moves.  Each
state in the cone that a same-chamber plan walks through gets from
`cone.chamber_index` the chamber that the area signs of its section classes
give, and each state or point off the cone gets 0.
Hypothesis runs derandomized and without an example database, so every
run draws the same examples.
"""

import contextlib
import io
import json
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledcone.cli import _dict_layout, _json_text, _read_known, build_parser
from ruledcone.cone import (_MEMO_INDEX, ChamberId, active_walls,
                            chamber_index, chamber_of, normalized,
                            validity_violations)
from ruledcone.lattice import SurfaceParams, parse_class
from ruledcone.planner import InflationPlan, plan
from ruledcone.rationals import format_ratio, format_rational, parse_rational
from ruledcone.strata import chamber_labels

NEAR_WALL = settings(derandomize=True, database=None, max_examples=400,
                     deadline=None)


@st.composite
def near_wall_points(draw) -> tuple[Q, Q]:
    """(mu, c): a wall B-kF (mu = k) or B-kF-E (mu = k + c), k in 1..40,
    moved by 0 or by +-2^-j or +-10^-j; c = a/b in (0, 1) with b up to
    10^12.  Below mu = 1 a point is invalid."""
    den = draw(st.integers(2, 10**12))
    c = Q(draw(st.integers(1, den - 1)), den)
    k = draw(st.integers(1, 40))
    mu = k + c if draw(st.booleans()) else Q(k)
    base, j = draw(st.sampled_from([(2, 60), (10, 18)]))
    sign = draw(st.sampled_from([-1, 0, 1]))
    return mu + sign * Q(1, base ** draw(st.integers(0, j))), c


def area(a, mu: Q, c: Q) -> Q:
    return a.p * mu + a.q + a.r[0] * c


def reference_violations(mu: Q, c: Q) -> list[str]:
    """The cone constraints as Fraction comparisons, with their texts."""
    fm, fc = format_rational(mu), format_rational(c)
    bad = []
    if not mu > 0:
        bad.append(f"mu > 0 violated (mu = {fm})")
    if not (0 < c and c < 1):
        bad.append(f"0 < e_1 < 1 violated (e_1 = {fc})")
    if not c < mu:
        bad.append(f"e_1 < mu violated (e_1 = {fc}, mu = {fm})")
    if not mu >= 1:
        bad.append(f"mu >= 1 policy violated (mu = {fm});"
                   " the leftmost chamber is out of scope")
    return bad


def reference_chamber_and_walls(mu: Q, c: Q):
    """The chamber n of a valid point, where the first n section classes
    B-E, B-F, B-F-E, ... have positive area and the rest do not, and the
    section classes of zero area."""
    sections = ChamberId(2 * math.ceil(mu) + 2).section_classes()
    signs = [area(a, mu, c) > 0 for a in sections]
    n = signs.index(False)
    assert not any(signs[n:]), (mu, c)
    return n, [a for a in sections if area(a, mu, c) == 0]


@NEAR_WALL
@given(near_wall_points())
def test_one_pass_points_agree_with_the_fraction_reference(point):
    mu, c = point
    u = normalized(mu, c)
    m, n, d = u.ints
    assert (Q(m, d), Q(n, d)) == (mu, c)
    assert d == math.lcm(mu.denominator, c.denominator)
    bad = reference_violations(mu, c)
    assert validity_violations(u) == bad
    if bad:
        text = "invalid normalized class: " + "; ".join(bad)
        for check in (chamber_of, active_walls):
            with pytest.raises(ValueError) as err:
                check(u)
            assert str(err.value) == text
        return
    index, walls = reference_chamber_and_walls(mu, c)
    assert chamber_of(u) == ChamberId(index)
    assert [w.curve_class for w in active_walls(u)] == walls


@NEAR_WALL
@given(st.one_of(near_wall_points(), st.tuples(
    st.builds(Q, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Q, st.integers(-30, 30), st.integers(1, 12)))))
def test_chamber_index_is_zero_exactly_off_the_cone(point):
    # valid, invalid and near-wall points: the closed form alone decides
    # validity, and the violation texts are those of the reference
    u = normalized(*point)
    bad = validity_violations(u)
    assert bad == reference_violations(*point)
    assert (chamber_index(*u.ints) == 0) == bool(bad)


JSON_VALUES = settings(derandomize=True, database=None, max_examples=150,
                       deadline=None)

# quotes, backslashes, control characters, DEL, non-ASCII and an astral
# character, beside any code point (lone surrogates included)
_CHARS = st.one_of(
    st.sampled_from('"\\/\n\t\b\x00\x1f\x7f\xe9\u20ac\U0001f600'),
    st.characters(exclude_categories=()))
_KEYS = st.one_of(
    st.sampled_from(["", "a", "B", "_", "a0", "aa", "\xe9", "Z"]),
    st.text(_CHARS, max_size=6))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(-10**60, 10**60),
                     st.text(_CHARS, max_size=12))
JSON_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=24)


@JSON_VALUES
@given(JSON_PAYLOADS)
@example("")  # a bare str, which the derandomized draws miss
@example('q"uote \\ back\nline \u00fc\u2028\x7f')
def test_json_writer_writes_what_json_dumps_writes(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2,
                                             sort_keys=True)


@pytest.mark.parametrize("payload", [
    0.5, {"t": 1.0}, [1, [2.5]], {1: "a"}, {"a": {None: 1}}, {"a": 1, 2: 3},
    Q(1, 2), {"a", "b"}])
def test_json_writer_refuses_floats_and_non_str_keys(payload):
    # json.dumps would write a float, or turn the key into a string; a
    # Fraction or a set has no JSON form at all
    with pytest.raises(TypeError):
        _json_text(payload)


def test_json_layout_is_one_per_key_set_in_any_insertion_order():
    first = {"mu": "5/2", "e": ["1/2"], "steps": [{"z": "B", "t": "1"}]}
    second = {"steps": [{"t": "1", "z": "B"}], "e": ["1/2"], "mu": "5/2"}
    assert list(first) != list(second)
    assert _json_text(first) == _json_text(second) \
        == json.dumps(first, indent=2, sort_keys=True)


def test_json_layout_refuses_a_non_str_key_on_every_call():
    # a call that raises is not kept, so a repeated bad key is refused again
    _dict_layout.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError, match="^JSON key 1 is not a str$"):
            _json_text({"a": 0, 1: "b"})
    assert _dict_layout.cache_info().currsize == 0


def test_json_layouts_past_the_memo_bound_write_what_json_dumps_writes():
    assert _dict_layout.cache_info().maxsize == _MEMO_INDEX
    # more key sets than the memo keeps, each at two indents, written twice
    payload = [{f"k{i}": i, "a": {f"j{i}": [i, {"x": None}]}}
               for i in range(3 * _MEMO_INDEX)]
    for _ in range(2):
        assert _json_text(payload) == json.dumps(payload, indent=2,
                                                 sort_keys=True)
    assert _dict_layout.cache_info().currsize == _MEMO_INDEX


ARGVS = settings(derandomize=True, database=None, max_examples=400,
                 deadline=None)
COMMANDS = build_parser().commands

# values with and without a leading dash or a space, of no type, of a bad
# type or out of the choices, and empty
_ANY_VALUE = st.sampled_from(
    ["2", "-1", " 3", "one", "", " ", "-", "--", "5/2,3/10", "-1/2,1/2",
     "-1/2, 1/2", "open", "B-2F", "csv", "png", "-h", "--json", "a=b"])


def _value(action):
    """A value the option takes: a choice, an int, or an untyped string."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-2, 30).map(str)
    return st.sampled_from(["5/2,3/10", "3", "1/8", "open", "B-2F", "x y", ""])


@st.composite
def command_argvs(draw) -> tuple[str, list[str]]:
    """A command and its argv: most required options and some others, in
    any order, each with a value it takes, then up to two stray words (an
    exact or abbreviated option string, help, ``--``, an ``--opt=value``
    form, a positional or any value) at any place."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[name]._actions
               if a.option_strings and "-h" not in a.option_strings]
    argv = []
    for action in draw(st.permutations(actions)):
        if draw(st.integers(0, 9)) < (9 if action.required else 3):
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0:
                argv.append(draw(_value(action)))
    option = st.sampled_from([s for a in actions for s in a.option_strings])
    stray = st.one_of(
        option,
        option.flatmap(lambda s: st.integers(1, len(s) - 1).map(
            lambda k: s[:k])),
        st.sampled_from(["-h", "--help", "--", "extra"]),
        st.tuples(option, _ANY_VALUE).map("=".join),
        _ANY_VALUE)
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return name, argv


@ARGVS
@given(command_argvs())
def test_reader_builds_what_the_command_parser_builds(case):
    name, argv = case
    read = _read_known(build_parser().tables[name], argv)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = COMMANDS[name].parse_known_args(argv)
        except SystemExit:
            assert read is None, argv
            return
    if read is not None:
        assert (vars(read), extra) == (vars(args), []), argv


SERVED = settings(derandomize=True, database=None, max_examples=200,
                  deadline=None)
_BIG = 10**12


@SERVED
@given(st.integers(-_BIG, _BIG), st.integers(1, _BIG))
def test_rational_text_parses_back(p, q):
    x = Q(p, q)
    assert parse_rational(format_rational(x)) == x
    assert format_ratio(p, q) == format_rational(x)


@st.composite
def same_chamber_requests(draw):
    """(g, u1, u2, label): two points of one chamber 2g .. 2g+7, as the
    plan-serve workload draws them, and a label of that chamber.  Chamber
    n = 2k + s holds mu = k + a/d, c = b/d with a <= b when s = 0 and
    a > b when s = 1."""
    g = draw(st.integers(1, 3))
    index = draw(st.integers(2 * g, 2 * g + 7))
    k, odd = divmod(index, 2)
    den = draw(st.integers(2, 64))

    def point():
        b = draw(st.integers(1, den - 1))
        a = draw(st.integers(b + 1, den) if odd else st.integers(1, b))
        return normalized(k + Q(a, den), Q(b, den))

    u1, u2 = point(), point()
    params = SurfaceParams(g)
    label = draw(st.sampled_from(chamber_labels(ChamberId(index), params)))
    return params, u1, u2, label


@SERVED
@given(same_chamber_requests())
def test_plan_json_parses_back_to_its_moves(case):
    params, u1, u2, label = case
    transport = plan(u1, u2, label, params)  # same chamber: it certifies
    steps = transport.as_json()["steps"]
    assert [(parse_class(s["z"]), parse_rational(s["t"]),
             s.get("assumption")) for s in steps] == [
        (z, Q(p, q), tag) for z, p, q, tag in transport.moves]


@SERVED
@given(same_chamber_requests())
def test_plan_states_take_the_chamber_of_their_area_signs(case):
    params, u1, u2, label = case
    # a state (b, f, e, d) is the point (b/f, e/f) scaled by f/d > 0; the
    # rounds of a leg may pass off the cone, e.g. at (b, f, e) = (8, 9, 2)
    for b, f, e, _ in plan(u1, u2, label, params)._walk():
        if reference_violations(Q(b, f), Q(e, f)):
            assert chamber_index(b, e, f) == 0, (b, f, e)
            continue
        n, _ = reference_chamber_and_walls(Q(b, f), Q(e, f))
        assert chamber_index(b, e, f) == n, (b, f, e)


@SERVED
@given(same_chamber_requests())
def test_plan_carries_the_states_a_fresh_walk_reaches(case):
    params, u1, u2, label = case
    built = plan(u1, u2, label, params)
    # the same fields, built by hand: its states come from a walk
    fresh = InflationPlan(built.start, built.moves, built.end, built.label)
    assert "states" in vars(built) and "states" not in vars(fresh)
    assert fresh.states == built.states
    assert fresh.stays_in_chamber() is built.stays_in_chamber()
    assert fresh.intermediates() == built.intermediates()

"""The frozen value types of the classification path as plain data.

`ClassVector`, `SurfaceParams`, `NormalizedClass`, `ChamberId`, `Wall` and
`InflationPlan` compare, hash, print, pickle, copy and replace by their
fields alone, take their fields by position or keyword, and refuse
assignment.  A `NormalizedClass` also carries (m, n, d) and its chamber
outside the fields; pickling and copying keep them, and
replacing recomputes them.  An `InflationPlan` carries its certified
states outside the fields: a planner-built plan from its build, one built
from its fields from a walk on first read, and the two must agree.  The
library's rational inputs are exact: a float is refused where a Fraction,
an int or a p/q string is taken, a string is read as p/q text only, and a
class coefficient that is not an int is refused.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction as Q

import pytest

from ruledcone.cone import (ChamberId, NormalizedClass, Wall, active_walls,
                            chamber_of, figure_data, normalized)
from ruledcone.inflation import InflationStep, RawClass
from ruledcone.lattice import B, E, F, ClassVector, SurfaceParams, codim
from ruledcone.planner import (InflationPlan, plan_left_open,
                               plan_left_stratum, plan_right, plan_vertical,
                               stratum_left_parameter, verify_stability)
from ruledcone.strata import OPEN_LABEL, label_for

# (build, fields, repr, a changed field, the value built with it)
CASES = [
    (lambda: ClassVector(1, -7, (0,)), {"p": 1, "q": -7, "r": (0,)},
     "ClassVector(p=1, q=-7, r=(0,))", {"r": (-1,)}, B - 7 * F - E),
    (lambda: ClassVector(0, 1), {"p": 0, "q": 1, "r": (0,)},
     "ClassVector(p=0, q=1, r=(0,))", {"p": 1}, B + F),
    (lambda: SurfaceParams(2), {"g": 2}, "SurfaceParams(g=2)",
     {"g": 0}, SurfaceParams(0)),
    (lambda: NormalizedClass(Q(57, 8), Q(3, 8)),
     {"mu": Q(57, 8), "c": Q(3, 8)},
     "NormalizedClass(mu=Fraction(57, 8), c=Fraction(3, 8))",
     {"c": Q(1, 8)}, normalized(Q(57, 8), Q(1, 8))),
    (lambda: normalized(7, "3/8"), {"mu": Q(7), "c": Q(3, 8)},
     "NormalizedClass(mu=Fraction(7, 1), c=Fraction(3, 8))",
     {"mu": Q(1, 2)}, normalized(Q(1, 2), Q(3, 8))),
    (lambda: normalized(2, 1), {"mu": Q(2), "c": Q(1)},  # invalid: c = 1
     "NormalizedClass(mu=Fraction(2, 1), c=Fraction(1, 1))",
     {"c": Q(1, 2)}, normalized(2, Q(1, 2))),
    (lambda: ChamberId(14), {"index": 14}, "ChamberId(index=14)",
     {"index": 3}, ChamberId(3)),
    (lambda: ChamberId(500), {"index": 500}, "ChamberId(index=500)",
     {"index": 1}, ChamberId(1)),
    (lambda: active_walls(normalized(7, Q(3, 8)))[0],
     {"curve_class": B - 7 * F},
     "Wall(curve_class=ClassVector(p=1, q=-7, r=(0,)))",
     {"curve_class": B - F - E}, active_walls(normalized(Q(5, 4), Q(1, 4)))[0]),
    (lambda: active_walls(normalized(Q(403, 8), Q(3, 8)))[0],  # B-50F-E
     {"curve_class": B - 50 * F - E},
     "Wall(curve_class=ClassVector(p=1, q=-50, r=(-1,)))",
     {"curve_class": E}, Wall(E)),
    (lambda: plan_right(normalized(Q(7, 2), Q(1, 2)), 4),
     {"start": normalized(Q(7, 2), Q(1, 2)), "moves": ((F, 2, 4, "always"),),
      "end": normalized(4, Q(1, 2)), "label": None},
     "InflationPlan(start=NormalizedClass(mu=Fraction(7, 2), c=Fraction(1,"
     " 2)), moves=((ClassVector(p=0, q=1, r=(0,)), 2, 4, 'always'),),"
     " end=NormalizedClass(mu=Fraction(4, 1), c=Fraction(1, 2)), label=None)",
     {"label": OPEN_LABEL},
     InflationPlan(normalized(Q(7, 2), Q(1, 2)), ((F, 2, 4, "always"),),
                   normalized(4, Q(1, 2)), OPEN_LABEL)),
    (lambda: plan_vertical(normalized(Q(7, 2), Q(1, 2)), Q(5, 8),
                           label_for(B - 2 * F, SurfaceParams(1)),
                           SurfaceParams(1)),
     {"start": normalized(Q(7, 2), Q(1, 2)),
      "moves": ((F - E, 22, 156, "always"), (B - 2 * F, 4, 156, "stratum")),
      "end": normalized(Q(7, 2), Q(5, 8)),
      "label": label_for(B - 2 * F, SurfaceParams(1))},
     "InflationPlan(start=NormalizedClass(mu=Fraction(7, 2), c=Fraction(1,"
     " 2)), moves=((ClassVector(p=0, q=1, r=(-1,)), 22, 156, 'always'),"
     " (ClassVector(p=1, q=-2, r=(0,)), 4, 156, 'stratum')),"
     " end=NormalizedClass(mu=Fraction(7, 2), c=Fraction(5, 8)),"
     " label=StratumLabel(codim=8, core=(ClassVector(p=1, q=-2, r=(0,)),)))",
     {"end": normalized(Q(7, 2), Q(3, 4))},
     InflationPlan(normalized(Q(7, 2), Q(1, 2)),
                   ((F - E, 22, 156, "always"),
                    (B - 2 * F, 4, 156, "stratum")),
                   normalized(Q(7, 2), Q(3, 4)),
                   label_for(B - 2 * F, SurfaceParams(1)))),
]

PARAMETERS = {
    ClassVector: [("p", None), ("q", None), ("r", (0,))],
    SurfaceParams: [("g", None)],
    NormalizedClass: [("mu", None), ("c", None)],
    ChamberId: [("index", None)],
    Wall: [("curve_class", None)],
    InflationPlan: [("start", None), ("moves", None), ("end", None),
                    ("label", None)],
}


def _parameters(cls) -> list[tuple]:
    """The constructor's parameters as (name, default or None)."""
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    return [(p.name, None if p.default is p.empty else p.default)
            for p in params]


def _plain(x) -> dict:
    """Everything an instance carries: its fields and, for a cone point,
    its (m, n, d) and chamber; for a plan also its states, read
    first, so that a plan built from its fields walks them."""
    if isinstance(x, InflationPlan):
        x.states
    return dict(vars(x))


@pytest.mark.parametrize("build,fields,text,change,changed", CASES)
def test_value_types_are_plain_data(build, fields, text, change, changed):
    x, y = build(), build()
    cls = type(x)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y) == text
    assert x != changed and not x == 0 and x != "x"
    assert [f.name for f in dataclasses.fields(x)] == list(fields)
    assert {name: getattr(x, name) for name in fields} == fields
    assert cls.__match_args__ == tuple(fields)
    assert _parameters(cls) == PARAMETERS[cls]
    # pickle and copy keep every attribute, including a point's cached ones
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                  copy.deepcopy(x)):
        assert type(clone) is cls and clone == x and hash(clone) == hash(x)
        assert _plain(clone) == _plain(x)
    # replace builds through the constructor, so a point recomputes them
    assert _plain(dataclasses.replace(x)) == _plain(x)
    replaced = dataclasses.replace(x, **change)
    assert replaced == changed and _plain(replaced) == _plain(changed)
    assert _plain(cls(**fields)) == _plain(x)
    for name in (*fields, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, getattr(x, name, 0))
        if name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
    assert _plain(x) == _plain(y)


def test_points_share_chambers_and_walls_below_a_bound():
    # points of one chamber below the bound share its ChamberId, and points
    # on one wall its Wall; past the bound each point builds its own
    u, v = normalized(Q(57, 8), Q(3, 8)), normalized(Q(29, 4), Q(1, 2))
    assert chamber_of(u) is chamber_of(v) == ChamberId(14)
    w = normalized(7, Q(3, 8))
    assert active_walls(w)[0] is active_walls(normalized(7, Q(1, 2)))[0]
    assert active_walls(w) is not active_walls(w)  # a fresh list per call
    big = normalized(Q(801, 2), Q(1, 2))
    assert chamber_of(big) == ChamberId(800) == chamber_of(
        normalized(Q(1601, 4), Q(1, 4)))
    assert [x.curve_class for x in active_walls(big)] == [B - 400 * F - E]


_U = normalized(Q(7, 2), Q(1, 2))  # chamber 6 at g = 1
_G1 = SurfaceParams(1)
_LABEL = label_for(B - 2 * F, _G1)


@pytest.mark.parametrize("call,exact,inexact,text", [
    (lambda x: normalized(x, Q(1, 10)), Q(5, 2), 2.5, None),
    (lambda x: NormalizedClass(Q(5, 2), x), "1/10", 0.1, None),
    (lambda x: plan_right(_U, x), 4, 4.0, None),
    (lambda x: plan_left_open(_U, x, _G1), Q(5, 2), 2.5, None),
    (lambda x: plan_left_stratum(_U, x, _LABEL, _G1), "5/2", 2.5, None),
    (lambda x: plan_vertical(_U, x, _LABEL, _G1), Q(1, 4), 0.25, None),
    (lambda x: plan_vertical(_U, x, OPEN_LABEL, _G1), Q(3, 4), 0.75, None),
    (lambda x: stratum_left_parameter(_U, B - F - E, x), Q(5, 2), 2.5, None),
    (lambda x: verify_stability(_G1, x, Q(1, 2)), 3, 3.0, None),
    (lambda x: verify_stability(_G1, 3, x), Q(1, 2), 0.5, None),
    (lambda x: verify_stability(_G1, 3, Q(1, 2), mu_min=x), 2, 2.0, None),
    (lambda x: figure_data(x), "5/2", 2.5, None),
    # a genus that is not an int used to reach the adjunction formula and
    # raise "B-F admits no embedded representative"
    (lambda g: codim(B - F, SurfaceParams(g)), 2, 1.5, "genus must be an"
     " int, got 1.5"),
    (lambda g: SurfaceParams(g), 0, 2.0, "genus must be an int, got 2.0"),
    (lambda g: SurfaceParams(g), 1, "1", "genus must be an int, got '1'"),
    (lambda g: SurfaceParams(g), 3, Q(3), "genus must be an int, got"
     " Fraction(3, 1)"),
    (lambda g: SurfaceParams(g), 1, True, "genus must be an int, got True"),
    # the Fraction engine used to keep a float's binary fraction, so that
    # RawClass(1, 1, 0.1) printed [1, 1, 3602879701896397/36028797018963968]
    (lambda x: RawClass(1, 1, x), "1/10", 0.1, None),
    (lambda x: InflationStep(F, x), Q(1, 10), 0.1, None),
    # a class with a coefficient that is not an int used to build, and its
    # area came out a float
    (lambda x: ClassVector(x, 0), 1, 0.5, "class coefficient p must be an"
     " int, got 0.5"),
    (lambda x: ClassVector(1, x), -2, Q(-2), "class coefficient q must be an"
     " int, got Fraction(-2, 1)"),
    (lambda x: ClassVector(1, 0, (x,)), -1, True, "class coefficient r[0]"
     " must be an int, got True"),
], ids=["normalized-mu", "NormalizedClass-c", "plan_right",
        "plan_left_open", "plan_left_stratum", "plan_vertical",
        "plan_vertical-open", "stratum_left_parameter", "verify-mu_max",
        "verify-grid_step", "verify-mu_min", "figure_data", "codim-genus",
        "genus-float", "genus-str", "genus-Fraction", "genus-bool",
        "RawClass", "InflationStep-t", "ClassVector-p", "ClassVector-q",
        "ClassVector-r"])
def test_inputs_are_exact_at_the_library_boundary(call, exact, inexact,
                                                  text):
    # the exact input works; a float, exact in binary or not, is refused
    # with the form to use instead, and so is a genus or a class
    # coefficient that is not an int
    call(exact)
    with pytest.raises(ValueError) as err:
        call(inexact)
    assert str(err.value) == (text or f"inexact float {inexact!r}: give an"
                              " int, a Fraction or a p/q string")


@pytest.mark.parametrize("text", ["1e3", "0.5e1", "1_0/40", "2.5"])
def test_rational_text_is_read_as_p_q_at_the_library_boundary(text):
    # a string takes the CLI's grammar, `parse_rational`, not Fraction's:
    # normalized("1e3", "1/2") used to be (1000, 1/2)
    for call in (lambda x: normalized(x, Q(1, 2)),
                 lambda x: NormalizedClass(Q(5, 2), x),
                 lambda x: plan_left_stratum(_U, x, _LABEL, _G1),
                 lambda x: verify_stability(_G1, x, Q(1, 2)),
                 lambda x: verify_stability(_G1, 3, x)):
        with pytest.raises(ValueError) as err:
            call(text)
        assert str(err.value) == f"not an integer or p/q rational: {text!r}"

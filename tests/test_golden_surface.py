"""Golden surface of the five planner entry points over a fixed sweep.

For g = 0, 1 and 2 the sweep takes the step-1/4 grid of points (mu, c)
with 1 <= mu <= g + 2, every label that can occur there (present at the
start point or not; B-E has codimension 0 at g = 0, so it labels nothing
there) and every pinned section coefficient x in -1..g+1, and calls

    plan                every ordered same-chamber pair and one vertical
                        neighbour pair per mu, every label; x pinned on `open`
    plan_vertical       targets c in 0..1 step 1/4 (both ends out of range),
                        every label; x pinned on `open`
    plan_right          targets 3/4 (refused) and g + 2
    plan_left_open      targets mu in 3/4 and 1..g+2 step 1/2, x free and
                        pinned
    plan_left_stratum   the same mu targets, every label

from the grid points with c = 1/4 and 3/4 (all of them for `plan`).

Each call's outcome is its plan JSON, intermediate points and replayed
endpoint, or its error text.  The golden file keeps, per entry point and g,
the number of calls, one sha256 over the outcomes in order, and the error
texts with their counts, so any change of a plan, a verdict, an error text
or the order of precondition checks shows up here.

Regenerate (only when an outcome is meant to change) with

    PYTHONPATH=src python tests/test_golden_surface.py --write
"""

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

from ruledcone.cone import chamber_of, normalized
from ruledcone.lattice import B, E, F, SurfaceParams, codim
from ruledcone.planner import (PlanError, plan, plan_left_open, plan_left_stratum,
                               plan_right, plan_vertical)
from ruledcone.strata import OPEN_LABEL, label_for

GOLDEN = Path(__file__).parent / "golden" / "surface.json"

STEP = Q(1, 4)


def _outcome(call) -> tuple[str, str | None]:
    """(outcome text, error text or None) of one planner call."""
    try:
        pl = call()
        points = ";".join(str(v) for v in pl.intermediates())
        return (json.dumps(pl.as_json(), sort_keys=True) + "|" + points
                + "|" + str(pl.replay())), None
    except PlanError as err:
        return str(err), str(err)
    except ValueError as err:
        text = f"ValueError: {err}"
        return text, text


def _calls(g: int):
    """(entry point name, thunk) over the sweep for genus g."""
    params = SurfaceParams(g)
    mus = [1 + i * STEP for i in range(4 * (g + 1) + 1)]
    points = [normalized(mu, c) for mu in mus for c in (Q(1, 4), Q(1, 2),
                                                        Q(3, 4))]
    cores = ([B - k * F for k in range(1, g + 2)]
             + [B - k * F - E for k in range(g + 2)])
    labels = [OPEN_LABEL] + [label_for(a, params) for a in cores
                             if codim(a, params) > 0]
    pinned = list(range(-1, g + 2))
    mu_targets = [Q(3, 4)] + mus[::2]
    c_targets = [i * STEP for i in range(5)]
    for i, u1 in enumerate(points):
        # same-chamber pairs, and (mu, 1/4) -> (mu, 1/2) across a wall or not
        across = [points[i + 1]] if i % 3 == 0 else []
        for u2 in across + [v for v in points
                            if v != u1 and chamber_of(u1) == chamber_of(v)]:
            for lb in labels:
                yield "plan", lambda u1=u1, u2=u2, lb=lb: plan(u1, u2, lb,
                                                                params)
            for x in pinned:
                yield "plan", lambda u1=u1, u2=u2, x=x: plan(
                    u1, u2, OPEN_LABEL, params, x=x)
    for u in points[::3] + points[2::3]:  # c = 1/4 and 3/4
        for c in c_targets:
            for lb in labels:
                yield "plan_vertical", lambda u=u, c=c, lb=lb: plan_vertical(
                    u, c, lb, params)
            for x in pinned:
                yield "plan_vertical", lambda u=u, c=c, x=x: plan_vertical(
                    u, c, OPEN_LABEL, params, x=x)
        for mu in (Q(3, 4), Q(g + 2)):
            yield "plan_right", lambda u=u, mu=mu: plan_right(u, mu)
        for mu in mu_targets:
            for x in [None] + pinned:
                yield "plan_left_open", lambda u=u, mu=mu, x=x: plan_left_open(
                    u, mu, params, x=x)
            for lb in labels:
                yield "plan_left_stratum", (
                    lambda u=u, mu=mu, lb=lb: plan_left_stratum(u, mu, lb,
                                                                params))


def corpus() -> dict:
    """'<entry point> g=<g>' -> calls, sha256 of the outcomes, error counts."""
    out = {}
    for g in (0, 1, 2):
        digests: dict[str, object] = {}
        calls: Counter = Counter()
        errors: dict[str, Counter] = {}
        for name, call in _calls(g):
            text, error = _outcome(call)
            digest = digests.setdefault(name, hashlib.sha256())
            digest.update(text.encode() + b"\n")
            calls[name] += 1
            if error is not None:
                errors.setdefault(name, Counter())[error] += 1
        for name, digest in digests.items():
            out[f"{name} g={g}"] = {
                "calls": calls[name],
                "sha256": digest.hexdigest(),
                "errors": dict(sorted(errors.get(name, Counter()).items())),
            }
    return out


def render() -> str:
    return json.dumps(corpus(), indent=1, sort_keys=True) + "\n"


def test_entry_point_surface_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_surface.py --write")
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

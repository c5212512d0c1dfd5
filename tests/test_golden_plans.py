"""Golden plan corpus: the JSON of a fixed list of plans, byte for byte.

The corpus covers every route shape the planner builds: the README
examples, open-stratum leftward hops for each section coefficient, a
multi-hop stratum route with blow-up-area drops, a rightward plan and a
vertical plan whose interleave needs more than one round.

Regenerate (only when a plan is meant to change) with

    PYTHONPATH=src python tests/test_golden_plans.py --write
"""

import json
import sys
from fractions import Fraction as Q
from pathlib import Path

from ruledcone.cone import normalized
from ruledcone.lattice import B, E, F, SurfaceParams
from ruledcone.planner import (plan, plan_left_open, plan_left_stratum,
                               plan_right, plan_vertical)
from ruledcone.strata import OPEN_LABEL, label_for

GOLDEN = Path(__file__).parent / "golden" / "plans.json"

P1 = SurfaceParams(1)
P2 = SurfaceParams(2)


def corpus() -> dict:
    """Case name -> plan JSON."""
    cases = {
        # the two `plan` examples of the README
        "readme-open-vertical": plan(normalized(Q(5, 2), Q(3, 10)),
                                     normalized(Q(5, 2), Q(2, 5)),
                                     OPEN_LABEL, P2),
        "readme-stratum-left": plan(normalized(4, Q(1, 2)),
                                    normalized(Q(15, 4), Q(1, 2)),
                                    label_for(B - 2 * F, P2), P2),
        # leaves its chamber mid-route: stays_in_chamber is false
        "stratum-left-leaves-chamber": plan(normalized(Q(5, 2), Q(3, 4)),
                                            normalized(Q(9, 4), Q(1, 2)),
                                            label_for(B - F, P2), P2),
        "open-left-pinned-x": plan(normalized(Q(7, 2), Q(3, 4)),
                                   normalized(Q(13, 4), Q(1, 2)),
                                   OPEN_LABEL, P2, x=1),
        "stratum-left-minus-e": plan_left_stratum(
            normalized(4, Q(1, 2)), 3, label_for(B - 2 * F - E, P2), P2),
        "stratum-multi-hop": plan(normalized(2, Q(7, 8)),
                                  normalized(Q(5, 4), Q(1, 8)),
                                  label_for(B - F - E, P1), P1),
        "right": plan_right(normalized(2, Q(1, 2)), Q(17, 8)),
        "right-then-vertical": plan(normalized(Q(13, 4), Q(1, 2)),
                                    normalized(Q(7, 2), Q(5, 8)),
                                    OPEN_LABEL, P2),
        "vertical-interleaved": plan_vertical(normalized(Q(21, 10), Q(1, 5)),
                                              Q(9, 10),
                                              label_for(B - 2 * F, P1), P1),
        "vertical-open-x-search": plan_vertical(normalized(Q(9, 8), Q(1, 8)),
                                                Q(7, 8), OPEN_LABEL, P1),
    }
    for k in (0, 1, 2):
        cases[f"left-open-x{k}"] = plan_left_open(normalized(4, Q(1, 2)), 3,
                                                  P2, x=k)
    return {name: pl.as_json() for name, pl in cases.items()}


def render() -> str:
    return json.dumps(corpus(), indent=2, sort_keys=True) + "\n"


def test_plan_corpus_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_plans.py --write")
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

"""Golden verifier JSON: `verify-stability --json` output, byte for byte.

Two grids: g = 1 at step 1/4, where every verdict passes (exit 0), and
g = 2 at step 1/4 from mu = 1 with chambers below 2g attempted, where 60 of
540 verdicts fail in chambers 2 and 3 (exit 3) and each failing chamber
records its `first_failure` text.  The library's `verify_stability`
returns the same payload, and the g = 1 bytes are those the benchmark's
grid-verify workload pins in perfbench/workloads.py::GRID_DIGESTS.

Regenerate (only when a verdict or an error text is meant to change) with

    PYTHONPATH=src python tests/test_golden_verify.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

from ruledcone import planner
from ruledcone.cli import main
from ruledcone.lattice import SurfaceParams
from ruledcone.planner import PlanError, verify_stability

GOLDEN = Path(__file__).parent / "golden" / "verify.json"

CASES = {
    "g1-all-pass": ["verify-stability", "--g", "1", "--mu-max", "3",
                    "--step", "1/4", "--json"],
    "g2-below-threshold": ["verify-stability", "--g", "2", "--mu-max", "3",
                           "--step", "1/4", "--mu-min", "1",
                           "--min-index", "1", "--json"],
}

# the library call behind each case: positional and keyword arguments
LIBRARY = {
    "g1-all-pass": ((SurfaceParams(1), 3, Q(1, 4)), {}),
    "g2-below-threshold": ((SurfaceParams(2), 3, Q(1, 4)),
                           {"mu_min": 1, "min_index": 1}),
}


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _run(argv) -> tuple[int, str]:
    """Exit code and stdout of the CLI."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def corpus() -> dict:
    """Case name -> argv, exit code and parsed stdout of the CLI."""
    cases = {}
    for name, argv in CASES.items():
        code, out = _run(argv)
        payload = json.loads(out)
        # the CLI prints the canonical dump, so the parsed form pins its bytes
        assert out == _dump(payload), name
        cases[name] = {"argv": argv, "exit": code, "output": payload}
    return cases


def render() -> str:
    return _dump(corpus())


def test_verifier_output_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


def test_library_payload_is_the_cli_stdout(grid_digests):
    outs = {}
    for name, (args, kwargs) in LIBRARY.items():
        _, outs[name] = _run(CASES[name])
        assert _dump(verify_stability(*args, **kwargs)) == outs[name], name
    digest = hashlib.sha256(outs["g1-all-pass"].encode()).hexdigest()
    assert digest == grid_digests[(1, 3, Q(1, 4))]


# sha256 of the plans behind the LIBRARY payloads, recomputed when the
# leftward stratum leg became closed-form rounds of (F, z, E)
PLAN_SHAPES = ("e7f61f5110b1e9688aa32b52fefdc41b"
               "78cb28642b77fd361a062472d9067a4f")


def test_plan_shapes_match_the_fraction_planner(monkeypatch):
    """The golden payloads hash verdict counts and first failures only, so
    a changed route that still certifies would keep them.  This hashes
    every plan the verifier builds on the two grids, in call order: each
    step's class, t and assumption tag, or the PlanError text.  The digest
    was first computed at commit 0427f23, whose planner legs still compared
    and combined Fractions; the integer legs kept it, and it was recomputed
    once, when the leftward stratum leg changed from chained hops to
    closed-form rounds of (F, z, E) with the same verdicts.  The
    g2-below-threshold grid is
    verify_stability(SurfaceParams(2), 3, 1/4, mu_min=1, min_index=1), so
    failing plans are covered; the verifier calls `plan` once a verdict."""
    digest, real, calls = hashlib.sha256(), planner.plan, []

    def hashed(*args, **kwargs):
        calls.append(args)
        try:
            result = real(*args, **kwargs)
        except PlanError as err:
            digest.update(f"E {err}\n".encode())
            raise
        for step in result.steps:
            digest.update(f"{step.z} {step.t} {step.assumption};".encode())
        digest.update(b"\n")
        return result

    monkeypatch.setattr(planner, "plan", hashed)
    verdicts = 0
    for args, kwargs in LIBRARY.values():
        payload = verify_stability(*args, **kwargs)
        verdicts += sum(v["checked"] for v in payload["chambers"])
    assert len(calls) == verdicts == 1080
    assert digest.hexdigest() == PLAN_SHAPES


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_verify.py --write")
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

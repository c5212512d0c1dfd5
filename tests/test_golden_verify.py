"""Golden verifier JSON: `verify-stability --json` output, byte for byte.

Two grids: g = 1 at step 1/4, where every verdict passes (exit 0), and
g = 2 at step 1/4 from mu = 1 with chambers below 2g attempted, where 60 of
540 verdicts fail in chambers 2 and 3 (exit 3) and each failing chamber
records its `first_failure` text.

Regenerate (only when a verdict or an error text is meant to change) with

    PYTHONPATH=src python tests/test_golden_verify.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from ruledcone.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify.json"

CASES = {
    "g1-all-pass": ["verify-stability", "--g", "1", "--mu-max", "3",
                    "--step", "1/4", "--json"],
    "g2-below-threshold": ["verify-stability", "--g", "2", "--mu-max", "3",
                           "--step", "1/4", "--mu-min", "1",
                           "--min-index", "1", "--json"],
}


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def corpus() -> dict:
    """Case name -> argv, exit code and parsed stdout of the CLI."""
    cases = {}
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out = buf.getvalue()
        payload = json.loads(out)
        # the CLI prints the canonical dump, so the parsed form pins its bytes
        assert out == _dump(payload), name
        cases[name] = {"argv": argv, "exit": code, "output": payload}
    return cases


def render() -> str:
    return _dump(corpus())


def test_verifier_output_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_verify.py --write")
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

"""Golden text output of the README's CLI examples.

Each entry pins the exit code and the text-mode stdout, line by line, of one
command: every `ruledcone ...` example of the README except `figure` (which
has its own goldens), without `--json`, with the two verifier grids cut from
`--mu-max 6 --step 1/8` to `--mu-max 4 --step 1/4` for time; a verifier run
below the 2g threshold, so that its `FAILED`, `first failure` and `skipped`
lines are pinned; and `decompose` at g = 0 and 1.

Regenerate (only when a text line is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli_text.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from ruledcone.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_text.json"
README = Path(__file__).parents[1] / "README.md"

COMMANDS = [
    "chamber --u 5/2,3/10",
    "strata --u 5/2,3/10 --g 2 --cod-max 12",
    "strata --u 5/2,3/10 --g 2 --wide 3",
    "inflate --u 4,1/2 --z B-2F-E --t 1/5",
    "plan --from 5/2,3/10 --to 5/2,2/5 --g 2 --label open",
    "plan --from 4,1/2 --to 15/4,1/2 --g 2 --label B-2F",
    "verify-stability --g 2 --mu-max 4 --step 1/4",
    "gromov --p 1 --q 2 --g 2",
    "decompose --g 2 --q-bound 4 --report-sections",
    "report --g 2 --mu-max 4 --step 1/4",
    "verify-stability --g 2 --mu-max 3 --step 1/4 --mu-min 1 --min-index 1",
    "decompose --g 0 --q-bound 4",
    "decompose --g 1 --q-bound 4",
]


def run(argv: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    return code, out.getvalue()


def corpus() -> list[dict]:
    entries = []
    for argv in COMMANDS:
        code, out = run(argv)
        assert out.endswith("\n"), argv
        entries.append({"argv": argv, "exit": code,
                        "stdout": out[:-1].split("\n")})
    return entries


def render() -> str:
    return json.dumps(corpus(), indent=1) + "\n"


def test_cli_text_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


def test_text_renders_from_the_json_payload():
    # the text lines are a function of what --json prints and the arguments
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8")):
        code, out = run(entry["argv"] + " --json")
        args = build_parser().parse_args(entry["argv"].split())
        assert code == entry["exit"], entry["argv"]
        assert args.text(json.loads(out), args) == entry["stdout"], entry["argv"]


def test_golden_covers_the_readme_examples():
    examples = [line.split("#")[0].split()[1:]
                for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("ruledcone ")]
    grid = {"6": "4", "1/8": "1/4"}  # --mu-max 6 --step 1/8, cut for time
    for argv in examples:
        if argv[0] == "figure":
            continue
        argv = [w for w in argv if w != "--json"]
        argv = [grid.get(w, w) if argv[0] in ("verify-stability", "report")
                else w for w in argv]
        assert " ".join(argv) in COMMANDS


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli_text.py --write")
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

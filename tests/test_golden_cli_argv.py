"""Golden (exit code, stdout, stderr) of argument vectors through `main`.

The corpus pins how the command line is parsed, not what a command
computes: no arguments, help, an unknown command and a prefix of one, a
missing required option for each command that has one, a retired option
after a command and an option before it, the ``--opt=value`` form, a
repeated option, one valid call per command with and without ``--json``,
and a few inputs that each command's own checks refuse.  Help and usage
lines wrap at the terminal width, so every call runs with ``COLUMNS=80``.

Regenerate (only when a parse result is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli_argv.py --write
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from ruledcone.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_argv.json"

PLAN = ["plan", "--from", "5/2,3/10", "--to", "5/2,2/5", "--g", "2",
        "--label", "open"]

ARGVS = [
    [],
    ["-h"],
    ["plan", "-h"],
    ["walls", "--u", "3,1/2"],
    ["pla", "--from", "5/2,3/10", "--to", "5/2,2/5", "--g", "2",
     "--label", "open"],
    # a missing required option, per command
    ["chamber"],
    ["strata", "--u", "5/2,3/10"],
    ["inflate", "--u", "4,1/2", "--z", "B-2F-E"],
    PLAN[:-2],
    ["verify-stability", "--g", "1", "--mu-max", "3"],
    ["gromov", "--p", "1", "--g", "2"],
    ["decompose", "--g", "2"],
    ["figure", "--format", "csv"],
    ["report", "--g", "1"],
    # options after and before the command, and their spellings
    ["verify-stability", "--g", "1", "--mu-max", "3", "--step", "1/4",
     "--workers", "2"],
    [*PLAN, "--workers", "2", "--json"],
    ["--json", *PLAN],
    ["plan", "--from=5/2,3/10", "--to=5/2,2/5", "--g=2", "--label=open",
     "--json"],
    [*PLAN, "--g", "1"],
    ["chamber", "--u", "5/2,3/10", "--js"],
    ["chamber", "--", "--u", "5/2,3/10"],
    ["gromov", "--p", "one", "--q", "2", "--g", "2"],
    ["figure", "--mu-max", "2", "--format", "png"],
    # one valid call per command, with and without --json
    ["chamber", "--u", "5/2,3/10"],
    ["chamber", "--u", "5/2,3/10", "--json"],
    ["strata", "--u", "5/2,3/10", "--g", "2", "--cod-max", "12"],
    ["strata", "--u", "5/2,3/10", "--g", "2", "--wide", "2", "--json"],
    ["inflate", "--u", "4,1/2", "--z", "B-2F-E", "--t", "1/5"],
    ["inflate", "--u", "4,1/2", "--z", "B-2F-E", "--t", "1/5", "--json"],
    ["plan", "--from", "4,1/2", "--to", "15/4,1/2", "--g", "2",
     "--label", "B-2F"],
    [*PLAN, "--x", "1", "--json"],
    ["verify-stability", "--g", "1", "--mu-max", "3", "--step", "1/4"],
    ["verify-stability", "--g", "1", "--mu-max", "3", "--step", "1/4",
     "--json"],
    ["gromov", "--p", "1", "--q", "2", "--g", "2"],
    ["gromov", "--p", "1", "--q", "2", "--g", "2", "--json"],
    ["decompose", "--g", "1", "--q-bound", "2", "--report-sections"],
    ["decompose", "--g", "1", "--q-bound", "2", "--json"],
    ["figure", "--mu-max", "2", "--format", "csv"],
    ["figure", "--mu-max", "2", "--json"],
    ["report", "--g", "1", "--mu-max", "3", "--step", "1/4"],
    ["report", "--g", "1", "--mu-max", "3", "--step", "1/4", "--json"],
    # input that parses but is refused, or a verdict that fails
    ["chamber", "--u", "1/2,1/4", "--json"],
    ["plan", "--from", "5/2,3/10", "--to", "7/2,2/5", "--g", "2",
     "--label", "open", "--json"],
    ["verify-stability", "--g", "2", "--mu-max", "3", "--step", "1/4",
     "--mu-min", "1", "--min-index", "1", "--json"],
]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process call of `main`; a
    parse error or help exits through SystemExit, whose code is taken."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def corpus() -> list[dict]:
    entries = []
    for argv in ARGVS:
        code, out, err = run(argv)
        entries.append({"argv": argv, "exit": code,
                        "stdout": out.split("\n"), "stderr": err.split("\n")})
    return entries


def render() -> str:
    return json.dumps(corpus(), indent=1) + "\n"


def test_cli_argv_corpus_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli_argv.py --write")
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

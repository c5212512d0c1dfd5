"""Golden (exit code, stdout, stderr) of argument vectors through `main`.

The corpus pins how the command line is parsed, not what a command
computes: no arguments, help, an unknown command and a prefix of one, a
missing required option for each command that has one, a retired option
after a command and an option before it, the ``--opt=value`` form, a
repeated option, values that begin with a dash or hold a space, an
abbreviation, an empty and a negative value, a repeated flag, a trailing
positional, one valid call per command with and without ``--json``, and a
few inputs that each command's own checks refuse.  Help and usage
lines wrap at 78 columns whatever the terminal's width is (checked at
``COLUMNS=40`` and ``200``); the corpus is recorded at ``COLUMNS=80``,
where argparse's own width is 78 too.  A valid call of a known command is
read without its argparse parser, which the corpus cannot show, so one
test makes that parser raise.

Regenerate (only when a parse result is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli_argv.py --write
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ruledcone.cli import build_parser, main

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
    # values with a leading dash or a space, abbreviations, empty and
    # negative values, repeats and leftovers
    ["plan", "--from", "-1/2,1/2", *PLAN[3:]],
    ["plan", "--from", "-1/2, 1/2", *PLAN[3:]],
    ["plan", "--fr", *PLAN[2:]],
    [*PLAN, "--x", "one"],
    [*PLAN[:-1], ""],
    ["decompose", "--g", "1", "--q-bound", "2", "--r-bound", "-1"],
    ["figure", "--mu-max", "2", "--format", "csv", "-o", "/dev/null"],
    ["chamber", "--u", "5/2,3/10", "--json", "--json"],
    [*PLAN, "extra"],
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


def golden_entry(argv: list[str]) -> dict:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return next(entry for entry in entries if entry["argv"] == argv)


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", [["-h"], ["plan", "-h"], PLAN[:-2]])
def test_help_and_usage_ignore_the_terminal_width(monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    entry = golden_entry(argv)
    code, out, err = run(argv)
    assert (code, out.split("\n"), err.split("\n")) == (
        entry["exit"], entry["stdout"], entry["stderr"])


def test_a_valid_call_is_read_without_argparse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse was asked to parse")

    monkeypatch.setattr(build_parser().commands["plan"], "parse_known_args",
                        refuse)
    argv = [*PLAN, "--x", "1", "--json"]
    entry = golden_entry(argv)
    code, out, err = run(argv)
    assert (code, out.split("\n"), err) == (0, entry["stdout"], "")
    assert entry["exit"] == 0
    # an abbreviation is argparse's to resolve
    with pytest.raises(AssertionError, match="argparse was asked"):
        run(["plan", "--fr", *PLAN[2:]])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli_argv.py --write")
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")

"""Source mutants that the tests must kill.

    python3 tools/mutants.py [NAME ...]

Each entry of MUTANTS changes one text of one file: an anchor that occurs
exactly once in it becomes the replacement.  The entry names the test files
that must then fail, and, for a mutant that changes no behaviour (so that
no test can kill it), the reason it is equivalent; such a mutant is not
run.  For every mutant, or each one named, the tool copies the checkout's
src/, tests/, perfbench/ and pyproject.toml into a temporary directory,
applies the mutant there, runs pytest on its test files and prints one
line: killed (a test failed), survived (every test passed), error (pytest
could not run them) or equivalent.  It exits 1 when a mutant survived or
erred.  A mutant takes a few seconds: pytest stops at its first failure.

The tool is not part of tier-1: tests/test_mutants.py only checks that
every anchor occurs exactly once in today's source, so that the list fails
loudly when code moves under it.  A change to a listed file runs the tool
on that file's mutants.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

RATIONALS = "src/ruledcone/rationals.py"
PLANNER = "src/ruledcone/planner.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # the test files of which one must fail
    equivalent: str | None = None  # why no test can fail


MUTANTS = [
    # a superscript digit is a digit but not a decimal; int() refuses it
    # with its own text
    Mutant("reader-isdigit", RATIONALS,
           "if not digits.isdecimal() or slash and not den.isdecimal():",
           "if not digits.isdigit() or slash and not den.isdigit():",
           ("tests/test_rationals.py",)),
    Mutant("reader-no-sign", RATIONALS,
           'digits = num[1:] if num[:1] in ("+", "-") else num',
           "digits = num",
           ("tests/test_rationals.py",)),
    Mutant("reader-no-zero-denominator", RATIONALS,
           '    if den == 0:\n'
           '        raise ValueError(f"zero denominator: {text!r}")\n',
           "",
           ("tests/test_rationals.py",)),
    Mutant("certify-zero-area-moves", PLANNER,
           "        if a <= 0:\n", "        if a < 0:\n",
           ("tests/test_planner.py",)),
    Mutant("certify-range-open-end", PLANNER,
           "if zz < 0 and p * -zz * d >= q * a:",
           "if zz < 0 and p * -zz * d > q * a:",
           ("tests/test_planner.py",)),
    Mutant("certify-area-sign-of-e", PLANNER,
           "a = df * b + db * f - de * e",
           "a = df * b + db * f + de * e",
           ("tests/test_planner.py",)),
    Mutant("certify-label-e-closed", PLANNER,
           "if checked and not (0 < e < f and",
           "if checked and not (0 <= e < f and",
           ("tests/test_planner.py",)),
    Mutant("certify-core-floor", PLANNER,
           "((core.p, core.q, core.r[0], 0) if core is not None",
           "((core.p, core.q, core.r[0], -1) if core is not None",
           ("tests/test_planner.py",)),
    Mutant("rounds-no-last-round-bound", PLANNER,
           "least = max(least, -sum(rises[:i + 1]) // start,\n"
           "                    sum(rises[i + 1:]) // end)",
           "least = max(least, -sum(rises[:i + 1]) // start)",
           ("tests/test_planner.py",)),
    Mutant("rounds-cap-inclusive", PLANNER,
           "if rounds > _MAX_ROUNDS:", "if rounds >= _MAX_ROUNDS:",
           ("tests/test_planner.py",)),
    Mutant("open-precondition-at-g", PLANNER,
           "if not (m1 > params.g * d1 and m2 > params.g * d2):",
           "if not (m1 >= params.g * d1 and m2 >= params.g * d2):",
           ("tests/test_cli.py",)),
    Mutant("stays-no-validity", PLANNER,
           "if not 0 < e < f <= b or chamber_index(b, e, f) != index:",
           "if chamber_index(b, e, f) != index:",
           ("tests/test_planner.py",)),
    Mutant("plan-start-end-swapped", PLANNER,
           'attrs["start"] = start\n'
           '        attrs["moves"] = moves\n'
           '        attrs["end"] = end\n',
           'attrs["start"] = end\n'
           '        attrs["moves"] = moves\n'
           '        attrs["end"] = start\n',
           ("tests/test_value_types.py",)),
]


def mutated(mutant: Mutant, source: str) -> str:
    """`source` with the mutant's anchor, which must occur once, replaced."""
    count = source.count(mutant.anchor)
    if count != 1:
        raise ValueError(f"{mutant.name}: its anchor occurs {count} times in"
                         f" {mutant.file}")
    return source.replace(mutant.anchor, mutant.replacement)


def verdict(mutant: Mutant) -> str:
    """killed, survived, error or equivalent: the mutant applied to a copy
    of the checkout, and its test files run there."""
    if mutant.equivalent is not None:
        return "equivalent"
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name), ignore=ignore)
            else:
                shutil.copy2(ROOT / name, tmp)
        target = Path(tmp, mutant.file)
        target.write_text(mutated(mutant, target.read_text()))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; 0 when all passed
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help="a mutant to run (default: all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        ap.error(f"no mutant named {', '.join(unknown)}")
    code = 0
    for mutant in [known[name] for name in args.names] or MUTANTS:
        result = verdict(mutant)
        print(f"{result:<10}  {mutant.name}  ({mutant.file})", flush=True)
        if result in ("survived", "error"):
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())

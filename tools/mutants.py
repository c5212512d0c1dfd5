"""Source mutants that the tests must kill.

    python3 tools/mutants.py [NAME ...]
    python3 tools/mutants.py --file PATH

Each entry of MUTANTS changes one text of one file: an anchor that occurs
exactly once in it becomes the replacement.  The entry names the test files
that must then fail, and, for a mutant that changes no behaviour (so that
no test can kill it), the reason it is equivalent; such a mutant is not
run.  For every mutant, each one named, or each one of the file at PATH
(relative to the root of the checkout), the tool copies the checkout's
src/, tests/, perfbench/ and pyproject.toml into a temporary directory,
applies the mutant there, runs pytest on its test files and prints one
line: killed (a test failed), survived (every test passed), error (pytest
could not run them) or equivalent.  It exits 1 when a mutant survived or
erred.  A mutant takes a few seconds: pytest stops at its first failure.

The tool is not part of tier-1: tests/test_mutants.py only checks that
every anchor occurs exactly once in today's source, so that the list fails
loudly when code moves under it.  A change to a listed file runs the tool
on that file's mutants, with --file.
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

CLI = "src/ruledcone/cli.py"
CONE = "src/ruledcone/cone.py"
INFLATION = "src/ruledcone/inflation.py"
LATTICE = "src/ruledcone/lattice.py"
RATIONALS = "src/ruledcone/rationals.py"
PLANNER = "src/ruledcone/planner.py"
STRATA = "src/ruledcone/strata.py"


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
    # a string read with Fraction's grammar ("1e3", "1_0/40")
    Mutant("exact-rational-fraction-grammar", RATIONALS,
           "    if isinstance(x, str):\n        return parse_rational(x)\n", "",
           ("tests/test_value_types.py",)),
    # the leftward closed form taken for classes that are not sections
    Mutant("left-parameter-non-sections", PLANNER,
           "if vf != 1 or vb > 1:", "if vb > 1:",
           ("tests/test_planner.py",)),
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
    # the floor of the core's area test, which `_certify` and
    # `_require_label` read from the label
    Mutant("certify-core-floor", STRATA,
           "(core.p, core.q, core.r[0], 0) if core is not None",
           "(core.p, core.q, core.r[0], -1) if core is not None",
           ("tests/test_planner.py",)),
    Mutant("rounds-no-last-round-bound", PLANNER,
           "least = max(least, -sum(rises[:i + 1]) // start,\n"
           "                    sum(rises[i + 1:]) // end)",
           "least = max(least, -sum(rises[:i + 1]) // start)",
           ("tests/test_planner.py",)),
    Mutant("rounds-cap-inclusive", PLANNER,
           "if rounds > _MAX_ROUNDS:", "if rounds >= _MAX_ROUNDS:",
           ("tests/test_planner.py",)),
    # a refused round's states stay in the states that the plan carries
    Mutant("rounds-keeps-refused-states", PLANNER,
           "    del states[mark:]\n", "",
           ("tests/test_planner.py",)),
    # the free raise's x may reach mu - c', where no positive solution is
    Mutant("raise-x-at-mu-minus-c", PLANNER,
           "x = min(params.g, (b * cd - cn * f - 1) // (f * cd))",
           "x = min(params.g, (b * cd - cn * f) // (f * cd))",
           ("tests/test_planner.py",)),
    Mutant("route-no-start-label-check", PLANNER,
           "    if label is not None:\n"
           "        _require_label(state, label)\n"
           "    moves: list[Move] = []\n",
           "    moves: list[Move] = []\n",
           ("tests/test_planner.py",)),
    # the leftward floor without its wall term (mu' - limit)/2
    Mutant("left-floor-no-wall-term", PLANNER,
           "for pn, pd in ((n, dt), (m - limit * dt, 2 * dt)):",
           "for pn, pd in ((n, dt),):",
           ("tests/test_planner.py",)),
    Mutant("open-precondition-at-g", PLANNER,
           "if not (m1 > params.g * d1 and m2 > params.g * d2):",
           "if not (m1 >= params.g * d1 and m2 >= params.g * d2):",
           ("tests/test_cli.py",)),
    # the one validity test of points and states, off the cone
    Mutant("chamber-index-no-validity", CONE,
           "    if not 0 < n < d <= m:\n        return 0\n", "",
           ("tests/test_cone.py",)),
    # the one range test of a pinned section coefficient
    Mutant("check-x-no-range", PLANNER,
           "    if not 0 <= x <= params.g:\n"
           '        raise PlanError(f"section coefficient x={x} outside'
           ' 0..{params.g}")\n', "",
           ("tests/test_planner.py",)),
    Mutant("slanted-wall-dropped", CONE,
           "if rest not in (0, n):", "if rest != 0:",
           ("tests/test_cone.py",)),
    # a chamber one past the memo's labels read from the memo
    Mutant("label-memo-index-past-cap", STRATA,
           "if stop <= _MEMO_INDEX:", "if stop <= _MEMO_INDEX + 1:",
           ("tests/test_strata.py",)),
    Mutant("wide-scan-covering-bound", STRATA,
           "genus < p * (params.g - 1) + 1:", "genus < p * (params.g - 1):",
           ("tests/test_strata.py",)),
    Mutant("check-step-closed-end", INFLATION,
           "if bound is not None and step.t >= bound:",
           "if bound is not None and step.t > bound:",
           ("tests/test_inflation.py",)),
    # the grid opened at mu_min instead of one step above it
    Mutant("grid-starts-at-mu-min", PLANNER,
           "    mu = mu_min + grid_step\n", "    mu = mu_min\n",
           ("tests/test_golden_verify.py",)),
    Mutant("cross-chamber-count-all-pairs", PLANNER,
           "cross = total_points * (total_points - 1) // 2 - same_chamber_pairs",
           "cross = total_points * (total_points - 1) // 2",
           ("tests/test_golden_verify.py",)),
    Mutant("json-keys-unsorted", CLI,
           "for i, key in enumerate(sorted(keys)))",
           "for i, key in enumerate(keys))",
           ("tests/test_properties.py",)),
    # a non-str key then fails in the quoting, with a text naming no key
    Mutant("json-layout-no-key-check", CLI,
           "    for key in keys:\n"
           "        if type(key) is not str:\n"
           '            raise TypeError(f"JSON key {key!r} is not a str")\n',
           "", ("tests/test_properties.py",)),
    Mutant("user-input-catches-everything", CLI,
           "        u = normalized(parse_rational(parts[0]),"
           " parse_rational(parts[1]))\n"
           "    except ValueError as err:\n",
           "        u = normalized(parse_rational(parts[0]),"
           " parse_rational(parts[1]))\n"
           "    except Exception as err:\n",
           ("tests/test_cli.py",)),
    # "BB" read as 2B, "B-2FF" as B-F
    Mutant("parse-class-unsigned-term", LATTICE,
           "if m.start() != pos or (pos and not m.group(1)):",
           "if m.start() != pos:",
           ("tests/test_lattice.py",)),
    # a str read with Fraction's grammar, a float formatted
    Mutant("format-rational-fraction-grammar", RATIONALS,
           "        x = exact_rational(x)\n", "        x = Fraction(x)\n",
           ("tests/test_rationals.py",)),
    Mutant("argv-reader-repeats", CLI,
           "if action is None or action in seen:", "if action is None:",
           ("tests/test_cli.py",)),
    Mutant("argv-reader-dash-values", CLI,
           'if text is None or text.startswith("-"):', "if text is None:",
           ("tests/test_cli.py",)),
    Mutant("argv-reader-no-choices", CLI,
           "if action.choices is not None and value not in action.choices:",
           "if False:",
           ("tests/test_cli.py",)),
    Mutant("argv-reader-no-required", CLI,
           "    if not required <= seen:\n        return None\n", "",
           ("tests/test_cli.py",)),
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
    ap.add_argument("--file", metavar="PATH",
                    help="run the mutants of this file, relative to the"
                         " root of the checkout")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        ap.error(f"no mutant named {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    if args.file is not None:
        if args.names:
            ap.error("give mutant names or --file, not both")
        chosen = [m for m in MUTANTS if m.file == Path(args.file).as_posix()]
        if not chosen:
            ap.error(f"no mutant of {args.file}")
    code = 0
    for mutant in chosen:
        result = verdict(mutant)
        print(f"{result:<10}  {mutant.name}  ({mutant.file})", flush=True)
        if result in ("survived", "error"):
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Digests of the CLI outputs that a speed-up must leave byte-identical.

    python3 tools/output_digest.py [--leg G,MU_MAX,STEP ...] [--no-report]
        [--requests N] [--seed S]

The program is imported from ``src/`` of the checkout that holds this
script, and ``perfbench/`` and ``tests/golden/cli_argv.json`` are read
from it.  Each line is one item and the sha256 of its output:

- per grid leg (default: every leg of ``perfbench/workloads.py``'s
  GRID_DIGESTS), the stdout of ``verify-stability --json``, marked
  ``pinned`` when it equals the leg's pinned digest;
- the stdout of ``report --g 2 --mu-max 6 --step 1/8 --json``;
- (exit code, stdout, stderr) of each of N seeded ``plan --json`` requests
  drawn from ``perfbench/oracle.py``'s ``plan_requests(random.Random(S))``,
  as the plan-serve workload sends them (default N = 3000, S = 2028);
- (exit code, stdout, stderr) of each argument vector of
  ``tests/golden/cli_argv.json``, at a terminal width of 80.

Every call runs in this process through ``ruledcone.cli.main``.  Run it on
two checkouts and compare the lines; it exits 1 when a leg's output is not
its pinned digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402  (perfbench/, standard library only)
import workloads  # noqa: E402
from ruledcone.cli import main as cli_main  # noqa: E402

REPORT = ["report", "--g", "2", "--mu-max", "6", "--step", "1/8", "--json"]
ARGV_CORPUS = ROOT / "tests" / "golden" / "cli_argv.json"
LEGS = {f"{g},{mu_max},{step}": (g, mu_max, step)
        for g, mu_max, step in workloads.GRID_DIGESTS}


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process call; a parse error or
    help exits through SystemExit, whose code is taken."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def stdout_digest(argv: list[str]) -> str:
    return hashlib.sha256(run(argv)[1].encode()).hexdigest()


def calls_digest(argvs) -> str:
    """sha256 over (exit code, stdout, stderr) of each call, in order."""
    h = hashlib.sha256()
    for argv in argvs:
        h.update(json.dumps(run(argv)).encode() + b"\n")
    return h.hexdigest()


def digests(legs, report: bool, requests: int, seed: int):
    """(item, sha256, note) per item, in the order the module doc lists."""
    for g, mu_max, step in legs:
        argv = ["verify-stability", "--g", str(g), "--mu-max", str(mu_max),
                "--step", str(step), "--json"]
        digest = stdout_digest(argv)
        pinned = workloads.GRID_DIGESTS[g, mu_max, step] == digest
        yield " ".join(argv), digest, "pinned" if pinned else "NOT PINNED"
    if report:
        yield " ".join(REPORT), stdout_digest(REPORT), ""
    stream = oracle.plan_requests(random.Random(seed))
    yield (f"{requests} plan --json requests, seed {seed}",
           calls_digest(oracle.plan_argv(next(stream))
                        for _ in range(requests)), "")
    corpus = json.loads(ARGV_CORPUS.read_text(encoding="utf-8"))
    yield (f"{len(corpus)} argv of {ARGV_CORPUS.relative_to(ROOT)}",
           calls_digest(entry["argv"] for entry in corpus), "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--leg", action="append", choices=LEGS,
                    help="a grid leg G,MU_MAX,STEP (repeatable; default all)")
    ap.add_argument("--no-report", action="store_true",
                    help="skip the report item")
    ap.add_argument("--requests", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=2028)
    args = ap.parse_args(argv)
    # a checkout older than the fixed 78-column help wraps help and usage
    # at the terminal width, which is 78 columns at COLUMNS=80
    os.environ["COLUMNS"] = "80"
    legs = [LEGS[name] for name in args.leg or LEGS]
    code = 0
    for item, digest, note in digests(legs, not args.no_report, args.requests,
                                      args.seed):
        print(f"{digest}  {item}" + (f"  [{note}]" if note else ""))
        if note == "NOT PINNED":
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())

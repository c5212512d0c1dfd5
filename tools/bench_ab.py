"""A/B benchmark of the working tree against a parent commit.

    python3 tools/bench_ab.py --out BENCH_<n>.json [--first-seed 101]
        [--claim WORKLOAD:METRIC] [--what TEXT]

Runs ``python3 perfbench/run.py`` on the committed files of HEAD (the
parent, exported with ``git archive`` into a temporary directory, so the
repository's own ``.git`` is left alone) and on the working tree, for
every workload of BENCHMARK.json, in PAIRS pairs, each run as long as its
run_seconds: pair k of a workload runs both sides on seed first-seed + k,
and the side that runs first alternates from pair to pair.  After the
pairs it makes one traced run (``--trace 1``) per side and workload on the
first seed.  The JSON written to --out holds every run record, the order
of the runs, and per workload and metric of BENCHMARK.json the per-side
median, quartiles (inclusive method), the pairs the change won and a
verdict on the bound: "unresolved" when either side's interquartile range
is wider than the bound (relative to its median) and not every run of the
change reads better than every run of the parent, else "within" or
"outside" by the change of the median.  A claimed metric holds when the
change wins at least nine tenths of the pairs, its median beats the
parent's by more than the parent's interquartile range, no larger share
of its ops fails, and no traced run of the change is incorrect where the
parent's traced run of that workload is correct (a traced run checks more
than a timed one, e.g. one ``planner.plan`` per grid verdict), and no
end-to-end metric of any workload reads "outside" its bound (those are
listed under ``regressions``); each traced run's ``correct`` and
``failed`` are printed.  Every run record also holds ``cpu_s``, the CPU
seconds (user + sys) of its ``perfbench/run.py`` process, interpreter
start included.  Each run gets a fresh ``PYTHONPYCACHEPREFIX`` holding
the standard library's bytecode and none of the checkout's, so neither
side reads bytecode of its own code that an earlier run, or a
``__pycache__`` left in the working tree, compiled (the parent, an
export, has none): ``setup_s`` times the import of a fresh checkout, which
compiles the package on every import under ``PYTHONDONTWRITEBYTECODE``.
The prefix is filled by one import of the package with writing on, after
which the checkout's part is deleted; an empty prefix would compile the
standard library on every import too (about 0.4 s against 0.1 s).  A run
lasts run_seconds whatever the code's speed, so the summary also divides
cpu_s by the run's attempted ops (``cpu_us_per_op``); the per-workload
medians of both are printed and gate nothing.  The per-side median of
attempted ops (``attempted``) is printed beside ``peak_rss_mb``: the
benchmark's tally keeps two floats per op, so that memory metric moves
with the op count as well as with the program.  Unlike wall time, CPU
time does not count the time a process waits while others use the host's
cores.  Run it from the root of the working tree, on an otherwise idle
machine: the sides share its cores with nothing else only then.  It
refuses to run when neither src/ nor the benchmark's paths differ from
HEAD (no tracked change, staged or not, and no untracked file there):
both sides would then be the same code.  So run it before committing the
change, or from a checkout of the parent with the change unpacked over
it.  A --claim that names no workload and end-to-end metric of
BENCHMARK.json is refused before the first run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def differs(root: Path, paths: list[str]) -> bool:
    """Whether the working tree at `root` differs from its HEAD under
    `paths`: a tracked change, staged or not, or an untracked file."""
    return bool(git("status", "--porcelain", "--untracked-files=all", "--",
                    *paths, root=root))


def export(rev: str, into: Path) -> None:
    """The committed files of `rev`, unpacked into `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def stdlib_cache(root: Path, cache: str) -> None:
    """Fill the empty bytecode cache `cache` with the modules that the
    import ``setup_s`` times (as perfbench/run.py's measure_setup runs it)
    loads from outside the checkout `root`: import them once with writing
    on, then delete what was compiled from `root`."""
    root = root.resolve()  # the cache mirrors absolute source paths
    env = {**os.environ, "PYTHONPYCACHEPREFIX": cache,
           "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import ruledcone, ruledcone.cli"],
                   cwd=root, env=env, check=True)
    shutil.rmtree(Path(cache, *root.parts[1:]), ignore_errors=True)


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run in the checkout `root`; its result record, with the
    run's CPU seconds as ``cpu_s``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench_ab-pycache-") as cache:
        stdlib_cache(root, cache)
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.exit(f"bench_ab: {' '.join(argv[1:])} in {root} exited"
                 f" {proc.returncode}:\n{proc.stderr}")
    out = root / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return {**json.loads(out.read_text()),
            "cpu_s": (after.ru_utime - before.ru_utime
                      + after.ru_stime - before.ru_stime)}


def schedule(workloads: list[str], seeds: range):
    """(side, workload, seed, trace) of every run, in run order."""
    for workload in workloads:
        for k, seed in enumerate(seeds):
            for side in SIDES[::-1] if k % 2 else SIDES:
                yield side, workload, seed, 0
        for side in SIDES:
            yield side, workload, seeds[0], 1


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(runs: dict, workload: str, spec: list[dict]) -> dict:
    pairs = list(zip(*(
        [r for r in runs[side] if r["workload"] == workload] for side in SIDES)))
    summary = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r[i]["metrics"][name]["value"] for r in pairs]
                  for i, side in enumerate(SIDES)}
        stats = {side: spread(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        worse = (change / parent if lower else parent / change) - 1
        wide = any(stats[side]["q3"] - stats[side]["q1"]
                   > m["bound"] * stats[side]["median"] for side in SIDES)
        clear = (max(values["change"]) < min(values["parent"]) if lower
                 else min(values["change"]) > max(values["parent"]))
        gain = parent - change if lower else change - parent
        won = {str(pair[0]["provenance"]["seed"]): (c < p if lower else c > p)
               for pair, p, c in zip(pairs, values["parent"], values["change"])}
        summary[name] = {
            **stats, "change_over_parent": change / parent,
            "worse_by": worse, "bound": m["bound"],
            "verdict": ("unresolved" if wide and not clear else
                        "within" if worse <= m["bound"] else "outside"),
            "pairs_won": sum(won.values()), "pairs": len(won),
            "won_by_seed": won,
            "gain_exceeds_parent_iqr":
                gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    summary["cpu_s"] = {side: spread([r[i]["cpu_s"] for r in pairs])
                        for i, side in enumerate(SIDES)}
    summary["cpu_us_per_op"] = {
        side: spread([1e6 * r[i]["cpu_s"] / r[i]["attempted"] for r in pairs])
        for i, side in enumerate(SIDES)}
    # Tally keeps two floats per op, so peak_rss_mb moves with the op count
    summary["attempted"] = {side: spread([r[i]["attempted"] for r in pairs])
                            for i, side in enumerate(SIDES)}
    summary["fail_share"] = {
        side: sum(r[i]["failed"] for r in pairs)
        / sum(r[i]["attempted"] for r in pairs)
        for i, side in enumerate(SIDES)}
    return summary


def traced_regressions(traced: list[dict]) -> list[str]:
    """The workloads whose traced run of the change is incorrect while the
    parent's traced run is correct."""
    correct = {(r["side"], r["workload"]): r["correct"] for r in traced}
    return sorted(w for side, w in correct if side == "change"
                  and not correct[side, w] and correct.get(("parent", w)))


def outside_bounds(summary: dict) -> list[str]:
    """WORKLOAD:METRIC of every end-to-end metric whose verdict is
    "outside" its bound."""
    return sorted(f"{workload}:{name}"
                  for workload, metrics in summary.items()
                  for name, s in metrics.items()
                  if s.get("verdict") == "outside")


def claim_of(summary: dict, workload: str, metric: str,
             traced: list[dict] | None = None) -> dict:
    """The claim holds when the change wins at least nine tenths of the
    pairs, its median gain exceeds the parent's interquartile range, no
    larger share of its ops fails than of the parent's, no traced run of
    the change is incorrect where the parent's is correct, and no
    end-to-end metric of any workload is outside its bound."""
    s = summary[workload][metric]
    fail = summary[workload]["fail_share"]
    traced_bad = traced_regressions(traced or [])
    regressions = outside_bounds(summary)
    return {"workload": workload, "metric": metric,
            "pairs_won": s["pairs_won"], "pairs": s["pairs"],
            "won_by_seed": s["won_by_seed"],
            "traced_regressions": traced_bad, "regressions": regressions,
            "holds": (s["pairs_won"] >= 0.9 * s["pairs"]
                      and s["gain_exceeds_parent_iqr"]
                      and fail["change"] <= fail["parent"]
                      and not traced_bad and not regressions)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    claimed = args.claim.split(":") if args.claim else None
    if claimed and (len(claimed) != 2 or claimed[0] not in workloads
                    or claimed[1] not in [m["name"] for m in spec]):
        sys.exit(f"bench_ab: --claim {args.claim} names no WORKLOAD:METRIC"
                 f" of BENCHMARK.json (workloads: {', '.join(workloads)};"
                 f" metrics: {', '.join(m['name'] for m in spec)})")
    compared = ["src", *bench["paths"]]
    if not differs(ROOT, compared):
        sys.exit(f"bench_ab: {', '.join(compared)} match HEAD, so both sides"
                 " would run the same code; run this before committing the"
                 " change, or from a checkout of the parent with the change"
                 " unpacked over it")
    commit = git("rev-parse", "HEAD")
    seeds = range(args.first_seed, args.first_seed + PAIRS)

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    traced, order = [], []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        export(commit, roots["parent"])
        for side, workload, seed, trace in schedule(workloads, seeds):
            order.append(f"{side} {workload} seed={seed} trace={trace}")
            print(order[-1], flush=True)
            record = run_once(roots[side], workload, seed, seconds, trace)
            if trace:
                traced.append({"side": side, **record})
            else:
                runs[side].append(record)

    summary = {w: summarize(runs, w, spec) for w in workloads}
    claim = claim_of(summary, *claimed, traced) if claimed else None
    record = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed N"
                   f" --seconds {seconds:g} --trace T",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores,"
                   f" Python {platform.python_version()},"
                   f" PYTHONDONTWRITEBYTECODE="
                   f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r},"
                   " a fresh PYTHONPYCACHEPREFIX per run holding the"
                   " standard library's bytecode only",
        "sides": {
            "parent": f"commit {commit}, run from its committed files"
                      " (git archive); provenance.commit is null",
            "change": f"the working tree; its provenance.commit names"
                      f" commit {commit}, the parent it sits on, so only"
                      " provenance.src_sha256_16 tells the two sides"
                      " apart"},
        "run_order": order, "claim": claim, "summary_trace0": summary,
        "traced": traced, "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload in workloads:
        ops = summary[workload]["attempted"]
        for name in [m["name"] for m in spec]:
            s = summary[workload][name]
            print(f"{workload} {name}: parent {s['parent']['median']:.4g},"
                  f" change {s['change']['median']:.4g}, won"
                  f" {s['pairs_won']}/{s['pairs']},"
                  f" {s['verdict']} (bound {s['bound']:g})"
                  + (f"; attempted ops: parent {ops['parent']['median']:g},"
                     f" change {ops['change']['median']:g} (medians)"
                     if name == "peak_rss_mb" else ""))
        cpu = summary[workload]["cpu_s"]
        per_op = summary[workload]["cpu_us_per_op"]
        print(f"{workload} cpu_s: parent {cpu['parent']['median']:.4g},"
              f" change {cpu['change']['median']:.4g}; cpu_us_per_op: parent"
              f" {per_op['parent']['median']:.4g}, change"
              f" {per_op['change']['median']:.4g} (medians, not gated)")
    for r in traced:
        print(f"traced {r['side']} {r['workload']}: correct {r['correct']},"
              f" failed {r['failed']}")
    if claim is not None:
        print(f"claim {args.claim}: {'holds' if claim['holds'] else 'FAILS'}"
              + "".join(f"; {r} outside its bound"
                        for r in claim["regressions"]))
    return 0 if claim is None or claim["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())

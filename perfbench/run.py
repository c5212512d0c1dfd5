"""Benchmark of ruledcone, run from the root of a checkout.

    python3 perfbench/run.py --workload grid-verify|plan-serve|classify \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is built or
installed.  With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json with tracing off: grid-verify runs whole passes over the
criterion-7 grids (at least one, so a run lasts at least one pass even when
that is longer than S), the random workloads run ops for S seconds.  With
``--trace 1`` the run does a fixed amount of work untraced, traced and
profiled, and reports the per-layer metrics.  Summary lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each result is also written with its
provenance to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("grid-verify", "plan-serve", "classify")
SETUP_REPEATS = 9


def load_program():
    """Import ruledcone from this checkout's src/, and only from there."""
    init = SRC / "ruledcone" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from the"
                 " root of a ruledcone checkout")
    sys.path.insert(0, str(SRC))
    import ruledcone
    if Path(ruledcone.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported ruledcone from {ruledcone.__file__}")
    return ruledcone


def measure_setup() -> float:
    """Median time for a fresh interpreter to import ruledcone and its CLI.

    One untimed import first fills the bytecode cache, as a user's earlier
    invocations would have.  No timeout is passed: with one, `subprocess`
    polls the child in steps of up to 50 ms, which quantizes the times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import ruledcone, ruledcone.cli"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "commit": commit, "src_sha256_16": src_digest()}


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile; the maximum when fewer than 100 values."""
    if len(values) < 100:
        return max(values)
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(workloads, args, lines: list[str]) -> tuple[dict, object]:
    """The metrics of BENCHMARK.json.  On plan-serve and classify the
    pass and op times are at reference speed (see workloads.Yardstick).

    op_ms_p99 is printed as measured but is not a metric of BENCHMARK.json:
    the slowest ops (long plans, ops that absorb a full garbage collection)
    neither hold still nor keep step with the yardstick, so its spread over
    seeds exceeds any bound the benchmark may set."""
    setup_s = measure_setup()
    if args.workload == "grid-verify":
        tally = workloads.run_grid(args.seconds)
        # verdicts are not visible one by one
        lat_ms = [1000 * sum(tally.passes) / tally.attempted]
        raw_lat_ms = lat_ms
    else:
        tally = workloads.run_stream(args.workload, args.seed, args.seconds)
        lat_ms = [x * 1000 for x in tally.latencies]
        raw_lat_ms = [x * 1000 for x in tally.raw_latencies]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(tally.passes),
        "ops_per_s": tally.attempted / sum(tally.passes),
        "op_ms_p50": statistics.median(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines.append(f"samples: {len(tally.passes)} passes, {len(lat_ms)} latencies"
                 + (" (the mean per verdict)" if args.workload == "grid-verify"
                    else " (one per op)"))
    lines.append(f"fail_ratio = {tally.failed / tally.attempted} ratio"
                 f" ({tally.failed} of {tally.attempted} ops)")
    lines.append(f"op_ms_p99 = {percentile(raw_lat_ms, 99)} ms as measured"
                 f" ({len(raw_lat_ms)} samples)")
    raw_wall = statistics.median(tally.raw_passes)
    if args.workload == "grid-verify":
        gate = workloads.CRITERION_7_GATE_S
        lines.append(f"criterion 7: wall_s {raw_wall:.2f} s against the"
                     f" {gate:.0f} s gate, headroom {gate - raw_wall:.2f} s"
                     f" ({(gate - raw_wall) / gate:.1%})")
    else:
        lines.append(f"as measured: wall_s = {raw_wall} s, ops_per_s ="
                     f" {tally.attempted / tally.busy_s} 1/s; wall_s, ops_per_s"
                     f" and op_ms_p50 below are at reference speed, where the"
                     f" reference loop takes {workloads.REFERENCE_S} s")
    return values, tally


def check_counters(run, key: str, lines: list[str]) -> str | None:
    """Work counters must repeat exactly: compare with an earlier run of the
    same code, workload and inputs, recorded in perfbench/out/."""
    store = OUT / "counters.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != run.counters:
            return f"work counters differ from an earlier run: {known[key]}"
        lines.append("work counters repeat those of an earlier run")
        return None
    known[key] = run.counters
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    lines.append("work counters recorded for comparison with later runs")
    return None


def per_layer(workloads, args, spec: list[dict], lines: list[str]) -> tuple[dict, object]:
    if args.workload == "grid-verify":
        run = workloads.trace_grid()
        key = f"{args.workload}:{src_digest()}"
    else:
        run = workloads.trace_stream(args.workload, args.seed)
        key = f"{args.workload}:{args.seed}:{workloads.TRACE_OPS}:{src_digest()}"
    layers = run.tracer.layers()
    extra = dict(run.counters)
    extra["fractions.self_share"] = run.fractions_self_share
    extra["trace.overhead_s"] = run.overhead_s
    values = {}
    for m in spec:
        span, _, field = m["name"].rpartition(".")
        values[m["name"]] = (layers[span][field] if span in layers
                             else extra[m["name"]])
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    written = run.tracer.write(spans)
    lines.append(f"spans: {written} written to {spans.relative_to(ROOT)}")
    lines.append(f"tracing overhead: traced {run.traced_s:.4f} s - untraced"
                 f" {run.untraced_s:.4f} s = {run.overhead_s:.4f} s")
    lines.append("wait_s = 0 for every layer: one client, one process,"
                 " nothing queued or shared")
    lines.append(f"profiled {run.profiled}: fractions.py holds"
                 f" {run.fractions_self_share:.1%} of self time,"
                 f" {run.fractions_with_builtins_share:.1%} with math.gcd"
                 " and isinstance")
    reason = check_counters(run, key, lines)
    if reason is not None:
        run.tally.fail_all(reason)
    return values, run.tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    OUT.mkdir(exist_ok=True)
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    if args.trace:
        values, tally = per_layer(workloads, args, spec, lines)
    else:
        values, tally = end_to_end(workloads, args, lines)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"provenance": provenance(args.seed), "workload": args.workload,
              "notes": lines, "errors": tally.errors, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

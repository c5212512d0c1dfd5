"""The three workloads: timed closed loops, and their traced and profiled runs.

Each workload is one client in one process issuing its next operation only
after the previous one returned.  Only the call into ruledcone is timed;
the output checks of `oracle` run between operations.

grid-verify  the criterion-7 grids through ``cli.main(["verify-stability",
             ...])``; one op is one transport verdict.  The grid takes no
             seed.  A pass is the three legs g = 1, 2, 3.
plan-serve   seeded same-chamber requests through ``cli.main(["plan",
             ..., "--json"])``; one op is one request.
classify     seeded points through the library: ``chamber_of``,
             ``active_walls`` and ``stratum_labels``, plus
             ``wide_negative_classes`` on every eighth op.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from time import perf_counter

import ruledcone
from ruledcone import cli

import oracle
from tracing import Tracer, fractions_share

GRID_STEP = Fraction(1, 8)
CRITERION_7 = tuple((g, g + 4, GRID_STEP) for g in (1, 2, 3))
CRITERION_7_GATE_S = 60.0
PROFILED_LEG = CRITERION_7[1]

# sha256 of the verify-stability --json output of each leg, pinned at the
# commit that introduced the benchmark: the JSON must stay byte-identical.
GRID_DIGESTS = {
    (1, 5, Fraction(1, 8)):
        "4ee3e81c00d4bb7213c50e6a4b13e893ebe52c4d945c6111a273f23385c0955b",
    (2, 6, Fraction(1, 8)):
        "91f516eab0813543dadf06cb2a04f53883002aef819e3c6f8bfb5b6b4236e5e7",
    (3, 7, Fraction(1, 8)):
        "7c559f174076aaf3f8ed7bd2c9b2298110e4b3364d27d385c1281e2045f081ad",
    (1, 3, Fraction(1, 4)):
        "3006bab1e4679a6816b8c93d30e2e6327918d3fa47fadc8097c4681570b4f62e",
}

PASS_OPS = 500      # ops per pass of plan-serve and classify
CHUNK_OPS = 50      # ops between two readings of the yardstick
TRACE_OPS = 1000    # ops of the traced run of plan-serve and classify

# The CPU speed of a shared host can swing by 1.5x within seconds and stay
# there for minutes.  The ops of plan-serve and classify slow down in step
# with a plain Python loop, so their timed blocks are reported at reference
# speed: scaled by REFERENCE_S over the mean time `reference_s` takes just
# before and just after the block.  The planner code of grid-verify does
# not keep step with the loop, so its times are reported as measured.
REFERENCE_S = 0.01


def reference_s() -> float:
    """Time of a fixed Fraction loop, about 10 ms: the speed yardstick."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i, i + 7)
    return perf_counter() - start


class Yardstick:
    """Converts the seconds of consecutive timed blocks to reference speed."""

    def __init__(self) -> None:
        self.last = reference_s()

    def scale(self, seconds: float) -> float:
        """`seconds` of the block that just ended, at reference speed."""
        now = reference_s()
        scaled = seconds * 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return scaled


class Tally:
    """Ops attempted and failed, how many plans stayed in their chamber,
    time inside ruledcone as measured, and op latencies and pass times both
    at reference speed and as measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.in_chamber = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.passes: list[float] = []
        self.raw_passes: list[float] = []
        self.errors: list[str] = []

    def add(self, ops: int, seconds: float, reason: str | None, what) -> None:
        self.attempted += ops
        self.busy_s += seconds
        if reason is not None:
            self.failed += ops
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {reason}")

    def end_pass(self, raw_s: float, scaled_s: float) -> None:
        self.raw_passes.append(raw_s)
        self.passes.append(scaled_s)

    def fail_all(self, reason: str) -> None:
        self.failed = self.attempted
        self.errors.append(reason)


def _call_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)`` with stdout captured; (exit code, stdout, s)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):
            code = None
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def _checked(check, *args) -> str | None:
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"malformed output: {err!r}"


# -- grid-verify -------------------------------------------------------------------


def grid_argv(g: int, mu_max: int, step: Fraction) -> list[str]:
    return ["verify-stability", "--g", str(g), "--mu-max", str(mu_max),
            "--step", oracle.rational(step), "--json"]


def _grid_leg(tally: Tally, leg) -> float:
    code, out, seconds = _call_cli(grid_argv(*leg))
    ops = oracle.grid_expected_ops(*leg)
    reason = _checked(oracle.check_grid, *leg, code, out, GRID_DIGESTS.get(leg))
    tally.add(ops, seconds, reason, f"leg g={leg[0]}")
    return seconds


def run_grid(seconds: float, legs=CRITERION_7) -> Tally:
    """Whole passes over the legs, at least one, until `seconds` elapsed."""
    tally = Tally()
    deadline = perf_counter() + seconds
    while True:
        pass_s = sum(_grid_leg(tally, leg) for leg in legs)
        tally.end_pass(pass_s, pass_s)
        if perf_counter() >= deadline:
            return tally


# -- plan-serve and classify ops --------------------------------------------------


def _plan_op(tally: Tally, request) -> float:
    code, out, seconds = _call_cli(oracle.plan_argv(request))
    reason = _checked(oracle.check_plan, request, code, out)
    tally.add(1, seconds, reason, " ".join(oracle.plan_argv(request)))
    if reason is None:
        tally.in_chamber += json.loads(out)["stays_in_chamber"] is True
    return seconds


def _triple(a) -> tuple[int, int, int]:
    return a.p, a.q, a.r[0]


def _classify_op(tally: Tally, point, wide_scan: bool) -> float:
    g, mu, c = point
    start = perf_counter()
    try:
        u = ruledcone.normalized(mu, c)
        params = ruledcone.SurfaceParams(g)
        chamber = ruledcone.chamber_of(u)
        walls = ruledcone.active_walls(u)
        labels = ruledcone.stratum_labels(u, params)
        wide = (ruledcone.wide_negative_classes(u, params, oracle.WIDE_BOUND)
                if wide_scan else None)
    except Exception as err:
        seconds = perf_counter() - start
        tally.add(1, seconds, f"raised {err!r}", point)
        return seconds
    seconds = perf_counter() - start
    reason = _checked(
        oracle.check_classify, point, chamber.index,
        [_triple(w.curve_class) for w in walls],
        [(lb.codim, lb.name) for lb in labels],
        None if wide is None else [(_triple(a), status) for a, status in wide])
    tally.add(1, seconds, reason, point)
    return seconds


def _ops(workload: str, seed: int):
    """(op, inputs) of a random workload; op(tally, index, input) -> seconds."""
    rng = random.Random(seed)
    if workload == "plan-serve":
        return (lambda tally, i, req: _plan_op(tally, req)), oracle.plan_requests(rng)
    return ((lambda tally, i, pt: _classify_op(
                tally, pt, i % oracle.WIDE_EVERY == oracle.WIDE_EVERY - 1)),
            oracle.classify_points(rng))


def run_stream(workload: str, seed: int, seconds: float,
               pass_ops: int = PASS_OPS) -> Tally:
    """Ops until `seconds` elapsed and at least one pass of `pass_ops` ended.

    The yardstick is read every CHUNK_OPS ops."""
    op, inputs = _ops(workload, seed)
    tally, speed = Tally(), Yardstick()
    deadline = perf_counter() + seconds
    chunk: list[float] = []
    raw = scaled = 0.0
    for i, item in enumerate(inputs):
        chunk.append(op(tally, i, item))
        if len(chunk) == CHUNK_OPS or (i + 1) % pass_ops == 0:
            factor = speed.scale(1.0)
            tally.latencies += [x * factor for x in chunk]
            tally.raw_latencies += chunk
            raw += sum(chunk)
            scaled += sum(chunk) * factor
            chunk = []
        if (i + 1) % pass_ops == 0:
            tally.end_pass(raw, scaled)
            raw = scaled = 0.0
            if perf_counter() >= deadline:
                return tally
    raise AssertionError("input generators are endless")


# -- traced and profiled runs -----------------------------------------------------


class PlanCounters:
    """Work counters read from the plans `planner.plan` returns.

    hops: leftward hops.  On the open stratum a hop is a section step B+xF
    not paired with the F-E step that follows a raising section step; in a
    stratum it is the label class right after its F companion.
    interleave_rounds: F-E steps, one per round of a vertical raise.
    """

    def __init__(self) -> None:
        self.plans = self.steps = self.hops = self.interleave_rounds = 0
        self.t_den_max_bits = 0

    def add(self, plan) -> None:
        zs = [(s.z.p, s.z.q, s.z.r[0]) for s in plan.steps]
        self.plans += 1
        self.steps += len(zs)
        self.interleave_rounds += zs.count(oracle.FE)
        if plan.label.is_open:
            self.hops += sum(1 for z, nxt in zip(zs, zs[1:] + [None])
                             if z[0] == 1 and nxt != oracle.FE)
        else:
            a = plan.label.core[0]
            core = (a.p, a.q, a.r[0])
            self.hops += sum(1 for prev, z in zip(zs, zs[1:])
                             if z == core and prev == oracle.F)
        for s in plan.steps:
            self.t_den_max_bits = max(self.t_den_max_bits,
                                      s.t.denominator.bit_length())

    def as_dict(self) -> dict[str, int]:
        return {f"planner.{k}": v for k, v in vars(self).items()}


class TraceRun:
    """What a traced run yields besides its spans."""

    def __init__(self, tracer: Tracer, counters: PlanCounters, tally: Tally,
                 untraced_s: float, traced_s: float, shares: tuple[float, float],
                 profiled: str) -> None:
        self.tracer = tracer
        self.counters = counters.as_dict()
        self.counters["planner.in_chamber_ratio"] = tally.in_chamber / tally.attempted
        self.tally = tally
        self.untraced_s = untraced_s
        self.traced_s = traced_s
        self.overhead_s = traced_s - untraced_s
        self.fractions_self_share, self.fractions_with_builtins_share = shares
        self.profiled = profiled


def _traced(fn):
    """Run fn() with every TRACED function wrapped; (tracer, counters, value)."""
    tracer, counters = Tracer(), PlanCounters()
    tracer.install(ruledcone, {"planner.plan": counters.add})
    try:
        value = fn()
    finally:
        tracer.uninstall()
    return tracer, counters, value


def trace_grid(legs=CRITERION_7, profiled_leg=PROFILED_LEG,
               overhead_leg=CRITERION_7[0]) -> TraceRun:
    """Untraced shortest leg, traced pass, then the g = 2 leg under cProfile.

    The overhead is the traced minus the untraced time of the shortest leg:
    a second untraced pass would not fit the run's time limit.
    """
    untraced_s = _grid_leg(Tally(), overhead_leg)
    tally = Tally()
    tracer, counters, times = _traced(
        lambda: {leg: _grid_leg(tally, leg) for leg in legs})
    if counters.plans != tally.attempted:
        tally.fail_all(f"{counters.plans} plans returned for"
                       f" {tally.attempted} verdicts")
    shares = fractions_share(_call_cli, grid_argv(*profiled_leg))
    g, mu_max, step = profiled_leg
    return TraceRun(tracer, counters, tally, untraced_s, times[overhead_leg],
                    shares, f"verify-stability --g {g} --mu-max {mu_max} --step {step}")


def trace_stream(workload: str, seed: int, ops: int = TRACE_OPS) -> TraceRun:
    """The same `ops` inputs untraced, traced, then under cProfile."""
    op, inputs = _ops(workload, seed)
    items = list(itertools.islice(inputs, ops))

    def run_all(tally: Tally) -> float:
        return sum(op(tally, i, item) for i, item in enumerate(items))

    speed = Yardstick()
    untraced_s = speed.scale(run_all(Tally()))
    tally = Tally()
    tracer, counters, traced_s = _traced(lambda: run_all(tally))
    traced_s = speed.scale(traced_s)
    shares = fractions_share(run_all, Tally())
    return TraceRun(tracer, counters, tally, untraced_s, traced_s, shares,
                    f"the {ops} traced {workload} ops")

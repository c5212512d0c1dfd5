"""Command line interface.

Commands: chamber, strata, inflate, plan, verify-stability, gromov,
decompose, figure, report.  Rationals cross the boundary as ``p/q`` strings
only.  Exit codes: 0 success, 1 internal error, 2 invalid input,
3 not every transport certified.  Output is deterministic for a given
flag set: no clocks, no randomness.  The parser is built once per process,
so ``main`` can be called repeatedly in-process.  Help and usage wrap at 78
columns, whatever the terminal's width.  A known command's argument vector
is read by `_read_known` when it can be read trivially, and goes through
the top-level parser otherwise, so argparse owns help, usage and every parse
error.  A ``--label`` text is parsed once per (text, genus) and its label
kept in a bounded memo (`_parse_label`); a bad label is refused afresh on
every call.

Each command builds one payload and renders its text from that payload and
the parsed arguments alone: the JSON that ``--json`` prints, so the text
claims nothing the JSON does not, or for ``figure`` its SVG or CSV text.
``main`` is the one place that prints, every command's output included; a
reader that closes the output early does not change the exit code.
``_json_text`` writes the JSON that ``json.dumps(payload, indent=2,
sort_keys=True)`` would, without the standard library's pure-Python
indenting encoder; a payload holds only dicts with str keys, lists, str,
bool, None and int, so a float (inexact output) is a fault.  A str inside a
dict or a list is quoted in place; every other value goes through
`_write_json` again.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import AbstractContextManager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import gromov as gromov_mod
from .cone import (_MEMO_INDEX, ChamberId, active_walls, chamber_of,
                   figure_data, normalized, validity_violations)
from .discrepancies import detected_discrepancies
from .inflation import InflationStep, inflate, normalize, t_range
from .lattice import B, F, ClassVector, SurfaceParams, parse_class
from .planner import PlanError, plan, verify_stability
from .rationals import format_rational, parse_rational
from .strata import (OPEN_LABEL, chamber_labels, label_for, stratum_labels,
                     wide_negative_classes)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_COUNTEREXAMPLE = 3


class InputError(ValueError):
    """Bad user input; maps to exit code 2."""


class _UserInput(AbstractContextManager):
    """Re-raise a ValueError from reading or checking user input as an
    InputError, message unchanged; any other ValueError is a fault."""

    def __exit__(self, kind, err, tb) -> None:
        if kind is not None and issubclass(kind, ValueError):
            raise InputError(str(err)) from None


def _rational(text: str) -> Fraction:
    with _UserInput():
        return parse_rational(text)


def _params(g: int) -> SurfaceParams:
    with _UserInput():
        return SurfaceParams(g)


def _bound(value: int | None, name: str) -> int | None:
    """A scan bound from the command line: absent or non-negative."""
    if value is not None and value < 0:
        raise InputError(f"{name} must be >= 0, got {value}")
    return value


def _verify(params: SurfaceParams, mu_max, step, **kwargs):
    """verify_stability's payload on a checked step; a grid that puts no
    point, or one point each, in its attempted chambers checks no
    transport, so it is refused."""
    if step <= 0:
        raise InputError("grid step must be positive")
    payload = verify_stability(params, mu_max, step, **kwargs)
    grid = f"({payload['mu_min']}, {payload['mu_max']}]"
    if not payload["chambers"]:
        raise InputError(
            f"no grid point of {grid} lies in a chamber of index"
            f" {payload['min_chamber_index']} or more: nothing to certify")
    if not any(v["checked"] for v in payload["chambers"]):
        raise InputError(f"each attempted chamber holds one grid point of"
                         f" {grid}: no transport to certify")
    return payload


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected mu,c with rational entries, got {text!r}")
    with _UserInput():
        u = normalized(parse_rational(parts[0]), parse_rational(parts[1]))
    bad = validity_violations(u)
    if bad:
        raise InputError(f"invalid normalized class {text!r}: " + "; ".join(bad))
    return u


# a label text takes a handful of values per genus, so its label is kept per
# (text, g), at most _MEMO_INDEX of them, the bound of cone's and strata's
# memos; an InputError is raised afresh on every call, never kept
@functools.lru_cache(maxsize=_MEMO_INDEX)
def _parse_label(text: str, g: int):
    if text.strip().lower() == "open":
        return OPEN_LABEL
    try:
        cls = parse_class(text)
        return label_for(cls, SurfaceParams(g))
    except ValueError as err:
        raise InputError(f"bad stratum label {text!r}: {err}") from None


def _point(mu: str, c: str) -> str:
    """A cone point (mu, c) as NormalizedClass prints it."""
    return f"({mu}, {c})"


def _cmd_chamber(args) -> tuple[dict, int]:
    u = _parse_point(args.u)
    cid = chamber_of(u)
    payload = {
        "mu": format_rational(u.mu),
        "c": format_rational(u.c),
        "chamber": cid.index,
        "inequalities": cid.inequalities(),
        "active_walls": [w.name for w in active_walls(u)],
    }
    return payload, EXIT_OK


def _text_chamber(payload, args) -> list[str]:
    walls = payload["active_walls"]
    return [f"u = {_point(payload['mu'], payload['c'])}",
            f"chamber index: {payload['chamber']}",
            "defining inequalities: " + " and ".join(payload["inequalities"]),
            "active walls: " + (", ".join(walls) if walls
                                else "none (interior point)")]


def _cmd_strata(args) -> tuple[dict, int]:
    u = _parse_point(args.u)
    params = _params(args.g)
    labels = stratum_labels(u, params, _bound(args.cod_max, "cod-max"))
    payload = {
        "chamber": chamber_of(u).index,
        "labels": [lb.as_json() for lb in labels],
    }
    if _bound(args.wide, "wide scan bound") is not None:
        payload["wide_scan"] = [
            {"class": str(a), "status": status}
            for a, status in wide_negative_classes(u, params, args.wide)]
    return payload, EXIT_OK


def _text_strata(payload, args) -> list[str]:
    labels = payload["labels"]
    lines = [f"u = {_parse_point(args.u)} (chamber {payload['chamber']},"
             f" g = {args.g})",
             f"{len(labels)} stratum labels:"]
    lines += [f"  {(lb['core'] or ['open'])[0]:<14} codim {lb['codim']}"
              for lb in labels]
    if "wide_scan" in payload:
        lines.append(f"wide scan (|coefficients| <= {args.wide}):")
        lines += [f"  {item['class']:<14} {item['status']}"
                  for item in payload["wide_scan"]]
    return lines


def _cmd_inflate(args) -> tuple[dict, int]:
    u = _parse_point(args.u)
    with _UserInput():  # a bad class, a class of no area, a t out of range
        z = parse_class(args.z)
        t = parse_rational(args.t)
        bound = t_range(u, z)
        step = InflationStep(z, t)
        raw = inflate(u, step)
    end = normalize(raw)
    payload = {
        "start": {"mu": format_rational(u.mu), "c": format_rational(u.c)},
        "step": step.as_json(),
        "t_range_sup": format_rational(bound) if bound is not None else None,
        "raw": [format_rational(x)
                for x in (raw.b_area, raw.f_area, raw.e_area)],
        "end": {"mu": format_rational(end.mu), "c": format_rational(end.c)},
    }
    return payload, EXIT_OK


def _text_inflate(payload, args) -> list[str]:
    start, step, end = payload["start"], payload["step"], payload["end"]
    bound = payload["t_range_sup"]
    return [
        f"inflate {_point(start['mu'], start['c'])} along {step['z']}"
        f" by t = {step['t']}"
        + (f" (valid range [0, {bound}))" if bound is not None
           else " (unbounded range)"),
        "raw areas: [" + ", ".join(payload["raw"]) + "]",
        f"normalized: {_point(end['mu'], end['c'])}",
    ]


def _cmd_plan(args) -> tuple[dict, int]:
    u1 = _parse_point(getattr(args, "from"))
    u2 = _parse_point(args.to)
    params = _params(args.g)
    label = _parse_label(args.label, params.g)
    return plan(u1, u2, label, params, x=args.x).as_json(), EXIT_OK


def _text_plan(payload, args) -> list[str]:
    # a plan ends at its target exactly
    start, end = (_point(p["mu"], p["e"][0])
                  for p in (payload["start"], payload["end"]))
    lines = [f"plan {start} -> {end} in stratum `{payload['label']}`"
             f" (g = {args.g}):"]
    if not payload["steps"]:
        lines.append("  empty plan (endpoints coincide)")
    for i, step in enumerate(payload["steps"], 1):
        lines.append(f"  {i:3d}. inflate along {step['z']} by"
                     f" t = {step['t']}  [{step['assumption']}]")
    stays = " (stays in chamber)" if payload["stays_in_chamber"] else ""
    lines.append(f"end: {end}{stays}")
    return lines


def _cmd_verify_stability(args) -> tuple[dict, int]:
    params = _params(args.g)
    mu_max, step = _rational(args.mu_max), _rational(args.step)
    mu_min = _rational(args.mu_min) if args.mu_min is not None else None
    if mu_min is not None and mu_min < 1:  # no cone point has mu < 1
        raise InputError(f"mu-min must be >= 1, got {format_rational(mu_min)}")
    payload = _verify(params, mu_max, step, mu_min=mu_min,
                      min_index=_bound(args.min_index, "min-index"))
    return payload, EXIT_OK if payload["ok"] else EXIT_COUNTEREXAMPLE


def _text_verify_stability(payload, args) -> list[str]:
    lines = [
        f"stability verification, g = {payload['g']}, mu in"
        f" ({payload['mu_min']}, {payload['mu_max']}],"
        f" step {payload['grid_step']},"
        f" chambers >= {payload['min_chamber_index']}:",
    ]
    for v in payload["chambers"]:
        status = "ok" if v["failed"] == 0 else f"FAILED ({v['failed']})"
        lines.append(f"  chamber {v['chamber']:3d}: {v['points']:3d} points,"
                     f" {len(v['labels']):2d} labels, {v['checked']:6d}"
                     f" transports checked, {status}")
        if v["first_failure"]:
            f = v["first_failure"]
            lines.append(f"    first failure: {f['from']} -> {f['to']}"
                         f" [{f['label']}]: {f['error']}")
    if payload["skipped_chambers"]:
        lines.append("  skipped (below index threshold): "
                     + ", ".join(str(i) for i in payload["skipped_chambers"]))
    lines.append(f"  cross-chamber pairs out of scope: "
                 f"{payload['cross_chamber_pairs']}")
    lines.append("VERDICT: " + ("all transports certified" if payload["ok"]
                                else "counterexample found"))
    return lines


def _cmd_gromov(args) -> tuple[dict, int]:
    params = _params(args.g)
    k = gromov_mod.virtual_dim_k(ClassVector(args.p, args.q, (0,)), params)
    with _UserInput():
        value = gromov_mod.gromov_invariant(args.p, args.q, params)
    payload = {
        "p": args.p, "q": args.q, "g": args.g,
        "virtual_dim": format_rational(k),
        "virtual_dim_integral": k.denominator == 1,
        "gromov_invariant": value,
        "nonzero_criterion_q_ge_g_minus_1":
            gromov_mod.gromov_nonzero_criterion(args.p, args.q, params),
    }
    return payload, EXIT_OK


def _text_gromov(payload, args) -> list[str]:
    p, q, g = payload["p"], payload["q"], payload["g"]
    condition = ("p >= 0, q >= 0 and p + q > 0" if g == 0
                 else "p >= 0 and q >= g-1")
    met = payload["nonzero_criterion_q_ge_g_minus_1"]
    return [
        f"C = {ClassVector(p, q, (0,))}, g = {g}",
        f"virtual dimension k(C) = {payload['virtual_dim']}",
        f"Gr(C) = (p+1)^g = {payload['gromov_invariant']}",
        f"nonvanishing criterion ({condition}): {'met' if met else 'not met'}",
    ]


def _cmd_decompose(args) -> tuple[dict, int]:
    params = _params(args.g)
    _bound(args.r_bound, "r-bound")
    with _UserInput():
        decs = gromov_mod.section_decompositions(params, args.q_bound,
                                                 r_bound=args.r_bound)
    payload = {
        "g": args.g, "q_bound": args.q_bound, "r_bound": args.r_bound,
        "total": str(B + args.g * F),
        "count": len(decs),
        "decompositions": [d.as_json() for d in decs],
    }
    return payload, EXIT_OK


def _text_decompose(payload, args) -> list[str]:
    lines = [f"{payload['count']} decompositions of {payload['total']}"
             f" (q_bound={payload['q_bound']}, r_bound={payload['r_bound']}):"]
    for d in payload["decompositions"]:
        mark = ""
        if args.report_sections:
            mark = ("   section " + d["section"]
                    + ("" if d["plain_section"] else "   [exceptional term]"))
        lines.append("  {" + ", ".join(d["parts"]) + "}" + mark)
    return lines


def _cmd_figure(args) -> tuple[str, int]:
    """The diagram's SVG or CSV text, or the line naming the file it went
    to, without the final newline that ``main`` adds."""
    mu_max = _rational(args.mu_max)
    if mu_max <= 1:
        raise InputError("mu-max must exceed 1")
    if args.scale <= 0:
        raise InputError(f"scale must be positive, got {args.scale}")
    model = figure_data(mu_max)
    if args.format == "csv":
        text = model.to_csv()
    else:
        text = model.to_svg(scale=args.scale)
    if args.output is None:
        return text.removesuffix("\n"), EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:  # a path the user named that cannot be written
        raise InputError(f"cannot write {args.output}:"
                         f" {err.strerror}") from None
    return f"wrote {args.output}", EXIT_OK


def _cmd_report(args) -> tuple[dict, int]:
    params = _params(args.g)
    mu_max = _rational(args.mu_max)
    step = _rational(args.step)
    cod_max = _bound(args.cod_max, "cod-max")
    stability = _verify(params, mu_max, step)

    chambers = []
    failed = {v["chamber"]: v["failed"] for v in stability["chambers"]}
    for index in range(1, 2 * math.ceil(mu_max)):  # each meets the window
        cid = ChamberId(index)
        entry = {"index": index, "inequalities": cid.inequalities(),
                 "labels": [lb.as_json()
                            for lb in chamber_labels(cid, params, cod_max)]}
        if index in failed:
            entry["stability"] = "verified" if failed[index] == 0 else "failed"
        elif index < stability["min_chamber_index"]:
            entry["stability"] = "skipped"
        else:
            entry["stability"] = "no-grid-points"
        chambers.append(entry)

    payload = {
        "g": params.g, "n": 1,
        "mu_max": format_rational(mu_max),
        "grid_step": format_rational(step),
        "chambers": chambers,
        "stability": stability,
        "paper_discrepancies": detected_discrepancies(),
    }
    return payload, EXIT_OK if stability["ok"] else EXIT_COUNTEREXAMPLE


def _text_report(payload, args) -> list[str]:
    g = payload["g"]
    lines = [f"report, g = {g}, mu_max = {payload['mu_max']}"]
    for entry in payload["chambers"]:
        # the text says what a "verified" chamber means: its grid was certified
        stability = entry["stability"]
        if stability == "verified":
            stability = "grid-verified"
        lines.append(f"  chamber {entry['index']:3d}: "
                     + " and ".join(entry["inequalities"])
                     + f"; {len(entry['labels'])} labels;"
                     f" stability {stability}")
    # at g = 0 the only section is B, so no plan mixes two
    lines.append(f"open label: each ordered pair is certified along"
                 f" sections B+xF with x <= g = {g}"
                 + ("; one plan may use two, hopping along B+gF and raising"
                    " along a smaller x" if g else ""))
    lines.append("recorded source discrepancies: "
                 + ", ".join(d["id"] for d in payload["paper_discrepancies"]))
    lines.append("stability verdict: "
                 + ("all grid pairs certified" if payload["stability"]["ok"]
                    else "counterexample found"))
    return lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # help and usage wrap at 78 columns (argparse's width at COLUMNS=80),
    # whatever the terminal is
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    ap = argparse.ArgumentParser(
        prog="ruledcone", formatter_class=formatter,
        description="Chamber structure, strata and inflation planning for the"
                    " normalized symplectic cone of one-point blow-ups of"
                    " irrational ruled surfaces (exact arithmetic).")
    sub = ap.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       formatter_class=formatter))
    ap.commands = sub.choices  # name -> the command's own parser

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    p = sub.add_parser("chamber", help="chamber of a normalized class")
    p.add_argument("--u", required=True, help="normalized class as mu,c")
    add_json(p)
    p.set_defaults(func=_cmd_chamber, text=_text_chamber)

    p = sub.add_parser("strata", help="stratum labels present at a class")
    p.add_argument("--u", required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--cod-max", type=int, default=None)
    p.add_argument("--wide", type=int, default=None, metavar="BOUND",
                   help="also run the wide class scan up to |coeff| <= BOUND")
    add_json(p)
    p.set_defaults(func=_cmd_strata, text=_text_strata)

    p = sub.add_parser("inflate", help="apply one inflation step")
    p.add_argument("--u", required=True)
    p.add_argument("--z", required=True, help="curve class, e.g. B-2F-E")
    p.add_argument("--t", required=True, help="parameter, rational p/q")
    add_json(p)
    p.set_defaults(func=_cmd_inflate, text=_text_inflate)

    p = sub.add_parser("plan", help="certified transport between two classes")
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--to", required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--label", required=True,
                   help="'open' or a core class such as B-2F")
    p.add_argument("--x", type=int, default=None,
                   help="pin the open-stratum section coefficient, open"
                        " label only (default: g, or the largest working"
                        " x <= g for a raise)")
    add_json(p)
    p.set_defaults(func=_cmd_plan, text=_text_plan)

    p = sub.add_parser("verify-stability",
                       help="grid-check two-way transport per chamber")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu-max", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--mu-min", default=None)
    p.add_argument("--min-index", type=int, default=None,
                   help="lowest chamber index to attempt (default 2g)")
    add_json(p)
    p.set_defaults(func=_cmd_verify_stability, text=_text_verify_stability)

    p = sub.add_parser("gromov", help="curve count of a section class")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_gromov, text=_text_gromov)

    p = sub.add_parser("decompose",
                       help="stable decompositions of the section class B+gF")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--q-bound", type=int, required=True)
    p.add_argument("--r-bound", type=int, default=1)
    p.add_argument("--report-sections", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_decompose, text=_text_decompose)

    p = sub.add_parser("figure", help="emit the chamber diagram")
    p.add_argument("--mu-max", required=True)
    p.add_argument("--format", choices=["svg", "csv"], default="svg")
    p.add_argument("--scale", type=int, default=100,
                   help="SVG pixels per unit of mu")
    p.add_argument("-o", "--output", default=None)
    # no --json: the SVG or CSV text is the payload and the whole output
    p.set_defaults(func=_cmd_figure, json=False, text=lambda text, _: [text])

    p = sub.add_parser("report", help="consolidated JSON report")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu-max", required=True)
    p.add_argument("--step", default="1/8")
    p.add_argument("--cod-max", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_report, text=_text_report)

    ap.tables = {name: _option_table(p) for name, p in ap.commands.items()}
    return ap


def _option_table(command: argparse.ArgumentParser):
    """What `_read_known` needs of one command, from its parser's own
    actions: each exact option string of a one-value store or a constant
    flag, the required actions, and every destination's default."""
    options = {}
    for action in command._actions:
        if (type(action) is argparse._StoreAction and action.nargs is None
                or isinstance(action, argparse._StoreConstAction)):
            options.update(dict.fromkeys(action.option_strings, action))
    required = frozenset(a for a in command._actions if a.required)
    # argparse sets no attribute for a suppressed dest or default (help's)
    dests = [a.dest for a in command._actions
             if argparse.SUPPRESS not in (a.dest, a.default)]
    defaults = {d: command.get_default(d) for d in [*dests, *command._defaults]}
    return options, required, defaults


def _read_known(table, argv) -> argparse.Namespace | None:
    """The namespace the command's parser would return for ``argv`` when it
    accepts it trivially: exact option strings, each once, each value
    present, not starting with '-', of its type and among its choices, and
    every required option given; None for anything else."""
    options, required, defaults = table
    values = dict(defaults)
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        action = options.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:  # a flag
            values[action.dest] = action.const
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= seen:
        return None
    args = argparse.Namespace()
    args.__dict__.update(values)
    return args


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, for dicts with str
    keys, lists, tuples, str, bool, None and int; anything else raises
    TypeError."""
    out: list[str] = []
    _write_json(payload, "\n", out)
    return "".join(out)


def _write_json(x, newline: str, out: list[str]) -> None:
    kind = type(x)
    if kind is str:
        out.append(_quote(x))
    elif kind is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"JSON key {key!r} is not a str")
            value = x[key]
            if type(value) is str:  # the common case, quoted in place
                out += (sep, _quote(key), ": ", _quote(value))
            else:
                out += (sep, _quote(key), ": ")
                _write_json(value, inner, out)
            sep = "," + inner
        out += (newline, "}")
    elif kind is list or kind is tuple:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            if type(item) is str:
                out += (sep, _quote(item))
            else:
                out.append(sep)
                _write_json(item, inner, out)
            sep = "," + inner
        out += (newline, "]")
    elif x is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if x else "false")
    elif kind is int:
        out.append(repr(x))
    else:
        raise TypeError(f"{kind.__name__} {x!r} has no exact JSON form")


def _parse_args(argv) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, read by
    `_read_known` when it can read it."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    table = parser.tables.get(argv[0]) if argv else None
    args = _read_known(table, argv[1:]) if table else None
    if args is None:  # no command, help, an unknown one, anything not trivial
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        payload, code = args.func(args)
        lines = ([_json_text(payload)] if args.json
                 else args.text(payload, args))
    except (InputError, PlanError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as err:  # a fault of the program, not of its input
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the output early, which is its choice and no
        # fault; stdout goes to the null device so shutdown does not raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command line surface: exit codes, JSON schemas, determinism."""

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import ruledcone
from ruledcone.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    path = resources.files("ruledcone") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def check(capsys, schema_name, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


def test_chamber_json(capsys):
    payload = check(capsys, "chamber",
                    "chamber", "--u", "5/2,3/10", "--json")
    assert payload["chamber"] == 5
    assert payload["inequalities"] == ["mu > 2 + c", "mu <= 3"]
    assert payload["active_walls"] == []


def test_chamber_wall_point(capsys):
    payload = check(capsys, "chamber", "chamber", "--u", "2,1/2", "--json")
    assert payload["chamber"] == 3
    assert payload["active_walls"] == ["B-2F"]


@pytest.mark.parametrize("u, wall", [("3,1/2", "B-3F"), ("5/2,1/2", "B-2F-E"),
                                     ("7/4,3/4", "B-F-E")])
def test_chamber_names_the_wall_through_the_point(capsys, u, wall):
    payload = check(capsys, "chamber", "chamber", "--u", u, "--json")
    assert payload["active_walls"] == [wall]
    code, out, _ = run(capsys, "chamber", "--u", u)
    assert code == 0 and f"active walls: {wall}\n" in out


def test_chamber_rejects_policy_violation(capsys):
    code, out, err = run(capsys, "chamber", "--u", "1/2,1/4")
    assert code == 2
    assert "policy" in err


def test_chamber_rejects_decimals(capsys):
    code, _, err = run(capsys, "chamber", "--u", "2.5,0.3")
    assert code == 2 and "rational" in err


def test_walls_command_is_gone(capsys):
    # `chamber` lists the walls through a point
    with pytest.raises(SystemExit) as exc:
        main(["walls", "--u", "3,1/2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "verify-stability --g 1 --mu-max 3 --step 1/4 --workers 2",
    "report --g 1 --mu-max 3 --workers 2",
])
def test_workers_flag_is_gone(capsys, argv):
    # the verifier runs in one process; run legs or mu-windows as processes
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_strata_json(capsys):
    payload = check(capsys, "strata",
                    "strata", "--u", "5/2,3/10", "--g", "2",
                    "--cod-max", "12", "--json")
    assert payload["chamber"] == 5
    assert {"core": ["B-2F"], "codim": 10} in payload["labels"]
    assert payload["labels"][0] == {"core": [], "codim": 0}


def test_strata_wide_scan(capsys):
    payload = check(capsys, "strata",
                    "strata", "--u", "5/2,3/10", "--g", "2",
                    "--wide", "3", "--json")
    statuses = {item["class"]: item["status"] for item in payload["wide_scan"]}
    assert statuses["B-2F"] == "family"
    assert statuses["2B-E"] == "outside-families"


def test_inflate_json(capsys):
    payload = check(capsys, "inflate",
                    "inflate", "--u", "4,1/2", "--z", "B-2F-E",
                    "--t", "1/5", "--json")
    assert payload["t_range_sup"] == "3/10"
    assert payload["end"] == {"mu": "3", "c": "7/12"}


def test_inflate_out_of_range(capsys):
    code, _, err = run(capsys, "inflate", "--u", "4,1/2", "--z", "B-2F-E",
                       "--t", "3/10")
    assert code == 2 and "3/10" in err


def test_plan_json(capsys):
    payload = check(capsys, "plan",
                    "plan", "--from", "5/2,3/10", "--to", "5/2,2/5",
                    "--g", "2", "--label", "open", "--json")
    assert payload["label"] == "open"
    assert payload["end"] == {"mu": "5/2", "e": ["2/5"]}
    assert all(s["assumption"] in ("always", "open", "stratum")
               for s in payload["steps"])


def test_plan_stratum_label(capsys):
    payload = check(capsys, "plan",
                    "plan", "--from", "4,1/2", "--to", "15/4,1/2",
                    "--g", "2", "--label", "B-2F", "--json")
    assert payload["steps"][0]["z"] == "F"
    assert any(s["z"] == "B-2F" for s in payload["steps"])


def test_plan_equal_endpoints_is_empty(capsys):
    code, out, err = run(capsys, "plan", "--from", "5/2,1/2",
                         "--to", "5/2,1/2", "--g", "2", "--label", "open")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["  empty plan (endpoints coincide)",
                                    "end: (5/2, 1/2) (stays in chamber)"]


def test_plan_cross_chamber_is_invalid(capsys):
    code, _, err = run(capsys, "plan", "--from", "5/2,3/10",
                       "--to", "11/5,3/10", "--g", "2", "--label", "open")
    assert code == 2 and "cross-chamber" in err


@pytest.mark.parametrize("x", ["5", "-1"])
def test_plan_rejects_out_of_range_x(capsys, x):
    # this route needs no raising section step, so only an up-front check
    # sees the pinned x
    code, _, err = run(capsys, "plan", "--from", "5/2,2/5",
                       "--to", "11/4,3/10", "--g", "2", "--label", "open",
                       "--x", x)
    assert code == 2 and "outside 0..2" in err


@pytest.mark.parametrize("argv, message", [
    ("chamber --u 5/2,3/0", "zero denominator: '3/0'"),
    ("chamber --u 5/2,0.3", "not an integer or p/q rational: '0.3'"),
    ("strata --u 5/2,3/10 --g -1", "genus must be >= 0, got -1"),
    ("plan --from 5/2,3/10 --to 5/2,2/5 --g -1 --label open",
     "genus must be >= 0, got -1"),
    # each parsed value of `plan`, with --json as plan-serve sends it
    ("plan --from 2.5,3/10 --to 5/2,2/5 --g 2 --label open --json",
     "not an integer or p/q rational: '2.5'"),
    ("plan --from 5/2,3/10 --to 5/2,2/0 --g 2 --label open --json",
     "zero denominator: '2/0'"),
    ("plan --from 5/2,3/10 --to 5/2,2/5 --g -1 --label B-2F --json",
     "genus must be >= 0, got -1"),
    ("plan --from 5/2,3/10 --to 5/2,2/5 --g 2 --label B-2Q --json",
     "bad stratum label 'B-2Q': cannot parse class 'B-2Q'"),
    ("plan --from 5/2,3/10 --to 5/2,2/5 --g 0 --label F",
     "bad stratum label 'F': F has codimension -2; only"
     " positive-codimension classes label strata"),
    ("plan --from 5/2,3/10 --to 5/2,2/5 --g 0 --label B",
     "bad stratum label 'B': B has codimension -2; only"
     " positive-codimension classes label strata"),
    ("plan --from 5/2,3/10 --to 5/2,2/5 --g 0 --label B-E",
     "bad stratum label 'B-E': B-E has codimension 0; only"
     " positive-codimension classes label strata"),
    ("inflate --u 4,1/2 --z B-2Q --t 1/5", "cannot parse class 'B-2Q'"),
    ("inflate --u 3/2,1/2 --z B-2F --t 1/5", "B-2F has non-positive area"
     " -1/2; it is not symplectic here, cannot inflate"),
    ("inflate --u 4,1/2 --z B-2F-E --t 1",
     "t = 1 outside [0, 3/10) for inflation along B-2F-E"),
    ("inflate --u 4,1/2 --z B-2F-E --t=-1/5",
     "inflation parameter must be >= 0, got -1/5"),
    ("inflate --u 4,1/2 --z B --t 1/0", "zero denominator: '1/0'"),
    ("verify-stability --g 1 --mu-max 3 --step 0",
     "grid step must be positive"),
    ("verify-stability --g 1 --mu-max 3/0 --step 1/4",
     "zero denominator: '3/0'"),
    ("report --g 1 --mu-max 3 --step=-1/4", "grid step must be positive"),
    ("report --g -2 --mu-max 3", "genus must be >= 0, got -2"),
    ("gromov --p 1 --q 2 --g -1", "genus must be >= 0, got -1"),
    ("gromov --p -3 --q 0 --g 1",
     "(-3B).F = -3 < 0: a fibre passes through every point, so -3B has no"
     " J-curve and the closed curve-count formula does not apply"),
    ("gromov --p -1 --q 1 --g 2",
     "(-B+F).F = -1 < 0: a fibre passes through every point, so -B+F has no"
     " J-curve and the closed curve-count formula does not apply"),
    ("gromov --p 9 --q 1000000 --g 1000000",
     f"Gr(9B+1000000F) = 10^1000000 has more than"
     f" {sys.get_int_max_str_digits()} digits, the limit of"
     " sys.get_int_max_str_digits() for printing an integer"),
    ("chamber --u 5/2", "expected mu,c with rational entries, got '5/2'"),
    ("plan --from 5/2,1/2 --to 5/2,1/4 --g 2 --label B",
     "bad stratum label 'B': B has non-negative square"),
    ("plan --from 5/2,1/2 --to 5/2,3/4 --g 2 --label 2B+2E",
     "bad stratum label '2B+2E': 2B+2E is not B-kF (k >= 1) or B-kF-E"
     " (k >= 0); only these families label strata"),
    ("plan --g 1 --label B-F --from 2,1/2 --to 2,999999999/1000000000",
     "the raise along B-F needs 268435456 interleaved rounds, more than"
     " 1048576"),
    ("figure --mu-max 1/0", "zero denominator: '1/0'"),
    ("figure --mu-max 1", "mu-max must exceed 1"),
    ("figure --mu-max 3 --scale -5", "scale must be positive, got -5"),
    ("figure --mu-max 3 --scale 0", "scale must be positive, got 0"),
    # an output path that cannot be opened for writing is the user's to fix
    ("figure --mu-max 3 -o /nonexistent-dir/fig.svg",
     "cannot write /nonexistent-dir/fig.svg: No such file or directory"),
    ("figure --mu-max 3 -o .", "cannot write .: Is a directory"),
    ("decompose --g 2 --q-bound 2 --r-bound -1 --json",
     "r-bound must be >= 0, got -1"),
    ("strata --u 3,1/2 --g 1 --wide -1",
     "wide scan bound must be >= 0, got -1"),
    ("strata --u 3,1/2 --g 1 --cod-max -1", "cod-max must be >= 0, got -1"),
    ("report --g 1 --mu-max 3 --cod-max -1", "cod-max must be >= 0, got -1"),
    ("verify-stability --g 1 --mu-max 2 --step 1/4 --min-index -3",
     "min-index must be >= 0, got -3"),
    # no cone point has mu < 1, and one point per chamber pairs with none
    ("verify-stability --g 0 --mu-max 2 --step 1/2 --mu-min -3",
     "mu-min must be >= 1, got -3"),
    ("verify-stability --g 0 --mu-max 2 --step 1/2",
     "each attempted chamber holds one grid point of (1, 2]: no transport"
     " to certify"),
    # --x pins a section of the open stratum, so a stratum label refuses it
    ("plan --from 4,1/2 --to 15/4,1/2 --g 2 --label B-2F --x 1",
     "section coefficient x=1 pins an open-stratum section; label B-2F is"
     " not open"),
    # a point's rationals are read inside one input context
    ("plan --from 1/0,1/2 --to 5/2,2/5 --g 2 --label open --json",
     "zero denominator: '1/0'"),
    ("plan --from a,1/2 --to 5/2,2/5 --g 2 --label open --json",
     "not an integer or p/q rational: 'a'"),
    ("plan --from 1,2,3 --to 5/2,2/5 --g 2 --label open --json",
     "expected mu,c with rational entries, got '1,2,3'"),
])
def test_bad_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["verify-stability", "--g", "1", "--mu-max", "3", "--step", "1/4",
      "--mu-min", ""], "not an integer or p/q rational: ''"),
    (["verify-stability", "--g", "1", "--mu-max", "3", "--step", "1/4",
      "--mu-min="], "not an integer or p/q rational: ''"),
    (["verify-stability", "--g", "1", "--mu-max", "3", "--step", "1/4",
      "--mu-min", " "], "not an integer or p/q rational: ' '"),
    (["figure", "--mu-max", "2", "-o", ""],
     "cannot write : No such file or directory"),
    (["figure", "--mu-max", "2", "--output="],
     "cannot write : No such file or directory"),
])
def test_an_empty_option_value_is_a_value(capsys, argv, message):
    # an empty value is refused as the text it is, never read as an absent
    # option (the default grid, or the SVG on stdout), by the command's
    # reader and by argparse alike
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, low", [
    ("report --g 1 --mu-max 0", "1"),
    ("report --g 3 --mu-max 3", "3"),
    ("verify-stability --g 1 --mu-max 0 --step 1/4", "1"),
    ("verify-stability --g 1 --mu-max 3/2 --mu-min 2 --step 1/4", "2"),
    # a non-empty interval whose first grid point 5/4 lies beyond it
    ("verify-stability --g 1 --mu-max 9/8 --step 1/4", "1"),
    ("report --g 1 --mu-max 9/8 --step 1/4", "1"),
    # every grid point lies below the lowest attempted chamber
    ("verify-stability --g 2 --mu-max 3 --step 1/4 --min-index 9", "2"),
])
def test_empty_grid_exits_2(capsys, argv, low):
    # a grid with no point in an attempted chamber certifies nothing, so it
    # is refused, not "all certified"; the message names the grid (low,
    # mu-max] and the lowest attempted chamber (--min-index, default 2g)
    words = argv.split()
    flag = dict(zip(words[1::2], words[2::2]))
    index = flag.get("--min-index", str(2 * int(flag["--g"])))
    code, out, err = run(capsys, *words)
    assert (code, out, err) == (
        2, "", f"error: no grid point of ({low}, {flag['--mu-max']}] lies in"
               f" a chamber of index {index} or more: nothing to certify\n")


def test_library_fault_exits_1(capsys, monkeypatch):
    # a ValueError that no user input explains is an internal error
    import ruledcone.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("fiber area must be positive to normalize, got 0")

    monkeypatch.setattr(cli, "normalize", broken)
    code, out, err = run(capsys, "inflate", "--u", "4,1/2", "--z", "F",
                         "--t", "1/5")
    assert (code, out) == (1, "")
    assert err == ("internal error: fiber area must be positive to"
                   " normalize, got 0\n")


def test_float_in_a_payload_exits_1(capsys, monkeypatch):
    # the JSON is exact: a float that reaches a payload is a fault, named
    # at the first key in sorted order (c before mu)
    import ruledcone.cli as cli

    monkeypatch.setattr(cli, "format_rational", float)
    code, out, err = run(capsys, "chamber", "--u", "5/2,3/10", "--json")
    assert (code, out) == (1, "")
    assert err == "internal error: float 0.3 has no exact JSON form\n"


@pytest.mark.parametrize("argv, stays, last_line", [
    # the F companion of the left hop carries this route out of chamber 4
    (["--from", "5/2,3/4", "--to", "9/4,1/2", "--label", "B-F"],
     False, "end: (9/4, 1/2)"),
    (["--from", "5/2,3/10", "--to", "5/2,2/5", "--label", "open"],
     True, "end: (5/2, 2/5) (stays in chamber)"),
])
def test_plan_text_agrees_with_json_on_chamber(capsys, argv, stays, last_line):
    argv = ["plan", "--g", "2", *argv]
    assert check(capsys, "plan", *argv, "--json")["stays_in_chamber"] is stays
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.splitlines()[-1] == last_line


def test_verify_stability_json(capsys):
    payload = check(capsys, "stability",
                    "verify-stability", "--g", "1", "--mu-max", "3",
                    "--step", "1/4", "--json")
    assert payload["ok"] is True
    assert [c["chamber"] for c in payload["chambers"]] == [2, 3, 4, 5]


def test_verify_stability_lists_skipped_chambers(capsys):
    code, out, err = run(capsys, "verify-stability", "--g", "2",
                         "--mu-max", "3", "--step", "1/4", "--mu-min", "1")
    assert (code, err) == (0, "")
    assert "  skipped (below index threshold): 2, 3\n" in out
    assert out.endswith("VERDICT: all transports certified\n")


def test_verify_stability_counterexample_exit_code(capsys):
    # below the 2g threshold the open-stratum recipe degenerates: exit 3
    code, out, err = run(capsys, "verify-stability", "--g", "2",
                         "--mu-max", "2", "--step", "1/4", "--mu-min", "1",
                         "--min-index", "2", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["ok"] is False
    failures = [c["first_failure"] for c in payload["chambers"]
                if c["first_failure"]]
    assert any("mu > g" in f["error"] for f in failures)


def test_gromov_json(capsys):
    payload = check(capsys, "gromov",
                    "gromov", "--p", "1", "--q", "2", "--g", "2", "--json")
    assert payload["gromov_invariant"] == 4
    assert payload["virtual_dim"] == "3"


@pytest.mark.parametrize("p, q, g, condition, verdict", [
    (0, 0, 0, "p >= 0, q >= 0 and p + q > 0", "not met"),
    (0, 1, 0, "p >= 0, q >= 0 and p + q > 0", "met"),
    (1, 2, 2, "p >= 0 and q >= g-1", "met"),
])
def test_gromov_names_the_tested_criterion(capsys, p, q, g, condition,
                                           verdict):
    # at g = 0 the tested condition is not q >= g-1, which (0, 0) meets
    argv = ["gromov", "--p", str(p), "--q", str(q), "--g", str(g)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.splitlines()[-1] == (
        f"nonvanishing criterion ({condition}): {verdict}")
    payload = check(capsys, "gromov", *argv, "--json")
    assert payload["nonzero_criterion_q_ge_g_minus_1"] is (verdict == "met")


def test_gromov_inapplicable(capsys):
    code, _, err = run(capsys, "gromov", "--p", "1", "--q", "0", "--g", "3")
    assert code == 2 and "does not apply" in err


def test_decompose_json(capsys):
    payload = check(capsys, "decompose",
                    "decompose", "--g", "2", "--q-bound", "4",
                    "--report-sections", "--json")
    assert payload["total"] == "B+2F"
    assert payload["count"] == len(payload["decompositions"]) > 0
    for d in payload["decompositions"]:
        assert d["section"] is not None


def test_figure_csv_wall_set(capsys):
    code, out, _ = run(capsys, "figure", "--mu-max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "wall_class,x1,y1,x2,y2"
    walls = [ln.split(",")[0] for ln in lines[1:]]
    assert walls == ["B-F", "B-2F", "B-3F", "B-E", "B-F-E", "B-2F-E",
                     "E", "F-E"]


def test_figure_deterministic(capsys):
    _, svg1, _ = run(capsys, "figure", "--mu-max", "4")
    _, svg2, _ = run(capsys, "figure", "--mu-max", "4")
    assert svg1 == svg2
    assert svg1.startswith("<?xml")


def test_figure_golden_files(capsys, tmp_path):
    import pathlib

    golden_dir = pathlib.Path(__file__).parent / "golden"
    _, csv_out, _ = run(capsys, "figure", "--mu-max", "4", "--format", "csv")
    _, svg_out, _ = run(capsys, "figure", "--mu-max", "4", "--format", "svg")
    assert csv_out == (golden_dir / "figure_mu4.csv").read_text()
    assert svg_out == (golden_dir / "figure_mu4.svg").read_text()


def test_figure_output_file(capsys, tmp_path):
    target = tmp_path / "cone.svg"
    code, out, _ = run(capsys, "figure", "--mu-max", "3", "-o", str(target))
    assert code == 0 and target.exists()
    assert target.read_text().startswith("<?xml")


def test_report_json(capsys):
    # step 1/3 puts three points in each chamber (at step 1/2 each holds
    # one, which checks no transport and is refused)
    payload = check(capsys, "report",
                    "report", "--g", "2", "--mu-max", "6", "--step", "1/3",
                    "--json")
    assert [c["index"] for c in payload["chambers"]] == list(range(1, 12))
    for c in payload["chambers"]:
        if c["index"] < 4:
            assert c["stability"] == "skipped"
    verified = [c["index"] for c in payload["chambers"]
                if c["stability"] == "verified"]
    assert verified and min(verified) >= 4
    ids = [d["id"] for d in payload["paper_discrepancies"]]
    assert ids == ["vertical-transport-solutions", "left-inflation-family",
                   "section-virtual-dimension"]
    jsonschema.validate(payload["stability"], load_schema("stability"))


def test_report_gives_every_chamber_its_labels(capsys):
    # chambers 4 and 5 reach past mu-max = 9/4; their labels are the ones
    # the verifier certified there
    argv = ["report", "--g", "1", "--mu-max", "9/4", "--step", "1/8"]
    payload = check(capsys, "report", *argv, "--json")
    verified = {v["chamber"]: v["labels"]
                for v in payload["stability"]["chambers"]}
    assert sorted(verified) == [2, 3, 4, 5]
    for entry in payload["chambers"]:
        names = [" + ".join(lb["core"]) or "open" for lb in entry["labels"]]
        assert names == verified.get(entry["index"], names)
    assert verified[4] == ["open", "B-E", "B-F", "B-F-E", "B-2F"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "0 labels" not in out
    assert "chamber   4: mu > 2 and mu <= 2 + c; 5 labels;" in out


def test_report_marks_chambers_without_grid_points(capsys):
    # step 1/2 puts one grid point in each of chambers 2 and 3 of (1, 9/4],
    # which checks no transport, so it is refused
    code, out, err = run(capsys, "report", "--g", "1", "--mu-max", "9/4",
                         "--step", "1/2")
    assert (code, out) == (2, "")
    assert err == ("error: each attempted chamber holds one grid point of"
                   " (1, 9/4]: no transport to certify\n")
    # step 1/3 puts three in each of them and none in chambers 4 and 5
    code, out, err = run(capsys, "report", "--g", "1", "--mu-max", "9/4",
                         "--step", "1/3")
    assert (code, err) == (0, "")
    assert [line.rsplit("; stability ", 1)[1]
            for line in out.splitlines()[1:6]] == [
        "skipped", "grid-verified", "grid-verified", "no-grid-points",
        "no-grid-points"]


def test_report_text_says_the_grid_was_verified(capsys):
    # the text names what was checked; the JSON enum stays "verified"
    argv = ["report", "--g", "1", "--mu-max", "9/4", "--step", "1/8"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == ("  chamber   2: mu > 1 and mu <= 1 + c; 3 labels;"
                        " stability grid-verified")
    assert lines[-1] == "stability verdict: all grid pairs certified"
    payload = check(capsys, "report", *argv, "--json")
    assert payload["chambers"][1]["stability"] == "verified"


def test_report_text_names_the_open_label_quantifier(capsys):
    # text only: an open-label verdict may use two sections in one plan
    code, out, _ = run(capsys, "report", "--g", "2", "--mu-max", "3",
                       "--step", "1/4")
    assert code == 0
    assert out.splitlines()[-3] == (
        "open label: each ordered pair is certified along sections B+xF"
        " with x <= g = 2; one plan may use two, hopping along B+gF and"
        " raising along a smaller x")


def test_report_text_at_genus_0_claims_one_section(capsys):
    # at g = 0 the only section is B, so no plan uses two
    code, out, _ = run(capsys, "report", "--g", "0", "--mu-max", "3",
                       "--step", "1/4")
    assert code == 0
    assert out.splitlines()[-3] == (
        "open label: each ordered pair is certified along sections B+xF"
        " with x <= g = 0")
    assert "may use two" not in out


def test_readme_commands_parse():
    # every `ruledcone ...` example line of the README, its comment cut
    readme = Path(__file__).parents[1] / "README.md"
    commands = [line.split("#")[0].split()[1:]
                for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("ruledcone ")]
    assert len(commands) >= 10
    for argv in commands:  # a stale flag makes argparse exit 2 here
        assert build_parser().parse_args(argv).command == argv[0]


def module_env() -> dict:
    """The environment in which ``python -m ruledcone`` imports the package
    this test process imported, whatever the working directory is."""
    env = dict(os.environ)
    src = str(Path(ruledcone.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(*argv):
    """Run ``python -m ruledcone`` in a child process."""
    return subprocess.run([sys.executable, "-m", "ruledcone", *argv],
                          capture_output=True, text=True, env=module_env())


@pytest.mark.parametrize("argv, first", [
    (["decompose", "--g", "6", "--q-bound", "8", "--json"], b"{"),
    (["figure", "--mu-max", "2000"], b"<"),
], ids=["decompose", "figure"])
def test_reader_closing_stdout_early_is_no_error(argv, first):
    # 159 KB of JSON, or 1 MB of SVG, against a 64 KB pipe buffer: the
    # write meets the closed pipe, which is the reader's choice, not an
    # internal error.  Buffered, as by default: unbuffered, a partial write
    # to the pipe drops the rest of the output without an error
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ruledcone", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_parser_is_built_once(capsys, monkeypatch):
    # repeated in-process calls construct no new parser
    run(capsys, "chamber", "--u", "5/2,3/10")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        code, _, err = run(capsys, "chamber", "--u", "5/2,3/10")
        assert code == 0, err
    assert built == []


def test_reused_parser_keeps_no_state(capsys):
    # options of one call do not carry over to the next: each call prints
    # what a fresh process prints
    plan = ["plan", "--from", "5/2,3/10", "--to", "5/2,2/5", "--g", "2",
            "--label", "open"]
    for argv in ([*plan, "--x", "1", "--json"], plan):
        code, out, err = run(capsys, *argv)
        proc = run_module(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert code == 0, err
    assert "inflate along B+2F by t = 1 " in out  # x = g, not the pinned 1


def test_parser_error_leaves_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--from", "5/2,3/10"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: ruledcone plan")
    code, out, err = run(capsys, "plan", "--from", "5/2,3/10", "--to",
                         "5/2,2/5", "--g", "2", "--label", "open")
    assert code == 0, err
    assert out.splitlines()[-1] == "end: (5/2, 2/5) (stays in chamber)"


def test_console_entry_point():
    proc = run_module("chamber", "--u", "5/2,3/10")
    assert proc.returncode == 0, proc.stderr
    assert "chamber index: 5" in proc.stdout


def test_console_entry_point_exit_code():
    # the return value of main must reach the process, not just be dropped
    proc = run_module("chamber", "--u", "1/2,1/4")
    assert proc.returncode == 2, proc.stderr
    assert "policy" in proc.stderr


@pytest.mark.skipif(shutil.which("ruledcone") is None,
                    reason="ruledcone console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["ruledcone", "chamber", "--u", "5/2,3/10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "chamber index: 5" in proc.stdout


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ruledcone"]
    assert target == "ruledcone.cli:main"
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry is importlib.import_module("ruledcone.__main__").main


def test_public_names_resolve_once():
    # a stale entry would break `from ruledcone import *`
    names = ruledcone.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ruledcone, name), name


def test_a_known_command_parses_as_the_top_level_parser_would():
    # main parses a known command with that command's own parser
    from ruledcone.cli import _parse_args

    golden = Path(__file__).parent / "golden" / "cli_argv.json"
    parsed = [entry["argv"] for entry in json.loads(golden.read_text())
              if entry["exit"] != 2 and "-h" not in entry["argv"]]
    assert len(parsed) >= 20
    for argv in parsed:
        assert _parse_args(argv) == build_parser().parse_args(argv), argv


def test_a_label_is_parsed_once_per_text_and_genus():
    from ruledcone.cli import InputError, _parse_label
    from ruledcone.lattice import B, F, SurfaceParams
    from ruledcone.strata import OPEN_LABEL, label_for

    label = _parse_label("B-2F", 2)
    assert label == label_for(B - 2 * F, SurfaceParams(2))
    assert _parse_label("B-2F", 2) is label
    assert _parse_label("B-2F", 3) is not label
    assert _parse_label(" Open ", 1) is OPEN_LABEL
    # a refused label is never kept: each call refuses it afresh
    for text in ("B+F", ""):
        size = _parse_label.cache_info().currsize
        errors = []
        for _ in range(2):
            with pytest.raises(InputError) as exc:
                _parse_label(text, 2)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"bad stratum label {text!r}: ")
        assert _parse_label.cache_info().currsize == size


def test_a_repeated_label_is_served_from_the_memo(capsys, monkeypatch):
    # the second call parses no class: a lost memo would still print the
    # right JSON, only more slowly, so the parser is made to fail
    import ruledcone.cli as cli

    golden = Path(__file__).parent / "golden" / "plans.json"
    expected = json.loads(golden.read_text())["readme-stratum-left"]
    argv = ["plan", "--from", "4,1/2", "--to", "15/4,1/2", "--g", "2",
            "--label", "B-2F", "--json"]
    first = run(capsys, *argv)

    def refuse(text):
        raise AssertionError(f"class {text!r} parsed again")

    monkeypatch.setattr(cli, "parse_class", refuse)
    assert run(capsys, *argv) == first == (
        0, json.dumps(expected, indent=2, sort_keys=True) + "\n", "")

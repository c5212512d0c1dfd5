"""tools/bench_ab.py: run order and the claim rule, on made-up run records,
and its refusal to compare a tree with itself, on a temporary repository.

The tool uses only the standard library, so it is imported from its file.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
SPEC = [{"name": "op_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(seed, op_ms, ops, failed=0, attempted=100, rss_mb=30.0):
    return {"workload": "classify", "provenance": {"seed": seed},
            "attempted": attempted, "failed": failed, "cpu_s": 20 * op_ms,
            "metrics": {"op_ms_p50": {"value": op_ms},
                        "ops_per_s": {"value": ops},
                        "peak_rss_mb": {"value": rss_mb}}}


def test_schedule_alternates_the_first_side_and_traces_last():
    order = list(_tool().schedule(["classify"], range(7, 10)))
    assert order == [
        ("parent", "classify", 7, 0), ("change", "classify", 7, 0),
        ("change", "classify", 8, 0), ("parent", "classify", 8, 0),
        ("parent", "classify", 9, 0), ("change", "classify", 9, 0),
        ("parent", "classify", 7, 1), ("change", "classify", 7, 1)]


def test_claim_needs_nine_tenths_of_pairs_and_a_gain_beyond_the_spread():
    tool = _tool()
    parent = [_record(s, 1.0 + s / 100, 500) for s in range(10)]
    # the change wins 9 of 10 pairs on op_ms_p50 and ties ops_per_s
    change = [_record(s, 0.5 if s else 2.0, 500) for s in range(10)]
    summary = {"classify": tool.summarize(
        {"parent": parent, "change": change}, "classify", SPEC)}
    s = summary["classify"]["op_ms_p50"]
    assert (s["pairs_won"], s["pairs"]) == (9, 10)
    assert s["won_by_seed"]["0"] is False and s["verdict"] == "within"
    assert tool.claim_of(summary, "classify", "op_ms_p50")["holds"]
    assert summary["classify"]["ops_per_s"]["pairs_won"] == 0  # ties
    assert not tool.claim_of(summary, "classify", "ops_per_s")["holds"]
    # 8 of 10 is not enough
    change[1] = _record(1, 2.0, 500)
    summary = {"classify": tool.summarize(
        {"parent": parent, "change": change}, "classify", SPEC)}
    assert not tool.claim_of(summary, "classify", "op_ms_p50")["holds"]


def test_a_gain_inside_the_parent_spread_is_no_claim():
    tool = _tool()
    parent = [_record(s, 1.0 + s / 10, 500) for s in range(10)]
    change = [_record(s, 0.99 + s / 10, 500) for s in range(10)]
    summary = {"classify": tool.summarize(
        {"parent": parent, "change": change}, "classify", SPEC)}
    assert summary["classify"]["op_ms_p50"]["pairs_won"] == 10
    assert not tool.claim_of(summary, "classify", "op_ms_p50")["holds"]


def test_a_gain_with_more_failed_ops_is_no_claim():
    tool = _tool()
    parent = [_record(s, 1.0, 500) for s in range(10)]
    change = [_record(s, 0.5, 500, failed=1 if s == 3 else 0)
              for s in range(10)]
    summary = {"classify": tool.summarize(
        {"parent": parent, "change": change}, "classify", SPEC)}
    assert summary["classify"]["op_ms_p50"]["pairs_won"] == 10
    assert summary["classify"]["fail_share"] == {"parent": 0.0,
                                                 "change": 0.001}
    assert not tool.claim_of(summary, "classify", "op_ms_p50")["holds"]


def test_a_gain_with_a_metric_outside_its_bound_is_no_claim():
    tool = _tool()
    parent = [_record(s, 1.0, 500) for s in range(10)]
    change = [_record(s, 0.5, 500) for s in range(10)]
    runs = {"parent": parent, "change": change}
    summary = {"classify": tool.summarize(runs, "classify", SPEC)}
    claim = tool.claim_of(summary, "classify", "op_ms_p50")
    assert claim["regressions"] == [] and claim["holds"]
    # ops_per_s falls by 40% (bound 25%) on any workload, claimed or not
    slow = [_record(s, 0.5, 300) for s in range(10)]
    for workload in ("classify", "grid-verify"):
        summary = {"classify": tool.summarize(runs, "classify", SPEC)}
        summary[workload] = tool.summarize(
            {"parent": parent, "change": slow}, "classify", SPEC)
        assert summary[workload]["ops_per_s"]["verdict"] == "outside"
        claim = tool.claim_of(summary, "classify", "op_ms_p50")
        assert claim["regressions"] == [f"{workload}:ops_per_s"]
        assert claim["pairs_won"] == 10 and not claim["holds"]
    # a metric within its bound, or unresolved, is no regression
    assert tool.outside_bounds({"classify": {
        "wall_s": {"verdict": "within"}, "setup_s": {"verdict": "unresolved"},
        "fail_share": {"parent": 0.0, "change": 0.0}}}) == []


def _traced(side, workload, correct):
    return {"side": side, "workload": workload, "correct": correct,
            "failed": 0 if correct else 3}


def test_a_gain_with_an_incorrect_traced_run_is_no_claim():
    tool = _tool()
    parent = [_record(s, 1.0, 500) for s in range(10)]
    change = [_record(s, 0.5, 500) for s in range(10)]
    summary = {"classify": tool.summarize(
        {"parent": parent, "change": change}, "classify", SPEC)}
    both_correct = [_traced("parent", "classify", True),
                    _traced("change", "classify", True)]
    assert tool.claim_of(summary, "classify", "op_ms_p50",
                         both_correct)["holds"]
    # the change's traced run fails where the parent's passes, on any workload
    for workload in ("classify", "grid-verify"):
        traced = [*both_correct, _traced("parent", workload, True),
                  _traced("change", workload, False)]
        claim = tool.claim_of(summary, "classify", "op_ms_p50", traced)
        assert claim["traced_regressions"] == [workload]
        assert not claim["holds"]
    # a traced run the parent fails as well is no regression of the change
    traced = [_traced("parent", "classify", False),
              _traced("change", "classify", False)]
    claim = tool.claim_of(summary, "classify", "op_ms_p50", traced)
    assert claim["traced_regressions"] == [] and claim["holds"]


def test_main_prints_traced_runs_and_fails_the_claim(tmp_path, monkeypatch,
                                                     capsys):
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"paths": ["perfbench"], "run_seconds": 1,
         "workloads": [{"name": "classify"}], "end_to_end": SPEC}))

    def run_once(root, workload, seed, seconds, trace):
        change = root == tmp_path
        record = _record(seed, 0.5 if change else 1.0, 500)
        if trace:  # the change's traced run finds a wrong answer
            record.update(correct=not change, failed=2 if change else 0)
        return record

    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "differs", lambda root, paths: True)
    monkeypatch.setattr(tool, "git", lambda *args, **kw: "0" * 40)
    monkeypatch.setattr(tool, "export", lambda rev, into: None)
    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert tool.main(["--out", str(out), "--claim", "classify:op_ms_p50"]) == 1
    printed = capsys.readouterr().out
    assert "traced parent classify: correct True, failed 0" in printed
    assert "traced change classify: correct False, failed 2" in printed
    assert "claim classify:op_ms_p50: FAILS" in printed
    # CPU seconds, in total and per attempted op, are summarized and
    # printed, and gate nothing
    assert ("classify cpu_s: parent 20, change 10; cpu_us_per_op: parent"
            " 2e+05, change 1e+05 (medians, not gated)" in printed)
    claim = json.loads(out.read_text())["claim"]
    assert claim["pairs_won"] == 10 and claim["traced_regressions"] == [
        "classify"]
    assert "PYTHONPYCACHEPREFIX per run" in json.loads(
        out.read_text())["machine"]


def test_attempted_ops_are_summarized_and_printed_beside_peak_rss(
        tmp_path, monkeypatch, capsys):
    # the change attempts twice the ops and its peak RSS grows with them;
    # the median op count per side is printed next to the memory metric
    tool = _tool()
    rss = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"paths": ["perfbench"], "run_seconds": 1,
         "workloads": [{"name": "classify"}], "end_to_end": [*SPEC, rss]}))

    def run_once(root, workload, seed, seconds, trace):
        change = root == tmp_path
        return {**_record(seed, 1.0, 500, attempted=(200 if change else 100)
                          + seed % 3, rss_mb=40.0 if change else 30.0),
                "correct": True}

    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "differs", lambda root, paths: True)
    monkeypatch.setattr(tool, "git", lambda *args, **kw: "0" * 40)
    monkeypatch.setattr(tool, "export", lambda rev, into: None)
    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert tool.main(["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert ("classify peak_rss_mb: parent 30, change 40, won 0/10,"
            " outside (bound 0.1); attempted ops: parent 101, change 201"
            " (medians)" in printed)
    assert "attempted ops" not in printed.split("peak_rss_mb")[0]
    attempted = json.loads(out.read_text())["summary_trace0"]["classify"][
        "attempted"]
    assert attempted["parent"]["median"] == 101
    assert attempted["parent"]["n"] == 10
    assert attempted["change"]["median"] == 201


def test_run_once_records_the_cpu_seconds_of_the_run(tmp_path):
    # a stand-in package, whose CLI imports `fractions`, and a stand-in
    # perfbench/run.py that burns 0.2 s of CPU, lists its bytecode cache and
    # writes its result where the real one does
    (tmp_path / "src" / "ruledcone").mkdir(parents=True)
    (tmp_path / "src" / "ruledcone" / "__init__.py").write_text("")
    (tmp_path / "src" / "ruledcone" / "cli.py").write_text(
        "import fractions\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys, time\n"
        "import os\n"
        "from pathlib import Path\n"
        "while time.process_time() < 0.2:\n"
        "    pass\n"
        "out = Path('perfbench/out')\n"
        "out.mkdir(exist_ok=True)\n"
        "cache = os.environ['PYTHONPYCACHEPREFIX']\n"
        "cached = [str(p) for p in Path(cache).rglob('*.pyc')]\n"
        "(out / 'result-classify-seed7-trace0.json').write_text(\n"
        "    json.dumps({'workload': 'classify', 'argv': sys.argv[1:],\n"
        "                'cache': cache, 'cached': cached}))\n")
    record = _tool().run_once(tmp_path, "classify", 7, 1.0, 0)
    assert record["workload"] == "classify"
    # the run read its bytecode from a fresh cache directory that holds
    # the standard library's, not the checkout's; it is gone after the
    # run, and the next run gets another
    names = [Path(p).name.split(".")[0] for p in record["cached"]]
    assert "fractions" in names
    assert not any(p.startswith(str(Path(record["cache"],
                                         *tmp_path.resolve().parts[1:])))
                   for p in record["cached"])
    assert not Path(record["cache"]).exists()
    assert _tool().run_once(tmp_path, "classify", 7, 1.0,
                            0)["cache"] != record["cache"]
    assert record["argv"] == ["--workload", "classify", "--seed", "7",
                              "--seconds", "1.0", "--trace", "0"]
    assert 0.2 <= record["cpu_s"] < 30
    summary = _tool().summarize(
        {"parent": [_record(s, 1.0, 500) for s in range(4)],
         "change": [_record(s, 0.5, 500) for s in range(4)]},
        "classify", SPEC)
    assert summary["cpu_s"]["parent"]["median"] == 20
    assert summary["cpu_s"]["change"]["median"] == 10
    # 100 ops a run: 0.2 and 0.1 s, that is 2e5 and 1e5 us, of CPU per op
    assert summary["cpu_us_per_op"]["parent"]["median"] == 2e5
    assert summary["cpu_us_per_op"]["change"]["median"] == 1e5


def test_runs_spread_wider_than_the_bound_are_unresolved():
    tool = _tool()
    parent = [_record(s, 1.0, 500) for s in range(10)]
    # the median is unchanged, but the quartiles lie 1.0 apart (bound 0.25)
    change = [_record(s, 0.5 if s < 5 else 1.5, 500) for s in range(10)]
    summary = {"classify": tool.summarize(
        {"parent": parent, "change": change}, "classify", SPEC)}
    s = summary["classify"]["op_ms_p50"]
    assert s["change"]["median"] == 1.0 and s["worse_by"] == 0
    assert s["verdict"] == "unresolved"
    assert summary["classify"]["ops_per_s"]["verdict"] == "within"
    # the same spread on the parent's side is unresolved too
    summary = {"classify": tool.summarize(
        {"parent": change, "change": parent}, "classify", SPEC)}
    assert summary["classify"]["op_ms_p50"]["verdict"] == "unresolved"
    # unless every run of the change reads better than every parent run
    summary = {"classify": tool.summarize(
        {"parent": [_record(s, 2.0, 500) for s in range(10)],
         "change": change}, "classify", SPEC)}
    assert summary["classify"]["op_ms_p50"]["verdict"] == "within"


def test_a_tree_that_matches_head_is_refused(tmp_path, monkeypatch):
    tool = _tool()

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.org", *args], check=True,
                       capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "perfbench" / "run.py").write_text("y = 1\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"paths": ["perfbench"], "run_seconds": 1, "workloads": [],
         "end_to_end": []}))
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    compared = ["src", "perfbench"]
    assert not tool.differs(tmp_path, compared)
    # a change outside the compared paths is no change of the benchmarked code
    (tmp_path / "README.md").write_text("notes\n")
    assert not tool.differs(tmp_path, compared)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as refused:
        tool.main(["--out", str(tmp_path / "BENCH.json")])
    assert "match HEAD" in str(refused.value)
    assert "before committing" in str(refused.value)
    assert not (tmp_path / "BENCH.json").exists()
    # an unstaged edit, a staged one and an untracked file each differ
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert tool.differs(tmp_path, compared)
    git("add", "src/m.py")
    assert tool.differs(tmp_path, compared)
    git("commit", "-q", "-m", "change")
    assert not tool.differs(tmp_path, compared)
    (tmp_path / "perfbench" / "new.py").write_text("z = 1\n")
    assert tool.differs(tmp_path, compared)


@pytest.mark.parametrize("claim", ["grid-verify:walls", "grid-verfy:wall_s",
                                   "grid-verify", "grid-verify:wall_s:x"])
def test_a_claim_outside_the_benchmark_is_refused_before_any_run(
        tmp_path, monkeypatch, claim):
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"paths": ["perfbench"], "run_seconds": 1,
         "workloads": [{"name": "grid-verify"}],
         "end_to_end": [{"name": "wall_s", "better": "lower",
                         "bound": 0.25}]}))
    started = []
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "differs", lambda root, paths: False)
    monkeypatch.setattr(tool, "export", lambda *a: started.append(a))
    monkeypatch.setattr(tool, "run_once", lambda *a: started.append(a))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as refused:
        tool.main(["--out", str(out), "--claim", claim])
    assert str(refused.value).startswith(f"bench_ab: --claim {claim} names"
                                         " no WORKLOAD:METRIC")
    assert "workloads: grid-verify; metrics: wall_s" in str(refused.value)
    assert started == [] and not out.exists()
    # a claim the benchmark declares passes on to the next check
    with pytest.raises(SystemExit, match="match HEAD"):
        tool.main(["--out", str(out), "--claim", "grid-verify:wall_s"])
    assert started == []

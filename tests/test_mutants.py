"""tools/mutants.py: every mutant's anchor occurs exactly once in today's
source, so the list fails loudly when code moves under it.  No mutant is
run here; the tool runs them."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[m.name for m in mutants.MUTANTS])
def test_every_anchor_occurs_once(mutant):
    source = (ROOT / mutant.file).read_text()
    assert source.count(mutant.anchor) == 1
    assert mutants.mutated(mutant, source) != source
    assert mutant.tests and all((ROOT / name).is_file()
                                for name in mutant.tests)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_an_anchor_that_moved_is_refused():
    mutant = mutants.MUTANTS[0]
    for source in ("", mutant.anchor * 2):
        with pytest.raises(ValueError, match=mutant.name):
            mutants.mutated(mutant, source)


def test_file_option_runs_the_mutants_of_that_file(capsys, monkeypatch):
    monkeypatch.setattr(mutants, "verdict", lambda mutant: "killed")
    for path in (mutants.CLI, "./" + mutants.CLI):
        assert mutants.main(["--file", path]) == 0
        names = [line.split()[1]
                 for line in capsys.readouterr().out.splitlines()]
        assert names == [m.name for m in mutants.MUTANTS
                         if m.file == mutants.CLI]
    for argv in (["--file", "src/ruledcone/__main__.py"],
                 ["--file", mutants.CLI, mutants.MUTANTS[0].name]):
        with pytest.raises(SystemExit) as err:
            mutants.main(argv)
        assert err.value.code == 2

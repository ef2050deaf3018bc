"""The committed mutant set stays live.

``tests/mutants/run.py`` kills each mutant by pytest.  Its table is
checked here, at no cost: each mutant's old text occurs exactly once in
its file, so an edit to ``src/`` cannot silently turn a mutant into a
no-op; its new text differs; every suite it names exists; names are
unique.  The floors keep the set from shrinking unnoticed: at least 42
mutants, over at least 31 distinct source files, so a later edit cannot
quietly drop a module's only mutant.
"""

import importlib.util
import pathlib

RUNNER = pathlib.Path(__file__).resolve().parent / "mutants" / "run.py"


def _runner():
    spec = importlib.util.spec_from_file_location("mutant_runner", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_the_tree():
    runner = _runner()
    assert len(runner.MUTANTS) >= 42
    assert len({mutant.file for mutant in runner.MUTANTS}) >= 31
    assert runner.check_table() == []

"""The committed mutant set stays live.

``tests/mutants/run.py`` kills each mutant by pytest.  Its table is
checked here, at no cost: each mutant's old text occurs exactly once in
its file, so an edit to ``src/`` cannot silently turn a mutant into a
no-op; its new text differs; every suite it names exists; names are
unique; and there are at least 20.
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
    assert len(runner.MUTANTS) >= 20
    assert runner.check_table() == []

"""Consumer guard: every public module-level name in ``src/repro`` has a
reader outside ``tests/``.

A *definition* is a public (no leading ``_``) module-level ``def``,
``class`` or ``NAME = ...`` in ``src/repro/**/*.py``.  A *reader* is any
occurrence of the name as a word in a ``.py`` file under ``src/``,
``examples/``, ``benchmarks/`` or ``perfbench/``, or in a CI workflow,
except

* the definition's own line span in its module, and
* a package ``__init__.py``'s import statements and ``__all__`` (a
  re-export is not a reader).

Plain word matching also counts string references (``getattr(figures,
"fig2_gpu_sampling")``) and docstring mentions, so the scan errs toward
not flagging a name.  Methods are not guarded: common method names make
word matching too noisy.

A name that is read only by tests either goes, moves into ``tests/``,
or gets an ``ALLOW`` entry with its reason.  An ``ALLOW`` entry that
names nothing or has gained a reader fails too, so the list stays true.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Where readers are looked for: (directory, glob).
READER_SOURCES = (
    ("src", "**/*.py"),
    ("examples", "**/*.py"),
    ("benchmarks", "**/*.py"),
    ("perfbench", "**/*.py"),
    (".github/workflows", "*.yml"),
)

#: Public names read only by tests, by design.  Keys are qualified as
#: ``package.module.name`` relative to ``repro``.
ALLOW: dict[str, str] = {
    "nn.aggregate.gather_reduce_reference": (
        "the scipy oracle every kernel is tested against"),
    "nn.aggregate.aggregate_backward_reference": (
        "the scipy oracle every backward kernel is tested against"),
    "graphs.generators.uniform_graph": (
        "test-graph builder behind the shared conftest fixtures"),
    "graphs.generators.star_graph": (
        "test-graph builder for the hub-degree edge cases"),
    "graphs.generators.chain_graph": (
        "test-graph builder for the degree-1 edge cases"),
    "graphs.generators.grid_graph": (
        "test-graph builder for the regular-degree cases"),
    "graphs.generators.planted_partition_graph": (
        "labelled community graph the training-convergence tests learn"),
    "perf.machine.cascade_lake_12": (
        "the 12-core machine of the pinned model-vs-simulator"
        " reconciliation test"),
    "perf.traffic.compressed_effective_feature_len": (
        "the S3 feature length the model-vs-simulator reconciliation"
        " test checks"),
    "lanes.lane_count": (
        "the probe the lane fixtures read to restore the lane count"),
}

MAX_ALLOW = 12

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Definition:
    qualname: str
    name: str
    path: Path
    first: int  # 1-based, inclusive
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _qualname(package: Path, path: Path, name: str) -> str:
    parts = list(path.relative_to(package).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts + [name])


def _span(node: ast.stmt) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    return first, node.end_lineno or node.lineno


def _assigned_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def definitions(package: Path = PACKAGE) -> list[Definition]:
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            else:
                names = _assigned_names(node)
            for name in names:
                if name.startswith("_"):
                    continue
                first, last = _span(node)
                found.append(Definition(
                    _qualname(package, path, name), name, path, first, last))
    return found


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of a package ``__init__``'s imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                or "__all__" in _assigned_names(node)):
            first, last = _span(node)
            lines.update(range(first, last + 1))
    return lines


def _words(lines) -> Counter:
    counts: Counter = Counter()
    for line in lines:
        counts.update(_WORD.findall(line))
    return counts


def reader_counts(root: Path = ROOT) -> dict[Path, Counter]:
    """One word ``Counter`` per reader file, re-export lines excluded."""
    counts = {}
    for directory, pattern in READER_SOURCES:
        for path in sorted((root / directory).glob(pattern)):
            text = path.read_text()
            lines = text.splitlines()
            if path.name == "__init__.py":
                skip = _reexport_lines(ast.parse(text))
                lines = [line for number, line in enumerate(lines, 1)
                         if number not in skip]
            counts[path.resolve()] = _words(lines)
    return counts


def unread(defs: list[Definition],
           counts: dict[Path, Counter]) -> list[Definition]:
    """The definitions no reader file mentions outside their own span."""
    total: Counter = Counter()
    for words in counts.values():
        total.update(words)
    missing = []
    for d in defs:
        lines = d.path.read_text().splitlines()[d.first - 1:d.last]
        own = _words(lines)[d.name] if d.path.resolve() in counts else 0
        if total[d.name] - own <= 0:
            missing.append(d)
    return missing


@pytest.fixture(scope="module")
def scan() -> tuple[list[Definition], list[Definition]]:
    """(every definition, the unread ones) for the repository."""
    defs = definitions()
    return defs, unread(defs, reader_counts())


def test_every_public_name_has_a_reader(scan):
    _, unread_defs = scan
    dead = [d for d in unread_defs if d.qualname not in ALLOW]
    assert not dead, (
        "public names with no reader outside tests/ (delete them, move "
        "them into tests/, or allow-list them with a reason):\n"
        + "\n".join(f"  {d.qualname} ({d.lines} lines)" for d in dead))


def test_allow_list_is_short_and_true(scan):
    defs, unread_defs = scan
    assert len(ALLOW) <= MAX_ALLOW, f"{len(ALLOW)} entries > {MAX_ALLOW}"
    assert all(reason.strip() for reason in ALLOW.values())
    known = {d.qualname for d in defs}
    stale = sorted(name for name in ALLOW if name not in known)
    assert not stale, f"allow-list entries that name nothing: {stale}"
    dead = {d.qualname for d in unread_defs}
    read = sorted(name for name in ALLOW if name not in dead)
    assert not read, f"allow-list entries that now have a reader: {read}"


def test_guard_flags_a_planted_name(tmp_path):
    """The scan itself: a readerless def is flagged, its own span and a
    re-export do not count as readers, and a call elsewhere does."""
    package = tmp_path / "src" / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "sub" / "__init__.py").write_text(
        "from .mod import orphan, used\n__all__ = ['orphan', 'used']\n")
    (package / "sub" / "mod.py").write_text(
        "def orphan():\n    return orphan\n\n\ndef used():\n    pass\n\n\n"
        "LIMIT = 3\n_private = 1\n")
    (package / "main.py").write_text(
        "from .sub import used\n\nused()\nprint(LIMIT)\n")
    defs = definitions(package)
    assert {d.qualname for d in defs} == {
        "sub.mod.orphan", "sub.mod.used", "sub.mod.LIMIT"}
    dead = unread(defs, reader_counts(tmp_path))
    assert [(d.qualname, d.lines) for d in dead] == [("sub.mod.orphan", 2)]

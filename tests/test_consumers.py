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

**Options.**  The second half holds the keyword options to the same
rule.  An *option* is a defaulted parameter of a public function, of a
public method of a public class, or of a public class's ``__init__``.
It is *passed* when a call in a reader ``.py`` file names the callable
(``f(...)``, ``obj.f(...)``, ``Class(...)``, or ``super().__init__(...)``
in a subclass) and gives the parameter by keyword or fills its
position.  Calls match on the bare name, so a ``run(order=...)`` call
passes every ``run``'s ``order``, and a ``*args`` / ``**kwargs`` splat
passes every position / keyword: the scan errs toward not flagging
here too.  A callable in ``ALLOW`` is skipped (it has no caller outside
tests by design).  An option no reader passes is deleted with its
branch, or gets an ``OPTION_ALLOW`` entry with its reason: a test seam,
a deployment setting, an input of the pinned model-vs-simulator
reconciliation, or an oracle's signature.
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

#: Options no reader passes, by design.  Keys are
#: ``package.module.Callable(param=)`` relative to ``repro``: a method is
#: ``Class.method``, a constructor the bare class name.
OPTION_ALLOW: dict[str, str] = {
    "obs.live.LiveRunMonitor(registry=)": (
        "test seam: the registry a monitor reads instead of the active one"),
    "obs.live.LiveRunMonitor.follow(stream=)": (
        "test seam: the stream the frames go to instead of stdout"),
    "obs.metrics.Gauge.age_s(now=)": (
        "test seam: the clock an age is measured against"),
    "obs.rules.RuleEngine(registry=)": (
        "test seam: the registry alerts publish to instead of the active"
        " one"),
    "obs.rules.RuleEngine.evaluate(now=)": (
        "test seam: the clock a `for K` window is timed against"),
    "obs.sampler.ResourceSampler(interval_s=)": (
        "test seam: the sampling clock, shortened so a test sees samples"),
    "serve.server.InferenceService.query(timeout_s=)": (
        "test seam: the 504 bound, shortened against a held batch"),
    "serve.cache.EmbeddingCache.invalidate(vertex=)": (
        "the refill path's entry (ROADMAP item 19): one row, or every row"
        " after a weight update"),
    "perf.cost_model.CostModel(machine=)": (
        "input of the pinned model-vs-simulator reconciliation (the"
        " 12-core machine)"),
    "perf.cost_model.CostModel(capacity_vectors=)": (
        "input of the pinned model-vs-simulator reconciliation (the"
        " simulated cache's capacity)"),
    "sim.core_sim.CoreAggregationSim(machine=)": (
        "input of the pinned model-vs-simulator reconciliation (the"
        " 12-core machine)"),
    "sim.core_sim.CoreAggregationSim.run(reuse_output_buffer=)": (
        "input of the pinned model-vs-simulator reconciliation (the"
        " output-reuse bound)"),
}

MAX_OPTION_ALLOW = 20

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


def reader_files(root: Path = ROOT) -> list[Path]:
    """Every file :data:`READER_SOURCES` names, in a stable order."""
    return [path for directory, pattern in READER_SOURCES
            for path in sorted((root / directory).glob(pattern))]


def reader_counts(root: Path = ROOT) -> dict[Path, Counter]:
    """One word ``Counter`` per reader file, re-export lines excluded."""
    counts = {}
    for path in reader_files(root):
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


# ----------------------------------------------------------------------
# Options


@dataclass(frozen=True)
class Option:
    key: str  # ``module.Callable(param=)``, the OPTION_ALLOW key
    owner: str  # the module-level name it belongs to, as ALLOW keys it
    callee: str  # the name a call uses: function, method or class
    param: str
    position: int | None  # among a call's positionals; None: keyword-only


def _defaulted(node: ast.FunctionDef, bound: bool):
    """``(name, position)`` of each defaulted parameter of ``node``;
    ``bound`` drops the ``self`` / ``cls`` a call does not spell out."""
    args = node.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if position >= first:
            yield arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def options(package: Path = PACKAGE) -> list[Option]:
    """Every option of a public callable in ``package``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or node.name.startswith("_"):
                continue
            owner = _qualname(package, path, node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [Option(f"{owner}({name}=)", owner, node.name, name,
                                 position)
                          for name, position in _defaulted(node, False)]
            else:
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or (
                            item.name.startswith("_")
                            and item.name != "__init__"):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    init = item.name == "__init__"
                    key = owner if init else f"{owner}.{item.name}"
                    found += [Option(f"{key}({name}=)", owner,
                                     node.name if init else item.name, name,
                                     position)
                              for name, position in _defaulted(item, not static)]
    return found


class _CallScan(ast.NodeVisitor):
    """Per callee name, the keywords reader calls give it (``*`` for a
    ``**`` splat) and the most positionals one gives (a ``*`` splat
    counts as every position).  Inside a class, ``cls(...)`` calls that
    class and ``super().__init__(...)`` its bases."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = {}
        self.positions: Counter = Counter()
        self._classes: list[tuple[str, list[str]]] = [("", [])]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append((node.name, [
            getattr(b, "id", getattr(b, "attr", "")) for b in node.bases]))
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name, bases = self._classes[-1]
        if isinstance(func, ast.Name):
            callees = [name if func.id == "cls" else func.id]
        elif isinstance(func, ast.Attribute):
            is_super = (isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None) == "super")
            callees = (bases if is_super and func.attr == "__init__"
                       else [func.attr])
        else:
            callees = []
        given = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            given = 10**6
        for callee in callees:
            self.positions[callee] = max(self.positions[callee], given)
            self.keywords.setdefault(callee, set()).update(
                keyword.arg or "*" for keyword in node.keywords)
        self.generic_visit(node)


def unpassed(found: list[Option], root: Path = ROOT) -> list[Option]:
    """The options no call in a reader ``.py`` file passes, skipping the
    callables :data:`ALLOW` keeps for tests."""
    scan = _CallScan()
    for path in reader_files(root):
        if path.suffix == ".py":
            scan.visit(ast.parse(path.read_text()))
    missing = []
    for option in found:
        keywords = scan.keywords.get(option.callee, set())
        if (option.owner in ALLOW or option.param in keywords
                or "*" in keywords or (option.position is not None
                                       and scan.positions[option.callee]
                                       > option.position)):
            continue
        missing.append(option)
    return missing


@pytest.fixture(scope="module")
def option_scan() -> tuple[list[Option], list[Option]]:
    """(every option, the unpassed ones) for the repository."""
    found = options()
    return found, unpassed(found)


def test_every_option_is_passed(option_scan):
    _, missing = option_scan
    dead = [o.key for o in missing if o.key not in OPTION_ALLOW]
    assert not dead, (
        "options no caller outside tests/ passes (delete each with its "
        "branch, or allow-list it with a reason):\n  " + "\n  ".join(dead))


def test_option_allow_list_is_short_and_true(option_scan):
    found, missing = option_scan
    assert len(OPTION_ALLOW) <= MAX_OPTION_ALLOW, (
        f"{len(OPTION_ALLOW)} entries > {MAX_OPTION_ALLOW}")
    assert all(reason.strip() for reason in OPTION_ALLOW.values())
    known = {o.key for o in found}
    stale = sorted(key for key in OPTION_ALLOW if key not in known)
    assert not stale, f"allow-list entries that name no option: {stale}"
    unpassed_keys = {o.key for o in missing}
    passed = sorted(key for key in OPTION_ALLOW if key not in unpassed_keys)
    assert not passed, f"allow-list entries a caller now passes: {passed}"


def test_guard_flags_a_planted_option(tmp_path):
    """The option scan itself: keyword, position, a splat, ``cls(...)``
    and a subclass's ``super().__init__`` pass an option; a call to
    another name, a private callable and a bound ``self`` do not
    count."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
        "def g(x=0):\n    pass\n\n\n"
        "def _private(y=0):\n    pass\n\n\n"
        "class Base:\n"
        "    def __init__(self, size=1, name=''):\n        pass\n\n"
        "    def run(self, fast=False, depth=2):\n        pass\n\n"
        "    @classmethod\n"
        "    def make(cls, n=1):\n        return cls(name=n)\n\n\n"
        "class Child(Base):\n"
        "    def __init__(self):\n        super().__init__(4)\n")
    (package / "main.py").write_text(
        "from .mod import Base, f, g\n\n"
        "f(0, c=5)\nf(0, 1)\nh(d=1)\nBase().run(*[])\n"
        "g(**{})\n")
    keys = {o.key for o in unpassed(options(package), tmp_path)}
    assert keys == {"mod.f(d=)", "mod.Base.make(n=)"}


"""Smoke matrix: every choice and switch the CLI declares runs.

The rows come from :func:`repro.cli.build_parser`, not from a hand
list.  For each subcommand the matrix walks the parser's actions and
emits one in-process ``main([...])`` row per ``choices=`` value and per
``store_true`` flag, on top of the command's tiny run in ``BASE``; a new
choice or switch therefore gets a row without anyone adding one.

* A flag that only acts together with another runs with that partner
  (``PARTNERS``).  Where the flag alone is a documented usage error,
  that is a row too, expecting exit 2.  This is how ``--shards`` x
  ``--backend`` is covered: ``--shards 2`` with each backend, and each
  backend alone.
* A choice whose branch depends on another option runs each value with
  each of that option's shapes (``CROSS``: ``loadgen --mode`` under
  closed-loop, open-loop and sweep load).
* Rows that need a server or a follow loop run under the bound their
  ``BOUNDED`` entry states, with its reason, as ``test_consumers.ALLOW``
  does for names; the list is capped at ``MAX_BOUNDED``.

Every row asserts its exit code (0, or the documented 2) and opts into
``no_leaked_resources``: no child process, ``/dev/shm`` entry or thread
is left behind.  ``experiment`` rows run every paper artifact at
``--scale 0.05``; fig12a, fig12b and tab5 ignore ``--scale`` and take
most of the matrix's time.
"""

from __future__ import annotations

import argparse
from typing import NamedTuple

import pytest

from repro.cli import build_parser, main

#: Twin widths for every row that builds a model.
TINY = ["--scale", "0.05", "--features", "8", "--hidden", "8"]

#: Per subcommand: (its positionals by dest, its options) for one tiny
#: run.  ``{events}``, ``{rules}`` and ``{url}`` are filled per row from
#: the fixtures of the same names.
BASE: dict[str, tuple[dict[str, str], list[str]]] = {
    "train": ({"dataset": "products"}, [*TINY, "--epochs", "1"]),
    "bench-sharded": ({"dataset": "products"}, [
        *TINY, "--epochs", "1", "--shards", "1", "2", "--backend", "serial"]),
    "profile": ({}, [
        "--vertices", "200", "--epochs", "1", "--features", "8",
        "--hidden", "8"]),
    "top": ({"path": "{events}"}, []),
    "serve": ({"dataset": "products"}, [*TINY, "--epochs", "0"]),
    "loadgen": ({"url": "{url}"}, ["--vertices", "16", "--concurrency", "2"]),
    # fig14 is the one artifact --training changes.
    "experiment": ({"name": "fig14"}, ["--scale", "0.05"]),
}

#: (command, flag) -> (the partner arguments that make the flag act, the
#: exit code of the flag alone where that is a documented usage error,
#: else None: alone, the flag is accepted and idle).
PARTNERS: dict[tuple[str, str], tuple[list[str], int | None]] = {
    ("train", "--backend"): (["--shards", "2"], 2),
    ("train", "--partition"): (["--shards", "2"], None),
    ("top", "--check"): (["--rules", "{rules}"], 2),
}

#: (command, flag) -> the other shapes each of the flag's values runs in.
CROSS: dict[tuple[str, str], list[list[str]]] = {
    ("loadgen", "--mode"): [["--rate", "40"], ["--sweep", "1", "2"]],
}

#: (command, flag, or None for every row of the command) -> (why the row
#: cannot run as it stands, the arguments that bound it).
BOUNDED: dict[tuple[str, str | None], tuple[str, list[str]]] = {
    ("serve", None): (
        "binds an HTTP server and serves until interrupted: an "
        "ephemeral port, 0.2 s of serving",
        ["--port", "0", "--duration", "0.2"]),
    ("top", "--follow"): (
        "refreshes until interrupted: one frame, no wait",
        ["--refresh-limit", "1", "--interval", "0"]),
    ("loadgen", None): (
        "drives a running server: the `url` fixture's tiny service, "
        "0.2 s of load per level",
        ["--duration", "0.2"]),
}

MAX_BOUNDED = 4


class Row(NamedTuple):
    id: str
    argv: list[str]
    code: int


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: parser}`` for every subcommand ``parser`` declares."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _argv(command: str, positionals: dict, options: list, flag=None) -> list:
    """The row's argv, with the bounds of its command and its flag."""
    keys = [(command, None)] + ([(command, flag)] if flag else [])
    bounds = [arg for key in keys for arg in BOUNDED.get(key, ("", []))[1]]
    return [command, *positionals.values(), *options, *bounds]


def rows(parser: argparse.ArgumentParser) -> list[Row]:
    found = []
    for command, sub in subcommands(parser).items():
        positionals, options = BASE[command]
        for action in sub._actions:
            if action.choices is None and not isinstance(
                    action, argparse._StoreTrueAction):
                continue
            if not action.option_strings:  # a positional's choices
                for value in action.choices:
                    found.append(Row(f"{command}:{value}", _argv(
                        command, {**positionals, action.dest: value},
                        options), 0))
                continue
            flag = action.option_strings[-1]
            partner, alone = PARTNERS.get((command, flag), ([], None))
            for value in [[v] for v in action.choices or ()] or [[]]:
                name = f"{command}:{'='.join([flag, *value])}"
                given = [*options, flag, *value]
                found.append(Row(name, _argv(
                    command, positionals, [*given, *partner], flag), 0))
                if alone is not None:
                    found.append(Row(f"{name}:alone", _argv(
                        command, positionals, given, flag), alone))
                for shape in CROSS.get((command, flag), []):
                    found.append(Row(f"{name}:{shape[0]}", _argv(
                        command, positionals, [*given, *shape], flag), 0))
        # The tiny run itself, unless a choice row already is it.
        found.append(Row(command, _argv(command, positionals, options), 0))
    unique: dict[tuple, Row] = {}
    for row in found:
        unique.setdefault(tuple(row.argv), row)
    return list(unique.values())


ROWS = rows(build_parser())


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as stop:  # argparse usage errors
        return stop.code


@pytest.fixture
def events(tmp_path) -> str:
    """The epoch-event JSONL of a one-epoch tiny ``train``."""
    path = str(tmp_path / "run.jsonl")
    assert main(["train", "products", *TINY, "--epochs", "1",
                 "--events", path]) == 0
    return path


@pytest.fixture
def rules(tmp_path) -> str:
    """A rules file whose one rule never fires."""
    path = tmp_path / "rules.txt"
    path.write_text("loss_cap: train.loss < 1e9\n")
    return str(path)


@pytest.fixture
def url():
    """A tiny untrained service on an ephemeral port, stopped after the row."""
    from repro.graphs import load_dataset, synthetic_features
    from repro.nn import build_model
    from repro.serve import InferenceService, ServingServer

    graph = load_dataset("products", scale=0.05)
    features = synthetic_features(graph, 8)
    service = InferenceService(graph, features, build_model("gcn", 8, 8, 4))
    with ServingServer(service, port=0) as server:
        yield server.url


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row, request, no_leaked_resources, capsys):
    # Fixtures requested after no_leaked_resources are torn down before
    # its check runs, so the url fixture's server is stopped by then.
    argv = [
        request.getfixturevalue(arg[1:-1]) if arg.startswith("{") else arg
        for arg in row.argv
    ]
    code = _exit_code(argv)
    captured = capsys.readouterr()
    assert code == row.code, f"{argv}\n{captured.out}\n{captured.err}"


def test_tables_name_what_the_parser_declares():
    """Every table entry names a real command and flag, so none goes
    stale; every command has a tiny run; the bounded list stays short
    and every entry gives its reason."""
    commands = subcommands(build_parser())
    assert set(BASE) == set(commands)
    flags = {
        command: {o for action in sub._actions for o in action.option_strings}
        for command, sub in commands.items()
    }
    for command, flag in [*PARTNERS, *CROSS, *BOUNDED]:
        assert flag is None or flag in flags[command], (command, flag)
    assert len(BOUNDED) <= MAX_BOUNDED
    assert all(reason.strip() for reason, _ in BOUNDED.values())


def test_every_choice_and_switch_has_a_row():
    ids = {row.id for row in ROWS}
    for command, sub in subcommands(build_parser()).items():
        for action in sub._actions:
            if isinstance(action, argparse._StoreTrueAction):
                assert f"{command}:{action.option_strings[-1]}" in ids
            for value in action.choices or ():
                flag = action.option_strings[-1:]
                assert f"{command}:{'='.join([*flag, value])}" in ids

"""Smoke matrix: every choice, switch and number the CLI declares runs,
and acts.

The rows come from :func:`repro.cli.build_parser`, not from a hand
list.  For each subcommand the matrix walks the parser's actions and
emits one in-process ``main([...])`` row per ``choices=`` value, per
``store_true`` flag and per numeric flag (one of ``cli._number``'s
parsers, or ``type=int`` / ``float``), on top of the command's tiny run
in ``BASE``; a new choice, switch or number therefore gets a row
without anyone adding one.  A numeric row moves its flag off the value
the tiny run uses (:func:`other_value`; ``NUMBER_VALUES`` where the
rule cannot pick a value that runs).

* A flag that only acts together with another runs with that partner
  (``PARTNERS``).  Where the flag without it is a documented usage
  error, that is a row too (``:alone``), expecting exit 2.  This is how
  ``--shards`` x ``--backend`` is covered: ``--shards 2`` with each
  backend, and each backend alone.
* A choice whose branch depends on another option runs each value with
  each of that option's shapes (``CROSS``: ``loadgen --mode`` under
  closed-loop, open-loop and sweep load).
* Rows that need a server or a follow loop run under the bound their
  ``BOUNDED`` entry states, with its reason, as ``test_consumers.ALLOW``
  does for names; the list is capped at ``MAX_BOUNDED``.  A number the
  bound of a whole command sets gets no row of its own.

Every row asserts its exit code (0, 1 where its partner makes a rule
fire, or the documented 2) and opts into ``no_leaked_resources``: no
child process, ``/dev/shm`` entry or thread is left behind.

**Effect.**  Exiting 0 proves that a flag runs, not that it acts.  A
row is also compared with the run it differs from only by its flag: the
command's tiny run plus the flag's partner or shape.  They are compared
on what each *produced* — exit code, stdout, stderr and log records,
with measured times, rates, ports and URLs masked (``MASKS``), plus any
file the run wrote.  A row equal to that run fails, unless it is the
one value of its choice flag that reproduces it (the default, spelled
out), or ``NO_EFFECT`` names it with a reason (capped at
``MAX_NO_EFFECT``; a named row that starts to differ fails, so the list
stays true).  No row writes a record file, and ``repro profile`` prints
only the host and numerics half of the run manifest, so the manifest's
``argv`` / ``config`` (every parsed value, used or not) and its time
never make two runs differ.

``experiment`` rows run every paper artifact at ``--scale 0.05`` (the
simulated ones on 0.015 twins); their shape criteria are checked by
``tests/bench/test_run_all.py``.
"""

from __future__ import annotations

import argparse
import re
from typing import NamedTuple

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.graphs import load_dataset, synthetic_features
from repro.nn import build_model
from repro.serve import InferenceService, ServingServer

#: Twin widths for every row that builds a model.
TINY = ["--scale", "0.05", "--features", "8", "--hidden", "8"]

#: Per subcommand: (its positionals by dest, its options) for one tiny
#: run.  ``{events}``, ``{firing}`` and ``{url}`` are filled per row
#: from the fixtures of the same names.  ``train`` and ``serve`` take a
#: step, so the step size shows in a loss.
BASE: dict[str, tuple[dict[str, str], list[str]]] = {
    "train": ({"dataset": "products"}, [*TINY, "--epochs", "2"]),
    "bench-sharded": ({"dataset": "products"}, [
        *TINY, "--epochs", "1", "--shards", "1", "2", "--backend", "serial"]),
    "profile": ({}, [
        "--vertices", "200", "--epochs", "1", "--features", "8",
        "--hidden", "8"]),
    "top": ({"path": "{events}"}, []),
    "serve": ({"dataset": "products"}, [*TINY, "--epochs", "1"]),
    "loadgen": ({"url": "{url}"}, ["--vertices", "16"]),
    "experiment": ({"name": "tab3"}, ["--scale", "0.05"]),
}


class Partner(NamedTuple):
    args: list  # what makes the flag act
    code: int = 0  # the row's exit code with them
    alone: list | None = None  # what the flag lacks them with, where
    # that is a documented usage error (exit 2); None: no such row


#: (command, flag) -> its partner.
PARTNERS: dict[tuple[str, str], Partner] = {
    ("train", "--backend"): Partner(["--shards", "2"], alone=[]),
    ("train", "--partition"): Partner(["--shards", "2"], alone=[]),
    ("top", "--check"): Partner(["--rules", "{firing}"], code=1, alone=[]),
    ("top", "--interval"): Partner(["--follow"], alone=[]),
    ("top", "--refresh-limit"): Partner(["--follow"], alone=[]),
    ("serve", "--check"): Partner([], alone=["--no-rules"]),
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

#: (command, flag) -> the value of its numeric row, where
#: :func:`other_value`'s pick would not run.
NUMBER_VALUES: dict[tuple[str, str], list[str]] = {
    ("loadgen", "--rate"): ["40"],  # 0.2 s at 2/s may send nothing
}

#: Row id, or ``command:--flag`` for each of a flag's rows -> why the
#: row shows nothing its comparison run does not.  An entry whose row
#: starts to differ fails as stale.
NO_EFFECT: dict[str, str] = {
    "top:--interval": (
        "paces --follow's frames, and a bounded run of one frame never "
        "waits"),
    "serve:--check": (
        "acts on the exit status once a rule fires; the rules read the "
        "live registry, but 0.2 s of serving with no traffic gives them "
        "nothing to read"),
    "loadgen:--seed": (
        "picks which vertices are asked; the output is the server's "
        "timing, masked"),
    "loadgen:--vertices": (
        "bounds which vertices are asked; the output is the server's "
        "timing, masked"),
    "loadgen:--timeout": (
        "bounds a client's wait, and the tiny service answers within it"),
}

MAX_NO_EFFECT = 6

#: What a run produces that is measured, not computed: (pattern,
#: replacement), applied in order.
MASKS = [
    (re.compile(r"https?://[^\s/]+"), "<url>"),
    (re.compile(r"\b\d+(?:\.\d+)?\s?(?:qps|epochs/s)"), "<rate>"),
    (re.compile(r"\b\d+(?:\.\d+)?(?:e[-+]?\d+)?\s?(?:ms|us|s)\b"), "<t>"),
    (re.compile(r"\b\d+ (requests|evaluation\(s\))"), r"<n> \1"),
    (re.compile(r"\b(\d{3}):\d+"), r"\1:<n>"),
    (re.compile(r"(efficiency|wall_time_s)(\s+)\S+"), r"\1\2<t>"),
    # The attribution table's wall-ms column.
    (re.compile(r"^(kernel\S*\s+\S+\s+\S+%\s+)\S+", re.M), r"\1<t>"),
    # A masked number's width moves the columns after it.
    (re.compile(r"[ \t]+"), " "),
]


class Row(NamedTuple):
    id: str
    argv: list[str]
    code: int
    base: tuple | None = None  # the run it must differ from
    siblings: tuple = ()  # the same row with each other choice value


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: parser}`` for every subcommand ``parser`` declares."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _argv(command: str, positionals: dict, options: list) -> list:
    """The row's argv, with the bounds of its command and of each flag
    it gives, ahead of the options (so a value the row gives wins)."""
    keys = [(command, None), *((command, arg) for arg in options)]
    bounds = [arg for key in keys for arg in BOUNDED.get(key, ("", []))[1]]
    return [command, *positionals.values(), *bounds, *options]


def _name(command: str, flag: str, value: list[str]) -> str:
    return f"{command}:{flag}" + (f"={','.join(value)}" if value else "")


def is_number(action: argparse.Action) -> bool:
    parse = action.type
    return parse in (int, float) or getattr(
        parse, "__qualname__", "").startswith(f"{cli._number.__name__}.")


def other_value(action: argparse.Action, current) -> list[str]:
    """A value of a numeric flag other than ``current``, as argv."""
    if action.type is cli._port:
        return ["0"]
    if isinstance(current, list):
        return [str(v) for v in [*current, current[-1] + 1 if current else 2]]
    if current is None:
        return ["2"]
    if isinstance(current, float):
        return [str(current * 2 or 0.5)]
    return [str(current + 1)]


def rows(parser: argparse.ArgumentParser) -> list[Row]:
    found = []
    for command, sub in subcommands(parser).items():
        positionals, options = BASE[command]
        pinned = set(BOUNDED.get((command, None), ("", []))[1])
        current = sub.parse_args([*positionals.values(), *options])
        base = tuple(_argv(command, positionals, options))
        for action in sub._actions:
            number = is_number(action) and action.option_strings and not (
                pinned & set(action.option_strings))
            if action.choices is None and not number and not isinstance(
                    action, argparse._StoreTrueAction):
                continue
            if not action.option_strings:  # a positional's choices
                variants = [_argv(command, {**positionals, action.dest: v},
                                  options) for v in action.choices]
                for value, argv in zip(action.choices, variants):
                    found.append(Row(f"{command}:{value}", argv, 0, base,
                                     tuple(map(tuple, variants))))
                continue
            flag = action.option_strings[-1]
            partner = PARTNERS.get((command, flag), Partner([]))
            if number:
                values = [NUMBER_VALUES.get((command, flag)) or other_value(
                    action, getattr(current, action.dest))]
            else:
                values = [[v] for v in action.choices or ()] or [[]]
            for shape in [partner.args, *CROSS.get((command, flag), [])]:
                variants = [_argv(command, positionals,
                                  [*options, flag, *value, *shape])
                            for value in values]
                compared = tuple(_argv(command, positionals, [*options, *shape]))
                for value, argv in zip(values, variants):
                    name = _name(command, flag, value)
                    if shape is not partner.args:
                        name += f":{shape[0]}"
                    siblings = tuple(map(tuple, variants)) if action.choices else ()
                    code = partner.code if shape is partner.args else 0
                    found.append(Row(name, argv, code, compared, siblings))
            if partner.alone is not None:
                for value in values:
                    name = f"{_name(command, flag, value)}:alone"
                    found.append(Row(name, _argv(command, positionals, [
                        *options, flag, *value, *partner.alone]), 2))
        # The tiny run itself, unless a choice row already is it.
        found.append(Row(command, list(base), 0))
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


def mask(text: str, names: dict[str, str]) -> str:
    """``text`` with each fixture value named and measurements masked."""
    for value, name in names.items():
        text = text.replace(value, name)
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return text


#: Template argv -> what that run produced, for every run the matrix
#: has made this session.
_PRODUCED: dict[tuple, tuple] = {}


@pytest.fixture
def produce(request, capsys, caplog, tmp_path):
    """``produce(template argv)``: what the run produced, made once per
    session: (exit code, masked stdout, stderr and log text, and each
    file it wrote under ``tmp_path``)."""
    def run(template) -> tuple:
        template = tuple(template)
        if template not in _PRODUCED:
            names = {}
            argv = []
            for arg in template:
                if arg.startswith("{"):
                    value = str(request.getfixturevalue(arg[1:-1]))
                    names[value] = arg
                    arg = value
                argv.append(arg)
            names[str(tmp_path)] = "<tmp>"
            before = set(tmp_path.iterdir())
            capsys.readouterr()
            caplog.clear()
            code = _exit_code(argv)
            captured = capsys.readouterr()
            written = tuple(
                (path.name, mask(path.read_text(errors="replace"), names))
                for path in sorted(set(tmp_path.iterdir()) - before)
                if path.is_file())
            _PRODUCED[template] = (code, *(mask(text, names) for text in (
                captured.out, captured.err, caplog.text)), written)
        return _PRODUCED[template]

    return run


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row, no_leaked_resources, produce):
    # Fixtures requested after no_leaked_resources are torn down before
    # its check runs, so the url fixture's server is stopped by then.
    produced = produce(row.argv)
    assert produced[0] == row.code, "\n".join(map(str, produced))
    if row.base is None:
        return
    base = produce(row.base)
    if row.id in NO_EFFECT or row.id.split("=")[0] in NO_EFFECT:
        assert produced == base, f"{row.id} acts: its NO_EFFECT entry is stale"
    elif produced == base:
        # One value of a choice may be the default, spelled out.
        others = [s for s in row.siblings if s != tuple(row.argv)]
        assert others and all(produce(s) != base for s in others), (
            f"{row.id} produced exactly what {' '.join(row.base)} did:\n"
            + "\n".join(map(str, produced)))


@pytest.fixture
def events(tmp_path) -> str:
    """The epoch-event JSONL of a one-epoch tiny ``train``."""
    path = str(tmp_path / "run.jsonl")
    assert main(["train", "products", *TINY, "--epochs", "1",
                 "--events", path]) == 0
    return path


@pytest.fixture
def firing(tmp_path) -> str:
    """A rules file whose one rule fires on any training run."""
    path = tmp_path / "rules.txt"
    path.write_text("loss_floor: train.loss < 1e-9\n")
    return str(path)


@pytest.fixture
def url():
    """A tiny untrained service on an ephemeral port, stopped after the row."""
    graph = load_dataset("products", scale=0.05)
    features = synthetic_features(graph, 8)
    service = InferenceService(graph, features, build_model("gcn", 8, 8, 4))
    with ServingServer(service, port=0) as server:
        yield server.url


def test_tables_name_what_the_parser_declares():
    """Every table entry names a real command and flag, so none goes
    stale; every command has a tiny run; the bounded and no-effect lists
    stay short, give their reasons and name real rows."""
    commands = subcommands(build_parser())
    assert set(BASE) == set(commands)
    flags = {
        command: {o for action in sub._actions for o in action.option_strings}
        for command, sub in commands.items()
    }
    for command, flag in [*PARTNERS, *CROSS, *BOUNDED, *NUMBER_VALUES]:
        assert flag is None or flag in flags[command], (command, flag)
    assert len(BOUNDED) <= MAX_BOUNDED
    assert all(reason.strip() for reason, _ in BOUNDED.values())
    assert len(NO_EFFECT) <= MAX_NO_EFFECT
    assert all(reason.strip() for reason in NO_EFFECT.values())
    compared = {row.id for row in ROWS if row.base is not None}
    for key in NO_EFFECT:
        assert any(i == key or i.startswith(f"{key}=") for i in compared), key


def test_every_choice_switch_and_number_has_a_row():
    row_ids = {row.id for row in ROWS}
    for command, sub in subcommands(build_parser()).items():
        pinned = set(BOUNDED.get((command, None), ("", []))[1])
        for action in sub._actions:
            if isinstance(action, argparse._StoreTrueAction):
                assert f"{command}:{action.option_strings[-1]}" in row_ids
            for value in action.choices or ():
                flag = action.option_strings[-1:]
                assert f"{command}:{'='.join([*flag, value])}" in row_ids
            if is_number(action) and action.option_strings and not (
                    pinned & set(action.option_strings)):
                flag = action.option_strings[-1]
                assert any(i.startswith(f"{command}:{flag}=") for i in row_ids)


def test_masks_hide_only_measurements():
    """A loss, a count and a width survive; times, rates, ports and
    measured request counts do not."""
    names = {"/tmp/x/run.jsonl": "{events}"}
    text = ("epoch    0  loss 2.0989  acc 0.088  0.002s/epoch\n"
            "serving inference on http://127.0.0.1:40763 (/v1/predict)\n"
            "  934 requests in 0.20s = 4670.0 qps, 0 error(s)\n"
            "  status  200:934\n"
            "1 shards throughput   2834.596 epochs/s\n"
            "2 shards efficiency      0.398 x\n"
            "kernel.basic         memory-bound    95.1%      0.28     0.053\n"
            "slo: ok (4 rule(s), 3 evaluation(s), no alerts)\n"
            "tail /tmp/x/run.jsonl: 8 classes, halo 0.01 MiB")
    assert mask(text, names).splitlines() == [
        "epoch 0 loss 2.0989 acc 0.088 <t>/epoch",
        "serving inference on <url> (/v1/predict)",
        " <n> requests in <t> = <rate>, 0 error(s)",
        " status 200:<n>",
        "1 shards throughput <rate>",
        "2 shards efficiency <t> x",
        "kernel.basic memory-bound 95.1% <t> 0.053",
        "slo: ok (4 rule(s), <n> evaluation(s), no alerts)",
        "tail {events}: 8 classes, halo 0.01 MiB",
    ]

#!/usr/bin/env python3
"""The benchmark's one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints every metric by name with its unit, then
one JSON object on the last line (the contract in ``BENCHMARK.json``):
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits 1 when an output check fails.

Without ``--workload`` it runs every workload -- ``--repeats`` untraced
runs on consecutive seeds, then one traced run -- and leaves
``manifest.json``, ``metrics.jsonl``, ``summary.json`` and
``trace.jsonl`` in ``perfbench/results/<utc>-<sha>/``.  ``--smoke`` does
the same on small twins in a few seconds.

Either way every run is measured in a fresh child process, and this
process returns only when that child and every process it started have
ended (see ``run_child``).
"""

from __future__ import annotations

import os
import sys

#: One BLAS/OpenMP thread per process, decided before numpy is imported:
#: parallelism is the program's (two shard workers, two clients), not
#: the library's.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's modules are imported as ``perfbench.*`` from the root,
# not from this directory, where ``trace.py`` would shadow the standard
# library's ``trace``.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

SMOKE_SCALE = 0.5
SMOKE_SECONDS = 1.0
#: A run that takes longer is killed; the contract allows a run 180 s.
CHILD_TIMEOUT_S = 170
#: How long a helper may outlive the child that started it before it is
#: killed.
ORPHAN_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload, on seeds SEED, SEED+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help=f"scale {SMOKE_SCALE} twins, {SMOKE_SECONDS} s per run")
    parser.add_argument("--out", help="directory for the run's artifacts")
    parser.add_argument("--in-process", action="store_true",
                        help="measure --workload in this process (what the "
                        "command runs as its child)")
    args = parser.parse_args(argv)
    if args.in_process and args.workload is None:
        parser.error("--in-process needs --workload")
    return args


def main(argv: List[str]) -> int:
    args = parse(argv)
    spec = declared()
    if (os.cpu_count() or 1) < 2:
        print("perfbench needs 2 cores: its parallelism is fixed at 2", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if args.in_process:
        return run_one(args, spec)
    adopt_orphans()
    if args.workload is None:
        return run_suite(args, spec, names)
    return run_child(
        child_command(args, args.workload, args.seed, args.trace, args.out),
        capture=False,
    )[0]


# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    try:
        from perfbench import serve, train_full, train_sharded
        from perfbench.common import Run
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    workloads = {
        "train-full": train_full.measure, "train-sharded": train_sharded.measure,
        "serve-cold": serve.measure, "serve-hot": serve.measure,
    }
    if list(workloads) != [w["name"] for w in spec["workloads"]]:
        raise SystemExit("BENCHMARK.json and perfbench/run.py name different workloads")

    run = Run(args.workload, args.seed, args.trace, args.out)
    workloads[args.workload](
        run, args.seconds, **({"scale": SMOKE_SCALE} if args.smoke else {})
    )
    run.write_samples()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(run.metrics) - {
        metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]
    }
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in wanted:
        # Every end-to-end metric is defined on every workload.  A layer
        # a workload never calls did no work there and reads 0.
        value = run.metrics[metric["name"]] if not args.trace else run.metrics.get(
            metric["name"], 0.0
        )
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
        print(f"{metric['name']:38s} {float(value):16.6f} {metric['unit']}")
    for check in run.checks:
        print(f"check {'ok    ' if check['ok'] else 'FAILED'} {check['name']}: "
              f"{check['detail']}")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed, "metrics": metrics,
    }))
    return 0 if run.correct else 1


# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the one that inherits -- and so can wait for --
    whatever its descendants leave behind, instead of init; and leave on
    SIGTERM the way it leaves on SIGINT, through ``run_child``'s clean-up."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def child_command(
    args: argparse.Namespace, workload: str, seed: int, trace: int,
    out: Optional[str],
) -> List[str]:
    return [
        sys.executable, os.path.abspath(__file__), "--in-process",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--out", out] if out else []) + (["--smoke"] if args.smoke else [])


def signal_session(session: int, signum: int) -> None:
    try:
        os.killpg(session, signum)
    except ProcessLookupError:
        pass


def run_child(command: List[str], capture: bool) -> Tuple[int, str, str]:
    """Run ``command``; return once it and every process it started have
    ended, on every way out.

    A helper can outlive the process that started it: multiprocessing's
    resource tracker, which ``ShardedTrainer``'s shared-memory bundle
    brings up, ends only when its parent's last descriptor has closed,
    that is after the parent.  The child leads a session of its own and
    this process adopts its orphans (``adopt_orphans``), so they are
    waited for here -- and killed when they overstay ``ORPHAN_GRACE_S``.

    A run that is cut short gets SIGTERM, not SIGKILL: the child and its
    shard workers die of it, the resource tracker ignores it and removes
    the shared-memory segments they leave in ``/dev/shm``.
    """
    pipe = subprocess.PIPE if capture else None
    child = subprocess.Popen(
        command, stdout=pipe, stderr=pipe, text=True, start_new_session=True
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        signal_session(child.pid, signal.SIGTERM)
        raise
    finally:
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while True:
            try:
                ended, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no descendant is left
            if not ended:
                if time.monotonic() > deadline:
                    signal_session(child.pid, signal.SIGKILL)
                time.sleep(0.002)
    return child.returncode, stdout or "", stderr or ""


def git(*command: str) -> str:
    try:
        return subprocess.run(
            ("git", "-C", ROOT) + command, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def manifest(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    import numpy
    import scipy

    from perfbench import common, serve, train_full, train_sharded

    return {
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "smoke": args.smoke,
        "git_sha": git("rev-parse", "HEAD") or "nogit",
        "git_dirty": bool(git("status", "--porcelain")),
        "host": platform.node(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "parallelism": common.PARALLELISM,
        "thread_pins": THREAD_PINS,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "constants": {
            module.__name__: {
                key: value for key, value in vars(module).items()
                if key.isupper() and isinstance(value, (int, float, str, tuple, dict))
            }
            for module in (common, train_full, train_sharded, serve)
        },
        "benchmark": spec,
    }


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def run_suite(args: argparse.Namespace, spec: Dict[str, Any], names: List[str]) -> int:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    sha = git("rev-parse", "--short", "HEAD") or "nogit"
    out = args.out or os.path.join(HERE, "results", f"{stamp}-{sha}")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "manifest.json"), "w") as handle:
        json.dump(manifest(args, spec), handle, indent=2, default=str)

    summary: Dict[str, Any] = {}
    failed = False
    for name in names:
        runs = [(0, args.seed + i) for i in range(args.repeats)] + [(1, args.seed)]
        results = []
        for trace, seed in runs:
            print(f"[perfbench] {name} seed {seed} trace {trace}", file=sys.stderr)
            code, stdout, stderr = run_child(
                child_command(args, name, seed, trace, out), capture=True
            )
            lines = stdout.strip().splitlines()
            if code != 0 or not lines:
                failed = True
                print(stdout + stderr, file=sys.stderr)
            if lines and lines[-1].startswith("{"):
                results.append((trace, json.loads(lines[-1])))
        summary[name] = summarize(spec, results)
    with open(os.path.join(out, "summary.json"), "w") as handle:
        json.dump({"workloads": summary}, handle, indent=2)
    report(summary)
    print(f"artifacts in {os.path.relpath(out)}")
    return 1 if failed else 0


def summarize(spec: Dict[str, Any], results: List[Any]) -> Dict[str, Any]:
    untraced = [result for trace, result in results if trace == 0]
    traced = [result for trace, result in results if trace == 1]
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in untraced]
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "values": values,
            "median": statistics.median(values) if values else None,
            "spread": spread(values),
        }
    return {
        "correct": bool(results) and all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "end_to_end": end_to_end,
        "per_layer": traced[0]["metrics"] if traced else {},
    }


def report(summary: Dict[str, Any]) -> None:
    for name, row in summary.items():
        print(f"\n== {name}: {'correct' if row['correct'] else 'INCORRECT'}, "
              f"{row['failed']} of {row['attempted']} operations failed")
        for metric, cell in row["end_to_end"].items():
            if cell["median"] is not None:
                print(f"{metric:38s} {cell['median']:16.6f} {cell['unit']:8s} "
                      f"spread {cell['spread']:.3f} over {len(cell['values'])}")
        for metric, cell in row["per_layer"].items():
            print(f"{metric:38s} {cell['value']:16.6f} {cell['unit']}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

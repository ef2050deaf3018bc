"""Mutant runner: every pin must kill the bugs it exists to catch.

    python tests/mutants/run.py

Each entry of :data:`MUTANTS` is a named source patch — a file, a piece
of its text, the text that replaces it — and the pytest files expected
to fail once it is applied.  For each patch the runner copies
:data:`COPIED` (``src/``, ``tests/`` and what they read) into a temporary
directory, applies the patch there and runs
``python -m pytest -p no:cacheprovider <suites>`` with
``PYTHONPATH=<copy>/src`` to the end (no ``-x``).  The working tree is
never edited.

A mutant is **killed** only when pytest exits 1 (a test failed).  Exit
codes 2-5 (interrupted, internal error, usage error, no tests
collected) are runner errors, not kills: a patch that breaks the
import of a test file proves nothing about the test.  Before any mutant
runs, every suite must pass on an unpatched copy.

The runner prints one line per mutant (killed / SURVIVED / ERROR, its
seconds and pytest's summary), then the mutant's *kill set*: the id of
every test that failed or errored under it, one per line.  Tests whose
kill sets and assertions coincide are merge candidates.  It exits 1
naming each mutant that was not killed, and takes no flags.  To run a
candidate, or a mutant against other suites (all of ``tests``, say),
without editing the table, call :func:`run_mutant` from a script.
``tests/test_mutant_table.py`` checks the table itself in tier-1: each
old text occurs exactly once in its file, so a later edit to ``src/``
cannot silently turn a mutant into a no-op.

This directory holds no ``test_*.py`` file, so pytest never collects
it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: What a copy holds: the package, the tests, the paper-plan criteria
#: (the ``run_all`` fixture loads ``benchmarks/run_all.py``), and what
#: ``tests/test_examples.py`` and ``tests/test_consumers.py`` read, so
#: that all of ``tests`` passes in an unpatched copy.
COPIED = ("src", "tests", "benchmarks", "examples", "perfbench", ".github",
          "pyproject.toml")

#: The oracle suites that pin each Graphite technique (§4-5).
ORACLE = "tests/integration/test_kernel_vs_oracle.py"
S1 = (ORACLE, "tests/kernels/test_kernels_match_reference.py")
LANES = (ORACLE, "tests/integration/test_backend_equivalence.py")
S2 = ("tests/kernels/test_fused.py",
      "tests/integration/test_backend_equivalence.py")
S3 = ("tests/kernels/test_compressed.py", ORACLE)
S4 = ("tests/kernels/test_edge_cases.py", "tests/kernels/test_spmm.py",
      "tests/kernels/test_kernels_match_reference.py")
H1 = ("tests/integration/test_variant_equivalence.py",
      "tests/integration/test_property_random_graphs.py")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    suites: Tuple[str, ...]


MUTANTS: Tuple[Mutant, ...] = (
    # --- The oracle suites, one technique at a time ------------
    Mutant(
        "s1-gathers-closed-form", "src/repro/kernels/basic.py",
        "gathers=operator.nnz + n,", "gathers=operator.nnz,", S1,
    ),
    Mutant(
        "s1-prefetch-closed-form", "src/repro/kernels/basic.py",
        "int(ahead.sum() + len(ahead))", "int(ahead.sum())", S1,
    ),
    Mutant(
        "s1-backward-prefetch-degrees", "src/repro/kernels/basic.py",
        "np.diff(operator.matrix.indptr) if transposed else graph.degrees()",
        "graph.degrees()", S1,
    ),
    Mutant(
        "s1-self-term", "src/repro/kernels/segment.py",
        "h[lo : lo + self.num_rows], self.self_factors[:, None], out=out",
        "h[lo : lo + self.num_rows], 0.5 * self.self_factors[:, None], out=out",
        S1,
    ),
    Mutant(
        "s1-transposed-pass", "src/repro/kernels/jit.py",
        "layout = transposed_layout(\n"
        "                    self._layout(tid, graph, False, aggregator)\n"
        "                )",
        "layout = self._layout(tid, graph, False, aggregator)",
        S1,
    ),
    Mutant(
        "lanes-split-boundary", "src/repro/kernels/segment.py",
        "ScaledCSR(matrix, self_factors, self.row_offset + start)",
        "ScaledCSR(matrix, self_factors, self.row_offset)",
        LANES,
    ),
    Mutant(
        "s2-sweep-tail-join", "src/repro/nn/layers.py",
        "n - bounds[-1] < lanes.MIN_SLICE:", "n - bounds[-1] < 0:", S2,
    ),
    Mutant(
        "s2-block-bias", "src/repro/nn/layers.py",
        "        block += bias\n", "        block -= bias\n", S2,
    ),
    Mutant(
        "s3-mask-bit", "src/repro/tensors/compression.py",
        "    nonzero = matrix != 0.0\n", "    nonzero = matrix > 0.0\n", S3,
    ),
    Mutant(
        "s4-permutation-check", "src/repro/graphs/reorder.py",
        "if not is_permutation(order, n):", "if order.shape != (n,):", S4,
    ),
    Mutant(
        "s4-relabel-direction", "src/repro/graphs/reorder.py",
        "new_id[order] = np.arange(n, dtype=np.int64)",
        "new_id[:] = order",
        S4,
    ),
    Mutant(
        "h1-dma-reduce", "src/repro/dma/offload.py",
        "red_op=RedOp.SUM,", "red_op=RedOp.MAX,", H1,
    ),
    # --- The other pins ----------------------------------------------
    Mutant(
        "gradcheck-relu-mask-sign", "src/repro/nn/layers.py",
        "grad_out[lo:hi], h_out[lo:hi] > 0, out=masked[lo:hi]",
        "grad_out[lo:hi], h_out[lo:hi] < 0, out=masked[lo:hi]",
        ("tests/nn/test_gradcheck.py",),
    ),
    Mutant(
        "sharded-backward-phase-order", "src/repro/parallel/sharded.py",
        "for layer in range(num_layers - 1, -1, -1):\n"
        "        yield \"backward_update\"",
        "for layer in range(num_layers):\n"
        "        yield \"backward_update\"",
        ("tests/integration/test_sharded_training.py",),
    ),
    Mutant(
        "served-id-off-by-one", "src/repro/serve/cache.py",
        "row = rows[vertex].copy()", "row = rows[vertex - 1].copy()",
        ("tests/serve/test_service.py",),
    ),
    Mutant(
        "lanes-reassociating-chunks", "src/repro/nn/layers.py",
        "chunks = min(SWEEP_CHUNKS, blocks)",
        "chunks = min(lanes.lane_count(), blocks)",
        ("tests/nn/test_lanes.py",),
    ),
    Mutant(
        "alloc-extra-copy", "src/repro/nn/layers.py",
        "masked = grad_out if in_place else",
        "masked = grad_out.copy() if in_place else",
        ("tests/nn/test_alloc_budget.py",),
    ),
    Mutant(
        "cli-choice-branch-raises", "src/repro/cli.py",
        "    backend = args.backend or \"serial\"\n",
        "    backend = args.backend or \"serial\"\n"
        "    if backend == \"process\":\n"
        "        raise RuntimeError(\"planted\")\n",
        ("tests/test_cli_matrix.py",),
    ),
    Mutant(
        "counters-accept-negative-delta", "src/repro/obs/metrics.py",
        "        if value < 0:\n            raise ValueError(\n"
        "                f\"counter {prefix}",
        "        if value < -1:\n            raise ValueError(\n"
        "                f\"counter {prefix}",
        ("tests/obs/test_metrics.py",),
    ),
    Mutant(
        "rule-fatal-marker", "src/repro/obs/rules.py",
        "fatal = bool(tokens) and tokens[-1] == \"fatal\"",
        "fatal = bool(tokens) and tokens[0] == \"fatal\"",
        ("tests/obs/test_rules.py",),
    ),
    Mutant(
        "partition-tie-goes-last", "src/repro/graphs/partition.py",
        "if score > best:", "if score >= best:",
        ("tests/graphs/test_partition.py",),
    ),
    Mutant(
        "partition-bfs-unstable-sort", "src/repro/graphs/partition.py",
        'np.argsort(-u_degs, kind="stable")', "np.argsort(-u_degs)",
        ("tests/graphs/test_partition.py",),
    ),
    Mutant(
        "cli-lr-unplumbed", "src/repro/cli.py",
        "Adam(model, lr=args.lr), profile_sparsity=True",
        "Adam(model, lr=0.01), profile_sparsity=True",
        ("tests/test_cli_matrix.py",),
    ),
    Mutant(
        "telemetry-rules-without-registry", "src/repro/cli.py",
        "if not (traced or rules is not None or serve_port is not None):",
        "if not (traced or serve_port is not None):",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "jsonl-reads-partial-line", "src/repro/obs/events.py",
        'end = chunk.rfind(b"\\n") + 1', "end = len(chunk)",
        ("tests/obs/test_events.py",),
    ),
    Mutant(
        "manifest-drops-blas", "src/repro/obs/report.py",
        '"blas": _blas(),', '"blas": None,',
        ("tests/obs/test_run_report.py",),
    ),
    Mutant(
        "paper-plan-mkl-bandwidth", "src/repro/perf/machine.py",
        "mkl_bw_efficiency: float = 0.74", "mkl_bw_efficiency: float = 0.95",
        ("tests/bench/test_run_all.py",),
    ),
    # --- One pin per module: the file that claims the code kills it --
    Mutant(
        "adam-no-bias-correction", "src/repro/nn/optim.py",
        "m_hat = m / (1 - self.beta1**self._t)", "m_hat = m",
        ("tests/nn/test_optim.py",),
    ),
    Mutant(
        "trainer-reuse-ignores-features", "src/repro/nn/training.py",
        "                and kept[1] is features\n", "",
        ("tests/nn/test_training.py",),
    ),
    Mutant(
        "model-logits-through-relu", "src/repro/nn/model.py",
        "activation=(k < num_layers - 1),", "activation=(k < num_layers),",
        ("tests/nn/test_model.py",),
    ),
    Mutant(
        "predict-keeps-first-aggregation", "src/repro/nn/model.py",
        "cache.a = None  # Â·h is read by backward only", "pass",
        ("tests/nn/test_alloc_budget.py",),
    ),
    Mutant(
        "factors-whole-edge-array-fp64", "src/repro/nn/aggregate.py",
        "_FACTOR_BLOCK_EDGES = 1 << 16", "_FACTOR_BLOCK_EDGES = 1 << 62",
        ("tests/nn/test_alloc_budget.py",),
    ),
    Mutant(
        "loss-grad-half-label", "src/repro/nn/functional.py",
        "probs[index, picked_labels] -= 1.0", "probs[index, picked_labels] -= 0.5",
        ("tests/nn/test_functional.py",),
    ),
    Mutant(
        "block-mean-drops-self-edge", "src/repro/nn/minibatch.py",
        "weights = 1.0 / np.maximum(counts, 1)[dst_rows]",
        "weights = 1.0 / np.maximum(counts - 1, 1)[dst_rows]",
        ("tests/nn/test_minibatch.py",),
    ),
    Mutant(
        "community-self-edges", "src/repro/graphs/generators.py",
        "np.fill_diagonal(keys, -np.inf)", "np.fill_diagonal(keys, np.inf)",
        ("tests/graphs/test_generators.py",),
    ),
    Mutant(
        "from-edges-keeps-duplicates", "src/repro/graphs/csr.py",
        "np.not_equal(keys[1:], keys[:-1], out=keep[1:])", "keep[1:] = True",
        ("tests/graphs/test_csr.py",),
    ),
    Mutant(
        "csc-permutation-sorted", "src/repro/graphs/csr.py",
        "                csc.data,\n", "                np.sort(csc.data),\n",
        ("tests/graphs/test_csr.py",),
    ),
    Mutant(
        "cost-fused-inference-writes-a", "src/repro/perf/cost_model.py",
        "write_a=training or not variant.fused,", "write_a=True,",
        ("tests/perf/test_cost_model.py",),
    ),
    Mutant(
        "cost-fusion-overlap-residual", "src/repro/perf/cost_model.py",
        "FUSION_OVERLAP_RESIDUAL = 0.08", "FUSION_OVERLAP_RESIDUAL = 0.10",
        ("tests/perf/test_cost_model.py",),
    ),
    Mutant(
        "reuse-hit-at-capacity", "src/repro/perf/reuse.py",
        "np.count_nonzero(self.distances < capacity)",
        "np.count_nonzero(self.distances <= capacity)",
        ("tests/perf/test_reuse.py",),
    ),
    Mutant(
        "topdown-core-bound-skips-frontend", "src/repro/perf/topdown.py",
        "core_bound = max(0.0, 1.0 - retiring - FRONTEND_BOUND - memory_bound)",
        "core_bound = max(0.0, 1.0 - retiring - memory_bound)",
        ("tests/perf/test_topdown.py",),
    ),
    Mutant(
        "topdown-frontend-bound", "src/repro/perf/topdown.py",
        "FRONTEND_BOUND = 0.033", "FRONTEND_BOUND = 0.05",
        ("tests/perf/test_topdown.py",),
    ),
    Mutant(
        "cache-hit-keeps-lru-age", "src/repro/sim/cache.py",
        "            ways.move_to_end(tag)\n            if write:",
        "            if write:",
        ("tests/sim/test_cache.py",),
    ),
    Mutant(
        "dma-output-skips-l2", "src/repro/sim/hierarchy.py",
        "        self.l2[core].install(addr, dirty=True)\n", "",
        ("tests/sim/test_hierarchy.py",),
    ),
    Mutant(
        "refill-outlives-invalidate", "src/repro/serve/server.py",
        "                generation=generation,\n",
        "                generation=None,\n",
        ("tests/serve/test_service.py",),
    ),
    Mutant(
        "batcher-admits-past-max-queue", "src/repro/serve/batcher.py",
        "self._queue.qsize() >= self.max_queue", "self._queue.qsize() > self.max_queue",
        ("tests/serve/test_batcher.py",),
    ),
    Mutant(
        "lane-error-swallowed", "src/repro/lanes.py",
        "    if errors:\n        raise errors[0]", "    if errors:\n        pass",
        ("tests/nn/test_lanes.py",),
    ),
)


def check_table() -> List[str]:
    """What is wrong with :data:`MUTANTS` against the working tree (an
    empty list when nothing is)."""
    problems = []
    names = [mutant.name for mutant in MUTANTS]
    for name in sorted({name for name in names if names.count(name) > 1}):
        problems.append(f"{name}: the name is used twice")
    for mutant in MUTANTS:
        path = ROOT / mutant.file
        if not path.is_file():
            problems.append(f"{mutant.name}: no file {mutant.file}")
            continue
        count = path.read_text().count(mutant.old)
        if count != 1:
            problems.append(
                f"{mutant.name}: old text occurs {count} times in {mutant.file}"
            )
        if mutant.new == mutant.old:
            problems.append(f"{mutant.name}: new text equals old text")
        if not mutant.suites:
            problems.append(f"{mutant.name}: no suite")
        for suite in mutant.suites:
            if not (ROOT / suite).is_file():
                problems.append(f"{mutant.name}: no suite file {suite}")
    return problems


def copy_tree(destination: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, destination / name,
                ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "results"),
            )
        else:
            shutil.copy2(source, destination / name)


def run_pytest(copy: Path, suites) -> Tuple[int, float, str, List[str]]:
    """``(exit code, seconds, summary, kill set)`` of pytest on ``suites``
    in ``copy``: the summary is pytest's last line of output, the kill set
    the id of every test that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         *suites],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = (result.stdout + result.stderr).strip().splitlines() or [""]
    killed = []
    for line in lines:
        # ``FAILED <id> - <reason>``; a captured log line reads
        # ``ERROR    <logger>...``, with more than one space.
        verdict, _, rest = line.partition(" ")
        if verdict in ("FAILED", "ERROR") and rest[:1] not in ("", " "):
            killed.append(rest.split(" - ")[0])
    return (result.returncode, time.perf_counter() - start,
            lines[-1][:120], killed)


def run_mutant(mutant: Mutant, suites=None) -> Tuple[int, float, str, List[str]]:
    """Run ``suites`` (the mutant's own by default) with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        return run_pytest(copy, suites or mutant.suites)


def main() -> int:
    problems = check_table()
    if problems:
        for problem in problems:
            print(f"table: {problem}", file=sys.stderr)
        return 1
    suites = sorted({suite for mutant in MUTANTS for suite in mutant.suites})
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        copy_tree(Path(tmp))
        code, seconds, last, _ = run_pytest(Path(tmp), suites)
    print(f"baseline: {len(suites)} suites, exit {code} in {seconds:.1f} s: {last}")
    if code != 0:
        print("the suites must pass on the unpatched tree", file=sys.stderr)
        return 1
    failed = []
    for mutant in MUTANTS:
        code, seconds, last, killed = run_mutant(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
        print(f"{mutant.name:34s} {verdict:10s} {seconds:6.1f} s  {last}")
        for test_id in killed:
            print(f"    {test_id}")
        if code != 1:
            failed.append(f"{mutant.name} ({verdict})")
    total = len(MUTANTS)
    print(f"{total - len(failed)} of {total} mutants killed")
    if failed:
        print("not killed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Regenerate every paper artifact: EXPERIMENTS.md + BENCH_results.json.

Usage::

    python benchmarks/run_all.py [output.md] [--json BENCH_results.json]
                                 [--scale 0.5]

Runs every entry of :data:`repro.bench.figures.PLAN` at ``--scale`` and
writes (1) a markdown report with the measured value next to the
published one for every row, and (2) a consolidated machine-readable
JSON document: the run's manifest (``repro.obs.manifest``), every
experiment's rows with their paper values, and a summary.  It then checks
the shape criteria of ``benchmarks/criteria.py`` and exits 1, naming
every row that fails.  EXPERIMENTS.md is this script's output at the
default scale, byte for byte.
"""

import argparse
import dataclasses
import sys
import time

import criteria
from repro.bench.figures import PLAN, SOFTWARE_SCALE, BenchContext
from repro.obs import manifest, write_json

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python benchmarks/run_all.py``.  Every table and figure of
the paper's evaluation, regenerated on the scaled dataset twins (see
DESIGN.md for the substitution rationale).  ``ratio`` is measured/paper;
1.00 is an exact reproduction.  Shape criteria (who wins, orderings,
crossovers, knees) are the rows of ``benchmarks/criteria.py``, checked
by every run of ``run_all.py`` (exit 1 names each failed row); this
file records the raw numbers.

Caveats recorded up front:

* absolute magnitudes are modeled, not measured on silicon — only
  relative numbers (speedups, shares, reductions) are comparable;
* the twins are ~1000x smaller than the paper's graphs; cache capacities
  are scaled by the footprint ratio with a floor of a few adjacency
  lists (``repro.perf.cost_model.scaled_capacity_vectors``);
* known deviations and their causes are listed at the bottom.
"""

FOOTER = """
## Known deviations

* **fig2 sampling share** measures 0.8-0.85 vs the paper's 0.89-0.94: the
  twins' tiny mini-batches amortize per-batch overheads differently.  The
  two shape claims (sampling dominates; epoch time falls with batch size)
  hold.
* **fig11b combined (training)** lands ~8-12% below the paper: the twin
  backward pass is modeled (2 GEMMs + transposed gather) and slightly
  heavier relative to forward than the paper's measured epochs.
* **fig11b/fig12b locality rows** overshoot on products and undershoot on
  papers/twitter by up to ~25%: the community-structure twins approximate,
  not replicate, each real graph's reuse profile.  The headline ordering
  (products gains most; pre-localized graphs gain least) holds everywhere.
* **fig16** falls more steeply from 8->32 entries than the paper (0.29 vs
  0.49 at 32) but reproduces the knee: 64 entries buy almost nothing over
  32, the paper's sizing argument.
* **sec7.3.2 stall fractions** are heuristic in both directions (the
  paper's come from VTune, ours from the timing law); the directional
  claims (L2 miss rate collapses, stalls shrink) hold.
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument(
        "--json", default="BENCH_results.json", metavar="FILE",
        help="consolidated machine-readable results ('' to skip)",
    )
    parser.add_argument("--scale", type=float, default=SOFTWARE_SCALE)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    run = manifest("run_all", argv, vars(args))

    start = time.time()
    ctx = BenchContext(scale=args.scale)
    sections = []
    results = []
    for key, (title, call) in PLAN.items():
        experiment = call(ctx)
        print(f"[{time.time() - start:6.1f}s] {experiment.experiment_id}: {title}")
        sections.append(
            "\n".join(
                [f"## {experiment.experiment_id} — {title}", "", "```",
                 experiment.render(), "```"]
            )
        )
        results.append((key, title, experiment))

    elapsed = time.time() - start
    with open(args.output, "w") as handle:
        handle.write(HEADER + "\n" + "\n\n".join(sections) + "\n" + FOOTER)
    print(f"wrote {args.output} in {elapsed:.1f}s")

    if args.json:
        experiments = [
            {"key": key, "run_title": title, **dataclasses.asdict(experiment)}
            for key, title, experiment in results
        ]
        rows = [row for _, _, experiment in results for row in experiment.rows]
        deviations = [
            deviation for _, _, experiment in results
            if (deviation := experiment.max_paper_deviation()) is not None
        ]
        write_json(args.json, {
            "manifest": run,
            "experiments": experiments,
            "summary": {
                "elapsed_s": elapsed,
                "experiments": len(experiments),
                "rows": len(rows),
                "rows_with_paper": sum(row.paper is not None for row in rows),
                "max_paper_deviation": max(deviations, default=None),
            },
        })
        print(f"wrote {args.json} ({len(rows)} rows)")

    failures = criteria.failed({key: exp for key, _, exp in results}, args.scale)
    checked = len(criteria.applicable(args.scale))
    print(f"criteria: {checked - len(failures)} of {checked} hold "
          f"at scale {args.scale}")
    for name in failures:
        print(f"FAILED {name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

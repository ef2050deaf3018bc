"""Shape criteria of the paper plane: one named predicate per claim.

Each row reads the :class:`repro.bench.harness.Experiment` of one key of
:data:`repro.bench.figures.PLAN` and states a shape the paper reports
(who wins, orderings, crossovers, knees, which rows a table carries).
``benchmarks/run_all.py`` evaluates the whole table after every run and
exits 1, naming the rows that fail.

A check is called as ``check(v, exp)``: ``v`` maps each row label to
its measured value, ``exp`` is the experiment itself.  A check that
reads a label the experiment lacks fails.

Every row holds at every scale the plan is run at (0.25 in the test
suite, 0.5 for EXPERIMENTS.md), except the ``document_only`` rows: the
bounds on the deviation from the published values, which widen as the
twins shrink (fig13 reads 0.66 at scale 0.25), apply only at the scale
of the document, ``figures.SOFTWARE_SCALE``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple

from repro.bench.figures import SOFTWARE_SCALE
from repro.bench.harness import Experiment

GRAPHS = ("products", "wikipedia", "papers", "twitter")
#: The two graphs of the trace-driven (hardware) evaluation.
HW_GRAPHS = ("products", "wikipedia")
SPARSITIES = (10, 30, 50, 70, 90)
SOFTWARE = ("mkl", "basic", "fusion", "compression", "combined")


class Criterion(NamedTuple):
    key: str
    name: str
    check: Callable[[Dict[str, float], Experiment], bool]
    document_only: bool = False


def _ascending(v: Dict[str, float], labels) -> bool:
    seq = [v[label] for label in labels]
    return all(b >= a for a, b in zip(seq, seq[1:]))


def _carries(exp: Experiment, labels) -> bool:
    """Every label is a row, and each row carries its paper value."""
    paper = {row.label: row.paper for row in exp.rows}
    return all(paper[label] is not None for label in labels)


def _locality_gain(v: Dict[str, float], name: str) -> float:
    return v[f"{name} c-locality"] / v[f"{name} combined"]


def _software_inference(key: str) -> List[Criterion]:
    return [
        Criterion(key, "mkl loses to DistGNN, basic beats it",
                  lambda v, e: all(v[f"{g} mkl"] < 1.0 < v[f"{g} basic"]
                                   for g in GRAPHS)),
        Criterion(key, "combined beats every other variant",
                  lambda v, e: all(v[f"{g} combined"] > max(
                      v[f"{g} {s}"] for s in SOFTWARE if s != "combined")
                      for g in GRAPHS)),
        Criterion(key, "combined beats DistGNN by more than 1.4x",
                  lambda v, e: all(v[f"{g} combined"] > 1.4 for g in GRAPHS)),
        Criterion(key, "c-locality is a training-only variant",
                  lambda v, e: not any("c-locality" in r.label for r in e.rows)),
        Criterion(key, "paper deviation below 0.45",
                  lambda v, e: e.max_paper_deviation() < 0.45,
                  document_only=True),
    ]


def _software_training(key: str) -> List[Criterion]:
    return [
        Criterion(key, "products gains most from locality",
                  lambda v, e: _locality_gain(v, "products") == max(
                      _locality_gain(v, g) for g in GRAPHS)),
        Criterion(key, "products c-locality beats DistGNN by more than 1.9x",
                  lambda v, e: v["products c-locality"] > 1.9),
        Criterion(key, "c-locality is within 2% of combined or above",
                  lambda v, e: all(v[f"{g} c-locality"]
                                   >= v[f"{g} combined"] * 0.98
                                   for g in GRAPHS)),
    ]


def _compression(key: str) -> List[Criterion]:
    return [
        Criterion(key, "compression loses at 10% sparsity",
                  lambda v, e: all(v[f"{g} @10%"] < 1.0 for g in GRAPHS)),
        Criterion(key, "compression wins more than 1.3x at 90% sparsity",
                  lambda v, e: all(v[f"{g} @90%"] > 1.3 for g in GRAPHS)),
        Criterion(key, "speedup grows with sparsity",
                  lambda v, e: all(_ascending(v, [f"{g} @{s}%" for s in SPARSITIES])
                                   for g in GRAPHS)),
    ]


CRITERIA: List[Criterion] = [
    # Figure 2: sampled GraphSAGE on a GPU.
    Criterion("fig2", "sampling dominates every epoch",
              lambda v, e: all(x > 0.5 for label, x in v.items()
                               if "share" in label)),
    Criterion("fig2", "epoch time falls as batches grow",
              lambda v, e: _ascending(v, [f"batch-{b} epoch time (norm.)"
                                          for b in (4096, 2048, 1024)])),
    # Figure 3: the baseline's pipeline slots.
    Criterion("fig3", "retiring below 0.2",
              lambda v, e: v["retiring"] < 0.2),
    Criterion("fig3", "memory bound above 0.5",
              lambda v, e: v["memory bound"] > 0.5),
    # Table 3: the twins.
    Criterion("tab3", "mean degree within 0.5-1.5x of the paper",
              lambda v, e: all(0.5 <= r.ratio <= 1.5 for r in e.rows
                               if "mean degree" in r.label)),
    Criterion("tab3", "every graph's mean degree carries its paper value",
              lambda v, e: e.experiment_id == "tab3" and _carries(
                  e, [f"{g} mean degree" for g in GRAPHS])),
    # Figure 11: software speedups over DistGNN.
    *_software_inference("fig11a"),
    *_software_inference("fig11a-sage"),
    Criterion("fig11a", "rows carry their paper values",
              lambda v, e: e.experiment_id == "fig11a" and _carries(
                  e, [f"{g} {s}" for g in GRAPHS for s in SOFTWARE])),
    *_software_training("fig11b"),
    *_software_training("fig11b-sage"),
    Criterion("fig11b", "every variant and c-locality has a row",
              lambda v, e: e.experiment_id == "fig11b" and all(
                  f"{g} {s}" in v for g in GRAPHS
                  for s in (*SOFTWARE, "c-locality"))),
    # Figure 13: basic vs fused hidden layers.
    Criterion("fig13", "aggregation dominates basic",
              lambda v, e: all(v[f"{g} basic aggregation share"] > 0.5
                               for g in GRAPHS)),
    Criterion("fig13", "fused inference is never slower than basic",
              lambda v, e: all(v[f"{g} fused inference (norm.)"] <= 1.0
                               for g in GRAPHS)),
    Criterion("fig13", "fused training costs at least fused inference",
              lambda v, e: all(v[f"{g} fused fwd-training (norm.)"]
                               >= v[f"{g} fused inference (norm.)"]
                               for g in GRAPHS)),
    Criterion("fig13", "wikipedia has a larger update share than products",
              lambda v, e: v["wikipedia basic update share"]
              > v["products basic update share"]),
    Criterion("fig13", "paper deviation below 0.35",
              lambda v, e: e.max_paper_deviation() < 0.35,
              document_only=True),
    # Figure 14: compression across sparsities.
    *_compression("fig14a"),
    *_compression("fig14b"),
    # Figure 15: speedup over the randomized order.
    Criterion("fig15", "products combined matches randomized within 0.1",
              lambda v, e: abs(v["products combined"] - 1.0) < 0.1),
    Criterion("fig15", "papers combined matches randomized within 0.1",
              lambda v, e: abs(v["papers combined"] - 1.0) < 0.1),
    Criterion("fig15", "pre-localized wikipedia beats randomized by 2%",
              lambda v, e: v["wikipedia combined"] > 1.02),
    Criterion("fig15", "pre-localized twitter beats randomized",
              lambda v, e: v["twitter combined"] > 1.0),
    Criterion("fig15", "reordering is within 2% of combined or above",
              lambda v, e: all(v[f"{g} locality"] >= v[f"{g} combined"] * 0.98
                               for g in GRAPHS)),
    Criterion("fig15", "products reordering beats randomized by 1.3x",
              lambda v, e: v["products locality"] > 1.3),
    # Table 4: GCN training characterization.
    Criterion("tab4", "c-locality retires at least as much as DistGNN",
              lambda v, e: all(v[f"{g} c-locality retiring"]
                               >= v[f"{g} distgnn retiring"] for g in GRAPHS)),
    Criterion("tab4", "c-locality retires more than DistGNN on products, papers",
              lambda v, e: all(v[f"{g} c-locality retiring"]
                               > v[f"{g} distgnn retiring"]
                               for g in ("products", "papers"))),
    Criterion("tab4", "combined is no more memory-bound than DistGNN + 0.02",
              lambda v, e: all(v[f"{g} combined memory-bound"]
                               <= v[f"{g} distgnn memory-bound"] + 0.02
                               for g in GRAPHS)),
    Criterion("tab4", "c-locality is less memory-bound than DistGNN on products, papers",
              lambda v, e: all(v[f"{g} c-locality memory-bound"]
                               < v[f"{g} distgnn memory-bound"]
                               for g in ("products", "papers"))),
    Criterion("tab4", "DistGNN pegs the L1 fill buffers",
              lambda v, e: all(v[f"{g} distgnn fill-buffer-full"] == 1.0
                               for g in GRAPHS)),
    Criterion("tab4", "every published column carries its paper value",
              lambda v, e: e.experiment_id == "tab4" and _carries(
                  e, [f"{g} {variant} {column}" for g in GRAPHS
                      for variant in ("distgnn", "mkl", "combined", "c-locality")
                      for column in ("retiring", "memory-bound",
                                     "DRAM-BW-bound", "fill-buffer-full")])),
    # Figure 12: simulated speedups with the DMA engine.
    Criterion("fig12a", "fusion beats DistGNN",
              lambda v, e: all(v[f"{g} fusion"] > 1.0 for g in HW_GRAPHS)),
    Criterion("fig12a", "DMA adds to fusion",
              lambda v, e: all(v[f"{g} fusion+DMA"] > v[f"{g} fusion"]
                               for g in HW_GRAPHS)),
    Criterion("fig12b", "DMA adds to fusion",
              lambda v, e: all(v[f"{g} fusion+DMA"] > v[f"{g} fusion"]
                               for g in HW_GRAPHS)),
    Criterion("fig12b", "DMA adds to fusion+locality",
              lambda v, e: all(v[f"{g} fusion+DMA+locality"]
                               > v[f"{g} fusion+locality"] for g in HW_GRAPHS)),
    Criterion("fig12b", "products gains more than wikipedia with locality",
              lambda v, e: v["products fusion+DMA+locality"]
              > v["wikipedia fusion+DMA+locality"]),
    # Figure 16: the tracking-table knee.
    Criterion("fig16", "16 entries take under 0.8 of 8 entries' time",
              lambda v, e: v["16 entries (norm.)"] < 0.8),
    Criterion("fig16", "32 entries beat 16",
              lambda v, e: v["32 entries (norm.)"] < v["16 entries (norm.)"]),
    Criterion("fig16", "64 entries buy under 10% over 32",
              lambda v, e: v["64 entries (norm.)"] > v["32 entries (norm.)"] * 0.9),
    # Table 5: private-cache access reduction.
    Criterion("tab5", "DMA removes over 90% of aggregation's L1 accesses",
              lambda v, e: all(v[f"{g} agg-only L1 reduction"] > 0.9
                               for g in HW_GRAPHS)),
    Criterion("tab5", "DMA removes over 90% of aggregation's L2 accesses",
              lambda v, e: all(v[f"{g} agg-only L2 reduction"] > 0.9
                               for g in HW_GRAPHS)),
    Criterion("tab5", "the fused update keeps its L1 accesses",
              lambda v, e: all(v[f"{g} fused L1 reduction"]
                               < v[f"{g} agg-only L1 reduction"]
                               for g in HW_GRAPHS)),
    Criterion("tab5", "products' higher degree gives the larger fused reduction",
              lambda v, e: v["products fused L1 reduction"]
              > v["wikipedia fused L1 reduction"]),
    # Section 7.3.2: the memory system with the DMA engine.
    Criterion("sec732", "L2 miss rate falls with DMA",
              lambda v, e: all(v[f"{g} L2 miss after"] < v[f"{g} L2 miss before"]
                               for g in HW_GRAPHS)),
    Criterion("sec732", "L2 miss rate with DMA below 0.1",
              lambda v, e: all(v[f"{g} L2 miss after"] < 0.1 for g in HW_GRAPHS)),
]


def applicable(scale: float) -> List[Criterion]:
    """The criteria a run at ``scale`` is held to."""
    return [c for c in CRITERIA if scale == SOFTWARE_SCALE or not c.document_only]


def failed(results: Mapping[str, Experiment], scale: float) -> List[str]:
    """``"key: name"`` of every criterion that fails on ``results`` (one
    experiment per plan key) run at ``scale``."""
    names = []
    for criterion in applicable(scale):
        exp = results[criterion.key]
        try:
            ok = criterion.check({r.label: r.measured for r in exp.rows}, exp)
        except KeyError:
            ok = False
        if not ok:
            names.append(f"{criterion.key}: {criterion.name}")
    return names

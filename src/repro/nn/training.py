"""Full-batch training and inference loops.

The paper's headline setting: "full-batch computation on large graphs"
with no sampling or mini-batching (Sections 1 and 3).  Every epoch runs
one forward pass over all vertices, one loss, one backward pass, and one
optimizer step.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels.base import AggregationKernel, KernelStats
from ..obs import get_metrics, get_tracer
from ..tensors.compression import traffic_saved
from ..tensors.sparsity import SparsityProfile, sparsity as sparsity_of
from . import functional as F
from .model import GNNModel, Workspace
from .optim import Optimizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import EventLog
    from ..obs.health import HealthMonitor
    from ..obs.rules import RuleEngine

logger = logging.getLogger(__name__)

#: Bytes per dense float32 feature element (compression-savings model).
_BYTES_PER_FEATURE = 4


@dataclass
class EpochResult:
    """Loss/accuracy record for one training epoch."""

    epoch: int
    loss: float
    train_accuracy: float
    val_accuracy: Optional[float] = None


@dataclass
class TrainingHistory:
    """All epoch records plus the sparsity profile of hidden features."""

    epochs: List[EpochResult] = field(default_factory=list)
    sparsity: SparsityProfile = field(default_factory=SparsityProfile)
    #: Work counters merged from every forward aggregation that ran on an
    #: optimized kernel (empty when training uses the SpMM oracle).
    aggregation_stats: KernelStats = field(default_factory=KernelStats)
    #: Work counters merged from every *backward* aggregation that ran on
    #: an optimized kernel (empty when backward uses the SpMM fallback).
    backward_stats: KernelStats = field(default_factory=KernelStats)

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss if self.epochs else float("nan")

    @property
    def final_accuracy(self) -> float:
        # NaN, like final_loss: an empty history has no accuracy, and 0.0
        # would read as "the model learned nothing" in reports.
        return self.epochs[-1].train_accuracy if self.epochs else float("nan")

    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]


class Trainer:
    """Full-batch trainer for :class:`GNNModel`.

    Args:
        model: the GNN to train.
        optimizer: parameter update rule.
        profile_sparsity: record per-layer input sparsity each epoch —
            the Section 2.2 measurement that motivates feature compression.
        aggregation_kernel: optional optimized execution strategy (e.g. a
            ``BasicKernel``, which runs each pass on lanes) used for
            every forward aggregation — and, when the kernel provides
            ``aggregate_backward`` (the cached-CSC backward of
            :class:`~repro.kernels.BasicKernel`), for every backward
            aggregation too.  Without one the trainer is the value-plane
            oracle: every aggregation rebuilds the scipy normalized
            adjacency, which is what tests compare the kernels against.
        event_log: optional :class:`~repro.obs.events.EventLog`; every
            ``train_epoch`` emits one streaming epoch record (loss,
            accuracies, per-layer grad/weight norms, per-layer sparsity,
            realized vs predicted compression savings, wall time).
        health: optional :class:`~repro.obs.health.HealthMonitor`; the
            epoch's numerics are checked as they are produced and a
            fail-fast monitor raises within one epoch of a NaN/Inf.
        rules: optional :class:`~repro.obs.rules.RuleEngine`; evaluated
            once per epoch against the registry snapshot (after this
            epoch's ``train.*`` gauges are published), so declarative
            SLOs like ``train.loss rate_of_change <= 0 for 3`` or
            ``proc.rss_bytes < 2e9`` fire online.  Violations surface as
            ``alerts.*`` metrics and ``slo:<rule>`` entries in the
            epoch's event record.

    With all of them left at ``None`` (the default) ``train_epoch``
    takes the existing zero-cost path: no norms, no sparsity
    measurements, no event construction, no gauge publishing.

    An epoch aggregates only what can change: the first layer's
    ``Â · features`` is computed once and reused for as long as
    ``train_epoch`` is called with the same graph and the same
    ``features`` *object* (the key is identity, so a caller that mutates
    ``features`` in place must pass a new array), and ``∂L/∂features``
    is never formed.  Nor does an epoch allocate what it can reuse: the
    trainer owns a :class:`~repro.nn.model.Workspace` (one ``V x hidden``
    buffer per hidden layer plus the sweeps' block scratch, sized on
    first use and again only if ``V`` or the dtype changes) that every
    epoch's GEMMs write into.  Nothing ``train_epoch`` returns or keeps
    in ``history`` aliases it.  The last layer's transposed aggregation
    gathers only the ``train_mask`` rows, the only ones the loss
    gradient is not zero on.
    """

    def __init__(
        self,
        model: GNNModel,
        optimizer: Optimizer,
        profile_sparsity: bool = False,
        aggregation_kernel: Optional[AggregationKernel] = None,
        event_log: Optional["EventLog"] = None,
        health: Optional["HealthMonitor"] = None,
        rules: Optional["RuleEngine"] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.profile_sparsity = profile_sparsity
        self.event_log = event_log
        self.health = health
        self.rules = rules
        self.aggregation_kernel = aggregation_kernel
        self.history = TrainingHistory()
        #: (graph cache token, features, Â · features) of the last epoch
        #: whose first layer aggregated un-dropped features.  Strong
        #: references: a live entry cannot be mistaken for a look-alike
        #: allocated at a dead array's address.
        self._first_aggregation: Optional[
            Tuple[object, np.ndarray, np.ndarray]
        ] = None
        self._workspace: Optional[Workspace] = None

    def _workspace_for(self, features: np.ndarray) -> Workspace:
        """The trainer's buffers, (re)built when the shape they serve moves."""
        dtype = np.result_type(
            features.dtype, *(layer.weight.dtype for layer in self.model.layers)
        )
        workspace = self._workspace
        if workspace is None or (workspace.num_vertices, workspace.dtype) != (
            len(features), dtype
        ):
            workspace = self._workspace = Workspace(self.model, len(features), dtype)
        return workspace

    def train_epoch(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: Optional[np.ndarray] = None,
        val_mask: Optional[np.ndarray] = None,
    ) -> EpochResult:
        """One forward + backward + step over the whole graph.

        Each mask must be ``None`` or a 1-D ``bool`` array with one entry
        per vertex (:func:`~repro.nn.functional.check_mask`).  With an
        event log or health monitor attached, the epoch additionally
        captures per-layer grad/weight norms, per-layer input sparsity,
        and realized-vs-predicted compression traffic savings; without
        them no extra work happens.
        """
        n = graph.num_vertices
        train_mask = F.check_mask(train_mask, n, "train_mask")
        val_mask = F.check_mask(val_mask, n, "val_mask")
        tracer = get_tracer()
        metrics = get_metrics()
        observing = self.event_log is not None or self.health is not None
        # The live plane (train.* gauges + SLO rules) rides along when a
        # registry is active or rules are attached; one perf_counter()
        # read is the whole added cost on that path, zero otherwise.
        timing = observing or metrics.enabled or self.rules is not None
        epoch_index = len(self.history.epochs)
        start_s = time.perf_counter() if timing else 0.0
        with tracer.span("epoch", epoch=epoch_index) as span:
            kept = self._first_aggregation
            hit = (
                kept is not None
                and kept[0] is graph.cache_token()
                and kept[1] is features
            )
            workspace = self._workspace_for(features)
            logits, caches = self.model.forward(
                graph, features, training=True, kernel=self.aggregation_kernel,
                first_aggregation=kept[2] if hit else None, workspace=workspace,
            )
            first = caches[0]
            if not hit and first.a is not None and first.dropout_mask is None:
                self._first_aggregation = (graph.cache_token(), features, first.a)
            for cache in caches:
                if cache.agg_stats is not None:
                    self.history.aggregation_stats.merge(cache.agg_stats)
            layer_sparsity: "dict[int, float]" = {}
            if self.profile_sparsity or observing:
                for layer_idx, cache in enumerate(caches):
                    layer_sparsity[layer_idx] = sparsity_of(cache.h_in)
                if self.profile_sparsity:
                    for layer_idx, value in layer_sparsity.items():
                        self.history.sparsity.add(layer_idx, value)
            loss, grad, correct = F.cross_entropy_and_correct(
                logits, labels, train_mask
            )
            with tracer.span("backward"):
                grads = self.model.backward(
                    graph, grad, caches, kernel=self.aggregation_kernel,
                    workspace=workspace, live=train_mask,
                )
            for layer_grads in grads:
                if layer_grads.agg_stats is not None:
                    self.history.backward_stats.merge(layer_grads.agg_stats)
            self.optimizer.step(grads)
            result = EpochResult(
                epoch=epoch_index,
                loss=loss,
                train_accuracy=F.masked_fraction(correct, train_mask),
                val_accuracy=(
                    F.masked_fraction(correct, val_mask)
                    if val_mask is not None
                    else None
                ),
            )
            span.set_attr("loss", result.loss)
            span.set_attr("train_accuracy", result.train_accuracy)
            wall_time_s = time.perf_counter() - start_s if timing else 0.0
            slo_issues: List[str] = []
            if metrics.enabled or self.rules is not None:
                slo_issues = self._publish_live(metrics, result, wall_time_s)
            if observing:
                self._observe_epoch(
                    graph, result, logits, grads, caches, layer_sparsity,
                    wall_time_s, slo_issues,
                )
        self.history.epochs.append(result)
        logger.debug(
            "epoch %d: loss %.4f train-acc %.3f",
            result.epoch,
            result.loss,
            result.train_accuracy,
        )
        return result

    def _publish_live(
        self, metrics, result: EpochResult, wall_time_s: float
    ) -> List[str]:
        """Publish this epoch's ``train.*`` plane and run the SLO rules.

        The gauges make the loss/accuracy trajectory scrapable through a
        live :class:`~repro.obs.live.MetricsServer`; the rule engine is
        then evaluated against the full registry snapshot (so one rule
        file can mix ``train.*``, ``proc.*``, and ``kernel.*`` terms).
        Returns the fired rules as ``slo:<name>`` issue strings for the
        epoch's event record.
        """
        if metrics.enabled:
            metrics.set_gauge("train.epoch", float(result.epoch))
            metrics.set_gauge("train.loss", float(result.loss))
            metrics.set_gauge(
                "train.train_accuracy", float(result.train_accuracy)
            )
            if result.val_accuracy is not None:
                metrics.set_gauge(
                    "train.val_accuracy", float(result.val_accuracy)
                )
            metrics.set_gauge("train.wall_time_s", wall_time_s)
            metrics.observe("train.epoch_time_s", wall_time_s)
        if self.rules is None:
            return []
        if metrics.enabled:
            snapshot = metrics.snapshot()
        else:  # rules without a live registry still see the train.* plane
            snapshot = {
                "train.epoch": {"type": "gauge", "value": float(result.epoch)},
                "train.loss": {"type": "gauge", "value": float(result.loss)},
                "train.train_accuracy": {
                    "type": "gauge", "value": float(result.train_accuracy),
                },
                "train.wall_time_s": {"type": "gauge", "value": wall_time_s},
            }
            if result.val_accuracy is not None:
                snapshot["train.val_accuracy"] = {
                    "type": "gauge", "value": float(result.val_accuracy),
                }
        alerts = self.rules.evaluate(snapshot)
        for alert in alerts:
            logger.warning("slo: %s", alert.message)
        return [f"slo:{alert.rule}" for alert in alerts]

    def _observe_epoch(
        self,
        graph: CSRGraph,
        result: EpochResult,
        logits: np.ndarray,
        grads,
        caches,
        layer_sparsity: "dict[int, float]",
        wall_time_s: float,
        slo_issues: Optional[List[str]] = None,
    ) -> None:
        """Build and publish this epoch's event/health telemetry.

        Only called when an event log or health monitor is attached;
        raises :class:`~repro.obs.health.HealthError` from a fail-fast
        monitor *after* the (possibly NaN'd) event record is written, so
        the log keeps the evidence of the epoch that failed.
        """
        from ..obs.events import EpochEvent
        from ..obs.health import HealthError

        grad_norms = GNNModel.grad_norms(grads)
        weight_norms = self.model.weight_norms()
        compression = self._compression_savings(graph, caches, layer_sparsity)
        health_error: Optional[HealthError] = None
        issues: List[str] = list(slo_issues or [])
        if self.health is not None:
            try:
                found = self.health.check_epoch(
                    result.epoch,
                    result.loss,
                    logits=logits,
                    grad_norms=grad_norms,
                    weight_norms=weight_norms,
                )
            except HealthError as error:
                health_error = error
                found = error.issues
            issues = [issue.kind for issue in found]
        if self.event_log is not None:
            self.event_log.emit(
                EpochEvent(
                    epoch=result.epoch,
                    loss=float(result.loss),
                    train_accuracy=float(result.train_accuracy),
                    val_accuracy=(
                        float(result.val_accuracy)
                        if result.val_accuracy is not None
                        else None
                    ),
                    wall_time_s=wall_time_s,
                    grad_norms=grad_norms,
                    weight_norms=weight_norms,
                    sparsity={
                        str(layer): value
                        for layer, value in sorted(layer_sparsity.items())
                    },
                    compression=compression,
                    health_issues=issues,
                )
            )
        if health_error is not None:
            raise health_error

    @staticmethod
    def _compression_savings(
        graph: CSRGraph, caches, layer_sparsity: "dict[int, float]"
    ) -> "dict[str, float]":
        """Realized vs cost-model-predicted DRAM savings this epoch.

        *Realized* sums the ``dram_bytes_saved`` the (compressed)
        kernels actually counted; *predicted* applies the Section 4.3
        traffic model — ``gathers x row_bytes x traffic_saved(s)`` — to
        the width and measured sparsity of the operand each layer
        actually gathered: ``h_in`` for an aggregate-first layer, the
        (dense, narrower) ``h_in @ W`` for a transform-first one, and
        nothing at all for a first layer whose aggregation was reused.
        Both count per gather with no cache model, so they are directly
        comparable; a run on an uncompressed kernel has realized 0 and
        the predicted number is what compression *would* have saved
        (the §2.2 motivation).
        """
        realized = 0.0
        predicted = 0.0
        default_gathers = graph.num_edges + graph.num_vertices
        for layer_idx, cache in enumerate(caches):
            operand = cache.gathered
            if operand is None:
                continue
            stats = cache.agg_stats
            gathers = stats.gathers if stats is not None else default_gathers
            if stats is not None:
                realized += stats.dram_bytes_saved
            operand_sparsity = (
                layer_sparsity[layer_idx]
                if operand is cache.h_in
                else sparsity_of(operand)
            )
            predicted += (
                gathers
                * operand.shape[1] * _BYTES_PER_FEATURE
                * traffic_saved(operand_sparsity)
            )
        return {
            "realized_dram_bytes_saved": realized,
            "predicted_dram_bytes_saved": predicted,
        }

    def fit(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        train_mask: Optional[np.ndarray] = None,
        val_mask: Optional[np.ndarray] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for a fixed number of epochs."""
        for _ in range(epochs):
            result = self.train_epoch(
                graph, features, labels, train_mask=train_mask, val_mask=val_mask
            )
            if verbose:
                # Through the logging layer, not print(): the CLI raises
                # this module's logger to INFO so `repro train` still
                # shows the lines, and library users keep control.
                msg = (
                    f"epoch {result.epoch:>3}  loss {result.loss:.4f}  "
                    f"train-acc {result.train_accuracy:.3f}"
                )
                if result.val_accuracy is not None:
                    msg += f"  val-acc {result.val_accuracy:.3f}"
                logger.info("%s", msg)
        return self.history


def inference(
    model: GNNModel,
    graph: CSRGraph,
    features: np.ndarray,
    kernel: Optional[AggregationKernel] = None,
) -> np.ndarray:
    """Full-batch inference: logits for every vertex."""
    return model.predict(graph, features, kernel=kernel)


def train_val_split(
    num_vertices: int, train_fraction: float = 0.6, seed: int = 0
) -> "tuple[np.ndarray, np.ndarray]":
    """Random boolean train/val masks over the vertex set."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_vertices)
    cut = int(num_vertices * train_fraction)
    train_mask = np.zeros(num_vertices, dtype=bool)
    val_mask = np.zeros(num_vertices, dtype=bool)
    train_mask[order[:cut]] = True
    val_mask[order[cut:]] = True
    return train_mask, val_mask

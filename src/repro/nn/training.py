"""Full-batch training and inference loops.

The paper's headline setting: "full-batch computation on large graphs"
with no sampling or mini-batching (Sections 1 and 3).  Every epoch runs
one forward pass over all vertices, one loss, one backward pass, and one
optimizer step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels.base import KernelStats
from ..obs import get_metrics, get_tracer
from ..obs.events import (
    EpochEvent, EventLog, plane_over_snapshot, train_plane,
)
from ..obs.rules import Alert, FatalRuleError, RuleEngine
from ..tensors.sparsity import SparsityProfile, sparsity as sparsity_of
from . import functional as F
from .model import GNNModel, Workspace
from .optim import Optimizer

if TYPE_CHECKING:  # pragma: no cover - typing only; kernels imports nn
    from ..kernels.basic import BasicKernel

logger = logging.getLogger(__name__)

#: Relative best-loss improvement that restarts ``train.epochs_since_best``.
_STALL_TOLERANCE = 1e-3


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

    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]


class Trainer:
    """Full-batch trainer for :class:`GNNModel`.

    Args:
        model: the GNN to train.
        optimizer: parameter update rule.
        profile_sparsity: record per-layer input sparsity each epoch —
            the Section 2.2 measurement that motivates feature compression.
        aggregation_kernel: optional :class:`~repro.kernels.BasicKernel`
            (each pass on lanes) used for every forward and backward
            aggregation.  Without one the trainer is the value-plane
            oracle: every aggregation rebuilds the scipy normalized
            adjacency, which is what tests compare the kernel against.
        event_log: optional :class:`~repro.obs.events.EventLog`; every
            ``train_epoch`` emits one streaming epoch record (loss,
            accuracies, per-layer grad/weight norms, wall time).
        rules: optional :class:`~repro.obs.rules.RuleEngine`; evaluated
            once per epoch on this epoch's ``train.*`` plane merged over
            the registry snapshot, so declarative rules like
            ``train.loss rate_of_change <= 0 for 3`` or
            ``proc.rss_bytes < 2e9`` fire online.  With an engine the
            plane also carries what the numerics guards
            (:data:`~repro.obs.rules.DEFAULT_TRAIN_RULES`) read:
            ``train.nonfinite``, the count of non-finite values among
            the loss, the logits and the per-layer grad / weight norms;
            ``train.loss_over_best``, the loss over the best loss of
            earlier epochs (absent on the first epoch and on a
            non-finite loss); ``train.epochs_since_best``, the epochs
            since the best loss last improved by more than a relative
            ``1e-3``.  Violations
            surface as ``alerts.*`` metrics and ``slo:<rule>`` entries in
            the epoch's event record; a ``fatal`` rule raises
            :class:`~repro.obs.rules.FatalRuleError` after the record is
            written.

    With both left at ``None`` (the default) and the registry off,
    ``train_epoch`` takes the zero-cost path: no norms, no sparsity
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
        aggregation_kernel: Optional[BasicKernel] = None,
        event_log: Optional[EventLog] = None,
        rules: Optional[RuleEngine] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.profile_sparsity = profile_sparsity
        self.event_log = event_log
        self.rules = rules
        #: Best finite loss so far and the epoch it last improved by more
        #: than ``_STALL_TOLERANCE`` (read only with a rule engine).
        self._best_loss = math.inf
        self._best_epoch = -1
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
        event log or rule engine attached, the epoch additionally
        captures per-layer grad/weight norms; with ``profile_sparsity``,
        per-layer input sparsity; without them no extra work happens.
        """
        n = graph.num_vertices
        train_mask = F.check_mask(train_mask, n, "train_mask")
        val_mask = F.check_mask(val_mask, n, "val_mask")
        tracer = get_tracer()
        metrics = get_metrics()
        # The train.* plane rides along when a registry is active, an
        # event log or rules are attached; one perf_counter() read is
        # the whole added cost on that path, zero otherwise.
        timing = (
            metrics.enabled or self.event_log is not None or self.rules is not None
        )
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
            if self.profile_sparsity:
                for layer_idx, cache in enumerate(caches):
                    self.history.sparsity.add(layer_idx, sparsity_of(cache.h_in))
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
            if timing:
                wall_time_s = time.perf_counter() - start_s
                self._observe_epoch(result, logits, grads, wall_time_s, metrics)
        self.history.epochs.append(result)
        logger.debug(
            "epoch %d: loss %.4f train-acc %.3f",
            result.epoch,
            result.loss,
            result.train_accuracy,
        )
        return result

    def _observe_epoch(
        self,
        result: EpochResult,
        logits: np.ndarray,
        grads,
        wall_time_s: float,
        metrics,
    ) -> None:
        """Build this epoch's ``train.*`` plane, judge it, log its event.

        The per-layer norms are computed once, for the event record and
        the ``train.nonfinite`` gauge, and only when one of them is
        attached.  A fired ``fatal`` rule raises
        :class:`~repro.obs.rules.FatalRuleError` *after* the (possibly
        NaN'd) event record is written, so the log keeps the evidence of
        the epoch that failed.
        """
        grad_norms = weight_norms = None
        if self.event_log is not None or self.rules is not None:
            grad_norms = GNNModel.grad_norms(grads)
            weight_norms = self.model.weight_norms()
        plane = train_plane({**vars(result), "wall_time_s": wall_time_s})
        first_bad = None
        if self.rules is not None:
            bad, first_bad = _non_finite(
                result.loss, logits, grad_norms, weight_norms
            )
            plane["train.nonfinite"] = float(bad)
            plane.update(self._loss_trajectory(result.epoch, result.loss))
        alerts = self._publish_live(metrics, plane)
        if self.event_log is not None:
            self.event_log.emit(
                EpochEvent(
                    epoch=result.epoch,
                    loss=float(result.loss),
                    train_accuracy=float(result.train_accuracy),
                    val_accuracy=plane.get("train.val_accuracy"),
                    wall_time_s=wall_time_s,
                    grad_norms=grad_norms,
                    weight_norms=weight_norms,
                    health_issues=[f"slo:{alert.rule}" for alert in alerts],
                )
            )
        fatal = [alert for alert in alerts if alert.fatal]
        if fatal:
            detail = ""
            if first_bad and any(a.metric == "train.nonfinite" for a in fatal):
                detail = f"first non-finite value: {first_bad}"
            raise FatalRuleError(fatal, result.epoch, detail)

    def _publish_live(self, metrics, plane: Dict[str, float]) -> List[Alert]:
        """Publish the ``train.*`` plane and run the rules on it.

        The gauges make the loss/accuracy trajectory scrapable through a
        live :class:`~repro.obs.live.MetricsServer`; the rule engine
        judges the plane merged over the full registry snapshot (so one
        rule file can mix ``train.*``, ``proc.*`` and ``kernel.*``
        terms), or the plane alone when the registry is off.
        """
        for name, value in plane.items():
            metrics.set_gauge(name, value)
        metrics.observe("train.epoch_time_s", plane["train.wall_time_s"])
        if self.rules is None:
            return []
        alerts = self.rules.evaluate(
            plane_over_snapshot(metrics.snapshot(), plane)
        )
        for alert in alerts:
            logger.warning("slo: %s", alert.message)
        return alerts

    def _loss_trajectory(self, epoch: int, loss: float) -> Dict[str, float]:
        """This epoch's trajectory gauges; folds ``loss`` into the record."""
        plane: Dict[str, float] = {}
        if math.isfinite(loss):
            if self._best_epoch >= 0:
                plane["train.loss_over_best"] = loss / max(self._best_loss, 1e-12)
            if loss < self._best_loss * (1.0 - _STALL_TOLERANCE):
                self._best_epoch = epoch
            self._best_loss = min(self._best_loss, loss)
        if self._best_epoch >= 0:
            plane["train.epochs_since_best"] = float(epoch - self._best_epoch)
        return plane

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


def _non_finite(
    loss: float,
    logits: np.ndarray,
    grad_norms: Dict[str, Dict[str, float]],
    weight_norms: Dict[str, Dict[str, float]],
) -> Tuple[int, Optional[str]]:
    """How many of the loss, the logits and the per-layer norms are
    non-finite, and where the first one is (the norms in layer order,
    then the logits, then the loss).  A NaN/Inf anywhere in a tensor
    makes its L2 norm non-finite, so the norms check every parameter
    and gradient without a second pass over them."""
    places = [
        f"layer {layer} {kind}.{param}"
        for kind, norms in (("grad", grad_norms), ("weight", weight_norms))
        for layer, entry in norms.items()
        for param, value in entry.items()
        if not math.isfinite(value)
    ]
    count = len(places)
    bad_logits = logits.size - int(np.count_nonzero(np.isfinite(logits)))
    if bad_logits:
        count += bad_logits
        places.append(f"logits ({bad_logits / logits.size:.1%} non-finite)")
    if not math.isfinite(loss):
        count += 1
        places.append(f"loss ({loss!r})")
    return count, (places[0] if places else None)


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

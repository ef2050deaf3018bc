"""Partition-parallel sharded training over shared memory.

The scale story of ROADMAP item 2: instead of every worker holding the
full CSR (and the process backend re-pickling the graph into each pool),
the graph is split by an edge-cut partitioner
(:func:`repro.graphs.partition.edge_cut_partition`) into per-worker
shards — local CSR rows plus halo (ghost) vertex maps — and ALL
graph-sized state (shard CSR arrays, ψ factors, features, labels, masks,
and the per-layer exchange boards) lives in one
``multiprocessing.shared_memory`` segment (:class:`~repro.parallel.shm.
ArrayBundle`), and so do the layer weights and each shard's gradient
partials.  Workers attach by name and build zero-copy numpy views: the
only bytes that ever cross a pickle boundary are the bundle spec +
config at startup (O(#arrays), asserted bounded in the tests), the
epoch number each epoch and a few scalars back.

Training is exact full-batch training, bulk-synchronous per layer.
Each layer's halo exchange is a shared-memory "board": every worker
writes its owned rows of the operand the layer gathers, a barrier flips
the phase, then workers gather the halo rows they need.  The operand
follows ``Trainer``'s order rule (:func:`repro.nn.layers.
transform_first`): ``h_{k-1}`` for an aggregate-first layer, the
narrower ``z = h_{k-1} W_k`` for a transform-first one.  The backward
pass runs the same protocol over the transposed shards.

One phase list, :func:`epoch_phases`, is the whole schedule: a pure
function of the layer count, so every worker derives the identical
sequence of phases and barriers — no tags, no deadlocks — and every
layer ``k >= 1`` exchanges twice per epoch, once forward and once
backward.  The process backend waits on a barrier before each step
marked ``sync``; the serial backend runs each step on every shard
before the next.

Epoch boundaries synchronize through the parent: it copies the model's
weights into the ``w{k}`` / ``b{k}`` boards and sends each worker the
epoch number over its pipe, then waits for every worker's scalar result
(loss/accuracy sums, halo counters).  The per-layer ``grad_W`` /
``grad_b`` partials sit in each shard's ``s{p}.gw{k}`` / ``s{p}.gb{k}``
boards; the parent sums them in worker order (float64) and takes one
optimizer step on its model — all shards therefore always see identical
weights.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse import get_index_dtype

from .. import lanes
from ..graphs.csr import CSRGraph
from ..graphs.partition import (
    GraphShard,
    PartitionResult,
    build_shards,
    edge_cut_partition,
)
from ..kernels.segment import ScaledCSR
from ..nn import functional as F
from ..nn.aggregate import normalization_factors
from ..nn.layers import (
    LayerGrads, grad_pre_activation, grads_after_aggregation,
    grads_before_aggregation, layer_operand, layer_output, transform_first,
)
from ..nn.model import GNNModel
from ..nn.optim import Optimizer
from ..nn.training import EpochResult, TrainingHistory
from ..obs import get_metrics, get_tracer
from .shm import ArrayBundle

logger = logging.getLogger(__name__)

SHARD_BACKENDS = ("serial", "process")

_RESULT_TIMEOUT_S = 300.0


def shard_factors(
    edge_factors: np.ndarray, self_factors: np.ndarray, shard: GraphShard
) -> Tuple[np.ndarray, np.ndarray]:
    """Restrict global ψ normalization factors to one shard.

    Edge factors follow the shard's edges via ``edge_positions`` (each
    shard edge keeps its *global*-degree normalization — this is what
    makes sharded aggregation exactly match the serial result); self
    factors restrict to the owned rows.
    """
    return (
        np.ascontiguousarray(edge_factors[shard.edge_positions]),
        np.ascontiguousarray(self_factors[shard.local_vertices]),
    )


def shard_segment_reduce(op: ScaledCSR, x: np.ndarray) -> np.ndarray:
    """Per-shard gather-reduce: ``a[v] = ψ_v x[v] + Σ_e ψ_e x[col(e)]``.

    ``x`` has ``num_local + num_halo`` rows (owned features then halo
    copies); the result has ``num_local`` rows.  One fused pass through
    the shared core — every shard aggregation, forward and transposed,
    goes through this name so a trace can time it.
    """
    return op(x)


class ShardWorkerDied(RuntimeError):
    """A shard worker process exited without reporting its epoch."""

    def __init__(self, part: int, exitcode: Optional[int]) -> None:
        super().__init__(
            f"shard worker {part} died (exit code {exitcode}) "
            "before reporting its epoch"
        )
        self.part = part
        self.exitcode = exitcode


@dataclass(frozen=True)
class LayerSpec:
    """The picklable shape of one GNN layer (no parameters)."""

    in_features: int
    out_features: int
    aggregator: str
    activation: bool
    #: ``Â (h W)`` rather than ``(Â h) W``: :func:`repro.nn.layers.
    #: transform_first` with layer 0's input static, as in ``Trainer``.
    transform_first: bool

    @property
    def width(self) -> int:
        """Row width this layer's aggregations and halo exchanges move."""
        return self.out_features if self.transform_first else self.in_features


@dataclass(frozen=True)
class ShardedConfig:
    """Everything a worker needs besides the shared arrays.

    Small and picklable: its byte size is part of the zero-copy
    guarantee (workers receive this + the bundle spec, nothing else).
    """

    layers: Tuple[LayerSpec, ...]
    train_count: int
    val_count: int
    has_val_mask: bool

    @property
    def aggregators(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.aggregator for spec in self.layers}))

    def has_h_board(self, layer: int) -> bool:
        """Whether ``layer``'s output ``h`` gets a board: the next layer
        gathers ``h`` rows (aggregate-first), or ``logits()`` reads it."""
        nxt = layer + 1
        return nxt == len(self.layers) or not self.layers[nxt].transform_first


class ShardRuntime:
    """One shard's slice of the training loop, phase by phase.

    Binds zero-copy views over the shared bundle and owns the private
    per-layer input buffers whose tail rows hold the halo copies.  The
    phase methods (``forward_layer`` → ``loss_grad`` →
    ``backward_update`` → ``backward_aggregate``) run in the order
    :func:`epoch_phases` lists, on both backends.

    Each layer ``k >= 1`` gathers rows of its :attr:`LayerSpec.width`:
    an aggregate-first layer the previous layer's ``h`` (board
    ``h{k-1}``), a transform-first one ``z = h_{k-1} W_k`` (board
    ``z{k}``), which ``forward_layer(k - 1)`` computes for the owned rows
    and publishes.  Its backward publishes ``grad_pre @ W_kᵀ`` or, for a
    transform-first layer, ``grad_pre`` itself to board ``g{k}``.

    Weights are read from the ``w{k}`` / ``b{k}`` boards the parent
    fills before each epoch, and the weight / bias gradients are written
    into this shard's ``s{p}.gw{k}`` / ``s{p}.gb{k}`` boards.
    """

    def __init__(self, bundle: ArrayBundle, part: int, config: ShardedConfig):
        self.cfg = config
        self.part = part
        prefix = f"s{part}."
        self.local = bundle.view(prefix + "local")
        self.halo = bundle.view(prefix + "halo")
        self.t_halo = bundle.view(prefix + "t_halo")
        self.n_local = len(self.local)
        n_in = self.n_local + len(self.halo)
        n_t = self.n_local + len(self.t_halo)
        #: aggregator -> (forward, transposed) fused operators, built
        #: once over the bundle's views (wrapped in place, not copied).
        def view(name: str) -> np.ndarray:
            return bundle.view(prefix + name)

        self.ops = {
            agg: (
                ScaledCSR.from_csr(
                    view("indptr"), view("indices"),
                    view(f"ef.{agg}"), view(f"sf.{agg}"), n_in,
                ),
                ScaledCSR.from_csr(
                    view("t_indptr"), view("t_indices"),
                    view(f"tef.{agg}"), view(f"sf.{agg}"), n_t,
                ),
            )
            for agg in config.aggregators
        }
        self.features = bundle.view("x")
        layers = config.layers
        num_layers = len(layers)
        self.boards_h: List[Optional[np.ndarray]] = [
            bundle.view(f"h{k}") if config.has_h_board(k) else None
            for k in range(num_layers)
        ]
        #: Per layer ``k >= 1``: the board its forward gathers halo rows
        #: from (``boards_g[k]`` serves its backward).
        self.boards_in: List[Optional[np.ndarray]] = [None] + [
            bundle.view(f"z{k}" if layers[k].transform_first else f"h{k - 1}")
            for k in range(1, num_layers)
        ]
        self.boards_g: List[Optional[np.ndarray]] = [None] + [
            bundle.view(f"g{k}") for k in range(1, num_layers)
        ]
        self.labels_local = bundle.view("labels")[self.local]
        self.train_mask_local = bundle.view("train_mask")[self.local]
        self.val_mask_local = bundle.view("val_mask")[self.local]
        #: Private (owned + halo) operands of layers ``k >= 1``, forward
        #: and transposed, at the width the layer gathers.
        self._x: List[Optional[np.ndarray]] = [None] + [
            np.zeros((n_in, spec.width), dtype=np.float32) for spec in layers[1:]
        ]
        self._xg: List[Optional[np.ndarray]] = [None] + [
            np.zeros((n_t, spec.width), dtype=np.float32) for spec in layers[1:]
        ]
        self.weights = [
            (bundle.view(f"w{k}"), bundle.view(f"b{k}")) for k in range(num_layers)
        ]
        #: ``Â h`` of the aggregate-first layers; ``_a[0]`` is kept.
        self._a: List[Optional[np.ndarray]] = [None] * num_layers
        #: Owned rows of each layer's output (ReLU applied in place, so
        #: ``h > 0`` is the activation's sign pattern).
        self._h: List[Optional[np.ndarray]] = [None] * num_layers
        self._gw = [view(f"gw{k}") for k in range(num_layers)]
        self._gb = [view(f"gb{k}") for k in range(num_layers)]
        self._grad_out: Optional[np.ndarray] = None
        self.halo_bytes = 0
        self.exchanges = 0

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        self.halo_bytes = 0
        self.exchanges = 0

    def forward_layer(self, layer: int) -> None:
        layers = self.cfg.layers
        spec = layers[layer]
        nl = self.n_local
        op = self.ops[spec.aggregator][0]
        if layer == 0:
            # Input features are static: gather own + halo rows and
            # aggregate them once, and keep ``Â X`` for the whole run —
            # layer 0 never exchanges and never re-aggregates.
            if self._a[0] is None:
                x = np.concatenate(
                    (self.features[self.local], self.features[self.halo])
                )
                self._a[0] = shard_segment_reduce(op, x)
            agg = self._a[0]
        else:
            x = self._x[layer]
            if not spec.transform_first:
                x[:nl] = self._h[layer - 1]
            # (A transform-first layer's own z rows are already in place.)
            x[nl:] = self.boards_in[layer][self.halo]
            self.halo_bytes += x[nl:].nbytes
            self.exchanges += 1
            agg = shard_segment_reduce(op, x)
            if not spec.transform_first:
                self._a[layer] = agg
        weight, bias = self.weights[layer]
        pre = layer_output(agg, weight, bias, spec.activation, spec.transform_first)
        self._h[layer] = pre
        if self.boards_h[layer] is not None:
            self.boards_h[layer][self.local] = pre
        nxt = layer + 1
        if nxt < len(layers) and layers[nxt].transform_first:
            # The next layer's transform, on the owned rows only: its
            # halo exchange then moves out-wide z rows, not in-wide h.
            self.boards_in[nxt][self.local] = layer_operand(
                pre, self.weights[nxt][0], True, out=self._x[nxt][:nl]
            )

    def loss_grad(self) -> None:
        """Masked cross-entropy partials over the owned rows: the
        trainer's own loss function on this shard's slice of the mask,
        divided by the *global* train count, so shard losses and
        gradients add up to the full-batch ones."""
        mask = self.train_mask_local
        self._loss, self._grad_out, correct = F.cross_entropy_and_correct(
            self._h[-1], self.labels_local, mask, self.cfg.train_count
        )
        self._train_correct = int(correct[mask].sum())
        self._val_correct = (
            int(correct[self.val_mask_local].sum())
            if self.cfg.has_val_mask
            else 0
        )

    def backward_update(self, layer: int) -> None:
        spec = self.cfg.layers[layer]
        grad_pre, _ = grad_pre_activation(  # this runtime's own array
            self._grad_out, self._h[layer], spec.activation, in_place=True,
            grad_b=self._gb[layer],
        )
        # A transform-first layer's grad_W waits for ``Âᵀ grad_pre``.
        _, operand = grads_before_aggregation(
            grad_pre, self._a[layer], self.weights[layer][0],
            need_input_grad=layer > 0, grad_w=self._gw[layer],
            out=self._xg[layer][:self.n_local] if layer else None,
        )
        if layer:  # nothing consumes ∂L/∂features
            self.boards_g[layer][self.local] = operand

    def backward_aggregate(self, layer: int) -> None:
        spec = self.cfg.layers[layer]
        xg = self._xg[layer]
        nl = self.n_local
        xg[nl:] = self.boards_g[layer][self.t_halo]
        self.halo_bytes += xg[nl:].nbytes
        self.exchanges += 1
        grad = shard_segment_reduce(self.ops[spec.aggregator][1], xg)
        if spec.transform_first:
            _, grad = grads_after_aggregation(
                grad, self._h[layer - 1], self.weights[layer][0],
                need_input_grad=True, grad_w=self._gw[layer],
            )
        self._grad_out = grad

    def epoch_result(self) -> Dict:
        """This epoch's scalars; the gradients are in the boards."""
        return {
            "loss": self._loss,
            "train_correct": self._train_correct,
            "val_correct": self._val_correct,
            "halo_bytes": self.halo_bytes,
            "exchanges": self.exchanges,
            "pid": os.getpid(),
        }


def epoch_phases(
    num_layers: int,
) -> Iterator[Tuple[str, Tuple[int, ...], bool]]:
    """One epoch's schedule as ``(phase, args, sync)`` steps: the
    :class:`ShardRuntime` method to call, its arguments, and whether
    every shard must have finished the steps before it — the step
    gathers halo rows that other shards have just written to a board."""
    for layer in range(num_layers):
        yield "forward_layer", (layer,), layer > 0
    yield "loss_grad", (), False
    for layer in range(num_layers - 1, -1, -1):
        yield "backward_update", (layer,), False
        if layer > 0:
            yield "backward_aggregate", (layer,), True


def _run_worker_epoch(runtime: ShardRuntime, barrier) -> Dict:
    """One bulk-synchronous epoch on one shard: :func:`epoch_phases`,
    waiting on ``barrier`` (a ``multiprocessing.Barrier``) before each
    ``sync`` step.  Each phase is looked up on the runtime at call time,
    so a wrapper installed on :class:`ShardRuntime` sees every call."""
    runtime.begin_epoch()
    for phase, args, sync in epoch_phases(len(runtime.cfg.layers)):
        if sync:
            barrier.wait()  # every shard has written the board read next
        getattr(runtime, phase)(*args)
    return runtime.epoch_result()


def _shard_worker_main(part, spec, config, conn, barrier):
    """Persistent process-backend worker: attach once, then one epoch per
    epoch number received on ``conn``, until ``None`` or the parent's end
    closes.  The shards are this run's parallelism: a worker's phases
    run on one lane."""
    lanes.set_lane_count(1)
    bundle = ArrayBundle.attach(spec)
    runtime = ShardRuntime(bundle, part, config)
    try:
        while True:
            try:
                epoch = conn.recv()
            except EOFError:
                break
            if epoch is None:
                break
            try:
                conn.send(("ok", _run_worker_epoch(runtime, barrier)))
            except BaseException:
                barrier.abort()  # unblock peers; they error out too
                conn.send(("error", traceback.format_exc()))
                break
    finally:
        runtime = None
        bundle.close()


class ShardedTrainer:
    """Partition-parallel full-batch trainer.

    Args:
        graph: the full CSR graph (parent-side only; never shipped).
        model: a :class:`GNNModel` with zero dropout (the sharded loop
            has no cross-shard RNG reproducibility story for masks).
        optimizer: steps on the parent model from summed partial grads.
        num_shards: worker/shard count.
        partition_method: ``contiguous`` / ``bfs`` / ``greedy``.
        backend: ``serial`` (interleaved in-process, the reference) or
            ``process`` (shared-memory flagship).
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: GNNModel,
        optimizer: Optimizer,
        num_shards: int = 2,
        partition_method: str = "greedy",
        backend: str = "process",
    ) -> None:
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"backend must be one of {SHARD_BACKENDS}, got {backend!r}"
            )
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        for layer in model.layers:
            if layer.dropout:
                raise ValueError(
                    "sharded training requires dropout=0 on every layer"
                )
        self.graph = graph
        self.model = model
        self.optimizer = optimizer
        self.num_shards = num_shards
        self.partition_method = partition_method
        self.backend = backend
        self.history = TrainingHistory()
        self.partition: Optional[PartitionResult] = None
        self.shards: Optional[List[GraphShard]] = None
        self.setup_bytes: List[int] = []
        self.epoch_message_bytes = 0
        self.last_halo_bytes = 0
        self.last_exchanges = 0
        self._bundle: Optional[ArrayBundle] = None
        self._config: Optional[ShardedConfig] = None
        self._runtimes: List[ShardRuntime] = []
        self._workers: List[mp.Process] = []
        #: The parent's end of each worker's duplex pipe.
        self._conns = []
        self._barrier = None
        self._closed = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _setup(self, features, labels, train_mask, val_mask) -> None:
        tracer = get_tracer()
        metrics = get_metrics()
        graph = self.graph
        n = graph.num_vertices
        with tracer.span(
            "shard.partition", shards=self.num_shards,
            method=self.partition_method,
        ) as span:
            self.partition = edge_cut_partition(
                graph, self.num_shards, method=self.partition_method
            )
            self.shards = build_shards(graph, self.partition.assignment)
            t_shards = build_shards(graph.transpose(), self.partition.assignment)
            edge_cut = self.partition.edge_cut(graph)
            span.set_attr("edge_cut", edge_cut)
            span.set_attr("balance", self.partition.balance)
        if metrics.enabled:
            metrics.set_gauge("shard.workers", float(self.num_shards))
            metrics.set_gauge("shard.partition.edge_cut", float(edge_cut))
            metrics.set_gauge(
                "shard.partition.cut_fraction",
                self.partition.cut_fraction(graph),
            )
            metrics.set_gauge("shard.partition.balance", self.partition.balance)

        specs = tuple(
            LayerSpec(
                in_features=layer.in_features,
                out_features=layer.out_features,
                aggregator=layer.aggregator,
                activation=layer.activation,
                transform_first=transform_first(
                    layer.in_features, layer.out_features, static_input=k == 0
                ),
            )
            for k, layer in enumerate(self.model.layers)
        )
        train_mask_arr = np.ones(n, dtype=bool) if train_mask is None else train_mask
        val_mask_arr = np.zeros(n, dtype=bool) if val_mask is None else val_mask
        self._config = ShardedConfig(
            layers=specs,
            train_count=int(train_mask_arr.sum()),
            val_count=int(val_mask_arr.sum()),
            has_val_mask=val_mask is not None,
        )
        if self._config.train_count == 0:
            raise ValueError("loss mask selects no vertices")

        arrays: Dict[str, np.ndarray] = {
            "x": np.ascontiguousarray(features, dtype=np.float32),
            "labels": np.asarray(labels, dtype=np.int64),
            "train_mask": train_mask_arr,
            "val_mask": val_mask_arr,
        }
        # Exchange boards, each as wide as the rows its layer gathers: a
        # transform-first layer k moves out-wide z{k} / g{k} rows, and
        # nothing ever reads the in-wide h{k-1} it would otherwise need.
        for k, spec in enumerate(specs):
            if self._config.has_h_board(k):
                arrays[f"h{k}"] = np.zeros((n, spec.out_features), dtype=np.float32)
            if k >= 1:
                if spec.transform_first:
                    arrays[f"z{k}"] = np.zeros((n, spec.width), dtype=np.float32)
                arrays[f"g{k}"] = np.zeros((n, spec.width), dtype=np.float32)
        # Weight boards (filled before every epoch) and each shard's
        # weight / bias gradient partials: O(model) bytes per shard.
        for k, layer in enumerate(self.model.layers):
            arrays[f"w{k}"] = layer.weight
            arrays[f"b{k}"] = layer.bias
            for part in range(self.num_shards):
                arrays[f"s{part}.gw{k}"] = np.zeros_like(layer.weight)
                arrays[f"s{part}.gb{k}"] = np.zeros_like(layer.bias)
        t_perm = graph.csc_arrays()[2]
        factor_cache = {
            agg: normalization_factors(graph, agg)
            for agg in self._config.aggregators
        }
        for shard, t_shard in zip(self.shards, t_shards):
            prefix = f"s{shard.part}."
            arrays[prefix + "local"] = shard.local_vertices
            arrays[prefix + "halo"] = shard.halo_vertices
            arrays[prefix + "t_halo"] = t_shard.halo_vertices
            for layout, part_shard in (("", shard), ("t_", t_shard)):
                # Stored in the index dtype scipy runs this layout in
                # (int32 whenever it fits), so the shard operators wrap
                # the shared buffers instead of down-casting them into a
                # private copy per worker.
                dtype = get_index_dtype(maxval=max(
                    part_shard.num_edges,
                    part_shard.num_local + part_shard.num_halo,
                ))
                arrays[prefix + layout + "indptr"] = part_shard.indptr.astype(dtype)
                arrays[prefix + layout + "indices"] = part_shard.indices.astype(dtype)
            for agg, (edge_f, self_f) in factor_cache.items():
                shard_edge_f, shard_self_f = shard_factors(edge_f, self_f, shard)
                arrays[f"{prefix}ef.{agg}"] = shard_edge_f
                arrays[f"{prefix}sf.{agg}"] = shard_self_f
                # Âᵀ edge factors: permute into the transposed edge
                # layout, then restrict to the transposed shard's edges.
                arrays[f"{prefix}tef.{agg}"] = np.ascontiguousarray(
                    edge_f[t_perm][t_shard.edge_positions]
                )

        self._bundle = ArrayBundle.create(arrays, shared=self.backend == "process")
        if self.backend == "process":
            self._start_workers()
        else:
            self._runtimes = [
                ShardRuntime(self._bundle, part, self._config)
                for part in range(self.num_shards)
            ]
            self.setup_bytes = [
                len(pickle.dumps(self._config))
            ] * self.num_shards
        if metrics.enabled:
            metrics.set_gauge(
                "shard.setup_bytes_max", float(max(self.setup_bytes))
            )

    def _start_workers(self) -> None:
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        spec = self._bundle.spec()
        self._barrier = ctx.Barrier(self.num_shards)
        self.setup_bytes = []
        for part in range(self.num_shards):
            conn, child_conn = ctx.Pipe()
            # The whole per-worker payload: bundle spec + config.  Its
            # pickled size is O(#arrays), independent of graph size —
            # the zero-copy guarantee the tests assert on.
            self.setup_bytes.append(len(pickle.dumps((part, spec, self._config))))
            worker = ctx.Process(
                target=_shard_worker_main,
                args=(part, spec, self._config, child_conn, self._barrier),
                daemon=True,
                name=f"shard-worker-{part}",
            )
            worker.start()
            # The worker's end lives in the worker only, so its death
            # reads as EOF here.
            child_conn.close()
            self._conns.append(conn)
            self._workers.append(worker)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        train_mask: Optional[np.ndarray] = None,
        val_mask: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` full-batch epochs across all shards.

        Each mask must be ``None`` or a 1-D ``bool`` array with one entry
        per vertex, as for ``Trainer`` (:func:`repro.nn.functional.check_mask`).
        """
        n = self.graph.num_vertices
        train_mask = F.check_mask(train_mask, n, "train_mask")
        val_mask = F.check_mask(val_mask, n, "val_mask")
        if self._bundle is None:
            self._setup(features, labels, train_mask, val_mask)
        for _ in range(epochs):
            self.train_epoch()
        return self.history

    def train_epoch(self) -> EpochResult:
        if self._bundle is None:
            raise RuntimeError("call fit() first — the trainer is not set up")
        tracer = get_tracer()
        metrics = get_metrics()
        epoch = len(self.history.epochs)
        start = time.perf_counter()
        with tracer.span("shard.epoch", epoch=epoch) as span:
            for k, layer in enumerate(self.model.layers):
                np.copyto(self._bundle.view(f"w{k}"), layer.weight)
                np.copyto(self._bundle.view(f"b{k}"), layer.bias)
            if self.backend == "process":
                results = self._run_epoch_process(epoch)
            else:
                results = self._run_epoch_serial()
            result = self._combine(epoch, results)
            wall_s = time.perf_counter() - start
            self.last_halo_bytes = sum(r["halo_bytes"] for r in results)
            self.last_exchanges = sum(r["exchanges"] for r in results)
            span.set_attr("loss", result.loss)
            span.set_attr("halo_bytes", self.last_halo_bytes)
            if metrics.enabled:
                self._publish(metrics, result, results, wall_s)
        self.history.epochs.append(result)
        return result

    def _run_epoch_serial(self) -> List[Dict]:
        """Phase-interleaved reference execution of :func:`epoch_phases`:
        each step runs on every runtime before the next step starts,
        which is what the process backend's barriers enforce."""
        runtimes = self._runtimes
        for runtime in runtimes:
            runtime.begin_epoch()
        for phase, args, _ in epoch_phases(len(self._config.layers)):
            for runtime in runtimes:
                getattr(runtime, phase)(*args)
        return [runtime.epoch_result() for runtime in runtimes]

    def _run_epoch_process(self, epoch: int) -> List[Dict]:
        if not self.epoch_message_bytes:
            self.epoch_message_bytes = len(pickle.dumps(epoch))
        for conn in self._conns:
            conn.send(epoch)
        results: List[Optional[Dict]] = [None] * self.num_shards
        failures = []
        pending = set(range(self.num_shards))
        deadline = time.monotonic() + _RESULT_TIMEOUT_S
        while pending:
            # A worker's pipe is ready when it sends or dies, and its
            # sentinel when it exits: either wakes the parent at once.
            handles = {self._conns[part]: part for part in pending}
            handles.update({self._workers[part].sentinel: part for part in pending})
            ready = wait(list(handles), timeout=max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RuntimeError(
                    f"shard epoch timed out; no result from {sorted(pending)}"
                )
            for part in sorted({handles[handle] for handle in ready}):
                conn = self._conns[part]
                # An exited worker's result may still be in the pipe, and
                # poll() is True at EOF too: only recv() tells them apart.
                try:
                    if not conn.poll():
                        raise EOFError
                    status, payload = conn.recv()
                except EOFError:
                    self._abort_epoch(part)
                pending.discard(part)
                if status == "ok":
                    results[part] = payload
                else:
                    failures.append((part, payload))
        if failures:
            # Every traceback: the peers' BrokenBarrierErrors can arrive
            # before the one that caused them.
            raise RuntimeError("\n".join(
                f"shard worker {part} failed:\n{trace}" for part, trace in failures
            ))
        return results

    def _abort_epoch(self, part: int) -> None:
        """Worker ``part`` is dead with its epoch unreported: release the
        peers blocked on it and fail the epoch.  ``close()`` still works
        afterwards (and is the only thing that should be called)."""
        self._barrier.abort()
        worker = self._workers[part]
        worker.join(timeout=1.0)  # its pipe can close just before it is reaped
        exitcode = worker.exitcode
        logger.error(
            "shard worker %d (pid %s) died with exit code %s mid-epoch",
            part, worker.pid, exitcode,
        )
        get_metrics().inc("shard.worker_deaths")
        raise ShardWorkerDied(part, exitcode)

    def _combine(self, epoch: int, results: List[Dict]) -> EpochResult:
        cfg = self._config
        loss = sum(r["loss"] for r in results)
        train_acc = (
            sum(r["train_correct"] for r in results) / cfg.train_count
        )
        val_acc = (
            sum(r["val_correct"] for r in results) / cfg.val_count
            if cfg.has_val_mask and cfg.val_count
            else None
        )
        grads = []
        view = self._bundle.view
        for k, layer in enumerate(self.model.layers):
            # Deterministic reduction: the shards' partial boards summed
            # in worker order at float64, like the paper's per-thread
            # partial buffers.
            grad_w = np.zeros(layer.weight.shape, dtype=np.float64)
            grad_b = np.zeros(layer.bias.shape, dtype=np.float64)
            for part in range(self.num_shards):
                grad_w += view(f"s{part}.gw{k}")
                grad_b += view(f"s{part}.gb{k}")
            grads.append(
                LayerGrads(
                    weight=grad_w.astype(np.float32),
                    bias=grad_b.astype(np.float32),
                )
            )
        self.optimizer.step(grads)
        return EpochResult(
            epoch=epoch,
            loss=float(loss),
            train_accuracy=float(train_acc),
            val_accuracy=val_acc,
        )

    def _publish(self, metrics, result, results, wall_s: float) -> None:
        metrics.set_gauge("shard.epoch", float(result.epoch))
        metrics.set_gauge("shard.loss", float(result.loss))
        metrics.inc("shard.halo_bytes", sum(r["halo_bytes"] for r in results))
        metrics.inc("shard.exchanges", sum(r["exchanges"] for r in results))
        metrics.observe("shard.epoch_time_s", wall_s)
        if self.epoch_message_bytes:
            metrics.set_gauge(
                "shard.epoch_message_bytes", float(self.epoch_message_bytes)
            )

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    def logits(self) -> np.ndarray:
        """Final-layer board after the last epoch's forward (all rows)."""
        if self._bundle is None:
            raise RuntimeError("trainer is not set up")
        return np.array(self._bundle.view(f"h{len(self._config.layers) - 1}"))

    def worker_pids(self) -> List[int]:
        return [worker.pid for worker in self._workers]

    def close(self) -> None:
        """Stop workers and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # that worker has already exited
                pass
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._runtimes = []
        if self._bundle is not None:
            self._bundle.close()
            self._bundle.unlink()
            self._bundle = None

    def __enter__(self) -> "ShardedTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

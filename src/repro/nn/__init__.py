"""GNN numerics: layers, models, optimizers, full-batch training."""

from .aggregate import (
    AGGREGATORS,
    aggregate,
    aggregate_backward,
    gather_reduce_reference,
    normalization_factors,
    normalized_adjacency,
)
from .functional import (
    accuracy,
    cross_entropy,
    cross_entropy_and_correct,
    dropout,
    dropout_grad,
    softmax,
    xavier_uniform,
)
from .layers import GNNLayer, LayerCache, LayerGrads
from .model import GNNModel, Workspace, build_model
from .optim import Adam, Optimizer, SGD
from .training import (
    EpochResult,
    Trainer,
    TrainingHistory,
    train_val_split,
)

__all__ = [
    "AGGREGATORS",
    "aggregate",
    "aggregate_backward",
    "gather_reduce_reference",
    "normalization_factors",
    "normalized_adjacency",
    "accuracy",
    "cross_entropy",
    "cross_entropy_and_correct",
    "dropout",
    "dropout_grad",
    "softmax",
    "xavier_uniform",
    "GNNLayer",
    "LayerCache",
    "LayerGrads",
    "GNNModel",
    "Workspace",
    "build_model",
    "Adam",
    "Optimizer",
    "SGD",
    "EpochResult",
    "Trainer",
    "TrainingHistory",
    "train_val_split",
]

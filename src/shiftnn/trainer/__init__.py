from .gradients import threshold_grad, threshold_grad_from_trace
from .loop import (
    EpochMetrics,
    TrainSettings,
    TrainState,
    evaluate,
    init_train_state,
    k_statistics,
    quantize_weights,
    train_batch,
    train_epoch,
    train_model,
)
from .regularizer import layer_reg_grad, layer_reg_loss
from .sweep import SweepCell, cell_to_point, run_cell, sweep_lambda

__all__ = [
    "EpochMetrics",
    "SweepCell",
    "TrainSettings",
    "TrainState",
    "cell_to_point",
    "evaluate",
    "init_train_state",
    "k_statistics",
    "layer_reg_grad",
    "layer_reg_loss",
    "quantize_weights",
    "run_cell",
    "sweep_lambda",
    "threshold_grad",
    "threshold_grad_from_trace",
    "train_batch",
    "train_epoch",
    "train_model",
]

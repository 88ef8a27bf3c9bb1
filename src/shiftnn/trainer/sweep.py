"""Lambda sweeps: one trained model per (lambda, seed) grid cell."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..costmodel import CostReport, ParetoPoint, cost_report
from ..errors import ConfigError, DataError, ShiftNNError
from ..nn.network import NetworkConfig, build_network
from .loop import (
    TrainSettings,
    evaluate,
    init_train_state,
    k_statistics,
    model_weights,
    train_model,
)


@dataclass
class SweepCell:
    lambdas: tuple
    seed: int
    accuracy: float | None
    mean_k: float | None
    cost: CostReport | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_cell(net_config: NetworkConfig, settings: TrainSettings, data) -> SweepCell:
    """Train one model and report the accuracy and cost of the model its mode trains.

    data is (train_x, train_y, test_x, test_y); DataError if it is not four items.
    A float-mode cell records lambdas (): no regularizer acts in float mode, and
    mean_k None, as it has no k_i (a NaN would keep two equal cells unequal)."""
    try:
        train_x, train_y, test_x, test_y = data
    except (TypeError, ValueError) as exc:
        raise DataError(f"data must be (train_x, train_y, test_x, test_y): {exc}") from exc
    lambdas = () if settings.mode == "float" else tuple(settings.lambdas)
    try:
        net, params, bn_state = build_network(net_config, settings.seed)
        ts = init_train_state(net, params, bn_state, settings)
        train_model(ts, train_x, train_y)
        weights, qinfo = model_weights(ts)
        acc = evaluate(net, weights, ts.bn_state, test_x, test_y, settings.batch_size)
        mean_k = k_statistics(qinfo, settings.max_k)[0] if qinfo else None
        cost = cost_report(net, {name: q for name, (q, _) in qinfo.items()}) if qinfo else cost_report(net)
        return SweepCell(lambdas, settings.seed, acc, mean_k, cost)
    except (ShiftNNError, FloatingPointError) as exc:
        return SweepCell(lambdas, settings.seed, None, None, None, str(exc))


def sweep_lambda(net_config, base: TrainSettings, data, lambda_list, seeds):
    """Grid of training runs; failures are recorded per cell, not raised."""
    lambda_list, seeds = list(lambda_list), list(seeds)  # seeds are read once per lambda
    if not (lambda_list and seeds):
        raise ConfigError(f"sweep needs lambdas and seeds, got {lambda_list!r} and {seeds!r}")
    cells = []
    for lambdas in lambda_list:
        for seed in seeds:
            settings = replace(base, lambdas=lambdas, seed=seed).validate()
            cells.append(run_cell(net_config, settings, data))
    return cells


def cell_to_point(cell: SweepCell, model_id: str) -> ParetoPoint:
    if not cell.ok:
        raise ConfigError(f"cell failed: {cell.error}")
    return ParetoPoint(
        model_id=model_id,
        lambdas=cell.lambdas,
        seed=cell.seed,
        accuracy=cell.accuracy,
        storage_bits=cell.cost.storage_bits,
        shifts=cell.cost.shift_count,
        adds=cell.cost.add_count,
        multiplies=cell.cost.multiply_count,
        mean_k=cell.mean_k,
    )

"""Storage and operation-count accounting plus Pareto utilities.

Storage counts quantized weight payload bits exactly as packed (term
codes, per-filter k_i headers, byte padding), or raw bits-per-weight for
unquantized baselines; biases and batch-norm parameters are excluded
throughout.  Operation counts cover the multiply replacements (shifts
plus extra adds) and the accumulation adds of conv/dense layers; pooling
and activations are not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .nn.network import Network
from . import packing


@dataclass
class LayerCost:
    name: str
    positions: int  # output positions per image
    volume: int  # weights per filter
    filters: int
    shifts: int
    adds: int
    multiplies: int


@dataclass
class CostReport:
    storage_bits: int
    shift_count: int
    add_count: int
    multiply_count: int
    per_layer: list = field(default_factory=list)


def op_counts(net: Network, k_map=None) -> CostReport:
    """Per-inference operation counts for one input image.

    k_map maps each weight name to a per-filter k_i vector (or a scalar
    applied to every filter) of integers in [0, packing.MAX_K].  With no
    k_map the model is costed as a multiplier design (full-precision or
    fixed-point): one multiply per MAC and no shifts.  Pruned filters
    (k_i = 0) drop both their shifts and their accumulation adds.
    Shortcut adds count one add per element of the destination map.
    """
    per_layer = []
    shifts = adds = mults = 0
    for layer, out_shape in net.kernels():
        name = layer.weight_name
        P, V, F = math.prod(out_shape[1:]), layer.fan_in, out_shape[0]
        if k_map is None:
            l_shift = 0
            l_mult = P * V * F
            l_add = P * F * (V - 1 + layer.bias)
        else:
            if name not in k_map:
                raise ConfigError(f"k map has no entry for {name}")
            k_i = np.asarray(k_map[name])
            k_i = np.full(F, k_i) if k_i.ndim == 0 else k_i
            if k_i.shape != (F,):
                raise ConfigError(f"{name}: k map has shape {k_i.shape}, expected ({F},)")
            top = packing.MAX_K
            if not np.issubdtype(k_i.dtype, np.integer) or not 0 <= k_i.min() <= k_i.max() <= top:
                raise ConfigError(f"{name}: k_i must be integers in [0, {top}], got {k_i}")
            filters_with = np.bincount(k_i.astype(np.intp), minlength=top + 1).tolist()  # by k
            terms = sum(k * count for k, count in enumerate(filters_with))
            live = F - filters_with[0]
            l_shift, l_mult = P * V * terms, 0
            l_add = P * V * (terms - live) + P * (V - 1 + layer.bias) * live
        per_layer.append(LayerCost(name, P, V, F, l_shift, l_add, l_mult))
        shifts += l_shift
        adds += l_add
        mults += l_mult
    # one add per destination element of each shortcut
    for dst in net.skips:
        adds += math.prod(net.node_shapes[dst])
    return CostReport(
        storage_bits=0,
        shift_count=shifts,
        add_count=adds,
        multiply_count=mults,
        per_layer=per_layer,
    )


def cost_report(net: Network, qlayers_by_name: dict | None = None, bits_per_weight=32):
    """Full report: quantized if qlayers are given, multiplier baseline otherwise.

    The baseline stores every quantizable weight in bits_per_weight bits.
    """
    if qlayers_by_name is None:
        report = op_counts(net)
        weights = sum(math.prod(layer.weight_shape) for layer, _ in net.kernels())
        report.storage_bits = weights * bits_per_weight
        return report
    k_map = {name: q.k_i for name, q in qlayers_by_name.items()}
    report = op_counts(net, k_map)
    report.storage_bits = packing.storage_bits([qlayers_by_name[name] for name in net.weight_names])
    return report


@dataclass
class ParetoPoint:
    model_id: str
    lambdas: tuple  # (lambda_0, ..., lambda_{k-1}) of the regularizer
    seed: int
    accuracy: float
    storage_bits: int
    shifts: int
    adds: int
    multiplies: int
    mean_k: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigError(f"accuracy must be in [0, 1], got {self.accuracy}")


def pareto_front(points, cost_attr="storage_bits"):
    """Points not dominated in (accuracy up, cost down), ordered by cost.

    A point survives unless another point is at least as accurate and at
    least as cheap with one of the two strict; exact duplicates of a
    surviving point survive with it.
    """
    if not points:
        raise ConfigError("pareto_front needs at least one point")
    order = sorted(range(len(points)), key=lambda i: (getattr(points[i], cost_attr), -points[i].accuracy))
    kept = []
    best_acc = -np.inf
    best_cost = None
    for i in order:
        p = points[i]
        cost = getattr(p, cost_attr)
        if p.accuracy > best_acc:
            kept.append(p)
            best_acc = p.accuracy
            best_cost = cost
        elif p.accuracy == best_acc and cost == best_cost:
            kept.append(p)
    return kept

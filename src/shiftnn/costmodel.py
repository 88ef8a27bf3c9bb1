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
    Every k_i is concatenated once, for one range check and each layer's sums.
    """
    kernels = net.kernels()
    F = [out_shape[0] for _, out_shape in kernels]
    terms = live = F  # a multiplier design: one term in every filter
    if k_map is not None:
        ks = []
        try:
            for name, f in zip(net.weight_names, F):
                if name not in k_map:
                    raise ConfigError(f"k map has no entry for {name}")
                k_i = np.asarray(k_map[name])
                k_i = np.full(f, k_i) if k_i.ndim == 0 else k_i
                if k_i.shape != (f,):
                    raise ConfigError(f"{name}: k map has shape {k_i.shape}, expected ({f},)")
                ks.append(k_i)
        finally:  # a k_i of an earlier layer that does not fit is the first error
            bad, k_all = packing._fitting_k(ks)
            if bad < len(ks):
                raise ConfigError(f"{net.weight_names[bad]}: k_i must be integers in "
                                  f"[0, {packing.MAX_K}], got {ks[bad]}")
        terms, live = packing._run_sums(k_all, F), packing._run_sums(k_all > 0, F)
    per_layer = []
    for (layer, out_shape), f, t, l in zip(kernels, F, terms, live):
        P, V = math.prod(out_shape[1:]), layer.fan_in
        macs, adds = P * V * t, P * V * (t - l) + P * (V - 1 + layer.bias) * l
        shifts, mults = (0, macs) if k_map is None else (macs, 0)
        per_layer.append(LayerCost(layer.weight_name, P, V, f, shifts, adds, mults))
    skip_adds = sum(math.prod(net.node_shapes[dst]) for dst in net.skips)  # one per element
    return CostReport(storage_bits=0, shift_count=sum(c.shifts for c in per_layer),
                      add_count=sum(c.adds for c in per_layer) + skip_adds,
                      multiply_count=sum(c.multiplies for c in per_layer), per_layer=per_layer)


def cost_report(net: Network, qlayers_by_name: dict | None = None, bits_per_weight=32):
    """Full report: quantized if qlayers are given, multiplier baseline otherwise.

    The baseline stores every quantizable weight in bits_per_weight bits.
    ConfigError when a quantized layer does not have its weight's shape.
    """
    if qlayers_by_name is None:
        report = op_counts(net)
        weights = sum(math.prod(layer.weight_shape) for layer, _ in net.kernels())
        report.storage_bits = weights * bits_per_weight
        return report
    k_map = {name: q.k_i for name, q in qlayers_by_name.items()}
    report = op_counts(net, k_map)  # checks that every weight has a layer of as many filters
    qlayers = []
    for layer, _ in net.kernels():
        q = qlayers_by_name[layer.weight_name]
        if q.filter_shape != layer.weight_shape[1:]:
            raise ConfigError(f"{layer.weight_name}: quantized filters have shape {q.filter_shape}, "
                              f"expected {layer.weight_shape[1:]}")
        qlayers.append(q)
    report.storage_bits = packing.storage_bits(qlayers)
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
    mean_k: float | None  # None for a float model, which has no k_i

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

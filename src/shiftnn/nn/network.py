"""Network graph: an ordered layer chain plus optional shortcut adds."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericError
from .layers import (BatchNorm2D, Conv2D, Dense, Flatten, Kernel, LeakyReLU, MaxPool2D, Workspace,
                     _require_int)


@dataclass
class LayerSpec:
    """One layer of a NetworkConfig: a kind and that kind's arguments.

    args are the keyword arguments of the kind's layer class (layer name
    aside), with the defaults the class gives them, less the one argument
    the input shape fixes, which the network supplies:

    - conv2d (Conv2D): out_channels, kernel, stride and pad; in_channels is
      the input's channel count;
    - batchnorm (BatchNorm2D): none; channels is the input's channel count;
    - dense (Dense): out_features; in_features is the flattened input's length;
    - maxpool (MaxPool2D): size;
    - leaky-relu (LeakyReLU), flatten (Flatten): none.
    """

    kind: str
    args: dict = field(default_factory=dict)


@dataclass
class SkipSpec:
    """Adds the output of node `src` into the output of layer `dst`.

    A 1x1 projection convolution is inserted automatically when the two
    node shapes differ.
    """

    src: int
    dst: int


@dataclass
class NetworkConfig:
    id: str
    input_shape: tuple
    classes: int
    layers: list
    skips: list = field(default_factory=list)


# kind -> (layer class, the argument the input shape fixes, input rank the layer takes)
_KINDS = {
    "conv2d": (Conv2D, "in_channels", 3),
    "batchnorm": (BatchNorm2D, "channels", 3),
    "leaky-relu": (LeakyReLU, None, None),
    "maxpool": (MaxPool2D, None, 3),
    "flatten": (Flatten, None, None),
    "dense": (Dense, "in_features", 1),
}


def _build_layer(i, spec: LayerSpec, in_shape):
    """The layer of spec, given its input shape; ConfigError names what is wrong."""
    name = f"L{i}"
    if spec.kind not in _KINDS:
        raise ConfigError(f"unknown layer kind {spec.kind!r}")
    cls, fixed, rank = _KINDS[spec.kind]
    if rank is not None and len(in_shape) != rank:
        needs = "flattened input" if rank == 1 else "a (C, H, W) feature map"
        raise ConfigError(f"{name}: {spec.kind} needs {needs}, got shape {in_shape}")
    params = dict(inspect.signature(cls).parameters)
    del params["name"]
    for key in spec.args:
        if key not in params:
            raise ConfigError(f"{name}: unknown {spec.kind} argument {key!r}")
        if key == fixed:
            raise ConfigError(f"{name}: {spec.kind} argument {key!r} is fixed by the input shape")
    for key, p in params.items():
        if key != fixed and key not in spec.args and p.default is p.empty:
            raise ConfigError(f"{name}: {spec.kind} needs argument {key!r}")
    args = dict(spec.args)
    if fixed is not None:
        args[fixed] = in_shape[0]
    return cls(name, **args)


class Network:
    """Executable network with externally held parameters.

    Fixed when the network is built:

    - skips maps each layer that receives a shortcut to (src, projection):
      the output of node src is added to that layer's output, through a
      1x1 Conv2D projection where the two node shapes differ, or as it is
      (projection None) where they are equal;
    - weight_names lists the quantizable weights (conv and dense kernels in
      layer order, then the projections' by destination);
    - param_names lists weight_names, then every other parameter in
      param_shapes order.

    Parameters and state are initialised in float32.  Train steps run in a
    Workspace the network owns, so that a warm step reuses the memory of the
    step before it; a network therefore runs one train step at a time.
    """

    dtype = np.float32

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.layers = []
        if not config.layers:
            raise ConfigError(f"network {config.id!r} has no layers")
        self.input_shape = shape = tuple(
            _require_int(f"network {config.id!r}", "input_shape", d, 1) for d in config.input_shape)
        node_shapes = []  # node i = output of layer i
        for i, spec in enumerate(config.layers):
            layer = _build_layer(i, spec, shape)
            shape = layer.out_shape(shape)
            self.layers.append(layer)
            node_shapes.append(shape)
        self.node_shapes = node_shapes
        if node_shapes[-1] != (config.classes,):
            raise ConfigError(
                f"network output shape {node_shapes[-1]} does not match {config.classes} classes"
            )
        self.skips = {}
        for j, skip in enumerate(config.skips):
            if not (0 <= skip.src < skip.dst < len(self.layers)):
                raise ConfigError(f"skip {j}: invalid endpoints {skip.src}->{skip.dst}")
            if skip.dst in self.skips:
                raise ConfigError(f"skip {j}: layer {skip.dst} already receives a skip")
            s_src, s_dst = node_shapes[skip.src], node_shapes[skip.dst]
            if len(s_src) != 3 or len(s_dst) != 3:
                raise ConfigError(f"skip {j}: endpoints must be feature maps")
            proj = None
            if s_src != s_dst:
                stride = s_src[1] // s_dst[1]
                if stride * s_dst[1] != s_src[1] or stride * s_dst[2] != s_src[2]:
                    raise ConfigError(f"skip {j}: shapes {s_src} -> {s_dst} are incompatible")
                proj = Conv2D(f"S{j}", s_src[0], s_dst[0], kernel=1, stride=stride)
            self.skips[skip.dst] = (skip.src, proj)
        self._skip_srcs = {src for src, _ in self.skips.values()}
        self.weight_names = [layer.weight_name for layer, _ in self.kernels()]
        weights = set(self.weight_names)
        self.param_names = self.weight_names + [n for n in self.param_shapes() if n not in weights]
        self._workspace = Workspace()
        self._generation = 0  # train forwards so far; a cache records its own

    # --- parameter management -------------------------------------------------

    def _all_layers(self):
        """(layer, output shape) of the chain, then of the projections by destination."""
        yield from zip(self.layers, self.node_shapes)
        for dst, (_, proj) in sorted(self.skips.items()):
            if proj is not None:
                yield proj, self.node_shapes[dst]

    def kernels(self):
        """(layer, output shape) of each quantizable layer, in weight_names order."""
        return [(layer, shape) for layer, shape in self._all_layers() if isinstance(layer, Kernel)]

    def param_shapes(self):
        shapes = {}
        for layer, _ in self._all_layers():
            shapes.update(layer.param_shapes())
        return shapes

    def init_params(self, seed):
        rng = np.random.default_rng(seed)
        params = {}
        for layer, _ in self._all_layers():
            params.update(layer.init_params(rng, self.dtype))
        return params

    def init_state(self):
        state = {}
        for layer in self.layers:
            state.update(layer.init_state(self.dtype))
        return state

    def check_params(self, params):
        for name, shape in self.param_shapes().items():
            if name not in params:
                raise ConfigError(f"missing parameter {name}")
            if tuple(params[name].shape) != shape:
                raise ConfigError(
                    f"parameter {name} has shape {params[name].shape}, expected {shape}"
                )

    # --- execution --------------------------------------------------------------

    def forward(self, x, params, state, train=False):
        """Run the network; returns (logits, cache) for a later backward.

        state holds the batch-norm running statistics, which a train forward
        updates in place.  Only a train forward keeps the layer caches that
        backward reads; an eval forward builds none and returns None as its
        cache.  A train cache serves one backward, and only until the next
        train forward on this network: both reuse its memory.  It refers to
        each conv's input, x among them, not a copy, so x must not change
        before backward, which consumes the cache.  An eval forward leaves it
        valid; it keeps no buffers, and drops those of the train steps that no
        cache holds.
        """
        x = np.asarray(x)
        if x.shape[1:] != self.input_shape:
            raise ConfigError(f"input shape {x.shape[1:]} does not match network input "
                              f"{self.input_shape}")
        if len(x) == 0:
            raise ConfigError("a forward needs at least one sample")
        if train:
            self._generation += 1
            ws = self._workspace
        else:
            # an eval batch may be larger than a train batch: its buffers are
            # not kept, and the train buffers are not kept beside them.  Keeping
            # them spares the next train step its faults (mnist2: 5,260 -> 360,
            # 34.7 -> 27.2 ms) but raised the benchmark's train-mnist2 peak RSS
            # 71.2 -> 101.5 MB and made net2's warm steps fault ~6,000 times.
            self._workspace, ws = Workspace(), None
        caches = []
        skip_caches = {}
        sources = {}  # node index -> output, for the nodes a skip reads
        out = x
        for i, layer in enumerate(self.layers):
            out, cache = layer.forward(out, params, state, train, ws=ws)
            if train:
                caches.append(cache)
            if i in self.skips:
                src, proj = self.skips[i]
                branch, pcache = sources[src], None
                if proj is not None:
                    branch, pcache = proj.forward(branch, params, state, train, ws=ws)
                out = out + branch
                if train:
                    skip_caches[i] = pcache
            if i in self._skip_srcs:
                sources[i] = out
        if not np.isfinite(out).all():
            raise NumericError("non-finite network output")
        if not train:
            return out, None
        if ws.holds(out):
            out = out.copy()
        return out, {"net": self, "generation": self._generation, "caches": caches,
                     "skip_caches": skip_caches, "batch": x.shape[0]}

    def backward(self, cache, dlogits, params):
        """The gradient of every parameter, by name, from a forward cache.

        The input gradient is not computed: layer 0 is asked for none.  The
        cache must come from this network's latest train forward and not
        have been through backward yet: either would have overwritten the
        arrays it points to.  It consumes the cache, dropping each layer's entry
        once that layer has run, so activations are freed as it goes.  None of
        the returned arrays is workspace memory.
        Node gradients live in the workspace until their layer has run backward:
        the chain's in two GRADS areas, those that skips read in the lowest free
        skip slot, where later gradients add in place (the bits of before + dx).
        """
        if not isinstance(cache, dict) or cache.get("net") is not self:
            raise ConfigError("cache does not belong to this network's forward pass")
        if cache["generation"] != self._generation:
            raise ConfigError("stale cache: a later train forward or backward has reused its memory")
        if dlogits.shape[0] != cache["batch"]:
            raise ConfigError("logit gradient batch size does not match the cached forward")
        cache["generation"] = None
        ws = self._workspace
        # sized before any activation is freed: an area grown later takes a freed activation's
        # place, and the next step's activations land at the heap top, trimmed and refaulted
        size = cache["batch"] * max((int(np.prod(s)) for s in self.node_shapes[:-1]), default=0)
        for key in Workspace.GRADS:
            ws.array(key, (size,), dlogits.dtype)
        grads = {}
        node_grads = [None] * (len(self.layers) - 1) + [dlogits]
        slots = {}  # node -> the skip slot that holds its gradient
        for i in range(len(self.layers) - 1, -1, -1):
            g = node_grads[i]
            if i in self.skips:
                src, proj = self.skips[i]
                pcache = cache["skip_caches"].pop(i)
                branch_grad, pgrads = (g, {}) if proj is None else proj.backward(g, pcache, params, ws=ws)
                grads.update(pgrads)
                if node_grads[src] is None:  # skips reach src before its chain gradient does
                    slots[src] = min(set(range(len(slots) + 1)) - set(slots.values()))
                    key = Workspace.SKIP.format(slots[src])
                    node_grads[src] = ws.array(key, branch_grad.shape, branch_grad.dtype)
                    np.copyto(node_grads[src], branch_grad)
                else:
                    node_grads[src] += branch_grad
            dx, layer_grads = self.layers[i].backward(g, cache["caches"][i], params, ws=ws, need_dx=i > 0)
            cache["caches"][i] = None  # frees the activations only this layer read
            grads.update(layer_grads)  # each parameter belongs to one layer
            slots.pop(i, None)
            if i > 0:
                before = node_grads[i - 1]
                node_grads[i - 1] = dx if before is None else np.add(before, dx, out=before)
        return grads


def build_network(config: NetworkConfig, seed):
    """Construct a network and deterministically initialize its parameters."""
    net = Network(config)
    params = net.init_params(seed)
    state = net.init_state()
    return net, params, state

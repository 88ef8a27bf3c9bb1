"""Built-in network configurations.

net1/net2/net4 follow the published depth/width settings at CIFAR scale;
mnist2 is the small two-conv network used by the desk-scale training
runs.  Every convolution is followed by batch norm and Leaky ReLU.
"""

from __future__ import annotations

from ..errors import ConfigError
from .network import LayerSpec, NetworkConfig, SkipSpec


def _conv(cout, stride=1):
    return LayerSpec("conv2d", {"out_channels": cout, "kernel": 3, "stride": stride, "pad": 1})


def _bn():
    return LayerSpec("batchnorm", {})


def _act():
    return LayerSpec("leaky-relu", {})


def _pool(size=2):
    return LayerSpec("maxpool", {"size": size})


def _head(classes):
    return [LayerSpec("flatten", {}), LayerSpec("dense", {"out_features": classes})]


def _vgg(net_id, conv_widths, pool_after, input_shape, classes, final_pool=None):
    layers = []
    for i, w in enumerate(conv_widths):
        layers += [_conv(w), _bn(), _act()]
        if i + 1 in pool_after:
            layers.append(_pool())
    if final_pool:
        layers.append(_pool(final_pool))
    layers += _head(classes)
    return NetworkConfig(net_id, input_shape, classes, layers, [])


def _resnet(net_id, widths, blocks_per_stage, input_shape, classes):
    layers = [_conv(widths[0]), _bn(), _act()]
    skips = []
    src = 2  # stem output node
    for stage, w in enumerate(widths):
        for b in range(blocks_per_stage):
            stride = 2 if stage > 0 and b == 0 else 1
            base = len(layers)
            layers += [_conv(w, stride), _bn(), _act(), _conv(w), _bn(), _act()]
            skips.append(SkipSpec(src, base + 4))
            src = base + 5
    spatial = input_shape[1] // 2 ** (len(widths) - 1)
    layers.append(_pool(spatial))
    layers += _head(classes)
    return NetworkConfig(net_id, input_shape, classes, layers, skips)


def _build_net1():
    return _vgg("net1", [8, 16, 16, 32, 32, 64, 64], {2, 4, 7}, (3, 32, 32), 10)


def _build_net2():
    return _resnet("net2", [16, 32, 64, 128], 2, (3, 32, 32), 10)


def _build_net4():
    return _vgg("net4", [16, 32, 32, 64], {1, 2, 3}, (3, 32, 32), 10, final_pool=4)


def _build_mnist2():
    layers = [_conv(8), _bn(), _act(), _pool(), _conv(16), _bn(), _act(), _pool()] + _head(10)
    return NetworkConfig("mnist2", (1, 28, 28), 10, layers, [])


PRESETS = {
    "net1": _build_net1,
    "net2": _build_net2,
    "net4": _build_net4,
    "mnist2": _build_mnist2,
}


def get_preset(name: str) -> NetworkConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()

"""Power-of-2 quantized CNNs with learned per-filter shift counts."""

__version__ = "0.1.0"

from .quant import (
    ExponentRange,
    QuantizedLayer,
    ResidualTrace,
    quantize_layer,
    round_pow2,
)

__all__ = [
    "ExponentRange",
    "QuantizedLayer",
    "ResidualTrace",
    "quantize_layer",
    "round_pow2",
    "__version__",
]

"""Exception types shared across the package."""


class ShiftNNError(Exception):
    """Base class for all shiftnn errors."""


class ConfigError(ShiftNNError, ValueError):
    """Invalid network/run configuration or incompatible shapes."""


class NumericError(ShiftNNError):
    """Non-finite values produced where finite values are required."""


class DataError(ShiftNNError, ValueError):
    """Unusable data: an empty evaluation set, or labels out of range or of the wrong shape."""


class PackingError(ShiftNNError):
    """Quantized weight stream encoding/decoding failure."""

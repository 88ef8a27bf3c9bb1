"""Exception types shared across the package."""


class ShiftNNError(Exception):
    """Base class for all shiftnn errors."""


class ConfigError(ShiftNNError):
    """Invalid network/run configuration or incompatible shapes."""


class NumericError(ShiftNNError):
    """Non-finite values produced where finite values are required."""


class DataError(ShiftNNError):
    """Unusable dataset: bad magic, truncation, label range, or no samples."""


class PackingError(ShiftNNError):
    """Quantized weight stream encoding/decoding failure."""


class ModelFileError(ShiftNNError):
    """Model container parse or version failure."""

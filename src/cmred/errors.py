"""Exception types shared across the package."""


class CmredError(Exception):
    """Base class for all library errors."""


class ElementCapExceeded(CmredError):
    """Group enumeration would exceed the configured element cap."""


class SubgroupNotContained(CmredError):
    """A subgroup generator is not an element of the ambient group."""


class SubsetCapExceeded(CmredError):
    """A subset enumeration would exceed the configured cap."""


class BruteCapExceeded(CmredError):
    """A brute-force convolution path was requested beyond the brute cap."""


class IntegerBoundExceeded(CmredError):
    """Exact integer class values could leave int64 for this input."""


class UnsupportedParameter(CmredError):
    """A zoo family or parameter outside the supported range."""


class ParseError(CmredError):
    """Malformed spec string or group file."""


class BuildVerificationError(CmredError):
    """A zoo construction failed one of its build-time checks (order,
    form preservation, point count, stabilizer), or a group closure
    disagreed with its stabilizer chain."""

"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class InvalidPartitionError(ContractViolation):
    """Blocks do not form a partition of the expected ground set."""


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds the configured desk-scale guard."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


class DomainError(ValueError):
    """Evaluation point lies outside the admissible domain."""

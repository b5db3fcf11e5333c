"""Exception types shared across the package."""

import numbers


class ContractError(ValueError):
    """An input violates a documented precondition."""


class ImmersionError(ContractError):
    """A discrete curve has (near-)vanishing derivative somewhere."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def _require_int(name: str, value) -> None:
    """ContractError unless `value` is an integer; a bool or an integral float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")

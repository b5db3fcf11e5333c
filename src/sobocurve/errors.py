"""Exception types shared across the package."""

import numbers


class ContractError(ValueError):
    """An input violates a documented precondition."""


class ImmersionError(ContractError):
    """A discrete curve has (near-)vanishing derivative somewhere; `index`, if set, is the first of a stack."""

    index = None


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def _require_int(name: str, value, least=None, most=None) -> None:
    """ContractError unless `value` is an integer in [least, most]; a bool or an integral float is not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least or most is not None and value > most):
        bound = "" if least is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
        raise ContractError(f"{name} must be an integer{bound}, got {value!r}")

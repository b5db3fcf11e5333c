import pytest

from sobocurve import verify


@pytest.fixture
def clear_verify_cache():
    """A function that makes the next `run_suite` compute the rows `verify` caches per process."""

    def clear():
        for fn in vars(verify).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    return clear

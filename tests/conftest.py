import tracemalloc

import numpy as np
import pytest

from lrmt import numerics as nm


@pytest.fixture
def float64_mode():
    """Run a test with float64 tensors (gradient-check precision)."""
    nm.set_default_dtype(np.float64)
    yield
    nm.set_default_dtype(np.float32)


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn() runs, above what
    was live when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn): the peak bytes traced while fn() runs."""
    return _traced_peak

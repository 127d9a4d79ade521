import numpy as np
import pytest

from lrmt import numerics as nm


@pytest.fixture
def float64_mode():
    """Run a test with float64 tensors (gradient-check precision)."""
    nm.set_default_dtype(np.float64)
    yield
    nm.set_default_dtype(np.float32)

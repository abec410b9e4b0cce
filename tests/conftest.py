import numpy as np
import pytest
from hypothesis import settings

# CI selects this profile (--hypothesis-profile=ci): a failing example is
# printed with a blob that @reproduce_failure replays bit for bit.
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def philox_builds(monkeypatch):
    """A list that gains one entry per np.random.Philox built from here on."""
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    return built

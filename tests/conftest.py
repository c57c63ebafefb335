import sys
from pathlib import Path

import numpy as np
import pytest

import fpplab as F

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def solve_counter(monkeypatch):
    """Source index of every LatticeBox.solve call made in this process."""
    calls = []
    original = F.LatticeBox.solve

    def counting(self, weights, source_index):
        calls.append(source_index)
        return original(self, weights, source_index)

    monkeypatch.setattr(F.LatticeBox, "solve", counting)
    return calls

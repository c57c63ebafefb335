import sys
from pathlib import Path

import numpy as np
import pytest

import fpplab as F
from fpplab import fpp_core

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def solve_counter(monkeypatch):
    """(source_index, target_index) of every LatticeBox.solve call made in
    this process; target_index is None for a full solve."""
    calls = []
    original = F.LatticeBox.solve

    def counting(self, weights, source_index, target_index=None, *, pred=True):
        calls.append((source_index, target_index))
        return original(self, weights, source_index, target_index, pred=pred)

    monkeypatch.setattr(F.LatticeBox, "solve", counting)
    return calls


@pytest.fixture(params=("compiled", "scipy"))
def solve_backend(request, monkeypatch):
    """Runs a test on the compiled kernel and on its fallback: scipy's
    solver, the Python geodesic scan and the numpy offer table."""
    if request.param == "scipy":
        monkeypatch.setattr(fpp_core, "_KERNEL", None)
    elif fpp_core._KERNEL is None:
        pytest.skip("no C compiler: the kernel paths run in Python")

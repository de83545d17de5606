import pytest

import lrhankel.lowrank


@pytest.fixture
def lanczos_only(monkeypatch):
    """Send every rank projection of the test down the Lanczos path."""
    monkeypatch.setattr(lrhankel.lowrank, "DENSE_CROSSOVER", 0)

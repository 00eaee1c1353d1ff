"""Shared fixtures."""

import pytest

from repro.core.verification import UfdiEncoder


@pytest.fixture
def grid_encodes(monkeypatch):
    """A callable returning how many grid encodings ran in this test.

    Counts ``UfdiEncoder`` constructions, which is where the grid is
    encoded; building a budget counter on a warm encoder is not one.
    """
    count = 0
    original = UfdiEncoder.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(UfdiEncoder, "__init__", counting_init)
    return lambda: count

import pytest

from superchar import clear_caches, schur


@pytest.fixture
def z_route(monkeypatch):
    """A switch that turns the e route off: inverse-paired pairs then use the z table.

    Calling it empties every cache first, so no e-table value survives.
    """

    def use_z():
        clear_caches()
        monkeypatch.setattr(schur, "_e_blocks", lambda x_pairs, y_pairs: None)

    yield use_z
    monkeypatch.undo()
    clear_caches()

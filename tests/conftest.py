import pytest

from superchar import clear_caches, schur


@pytest.fixture
def all_in_x(monkeypatch):
    """A switch that turns both e routes off: every pair of alphabets then uses x.

    Calling it empties every cache first, so no e-table value survives.
    """

    def use_x():
        clear_caches()
        monkeypatch.setattr(schur, "_e_blocks", lambda x_vars, y_vars: None)

    yield use_x
    monkeypatch.undo()
    clear_caches()


@pytest.fixture
def x_route(monkeypatch):
    """A switch that turns the formal e route off: formal alphabets then use x.

    Calling it empties every cache first, so no e-table value survives.
    """

    def use_x():
        clear_caches()
        monkeypatch.setattr(schur, "_formal", lambda alphabet: None)

    yield use_x
    monkeypatch.undo()
    clear_caches()

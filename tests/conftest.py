"""Shared fixtures."""

import pytest

from screenguide import meshing


@pytest.fixture
def whole_height(monkeypatch):
    """Solve every strip on the whole height of the guide, as if no layout
    were mirror-symmetric about y = 1/2: strips of mirror-symmetric layouts
    then run the whole-height path that other layouts take."""
    monkeypatch.setattr(meshing, "_mirror_symmetric", lambda holes: False)

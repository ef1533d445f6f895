"""Fixtures shared by the test modules."""

import pytest

from nrestrict import adapted, splitting


@pytest.fixture
def isolations(monkeypatch):
    """Log ``(module, restriction)`` for each root isolation that
    ``adapted`` and ``splitting`` make."""
    calls = []
    for mod in (adapted, splitting):
        def spy(u, _mod=mod, _real=mod.squarefree_real_roots):
            calls.append((_mod, tuple(u)))
            return _real(u)
        monkeypatch.setattr(mod, "squarefree_real_roots", spy)
    return calls

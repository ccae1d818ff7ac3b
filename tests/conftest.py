"""Fixtures shared by the test modules."""

import pytest

from fgdyn import dynamics


@pytest.fixture
def no_jump(monkeypatch):
    """``omega_limit`` with every affine jump declined, so that orbits are
    stepped, and held, as without it: for the tests that pin what the
    stepped and held engine does."""
    monkeypatch.setattr(dynamics, "_affine_jump", lambda *args: None)

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.uc.environment import Environment
from repro.uc.session import Session


@pytest.fixture
def session() -> Session:
    """A fresh deterministic session."""
    return Session(seed=1234)


@pytest.fixture
def env(session: Session) -> Environment:
    """An environment driving the ``session`` fixture."""
    return Environment(session)


@pytest.fixture
def use_arith():
    """``set_arith_backend`` for one test; the prior backend is restored after."""
    from repro.crypto.groups import get_arith_backend, set_arith_backend

    before = get_arith_backend().name
    yield set_arith_backend
    set_arith_backend(before)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG independent of any session."""
    return random.Random(99)


def broadcast_action(message):
    """An Environment action calling ``party.broadcast(message)``."""
    return lambda party: party.broadcast(message)

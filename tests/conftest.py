"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.field.gf import Field
from repro.field.primes import SMALL_TEST_PRIME


@pytest.fixture
def small_field() -> Field:
    """GF(13): small enough to hand-check values."""
    return Field(SMALL_TEST_PRIME)


@pytest.fixture
def field() -> Field:
    """The default field GF(2^31 - 1)."""
    return Field()


@pytest.fixture
def cfg4() -> SystemConfig:
    """The minimal optimally-resilient system: n=4, t=1."""
    return SystemConfig(n=4, seed=1234)


@pytest.fixture
def cfg7() -> SystemConfig:
    """n=7, t=2 — the smallest system with two-fault corruption room."""
    return SystemConfig(n=7, seed=1234)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-stack runs that take more than a couple of seconds"
    )

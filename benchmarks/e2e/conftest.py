"""Fixtures for the end-to-end benchmark's unit tests."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _warm_artifacts():
    """Override the parent conftest's vertical warm-up: these tests need none."""
    yield

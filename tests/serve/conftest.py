"""Every serving test leaves no child process, shared-memory segment or
thread behind."""

import pytest


@pytest.fixture(autouse=True)
def _leak_check(no_leaked_resources):
    """Apply the suite's ``no_leaked_resources`` check to each test here."""

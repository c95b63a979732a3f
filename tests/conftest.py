"""Shared test configuration.

Registers a hypothesis profile suited to CI (no deadline; statistical tests
manage their own budgets) and collects acceptance-criterion result lines so
they are printed in a dedicated section at the end of the run regardless of
capture settings.  Two fixtures watch the in-place file writers.
"""

import errno
import os

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "ci",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
hypothesis.settings.load_profile("ci")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Callable that records one pass/fail line per acceptance criterion."""

    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return record


@pytest.fixture
def write_opens(monkeypatch):
    """Path of every os.open for writing made during the test.

    Fails the call outright when it asks for O_TRUNC: the writers rewrite
    files in place, and truncating on open is what they exist to avoid.
    """
    opens = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR):
            assert not flags & os.O_TRUNC, f"{path} opened with O_TRUNC"
            opens.append(os.fspath(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    return opens


@pytest.fixture
def disk_full_mid_write(monkeypatch):
    """os.write stores 4 bytes on its first call, then fails with ENOSPC."""
    real_write = os.write
    calls = []

    def failing_write(fd, data):
        if calls:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        calls.append(fd)
        return real_write(fd, bytes(data)[:4])

    monkeypatch.setattr(os, "write", failing_write)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

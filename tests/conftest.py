"""Shared test configuration.

The acceptance suite records one status line per criterion; they are echoed
in the terminal summary so a plain ``pytest -v`` run shows the scoreboard.
"""

import pytest

from hecke5 import closure

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def low_element_cap(monkeypatch):
    """Lower the default element cap of every closure to 20000, so an input
    that runs into the cap gets there in a fraction of a second."""
    cap = 20_000
    for fn in (closure.generated_closure, closure.subgroup,
               closure.normal_closure, closure.element_order):
        monkeypatch.setattr(fn, "__defaults__", (cap,))
    return cap

"""Shared test configuration.

The acceptance suite records one status line per criterion; they are echoed
in the terminal summary so a plain ``pytest -v`` run shows the scoreboard.
"""

import pytest

from hecke5 import closure, quotients

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def low_element_cap(monkeypatch):
    """Lower the default element cap to 5000: that of the closure engine
    and the one `build_quotient` gives its quotients unless told otherwise,
    so an input that runs into the cap gets there in a fraction of a
    second.  The residue tables of mod 7 (7 * 49 entries, and 2 * 49**2 =
    4802 with `mul` and the row orbit) still fit under it."""
    cap = 5_000
    monkeypatch.setattr(closure.generated_closure, "__defaults__", (cap,))
    monkeypatch.setattr(closure.normal_closure, "__defaults__", ((), cap))
    # the default is bound when the function is defined: patch it as well
    monkeypatch.setattr(quotients.build_quotient, "__defaults__",
                        (True, cap, None))
    return cap

"""Fixtures that empty the process memos, and the acceptance summary.

The kz segment and loop memos and the hyp2f1 self-test memo outlive a
request, so a test that counts the work of a fresh computation, or swaps
the function behind a memo, empties that memo first.  Each test of
test_acceptance.py records its line as the user property "acceptance",
so the lines survive output capture and are printed after the run.
"""

import pytest

from aomoto_lab import cli, kz


@pytest.fixture
def fresh_hyp2f1_memo():
    # the memo outlives a request, so a test that swaps hyp2f1 must not
    # find or leave a value in it
    cli._hyp2f1_self_test.cache_clear()
    yield
    cli._hyp2f1_self_test.cache_clear()


@pytest.fixture
def fresh_kz_system():
    """KzSystem, with the segment and loop memos emptied first, so that
    the new system integrates every segment it transports along and
    circles every loop it is asked for."""
    def build(*args, **kwargs):
        kz._segment_transport.cache_clear()
        kz._loop_monodromy.cache_clear()
        return kz.KzSystem(*args, **kwargs)
    return build


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = sorted(
        value
        for reports in terminalreporter.stats.values()
        for report in reports if getattr(report, "when", None) == "call"
        for name, value in report.user_properties if name == "acceptance"
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

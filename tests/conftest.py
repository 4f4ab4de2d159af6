"""Print the acceptance criteria's summary lines after the run.

Each test of test_acceptance.py records its line as the user property
"acceptance", so the lines survive output capture.
"""


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

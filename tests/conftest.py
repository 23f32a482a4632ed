import pytest

_ACCEPTANCE: dict[int, list] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): part of a numbered acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    # the call phase of every test, and any setup or teardown that skipped or failed
    if report.when != "call" and report.passed:
        return
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        num, title = marker.args
        reason = report.longrepr[2] if report.skipped and isinstance(report.longrepr, tuple) else ""
        _ACCEPTANCE.setdefault(num, []).append((title, report.outcome, reason))


def _verdict(entries) -> str:
    """PASS only when every entry passed; a skip leaves the criterion INCOMPLETE, never PASS."""
    outcomes = [o for _, o, _ in entries]
    if "failed" in outcomes:
        return "FAIL"
    skipped = [reason for _, o, reason in entries if o == "skipped"]
    if skipped:
        return f"INCOMPLETE - {len(skipped)} skipped ({'; '.join(sorted(set(skipped)))})"
    return "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        entries = _ACCEPTANCE[num]
        terminalreporter.write_line(f"criterion {num:2d}: {_verdict(entries)} - {entries[0][0]}")

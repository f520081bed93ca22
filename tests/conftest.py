"""A private default cache for every test, and a terminal summary listing one
pass/fail line per acceptance criterion."""

import pytest

_acceptance_reports: dict[str, tuple[bool, str]] = {}


@pytest.fixture(scope="session", autouse=True)
def _private_default_cache(tmp_path_factory):
    # a job run without --cache-dir, here or in a child process, which inherits
    # the variable, reads and writes a fresh directory, never the user's cache
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("VEYCALC_CACHE_DIR", str(tmp_path_factory.mktemp("default-cache")))
        yield


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_reports[name] = (report.passed, report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_reports:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_acceptance_reports, key=_criterion_number):
        passed, _ = _acceptance_reports[name]
        number = _criterion_number(name)
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:2d}: {verdict}  {name}")


def _criterion_number(name: str) -> int:
    # names look like test_criterion_03_oracle_q3
    for part in name.split("_"):
        if part.isdigit():
            return int(part)
    return 0

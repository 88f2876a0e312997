import sys

from hypothesis import settings

# property tests run on a fixed example sequence (reproducible tier-1, so
# no example database) and without a per-example deadline (timings vary
# on small, shared hosts)
settings.register_profile("wavetank", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("wavetank")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion acceptance lines in the summary, so they
    survive output capture in plain `pytest -v` runs."""
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

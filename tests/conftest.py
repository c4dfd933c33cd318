import signal

import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # repeat the acceptance verdicts after the run, where capture
    # cannot swallow them
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def sigint_handler_unchanged():
    """Fails a test that leaves SIGINT's handler changed, which takes pytest's Ctrl-C."""
    handler = signal.getsignal(signal.SIGINT)
    yield
    if signal.getsignal(signal.SIGINT) != handler:
        signal.signal(signal.SIGINT, handler)
        pytest.fail("the test changed SIGINT's handler")

import numpy as np

from roadrank import cli


def _kernel() -> str:
    """The numpy and BLAS build and the OpenBLAS core the suite runs on: the
    pinned digests of trained and rated bytes hold for one kernel family."""
    return f"numpy {np.__version__}, blas {cli._blas_build()}, blas_core {cli._blas_core()}"


def pytest_report_header(config):
    return _kernel()


def pytest_terminal_summary(terminalreporter, exitstatus):
    # -q (as in CI) prints no header: a failing run still names its kernel
    if exitstatus != 0 and terminalreporter.verbosity < 0:
        terminalreporter.write_line(_kernel())

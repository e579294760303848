"""Session-wide test hooks: report the suite's wall time and peak RSS."""

import resource
import sys
import time

import pytest

_START = pytest.StashKey[float]()


def pytest_sessionstart(session):
    session.config.stash[_START] = time.perf_counter()


def pytest_terminal_summary(terminalreporter, config):
    wall = time.perf_counter() - config.stash[_START]
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
    terminalreporter.write_line(
        f"session wall time {wall:.1f} s, peak RSS {peak_mb:.0f} MB")

"""Fixtures shared by the test modules.

Every test must leave no child process of the test process behind,
running or unreaped, and a test still running after ``WATCHDOG_S``
ends the whole run; ``one_cpu`` and ``two_cpus`` fix the number of
processes :func:`ndsquare.experiments.difference_spectra` solves on.
"""

import faulthandler
import os
import sys

import pytest

from ndsquare import experiments

#: Seconds after its start at which a test ends the run with exit 1 and
#: the traceback of every thread.  The slowest test takes about 5 s, so
#: only a hang gets here, and also one that ``limits.time_limit``
#: cannot end, such as a generator that the garbage collector closes
#: after the alarm's block.
WATCHDOG_S = 60.0

#: Where the traceback goes: a copy of stderr taken in
#: ``pytest_configure``.  pytest captures fd 2 while it imports this
#: file and during each test, and a dump written there is lost.
STDERR = pytest.StashKey()


def pytest_configure(config):
    config.stash[STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    config.stash[STDERR].close()


@pytest.fixture(autouse=True)
def watchdog(request):
    # a C thread, not a Python one: threading.active_count() stays 1
    faulthandler.dump_traceback_later(
        WATCHDOG_S, exit=True, file=request.config.stash[STDERR]
    )


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "a running" if pid == 0 else f"an unreaped ({pid})"
    pytest.fail(f"the test left {left} child process")


@pytest.fixture
def one_cpu(monkeypatch):
    """Solve every batch in this process, where its calls can be seen."""
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)


@pytest.fixture
def two_cpus(monkeypatch):
    """Fork one helper, whatever the CPUs of this host."""
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)

"""Fixtures shared by the test modules.

Every test must leave no child process of the test process behind,
running or unreaped; ``one_cpu`` and ``two_cpus`` fix the number of
processes :func:`ndsquare.experiments.difference_spectra` solves on.
"""

import os

import pytest

from ndsquare import experiments


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

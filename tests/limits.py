"""Limits a test holds its block to: wall-clock time and traced memory."""

import contextlib
import signal
import tracemalloc
import types


class Hang(Exception):
    """Raised by the alarm in :func:`time_limit`; main does not catch it."""


@contextlib.contextmanager
def time_limit(seconds):
    # turns a hang into a test failure instead of a stuck suite
    def hang(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except Hang as exc:
        # a fresh traceback: the interrupted frame can lack a line
        # number, which pytest's report cannot format
        raise Hang(str(exc)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def traced_peak():
    """Trace the block's allocations; ``.bytes`` is their peak after it.

    The peak is read before tracing stops, also when the block raises.
    """
    traced = types.SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield traced
    finally:
        traced.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

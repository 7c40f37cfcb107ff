"""A wall-clock limit that turns a hang into a test failure."""

import contextlib
import signal


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

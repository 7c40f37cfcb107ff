"""Sweep and crossing experiments on the operator difference.

Three experiment drivers, all working on the eigenvalues of the
difference of two truncated Neumann-to-Dirichlet matrices:

* ``sweep``: fix a, vary b over a grid; per point, count eigenvalues
  below -delta and compare with the lattice bound.  The measured count
  never exceeds the bound; resonant b values are recorded as skipped
  points (not perturbed, which would silently change the bound).
* ``trajectories``: full descending spectrum of the difference per b,
  for plotting eigenvalue flows.
* ``verify_crossing``: place the coefficient window symmetrically
  around a Neumann eigenvalue pi^2*n/k^2 of multiplicity N and check
  that the difference across the window has exactly N eigenvalues below
  -delta.  Each attempt is one ``sweep`` row: it decides each window
  end once, counts the window and measures it, and only then does
  multiplicity(n) give N, which the count must equal (so a rejected
  window has been solved once).  Equality is only guaranteed for small
  enough windows, so a disagreeing first attempt is retried once at
  half the width and both attempts are reported.

Counts follow one thresholded protocol (``count_negative``): an
eigenvalue counts as negative only when it lies below -delta, 1e-5 by
default (``DEFAULT_DELTA``), so that truncation and rounding noise
around zero is never mistaken for a genuine sign change.

All three consume :func:`difference_spectra`, the one experiment loop.
It solves the grid in batches of points, all in one next-side block
buffer, with one :func:`~ndsquare.nd_matrix.side_blocks` and one
:func:`~ndsquare.nd_matrix.circulant_spectrum` call per batch, and yields
a consumer's finished per-point result ``each(b, spectrum)`` in grid
order as soon as the point's batch is solved, so a consumer that
streams holds one batch at a time.  On Linux, in a process with one
thread, forked helper processes solve every W-th batch on the other
CPUs of the affinity mask, apply ``each`` to its points and send each
batch's results back over a socket as one plain pickle, so the
results are built where the batch was solved
(``numpy.linalg.eigvalsh`` holds the GIL, so threads would not
overlap); elsewhere the loop is serial.  The dense 4J×4J matrix is
never formed, and the outputs are deterministic functions of the
inputs, bit for bit the same on any number of CPUs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .nd_matrix import circulant_spectrum, side_blocks
# bench/layers.py wraps these three names in this namespace, so they
# stay bound; the experiments use the block path and sweep rows instead
from .nd_matrix import assemble, symmetric_eigenvalues  # noqa: F401
from .spectrum import negative_eigenvalue_bound  # noqa: F401
from .spectrum import (
    DEFAULT_GUARD,
    PI2,
    ProblemParams,
    ResonanceError,
    _integer,
    _modes_below,
    is_resonant,
    multiplicity,
)

#: Default threshold below which -eigenvalue counts as negative.
DEFAULT_DELTA = 1e-5

#: Next-side block entries P·J² per batch of grid points: a batch holds
#: max(1, BATCH_ENTRIES // J**2) points, 6 at J = 100 and 1 from J = 182,
#: or all the valid points of a grid that has fewer.
BATCH_ENTRIES = 2**16

@dataclass(frozen=True)
class BoundReport:
    """One sweep point: measured negative count vs the lattice bound.

    ``skipped`` marks resonant b values; their measurement fields are
    None.  For valid points ``measured_negative <= theoretical_bound``
    always holds (a violation would falsify the monotonicity bound and
    is treated as a hard failure by the test suite).
    """

    a: float
    b: float
    k: float
    modes_per_side: int
    delta: float
    skipped: bool
    measured_negative: int | None
    theoretical_bound: int | None
    min_eigenvalue: float | None
    max_eigenvalue: float | None


@dataclass(frozen=True)
class TrajectoryPoint:
    """Full descending spectrum of the difference matrix at one b."""

    b: float
    skipped: bool
    eigenvalues: tuple[float, ...] | None


@dataclass(frozen=True)
class CrossingAttempt:
    eps: float
    measured: int


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of a crossing experiment at level n.

    ``expected`` is the multiplicity of pi^2*n; ``attempts`` holds the
    (eps, measured) pairs actually run (one, or two when the first
    width disagreed and was halved).  ``measured`` is the last
    attempt's count and ``agreed`` whether it equals ``expected``.
    """

    n: int
    k: float
    modes_per_side: int
    delta: float
    expected: int
    attempts: tuple[CrossingAttempt, ...]
    measured: int
    agreed: bool


def _cpu_count() -> int:
    """CPUs to solve on: the affinity mask's, or 1 where fork is unsafe.

    Without ``os.sched_getaffinity`` (outside Linux) the solve stays
    serial, and so it does in a process that runs a second thread,
    since a fork there can deadlock the child.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _solved(work, batches: list) -> Iterator:
    """Yield ``work(batch)`` for each batch, in order.

    With W = min(:func:`_cpu_count`, number of batches), the first
    next() forks W - 1 helpers.  Helper w does batches w, w + W, ...
    and pickles each result into its own socket, flushed at once.  It
    leaves by ``os._exit``, so it never returns into the caller's stack
    and flushes no inherited buffer.  This process does batches 0, W,
    2W, ... itself, without pickling them, and unpickles the others in
    order: a pickle ends itself, and one cut short raises EOFError or
    UnpicklingError.  So each result has the bits of its serial run
    and no more processes work than there are CPUs.  If a helper's
    stream ends early (or it could not be forked), this process does
    the rest of its batches, so a failure there ends as the serial
    path's own result or exception.  On every exit each socket is shut
    down and closed and each helper is reaped, and no process is
    signalled: a shutdown acts on the connection, whatever other
    process holds a copy of this end, so the helper dies at its next
    write and an early exit waits for at most the batch it is solving.
    """
    workers = min(_cpu_count(), len(batches))
    pids, ends, readers = [], [], {}
    if workers > 1:
        import socket  # only here, so a serial solve never loads it
    try:
        for w in range(1, workers):
            here, there = socket.socketpair()
            try:
                pid = os.fork()
            except OSError:  # out of processes: w's batches are done here
                here.close()
                there.close()
                continue
            if pid == 0:
                try:
                    with open(there.detach(), "wb") as out:
                        for batch in batches[w::workers]:
                            pickle.dump(work(batch), out)
                            out.flush()
                finally:
                    os._exit(0)
            there.close()
            pids.append(pid)
            ends.append(here)
            readers[w] = open(here.fileno(), "rb", closefd=False)
        for i, batch in enumerate(batches):
            reader = readers.get(i % workers)
            if reader is not None:
                try:
                    result = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    readers.pop(i % workers).close()
                else:
                    yield result
                    continue
            yield work(batch)
    finally:
        for reader in readers.values():
            reader.close()
        for end in ends:
            end.shutdown(socket.SHUT_RDWR)
            end.close()
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def count_negative(eigenvalues, delta: float) -> int:
    """Number of eigenvalues strictly below -delta."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    eigs = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero(eigs < -delta))


def difference_spectra(
    a: float,
    b_values: Iterable[float],
    k: float,
    modes_per_side: int,
    guard: float,
    each: Callable[[float, np.ndarray | None], Any] = lambda *point: point,
) -> Iterator:
    """Iterate ``each(b, eigs)`` in grid order, by default (b, eigs).

    ``eigs`` is the descending spectrum of Λ(b) − Λ(a), or None for a
    resonant b.  Before this returns, a and ``modes_per_side`` are
    validated by one :class:`ProblemParams`, every b is decided by one
    :func:`is_resonant` call (so a b that cannot be decided raises
    here, before any eigensolve), the side blocks of a are assembled
    and the one next-side block buffer every batch is solved in is
    allocated.  ``b_values`` may be any iterable; it is read once, into
    a list.  The valid b values are then solved in batches of
    ``max(1, min(valid, BATCH_ENTRIES // modes_per_side**2))`` in input
    order, so a one-point grid allocates one member: one
    :func:`side_blocks` call on the batch's array of b·k² and one
    :func:`circulant_spectrum` call per batch, which builds and solves
    its problems in that buffer, so the heap is not trimmed and faulted
    back in at each batch.  Each
    spectrum is bit for bit that of b alone, and each result is yielded
    as soon as its batch is solved.  No 4J×4J matrix is formed.

    The first next() spreads the batches over the CPUs (see
    :func:`_solved`): ``each`` runs on a solved point in the process
    that solved its batch, so a result that comes from a helper is an
    unpickled copy, and on a resonant b in this process.  The helpers
    get the base blocks, buffers and ``each``, with what it reads then,
    through that fork; exhausting, closing or dropping the iterator
    shuts down their sockets, which ends each at its next write, and
    reaps them.  Every spectrum handed to ``each`` is writable.
    """
    ProblemParams(a=a, k=k, modes_per_side=modes_per_side, guard=guard)
    b_values = list(b_values)
    if any(b < a for b in b_values):
        raise ValueError("b >= a is required at every grid point")
    resonant = [is_resonant(b, k, guard) for b in b_values]
    base = side_blocks(a * k * k, modes_per_side)
    valid = [b for b, skip in zip(b_values, resonant) if not skip]
    size = max(1, min(len(valid), BATCH_ENTRIES // modes_per_side**2))
    next_block = np.empty((size, modes_per_side, modes_per_side))
    ak2 = np.array([b * k * k for b in valid])
    batches = [
        slice(start, start + size) for start in range(0, len(valid), size)
    ]

    def solve(batch: slice) -> list:
        points = ak2[batch]
        blocks = side_blocks(points, modes_per_side, next_block[: points.size])
        for block, base_block in zip(blocks, base):
            block -= base_block
        spectra = circulant_spectrum(*blocks)
        return list(map(each, valid[batch], spectra))

    results = itertools.chain.from_iterable(_solved(solve, batches))
    return (
        each(b, None) if skip else next(results)
        for b, skip in zip(b_values, resonant)
    )


def sweep(
    a: float,
    b_values: Iterable[float],
    k: float = 1.0,
    modes_per_side: int = 100,
    delta: float = DEFAULT_DELTA,
    guard: float = DEFAULT_GUARD,
) -> list[BoundReport]:
    """Per-b comparison of measured negative counts with the lattice bound.

    Each report is built where its point was solved.  Each b must
    satisfy b >= a; resonant b values produce skipped reports.  A
    resonant a is an error (the whole sweep would be meaningless).

    Resonance is decided once per coefficient, for a and every b, and
    then every b's lattice count is taken, all before the first
    eigensolve: a b past the decidability limit or past the row budget
    of the count raises ValueError before any matrix is solved.  The
    bound of a window with validated ends is the difference of the two
    lattice counts of ``negative_eigenvalue_bound``, 0 for b == a.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    b_values = list(b_values)

    def report(b: float, eigs: np.ndarray | None) -> BoundReport:
        measured = (None,) * 4 if eigs is None else (
            count_negative(eigs, delta), bounds[b],
            float(eigs[-1]), float(eigs[0]),
        )
        return BoundReport(
            a, b, k, modes_per_side, delta, eigs is None, *measured
        )

    reports = difference_spectra(a, b_values, k, modes_per_side, guard, report)
    # report reads this dict, bound after every b is decided, before any solve
    modes_below_a = _modes_below(a * k * k)
    bounds = {b: _modes_below(b * k * k) - modes_below_a for b in b_values}
    return list(reports)


def trajectories(
    a: float,
    b_values: Iterable[float],
    k: float = 1.0,
    modes_per_side: int = 100,
    guard: float = DEFAULT_GUARD,
) -> list[TrajectoryPoint]:
    """Descending spectrum of the difference matrix for each b.

    Returns a list of every point; to hold one batch at a time,
    iterate :func:`difference_spectra` instead.
    """

    def point(b: float, eigs: np.ndarray | None) -> TrajectoryPoint:
        return TrajectoryPoint(
            b=b, skipped=eigs is None,
            eigenvalues=None if eigs is None else tuple(eigs.tolist()),
        )

    return list(
        difference_spectra(a, b_values, k, modes_per_side, guard, point)
    )


def verify_crossing(
    n: int,
    eps: float = 0.1,
    k: float = 1.0,
    modes_per_side: int = 100,
    delta: float = DEFAULT_DELTA,
    guard: float = DEFAULT_GUARD,
) -> CrossingReport:
    """Count negatives across the eigenvalue crossing at pi^2*n/k^2.

    With c = pi^2*n/k^2, the difference of the matrices at coefficients
    c + eps and c - eps has exactly multiplicity(n) eigenvalues below
    -delta once eps is small enough.  If the first width disagrees, the
    measurement is retried once at eps/2; both attempts appear in the
    report.

    Each attempt is one :func:`sweep` row over (c - width, c + width):
    it decides each end once, counts the window and measures it.  The
    first row's count must equal multiplicity(n), so the window holds no
    other level, and eps must exceed the resonance guard.  k*k must be
    a finite positive normal float, since the level is placed at
    pi^2*n/k^2, and pi^2*n must fit in a float.  Then, before any solve,
    an n of True, 5.0, 5.5 or -1 raises ValueError.  multiplicity(n)
    runs after the first row: a level past the decidability limit fails
    before it, and a rejected window has been solved once.
    """
    k2 = k * k
    if not (math.isfinite(k2) and k2 >= sys.float_info.min):
        raise ValueError(
            f"k*k = {k2!r} (k={k!r}) is not a finite positive normal float"
        )
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps <= guard:
        raise ValueError(f"eps={eps} must exceed the resonance guard {guard}")
    n = _integer(n, 0, "n must be an integer", "n must be nonnegative")
    try:
        c = PI2 * n / k2
    except OverflowError:
        raise ValueError(
            f"pi^2*n overflows a float: n has {n.bit_length()} bits"
        ) from None
    window = f"window around pi^2*{n}/k^2 with eps={eps}"
    expected = None
    attempts = []
    for width in (eps, eps / 2.0):
        try:
            (row,) = sweep(
                c - width, [c + width], k, modes_per_side, delta, guard
            )
        except ResonanceError:  # the lower end, from its ProblemParams
            row = None
        if row is None or row.skipped:  # or the upper end
            raise ResonanceError(
                f"{window} ends within the guard {guard} of a Neumann "
                f"eigenvalue; change eps"
            )
        if expected is None:
            expected = multiplicity(n)
            if expected < 1:
                raise ValueError(
                    f"n={n} is not a sum of two squares; pi^2*n is not a "
                    f"Neumann eigenvalue"
                )
            if row.theoretical_bound != expected:
                raise ValueError(
                    f"{window} holds {row.theoretical_bound} Neumann "
                    f"eigenvalues, not the {expected} of level {n}; "
                    f"shrink eps"
                )
        measured = row.measured_negative
        attempts.append(CrossingAttempt(eps=width, measured=measured))
        if measured == expected:
            break
    return CrossingReport(
        n=n, k=k, modes_per_side=modes_per_side, delta=delta,
        expected=expected, attempts=tuple(attempts), measured=measured,
        agreed=measured == expected,
    )

"""Tests for the sweep, trajectory and crossing experiment drivers.

Matrix sizes here are kept small for speed; the full-scale runs live in
the acceptance suite.
"""

import dataclasses
import math
import os
import pickle
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ndsquare import experiments, spectrum
from ndsquare.experiments import (
    count_negative,
    sweep,
    trajectories,
    verify_crossing,
)
from ndsquare.nd_matrix import NEAR_LEVEL_SWITCH
from ndsquare.spectrum import (
    DEFAULT_GUARD,
    PI2,
    ResonanceError,
    is_resonant,
    multiplicity,
    negative_eigenvalue_bound,
    positive_eigenvalue_count,
)
from limits import time_limit, traced_peak


class TestSweep:
    def test_equal_coefficients_give_zero_matrix(self):
        (report,) = sweep(-10.0, [-10.0], modes_per_side=20)
        assert not report.skipped
        assert report.measured_negative == 0
        assert report.theoretical_bound == 0
        assert report.min_eigenvalue == 0.0
        assert report.max_eigenvalue == 0.0

    def test_resonant_point_is_skipped_not_fatal(self):
        reports = sweep(-10.0, [-1.0, 0.0, 1.0], modes_per_side=20)
        assert [r.skipped for r in reports] == [False, True, False]
        skipped = reports[1]
        assert skipped.measured_negative is None
        assert skipped.theoretical_bound is None
        assert skipped.min_eigenvalue is None

    def test_resonant_base_is_an_error(self):
        with pytest.raises(ResonanceError):
            sweep(0.0, [1.0], modes_per_side=10)

    def test_rejects_b_below_a(self):
        with pytest.raises(ValueError):
            sweep(-10.0, [-11.0], modes_per_side=10)

    @pytest.mark.parametrize("b, delta", [(5.0, -1.0), (0.0, math.nan)])
    def test_bad_delta_fails_before_any_eigensolve(
        self, monkeypatch, one_cpu, b, delta
    ):
        # b = 5 is a row to solve, b = 0 a level that is skipped: delta
        # is refused before either, and a crossing inherits the check
        def refuse(*blocks):
            raise AssertionError("circulant_spectrum was called")

        monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
        message = re.escape(f"delta must be positive, got {delta}")
        with pytest.raises(ValueError, match=message):
            sweep(-10.0, [b], modes_per_side=8, delta=delta)
        with pytest.raises(ValueError, match=message):
            verify_crossing(25, eps=0.05, modes_per_side=8, delta=delta)

    def test_bound_inequality_and_monotone_bound(self):
        b_values = [float(b) for b in range(-9, 25)]
        reports = sweep(-10.0, b_values, modes_per_side=30)
        bounds = []
        for report in reports:
            if report.skipped:
                continue
            assert report.measured_negative <= report.theoretical_bound, report
            assert report.min_eigenvalue <= report.max_eigenvalue
            bounds.append(report.theoretical_bound)
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize(
        "a, b", [(10.5, 19.0), (50.0, 78.0), (247.0, 256.0)]
    )
    def test_window_inside_one_gap_counts_zero(self, a, b, scale):
        # the paper's zero case: 0 < a < b between two levels pi^2*n and
        # pi^2*n' with n >= 1, so d(a) = d(b) > 0 and no eigenvalue of
        # the difference is negative; at J = floor(sqrt(b)/pi) + 12 and 2J
        modes = scale * (math.floor(math.sqrt(b) / math.pi) + 12)
        (report,) = sweep(a, [b], modes_per_side=modes)
        assert (report.measured_negative, report.theoretical_bound) == (0, 0)
        assert positive_eigenvalue_count(a) == positive_eigenvalue_count(b)
        assert positive_eigenvalue_count(b) >= 3

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("a, b", [(30.5, 800.5), (500.5, 3200.5)])
    def test_positive_window_counts_at_most_d_b_minus_d_a(self, a, b, scale):
        # a > 0 windows that span levels: count <= d(b) - d(a) < d(b)
        # (27 <= 69 < 73 and 43 <= 223 < 271 at J and at 2J)
        modes = scale * (math.floor(math.sqrt(b) / math.pi) + 12)
        (report,) = sweep(a, [b], modes_per_side=modes)
        d_a, d_b = positive_eigenvalue_count(a), positive_eigenvalue_count(b)
        assert report.theoretical_bound == d_b - d_a
        assert report.measured_negative <= d_b - d_a < d_b

    @settings(max_examples=40, deadline=None)
    @given(
        level=st.integers(0, 90),
        span=st.integers(0, 90),
        fractions=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    )
    @example(level=2, span=0, fractions=(0.2, 0.8))
    @example(level=29, span=51, fractions=(0.5, 0.5))
    def test_the_paper_bound_between_levels(self, level, span, fractions):
        # ends strictly between integer levels, 0 < a < b <= 900: at
        # J = floor(sqrt(b)/pi) + 12 and 2J, count <= d(b) - d(a) <= d(b),
        # the count does not fall from J to 2J, and a window with
        # d(a) = d(b) > 0, inside one gap, counts 0
        top = min(90, level + span)
        ends = sorted([level + fractions[0], top + fractions[1]])
        a, b = (PI2 * end for end in ends)
        assume(a < b)
        d_a, d_b = positive_eigenvalue_count(a), positive_eigenvalue_count(b)
        modes = math.floor(math.sqrt(b) / math.pi) + 12
        counts = []
        for j in (modes, 2 * modes):
            (report,) = sweep(a, [b], modes_per_side=j)
            assert report.theoretical_bound == d_b - d_a
            assert report.measured_negative <= d_b - d_a <= d_b
            counts.append(report.measured_negative)
        assert counts[0] <= counts[1]
        if d_a == d_b:
            assert d_a > 0 and counts == [0, 0]

    def test_output_follows_input_order(self):
        b_values = [5.0, -9.0, 2.0]
        reports = sweep(-10.0, b_values, modes_per_side=10)
        assert [r.b for r in reports] == b_values

    @pytest.mark.parametrize(
        "b", [1e4 + 0.5, 4e4 + 0.5, 1.6e5 + 0.5, 6.4e5 + 0.5]
    )
    def test_count_grows_like_the_boundary_not_the_area(self, b):
        # a conjecture from measurements (README): for a <= 0 the count
        # is about |∂Ω|·k·√b/4, which is √b on the unit square, while the
        # lattice bound grows like the area term b/(4π).  At
        # J = ⌊√b/π⌋ + 10 the count is settled: 1.5·J gives the same.
        # Counts 103, 214, 423, 832; the band is never widened
        modes = math.floor(math.sqrt(b) / math.pi) + 10
        (row,) = sweep(-10.0, [b], modes_per_side=modes)
        (finer,) = sweep(-10.0, [b], modes_per_side=3 * modes // 2)
        assert finer.measured_negative == row.measured_negative
        assert 1.00 <= row.measured_negative / math.sqrt(b) <= 1.10

    def test_first_crossing_detected(self):
        # one level (n=0) inside (-10, 5): the bound is 1 and at this
        # size the measurement attains it
        (report,) = sweep(-10.0, [5.0], modes_per_side=100)
        assert report.theoretical_bound == 1
        assert report.measured_negative in (0, 1)

    def test_resonance_is_decided_once_per_coefficient(self, monkeypatch):
        # the figure-1 sweep: a once (its ProblemParams), then each b
        # once; every bound is the lattice count of the window
        calls = []
        decide = spectrum.is_resonant

        def counted(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(spectrum, "is_resonant", counted)
        monkeypatch.setattr(experiments, "is_resonant", counted)
        b_values = [-9.0 + i for i in range(210)]
        reports = sweep(-10.0, b_values, modes_per_side=2)
        monkeypatch.undo()
        assert len(calls) == len(b_values) + 1
        assert [r.b for r in reports if r.skipped] == [0.0]
        for r in reports:
            if not r.skipped:
                assert r.theoretical_bound == negative_eigenvalue_bound(
                    -10.0, r.b
                )

    def test_crossing_decides_each_window_end_once(self, monkeypatch):
        # one sweep row per width: its lower end (ProblemParams) and its
        # upper end are decided once each, and the row's bound is the
        # window count
        calls = []
        decide = spectrum.is_resonant

        def counted(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(spectrum, "is_resonant", counted)
        monkeypatch.setattr(experiments, "is_resonant", counted)
        verify_crossing(25, eps=0.05, modes_per_side=8)
        assert len(calls) == 2
        calls.clear()
        # a threshold that the first width misses forces the retry
        report = verify_crossing(1, eps=0.1, modes_per_side=30, delta=200.0)
        assert len(report.attempts) == 2
        assert len(calls) == 4


class TestTrajectories:
    def test_equal_coefficients_give_zero_spectrum(self):
        (point,) = trajectories(-10.0, [-10.0], modes_per_side=15)
        assert point.eigenvalues == tuple([0.0] * 60)

    def test_spectrum_length_and_order(self):
        (point,) = trajectories(-10.0, [3.0], modes_per_side=15)
        assert len(point.eigenvalues) == 60
        eigs = np.array(point.eigenvalues)
        assert np.all(np.diff(eigs) <= 0)

    def test_no_crossing_means_no_negatives(self):
        # no Neumann eigenvalue in (-10, -9)
        (point,) = trajectories(-10.0, [-9.0], modes_per_side=50)
        assert min(point.eigenvalues) >= -1e-5

    def test_crossings_produce_negatives(self):
        # levels 0, 1 and 2 lie inside (-10, 20)
        (point,) = trajectories(-10.0, [20.0], modes_per_side=50)
        assert min(point.eigenvalues) < -1e-5

    def test_resonant_point_is_skipped(self):
        points = trajectories(-10.0, [0.0], modes_per_side=10)
        assert points[0].skipped
        assert points[0].eigenvalues is None



@pytest.fixture
def batch_sizes(monkeypatch):
    """The number of points of each circulant_spectrum call, in order."""
    solved = experiments.circulant_spectrum
    sizes = []

    def recorded(*blocks):
        sizes.append(blocks[0].shape[0])
        return solved(*blocks)

    monkeypatch.setattr(experiments, "circulant_spectrum", recorded)
    return sizes


class TestDifferenceSpectra:
    def test_batches_follow_input_order(
        self, monkeypatch, one_cpu, batch_sizes
    ):
        # J = 100 puts 6 points in a batch; b == a opens the grid and
        # the resonant b = pi^2 sits right after the first batch
        assert experiments.BATCH_ENTRIES // 100**2 == 6
        b_values = [-10.0, -9.0, -8.0, -7.0, -6.0, -5.0, PI2]
        b_values += [11.0 + i for i in range(8)]
        spectra = list(
            experiments.difference_spectra(-10.0, b_values, 1.0, 100, 1e-9)
        )
        assert batch_sizes == [6, 6, 2]
        monkeypatch.setattr(experiments, "BATCH_ENTRIES", 1)
        single = list(
            experiments.difference_spectra(-10.0, b_values, 1.0, 100, 1e-9)
        )
        assert batch_sizes == [6, 6, 2] + [1] * 14
        assert [b for b, _ in spectra] == b_values
        assert [eigs is None for _, eigs in spectra] == [
            b == PI2 for b in b_values
        ]
        _assert_same_points(spectra, single)
        assert not spectra[0][1].any()

    def test_batches_are_solved_on_demand(self, one_cpu, batch_sizes):
        # a consumer gets the first spectrum after one batch is solved
        spectra = experiments.difference_spectra(
            -10.0, [-9.0 + i for i in range(20)], 1.0, 100, 1e-9
        )
        assert batch_sizes == []
        next(spectra)
        assert batch_sizes == [6]

    def test_grid_may_be_any_iterable(self):
        # the grid is read once: the b >= a check used to spend an
        # iterator, which then gave no points
        b_values = [5.0, 6.0, PI2, 7.5]
        for experiment in (sweep, trajectories):
            expected = experiment(-10.0, b_values, modes_per_side=4)
            assert len(expected) == 4
            for grid in ((b for b in b_values), map(float, b_values)):
                assert experiment(-10.0, grid, modes_per_side=4) == expected
        expected = _spectra(b_values, 4)
        assert len(expected) == 4
        for grid in ((b for b in b_values), map(float, b_values)):
            _assert_same_points(_spectra(grid, 4), expected)

    def test_one_point_solves_in_the_next_block(self, one_cpu):
        # at J = 250 a one-point batch builds and solves its five
        # problems in its 0.5 MB next-side block: a traced peak of about
        # 1.15 MB, where a second buffer for them took 1.65 MB
        args = (-10.0, [57.3], 1.0, 250, 1e-9)
        list(experiments.difference_spectra(*args))  # imports and caches
        with traced_peak() as traced:
            list(experiments.difference_spectra(*args))
        assert traced.bytes < 1_400_000

    @pytest.mark.parametrize("driver", [sweep, trajectories])
    def test_undecidable_b_fails_before_any_eigensolve(
        self, monkeypatch, one_cpu, driver
    ):
        def refuse(*blocks):
            raise AssertionError("circulant_spectrum was called")

        monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
        with pytest.raises(ValueError, match="decidability limit"):
            driver(-10.0, [5.0, 1e300], modes_per_side=4)
        with pytest.raises(ValueError, match="decidability limit"):
            experiments.difference_spectra(-10.0, [5.0, 1e300], 1.0, 4, 1e-9)


#: The levels pi^2*n up to n = 52 (every l, m with l² + m² <= 52 is
#: below 8), and the gaps between consecutive ones up to n = 50, the
#: first from -60
_LEVELS = sorted({l * l + m * m for l in range(8) for m in range(8)})
_GAPS = [(-60.0, 0.0)] + [
    (PI2 * lo, PI2 * hi)
    for lo, hi in zip(_LEVELS, _LEVELS[1:])
    if hi <= 50
]


@st.composite
def _same_gap_window(draw):
    """(a, b1, b2) with a <= b1 < b2 and both b in one gap between two
    levels, each b anywhere in it or 1e-3 to 1e-8 from one of its ends."""
    lo, hi = draw(st.sampled_from(_GAPS))
    near = st.builds(
        lambda upper, exponent: (
            hi - 10.0**-exponent if upper else lo + 10.0**-exponent
        ),
        st.booleans(),
        st.floats(min_value=3.0, max_value=8.0),
    )
    inside = st.floats(
        min_value=lo, max_value=hi, exclude_min=True, exclude_max=True
    )
    b1, b2 = sorted(draw(st.tuples(inside | near, inside | near)))
    a = b1 - draw(st.floats(min_value=0.0, max_value=60.0))
    return a, b1, b2


def _closed_form_rounding(b):
    # a diagonal entry is a function of b·k² with slope up to 2/L² at
    # the distance L from its nearest level, and its closed form rounds
    # b·k² to a few ulps on the way, so it can be off by a few
    # 2ε·|b|/L².  Within NEAR_LEVEL_SWITCH of the level the pole is
    # split off at the rounding every block uses, and the entry is good
    # to a few ulps (test_split_entries_equal_the_50_digit_values)
    distance = min(abs(b - PI2 * n) for n in _LEVELS)
    if distance < NEAR_LEVEL_SWITCH:
        return 0.0
    return 2.0 * sys.float_info.epsilon * max(1.0, abs(b)) / distance**2


@settings(max_examples=200, deadline=None)
@given(window=_same_gap_window(), modes_per_side=st.integers(4, 64))
@example(  # b on either side of the switch, 1e-3 above the level 26π²
    window=(26 * PI2 - 20.0, 26 * PI2 + 1e-3 - 1e-9, 26 * PI2 + 1e-3 + 1e-9),
    modes_per_side=8,
)
@example(  # b2 one ulp above b1 = a, just outside the switch below 40π²
    window=(40 * PI2 - 1.0005e-3, 40 * PI2 - 1.0005e-3,
            math.nextafter(40 * PI2 - 1.0005e-3, math.inf)),
    modes_per_side=8,
)
def test_spectrum_rises_with_b_between_levels(window, modes_per_side):
    # dΛ(t)/dt = Σ φφᵀ/(π²(l²+m²) − t)² ⪰ 0 and the truncation is a
    # compression, so between two levels every sorted eigenvalue of
    # Λ(b) − Λ(a) is non-decreasing in b (Horn and Johnson, Matrix
    # Analysis, Cor. 4.3.12).  The tolerance is rounding, in two parts.
    # eigvalsh is backward stable: each computed eigenvalue lies within
    # a small multiple of n·ε·‖D‖ of the exact one, at most
    # 4J·ε = 5.7e-14 of max|eig| at J = 64, so 1e-12 of it.  Λ(a)
    # cancels, but Λ(b1) and Λ(b2) each carry the rounding of their
    # closed forms, which next to a level and outside the switch can
    # exceed 1e-12 of max|eig|: the two examples fall by 2.2e-7 with
    # max|eig| = 8e3 and by 1.4e-7 with max|eig| = 3.6e-7, 1.9 and 0.4
    # of the summed estimate, so 16 of it is allowed.  Over 8000 drawn
    # windows the largest fall was 1.1% of the whole tolerance.  An
    # eigenvalue put in the wrong block or a pole with the wrong sign
    # falls by about the spacing of the spectrum, many orders above.
    a, b1, b2 = window
    assume(b1 < b2)
    assume(not any(is_resonant(c, 1.0, DEFAULT_GUARD) for c in window))
    (_, at_b1), (_, at_b2) = experiments.difference_spectra(
        a, [b1, b2], 1.0, modes_per_side, DEFAULT_GUARD
    )
    lower, upper = at_b1[::-1], at_b2[::-1]
    scale = max(1.0, np.abs(lower).max(), np.abs(upper).max())
    rounding = 16.0 * (_closed_form_rounding(b1) + _closed_form_rounding(b2))
    assert np.all(lower <= upper + 1e-12 * scale + rounding)


class TestNearLevelSwitch:
    # Where a diagonal entry switches to the split pole, 1e-3
    # (NEAR_LEVEL_SWITCH) from its level, the computed Λ(b) jumps by the
    # rounding of the closed form outside the switch.  These pin that
    # margin, which a strict monotonicity or certified-count check must
    # allow for, at a tenth of the count threshold.
    @pytest.mark.parametrize("modes_per_side", [4, 16, 64])
    def test_jump_across_the_switch_moves_no_count(self, modes_per_side):
        # b 1e-9 inside and outside the switch 1e-3 above 26π²: a sorted
        # eigenvalue of Λ(b) − Λ(a) falls by 2.2e-7 from J = 16 on, where
        # exact arithmetic gives a rise (of up to 1.6e-2 here)
        delta = experiments.DEFAULT_DELTA
        inside, outside = (
            np.array(point.eigenvalues)
            for point in trajectories(
                26 * PI2 - 20.0,
                [26 * PI2 + 1e-3 - 1e-9, 26 * PI2 + 1e-3 + 1e-9],
                modes_per_side=modes_per_side,
            )
        )
        assert np.min(outside - inside) > -delta / 10
        assert count_negative(outside, delta) == count_negative(inside, delta)

    @pytest.mark.parametrize("modes_per_side", [4, 16, 64])
    def test_one_ulp_past_a_outside_the_switch(self, modes_per_side):
        # b one ulp above a, 1.0005e-3 below 40π²: Λ(b) − Λ(a) has an
        # eigenvalue of -1.4e-7 from J = 16 on, where exact arithmetic
        # gives none below zero
        a = 40 * PI2 - 1.0005e-3
        (point,) = trajectories(
            a, [math.nextafter(a, math.inf)], modes_per_side=modes_per_side
        )
        assert min(point.eigenvalues) > -experiments.DEFAULT_DELTA / 10


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="minor faults as Linux counts"
)
def test_no_page_fault_churn_per_point(one_cpu):
    # every batch is solved in buffers allocated once per call: at
    # J = 250 (one point a batch) a point that allocated and freed its
    # own J×J arrays took about 450 minor faults, as the heap was
    # trimmed after it and faulted back in at the next one
    resource = pytest.importorskip("resource")
    b_values = [-9.0 + i for i in range(21)]
    list(experiments.difference_spectra(-10.0, b_values[:1], 1.0, 250, 1e-9))
    points = experiments.difference_spectra(-10.0, b_values, 1.0, 250, 1e-9)
    next(points)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in points:
        pass
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50 * 20


def _points(b_values, modes_per_side, each=None):
    # each=None leaves difference_spectra its default, the (b, eigs) pair
    extra = () if each is None else (each,)
    return experiments.difference_spectra(
        -10.0, b_values, 1.0, modes_per_side, 1e-9, *extra
    )


def _spectra(b_values, modes_per_side, each=None):
    return list(_points(b_values, modes_per_side, each))


def _bits(value):
    """``value`` with every array and float replaced by its bits."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    return value


def _assert_same_points(points, expected):
    assert _bits(points) == _bits(expected)


def _grid(modes_per_side, batches):
    """b == a, then points filling ``batches`` batches, the last one
    partly, with the resonant b = pi^2 between the first two."""
    size = max(1, experiments.BATCH_ENTRIES // modes_per_side**2)
    valid = batches * size - size // 2
    b_values = [-10.0 + 0.75 * i for i in range(valid)]
    b_values.insert(size, PI2)
    return b_values


def _assert_no_child_process():
    # no helper is left running and none is left a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pid of each helper forked, in order."""
    fork = os.fork
    pids = []

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _render(b, eigs):
    # every bit of every eigenvalue; a resonant b renders nothing
    if eigs is None:
        return ""
    return f"{b!r}:" + ",".join(map(float.hex, eigs.tolist())) + "\n"


def _reduce(b, eigs):
    # what sweep keeps of a point
    if eigs is None:
        return None
    return count_negative(eigs, 1e-5), float(eigs[-1]), float(eigs[0])


#: The per-point functions every parallel behaviour is checked with,
#: one after the other: the default (b, eigs) pair (None), a
#: sweep-style reducer and a CSV-style renderer.  Where a behaviour has
#: a test of its own for the rendered text, the first two are UNRENDERED
UNRENDERED = (None, _reduce)
EACH = UNRENDERED + (_render,)


class _DiesAfter:
    """A helper's write end that exits the helper after ``budget`` bytes.

    Installed through ``experiments.open``, which the helper calls to
    open its end of the socket.
    """

    def __init__(self, out, budget):
        self.out, self.budget = out, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.out.close()

    def write(self, data):
        data = bytes(data)
        if len(data) >= self.budget:
            self.out.write(data[:self.budget])
            self.out.flush()
            os._exit(1)
        self.budget -= len(data)
        return self.out.write(data)

    def flush(self):
        self.out.flush()


class TestParallelSolve:
    # two processes solve, whatever the CPUs of the host; the one-CPU
    # loop is the reference, bit for bit

    def test_this_process_solves_batches_0_2_4(
        self, monkeypatch, two_cpus, batch_sizes
    ):
        self._solves_batches_0_2_4(monkeypatch, batch_sizes, UNRENDERED)

    def test_this_process_renders_batches_0_2_4(
        self, monkeypatch, two_cpus, batch_sizes
    ):
        self._solves_batches_0_2_4(monkeypatch, batch_sizes, (_render,))

    @staticmethod
    def _solves_batches_0_2_4(monkeypatch, batch_sizes, each_set):
        # the grid of test_batches_follow_input_order: batches of 6, 6
        # and 2 points, then 14 of one; the helper's calls are not seen,
        # so a helper that failed every batch would show only here
        b_values = [-10.0, -9.0, -8.0, -7.0, -6.0, -5.0, PI2]
        b_values += [11.0 + i for i in range(8)]
        entries = experiments.BATCH_ENTRIES
        for each in each_set:
            monkeypatch.setattr(experiments, "BATCH_ENTRIES", entries)
            monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
            batch_sizes.clear()
            points = _spectra(b_values, 100, each)
            assert batch_sizes == [6, 2]
            monkeypatch.setattr(experiments, "BATCH_ENTRIES", 1)
            single = _spectra(b_values, 100, each)
            assert batch_sizes == [6, 2] + [1] * 7
            monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
            _assert_same_points(points, _spectra(b_values, 100, each))
            _assert_same_points(single, _spectra(b_values, 100, each))

    @pytest.mark.parametrize("batches", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "modes_per_side, entries", [(1, 3), (100, None), (250, None)]
    )
    def test_spectra_equal_one_cpu(
        self, monkeypatch, forks, modes_per_side, entries, batches
    ):
        self._equal_one_cpu(
            monkeypatch, forks, modes_per_side, entries, batches, UNRENDERED
        )

    @pytest.mark.parametrize("batches", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "modes_per_side, entries", [(1, 3), (100, None), (250, None)]
    )
    def test_rendered_text_equals_one_cpu(
        self, monkeypatch, forks, modes_per_side, entries, batches
    ):
        self._equal_one_cpu(
            monkeypatch, forks, modes_per_side, entries, batches, (_render,)
        )

    @staticmethod
    def _equal_one_cpu(
        monkeypatch, forks, modes_per_side, entries, batches, each_set
    ):
        if entries is not None:
            monkeypatch.setattr(experiments, "BATCH_ENTRIES", entries)
        b_values = _grid(modes_per_side, batches)
        zero = np.zeros(4 * modes_per_side)
        for each in each_set:
            forks.clear()
            monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
            expected = _spectra(b_values, modes_per_side, each)
            assert forks == []
            monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
            points = _spectra(b_values, modes_per_side, each)
            _assert_same_points(points, expected)
            assert len(forks) == (batches > 1)
            # b == a: the zero spectrum
            if each is None:
                _assert_same_points(points[0], (-10.0, zero))
                assert all(
                    e.flags.writeable for _, e in points if e is not None
                )
            else:
                _assert_same_points(points[0], each(-10.0, zero))

    @pytest.mark.parametrize(
        "failure, after",
        [("exit", 0), ("exit", 1), ("MemoryError", 0), ("MemoryError", 1),
         ("header", 1), ("payload", 1), ("short", 1), ("each", 1)],
    )
    def test_dead_helper_leaves_its_batches_here(
        self, monkeypatch, two_cpus, batch_sizes, failure, after
    ):
        # of 7 batches (six of 6 points, then 3) the helper takes 1, 3
        # and 5.  It sends ``after`` batches, then dies before its next
        # solve, after the first 8 bytes of the next frame, halfway
        # through it or one byte before its end (a pickle lacking only
        # its STOP opcode), or raises in ``each``.  This process then
        # solves the helper's rest as well as its own 0, 2, 4 and 6.
        b_values = _grid(100, 7)
        parent = os.getpid()
        in_helper = []  # the helper's own copy counts its calls
        if failure in ("exit", "MemoryError"):
            solve = experiments.circulant_spectrum

            def dies_in_helper(*blocks):
                if os.getpid() != parent:
                    if len(in_helper) == after:
                        if failure == "exit":
                            os._exit(1)
                        raise MemoryError()
                    in_helper.append(blocks[0].shape[0])
                return solve(*blocks)

            monkeypatch.setattr(
                experiments, "circulant_spectrum", dies_in_helper
            )
        budget = [None]
        if failure in ("header", "payload", "short"):

            def opened(file, mode="r", *args, **kwargs):
                handle = open(file, mode, *args, **kwargs)
                if mode == "wb":
                    return _DiesAfter(handle, budget[0])
                return handle

            monkeypatch.setattr(experiments, "open", opened, raising=False)
        for each in EACH:
            monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
            serial = _spectra(b_values, 100, each)
            monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
            batch_sizes.clear()
            # batch 1 is the grid's points 7 to 12, after pi^2
            sent = len(pickle.dumps(serial[7:13]))
            budget[0] = sent + 8
            if failure == "payload":
                budget[0] += (sent - 8) // 2
            if failure == "short":  # batch 3 is the points 19 to 24
                budget[0] = sent + len(pickle.dumps(serial[19:25])) - 1
            inner = each or (lambda *point: point)

            def fails_in_helper(b, eigs):
                if os.getpid() != parent:
                    if len(in_helper) == 6:
                        raise ValueError("each failed")
                    in_helper.append(b)
                return inner(b, eigs)

            run = fails_in_helper if failure == "each" else each
            _assert_same_points(_spectra(b_values, 100, run), serial)
            assert batch_sizes == [6] * (6 - after) + [3]

    def test_failed_fork_leaves_the_helper_batches_here(
        self, monkeypatch, one_cpu
    ):
        b_values = _grid(100, 3)
        expected = [_spectra(b_values, 100, each) for each in EACH]

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
        for each, points in zip(EACH, expected):
            _assert_same_points(_spectra(b_values, 100, each), points)

    def test_no_helper_outlives_a_full_run(self, two_cpus, forks):
        for each in EACH:
            forks.clear()
            with time_limit(10.0):
                _spectra(_grid(100, 7), 100, each)
            assert len(forks) == 1
            _assert_no_child_process()

    def test_no_helper_outlives_close(self, two_cpus, forks):
        self._no_helper_outlives_close(forks, UNRENDERED)

    def test_no_helper_outlives_close_when_rendering(self, two_cpus, forks):
        self._no_helper_outlives_close(forks, (_render,))

    @staticmethod
    def _no_helper_outlives_close(forks, each_set):
        # 30 batches: the helper is still solving, or blocked on a full
        # pipe, when the consumer stops
        for each in each_set:
            forks.clear()
            with time_limit(10.0):
                points = _points(_grid(100, 30), 100, each)
                next(points)
                points.close()
            assert len(forks) == 1
            _assert_no_child_process()
        # the helper is partway through a batch of 6 points at 0.1 s
        # each when the consumer stops: close waits for that batch and
        # no more, a small part of the helper's 15 batches
        parent = os.getpid()
        for each in each_set:
            inner = each or (lambda *point: point)

            def slow_in_helper(b, eigs):
                if os.getpid() != parent:
                    time.sleep(0.1)
                return inner(b, eigs)

            forks.clear()
            points = _points(_grid(100, 30), 100, slow_in_helper)
            next(points)
            with time_limit(4.0):
                points.close()
            assert len(forks) == 1
            _assert_no_child_process()

    def test_no_helper_outlives_the_close_of_an_earlier_solve(
        self, two_cpus, forks
    ):
        # the later solve's helper is forked while the earlier solve's
        # pipe is open; closing the earlier solve first must still end
        # its helper, which dies only once no process holds its reader
        for each in EACH:
            forks.clear()
            with time_limit(10.0):
                earlier = _points(_grid(100, 30), 100, each)
                next(earlier)
                later = _points(_grid(100, 30), 100, each)
                next(later)
                earlier.close()
                later.close()
            assert len(forks) == 2
            _assert_no_child_process()

    def test_no_helper_outlives_close_beside_a_process_forked_elsewhere(
        self, two_cpus
    ):
        # a process forked by other code while the pipe is open, and
        # still running when the solve is closed, holds no read end
        points = _points(_grid(100, 30), 100)
        next(points)
        release, hold = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(hold)
                os.read(release, 1)  # until this test has closed hold
            finally:
                os._exit(0)
        os.close(release)
        try:
            with time_limit(10.0):
                points.close()
        finally:
            os.close(hold)
            os.waitpid(pid, 0)
        _assert_no_child_process()

    def test_no_helper_outlives_a_consumer_exception(self, two_cpus, forks):
        self._no_helper_outlives_a_consumer_exception(forks, UNRENDERED)

    def test_no_helper_outlives_a_consumer_exception_when_rendering(
        self, two_cpus, forks
    ):
        self._no_helper_outlives_a_consumer_exception(forks, (_render,))

    @staticmethod
    def _no_helper_outlives_a_consumer_exception(forks, each_set):
        class Stop(Exception):
            pass

        for each in each_set:
            forks.clear()
            with time_limit(10.0):
                with pytest.raises(Stop):
                    for _ in _points(_grid(100, 30), 100, each):
                        raise Stop
            assert len(forks) == 1
            _assert_no_child_process()


class TestCpuCount:
    def test_counts_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity mask on this platform")
        assert threading.active_count() == 1
        assert experiments._cpu_count() == len(os.sched_getaffinity(0))

    def test_one_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert experiments._cpu_count() == 1

    def test_a_threaded_process_forks_no_helper(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert experiments._cpu_count() == 1
            points = _spectra(_grid(100, 3), 100)
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert forks == []
        assert experiments._cpu_count() == 2
        _assert_same_points(points, _spectra(_grid(100, 3), 100))
        assert len(forks) == 1


class TestVerifyCrossing:
    def test_simple_crossing(self):
        report = verify_crossing(1, eps=0.1, modes_per_side=40)
        assert report.expected == 2
        assert report.measured == 2
        assert report.agreed
        assert len(report.attempts) == 1
        assert report.attempts[0].eps == 0.1

    def test_zero_level(self):
        report = verify_crossing(0, eps=0.1, modes_per_side=40)
        assert report.expected == 1
        assert report.measured == 1

    def test_rejects_non_eigenvalue_level(self):
        with pytest.raises(ValueError):
            verify_crossing(3, eps=0.1, modes_per_side=10)

    def test_rejects_window_containing_second_level(self):
        # levels 0 and 2 sit pi^2 away from level 1
        with pytest.raises(ValueError):
            verify_crossing(1, eps=PI2 + 0.1, modes_per_side=10)

    def test_window_ending_at_a_level_names_eps(self):
        # c - eps = 0 is the l = m = 0 level: the window count is
        # ill-posed, so the message points at eps
        with pytest.raises(ResonanceError, match="eps=.*change eps"):
            verify_crossing(1, eps=PI2, modes_per_side=10)

    def test_resonant_window_end_names_it_and_solves_nothing(
        self, monkeypatch, one_cpu
    ):
        # the window's one decider calls the upper end resonant: the row
        # is skipped, so nothing is solved and the message names the
        # window and its eps
        n, eps = 25, 0.05
        upper = PI2 * n + eps
        decide = experiments.is_resonant

        def resonant_upper(b, k, guard):
            return b == upper or decide(b, k, guard)

        def refuse(*blocks):
            raise AssertionError("circulant_spectrum was called")

        monkeypatch.setattr(experiments, "is_resonant", resonant_upper)
        monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
        message = (
            f"window around pi^2*{n}/k^2 with eps={eps} ends within the "
            f"guard 1e-09 of a Neumann eigenvalue; change eps"
        )
        with pytest.raises(ResonanceError, match=re.escape(message)):
            verify_crossing(n, eps=eps, modes_per_side=8)

    @pytest.mark.parametrize("n, message", [
        (5.0, "n must be an integer, got 5.0"),
        (5.5, "n must be an integer, got 5.5"),
        (True, "n must be an integer, got True"),
        (-1, "n must be nonnegative, got -1"),
    ])
    def test_level_is_checked_before_any_solve(
        self, monkeypatch, one_cpu, n, message
    ):
        # n is checked before the first window is solved: True indexes
        # as 1 but is no level, and 5.0 is refused, not truncated
        def refuse(*blocks):
            raise AssertionError("circulant_spectrum was called")

        monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_crossing(n, eps=0.1, modes_per_side=8)

    @pytest.mark.parametrize("n", [np.int64(5), 0])
    def test_integer_levels_run(self, n):
        report = verify_crossing(n, eps=0.1, modes_per_side=30)
        assert report.n == n
        assert report.expected == multiplicity(int(n))
        assert report.agreed

    def test_record_holds_measured_and_agreed(self):
        # the record is the crossing's JSON document, so its fields hold
        # the final count and the verdict
        report = verify_crossing(1, eps=0.1, modes_per_side=30, delta=200.0)
        record = dataclasses.asdict(report)
        assert record["measured"] == report.attempts[-1].measured == 2
        assert record["agreed"] is True

    def test_rejects_eps_at_or_below_guard(self):
        with pytest.raises(ValueError):
            verify_crossing(1, eps=1e-10, modes_per_side=10)
        with pytest.raises(ValueError):
            verify_crossing(1, eps=-0.1, modes_per_side=10)

    def test_retry_halves_eps_and_reports_both_attempts(self):
        # a threshold between the eigenvalue magnitudes at eps and eps/2
        # makes the first attempt miss and the halved one succeed
        report = verify_crossing(1, eps=0.1, modes_per_side=30, delta=200.0)
        assert [a.eps for a in report.attempts] == [0.1, 0.05]
        assert report.attempts[0].measured == 0
        assert report.attempts[1].measured == 2
        assert report.measured == 2
        assert report.agreed

    def test_one_point_window_allocates_one_batch_member(self):
        # an attempt is a one-point sweep, so its batch buffer holds
        # one J×J member: a traced peak of about 12 kB at J = 10,
        # where the BATCH_ENTRIES // J² = 655 members of a full batch
        # would take 1.06 MB
        verify_crossing(5, modes_per_side=10)  # imports and caches
        with traced_peak() as traced:
            verify_crossing(5, modes_per_side=10)
        assert traced.bytes < 100_000

    def test_expected_equals_multiplicity(self):
        for n in (0, 1, 2, 4, 5):
            report = verify_crossing(n, eps=0.1, modes_per_side=30)
            assert report.expected == multiplicity(n)

"""Tests for the sweep, trajectory and crossing experiment drivers.

Matrix sizes here are kept small for speed; the full-scale runs live in
the acceptance suite.
"""

import re

import numpy as np
import pytest

from ndsquare import experiments, spectrum
from ndsquare.experiments import sweep, trajectories, verify_crossing
from ndsquare.spectrum import (
    PI2,
    ResonanceError,
    multiplicity,
    negative_eigenvalue_bound,
)


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

    def test_output_follows_input_order(self):
        b_values = [5.0, -9.0, 2.0]
        reports = sweep(-10.0, b_values, modes_per_side=10)
        assert [r.b for r in reports] == b_values

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



def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(
        x.view(np.int64), y.view(np.int64)
    )


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
    def test_batches_follow_input_order(self, monkeypatch, batch_sizes):
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
        for (_, eigs), (_, alone) in zip(spectra, single):
            assert (eigs is None) == (alone is None)
            assert eigs is None or _same_bits(eigs, alone)
        assert not spectra[0][1].any()

    def test_batches_are_solved_on_demand(self, batch_sizes):
        # a consumer gets the first spectrum after one batch is solved
        spectra = experiments.difference_spectra(
            -10.0, [-9.0 + i for i in range(20)], 1.0, 100, 1e-9
        )
        assert batch_sizes == []
        next(spectra)
        assert batch_sizes == [6]

    @pytest.mark.parametrize("driver", [sweep, trajectories])
    def test_undecidable_b_fails_before_any_eigensolve(
        self, monkeypatch, driver
    ):
        def refuse(*blocks):
            raise AssertionError("circulant_spectrum was called")

        monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
        with pytest.raises(ValueError, match="decidability limit"):
            driver(-10.0, [5.0, 1e300], modes_per_side=4)
        with pytest.raises(ValueError, match="decidability limit"):
            experiments.difference_spectra(-10.0, [5.0, 1e300], 1.0, 4, 1e-9)


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
        self, monkeypatch
    ):
        # the window count accepts both ends; a decider that calls the
        # upper end resonant must stop the measurement before its solve
        n, eps = 25, 0.05
        upper = PI2 * n + eps
        decide = experiments.is_resonant

        def resonant_upper(b, k, guard):
            return b == upper or decide(b, k, guard)

        def refuse(*blocks):
            raise AssertionError("circulant_spectrum was called")

        monkeypatch.setattr(experiments, "is_resonant", resonant_upper)
        monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
        message = f"crossing window end {upper!r} is resonant"
        with pytest.raises(ResonanceError, match=re.escape(message)):
            verify_crossing(n, eps=eps, modes_per_side=8)

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

    def test_expected_equals_multiplicity(self):
        for n in (0, 1, 2, 4, 5):
            report = verify_crossing(n, eps=0.1, modes_per_side=30)
            assert report.expected == multiplicity(n)

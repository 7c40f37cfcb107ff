"""Tests for the symmetric eigenvalue utilities and truncation estimators."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ndsquare.linalg import (
    circulant_spectrum,
    count_negative,
    difference_truncation_error,
    spectral_norm,
    spectrum_report,
    symmetric_eigenvalues,
    truncation_error,
)
from ndsquare.nd_matrix import (
    adjacent_next_entry,
    assemble,
    opposite_side_entry,
    same_side_entry,
    side_blocks,
)
from ndsquare.spectrum import ProblemParams, is_resonant


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


class TestSymmetricEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_reflection(self):
        eigs = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eigs, [1.0, -1.0], atol=1e-15)

    def test_diagonal_sorted_descending(self):
        eigs = symmetric_eigenvalues(np.diag([3.0, -2.0, 0.5]))
        np.testing.assert_allclose(eigs, [3.0, 0.5, -2.0])

    def test_rejects_nonsymmetric(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            symmetric_eigenvalues(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_identities(self, seed):
        m = random_symmetric(50, seed)
        eigs = symmetric_eigenvalues(m)
        assert np.sum(eigs) == pytest.approx(np.trace(m), rel=1e-9, abs=1e-9)
        assert np.sum(eigs**2) == pytest.approx(
            np.trace(m @ m), rel=1e-9
        )

    def test_descending_with_multiplicity(self):
        eigs = symmetric_eigenvalues(random_symmetric(30, 7))
        assert len(eigs) == 30
        assert np.all(np.diff(eigs) <= 0)


class TestCountNegative:
    def test_threshold_semantics(self):
        assert count_negative([1.0, -1e-3, -1e-6], 1e-5) == 1
        assert count_negative([-1.0, -2.0], 1e-5) == 2
        assert count_negative([], 1e-5) == 0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            count_negative([1.0], 0.0)

    @given(
        eigs=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            max_size=30,
        ),
        d1=st.floats(min_value=1e-8, max_value=1.0),
        d2=st.floats(min_value=1e-8, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_monotone_nonincreasing_in_delta(self, eigs, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert count_negative(eigs, hi) <= count_negative(eigs, lo)


class TestSpectralNorm:
    def test_known_values(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
        assert spectral_norm(np.diag([-4.0, 2.0])) == pytest.approx(4.0)
        assert spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_bounded_by_frobenius_and_diagonal(self, seed):
        m = random_symmetric(25, seed)
        norm = spectral_norm(m)
        assert norm <= np.linalg.norm(m, "fro") + 1e-12
        assert norm >= np.max(np.abs(np.diag(m))) - 1e-12


class TestSpectrumReport:
    def test_consistency(self):
        m = np.diag([2.0, -3.0, 1e-7, -1e-7])
        report = spectrum_report(m, 1e-5)
        assert report.negative_count == 1
        assert report.tolerance == 1e-5
        assert len(report.eigenvalues) == 4
        assert list(report.eigenvalues) == sorted(
            report.eigenvalues, reverse=True
        )
        assert report.negative_count == count_negative(
            report.eigenvalues, report.tolerance
        )


class TestTruncationError:
    def test_rejects_odd_mode_count(self):
        with pytest.raises(ValueError):
            truncation_error(ProblemParams(a=-10.0, modes_per_side=5))

    def test_decreases_with_truncation_level(self):
        values = [
            truncation_error(ProblemParams(a=-10.0, k=1.0, modes_per_side=j))
            for j in (4, 8, 16, 32)
        ]
        assert values == sorted(values, reverse=True)

    def test_matches_hand_computation(self):
        params = ProblemParams(a=-1.0, k=1.0, modes_per_side=2)
        full = assemble(params).entries
        half = assemble(ProblemParams(a=-1.0, k=1.0, modes_per_side=1)).entries
        padded = np.zeros_like(full)
        padded[:4, :4] = half
        assert truncation_error(params) == pytest.approx(
            spectral_norm(full - padded), rel=1e-13
        )

    def test_padding_respects_interleaved_order(self):
        # the half matrix must land on index pairs with both mode
        # frequencies below J/2, i.e. the contiguous upper-left corner
        params = ProblemParams(a=-1.0, k=1.0, modes_per_side=4)
        full = assemble(params).entries
        half = assemble(ProblemParams(a=-1.0, k=1.0, modes_per_side=2)).entries
        np.testing.assert_array_equal(full[:8, :8], half)


class TestDifferenceTruncationError:
    def test_matches_hand_computation(self):
        a, b, j_modes = -10.0, 5.0, 8
        diff = (
            assemble(ProblemParams(a=b, modes_per_side=j_modes)).entries
            - assemble(ProblemParams(a=a, modes_per_side=j_modes)).entries
        )
        padded = np.zeros_like(diff)
        padded[:16, :16] = diff[:16, :16]
        assert difference_truncation_error(
            a, b, 1.0, j_modes
        ) == pytest.approx(spectral_norm(diff - padded), rel=1e-13)

    def test_far_below_per_operator_error(self):
        # the slowly decaying diagonals cancel in the difference
        per_op = truncation_error(ProblemParams(a=-10.0, modes_per_side=16))
        diff = difference_truncation_error(-10.0, 5.0, 1.0, 16)
        assert diff < per_op / 10.0

    def test_rejects_odd_mode_count(self):
        with pytest.raises(ValueError):
            difference_truncation_error(-10.0, 5.0, 1.0, 7)


def interleave(same, opposite, block_next):
    # dense matrix with block (r - p) mod 4 at rows p::4, columns r::4
    j_modes = len(same)
    blocks = (np.diag(same), block_next, np.diag(opposite), block_next.T)
    out = np.empty((4 * j_modes, 4 * j_modes))
    for p in range(4):
        for r in range(4):
            out[p::4, r::4] = blocks[(r - p) % 4]
    return out


class TestCirculantSpectrum:
    @given(
        a=st.floats(min_value=-50.0, max_value=150.0),
        b=st.floats(min_value=-50.0, max_value=150.0),
        k=st.floats(min_value=0.5, max_value=2.0),
        j_modes=st.sampled_from([1, 2, 3, 11, 40]),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_difference_matches_dense(self, a, b, k, j_modes):
        assume(not is_resonant(a, k) and not is_resonant(b, k))
        params_a = ProblemParams(a=a, k=k, modes_per_side=j_modes)
        params_b = ProblemParams(a=b, k=k, modes_per_side=j_modes)
        blocks = side_blocks(params_b)
        for block, base_block in zip(blocks, side_blocks(params_a)):
            block -= base_block
        blocked = circulant_spectrum(*blocks)
        dense = symmetric_eigenvalues(
            assemble(params_b).entries - assemble(params_a).entries
        )
        assert blocked.shape == (4 * j_modes,)
        assert np.all(np.diff(blocked) <= 0)
        scale = max(1.0, float(np.max(np.abs(dense))))
        np.testing.assert_allclose(blocked, dense, rtol=0, atol=1e-12 * scale)
        assert count_negative(blocked, 1e-5) == count_negative(dense, 1e-5)

    @pytest.mark.parametrize(
        "a, j_modes", [(-1.0, 1), (-10.0, 3), (3.0, 40), (3.0, 240)]
    )
    def test_side_blocks_interleave_to_assemble(self, a, j_modes):
        # the scalar entry functions are the reference; J = 240 reaches
        # the underflowed odd-i csch entries, whose -0.0 the dense
        # matrix stores as 0.0
        params = ProblemParams(a=a, modes_per_side=j_modes)
        idx = range(j_modes)
        reference = interleave(
            np.array([same_side_entry(i, a) for i in idx]),
            np.array([opposite_side_entry(i, a) + 0.0 for i in idx]),
            np.array([[adjacent_next_entry(i, j, a) for j in idx] for i in idx]),
        )
        blocked = interleave(*side_blocks(params))
        entries = assemble(params).entries
        for dense in (blocked, reference):
            assert np.array_equal(dense, entries)
            assert np.array_equal(np.signbit(dense), np.signbit(entries))

    def test_single_operator_matches_dense(self):
        params = ProblemParams(a=-10.0, modes_per_side=40)
        np.testing.assert_allclose(
            circulant_spectrum(*side_blocks(params)),
            symmetric_eigenvalues(assemble(params).entries),
            rtol=0, atol=1e-13,
        )

"""Tests for the symmetric eigenvalue utilities and truncation estimators."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ndsquare import nd_matrix
from ndsquare.experiments import count_negative
from ndsquare.nd_matrix import (
    assemble,
    circulant_spectrum,
    difference_truncation_error,
    side_blocks,
    symmetric_eigenvalues,
    truncation_error,
)
from ndsquare.spectrum import ProblemParams, is_resonant
from oracles import spectral_norm
from scalar_reference import (
    adjacent_next_entry,
    five_call_circulant_spectrum,
    opposite_side_diagonal,
    same_side_diagonal,
)


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
        blocks = side_blocks(b * k * k, j_modes)
        for block, base_block in zip(blocks, side_blocks(a * k * k, j_modes)):
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
        "a, j_modes",
        [(-1.0, 1), (-10.0, 3), (3.0, 40), (3.0, 240), (200.0, 300)],
    )
    def test_side_blocks_interleave_to_assemble(self, a, j_modes):
        # the scalar closed forms of tests/scalar_reference.py are the
        # reference; J = 240 reaches the underflowed odd-i csch entries,
        # whose -0.0 the dense matrix stores as 0.0
        params = ProblemParams(a=a, modes_per_side=j_modes)
        idx = range(j_modes)
        reference = interleave(
            np.array(same_side_diagonal(a, 1.0, j_modes)),
            np.array(opposite_side_diagonal(a, 1.0, j_modes)),
            np.array([[adjacent_next_entry(i, j, a) for j in idx] for i in idx]),
        )
        blocked = interleave(*side_blocks(a, j_modes))
        entries = assemble(params).entries
        for dense in (blocked, reference):
            assert np.array_equal(dense, entries)
            assert np.array_equal(np.signbit(dense), np.signbit(entries))

    def test_single_operator_matches_dense(self):
        params = ProblemParams(a=-10.0, modes_per_side=40)
        np.testing.assert_allclose(
            circulant_spectrum(*side_blocks(-10.0, 40)),
            symmetric_eigenvalues(assemble(params).entries),
            rtol=0, atol=1e-13,
        )


def assert_same_bits(x, y):
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


def copies(blocks):
    return [block.copy() for block in blocks]


def difference_blocks(a, b, j_modes):
    blocks = side_blocks(b, j_modes)
    for block, base_block in zip(blocks, side_blocks(a, j_modes)):
        block -= base_block
    return blocks


class TestStackedPairs:
    """Problems built in the next-side block return the five-call bits."""

    @pytest.mark.parametrize("j_modes", [1, 2, 3, 11, 40, 51])
    def test_figure_1_differences_and_single_operators(self, j_modes):
        # the figure-1 grid b = -9..200 against a = -10, plus b == a,
        # whose blocks are all +0.0; J = 1 has an empty odd half
        checked = 0
        for b in [-10.0] + [-9.0 + i for i in range(210)]:
            if is_resonant(b, 1.0):
                continue
            for blocks in (
                difference_blocks(-10.0, b, j_modes),
                side_blocks(b, j_modes),
            ):
                assert_same_bits(
                    circulant_spectrum(*copies(blocks)),
                    five_call_circulant_spectrum(*blocks),
                )
            checked += 1
        assert checked == 210

    @pytest.mark.parametrize("j_modes", [1, 2, 3, 6, 9])
    def test_signed_zero_entries(self, j_modes):
        # no side block holds -0.0, but circulant_spectrum takes any
        # blocks; p ± c and 0.0 ± c keep the bits of diag ± coupling
        rng = np.random.default_rng(j_modes)
        for fill in (0.0, -0.0):
            for density in (1.0, 0.5):
                same, opposite = rng.standard_normal((2, j_modes))
                block_next = rng.standard_normal((j_modes, j_modes))
                block_next += block_next.T
                zeros = rng.random((j_modes, j_modes)) < density
                zeros |= zeros.T
                block_next[zeros] = fill
                same[np.diagonal(zeros)] = fill
                opposite[np.diagonal(zeros)] = fill
                assert_same_bits(
                    circulant_spectrum(same, opposite, block_next.copy()),
                    five_call_circulant_spectrum(same, opposite, block_next),
                )

    @pytest.mark.parametrize("j_modes", [2, 4, 40, 250])
    def test_zeroed_borders(self, monkeypatch, j_modes):
        # _border_norm zeroes the first J/2 modes in place; a pair built
        # as -c instead of 0.0 - c turns those zeros into -0.0 and
        # changes truncation-check --size 1000 in the 17th digit
        seen = []

        def both(*blocks):
            new = circulant_spectrum(*copies(blocks))
            assert_same_bits(new, five_call_circulant_spectrum(*blocks))
            seen.append(blocks)
            return new

        monkeypatch.setattr(nd_matrix, "circulant_spectrum", both)
        truncation_error(ProblemParams(a=-10.0, modes_per_side=j_modes))
        truncation_error(ProblemParams(a=200.0, modes_per_side=j_modes))
        for a, b in ((-10.0, 200.0), (3.0, 57.3), (57.3, 57.3)):
            difference_truncation_error(a, b, modes_per_side=j_modes)
        assert len(seen) == 5
        assert all(not blocks[2][: j_modes // 2, : j_modes // 2].any()
                   for blocks in seen)


def batch_members(j_modes, members):
    # b == a (all +0.0), a zeroed border as _border_norm passes it,
    # figure-1 differences and single operators
    half = j_modes // 2
    zeroed = difference_blocks(-10.0, 57.3, j_modes)
    zeroed[0][:half] = 0.0
    zeroed[1][:half] = 0.0
    zeroed[2][:half, :half] = 0.0
    cases = [
        difference_blocks(-10.0, -10.0, j_modes),
        zeroed,
        difference_blocks(-10.0, -9.0, j_modes),
        side_blocks(57.3, j_modes),
        difference_blocks(-10.0, 200.0, j_modes),
        difference_blocks(-10.0, 5.5, j_modes),
        side_blocks(-10.0, j_modes),
    ]
    return cases[:members]


class TestBatchAxis:
    """A stacked call returns each member's own bits."""

    @pytest.mark.parametrize("members", [1, 2, 7])
    @pytest.mark.parametrize("j_modes", [1, 2, 3, 11, 100, 251])
    def test_stacked_members_equal_single_calls(self, j_modes, members):
        cases = batch_members(j_modes, members)
        assert len(cases) == members
        stacked = circulant_spectrum(
            *(np.stack([case[part] for case in cases]) for part in range(3))
        )
        assert stacked.shape == (members, 4 * j_modes)
        for row, case in zip(stacked, cases):
            assert_same_bits(row, circulant_spectrum(*copies(case)))
            assert_same_bits(row, five_call_circulant_spectrum(*case))

    def test_two_batch_axes(self):
        cases = batch_members(3, 4)
        stacked = circulant_spectrum(
            *(
                np.stack([case[part] for case in cases]).reshape(
                    (2, 2) + cases[0][part].shape
                )
                for part in range(3)
            )
        )
        assert stacked.shape == (2, 2, 12)
        for row, case in zip(stacked.reshape(4, 12), cases):
            assert_same_bits(row, circulant_spectrum(*case))


class TestReusedBuffers:
    """What a reused buffer held before a call is never read."""

    @pytest.mark.parametrize("members", [1, 2, 7])
    @pytest.mark.parametrize("j_modes", [1, 2, 3, 11, 100, 251])
    def test_only_the_next_block_is_overwritten(self, j_modes, members):
        # the batch axis cases, stacked and then each alone: same and
        # opposite keep their bits, and each spectrum has the bits of
        # the five-call oracle on untouched copies of the blocks
        cases = batch_members(j_modes, members)
        oracle = [five_call_circulant_spectrum(*case) for case in cases]
        stacked = [
            np.stack([case[part] for case in cases]) for part in range(3)
        ]
        for blocks, expected in [(stacked, np.stack(oracle))] + list(
            zip(cases, oracle)
        ):
            kept = copies(blocks)
            assert_same_bits(circulant_spectrum(*blocks), expected)
            assert_same_bits(blocks[0], kept[0])
            assert_same_bits(blocks[1], kept[1])

    @pytest.mark.parametrize("j_modes", [1, 2, 3, 11, 100, 251])
    def test_stale_next_block_is_never_read(self, j_modes):
        ak2 = np.array([-10.0, 57.3, 200.0, -9.0])
        for value, shape in ((ak2, ak2.shape), (ak2[:1], (1,)), (57.3, ())):
            out = np.full((max(1, np.size(value)), j_modes, j_modes), np.nan)
            blocks = side_blocks(value, j_modes, out)
            assert np.shares_memory(blocks[2], out)
            assert blocks[2].shape == shape + (j_modes, j_modes)
            for part, fresh in zip(blocks, side_blocks(value, j_modes)):
                assert_same_bits(part, fresh)

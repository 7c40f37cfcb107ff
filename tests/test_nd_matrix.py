"""Tests for the closed-form matrix assembly and its series oracle.

Frozen expected values were evaluated independently at 50-digit
precision (mpmath) from the closed-form expressions; the series oracle
re-derives them inside the suite through the overlap-integral double
series.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndsquare.nd_matrix import (
    NdMatrix,
    adjacent_next_entry,
    adjacent_prev_entry,
    assemble,
    assemble_series_oracle,
    dumps_matrix,
    load_matrix,
    normalizer,
    opposite_side_entry,
    overlap_integral,
    same_side_entry,
    sum_formula,
)
from ndsquare.spectrum import PI2, ProblemParams, ResonanceError

COTH_1 = 1.3130352854993313
CSCH_1 = 0.8509181282393215
NEG_COT_1 = -0.6420926159343307
NEG_CSC_1 = -1.1883951057781212
SQRT2 = math.sqrt(2.0)


def literal_series_entry(i, p, j, r, a, k, cutoff):
    """Unoptimized truncation of the double series, term by term."""
    total = 0.0
    for l in range(cutoff + 1):
        for m in range(cutoff + 1):
            total += (
                overlap_integral(p, i, (l, m))
                * overlap_integral(r, j, (l, m))
                / (PI2 * (l * l + m * m) - a * k * k)
            )
    return total


class TestNormalizer:
    def test_values(self):
        assert normalizer(0) == 1.0
        assert normalizer(1) == pytest.approx(SQRT2, rel=1e-15)
        assert normalizer(7) == pytest.approx(SQRT2, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalizer(-1)


class TestSameSideEntry:
    def test_hyperbolic_branch(self):
        assert same_side_entry(0, -1.0, 1.0) == pytest.approx(COTH_1, rel=1e-14)
        assert same_side_entry(2, 1.0, 1.0) == pytest.approx(
            0.16121110448562939, rel=1e-14
        )

    def test_trigonometric_branch(self):
        assert same_side_entry(0, 1.0, 1.0) == pytest.approx(
            NEG_COT_1, rel=1e-14
        )

    def test_branch_point_is_resonant(self):
        with pytest.raises(ResonanceError):
            same_side_entry(1, PI2, 1.0)
        with pytest.raises(ResonanceError):
            same_side_entry(0, 1e-12, 1.0)

    def test_cot_pole_is_resonant(self):
        # a*k^2 = pi^2*(0^2 + 1^2) puts i=0 on a cot pole
        with pytest.raises(ResonanceError):
            same_side_entry(0, PI2, 1.0)

    def test_large_argument_stable(self):
        # sqrt(pi^2*300^2 + 10) ~ 942 would overflow sinh/cosh
        value = same_side_entry(300, -10.0, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(
            1.0 / math.sqrt(PI2 * 300**2 + 10.0), rel=1e-12
        )


class TestOppositeSideEntry:
    def test_hyperbolic_branch(self):
        assert opposite_side_entry(0, -1.0, 1.0) == pytest.approx(
            CSCH_1, rel=1e-14
        )
        assert opposite_side_entry(1, -1.0, 1.0) == pytest.approx(
            -0.022474441722027898, rel=1e-13
        )

    def test_trigonometric_branch(self):
        assert opposite_side_entry(0, 1.0, 1.0) == pytest.approx(
            NEG_CSC_1, rel=1e-14
        )

    def test_large_argument_underflows_to_zero(self):
        value = opposite_side_entry(300, -10.0, 1.0)
        assert value == 0.0

    def test_csc_pole_is_resonant(self):
        with pytest.raises(ResonanceError):
            opposite_side_entry(0, PI2, 1.0)


class TestAdjacentEntries:
    def test_known_values(self):
        assert adjacent_next_entry(0, 0, -1.0, 1.0) == pytest.approx(
            1.0, rel=1e-15
        )
        assert adjacent_next_entry(1, 0, -1.0, 1.0) == pytest.approx(
            -0.13010717871492744, rel=1e-14
        )
        # sign follows the row index: i=0 keeps the plus sign
        assert adjacent_next_entry(0, 1, -1.0, 1.0) == pytest.approx(
            +0.13010717871492744, rel=1e-14
        )

    def test_prev_side_flips_the_sign_index(self):
        assert adjacent_prev_entry(0, 0, -1.0, 1.0) == pytest.approx(1.0)
        assert adjacent_prev_entry(1, 0, -1.0, 1.0) == pytest.approx(
            +0.13010717871492744, rel=1e-14
        )
        assert adjacent_prev_entry(0, 1, -1.0, 1.0) == pytest.approx(
            -0.13010717871492744, rel=1e-14
        )

    def test_resonant_denominator(self):
        with pytest.raises(ResonanceError):
            adjacent_next_entry(1, 0, PI2, 1.0)

    @given(
        i=st.integers(min_value=0, max_value=50),
        j=st.integers(min_value=0, max_value=50),
        a=st.sampled_from([-10.0, -1.0, 2.5, 30.0, 199.0]),
        k=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=150)
    def test_transpose_identity(self, i, j, a, k):
        assert adjacent_prev_entry(i, j, a, k) == adjacent_next_entry(
            j, i, a, k
        )


class TestSumFormula:
    def test_closed_forms(self):
        assert sum_formula("plain", 1.0) == pytest.approx(COTH_1, rel=1e-14)
        assert sum_formula("alternating", 1.0) == pytest.approx(
            CSCH_1, rel=1e-14
        )
        assert sum_formula("plain", -1.0) == pytest.approx(
            NEG_COT_1, rel=1e-14
        )
        assert sum_formula("alternating", -1.0) == pytest.approx(
            NEG_CSC_1, rel=1e-14
        )

    def test_pole_errors(self):
        with pytest.raises(ResonanceError):
            sum_formula("plain", 0.0)
        with pytest.raises(ResonanceError):
            sum_formula("plain", -PI2)
        with pytest.raises(ResonanceError):
            sum_formula("alternating", -4.0 * PI2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            sum_formula("weighted", 1.0)

    @pytest.mark.parametrize("c", [1.0, 5.0, -1.0])
    @pytest.mark.parametrize("terms", [1_000, 10_000, 100_000])
    def test_partial_sums_converge_plain(self, c, terms):
        partial = math.fsum(
            normalizer(m) ** 2 / (PI2 * m * m + c) for m in range(terms + 1)
        )
        assert abs(partial - sum_formula("plain", c)) <= 4.0 / (PI2 * terms)

    @pytest.mark.parametrize("c", [1.0, 5.0, -1.0])
    @pytest.mark.parametrize("terms", [1_000, 10_000, 100_000])
    def test_partial_sums_converge_alternating(self, c, terms):
        partial = math.fsum(
            (-1.0) ** m * normalizer(m) ** 2 / (PI2 * m * m + c)
            for m in range(terms + 1)
        )
        assert abs(partial - sum_formula("alternating", c)) <= 4.0 / (
            PI2 * terms
        )


class TestOverlapIntegral:
    def test_known_values(self):
        assert overlap_integral(0, 1, (2, 1)) == pytest.approx(SQRT2)
        assert overlap_integral(3, 1, (1, 3)) == pytest.approx(SQRT2)
        assert overlap_integral(0, 1, (2, 0)) == 0.0

    def test_sign_structure(self):
        # right side: (-1)^l * d_l when j == m
        assert overlap_integral(0, 0, (1, 0)) == pytest.approx(-SQRT2)
        # top side: (-1)^(m+j) * d_m when j == l
        assert overlap_integral(1, 2, (2, 1)) == pytest.approx(-SQRT2)
        # left side: (-1)^j * d_l when j == m
        assert overlap_integral(2, 1, (1, 1)) == pytest.approx(-SQRT2)
        # bottom side: d_m when j == l, no sign
        assert overlap_integral(3, 2, (2, 5)) == pytest.approx(SQRT2)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            overlap_integral(4, 0, (0, 0))
        with pytest.raises(ValueError):
            overlap_integral(0, -1, (0, 0))
        with pytest.raises(ValueError):
            overlap_integral(0, 0, (-1, 0))


class TestAssemble:
    def test_smallest_matrix_layout(self):
        nd = assemble(ProblemParams(a=-1.0, k=1.0, modes_per_side=1))
        expected = np.array(
            [
                [COTH_1, 1.0, CSCH_1, 1.0],
                [1.0, COTH_1, 1.0, CSCH_1],
                [CSCH_1, 1.0, COTH_1, 1.0],
                [1.0, CSCH_1, 1.0, COTH_1],
            ]
        )
        np.testing.assert_allclose(nd.entries, expected, rtol=1e-14)

    def test_circulant_block_placement(self):
        # entry (4i+p, 4j+r) is the (i, j) entry of the block at side
        # offset (r - p) mod 4
        a, k = -2.3, 1.0
        nd = assemble(ProblemParams(a=a, k=k, modes_per_side=3))
        scalar = {
            0: lambda i, j: same_side_entry(i, a, k) if i == j else 0.0,
            1: lambda i, j: adjacent_next_entry(i, j, a, k),
            2: lambda i, j: opposite_side_entry(i, a, k) if i == j else 0.0,
            3: lambda i, j: adjacent_prev_entry(i, j, a, k),
        }
        for i in range(3):
            for p in range(4):
                for j in range(3):
                    for r in range(4):
                        expected = scalar[(r - p) % 4](i, j)
                        assert nd.entries[4 * i + p, 4 * j + r] == pytest.approx(
                            expected, rel=1e-13, abs=1e-15
                        ), (i, p, j, r)

    @pytest.mark.parametrize(
        "a,modes_per_side",
        [pytest.param(a, 12, id=str(a)) for a in (-10.0, -1.0, 3.0, 30.0, 120.0)]
        + [pytest.param(200.0, 250, id="200.0-J250")],
    )
    def test_symmetry_invariant(self, a, modes_per_side):
        nd = assemble(ProblemParams(a=a, k=1.0, modes_per_side=modes_per_side))
        assert nd.max_symmetry_defect() <= 1e-12
        # exact: assemble relies on symmetry by construction
        assert np.array_equal(nd.entries, nd.entries.T)

    def test_underflowed_entries_are_positive_zero(self):
        # odd-i opposite-side entries underflow to -0.0 from i = 236 on;
        # the matrix holds them as 0.0 so a dump prints no "-0"
        nd = assemble(ProblemParams(a=3.0, k=1.0, modes_per_side=240))
        zeros = nd.entries[nd.entries == 0.0]
        assert zeros.size > 0
        assert not np.signbit(zeros).any()

    def test_matrix_size(self):
        nd = assemble(ProblemParams(a=-1.0, modes_per_side=7))
        assert nd.entries.shape == (28, 28)
        assert nd.method == "closed_form"

    def test_truncations_nest(self):
        # entries are exact values of the infinite matrix: a smaller
        # truncation is the upper-left corner of a larger one
        big = assemble(ProblemParams(a=-3.0, modes_per_side=6)).entries
        small = assemble(ProblemParams(a=-3.0, modes_per_side=3)).entries
        np.testing.assert_array_equal(big[:12, :12], small)


class TestSeriesOracle:
    def test_matches_closed_form(self):
        params = ProblemParams(a=-1.0, k=1.0, modes_per_side=2)
        exact = assemble(params).entries
        approx = assemble_series_oracle(params, 2000).entries
        assert np.max(np.abs(exact - approx)) <= 1e-3

    def test_under_truncation_is_visible(self):
        params = ProblemParams(a=-1.0, k=1.0, modes_per_side=1)
        approx = assemble_series_oracle(params, 10).entries
        assert abs(approx[0, 0] - COTH_1) > 1e-3

    def test_halving_cutoff_doubles_error(self):
        params = ProblemParams(a=-1.0, k=1.0, modes_per_side=2)
        exact = assemble(params).entries
        err_fine = np.max(
            np.abs(exact - assemble_series_oracle(params, 800).entries)
        )
        err_coarse = np.max(
            np.abs(exact - assemble_series_oracle(params, 400).entries)
        )
        assert err_coarse >= 1.5 * err_fine

    def test_equals_literal_double_loop(self):
        a, k, cutoff = -2.3, 1.0, 40
        params = ProblemParams(a=a, k=k, modes_per_side=2)
        oracle = assemble_series_oracle(params, cutoff).entries
        for i in range(2):
            for p in range(4):
                for j in range(2):
                    for r in range(4):
                        lit = literal_series_entry(i, p, j, r, a, k, cutoff)
                        assert oracle[4 * i + p, 4 * j + r] == pytest.approx(
                            lit, rel=1e-12, abs=1e-14
                        )

    def test_rejects_too_small_cutoff(self):
        params = ProblemParams(a=-1.0, modes_per_side=5)
        with pytest.raises(ValueError):
            assemble_series_oracle(params, 4)

    def test_branch_consistency_across_crossing(self):
        # the same-side kernel switches branch as a crosses pi^2*i^2/k^2;
        # both sides must agree with the series to its truncation error
        for a in (PI2 - 0.5, PI2 + 0.5):
            params = ProblemParams(a=a, k=1.0, modes_per_side=2)
            exact = assemble(params).entries
            approx = assemble_series_oracle(params, 2000).entries
            assert abs(exact[4, 4] - approx[4, 4]) <= 2e-3
            assert np.max(np.abs(exact - approx)) <= 2e-3


class TestDumpFormat:
    def test_header_and_roundtrip(self):
        params = ProblemParams(a=-1.5, k=2.0, modes_per_side=2)
        nd = assemble(params)
        text = dumps_matrix(nd)
        lines = text.splitlines()
        assert lines[0] == "8 2 -1.5 closed_form"
        assert len(lines) == 9
        assert all(len(line.split()) == 8 for line in lines[1:])

        loaded = load_matrix(io.StringIO(text))
        np.testing.assert_array_equal(loaded.entries, nd.entries)
        assert loaded.params.a == -1.5
        assert loaded.params.k == 2.0
        assert loaded.method == "closed_form"

    def test_seventeen_significant_digits_roundtrip(self):
        nd = assemble(ProblemParams(a=-10.0 / 3.0, k=1.0, modes_per_side=1))
        loaded = load_matrix(io.StringIO(dumps_matrix(nd)))
        np.testing.assert_array_equal(loaded.entries, nd.entries)

    def test_series_oracle_method_label(self):
        params = ProblemParams(a=-1.0, modes_per_side=1)
        nd = assemble_series_oracle(params, 50)
        text = dumps_matrix(nd)
        assert text.splitlines()[0] == "4 1 -1 series_oracle(50)"
        loaded = load_matrix(io.StringIO(text))
        assert loaded.method == "series_oracle"
        assert loaded.series_cutoff == 50

    def test_load_rejects_malformed_header(self):
        with pytest.raises(ValueError):
            load_matrix(io.StringIO("4 1 -1\n"))
        with pytest.raises(ValueError):
            load_matrix(io.StringIO("4 1 -1 monte_carlo\n0 0 0 0\n" * 4))


class TestNdMatrixType:
    def test_symmetry_defect_reports_asymmetry(self):
        params = ProblemParams(a=-1.0, modes_per_side=1)
        entries = np.eye(4)
        entries[0, 1] = 1e-6
        nd = NdMatrix(entries=entries, params=params, method="closed_form")
        assert nd.max_symmetry_defect() == pytest.approx(1e-6)

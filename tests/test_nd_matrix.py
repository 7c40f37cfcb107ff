"""Tests for the closed-form matrix assembly and its series oracle.

Frozen expected values were evaluated independently at 50-digit
precision (mpmath) from the closed-form expressions; the series oracle
re-derives them inside the suite through the overlap-integral double
series.
"""

import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ndsquare.experiments import sweep
from ndsquare.nd_matrix import (
    NEAR_LEVEL_SWITCH,
    NdMatrix,
    assemble,
    dump_lines,
    load_matrix,
    opposite_side_entry,
    same_side_entry,
    side_blocks,
    side_diagonals,
    _regular_rests,
)
from ndsquare.spectrum import (
    PI2,
    ProblemParams,
    ResonanceError,
    is_resonant,
    negative_eigenvalue_bound,
)
from coefficients import (
    CLOSE_TO_LEVEL,
    COEFFICIENT,
    GUARD_EDGE_EXAMPLE,
    NEAR_LEVEL,
)
from oracles import (
    assemble_series_oracle,
    max_symmetry_defect,
    normalizer,
    overlap_integral,
)
from scalar_reference import (
    adjacent_next_entry,
    adjacent_prev_entry,
    opposite_side_diagonal,
    outer_product_next_block,
    same_side_diagonal,
)
from scalar_reference import sum_formula as per_entry_sum_formula

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
        assert side_diagonals(0, -1.0)[0] == pytest.approx(
            COTH_1, rel=1e-14
        )
        assert side_diagonals(0, -1.0)[1] == pytest.approx(
            CSCH_1, rel=1e-14
        )
        assert side_diagonals(0, 1.0)[0] == pytest.approx(
            NEG_COT_1, rel=1e-14
        )
        assert side_diagonals(0, 1.0)[1] == pytest.approx(
            NEG_CSC_1, rel=1e-14
        )

    def test_pole_errors(self):
        # the poles c = 0, -pi^2 and -4*pi^2 at mode 0 are the resonant
        # coefficients a = 0, pi^2 and 4*pi^2, refused by the one decider
        with pytest.raises(ResonanceError):
            same_side_entry(0, 0.0)
        with pytest.raises(ResonanceError):
            same_side_entry(0, PI2)
        with pytest.raises(ResonanceError):
            opposite_side_entry(0, 4.0 * PI2)
        for a in (0.0, PI2, 4.0 * PI2):
            with pytest.raises(ResonanceError):
                ProblemParams(a=a)

    @pytest.mark.parametrize("c", [400.0, 900.0, 1e4, 1e150, 1e300])
    def test_plain_form_is_one_over_root_for_large_c(self, c):
        # tanh rounds to 1.0 from about 19, so coth(x)/x needs no
        # large-argument form: it is 1/x bit for bit
        assert side_diagonals(0, -c)[0] == 1.0 / math.sqrt(c)

    @pytest.mark.parametrize("c", [1.0, 5.0, -1.0])
    @pytest.mark.parametrize("terms", [1_000, 10_000, 100_000])
    def test_partial_sums_converge_plain(self, c, terms):
        partial = math.fsum(
            normalizer(m) ** 2 / (PI2 * m * m + c) for m in range(terms + 1)
        )
        assert abs(partial - side_diagonals(0, -c)[0]) <= 4.0 / (
            PI2 * terms
        )

    @pytest.mark.parametrize("c", [1.0, 5.0, -1.0])
    @pytest.mark.parametrize("terms", [1_000, 10_000, 100_000])
    def test_partial_sums_converge_alternating(self, c, terms):
        partial = math.fsum(
            (-1.0) ** m * normalizer(m) ** 2 / (PI2 * m * m + c)
            for m in range(terms + 1)
        )
        assert abs(partial - side_diagonals(0, -c)[1]) <= 4.0 / (
            PI2 * terms
        )

    def test_array_argument_keeps_shape_and_values(self):
        c = np.array([[1.0, -1.0], [400.0, -0.5 * PI2]])
        for kind in (0, 1):
            values = side_diagonals(0, -c)[kind]
            assert values.shape == (2, 2)
            for index, entry in np.ndenumerate(c):
                assert values[index] == side_diagonals(0, -float(entry))[kind]


_WAVENUMBER = st.floats(min_value=0.5, max_value=2.0) | st.just(1.0)


class TestSideBlocks:
    @given(
        a=st.floats(min_value=-60.0, max_value=400.0) | NEAR_LEVEL,
        k=_WAVENUMBER,
        j_modes=st.integers(min_value=1, max_value=300),
    )
    @example(a=GUARD_EDGE_EXAMPLE, k=1.0, j_modes=40)
    @settings(max_examples=120, deadline=None)
    def test_diagonals_equal_the_scalar_reference(self, a, k, j_modes):
        # J past 236 reaches the underflowed csch entries, and every a
        # here reaches x > LARGE_ARG; the comparison includes signbits
        assume(not is_resonant(a, k))
        same, opposite, _ = side_blocks(a * k * k, j_modes)
        for values, reference in (
            (same, same_side_diagonal(a, k, j_modes)),
            (opposite, opposite_side_diagonal(a, k, j_modes)),
        ):
            reference = np.array(reference)
            assert np.array_equal(values, reference)
            assert np.array_equal(np.signbit(values), np.signbit(reference))

    @given(
        a=COEFFICIENT,
        k=_WAVENUMBER,
        i=st.integers(min_value=0, max_value=400),
    )
    @example(a=-10.0, k=1.0, i=301)
    @settings(max_examples=120, deadline=None)
    def test_entry_functions_equal_the_block_diagonals(self, a, k, i):
        # the opposite-side sign is applied once, in side_diagonals, so
        # an underflowed odd-i entry is +0.0 here as in the block
        assume(not is_resonant(a, k))
        same, opposite, _ = side_blocks(a * k * k, i + 1)
        for entry, diagonal in (
            (same_side_entry(i, a, k), same),
            (opposite_side_entry(i, a, k), opposite),
        ):
            assert entry == diagonal[i]
            assert np.signbit(entry) == np.signbit(diagonal[i])

    @given(
        a=COEFFICIENT,
        k=_WAVENUMBER,
        j_modes=st.integers(min_value=1, max_value=300),
    )
    @example(a=GUARD_EDGE_EXAMPLE, k=1.0, j_modes=40)
    @example(a=-10.0, k=1.0, j_modes=1000)
    @example(a=1e5 + 0.3, k=1.0, j_modes=250)
    @settings(max_examples=120, deadline=None)
    def test_next_block_equals_the_outer_product_form(self, a, k, j_modes):
        # one buffer divided by region and negated by row gives the bits
        # of (sign_i*d_i)*d_j / (pi^2*(i^2+j^2) - a*k^2), signbits too
        assume(not is_resonant(a, k))
        block_next = side_blocks(a * k * k, j_modes)[2]
        reference = outer_product_next_block(
            ProblemParams(a=a, k=k, modes_per_side=j_modes)
        )
        assert np.array_equal(block_next, reference)
        assert np.array_equal(np.signbit(block_next), np.signbit(reference))

    @given(
        a=COEFFICIENT,
        b=COEFFICIENT,
        k=_WAVENUMBER,
        j_modes=st.integers(min_value=1, max_value=120),
    )
    @example(a=-10.0, b=GUARD_EDGE_EXAMPLE, k=1.0, j_modes=10)
    @settings(max_examples=120, deadline=None)
    def test_accepted_coefficients_give_finite_blocks_and_a_sweep_row(
        self, a, b, k, j_modes
    ):
        # resonance is decided once, by is_resonant: past it no entry
        # may blow up and no sweep point may be refused again
        assume(not is_resonant(a, k) and not is_resonant(b, k))
        for coeff in (a, b):
            for block in side_blocks(coeff * k * k, j_modes):
                assert np.isfinite(block).all()
        lo, hi = sorted((a, b))
        assume(lo < hi)
        negative_eigenvalue_bound(lo, hi, k)  # raises unless it accepts
        (report,) = sweep(lo, [hi], k, modes_per_side=j_modes)
        assert not report.skipped
        assert math.isfinite(report.min_eigenvalue)
        assert math.isfinite(report.max_eigenvalue)
        assert report.measured_negative <= report.theoretical_bound

    def test_the_per_entry_decider_refused_an_accepted_coefficient(self):
        # the per-entry check rounds the level as (pi^2*5)*5, which puts
        # this coefficient inside the guard; is_resonant rounds it as
        # pi^2*(5*5), which puts it outside, and every entry is finite
        assert not is_resonant(GUARD_EDGE_EXAMPLE, 1.0)
        with pytest.raises(ResonanceError, match="trigonometric pole"):
            per_entry_sum_formula("plain", -GUARD_EDGE_EXAMPLE)
        same, opposite, block_next = side_blocks(GUARD_EDGE_EXAMPLE, 8)
        assert np.isfinite(same[0]) and abs(same[0]) > 1e9
        assert np.isfinite(opposite[0]) and np.isfinite(block_next).all()

    @pytest.mark.parametrize("members", [1, 2, 7])
    @pytest.mark.parametrize("j_modes", [1, 2, 3, 11, 100, 251])
    @pytest.mark.parametrize("k", [1.0, 0.7])
    def test_batch_equals_per_coefficient_blocks(self, k, j_modes, members):
        # the guard edge (at k = 1), a far coefficient, equal
        # coefficients and both signs; each member keeps its values and
        # signbits
        coefficients = [
            -10.0, GUARD_EDGE_EXAMPLE / (k * k), -10.0, 1e5 + 0.3, 57.3,
            -60.0, 200.0,
        ][:members]
        assert not any(is_resonant(a, k) for a in coefficients)
        ak2 = [a * k * k for a in coefficients]
        stacked = side_blocks(np.array(ak2), j_modes)
        shapes = [(members, j_modes), (members, j_modes),
                  (members, j_modes, j_modes)]
        assert [part.shape for part in stacked] == shapes
        for member, value in enumerate(ak2):
            for part, single in zip(stacked, side_blocks(value, j_modes)):
                assert part[member].shape == single.shape
                assert np.array_equal(part[member], single)
                assert np.array_equal(
                    np.signbit(part[member]), np.signbit(single)
                )

    def test_members_keep_their_own_wavenumber(self):
        ak2 = [-10.0 * 1.0 * 1.0, -10.0 * 0.5 * 0.5]
        for member, part in enumerate(zip(*side_blocks(np.array(ak2), 9))):
            for values, single in zip(part, side_blocks(ak2[member], 9)):
                assert np.array_equal(values, single)

    @pytest.mark.parametrize("shape", [(0,), (2, 3), (1, 1, 2)])
    def test_every_axis_of_ak2_is_a_batch_axis(self, shape):
        # an empty batch gives empty blocks; a grid of coefficients
        # gives one member per entry, each its own single-float blocks
        ak2 = np.linspace(-60.0, 200.5, math.prod(shape)).reshape(shape)
        stacked = side_blocks(ak2, 5)
        assert [part.shape for part in stacked] == [
            shape + (5,), shape + (5,), shape + (5, 5)
        ]
        for index in np.ndindex(shape):
            for part, single in zip(stacked, side_blocks(ak2[index], 5)):
                assert np.array_equal(part[index], single)
                assert np.array_equal(
                    np.signbit(part[index]), np.signbit(single)
                )


# (a, b, count, bound, lambda_min) at J = 8: the count, and lambda_min
# where given, equal those of a 50-digit mpmath evaluation of the same
# truncated difference; the closed forms once counted 15, 2, 9 and 4
_NEAR_LEVEL_CASES = [
    (-10.0, 25 * PI2 - 2e-8, 11, 22, -0.57902),
    (1.0, PI2 - 5e-8, 0, 0, None),
    (3.0, 5 * PI2 + 4e-8, 7, 7, None),
    (-10.0, 2 * PI2 - 4e-8, 3, 3, -0.87404),
]


def _mp_sum_formula(mpmath, kind, c):
    if c > 0:
        x = mpmath.sqrt(c)
        return (mpmath.coth(x) if kind == "plain" else mpmath.csch(x)) / x
    s = mpmath.sqrt(-c)
    return -(mpmath.cot(s) if kind == "plain" else mpmath.csc(s)) / s


class TestNearLevel:
    @pytest.mark.parametrize("a,b,count,bound,lambda_min", _NEAR_LEVEL_CASES)
    def test_counts_equal_the_50_digit_evaluation(
        self, a, b, count, bound, lambda_min
    ):
        (report,) = sweep(a, [b], modes_per_side=8)
        assert report.measured_negative == count
        assert report.theoretical_bound == bound
        if lambda_min is not None:
            assert report.min_eigenvalue == pytest.approx(
                lambda_min, abs=1e-5
            )

    @given(
        a=st.floats(min_value=-20.0, max_value=60.0) | CLOSE_TO_LEVEL,
        b=CLOSE_TO_LEVEL,
        k=st.sampled_from([1.0, 0.5, 2.0]),
        j_modes=st.sampled_from([1, 2, 3, 8, 16, 24]),
    )
    @example(a=1.0, b=PI2 - 5e-8, k=1.0, j_modes=2)
    @settings(max_examples=80, deadline=None)
    def test_measured_never_exceeds_the_bound_next_to_a_level(
        self, a, b, k, j_modes
    ):
        a, b = a / (k * k), b / (k * k)
        assume(a < b and not is_resonant(a, k) and not is_resonant(b, k))
        (report,) = sweep(a, [b], k, modes_per_side=j_modes)
        assert report.measured_negative <= report.theoretical_bound

    @given(
        i=st.integers(min_value=0, max_value=40),
        m0=st.integers(min_value=0, max_value=60),
        exponent=st.floats(min_value=3.0, max_value=8.5),
        side=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_entries_equal_the_50_digit_values(
        self, i, m0, exponent, side
    ):
        # the pole d_m0^2 / L at the next-side rounding of L, plus the
        # regular rest of the 50-digit closed form less its exact pole
        mpmath = pytest.importorskip("mpmath")
        ak2 = PI2 * (i * i + m0 * m0) + side * 10.0 ** -exponent
        level = PI2 * (i * i + m0 * m0) - ak2
        assume(abs(level) < NEAR_LEVEL_SWITCH and not is_resonant(ak2, 1.0))
        d2 = 1 if m0 == 0 else 2
        with mpmath.workdps(50):
            c = mpmath.pi ** 2 * i * i - mpmath.mpf(ak2)
            exact_level = mpmath.pi ** 2 * (i * i + m0 * m0) - mpmath.mpf(ak2)
            # opposite_side_entry carries (-1)^i, the pole (-1)^m0
            for kind, entry, sign in (
                ("plain", same_side_entry(i, ak2), 1),
                ("alternating", (-1) ** i * opposite_side_entry(i, ak2),
                 (-1) ** m0),
            ):
                pole = sign * d2 / exact_level
                rest = _mp_sum_formula(mpmath, kind, c) - pole
                expected = sign * d2 / mpmath.mpf(level) + rest
                error = abs(mpmath.mpf(entry) - expected)
                assert error <= 4 * math.ulp(entry) + 1e-10 * abs(rest)


    @given(
        m0=st.integers(min_value=0, max_value=30),
        position=st.floats(min_value=-1.0, max_value=1.0),
    )
    @example(m0=0, position=1.0)
    @example(m0=1, position=-1.0)
    @settings(max_examples=60, deadline=None)
    def test_regular_rests_equal_long_partial_sums(self, m0, position):
        # numpy only: the series less its m0 term, summed over m <= N
        # with the Euler-Maclaurin tail of the plain series and the
        # mean of two partial sums of the alternating one (both tails
        # within 1e-13).  Past the switch for m0 >= 1, so that every
        # kept term of the t series is larger than the tolerance.
        width = NEAR_LEVEL_SWITCH if m0 == 0 else 0.3
        c = -PI2 * m0 * m0 + width * position
        plain, alternating = _regular_rests(
            np.array([c]), np.array([float(m0)])
        )
        n_terms = 20_000
        m = np.arange(n_terms + 2, dtype=float)
        denominators = PI2 * m * m + c
        denominators[m0] = math.inf
        terms = np.where(m == 0, 1.0, 2.0) / denominators
        signed = np.where(m % 2 == 0, terms, -terms)
        gamma = c / PI2
        tail = (2.0 / PI2) * (
            1.0 / n_terms - 1.0 / (2.0 * n_terms**2)
            + (1.0 - 2.0 * gamma) / (6.0 * n_terms**3)
        )
        plain_sum = math.fsum(terms[: n_terms + 1]) + tail
        alternating_sum = math.fsum(signed[: n_terms + 1]) + 0.5 * signed[-1]
        assert abs(plain[0] - plain_sum) <= 1e-12
        assert abs(alternating[0] - alternating_sum) <= 1e-12

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
        assert max_symmetry_defect(nd.entries) <= 1e-12
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
        text = "".join(dump_lines(nd))
        lines = text.splitlines()
        assert lines[0] == "8 2 -1.5 closed_form"
        assert len(lines) == 9
        assert all(len(line.split()) == 8 for line in lines[1:])

        loaded = load_matrix(io.StringIO(text))
        np.testing.assert_array_equal(loaded.entries, nd.entries)
        assert loaded.params.a == -1.5
        assert loaded.params.k == 2.0

    def test_seventeen_significant_digits_roundtrip(self):
        nd = assemble(ProblemParams(a=-10.0 / 3.0, k=1.0, modes_per_side=1))
        loaded = load_matrix(io.StringIO("".join(dump_lines(nd))))
        np.testing.assert_array_equal(loaded.entries, nd.entries)

    def test_series_oracle_method_label(self):
        # the dump holds the closed-form matrix only; the series oracle
        # is a test reference and has no header of its own
        params = ProblemParams(a=-1.0, modes_per_side=1)
        oracle = assemble_series_oracle(params, 50)
        rows = "".join(dump_lines(oracle)).splitlines()
        text = "\n".join(["4 1 -1 series_oracle(50)", *rows[1:]]) + "\n"
        with pytest.raises(ValueError, match="unknown assembly method"):
            load_matrix(io.StringIO(text))

    def test_load_rejects_malformed_header(self):
        with pytest.raises(ValueError):
            load_matrix(io.StringIO("4 1 -1\n"))
        with pytest.raises(ValueError):
            load_matrix(io.StringIO("4 1 -1 monte_carlo\n0 0 0 0\n" * 4))

    @pytest.mark.parametrize("a", ["nan", "inf", "-inf"])
    def test_load_names_a_non_finite_coefficient(self, a):
        # the loader's guard follows a*k^2, but a non-finite one is
        # still refused for what it is
        text = f"4 1 {a} closed_form\n" + "0 0 0 0\n" * 4
        message = f"a*k^2 = {float(a)!r} (a={float(a)!r}, k=1.0) is not a"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_matrix(io.StringIO(text))

    @pytest.mark.parametrize("size", [0, -4])
    def test_load_rejects_a_size_below_4_before_its_body(self, size):
        # numpy would warn on the empty body of a 0 header
        text = f"{size} 1 1 closed_form\n"
        message = f"matrix size {size} is below 4, one mode per side"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                load_matrix(io.StringIO(text))

    def test_load_rejects_a_size_not_divisible_by_4(self):
        text = "6 1 -1 closed_form\n" + "0 0 0 0 0 0\n" * 6
        with pytest.raises(ValueError, match="6 is not divisible by 4"):
            load_matrix(io.StringIO(text))

    def test_load_rejects_a_body_that_disagrees_with_the_header(self):
        nd = assemble(ProblemParams(a=-1.0, modes_per_side=2))
        text = "".join(dump_lines(nd))
        without_last_row = text[: text.rindex("\n", 0, -1) + 1]
        message = "expected a 8x8 matrix, got shape (7, 8)"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_matrix(io.StringIO(without_last_row))


class TestNdMatrixType:
    def test_symmetry_defect_reports_asymmetry(self):
        params = ProblemParams(a=-1.0, modes_per_side=1)
        entries = np.eye(4)
        entries[0, 1] = 1e-6
        nd = NdMatrix(entries=entries, params=params)
        assert max_symmetry_defect(nd.entries) == pytest.approx(1e-6)

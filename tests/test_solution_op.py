"""Tests for the diagonalized solution-operator difference."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ndsquare import solution_op
from ndsquare.solution_op import (
    embedding_eigenvalue,
    exact_negative_count,
    solution_diff_coefficient,
)
from ndsquare.spectrum import (
    DEFAULT_GUARD,
    PI2,
    ResonanceError,
    _checked_threshold,
    is_resonant,
    negative_eigenvalue_bound,
)
from coefficients import COEFFICIENT, GUARD_EDGE_EXAMPLE
from oracles import lattice_count_below
from scalar_reference import full_square_negative_count


class TestEmbeddingEigenvalue:
    def test_known_values(self):
        assert embedding_eigenvalue((0, 0)) == 1.0
        assert embedding_eigenvalue((1, 0)) == pytest.approx(
            0.09199966835037523, rel=1e-14
        )
        assert embedding_eigenvalue((1, 1)) == pytest.approx(
            0.04821784714829367, rel=1e-14
        )

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            embedding_eigenvalue((0, -1))


class TestSolutionDiffCoefficient:
    def test_zero_mode_window(self):
        # 1/(1-6) - 1/(1+9) = -1/5 - 1/10
        assert solution_diff_coefficient((0, 0), -10.0, 5.0, 1.0) == pytest.approx(
            -0.3, abs=1e-15
        )

    def test_mode_outside_window_is_positive(self):
        assert solution_diff_coefficient((1, 0), -10.0, 5.0, 1.0) > 0.0

    def test_equal_coefficients_vanish(self):
        for mode in ((0, 0), (1, 2), (3, 3)):
            assert solution_diff_coefficient(mode, 4.0, 4.0, 1.0) == 0.0

    def test_resonant_mode_is_an_error(self):
        with pytest.raises(ResonanceError):
            solution_diff_coefficient((0, 0), 0.0, 5.0, 1.0)
        with pytest.raises(ResonanceError):
            solution_diff_coefficient((1, 0), -10.0, PI2, 1.0)

    @given(
        l=st.integers(min_value=0, max_value=8),
        m=st.integers(min_value=0, max_value=8),
        a=st.floats(min_value=-20.0, max_value=140.0),
        width=st.floats(min_value=0.05, max_value=40.0),
    )
    @settings(max_examples=150)
    def test_sign_rule_and_antisymmetry(self, l, m, a, width):
        b = a + width
        level = PI2 * (l * l + m * m)
        if min(abs(level - a), abs(level - b)) < 1e-6:
            return
        coeff = solution_diff_coefficient((l, m), a, b, 1.0)
        inside = a < level < b
        assert coeff != 0.0
        assert (coeff < 0.0) == inside
        assert solution_diff_coefficient((l, m), b, a, 1.0) == pytest.approx(
            -coeff, rel=1e-12
        )


class TestExactNegativeCount:
    @pytest.mark.parametrize(
        "a,b,expected", [(-10.0, 5.0, 1), (-10.0, 15.0, 3), (1.0, 2.0, 0)]
    )
    def test_known_counts(self, a, b, expected):
        assert exact_negative_count(a, b, 1.0, 10) == expected

    def test_requires_ordered_window(self):
        with pytest.raises(ValueError):
            exact_negative_count(5.0, 5.0, 1.0, 10)

    def test_rejects_a_cutoff_below_one(self):
        with pytest.raises(ValueError, match="mode_cutoff must be >= 1"):
            exact_negative_count(-1.0, 5.0, mode_cutoff=0)

    @pytest.mark.parametrize("cutoff", [40.0, 2.5, "40", None, True, False])
    def test_rejects_a_cutoff_that_is_not_an_integer(self, cutoff):
        message = f"mode_cutoff must be >= 1 and an integer, got {cutoff!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            exact_negative_count(-10.0, 5.0, mode_cutoff=cutoff)

    def test_accepts_a_numpy_integer_cutoff(self):
        count = exact_negative_count(-10.0, 5.0, mode_cutoff=np.int64(40))
        assert count == exact_negative_count(-10.0, 5.0, mode_cutoff=40)

    def test_detects_too_small_cutoff(self):
        # pi^2 * 3^2 < 150: sign changes could hide beyond the cutoff
        with pytest.raises(ValueError):
            exact_negative_count(1.0, 150.0, 1.0, 3)

    def test_resonant_endpoint_is_an_error(self):
        with pytest.raises(ResonanceError):
            exact_negative_count(0.0, 5.0, 1.0, 10)

    def test_matches_lattice_bound_randomized(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 25:
            a, b = sorted(rng.uniform(-20.0, 150.0, size=2))
            if b - a < 1e-3 or is_resonant(a, 1.0) or is_resonant(b, 1.0):
                continue
            assert exact_negative_count(a, b, 1.0, 40) == negative_eigenvalue_bound(
                a, b, 1.0
            ), (a, b)
            checked += 1

    @given(
        a=st.floats(min_value=-50.0, max_value=50.0),
        exponent=st.floats(min_value=2.0, max_value=6.0),
    )
    @example(a=-50.0, exponent=6.0)
    @settings(max_examples=30, deadline=None)
    def test_matches_lattice_oracle_at_bench_scale(self, a, exponent):
        # the bench's lattice windows: b log-uniform in [1e2, 1e6], both
        # ends at least 1e-6 from every level, at the smallest cutoff
        # the count accepts and one more
        b = 10.0**exponent
        assume(not is_resonant(a, 1.0, 1e-6))
        assume(not is_resonant(b, 1.0, 1e-6))
        smallest = math.isqrt(int(b / PI2))
        while PI2 * smallest * smallest <= b:
            smallest += 1
        with pytest.raises(ValueError, match="too small"):
            exact_negative_count(a, b, 1.0, smallest - 1)
        expected = lattice_count_below(b) - lattice_count_below(a)
        assert negative_eigenvalue_bound(a, b) == expected
        for cutoff in (smallest, smallest + 1):
            assert exact_negative_count(a, b, 1.0, cutoff) == expected

    def test_k_scaling(self):
        # window (a*k^2, b*k^2) = (-40, 20) contains levels 0, 1 and 2
        assert exact_negative_count(-10.0, 5.0, 2.0, 10) == 4
        assert negative_eigenvalue_bound(-10.0, 5.0, 2.0) == 4


def scalar_negative_count(a, b, k, mode_cutoff, guard=DEFAULT_GUARD):
    """The per-mode loop ``exact_negative_count`` ran before it was blocked."""
    count = 0
    for l in range(mode_cutoff + 1):
        for m in range(mode_cutoff + 1):
            if solution_diff_coefficient((l, m), a, b, k, guard) < 0.0:
                count += 1
    return count


#: Float64 values with the IEEE special cases drawn on purpose: signed
#: zeros, infinities, nan, the subnormal range and its edges.
SIGNED_FLOATS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=-2.3e-308, max_value=2.3e-308)
    | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, -2.2250738585072014e-308,
         2.225073858507201e-308, -2.225073858507201e-308]
    )
)


def random_windows(mode_cutoff, k, draws=3):
    # windows (a, b) with accepted ends that the cutoff can count
    rng = np.random.default_rng(mode_cutoff)
    top = PI2 * mode_cutoff * mode_cutoff / (k * k)
    for _ in range(draws):
        b = float(rng.uniform(0.2, 0.99)) * top
        a = float(rng.uniform(-50.0, b))
        if not (is_resonant(a, k) or is_resonant(b, k)):
            yield a, b


#: A window holding no level, so narrow that most coefficients round to
#: exactly 0.0 (115 of the 121 modes up to cutoff 10): none may count.
NARROW = (5.0, math.nextafter(5.0, math.inf))


class TestBlockedCount:
    # side = cutoff + 1: a block spans columns l0..cutoff of its rows,
    # side² <= 16384 for side <= 128, so 128 takes the whole square in
    # one block; 129 and 130 leave a 2- and a 4-row square for a second
    # block, and 319 takes four (51, 61, 79 and 128 rows)
    @pytest.mark.parametrize("mode_cutoff", [1, 2, 127, 128, 129, 318])
    @pytest.mark.parametrize("k", [1.0, 0.7, 1.6])
    def test_equals_the_scalar_loop(self, mode_cutoff, k):
        for a, b in random_windows(mode_cutoff, k):
            assert exact_negative_count(
                a, b, k, mode_cutoff
            ) == scalar_negative_count(a, b, k, mode_cutoff), (a, b)

    # budget 1 and 7 leave one-row blocks wherever a row is wider than
    # the budget; 7 and 64 end in partial squares (rows 7 + 2 of side
    # 9 at budget 64, rows 1 + 2 + 1 of the last four columns at 7)
    @pytest.mark.parametrize("budget", [1, 7, 64])
    @pytest.mark.parametrize("mode_cutoff", [1, 2, 3, 8, 10, 41])
    def test_small_budgets_equal_the_scalar_loop(
        self, monkeypatch, budget, mode_cutoff
    ):
        monkeypatch.setattr(solution_op, "BLOCK_MODES", budget)
        windows = list(random_windows(mode_cutoff, 1.3))
        if mode_cutoff >= 2:
            windows.append((-10.0, 15.0))  # levels 0 (once), 1 and 2
        if mode_cutoff >= 10:
            windows.append(NARROW)
        assert windows
        for a, b in windows:
            assert exact_negative_count(
                a, b, 1.3, mode_cutoff
            ) == scalar_negative_count(a, b, 1.3, mode_cutoff), (a, b)

    def test_a_window_of_zero_coefficients_counts_none(self):
        assert scalar_negative_count(*NARROW, 1.0, 10) == 0
        assert exact_negative_count(*NARROW, 1.0, 10) == 0

    @given(
        mode_cutoff=st.integers(min_value=1, max_value=400),
        top=st.floats(min_value=0.001, max_value=0.999),
        a=st.floats(min_value=-50.0, max_value=50.0),
        k=st.floats(min_value=0.5, max_value=2.0) | st.just(1.0),
    )
    @example(mode_cutoff=318, top=0.99, a=-10.0, k=1.0)
    @example(mode_cutoff=129, top=0.5, a=3.0, k=1.0)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_full_square_count(self, mode_cutoff, top, a, k):
        # the count before the reflection, every mode of the square
        b = top * PI2 * mode_cutoff * mode_cutoff / (k * k)
        assume(a < b and not is_resonant(a, k) and not is_resonant(b, k))
        assert exact_negative_count(
            a, b, k, mode_cutoff
        ) == full_square_negative_count(a, b, k, mode_cutoff)

    @given(
        st.lists(
            st.tuples(SIGNED_FLOATS, SIGNED_FLOATS), min_size=1, max_size=40
        )
    )
    @settings(max_examples=200)
    def test_less_is_the_sign_of_the_difference(self, pairs):
        # why the count compares hi < lo instead of testing hi - lo < 0:
        # IEEE subtraction is exact in sign, and gradual underflow never
        # rounds x - y to zero for x != y
        x, y = np.array(pairs).T
        with np.errstate(over="ignore", invalid="ignore"):
            difference = np.subtract(x, y)
        np.testing.assert_array_equal(np.less(x, y), difference < 0.0)

    @pytest.mark.parametrize("label", ["a", "b"])
    def test_resonant_mode_message_matches_the_scalar_loop(self, label):
        # the resonance gate refuses the coefficient before any block is
        # built, with its own message; the scalar loop names the mode
        level = PI2 * 5  # modes (1, 2) and (2, 1)
        a, b = (level, 200.0) if label == "a" else (-10.0, level)
        with pytest.raises(ResonanceError) as blocked:
            exact_negative_count(a, b, 1.0, 200)
        with pytest.raises(ResonanceError) as scalar:
            scalar_negative_count(a, b, 1.0, 200)
        with pytest.raises(ResonanceError) as gate:
            _checked_threshold(level, 1.0, DEFAULT_GUARD)
        named = f"coefficient {label}={level!r}"
        assert str(blocked.value) == str(gate.value)
        assert str(scalar.value) == f"mode (1, 2) is resonant for {named}"

    @given(
        a=COEFFICIENT,
        b=COEFFICIENT,
        k=st.floats(min_value=0.5, max_value=2.0) | st.just(1.0),
    )
    @example(a=-10.0, b=GUARD_EDGE_EXAMPLE, k=1.0)
    @settings(max_examples=150, deadline=None)
    def test_accepted_ends_leave_no_mode_within_the_guard(self, a, b, k):
        # why the blocks need no per-mode check: their levels are the
        # expression is_resonant scans, so past it none is near an end
        assume(not is_resonant(a, k) and not is_resonant(b, k))
        a, b = sorted((a, b))
        assume(a < b)
        mode_cutoff = math.isqrt(max(0, int(b * k * k / PI2))) + 1
        l = np.arange(mode_cutoff + 1)
        level = PI2 * np.add.outer(l * l, l * l)
        for coeff in (a, b):
            assert np.abs(level - coeff * k * k).min() >= DEFAULT_GUARD
        assert exact_negative_count(
            a, b, k, mode_cutoff
        ) == scalar_negative_count(a, b, k, mode_cutoff)

    def test_memory_stays_flat_in_the_cutoff(self):
        # a whole-lattice evaluation at cutoff 1000 would hold 8 MB per
        # float array; the blocks keep the peak far below that
        tracemalloc.start()
        try:
            exact_negative_count(-10.0, 2000.0, 1.0, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

"""Tests for lattice eigenvalue counting and resonance detection."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndsquare import spectrum
from ndsquare.experiments import sweep, trajectories
from ndsquare.linalg import difference_truncation_error
from ndsquare.nd_matrix import opposite_side_entry, same_side_entry
from ndsquare.solution_op import exact_negative_count
from ndsquare.spectrum import (
    ProblemParams,
    ResonanceError,
    is_resonant,
    multiplicity,
    negative_eigenvalue_bound,
    positive_eigenvalue_count,
)
from oracles import (
    construct_even_multiplicity,
    lattice_count_below,
    neumann_eigenvalue,
)

PI2 = math.pi ** 2


class TestNeumannEigenvalue:
    def test_zero_mode(self):
        assert neumann_eigenvalue((0, 0)) == 0.0

    def test_first_modes(self):
        # high-precision references evaluated independently
        assert neumann_eigenvalue((1, 0)) == pytest.approx(
            9.8696044010893586, rel=1e-15
        )
        assert neumann_eigenvalue((1, 2)) == pytest.approx(
            49.348022005446793, rel=1e-15
        )

    def test_accepts_mode_index(self):
        # a mode index is the plain pair (l, m)
        assert neumann_eigenvalue((3, 4)) == pytest.approx(25 * PI2)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            neumann_eigenvalue((-1, 0))


class TestMultiplicity:
    @pytest.mark.parametrize(
        "n,expected", [(0, 1), (1, 2), (2, 1), (3, 0), (5, 2), (25, 4), (125, 4)]
    )
    def test_known_values(self, n, expected):
        assert multiplicity(n) == expected

    def test_matches_brute_force_double_loop(self):
        # one double loop over (l, m) in [0, 100]^2 covers every n <= 1e4
        counts = Counter()
        for l in range(101):
            for m in range(101):
                counts[l * l + m * m] += 1
        for n in range(10_001):
            assert multiplicity(n) == counts.get(n, 0), n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            multiplicity(-1)

    @pytest.mark.parametrize("n", [True, False, 5.0, 5.5])
    def test_rejects_a_level_that_is_no_integer(self, n):
        # a bool indexes as an int but is no level; 5.0 is not truncated
        with pytest.raises(ValueError, match="n must be an integer"):
            multiplicity(n)

    def test_numpy_integer_is_a_level(self):
        assert multiplicity(np.int64(5)) == 2


class TestIsResonant:
    def test_zero_is_resonant(self):
        assert is_resonant(0.0, 1.0) is True

    def test_exact_eigenvalue_is_resonant(self):
        assert is_resonant(PI2, 1.0) is True

    def test_negative_is_not_resonant(self):
        assert is_resonant(-10.0, 1.0) is False

    def test_guard_semantics(self):
        assert is_resonant(PI2 + 5e-10, 1.0, guard=1e-9) is True
        assert is_resonant(PI2 + 2e-9, 1.0, guard=1e-9) is False

    def test_k_scaling(self):
        # a*k^2 = pi^2 with k = 2 means a = pi^2/4
        assert is_resonant(PI2 / 4.0, 2.0) is True

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            is_resonant(1.0, 0.0)
        with pytest.raises(ValueError):
            is_resonant(1.0, 1.0, guard=0.0)

    @pytest.mark.parametrize("guard", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_guard(self, guard):
        # an infinite guard once overflowed in the level scan
        with pytest.raises(ValueError, match="guard"):
            is_resonant(1.0, 1.0, guard=guard)

    def test_decidability_limit(self):
        # from 2^23 the float spacing of a*k^2 reaches the default guard
        assert is_resonant(2.0**23 - 1.0, 1.0) is False
        for a in (2.0**23, 1e20, 1e308):
            with pytest.raises(ValueError, match="decidability limit"):
                is_resonant(a, 1.0)
        # a wider guard moves the limit; negative thresholds stay decidable
        assert is_resonant(2.0**23, 1.0, guard=1e-8) is False
        assert is_resonant(-1e308, 1.0) is False

    def test_scan_budget(self, monkeypatch):
        # a guard of 1e6 at 1e20 spans about 2e5 levels near 1e19, each
        # an O(3e9) multiplicity scan: refused before the first one
        limit = f"more than {spectrum.RESONANCE_SCAN_STEPS} lattice steps"
        with pytest.raises(ValueError, match=limit):
            is_resonant(1e20, 1.0, guard=1e6)
        # within the budget the answer is the unbounded scan's
        cases = [
            (1e12, 1e-3), (2e12, 1e-3), (1e9, 10.0), (1e9, 1e3), (5e5, 1e6),
        ]
        bounded = [is_resonant(a, 1.0, guard) for a, guard in cases]
        monkeypatch.setattr(spectrum, "RESONANCE_SCAN_STEPS", math.inf)
        assert bounded == [is_resonant(a, 1.0, guard) for a, guard in cases]


class TestPositiveEigenvalueCount:
    @pytest.mark.parametrize("a,expected", [(-10.0, 0), (5.0, 1), (25.0, 4)])
    def test_known_counts(self, a, expected):
        assert positive_eigenvalue_count(a, 1.0) == expected

    def test_resonant_is_an_error(self):
        with pytest.raises(ResonanceError):
            positive_eigenvalue_count(0.0, 1.0)
        with pytest.raises(ResonanceError):
            positive_eigenvalue_count(PI2, 1.0)

    def test_k_scaling(self):
        # threshold a*k^2 = 25 reproduces the k=1 count at a=25
        assert positive_eigenvalue_count(6.25, 2.0) == 4

    @given(
        a=st.floats(min_value=-20.0, max_value=150.0),
        delta=st.floats(min_value=0.01, max_value=30.0),
    )
    @settings(max_examples=80)
    def test_nondecreasing_in_a(self, a, delta):
        if is_resonant(a, 1.0) or is_resonant(a + delta, 1.0):
            return
        assert positive_eigenvalue_count(a, 1.0) <= positive_eigenvalue_count(
            a + delta, 1.0
        )

    def test_matches_brute_force_grid(self):
        import random

        rng = random.Random(1789)
        for _ in range(60):
            a = rng.uniform(-30.0, 900.0)
            if is_resonant(a, 1.0):
                continue
            brute = sum(
                1
                for l in range(32)
                for m in range(32)
                if PI2 * (l * l + m * m) < a
            )
            assert positive_eigenvalue_count(a, 1.0) == brute, a


def _around_level(n: int, side: int) -> float:
    # the level PI2*n, or the float next to it on the given side
    target = PI2 * n
    return math.nextafter(target, side * math.inf) if side else target


# targets in [-50, 1e6], on a level PI2*n (n <= 1e6/PI2) and one ulp
# either side of it, and tiny positive ones
_LATTICE_TARGET = (
    st.floats(min_value=-50.0, max_value=1e6)
    | st.builds(
        _around_level, st.integers(0, 101_000), st.sampled_from([-1, 0, 1])
    )
    | st.floats(min_value=5e-324, max_value=1e-300)
)


class TestModesBelow:
    @given(target=_LATTICE_TARGET)
    @example(target=5e-324)  # the (0, 0) mode at level 0 lies below it
    @example(target=_around_level(625, 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_brute_force_oracle(self, target):
        assert spectrum._modes_below(target) == lattice_count_below(target)

    def test_one_ulp_past_a_level_counts_that_level(self):
        # a settle per row once gave 515 here: on the row l = 25,
        # target/PI2 - l^2 rounds to 0, so the row lost its mode (25, 0)
        target = math.nextafter(PI2 * 625, math.inf)
        assert spectrum._modes_below(target) == 516
        assert lattice_count_below(target) == 516

    def test_row_budget(self, monkeypatch):
        # more than RESONANCE_SCAN_STEPS rows are refused, before the
        # first row, from about 1.09e13
        limit = f"more than {spectrum.RESONANCE_SCAN_STEPS} lattice rows"
        with pytest.raises(ValueError, match=limit):
            spectrum._modes_below(1.09e13)
        with pytest.raises(ValueError, match=limit):
            spectrum._modes_below(1e300)
        # at a budget of 100 rows, 100 rows answer and 101 raise
        monkeypatch.setattr(spectrum, "RESONANCE_SCAN_STEPS", 100)
        last = PI2 * (100 * 100 - 1) + 1.0
        assert spectrum._modes_below(last) == lattice_count_below(last)
        with pytest.raises(ValueError, match="more than 100 lattice rows"):
            spectrum._modes_below(PI2 * 100 * 100 + 1.0)


class TestNegativeEigenvalueBound:
    @pytest.mark.parametrize(
        "a,b,expected", [(-10.0, 5.0, 1), (-10.0, 15.0, 3), (10.0, 10.5, 0)]
    )
    def test_known_windows(self, a, b, expected):
        assert negative_eigenvalue_bound(a, b, 1.0) == expected

    def test_requires_ordered_window(self):
        with pytest.raises(ValueError):
            negative_eigenvalue_bound(5.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            negative_eigenvalue_bound(7.0, 3.0, 1.0)

    def test_resonant_endpoint_is_an_error(self):
        with pytest.raises(ResonanceError):
            negative_eigenvalue_bound(0.0, 5.0, 1.0)
        with pytest.raises(ResonanceError):
            negative_eigenvalue_bound(-10.0, PI2, 1.0)

    @given(
        a=st.floats(min_value=-20.0, max_value=140.0),
        delta=st.floats(min_value=0.01, max_value=30.0),
        k=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
    )
    @settings(max_examples=120)
    def test_equals_count_difference_and_nonnegative(self, a, delta, k):
        b = a + delta
        if is_resonant(a, k) or is_resonant(b, k):
            return
        bound = negative_eigenvalue_bound(a, b, k)
        assert bound == positive_eigenvalue_count(
            b, k
        ) - positive_eigenvalue_count(a, k)
        # independent oracle: multiplicities of the levels in the window
        lo, hi = a * k * k, b * k * k
        assert bound == sum(
            multiplicity(n)
            for n in range(max(0, math.ceil(lo / PI2)), math.floor(hi / PI2) + 1)
            if lo < PI2 * n < hi
        )
        assert bound >= 0

    @given(
        a=st.floats(min_value=-50.0, max_value=2e4),
        b=st.floats(min_value=-50.0, max_value=2e4),
        k=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
    )
    @example(a=-10.0, b=1e6, k=1.0)
    @settings(max_examples=80, deadline=None)
    def test_equals_the_brute_force_oracle(self, a, b, k):
        if not a < b or is_resonant(a, k) or is_resonant(b, k):
            return
        assert negative_eigenvalue_bound(a, b, k) == lattice_count_below(
            b * k * k
        ) - lattice_count_below(a * k * k)


class TestConstructEvenMultiplicity:
    @pytest.mark.parametrize(
        "target,expected_n", [(2, 5), (4, 125), (6, 3125), (8, 78125)]
    )
    def test_construction(self, target, expected_n):
        n = construct_even_multiplicity(target)
        assert n == expected_n
        assert multiplicity(n) == target

    @pytest.mark.parametrize("bad", [0, 1, 3, 7, -2])
    def test_rejects_invalid_targets(self, bad):
        with pytest.raises(ValueError):
            construct_even_multiplicity(bad)


class TestProblemParams:
    def test_size(self):
        assert ProblemParams(a=-1.0, k=1.0, modes_per_side=25).size == 100
        assert ProblemParams(a=-1.0, modes_per_side=np.int64(3)).size == 12

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, k=0.0)
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, k=-2.0)

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, modes_per_side=0)

    @pytest.mark.parametrize("modes", [2.5, 4.0, "4", None, True, False])
    def test_rejects_non_integral_mode_count(self, modes):
        # a count with no matrix: 2.5 would give a size of 10.0, and
        # True, which indexes as 1, made assemble fail in numpy
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            ProblemParams(a=-1.0, modes_per_side=modes)

    def test_rejects_nonpositive_guard(self):
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, guard=0.0)

    def test_rejects_resonant_coefficient(self):
        with pytest.raises(ResonanceError):
            ProblemParams(a=0.0)
        with pytest.raises(ResonanceError):
            ProblemParams(a=PI2)

    def test_frozen(self):
        params = ProblemParams(a=-1.0)
        with pytest.raises(AttributeError):
            params.a = 2.0


#: 5*pi^2, the level of modes (1, 2) and (2, 1)
LEVEL_5 = 5 * PI2


class TestOneResonanceMessage:
    @pytest.mark.parametrize("refuse", [
        pytest.param(lambda: ProblemParams(a=LEVEL_5), id="ProblemParams"),
        pytest.param(
            lambda: positive_eigenvalue_count(LEVEL_5),
            id="positive_eigenvalue_count",
        ),
        pytest.param(
            lambda: negative_eigenvalue_bound(LEVEL_5, 200.0),
            id="negative_eigenvalue_bound-a",
        ),
        pytest.param(
            lambda: negative_eigenvalue_bound(-10.0, LEVEL_5),
            id="negative_eigenvalue_bound-b",
        ),
        pytest.param(
            lambda: exact_negative_count(LEVEL_5, 200.0, 1.0, 200),
            id="exact_negative_count-a",
        ),
        pytest.param(
            lambda: exact_negative_count(-10.0, LEVEL_5, 1.0, 200),
            id="exact_negative_count-b",
        ),
        pytest.param(
            lambda: sweep(LEVEL_5, [60.0], modes_per_side=4), id="sweep"
        ),
        pytest.param(
            lambda: trajectories(LEVEL_5, [60.0], modes_per_side=4),
            id="trajectories",
        ),
        pytest.param(
            lambda: difference_truncation_error(
                LEVEL_5, 200.0, modes_per_side=4
            ),
            id="difference_truncation_error-a",
        ),
        pytest.param(
            lambda: difference_truncation_error(
                -10.0, LEVEL_5, modes_per_side=4
            ),
            id="difference_truncation_error-b",
        ),
        pytest.param(lambda: same_side_entry(0, LEVEL_5), id="same_side_entry"),
        pytest.param(
            lambda: opposite_side_entry(0, LEVEL_5), id="opposite_side_entry"
        ),
    ])
    def test_every_entry_point_gives_the_gate_message(self, refuse):
        # one gate refuses every resonant coefficient, so every entry
        # point says the same words about it
        with pytest.raises(ResonanceError) as refused:
            refuse()
        assert str(refused.value) == (
            f"a*k^2 = {LEVEL_5!r} is within 1e-09 of a Neumann eigenvalue "
            f"pi^2*(l^2+m^2): the coefficient is resonant and the Neumann "
            f"problem is ill-posed"
        )

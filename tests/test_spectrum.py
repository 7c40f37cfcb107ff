"""Tests for lattice eigenvalue counting and resonance detection."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndsquare.spectrum import (
    ModeIndex,
    ProblemParams,
    ResonanceError,
    construct_even_multiplicity,
    is_resonant,
    multiplicity,
    negative_eigenvalue_bound,
    neumann_eigenvalue,
    positive_eigenvalue_count,
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
        assert neumann_eigenvalue(ModeIndex(3, 4)) == pytest.approx(25 * PI2)

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

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, k=0.0)
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, k=-2.0)

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            ProblemParams(a=-1.0, modes_per_side=0)

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

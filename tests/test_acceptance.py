"""Acceptance suite: full-scale checks at their stated tolerances.

Each check prints one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or in the failure report) and then asserts.

Criterion 1 checks the per-operator truncation estimate against what it
promises: at 250 modes per side it is ~2.8e-3, dominated by the
discarded same-side diagonal entries ~2/(pi*J), and it decays like 1/J,
so no truncation that fits in memory brings it below 1e-5.  The 1e-5
figure is a property of operator *differences*, where those diagonals
cancel to O(1/j^3); criterion 1b checks exactly that.  See the README's
note on the two truncation estimators.
"""

import math

import numpy as np
import pytest

from ndsquare.experiments import sweep, verify_crossing
from ndsquare.nd_matrix import (
    assemble,
    difference_truncation_error,
    same_side_entry,
    side_diagonals,
    truncation_error,
)
from ndsquare.solution_op import exact_negative_count
from ndsquare.spectrum import (
    PI2,
    ProblemParams,
    is_resonant,
    multiplicity,
    negative_eigenvalue_bound,
)
from oracles import (
    assemble_series_oracle,
    construct_even_multiplicity,
    max_symmetry_defect,
    normalizer,
)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_truncation_error_single_operator():
    """Per-operator truncation estimate at 250 modes per side: its contract.

    The estimate is the spectral norm of the border B discarded when the
    truncation is halved.  It is bracketed by two norm bounds, the
    largest diagonal entry (|B|_2 >= max |B_ii|, attained by the
    same-side entry at j = J/2) and the largest absolute row sum
    (|B|_2 <= |B|_inf for symmetric B), and it decays like 1/J as the
    docstring states.  The 1e-5 figure holds for operator differences
    only and is checked by criterion 1b.
    """
    a, j_modes, j_small = -10.0, 250, 126
    params = ProblemParams(a=a, k=1.0, modes_per_side=j_modes)
    value = truncation_error(a, 1.0, j_modes)
    coarse = truncation_error(a, 1.0, 4)
    assert coarse > value  # coarser truncation is strictly worse

    lower = same_side_entry(j_modes // 2, a)
    border = assemble(params).entries.copy()
    corner = 4 * (j_modes // 2)
    border[:corner, :corner] = 0.0
    upper = float(np.max(np.sum(np.abs(border), axis=1)))
    scaled = j_modes * value
    scaled_small = j_small * truncation_error(a, 1.0, j_small)
    rate_gap = abs(scaled - scaled_small) / scaled

    checks = {
        "value >= max discarded diagonal": value >= lower,
        "value <= max border row sum": value <= upper,
        "J*value agrees at J=126 and J=250 within 2%": rate_gap < 0.02,
    }
    ok = report(
        "criterion 1 (single-operator truncation error)",
        all(checks.values()),
        f"truncation_error(a=-10, k=1, J=250) = {value:.6e} in "
        f"[{lower:.6e}, {upper:.6e}]; J*value = {scaled_small:.4f} at "
        f"J={j_small}, {scaled:.4f} at J={j_modes} ({rate_gap:.2%} apart); "
        f"the 1e-5 figure is checked on differences by criterion 1b",
    )
    assert ok, [name for name, passed in checks.items() if not passed]


def test_criterion_1b_truncation_error_of_differences():
    """Difference-matrix truncation estimate below 1e-5 across the sweep range."""
    worst = max(
        difference_truncation_error(-10.0, b, 1.0, 250) for b in (5.0, 200.0)
    )
    ok = report(
        "criterion 1b (operator-difference truncation error)",
        worst < 1e-5,
        f"max difference truncation error at J=250 over b in {{5, 200}} "
        f"= {worst:.6e}, required < 1e-5",
    )
    assert ok


def test_criterion_2_bound_inequality_sweep():
    """measured <= bound for a=-10, J=100, every integer b in [-9, 60]."""
    reports = sweep(
        -10.0,
        [float(b) for b in range(-9, 61)],
        k=1.0,
        modes_per_side=100,
        delta=1e-5,
    )
    violations = [
        (r.b, r.measured_negative, r.theoretical_bound)
        for r in reports
        if not r.skipped and r.measured_negative > r.theoretical_bound
    ]
    skipped = [r.b for r in reports if r.skipped]
    ok = report(
        "criterion 2 (bound inequality sweep)",
        not violations and skipped == [0.0],
        f"{len(reports)} points, skipped {skipped}, violations {violations}",
    )
    assert ok


def test_criterion_3_crossing_equalities():
    """Exact crossing counts at J=100: n in {0,1,2,5} at eps=0.1, n=25 at 0.05."""
    cases = [(0, 0.1, 1), (1, 0.1, 2), (2, 0.1, 1), (5, 0.1, 2), (25, 0.05, 4)]
    results = []
    for n, eps, expected in cases:
        rep = verify_crossing(n, eps=eps, k=1.0, modes_per_side=100, delta=1e-5)
        first = rep.attempts[0]
        results.append(
            (n, expected, rep.expected, first.measured, first.eps == eps)
        )
    ok_all = all(
        expected == declared == measured and eps_ok
        for (_, expected, declared, measured, eps_ok) in results
    )
    ok = report(
        "criterion 3 (crossing equalities)",
        ok_all,
        "; ".join(
            f"n={n}: expected {expected}, measured {measured}"
            for (n, expected, _, measured, _) in results
        ),
    )
    assert ok


def test_criterion_4_solution_operator_oracle_identity():
    """exact_negative_count == lattice bound on 20 random windows."""
    rng = np.random.default_rng(20260810)
    checked = []
    while len(checked) < 20:
        a, b = sorted(rng.uniform(-20.0, 150.0, size=2))
        if b - a < 1e-3 or is_resonant(a, 1.0) or is_resonant(b, 1.0):
            continue
        lhs = exact_negative_count(a, b, 1.0, 40)
        rhs = negative_eigenvalue_bound(a, b, 1.0)
        checked.append((a, b, lhs, rhs))
    mismatches = [c for c in checked if c[2] != c[3]]
    ok = report(
        "criterion 4 (solution-operator oracle identity)",
        not mismatches,
        f"20 windows in (-20, 150), mismatches: {mismatches}",
    )
    assert ok


def test_criterion_5_assembly_oracle_equivalence():
    """Closed-form assembly vs series oracle at J=10 for four coefficients."""
    details = []
    ok_all = True
    for a in (-10.0, -1.0, 3.0, 30.0):
        params = ProblemParams(a=a, k=1.0, modes_per_side=10)
        exact = assemble(params).entries
        err_2000 = float(
            np.max(np.abs(exact - assemble_series_oracle(params, 2000).entries))
        )
        err_1000 = float(
            np.max(np.abs(exact - assemble_series_oracle(params, 1000).entries))
        )
        ok_all &= err_2000 <= 1e-3 and err_1000 >= 1.5 * err_2000
        details.append(
            f"a={a}: err(2000)={err_2000:.3e}, err(1000)={err_1000:.3e}"
        )
    ok = report(
        "criterion 5 (assembly oracle equivalence)", ok_all, "; ".join(details)
    )
    assert ok


def test_criterion_6_symmetry_and_sum_formulas():
    """Symmetry to 1e-12 relative; 1e5-term series match closed forms to 1e-4."""
    sym_defects = []
    for a, j_modes in ((-10.0, 100), (-1.0, 10), (30.0, 10)):
        nd = assemble(ProblemParams(a=a, k=1.0, modes_per_side=j_modes))
        sym_defects.append(max_symmetry_defect(nd.entries))
    sym_ok = max(sym_defects) <= 1e-12

    series_ok = True
    details = [f"max symmetry defect {max(sym_defects):.2e}"]
    terms = 100_000
    for c in (1.0, 5.0, -1.0):
        plain = math.fsum(
            normalizer(m) ** 2 / (PI2 * m * m + c) for m in range(terms + 1)
        )
        alternating = math.fsum(
            (-1.0) ** m * normalizer(m) ** 2 / (PI2 * m * m + c)
            for m in range(terms + 1)
        )
        err_plain = abs(plain - side_diagonals(0, -c)[0])
        err_alt = abs(alternating - side_diagonals(0, -c)[1])
        series_ok &= err_plain <= 1e-4 and err_alt <= 1e-4
        details.append(f"c={c}: plain {err_plain:.2e}, alternating {err_alt:.2e}")

    ok = report(
        "criterion 6 (symmetry and sum formulas)",
        sym_ok and series_ok,
        "; ".join(details),
    )
    assert ok


def test_criterion_7_even_multiplicity_construction():
    """construct_even_multiplicity verified by brute-force enumeration."""
    details = []
    ok_all = True
    for target in (2, 4, 6, 8):
        level = construct_even_multiplicity(target)
        brute = sum(
            1
            for l in range(math.isqrt(level) + 1)
            for m in range(math.isqrt(level) + 1)
            if l * l + m * m == level
        )
        ok_all &= level == 5 ** (target - 1)
        ok_all &= brute == target == multiplicity(level)
        details.append(f"N={target}: level {level}, enumerated {brute}")
    ok = report(
        "criterion 7 (even multiplicity construction)", ok_all, "; ".join(details)
    )
    assert ok

"""Phase-1 simplex: feasibility, certificates, agreement with scipy, anti-cycling."""

import itertools

import numpy as np
import pytest

from witworld import lp
from witworld.lp import _PIVOT_TOL, _leaving_row, solve_feasibility

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def test_simple_feasible_decomposition():
    # decompose (0.5, 0.5) over the unit square's vertices
    A = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=float)
    b = np.array([0.5, 0.5])
    res = solve_feasibility(A, b)
    assert res.feasible
    assert np.max(np.abs(A @ res.x - b)) < 1e-9
    assert np.min(res.x) >= 0


def test_infeasible_with_farkas_certificate():
    # x1 + x2 = -1 has no nonnegative solution
    A = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    res = solve_feasibility(A, b)
    assert not res.feasible
    y = res.certificate
    assert np.max(y @ A) <= 1e-9
    assert y @ b > 1e-9


def test_zero_rhs_is_trivially_feasible():
    A = np.array([[1.0, -1.0], [2.0, 1.0]])
    res = solve_feasibility(A, np.zeros(2))
    assert res.feasible
    assert np.max(np.abs(res.x)) < 1e-12


def test_redundant_rows_ok():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = solve_feasibility(A, np.array([1.0, 2.0]))
    assert res.feasible


def test_certificate_on_point_outside_simplex():
    # columns are the 3 vertices of the 2-simplex embedded with a 1-row
    A = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=float)
    b = np.array([0.7, 0.7, 1.0])  # weights would need to sum over 1
    res = solve_feasibility(A, b)
    assert not res.feasible
    y = res.certificate
    assert np.max(y @ A) <= 1e-9 and y @ b > 0


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(99)
    for trial in range(60):
        m, n = rng.integers(2, 7), rng.integers(2, 10)
        A = rng.normal(size=(m, n))
        if trial % 2 == 0:
            b = A @ rng.uniform(0, 1, size=n)  # feasible by construction
        else:
            b = rng.normal(size=m)
        ours = solve_feasibility(A, b)
        ref = scipy_linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=[(0, None)] * n,
                            method="highs")
        assert ours.feasible == ref.success
        if ours.feasible:
            assert np.max(np.abs(A @ ours.x - b)) < 1e-7
        else:
            y = ours.certificate
            assert np.max(y @ A) <= 1e-8
            assert y @ b > 1e-10


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    A = np.array([
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_feasibility(A, b)
    assert res.feasible
    assert np.max(np.abs(A @ res.x - b)) < 1e-9


def test_empty_problems_are_feasible():
    for A in (np.zeros((0, 0)), np.zeros((0, 3))):
        res = solve_feasibility(A, np.zeros(0))
        assert res.feasible and res.iterations == 0
        assert np.array_equal(res.x, np.zeros(A.shape[1]))


def test_shape_mismatch():
    with pytest.raises(ValueError):
        solve_feasibility(np.eye(2), np.zeros(3))


# --- agreement with scipy on pivot-heavy instances -----------------------------------


def _parity_instances():
    rng = np.random.default_rng(4242)
    for trial in range(100):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 14))
        kind = trial % 5
        if kind == 0:  # feasible by construction
            A = rng.normal(size=(m, n))
            yield A, A @ rng.uniform(0, 1, size=n)
        elif kind == 1:  # mostly infeasible
            yield rng.normal(size=(m, n)), rng.normal(size=m)
        elif kind == 2:  # degenerate: zero right-hand sides, sparse columns
            A = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.4)
            b = A @ (rng.uniform(size=n) * (rng.uniform(size=n) < 0.3))
            yield A, b
        elif kind == 3:  # tie-heavy: 0/1 strategy columns and rational tables, as in LHS problems
            A = (rng.uniform(size=(m, n)) < 0.5).astype(float)
            b = rng.integers(0, 3, size=m) / 4.0
            yield A, b
        else:  # a row below the pivot tolerance with a zero right-hand side: never a pivot row
            A = rng.normal(size=(m, n))
            A[0] = np.abs(A[0]) * 1e-12
            b = A @ rng.uniform(0, 1, size=n)
            b[0] = 0.0
            yield A, b
    # LHS-shaped: rows (party, a, x) over the 16 response-function pairs of two
    # parties, with mixtures (feasible) and arbitrary tables (mostly not)
    strategies = np.indices((2, 2, 2, 2)).reshape(4, -1)
    dmat = np.array([[float(strategies[2 * p + x, j] == a) for j in range(16)]
                     for p in range(2) for a in range(2) for x in range(2)])
    for t in range(20):
        yield dmat, dmat @ rng.dirichlet(np.ones(16)) * (1.0 if t % 2 else 0.5)
        yield dmat, rng.dirichlet(np.ones(8)) * 2
    # three-party LHS: 64 keys (a, x) over the 64 strategies, with mixtures,
    # rational mixtures (many exact ties) and arbitrary tables
    dmat3 = _three_party_dmat()
    for t in range(6):
        yield dmat3, dmat3 @ rng.dirichlet(np.ones(64)) * 0.5
        yield dmat3, dmat3 @ (rng.integers(0, 3, size=64) / 64.0)
        yield dmat3, rng.dirichlet(np.ones(64)) * 8
    # ratios that differ by less than the pivot tolerance, some in chains
    # (each within the tolerance of the next, the ends further apart)
    for t in range(30):
        m, n = int(rng.integers(3, 9)), int(rng.integers(3, 12))
        A = (rng.uniform(size=(m, n)) < 0.6).astype(float)
        A[:, 0] = 1.0
        steps = rng.choice([0.0, 0.3, 0.6, 0.9, 1.2, 2.5], size=m) * _PIVOT_TOL
        yield A, rng.uniform(0.1, 1.0) + (np.cumsum(steps) if t % 2 else steps)


def _three_party_dmat():
    strategies = np.indices((2,) * 6).reshape(6, -1)  # row 2p + x: party p's outcome at x
    rows = []
    for a in itertools.product(range(2), repeat=3):
        for x in itertools.product(range(2), repeat=3):
            rows.append(np.all([strategies[2 * p + x[p]] == a[p] for p in range(3)], axis=0))
    return np.array(rows, dtype=float)


def _assert_valid(A, b, res, tol=1e-9):
    """A solution is nonnegative and solves A x = b; a certificate separates b from the cone."""
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if res.feasible:
        assert np.min(res.x) >= 0
        assert np.max(np.abs(A @ res.x - b), initial=0.0) <= tol * scale
    else:
        y = res.certificate
        bound = tol * max(1.0, float(np.max(np.abs(y))))
        assert np.max(y @ A) <= bound
        assert y @ b > bound


def _near_zero_rows():
    """A row of entries near 1e-12 with a zero right-hand side: eliminations
    leave rounding there, which must never become a pivot, before phase 1
    reaches a zero sum of artificial variables or after."""
    rng = np.random.default_rng(3)
    for _ in range(150):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 14))
        A = rng.normal(size=(m, n))
        A[0] = np.abs(A[0]) * 1e-12
        b = A @ rng.uniform(0, 1, size=n)
        b[0] = 0.0
        yield A, b


def test_parity_instances_agree_with_scipy():
    checked = {True: 0, False: 0}
    for A, b in itertools.chain(_parity_instances(), _near_zero_rows()):
        res = solve_feasibility(A, b)
        n = A.shape[1]
        ref = scipy_linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=[(0, None)] * n,
                            method="highs")
        assert res.feasible == ref.success
        _assert_valid(A, b, res)
        checked[res.feasible] += 1
    assert min(checked.values()) > 50


def _scan_leaving_row(rows, ratios, basis):
    """Bland's ratio test as a scan over the rows: the reference."""
    leave, best_ratio = -1, np.inf
    for i, ratio in zip(rows, ratios):
        if ratio < best_ratio - _PIVOT_TOL or (
            abs(ratio - best_ratio) <= _PIVOT_TOL
            and (leave < 0 or basis[i] < basis[leave])
        ):
            best_ratio, leave = ratio, i
    return leave


def test_ratio_test_matches_the_scan_on_near_ties():
    rng = np.random.default_rng(7)
    scanned = 0
    for trial in range(3000):
        m = int(rng.integers(1, 12))
        rows = np.sort(rng.choice(40, size=m, replace=False))
        basis = rng.permutation(100)[:40]
        base = rng.choice([0.0, 1e-13, 0.37, 5.0, 3e5])
        steps = rng.choice([0.0, 0.2, 0.5, 0.7, 1.0, 1.5, 3.5, 1e3], size=m) * _PIVOT_TOL
        ratios = base + (np.cumsum(steps) if trial % 3 == 0 else rng.permutation(steps))
        assert _leaving_row(rows, ratios, basis) == _scan_leaving_row(rows, ratios, basis)
        above = ratios - ratios.min()
        scanned += bool(np.any((above > _PIVOT_TOL / 2) & (above <= 3 * _PIVOT_TOL)))
    assert 500 < scanned < 2500  # both the array path and the scan are exercised


def test_three_party_lps_take_fewer_pivots_than_blands_rule():
    # Bland's rule on every pivot took 55.0 pivots on average on these LPs
    pivots = [solve_feasibility(A, b).iterations
              for A, b in _parity_instances() if A.shape == (64, 64)]
    assert len(pivots) == 18 and np.mean(pivots) <= 55.0


# Beale's cycling example (Beale 1955) as a phase-1 problem: his two
# degenerate rows, and a third row that makes the phase-1 reduced costs of
# the four columns his costs (-3/4, 20, -1/2, 6).  Phase 1 prices column j
# at -sum_i A_ij, with the artificial variables in the role of his slacks,
# and the third row's right-hand side of 1 never ties the others' 0.
_BEALE_A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 2.0, -18.0]])
_BEALE_B = np.array([0.0, 0.0, 1.0])


def _dantzig_bases(A, b, pivots):
    """The bases that largest-coefficient pricing alone visits, without the Bland fallback."""
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n], tab[:m, n:n + m], tab[:m, -1] = A, np.eye(m), b
    tab[m, :n], tab[m, -1] = -A.sum(axis=0), -b.sum()
    basis, seen = list(range(n, n + m)), []
    for _ in range(pivots):
        seen.append(frozenset(basis))
        enter = int(tab[m, :n + m].argmin())
        assert tab[m, enter] < -_PIVOT_TOL
        leave = min((tab[i, -1] / tab[i, enter], i) for i in range(m)
                    if tab[i, enter] > _PIVOT_TOL)[1]
        tab[leave] /= tab[leave, enter]
        for i in range(m + 1):
            if i != leave:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter
    return seen


def test_largest_coefficient_pricing_cycles_and_the_fallback_ends_it(monkeypatch):
    seen = _dantzig_bases(_BEALE_A, _BEALE_B, 12)
    assert seen[6] == seen[0] and len(set(seen)) == 6  # the six-pivot cycle, twice
    bland = []
    original = lp._leaving_row
    monkeypatch.setattr(lp, "_leaving_row", lambda *args: bland.append(1) or original(*args))
    res = solve_feasibility(_BEALE_A, _BEALE_B)
    assert bland and res.iterations < 12
    _assert_valid(_BEALE_A, _BEALE_B, res)

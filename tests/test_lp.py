"""Phase-1 simplex: feasibility, certificates, agreement with scipy."""

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


# --- parity with the row-by-row simplex ----------------------------------------------


def _row_loop_solve(A, b, tol=1e-9, max_iter=None):
    """The simplex with per-row Python loops: the reference for the vectorized pivots."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if max_iter is None:
        max_iter = 200 * (n + m + 1)
    flip = np.where(b < 0, -1.0, 1.0)
    A1 = A * flip[:, None]
    b1 = b * flip
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A1
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b1
    tab[m, :n] = -A1.sum(axis=0)
    tab[m, -1] = -b1.sum()
    basis = list(range(n, n + m))
    iterations = 0
    while iterations < max_iter:
        enter = -1
        for j in range(n + m):
            if tab[m, j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        leave, best_ratio = -1, np.inf
        for i in range(m):
            if tab[i, enter] > _PIVOT_TOL:
                ratio = tab[i, -1] / tab[i, enter]
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            break
        piv = tab[leave, enter]
        tab[leave, :] /= piv
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i, :] -= tab[i, enter] * tab[leave, :]
        basis[leave] = enter
        iterations += 1

    objective = -tab[m, -1]
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if objective <= tol * scale:
        x = np.zeros(n)
        for i, j in enumerate(basis):
            if j < n:
                x[j] = max(tab[i, -1], 0.0)
        return True, x, None, iterations
    cols = np.empty((m, m))
    c_b = np.empty(m)
    for i, j in enumerate(basis):
        if j < n:
            cols[:, i] = A1[:, j]
            c_b[i] = 0.0
        else:
            cols[:, i] = np.eye(m)[:, j - n]
            c_b[i] = 1.0
    y1, *_ = np.linalg.lstsq(cols.T, c_b, rcond=None)
    return False, None, y1 * flip, iterations


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


def test_vectorized_pivots_match_row_loop_bit_for_bit():
    checked = {True: 0, False: 0}
    for A, b in _parity_instances():
        for max_iter in (None, 1, 3):
            res = solve_feasibility(A, b, max_iter=max_iter)
            feasible, x, y, iterations = _row_loop_solve(A, b, max_iter=max_iter)
            assert res.feasible == feasible
            assert res.iterations == iterations
            if feasible:
                assert np.array_equal(res.x, x)
            else:
                assert np.array_equal(res.certificate, y)
            checked[feasible] += 1
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


def test_parity_instances_reach_both_ratio_paths(monkeypatch):
    calls = {"array": 0, "scan": 0}
    original = lp._leaving_row

    def spy(rows, ratios, basis):
        above = ratios - ratios.min()
        near = np.any((above > _PIVOT_TOL / 2) & (above <= 3 * _PIVOT_TOL))
        calls["scan" if near else "array"] += 1
        return original(rows, ratios, basis)

    monkeypatch.setattr(lp, "_leaving_row", spy)
    for A, b in _parity_instances():
        solve_feasibility(A, b)
    assert calls["scan"] > 10 and calls["array"] > 1000

"""Small dense linear feasibility solver.

Solves "find x >= 0 with A x = b" by a phase-1 simplex on a dense
tableau.  Each pivot enters the column with the most negative reduced
cost (Dantzig's rule), leaves by the minimum-ratio test with exact ties
to the lowest row, and eliminates with one rank-1 update of the whole
tableau.  That pricing can cycle through degenerate bases (Beale 1955),
so after m degenerate pivots in a row the loop follows Bland's rule
(Bland 1977), which cannot cycle, until a pivot moves.  A row may leave
only where its entering entry exceeds _PIVOT_TOL times the column's
largest entry (at least 1), so rounding dust in a near-zero row is never
a pivot; and phase 1 stops once the artificial variables sum to at most
tol * max(1, max |b|).  On infeasibility a Farkas certificate y is
produced, satisfying y^T A <= 0 and y^T b > 0, which the steering layer
turns into a violated inequality.  Problem sizes here are dozens of
variables, so a plain dense tableau is appropriate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class LpResult:
    feasible: bool
    x: np.ndarray | None
    certificate: np.ndarray | None
    iterations: int
    residual: float


def _leaving_row(rows, ratios, basis) -> int:
    """Bland's ratio test: the lowest ratio, ties within _PIVOT_TOL to the lowest basis index.

    A scan over the rows in order, keeping the best ratio so far and
    taking a row that beats it by more than _PIVOT_TOL or ties it with a
    lower basis index, is the rule.  Where no ratio lies between half and
    three times _PIVOT_TOL above the lowest, the ratios within half of it
    tie with each other and beat every other row, so the scan ends on the
    lowest basis index among them; that is taken with array operations.
    Otherwise chains of near-ties make the outcome depend on the order,
    and the scan itself runs.
    """
    above = ratios - ratios.min()
    if not ((above > _PIVOT_TOL / 2) & (above <= 3 * _PIVOT_TOL)).any():
        tied = rows[above <= _PIVOT_TOL / 2]
        return int(tied[basis[tied].argmin()])
    leave, best_ratio = -1, np.inf
    for i, ratio in zip(rows, ratios):
        if ratio < best_ratio - _PIVOT_TOL or (
            abs(ratio - best_ratio) <= _PIVOT_TOL
            and (leave < 0 or basis[i] < basis[leave])
        ):
            best_ratio, leave = ratio, i
    return int(leave)


def solve_feasibility(A, b, tol: float = 1e-9, max_iter: int | None = None) -> LpResult:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if b.size != m:
        raise ValueError(f"A has {m} rows but b has {b.size} entries")
    if max_iter is None:
        max_iter = 200 * (n + m + 1)

    flip = np.where(b < 0, -1.0, 1.0)
    A1 = A * flip[:, None]
    b1 = b * flip

    # Tableau [A1 | I | b1] with an artificial basis; the last row holds
    # the phase-1 reduced costs and minus the objective value.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A1
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b1
    tab[m, :n] = -A1.sum(axis=0)
    tab[m, -1] = -b1.sum()
    basis = np.arange(n, n + m)

    # Phase 1 is done once the artificial variables sum to at most `goal`;
    # with no rows they sum to 0 from the start.
    goal = tol * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    iterations = degenerate = 0
    while iterations < max_iter and -tab[m, -1] > goal:
        # Dantzig: the most negative reduced cost enters.  After m degenerate
        # pivots in a row (the leaving row's right-hand side is 0, to within
        # _PIVOT_TOL), Bland until a pivot moves: the lowest index with a
        # negative reduced cost.
        dantzig = degenerate < m
        costs = tab[m, :n + m]
        enter = int(costs.argmin() if dantzig else (costs < -_PIVOT_TOL).argmax())
        if costs[enter] >= -_PIVOT_TOL:
            break
        col = tab[:m, enter]
        # Phase 1 is bounded below by 0, so while artificial variables are
        # basic an entering column has an eligible row; the breaks are defensive.
        eligible = col > _PIVOT_TOL * max(1.0, col.max())
        if dantzig:
            # the lowest ratio leaves, exact ties to the lowest row
            ratios = np.divide(tab[:m, -1], col, out=np.full(m, np.inf), where=eligible)
            leave = int(ratios.argmin())
            if ratios[leave] == np.inf:
                break
        else:
            rows = eligible.nonzero()[0]
            if rows.size == 0:
                break
            leave = _leaving_row(rows, tab[rows, -1] / col[rows], basis)
        degenerate = degenerate + 1 if tab[leave, -1] <= _PIVOT_TOL else 0
        # one rank-1 update over the whole tableau
        tab[leave] /= tab[leave, enter]
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        tab -= np.outer(factors, tab[leave])
        basis[leave] = enter
        iterations += 1

    if -tab[m, -1] <= goal:
        x = np.zeros(n)
        for i, j in enumerate(basis):
            if j < n:
                x[j] = max(tab[i, -1], 0.0)
        residual = float(np.max(np.abs(A @ x - b))) if m else 0.0
        return LpResult(True, x, None, iterations, residual)

    # Farkas certificate from the optimal basis: solve B^T y = c_B on the
    # original (sign-flipped) data, then undo the row flips.
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
    y = y1 * flip
    residual = float(max(np.max(y @ A) if n else 0.0, 0.0))
    return LpResult(False, None, y, iterations, residual)

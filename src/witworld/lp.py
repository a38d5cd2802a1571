"""Small dense linear feasibility solver.

Solves "find x >= 0 with A x = b" by a phase-1 simplex with Bland's rule
(anti-cycling).  On infeasibility a Farkas certificate y is produced,
satisfying y^T A <= 0 and y^T b > 0, which the steering layer turns into
a violated inequality.  Problem sizes here are dozens of variables, so a
plain dense tableau is appropriate.
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

    iterations = 0
    while m and iterations < max_iter:  # with no rows there is nothing to pivot
        # Bland: entering variable is the lowest index with negative reduced cost.
        negative = tab[m, :n + m] < -_PIVOT_TOL
        enter = int(negative.argmax())
        if not negative[enter]:
            break
        col = tab[:m, enter]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            # Phase-1 objective is bounded below by 0, so this cannot happen
            # with artificial variables present; treat defensively.
            break
        leave = _leaving_row(rows, tab[rows, -1] / col[rows], basis)
        piv = tab[leave, enter]
        tab[leave, :] /= piv
        # One rank-1 update over the rows with a nonzero entering entry;
        # rows with a zero entry are left alone, as a row-by-row update would.
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        hit = factors.nonzero()[0]
        tab[hit] -= factors[hit, None] * tab[leave]
        basis[leave] = enter
        iterations += 1

    objective = -tab[m, -1]
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if objective <= tol * scale:
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

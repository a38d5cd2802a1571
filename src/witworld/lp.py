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
    basis = list(range(n, n + m))

    iterations = 0
    while iterations < max_iter:
        # Bland: entering variable is the lowest index with negative reduced cost.
        negative = np.flatnonzero(tab[m, :n + m] < -_PIVOT_TOL)
        if negative.size == 0:
            break
        enter = int(negative[0])
        col = tab[:m, enter]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        ratios = tab[rows, -1] / col[rows]
        leave, best_ratio = -1, np.inf
        for i, ratio in zip(rows, ratios):
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio, leave = ratio, i
        if leave < 0:
            # Phase-1 objective is bounded below by 0, so this cannot happen
            # with artificial variables present; treat defensively.
            break
        piv = tab[leave, enter]
        tab[leave, :] /= piv
        # One rank-1 update over the rows with a nonzero entering entry;
        # rows with a zero entry are left alone, as a row-by-row update would.
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        hit = np.flatnonzero(factors)
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

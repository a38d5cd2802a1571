"""Composition of systems and membership tests for composite cones.

The composite state cone is the max tensor product of the atomic cones: a
vector belongs to it exactly when it pairs nonnegatively with every
product of local effects.  So every check here and in
:mod:`witworld.transforms` minimizes a multilinear form over products of
generators: effect-side ones (outcome effects of classical and box atoms,
rank-1 projectors of quantum atoms) for states, state-side ones (vertices,
projectors) for effects and trace conditions, and both for positivity.
All of them take one path.  :func:`certificate_bound` is the one gate: on
all-quantum forms whose search would not be exact, or whose states are
P + Q^Γ, a partial transpose maps product projectors to product
projectors, so a lowest eigenvalue of at least -tol accepts with that
certified margin and no search.  :func:`_generator_min` is the one
minimum: the engine :func:`minimize_product_form`, optionally on the side
``offset u - form`` too, then the known non-product probe states, and
whether all that is conclusive.  Where separable equals PPT (Q2*Q2, Q2*Q3,
Q3*Q2) :func:`ppt_min` replaces it with exact eigenvalues.
:func:`_verdict` is the one merge: the first lowest candidate decides.

In the engine, two or more quantum factors go through one stacked
alternating descent, which takes a qubit or qutrit factor's ground state
in closed form and a larger factor's from a batched ``eigh``.  It runs on
the input scaled exactly to unit size, so it cannot overflow and its
thresholds are relative.  A qubit pair starts it once, from the best
direction of a scan over one Bloch sphere (the other has a closed-form
minimum), exact for the systems of interest.  More or larger quantum
factors start it from seeded random restarts and report only
inconclusive acceptance.  State and positivity verdicts take tol at the
input's unit size (:func:`unit_tol`), so scaling an input scales its
threshold with its margin.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .systems import (
    DEFAULT_TOL,
    Boxworld,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    atomic_effect_check,
    atomic_state_check,
    coeffs_to_hermitian,
    hermitian_basis,
    hermitian_to_coeffs,
    kron_all,
    not_hermitian,
    pair,
    ray_table,
    state_vertices,
    system,
    unit_effect,
    vertex_table,
)
from .verdict import ACCEPTED, INCONCLUSIVE_ACCEPT, REJECTED, MembershipVerdict

_SQRT2 = np.sqrt(2.0)


def _default_seed() -> int:
    raw = os.environ.get("WITWORLD_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"WITWORLD_SEED must be an integer, got {raw!r}") from None


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Knobs for the heuristic parts of cone-membership searches.

    ``grid`` sets the polar divisions of the Bloch scan seeding the qubit-pair
    descent (twice as many azimuthal), ``restarts`` the random starts beyond
    a qubit pair.  All searches are deterministic given (grid, restarts, seed).
    """

    grid: int = 180
    restarts: int = 500
    seed: int = field(default_factory=_default_seed)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


def tensor(v1: GptVector, v2: GptVector) -> GptVector:
    """Kronecker product; the composite system concatenates the atom lists."""
    return GptVector(v1.system * v2.system, np.kron(v1.coeffs, v2.coeffs))


def tensor_all(vs: Sequence[GptVector]) -> GptVector:
    return GptVector(SystemType(sum((v.atoms for v in vs), ())),
                     kron_all([v.coeffs for v in vs]))


@functools.lru_cache(maxsize=32)
def _quantum_system(dims: tuple) -> SystemType:
    """The composite of quantum atoms of dimensions ``dims``, one object per dims."""
    return SystemType(tuple(Quantum(d) for d in dims))


def hermitian_tensor_to_vector(m: np.ndarray, dims: Sequence[int]) -> GptVector:
    """Expand a Hermitian matrix on a tensor-product Hilbert space.

    ``dims`` lists the local dimensions; the result lives on the composite
    of the matching quantum atoms, with coefficients against products of
    the local operator bases.  The matrix must be Hermitian to 1e-8 by
    :func:`not_hermitian`.
    """
    dims = tuple(dims)
    total = int(np.prod(dims))
    m = np.asarray(m, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    if not_hermitian(m, 1e-8):
        raise ValueError("matrix is not Hermitian within tolerance")
    return GptVector(_quantum_system(dims), hermitian_to_coeffs(m, dims))


def vector_to_hermitian_tensor(v: GptVector) -> np.ndarray:
    """Inverse of :func:`hermitian_tensor_to_vector`."""
    if not all(isinstance(a, Quantum) for a in v.atoms):
        raise ValueError(f"expected quantum atoms only, got {v.system}")
    return coeffs_to_hermitian(v.coeffs, tuple(a.d for a in v.atoms))


# ---------------------------------------------------------------------------
# Product-form minimization engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class FiniteGenerators:
    """Finite generators of one factor (vertices or dual rays), rows of a ``(G, D)`` array."""

    vectors: np.ndarray


@dataclass(frozen=True, slots=True)
class QuantumGenerators:
    """Rank-1 projector generators for one quantum factor."""

    d: int


@dataclass(frozen=True, slots=True)
class ProductMin:
    value: float
    factors: tuple          # per-factor coefficient arrays, atom order
    conclusive: bool


# The six axis directions +z, -z, +x, -x, +y, -y as scan columns (1, n).
_SCAN_AXES = np.array([(1, 0, 0, 1), (1, 0, 0, -1), (1, 1, 0, 0), (1, -1, 0, 0),
                       (1, 0, 1, 0), (1, 0, -1, 0)], dtype=float).T
_SCAN_AXES.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _sphere_angles(n_theta: int) -> tuple:
    """Read-only sin and cos of the scan's polar angles (k + 1/2) pi / n_theta,
    then cos and sin of its azimuths k pi / n_theta, k < 2 n_theta."""
    t = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    f = np.arange(2 * n_theta) * (np.pi / n_theta)
    out = (np.sin(t), np.cos(t), np.cos(f), np.sin(f))
    for v in out:
        v.flags.writeable = False
    return out


# Directions per block of the scan's products: OpenBLAS threads a larger one, which on a
# loaded 2-CPU host took 0.15 or 7 ms per scan; smaller ones stay on the calling thread.
_SCAN_BLOCK = 8192


def _bloch_scan(C: np.ndarray, n_theta: int) -> tuple:
    """Scan min over m of p(n)^T C p(m), (q0 - |q_vec|) / sqrt(2) for q = C^T p(n).

    The directions n = (sin t cos f, sin t sin f, cos t) at the angles of
    :func:`_sphere_angles`, row-major in (t, f), come before ``_SCAN_AXES``.
    For rows c_k of C, sqrt(2) q = b + sin t r with b = c_0 + cos t c_3 and
    r = cos f c_1 + sin f c_2, so sqrt(2) q0 and 2 |q_vec|^2 = |b_vec|^2 +
    2 sin t b_vec.r_vec + sin^2 t |r_vec|^2 are products of per-t rows and
    per-f columns, a block of t rows at a time.  Returns (min, index, column
    (1, n)), first on ties.
    """
    st, ct, cp, sp = _sphere_angles(n_theta)
    n_phi = 2 * n_theta
    b, r = C[0] + ct[:, None] * C[3], np.stack((cp, sp), axis=1) @ C[1:3]
    rows0, cols0 = np.stack((b[:, 0], st), axis=1), np.stack((np.ones(n_phi), r[:, 0]))
    rows1 = np.column_stack(((b[:, 1:] ** 2).sum(1), 2.0 * st[:, None] * b[:, 1:], st * st))
    cols1 = np.vstack((np.ones(n_phi), r[:, 1:].T, (r[:, 1:] ** 2).sum(1)))
    step = max(1, _SCAN_BLOCK // n_phi)
    buf, best, g = np.empty((2, step, n_phi)), np.inf, 0
    for a in range(0, n_theta, step):
        v, w = buf[:, :n_theta - a]
        np.matmul(rows0[a:a + step], cols0, out=v)
        np.matmul(rows1[a:a + step], cols1, out=w)
        v -= np.sqrt(np.maximum(w, 0.0, out=w), out=w)  # sqrt(2) (q0 - |q_vec|)
        j = int(np.argmin(v))
        if v.flat[j] < best:
            best, g = float(v.flat[j]), a * n_phi + j
    q = C.T @ _SCAN_AXES
    axes = q[0] - np.sqrt(np.einsum("ij,ij->j", q[1:], q[1:]))
    j = int(np.argmin(axes))
    if axes[j] < best:
        return float(axes[j]) / 2.0, n_theta * n_phi + j, _SCAN_AXES[:, j].copy()
    i, j = divmod(g, n_phi)
    return best / 2.0, g, np.array([1.0, st[i] * cp[j], st[i] * sp[j], ct[i]])


@functools.lru_cache(maxsize=8)
def _real_basis(d: int) -> np.ndarray:
    """``hermitian_basis(d)`` as a read-only real (d^2, 2 d^2) matrix.

    Row k holds basis element k in row-major order with real and imaginary
    parts interleaved, the memory layout of a complex array.  So for real
    coefficient rows ``t`` the operators are ``(t @ B).view(complex)``, and
    for a stack of matrices ``P`` the coefficients tr(P B_k) are
    ``P.view(float) @ B.T``: each B_k is Hermitian, so tr(P B_k) is the
    sum of Re P * Re B_k + Im P * Im B_k over entries.
    """
    return hermitian_basis(d).view(float).reshape(d * d, 2 * d * d)


def _projector_coeffs(psi: np.ndarray) -> np.ndarray:
    """Coefficients of the projectors onto the rows of the stack ``psi``."""
    d = psi.shape[-1]
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    return proj.view(float).reshape(len(psi), 2 * d * d) @ _real_basis(d).T


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _unit(v: tuple) -> tuple:
    """The complex vectors with components ``v`` (one array each), normalized."""
    s = 1.0 / np.sqrt(sum(_abs2(c) for c in v))
    return tuple(c * s for c in v)


def _projector_columns(coeffs: np.ndarray) -> np.ndarray:
    """Of each qutrit projector psi psi^dagger with coefficient rows ``coeffs``, the
    column with the largest diagonal entry, a nonzero multiple of psi; one row per component."""
    mats = (coeffs @ _real_basis(3)).view(complex).reshape(-1, 3, 3)
    j = np.argmax(np.diagonal(mats, axis1=1, axis2=2).real, axis=1)
    return mats[np.arange(len(j)), :, j].T


def _lower_pair_ground(b: np.ndarray, w: tuple, mu: np.ndarray, p: np.ndarray,
                       prev: np.ndarray) -> tuple:
    """Ground vectors of qutrit operators whose bottom pair may be degenerate.

    :func:`_qutrit_projectors` sends only its rows with sin(phi) < 1/8
    here, where the top eigenvalue is isolated by more than 2.7 p.
    Column r of ``b`` holds the row-major entries of a traceless Hermitian
    3x3 operator, ``w`` the components of its unit top eigenvectors and
    ``mu[r]`` that eigenvalue.  The ground vector lies in the plane
    orthogonal to w, spanned by u1 = w* x e_k (k = 0 unless |w_0|^2 > 1/2,
    then k = 1) and u2 = w* x u1*.  On that plane the operator is the qubit
    H = [u_i^dagger b u_j], whose traceless part [[alpha, beta], [beta*,
    -alpha]] has alpha = H11 + mu / 2 (as tr b = 0) and the ground vector
    (beta, -alpha - r) or (alpha - r, beta*), r = |(alpha, beta)|.  Where
    r <= 1e-15 sqrt(3) p, that is |h_vec| <= 1e-15 |t_vec| for the qubit's
    and the qutrit's coefficients, the plane counts as a degenerate ground
    space.  The bound is relative, so that a small operator keeps a real
    splitting.  There, as the qubit closed form keeps its previous
    direction, the ground vector is the previous projector's state
    projected onto the plane, or u1 if that is 0.  Returns the components
    of the ground vectors.
    """
    d0, d1, d2, x, y, z = b[0].real, b[4].real, b[8].real, b[1], b[2], b[5]
    a0, a1, a2 = (c.conj() for c in w)
    first = _abs2(w[0]) <= 0.5
    u1 = _unit((np.where(first, 0.0, -a2), np.where(first, a2, 0.0),
                np.where(first, -a1, a0)))
    c0, c1, c2 = (c.conj() for c in u1)
    u2 = (a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0)
    bu0 = d0 * u1[0] + x * u1[1] + y * u1[2]
    bu1 = x.conj() * u1[0] + d1 * u1[1] + z * u1[2]
    bu2 = y.conj() * u1[0] + z.conj() * u1[1] + d2 * u1[2]
    alpha = (c0 * bu0 + c1 * bu1 + c2 * bu2).real + mu / 2
    beta = bu0.conj() * u2[0] + bu1.conj() * u2[1] + bu2.conj() * u2[2]
    r = np.sqrt(alpha * alpha + _abs2(beta))
    up = alpha >= 0
    g0, g1 = np.where(up, beta, alpha - r), np.where(up, -alpha - r, beta.conj())
    keep = r <= 1e-15 * np.sqrt(3.0) * p
    if keep.any():
        psi = _projector_columns(prev[keep])
        h0 = c0[keep] * psi[0] + c1[keep] * psi[1] + c2[keep] * psi[2]
        h1 = (u2[0][keep].conj() * psi[0] + u2[1][keep].conj() * psi[1]
              + u2[2][keep].conj() * psi[2])
        h0[_abs2(h0) + _abs2(h1) == 0] = 1.0
        g0[keep], g1[keep] = h0, h1
    g0, g1 = _unit((g0, g1))
    return tuple(g0 * f + g1 * h for f, h in zip(u1, u2))


# cos(3 phi) at sin(phi) = 1/8: rows with q above it take the plane solve
_PLANE_Q = math.cos(3.0 * math.asin(0.125))


@functools.lru_cache(maxsize=1)
def _adjugate_basis() -> np.ndarray:
    """Read-only (9, 9) map to the coefficients of a Hermitian 3x3 matrix from (h00, h11,
    h22, Re h01, Im h01, Re h02, Im h02, Re h12, Im h12), each h_ij with i < j twice."""
    m = _real_basis(3)[:, [0, 8, 16, 2, 3, 4, 5, 10, 11]].T.copy()
    m[3:] *= 2.0
    m.flags.writeable = False
    return m


def _qutrit_projectors(t: np.ndarray, tt: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Ground-state projectors of qutrit operators with coefficient rows ``t``.

    ``tt`` holds |t_vec|^2 per row, every one of them > 0.  The traceless
    part b = A - tr(A) / 3 has coefficients t_vec, so its eigenvalues are
    2 p cos(phi + 2 pi k / 3) with p = |t_vec| / sqrt(6), cos(3 phi) = q =
    det(b) / (2 p^3) and phi in [0, pi / 3] (Smith 1961): top k = 0,
    bottom k = 1, middle k = 2.  The bottom one mu is 2 sqrt(3) p sin(phi)
    below the middle one.  For a simple eigenvalue mu the adjugate of
    b - mu is (lambda_2 - mu)(lambda_3 - mu) v v^dagger for its unit
    eigenvector v (Kopp 2008), so divided by its trace it is the projector
    (Sylvester's formula).  That is only as good as mu: an error e in q
    moves mu by at most p e / (3 sqrt(3) sin(phi)), which leaves a weight
    of that over the gap, at most e / (18 sin(phi)^2), on the other
    eigenvectors.  The rows with sin(phi) >= 1/8 take it, where that
    weight stays below 3.6 e.  On the others the bottom pair may be
    degenerate, while the top eigenvalue is isolated by 2 sqrt(3) p
    sin(pi / 3 - phi) > 2.7 p: the same formula gives its projector, and
    :func:`_lower_pair_ground` solves the rest on its complement.  Returns
    the projector coefficients, one row each.
    """
    b = np.ascontiguousarray((t[:, 1:] @ _real_basis(3)[1:]).view(complex).T)
    d0, d1, d2, x, y, z = b[0].real, b[4].real, b[8].real, b[1], b[2], b[5]
    xx, yy, zz = _abs2(x), _abs2(y), _abs2(z)
    p = np.sqrt(tt / 6.0)
    det = d0 * d1 * d2 - d0 * zz - d1 * yy - d2 * xx + 2.0 * (x * z * y.conj()).real
    q = np.minimum(np.maximum(det / (2.0 * p ** 3), -1.0), 1.0)
    plane = q > _PLANE_Q
    mu = 2.0 * p * np.cos(np.arccos(q) / 3.0 + np.where(plane, 0.0, 2.0 * np.pi / 3.0))
    e0, e1, e2 = d0 - mu, d1 - mu, d2 - mu
    adj = np.empty((len(t), 9))  # the upper triangle, in _adjugate_basis order
    a00, a11, a22 = adj[:, 0], adj[:, 1], adj[:, 2]
    a01, a02, a12 = adj[:, 3:].view(complex).T
    np.subtract(e1 * e2, zz, out=a00)
    np.subtract(e0 * e2, yy, out=a11)
    np.subtract(e0 * e1, xx, out=a22)
    np.subtract(y * z.conj(), x * e2, out=a01)
    np.subtract(x * z, y * e1, out=a02)
    np.subtract(x.conj() * y, e0 * z, out=a12)
    proj = adj @ _adjugate_basis()
    proj /= (a00 + a11 + a22)[:, None]
    if plane.any():
        w = _unit(_projector_columns(proj[plane]))
        low = _lower_pair_ground(b[:, plane], w, mu[plane], p[plane], prev[plane])
        proj[plane] = _projector_coeffs(np.stack(low, axis=1))
    return proj


def _ground_states(t: np.ndarray, prev: np.ndarray):
    """Lowest eigenvalue and ground-state projector of a stack of operators.

    Row r of ``t`` holds the coefficients of one operator and row r of
    ``prev`` those of a projector for the same factor.  A qubit has the
    closed form: value (t0 - |t_vec|) / sqrt(2) and projector
    (1, -t_vec / |t_vec|) / sqrt(2), keeping the direction of ``prev``
    where |t_vec| <= 1e-15 (the value is then t0 / sqrt(2) up to that
    size).  A qutrit has one too (:func:`_qutrit_projectors`): the adjugate
    projector, a few ulps from the true one, or on 2-3% of a planted map's
    rows a solve below the top eigenvector.  It keeps ``prev`` where
    |t_vec| <= 1e-15, and within a degenerate ground space keeps what it
    can of it.  Either value is the operator's expectation in the returned
    projector.  Larger factors take a batched ``eigh`` and ignore ``prev``.
    Returns the values and the projector coefficients, one row each.
    """
    if t.shape[1] == 4:
        tv = t[:, 1:]
        norms = np.sqrt(np.einsum("ij,ij->i", tv, tv))
        proj = prev * _SQRT2  # rows (1, direction), kept where |t_vec| <= 1e-15
        proj[:, 0] = 1.0
        np.divide(tv, -norms[:, None], out=proj[:, 1:], where=(norms > 1e-15)[:, None])
        return np.einsum("ij,ij->i", t, proj) / _SQRT2, proj / _SQRT2
    if t.shape[1] == 9:
        tt = np.einsum("ij,ij->i", t[:, 1:], t[:, 1:])
        live = tt > 1e-30
        if live.all():
            proj = _qutrit_projectors(t, tt, prev)
        else:
            proj = prev.copy()
            if live.any():
                proj[live] = _qutrit_projectors(t[live], tt[live], prev[live])
        return np.einsum("ij,ij->i", t, proj), proj
    d = math.isqrt(t.shape[1])
    mats = (t @ _real_basis(d)).view(complex).reshape(len(t), d, d)
    vals, vecs = np.linalg.eigh(mats)
    return vals[:, 0], _projector_coeffs(vecs[:, :, 0])


def _contract(red: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Contract the leading axes of ``red`` with one stack of rows each.

    ``red`` has no stack axis; ``rows[j]`` is (S, D_j) for its axis j.  The
    first contraction is one matmul, the rest batched matvecs; the result
    is (S, size of the remaining axes).
    """
    t = rows[0] @ red.reshape(rows[0].shape[1], -1)
    for row in rows[1:]:
        t = np.matmul(row[:, None, :], t.reshape(len(t), row.shape[1], -1))[:, 0]
    return t


def _descent(red: np.ndarray, rows: list):
    """Stacked alternating descent of ``red`` over products of projectors.

    ``rows[i]`` holds one start projector per row for factor i, the axis i
    of ``red``.  Every start sweeps the factors in order, replacing each by
    the ground state of the operator left after contracting ``red`` with
    the other factors: closed form for a qubit or qutrit, ``eigh`` for a
    larger factor (:func:`_ground_states`).  A start stops once the last
    factor's eigenvalue moves by less than 1e-13 over a sweep, or after 200
    sweeps.  All starts run as one stack, and the contraction for each
    factor goes one other factor at a time.  ``rows`` is updated in place,
    on the sweeps where some start stops and after the last one.  Returns
    the smallest final value and the factors of the first start attaining
    it.
    """
    n = len(rows)
    # red with axis i moved last, so contracting the others leaves factor i
    reds = [np.ascontiguousarray(np.moveaxis(red, i, -1)) for i in range(n)]
    active = np.arange(len(rows[0]))
    cur = list(rows)  # the rows of the active starts
    last = np.inf  # their last factor's previous values
    for sweep in range(200):
        for i in range(n):
            t = _contract(reds[i], cur[:i] + cur[i + 1:])
            vals, cur[i] = _ground_states(t, cur[i])
        moving = np.abs(last - vals) >= 1e-13
        if sweep < 199 and moving.all():
            last = vals
            continue
        last = vals[moving]
        for row, c in zip(rows, cur):
            row[active] = c
        active = active[moving]
        cur = [c[moving] for c in cur]
        if not active.size:
            break
    full = _contract(red, rows)[:, 0]
    best = int(np.argmin(full))
    return float(full[best]), [row[best].copy() for row in rows]


def _min_qubit_pair(C: np.ndarray, cfg: SearchConfig):
    """Global minimum of p(n)^T C p(m) over two Bloch spheres.

    One :func:`_descent` on ``C.T`` from the scan's best n (m = +z is replaced first).
    """
    _, _, col = _bloch_scan(C, cfg.grid)
    val, (pm, pn) = _descent(C.T, [_SCAN_AXES[:, :1].T / _SQRT2, col[None] / _SQRT2])
    return val, [pn, pm]


def _min_quantum_general(red: np.ndarray, qdims: Sequence[int], cfg: SearchConfig,
                         rng: np.random.Generator):
    """Seeded random-restart descent over >2 or higher-dimensional factors.

    Every restart is one start of :func:`_descent` from Haar-random pure
    states drawn from ``rng``.
    """
    # row-major, this is the order of per-restart, per-factor (real, imaginary)
    # draws, so the values and the generator state match a restart-by-restart loop
    draws = rng.normal(size=(cfg.restarts, 2 * sum(qdims)))
    rows, col = [], 0
    for d in qdims:
        psi = draws[:, col:col + d] + 1j * draws[:, col + d:col + 2 * d]
        col += 2 * d
        rows.append(_projector_coeffs(psi / np.linalg.norm(psi, axis=1, keepdims=True)))
    return _descent(red, rows)


def search_is_exact(qdims: Sequence[int]) -> bool:
    """Is the engine's minimum over these quantum factors exact?

    It is for at most one quantum factor (an eigenvalue) and for two qubit
    factors (a scan-seeded descent); otherwise it is a random-restart search.
    """
    return len(qdims) <= 1 or tuple(qdims) == (2, 2)


def unit_exponent(values) -> int:
    """The power of two, as an exponent ``e``, with the largest ``|values|`` in [2^(e-1), 2^e).

    Scaling by ``2^-e`` brings an input to unit size exactly: its largest
    entry lies in [1/2, 1).  It is 0 for inputs of that size and for zeros.
    """
    return math.frexp(float(np.max(np.abs(values))))[1]


def unit_tol(tol: float, values) -> float:
    """``tol`` at the unit size of ``values``: ``tol * 2^e`` for :func:`unit_exponent` ``e``.

    Inputs whose largest entry lies in [1/2, 1) keep ``tol`` exactly;
    those in [1, 2), normalized states among them, get ``2 tol``.  A
    verdict that compares a homogeneous margin with it does not change
    when the input is scaled by a power of two, at any size.  A ``tol``
    that overflows there passes every margin: it is infinite.
    """
    try:
        return math.ldexp(tol, unit_exponent(values))
    except OverflowError:
        return math.inf


def minimize_product_form(coeffs: np.ndarray, specs: Sequence, cfg: SearchConfig) -> ProductMin:
    """Minimize ``<g_1 x ... x g_N, w>`` over per-factor generator sets.

    ``specs[i]`` is either :class:`FiniteGenerators` (polytopic factor) or
    :class:`QuantumGenerators` (rank-1 projectors of a quantum factor).
    The result is exact whenever at most one quantum factor is present
    (eigenvalue computation) or exactly two qubit factors are (a
    scan-seeded descent); otherwise it is a seeded heuristic and
    ``conclusive`` is False.  Non-finite ``coeffs`` raise ``ValueError``.

    Each finite factor's generator table is contracted in, leaving one row
    per combination of finite generators; one quantum factor is minimized on
    all rows by one stacked :func:`_ground_states` call, more row by row.
    Ties go to the first combination in ``itertools.product`` order.

    The search runs at unit size: ``coeffs`` is scaled by the power of two
    that brings its largest entry into [1/2, 1), exactly, and the minimum
    is scaled back.  So no step overflows or underflows at any finite
    size, and the descent's thresholds are relative to the input's size.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")
    exp = unit_exponent(coeffs)
    t = np.ldexp(coeffs, -exp).reshape(tuple(
        s.vectors.shape[1] if isinstance(s, FiniteGenerators) else s.d * s.d for s in specs))
    finite_axes = [i for i, s in enumerate(specs) if isinstance(s, FiniteGenerators)]
    qdims = [s.d for s in specs if isinstance(s, QuantumGenerators)]
    # last finite factor first, each table's axis put in front: one row per
    # combination of generators, in itertools.product order
    for k, ax in enumerate(reversed(finite_axes)):
        t = np.tensordot(specs[ax].vectors, t, axes=([1], [ax + k]))
    rows = t.reshape(-1, math.prod(d * d for d in qdims))
    if len(qdims) > 1:
        # a qubit pair starts from its scan; only the restart search draws
        rng = None if qdims == [2, 2] else np.random.default_rng(cfg.seed)
        best_val = np.inf
        for r, red in enumerate(rows):
            val, qf = (_min_qubit_pair(red.reshape(4, 4), cfg) if rng is None else
                       _min_quantum_general(red.reshape([d * d for d in qdims]), qdims, cfg, rng))
            if val < best_val:
                best, best_val, qfactors = r, val, qf
    elif qdims:
        # a qubit operator that is a multiple of the identity keeps |0><0|
        # (+z), the ground state eigh returns for it
        zero = _projector_coeffs(np.eye(qdims[0], dtype=complex)[:1])
        vals, proj = _ground_states(rows, np.broadcast_to(zero, rows.shape))
        best = int(np.argmin(vals))
        best_val, qfactors = float(vals[best]), [proj[best]]
    else:
        best = int(np.argmin(rows[:, 0]))
        best_val, qfactors = float(rows[best, 0]), []
    picks = iter(np.unravel_index(best, [len(specs[ax].vectors) for ax in finite_axes]))
    qs = iter(qfactors)
    factors = tuple(s.vectors[next(picks)] if isinstance(s, FiniteGenerators) else next(qs)
                    for s in specs)
    return ProductMin(math.ldexp(best_val, exp), factors, search_is_exact(qdims))


def _effect_side_specs(atoms: Sequence) -> list:
    return [
        QuantumGenerators(a.d) if isinstance(a, Quantum)
        else FiniteGenerators(ray_table(a))
        for a in atoms
    ]


def _state_side_specs(atoms: Sequence) -> list:
    return [
        QuantumGenerators(a.d) if isinstance(a, Quantum)
        else FiniteGenerators(vertex_table(a))
        for a in atoms
    ]


def _product(sys: SystemType, factors: Sequence[np.ndarray]) -> GptVector:
    """The tensor product of per-atom coefficient arrays, as one vector on ``sys``."""
    return GptVector(sys, kron_all(factors))


# ---------------------------------------------------------------------------
# One verdict path: certificate gate, generator minimum, merge
# ---------------------------------------------------------------------------

_SCALAR = SystemType()


def certificate_bound(coeffs: np.ndarray, effect_atoms: Sequence,
                      state_atoms: Sequence) -> float | None:
    """The one certificate gate: a :func:`spectral_bound` on a form's minimum, or None.

    On quantum atoms the form is tr(X (R ⊗ S)) over effects R of
    ``effect_atoms`` and states S of ``state_atoms``.  With at most one
    state atom the states are pure, so the bound is taken on X, where the
    engine's search would not be exact.  On two state atoms where
    :func:`ppt_dims` holds every state is P + Q^Γ, so it is the lower of
    those on X and on X with the last atom transposed, the pair as one
    factor.  Any other atom, or shape, gets None.
    """
    atoms = tuple(effect_atoms) + tuple(state_atoms)
    if not all(isinstance(a, Quantum) for a in atoms):
        return None
    dims = tuple(a.d for a in atoms)
    pair_dims = ppt_dims(SystemType(tuple(state_atoms))) if len(state_atoms) == 2 else None
    if pair_dims is not None:
        x = coeffs_to_hermitian(coeffs, dims)
        return spectral_bound(np.stack([x, _partial_transpose(x, dims)]),
                              dims[:-2] + (pair_dims[0] * pair_dims[1],))
    if len(state_atoms) > 1 or search_is_exact(dims):
        return None
    return spectral_bound(coeffs_to_hermitian(coeffs, dims)[None], dims)


def _generator_min(coeffs: np.ndarray, effect_sys: SystemType, state_sys: SystemType,
                   cfg: SearchConfig, witness: Callable, probe: Callable | None,
                   offset: float | None = None) -> tuple[list, bool]:
    """The one generator minimum: (value, build) candidates, and whether they are conclusive.

    The form pairs effect-side generators of ``effect_sys`` with state-side
    ones of ``state_sys``.  The engine's minimum comes first; with
    ``offset`` the side ``offset u - form`` follows at ``offset +
    min(-form)`` (``u - e``; ``0 u - r = -r``).  Then each probe state p
    of ``state_sys`` adds ``probe(p) = (value, effect, conclusive)``, and
    with ``offset`` ``offset - value``.  ``build()`` returns
    ``witness(effect, state, value)``.  Conclusive when the engine is
    exact, :func:`product_generators_complete` holds for ``state_sys`` and
    every probe is.
    """
    n = len(effect_sys.atoms)
    specs = _effect_side_specs(effect_sys.atoms) + _state_side_specs(state_sys.atoms)

    def engine(res, value):
        return value, lambda: witness(_product(effect_sys, res.factors[:n]),
                                      _product(state_sys, res.factors[n:]), value)

    def probed(p, effect, value):
        return value, lambda: witness(effect, p, value)

    lo = minimize_product_form(coeffs, specs, cfg)
    found = [engine(lo, lo.value)]
    if offset is not None:
        hi = minimize_product_form(-coeffs, specs, cfg)
        found.append(engine(hi, offset + hi.value))
    conclusive = lo.conclusive and product_generators_complete(state_sys)
    for p in probe_states(state_sys):
        value, effect, settled = probe(p)
        conclusive = conclusive and settled
        found.append(probed(p, effect, value))
        if offset is not None:
            found.append(probed(p, effect, offset - value))
    return found, conclusive


def _form_verdict(coeffs: np.ndarray, effect_sys: SystemType, state_sys: SystemType,
                  cfg: SearchConfig, tol: float, witness: Callable, why: str,
                  probe: Callable | None = None) -> MembershipVerdict:
    """Is a form at least -tol on products of generators?  Gate, minimum, merge.

    A :func:`certificate_bound` of at least -tol accepts with the bound as
    the margin; otherwise :func:`_generator_min` and :func:`_verdict` decide.
    """
    bound = certificate_bound(coeffs, effect_sys.atoms, state_sys.atoms)
    if bound is not None and bound >= -tol:
        return MembershipVerdict(ACCEPTED, margin=bound, detail=_CERTIFIED)
    found, conclusive = _generator_min(coeffs, effect_sys, state_sys, cfg, witness, probe)
    return _verdict(found, conclusive, tol, why=why)


def _verdict(found: Sequence, conclusive: bool, tol: float, detail="", why="") -> MembershipVerdict:
    """The verdict on the first lowest of the (value, build) candidates ``found``.

    At value >= -tol it is ``accepted`` with ``detail`` when the minimum is
    ``conclusive`` and ``inconclusive-accept`` otherwise.  Below that it is
    ``rejected`` with the witness ``build()`` returns, built only then, and
    ``why``.  ``detail`` and ``why`` may be functions of the margin.
    """
    value, build = min(found, key=lambda c: c[0])
    if value >= -tol:
        return MembershipVerdict(ACCEPTED if conclusive else INCONCLUSIVE_ACCEPT, margin=value,
                                 detail=detail(value) if callable(detail) else detail)
    return MembershipVerdict(REJECTED, margin=value, witness=build(),
                             detail=why(value) if callable(why) else why)


# ---------------------------------------------------------------------------
# Composite membership and validity
# ---------------------------------------------------------------------------


def composite_state_check(v: GptVector, cfg: SearchConfig | None = None) -> MembershipVerdict:
    """Max-tensor cone membership: nonnegative against all product effects.

    A single atom has its exact test; a composite goes through
    :func:`_form_verdict` over product effects, and a rejection carries
    the product effect attaining the margin.  The tolerance is ``cfg.tol``
    at the unit size of ``v`` (:func:`unit_tol`).
    """
    cfg = cfg or SearchConfig()
    tol = unit_tol(cfg.tol, v.coeffs)
    if len(v.atoms) == 1:
        return atomic_state_check(v, tol)
    return _form_verdict(v.coeffs, v.system, _SCALAR, cfg, tol,
                         lambda effect, state, value: effect, _NEGATIVE_EFFECT)


def steer(v: GptVector, e: GptVector, on: int | Sequence[int] | None = None) -> GptVector:
    """Contract a composite vector with an effect on the chosen factor(s).

    ``on`` lists the atom positions the effect acts on, in increasing
    order; by default the effect acts on the trailing atoms.  Steering
    with the unit effect yields the reduced state of the remaining atoms.
    """
    n, k = len(v.atoms), len(e.atoms)
    if on is None:
        on = tuple(range(n - k, n))
    elif isinstance(on, int):
        on = (on,)
    else:
        on = tuple(on)
    if len(on) != k:
        raise ValueError(f"effect has {k} atoms but {len(on)} positions were given")
    if any(not 0 <= i < n for i in on):
        raise IndexError(f"factor index out of range: {on}")
    if list(on) != sorted(set(on)):
        raise ValueError(f"factor positions must be strictly increasing: {on}")
    for j, i in enumerate(on):
        if v.atoms[i] != e.atoms[j]:
            raise ValueError(
                f"effect atom {e.atoms[j]} does not match factor {i} ({v.atoms[i]})"
            )
    vt = v.coeffs.reshape(v.system.atom_dims or (1,))
    et = e.coeffs.reshape(e.system.atom_dims or (1,))
    if k == 0:
        red = vt * float(e.coeffs[0])
    else:
        red = np.tensordot(vt, et, axes=(list(on), list(range(k))))
    remaining = tuple(a for i, a in enumerate(v.atoms) if i not in on)
    return GptVector(SystemType(remaining), red.ravel())


def reduced_state(v: GptVector, keep: Sequence[int]) -> GptVector:
    """Steer with the unit effect on every atom not in ``keep``."""
    keep = set(keep)
    if any(not 0 <= i < len(v.atoms) for i in keep):
        raise IndexError(f"factor index out of range: {sorted(keep)}")
    drop = tuple(i for i in range(len(v.atoms)) if i not in keep)
    u = tensor_all([unit_effect(system(v.atoms[i])) for i in drop])
    return steer(v, u, on=drop)


# ---------------------------------------------------------------------------
# Composite effect validity
# ---------------------------------------------------------------------------


def _mixed_state_coeffs(atom) -> np.ndarray:
    if isinstance(atom, Quantum):
        c = np.zeros(atom.dim)
        c[0] = 1.0 / np.sqrt(atom.d)
        return c
    return vertex_table(atom).mean(axis=0)


def _rank_one_effect_factors(e: GptVector) -> list | None:
    """Split a product effect into per-atom factors, or None if entangled.

    Every factor but the last is scaled to a largest value of 1 over
    states, and the last carries the scales, so a valid product effect
    splits into valid factors whatever the sizes of its factors.  The
    cut-offs are relative to the effect's and the factor's unit size.
    """
    dims = e.system.atom_dims
    factors = []
    rest = e.coeffs
    zero = 1e-14 * math.ldexp(1.0, unit_exponent(e.coeffs))
    for i in range(len(dims) - 1):
        m = rest.reshape(dims[i], -1)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        if s[0] < zero or (s.size > 1 and s[1] > 1e-10 * s[0]):
            return None
        f = u[:, 0] * np.sqrt(s[0])
        rest = vt[0] * np.sqrt(s[0])
        ref = float(u[:, 0] @ _mixed_state_coeffs(e.atoms[i]))
        if abs(ref) < 1e-12:
            return None
        if ref < 0:
            f, rest = -f, -rest
        a = e.atoms[i]  # f's largest value on a state, at least ref > 0
        top = (np.linalg.eigvalsh(coeffs_to_hermitian(f, (a.d,)))[-1] if isinstance(a, Quantum)
               else np.max(vertex_table(a) @ f))
        factors.append(GptVector(system(e.atoms[i]), f / top))
        rest = rest * top
    factors.append(GptVector(system(e.atoms[-1]), rest))
    return factors


def _validate_certificate(e: GptVector, decomposition, tol: float):
    """Check a separable decomposition; returns (ok, detail)."""
    total = 0.0
    recon = np.zeros_like(e.coeffs)
    for weight, factors in decomposition:
        if len(factors) != len(e.atoms):
            raise ValueError(
                f"decomposition term has {len(factors)} factors for {len(e.atoms)} atoms"
            )
        for f, a in zip(factors, e.atoms):
            if f.system != system(a):
                raise ValueError(f"factor system {f.system} does not match atom {a}")
        if weight < -tol:
            return False, f"negative weight {weight:.6g}"
        for f in factors:
            if not atomic_effect_check(f, tol).accepted:
                return False, "a factor fails the atomic effect test"
        total += max(weight, 0.0)
        recon = recon + max(weight, 0.0) * tensor_all(factors).coeffs
    if total > 1.0 + tol:
        return False, f"weights sum to {total:.6g} > 1"
    err = float(np.max(np.abs(recon - e.coeffs)))
    if err > max(tol, 1e-9 * max(1.0, float(np.max(np.abs(e.coeffs))))):
        return False, f"decomposition reconstructs e only to {err:.3g}"
    return True, f"separable certificate with weight sum {total:.6g}"


def ppt_dims(sys: SystemType) -> tuple | None:
    """Local dimensions of a system on which separable equals PPT, else None.

    That holds for two quantum atoms with d1 * d2 <= 6 (Peres 1996;
    Horodecki, Horodecki and Horodecki 1996): Q2*Q2, Q2*Q3 and Q3*Q2.
    """
    atoms = sys.atoms
    if (len(atoms) == 2 and all(isinstance(a, Quantum) for a in atoms)
            and atoms[0].d * atoms[1].d <= 6):
        return atoms[0].d, atoms[1].d
    return None


def _partial_transpose(m: np.ndarray, dims: tuple, on: Sequence[int] = (-1,)) -> np.ndarray:
    """Transpose the tensor factors ``on`` of ``dims`` (default: the last).

    Leading axes of ``m`` are a stack.
    """
    n = len(dims)
    t = m.reshape(m.shape[:-2] + tuple(dims) * 2)
    for i in on:
        i %= n
        t = t.swapaxes(i - 2 * n, i - n)
    return t.reshape(m.shape)


def spectral_bound(mats: np.ndarray, dims: tuple) -> float:
    """Certified lower bound of tr(M P) over products P of unit-trace rank-1 projectors.

    ``mats`` is a stack of Hermitian matrices M on the tensor product of
    factors of dimensions ``dims``.  A partial transpose turns a product of
    projectors into another such product, so for every set S of factors
    the lowest eigenvalue of M^{Γ_S} bounds tr(M P) from below; S and its
    complement give transposed matrices, so only sets without factor 0 are
    taken.  The bound is the best of these per M and the lowest of those
    over the stack, from one stacked ``eigvalsh``.  It is at least -tol
    whenever each M is PSD or PPT across some cut, and it is never above
    the minimum any search over products can reach.
    """
    n = len(dims)
    subsets = [s for k in range(n) for s in itertools.combinations(range(1, n), k)]
    stack = np.concatenate([_partial_transpose(mats, dims, s) for s in subsets])
    lows = np.linalg.eigvalsh(stack)[:, 0].reshape(len(subsets), len(mats))
    return float(lows.max(axis=0).min())


_CERTIFIED = "spectral certificate: partial-transpose eigenvalues >= -tol"

# Rejection details, one shared string each: the margin carries the number,
# so a kept verdict holds no text of its own.
_NEGATIVE_EFFECT = "a product effect evaluates to the margin"
_OUTSIDE_ON_STATE = "evaluates outside [0, 1] on a state, by the margin"


def ppt_min(mats: np.ndarray, dims: tuple) -> list:
    """Exact minima of tr(M W) over the normalized states W, one per M in a stack and per M^Γ.

    On a system where :func:`ppt_dims` holds, every state is P + Q^Γ with
    P, Q PSD (Størmer 1963; Woronowicz 1976), so the minimum over
    unit-trace states is the lowest eigenvalue of any M or M^Γ, from one
    batched ``eigh``.  Returns (value, build) candidates, the stack first,
    then its partial transposes; ``build()`` gives the state attaining the
    value: vv† for an eigenvector v of M, (vv†)^Γ for one of M^Γ.
    """
    vals, vecs = np.linalg.eigh(np.concatenate([mats, _partial_transpose(mats, dims)]))

    def state(i) -> GptVector:
        w = np.outer(vecs[i, :, 0], vecs[i, :, 0].conj())
        return hermitian_tensor_to_vector(_partial_transpose(w, dims) if i >= len(mats) else w,
                                          dims)

    return [(float(vals[i, 0]), lambda i=i: state(i)) for i in range(len(vals))]


def _state_min(f: GptVector, cfg: SearchConfig | None, offset: float | None = None):
    """Candidates for the minimum of <f, s> over states s, and of <offset u - f, s> with ``offset``.

    The states are the normalized members of the state cone of ``f``'s
    system.  Where :func:`ppt_dims` holds the candidates are exact
    (:func:`ppt_min` of f and offset I - f).  Elsewhere they are the
    state-side :func:`_generator_min`: products of atomic vertices and
    projectors, then the probe states.  With ``offset`` the candidates
    alternate between the two forms.  Returns (candidates, conclusive).
    """
    dims = ppt_dims(f.system)
    if dims is not None:
        mat = vector_to_hermitian_tensor(f)
        return ppt_min(mat[None] if offset is None
                       else np.stack([mat, offset * np.eye(len(mat)) - mat]), dims), True
    return _generator_min(f.coeffs, _SCALAR, f.system, cfg or SearchConfig(),
                          lambda effect, state, value: state,
                          lambda p: (pair(f, p), None, True), offset)


def composite_effect_check(
    e: GptVector,
    certified_separable=None,
    cfg: SearchConfig | None = None,
) -> MembershipVerdict:
    """Effect validity on a composite system: 0 <= <e, s> <= 1 on all states.

    A supplied separable decomposition ``[(weight, [factor, ...]), ...]``
    with valid factors and sub-unit weight sum certifies validity exactly.
    Otherwise the margin is the lowest of <e, s> and <u - e, s> over the
    candidates of one :func:`_state_min` call, and a rejection carries the
    state attaining it.  That is exact on Q2*Q2, Q2*Q3 and Q3*Q2 and where
    the generators are complete.  Elsewhere the zero effect and product
    effects with valid factors are accepted first, and finding no
    violation only reports inconclusive acceptance.  The tolerance is
    ``cfg.tol``; a configuration is only built when the search runs.
    """
    tol = cfg.tol if cfg is not None else DEFAULT_TOL
    if len(e.atoms) == 1:
        return atomic_effect_check(e, tol)
    detail = ""
    if certified_separable is not None:
        ok, detail = _validate_certificate(e, certified_separable, tol)
        if ok:
            return MembershipVerdict(ACCEPTED, margin=0.0, detail=detail)
        detail = f"certificate rejected ({detail}); "
    dims = ppt_dims(e.system)
    if dims is None and not product_generators_complete(e.system):
        if not e.coeffs.any():
            return MembershipVerdict(ACCEPTED, margin=0.0, detail="zero effect")
        factors = _rank_one_effect_factors(e)
        if factors is not None and _validate_certificate(e, [(1.0, factors)], tol)[0]:
            return MembershipVerdict(ACCEPTED, margin=0.0, detail="product-effect certificate")
    found, conclusive = _state_min(e, cfg, 1.0)
    how = ("e and u - e are PPT" if dims is not None
           else "no violation on the cone generators" if conclusive
           else "no violation found (heuristic search)")
    return _verdict(found, conclusive, tol, detail + how, detail + _OUTSIDE_ON_STATE)


# ---------------------------------------------------------------------------
# Non-product extreme states of composite cones
# ---------------------------------------------------------------------------


def probe_states(sys: SystemType) -> tuple:
    """The known non-product extreme states of a composite cone (see :data:`_PROBES`)."""
    return _PROBES.get(sys.atoms, ((), False))[0]


def product_generators_complete(sys: SystemType) -> bool:
    """Do atomic-generator products (plus probes) generate the whole cone?

    Classical atoms have simplicial cones, so they only grade the composite
    into independent slots: with at most one non-classical atom every
    extreme ray is a product.  Otherwise completeness holds only for
    systems whose probes are marked complete.
    """
    non_classical = sum(1 for a in sys.atoms if not isinstance(a, Classical))
    return non_classical <= 1 or _PROBES.get(sys.atoms, ((), False))[1]


def cone_generators(sys: SystemType) -> list:
    """Products of atomic vertices plus the probe states.

    For systems whose probes are marked complete this is a full
    generator set of the composite cone.  Quantum atoms are not supported
    (their vertex set is a continuum).
    """
    vertex_lists = [state_vertices(a) for a in sys.atoms]
    out = [tensor_all(vs) for vs in itertools.product(*vertex_lists)]
    out.extend(probe_states(sys))
    return out


def box_pair_state(table: np.ndarray) -> GptVector:
    """Encode a no-signalling table p[a, b, x, y] as a B2,2 * B2,2 vector."""
    p = np.asarray(table, dtype=float)
    if p.shape != (2, 2, 2, 2):
        raise ValueError(f"expected table of shape (2, 2, 2, 2), got {p.shape}")
    totals = p.sum(axis=(0, 1))
    if np.max(np.abs(totals - 1.0)) > 1e-10:
        raise ValueError("table is not normalized for every setting pair")
    margA = p.sum(axis=1)  # a, x, y
    margB = p.sum(axis=0)  # b, x, y
    if (np.max(np.abs(margA - margA[:, :, :1])) > 1e-10
            or np.max(np.abs(margB - margB[:, :1, :])) > 1e-10):
        raise ValueError("table is signalling")
    c = np.empty(9)
    for x in range(2):
        for y in range(2):
            c[3 * x + y] = p[0, 0, x, y]
        c[3 * x + 2] = margA[0, x, 0]
    for y in range(2):
        c[6 + y] = margB[0, 0, y]
    c[8] = 1.0
    return GptVector(system(Boxworld(2, 2), Boxworld(2, 2)), c)


def _pr_family() -> list:
    out = []
    for alpha, beta, gamma in itertools.product(range(2), repeat=3):
        p = np.zeros((2, 2, 2, 2))
        for a, b, x, y in itertools.product(range(2), repeat=4):
            if (a + b) % 2 == (x * y + alpha * x + beta * y + gamma) % 2:
                p[a, b, x, y] = 0.5
        out.append(box_pair_state(p))
    return out


_PR_STATES = tuple(_pr_family())


def pr_state() -> GptVector:
    """The bipartite box state whose correlations are p = 1/2 when the
    outcome parity equals the product of the settings, 0 otherwise."""
    return _PR_STATES[0]


def _two_qubit_probes() -> list:
    # Bell states and their partial transposes: non-product members of the
    # two-qubit composite cone.  Not a complete generator list (the witness
    # cone has a continuum of extreme rays); positivity checks of maps on
    # Q2*Q2 probe their images.  Effects and trace conditions on Q2*Q2 are
    # decided by the exact PPT test instead.
    bells = [
        np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
        np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
        np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
        np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
    ]
    out = []
    for amp in bells:
        rho = np.outer(amp, amp)
        out.append(hermitian_tensor_to_vector(rho, (2, 2)))
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        out.append(hermitian_tensor_to_vector(pt, (2, 2)))
    return out


# Known non-product extreme states of composite cones, by atoms, and whether
# they complete the products of vertices to a generator set of the cone.
# The 16 products of local vertices plus the 8 PR-family box states are
# exactly the extreme points of the bipartite B2,2 state space, so
# generator-based checks on that system are exact.
_PROBES = {
    (Boxworld(2, 2), Boxworld(2, 2)): (_PR_STATES, True),
    (Quantum(2), Quantum(2)): (tuple(_two_qubit_probes()), False),
}

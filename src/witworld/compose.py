"""Composition of systems and membership tests for composite cones.

The composite state cone is the max tensor product of the atomic cones: a
vector belongs to it exactly when it pairs nonnegatively with every
product of local effects.  So every check here and in
:mod:`witworld.transforms` minimizes a multilinear form over products of
generators: effect-side ones (outcome effects of classical and box atoms,
rank-1 projectors of quantum atoms) for states, state-side ones (vertices,
projectors) for effects and trace conditions, and both for positivity.
All of them take one path.  :func:`plan` alone decides, per check and
shape, which methods run and whether they are exact: exact PPT
eigenvalues, the spectral certificate :func:`certificate_bound`, the
zero- and product-effect certificates, the engine
:func:`minimize_product_form` and the known non-product probe states.
:func:`_form_verdict` is the one runner: it runs a plan's methods in
order, and the first lowest candidate decides.  The PPT eigenvalues and
the certificate read every matrix they need, each partial transpose
included, off one product of the form's coefficients with a real
operator cached per shape and gate (:func:`_gate_operator`, up to
``Q3*Q3`` and ``Q2*Q2*Q2``).  A check called without a
:class:`SearchConfig` takes ``DEFAULT_TOL`` and reads ``WITWORLD_SEED``
(:func:`default_config`) only where a search runs.

In the engine, two or more quantum factors go through one stacked
alternating descent, which takes a qubit or qutrit factor's ground state
in closed form and a larger factor's from a batched ``eigh``.  It runs on
the input scaled exactly to unit size, so it cannot overflow and its
thresholds are relative.  A qubit pair starts it once, from the best
direction of a scan over one Bloch sphere (the other has a closed-form
minimum); more or larger quantum factors start it from seeded random
restarts.  State and positivity verdicts take tol at the
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
    _CACHED_ENTRIES,
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
    ray_table,
    state_vertices,
    system,
    unit_effect,
    vertex_table,
    _basis_change,
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
    ``grid``, ``restarts`` and ``seed`` must be integers (numpy ones too)
    and ``tol`` a real number, none of them a bool, or ``ValueError`` is
    raised.
    """

    grid: int = 180
    restarts: int = 500
    seed: int = field(default_factory=_default_seed)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name, low in (("grid", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        tol = self.tol
        if (isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating))
                or not (np.isfinite(tol) and tol >= 0)):
            raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def default_config() -> SearchConfig:
    """``SearchConfig()``, built once per value of ``WITWORLD_SEED``.

    Nothing is kept for an invalid value, so it raises on every call.
    """
    return _config_for_seed(os.environ.get("WITWORLD_SEED", "0"))


@functools.lru_cache(maxsize=8)
def _config_for_seed(raw: str) -> SearchConfig:
    return SearchConfig()  # whose seed is read from the same WITWORLD_SEED


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


def _engine(qdims: Sequence[int]) -> str:
    """The engine's method, as a :class:`Plan` names it, over quantum factors of ``qdims``.

    "enumeration" (no quantum factor, or one: an eigenvalue per row) and
    "qubit-pair" (a scan-seeded descent) are exact; "restart" is not.
    """
    return ("enumeration" if len(qdims) <= 1 else "qubit-pair" if tuple(qdims) == (2, 2)
            else "restart")


def unit_exponent(values) -> int:
    """The power of two, as an exponent ``e``, with the largest ``|values|`` in [2^(e-1), 2^e).

    Scaling by ``2^-e`` brings an input to unit size exactly: its largest
    entry lies in [1/2, 1).  It is 0 for inputs of that size and for zeros.
    The maximum is one ``ndarray.max`` of ``np.abs(values)``, without the
    dispatch of ``np.max``.
    """
    return math.frexp(float(np.abs(values).max()))[1]


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
    ``conclusive`` is False where :func:`_engine` names the seeded restart
    search.  Non-finite ``coeffs`` raise ``ValueError``.

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
    method = _engine(qdims)
    if method != "enumeration":
        # a qubit pair starts from its scan; only the restart search draws
        rng = None if method == "qubit-pair" else np.random.default_rng(cfg.seed)
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
    return ProductMin(math.ldexp(best_val, exp), factors, method != "restart")


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
# One plan per check and shape, one runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class Plan:
    """How :func:`plan` settles one check on one shape: ``methods`` in order,
    and whether they are ``exact``, deciding every input.  ``specs`` are the
    engine's, and ``dims`` the atoms' dimensions where all are quantum."""

    methods: tuple
    exact: bool
    effect_sys: SystemType
    state_sys: SystemType
    specs: tuple
    dims: tuple | None


@functools.lru_cache(maxsize=256)
def plan(check: str, effect_atoms: tuple, state_atoms: tuple) -> Plan:
    """The methods that settle ``check`` on a form over ``effect_atoms`` and ``state_atoms``.

    A "state" or "positivity" form must be at least -tol on products of
    generators (a state check is positivity from the scalar system), an
    "effect" or "trace" form on the normalized states of the state side.
    Separable equals PPT on a state side of two quantum atoms with d1 d2
    <= 6 (Peres 1996; Horodecki, Horodecki and Horodecki 1996).  Products
    of generators with the :func:`probe_states` generate the state cone
    where at most one state atom is not classical (classical atoms only
    grade the composite into independent slots) or the probes say so.
    The methods, in order: "ppt" alone, exact eigenvalues where separable
    equals PPT on an effect or trace check; the gate
    :func:`certificate_bound` on quantum atoms only, "spectral" where the
    states are pure and the engine inexact, "spectral-ppt" where
    separable equals PPT; "effect-certificates" where an effect check's
    generators are not complete; the :func:`_engine`; "probes" where
    there are any.  Exact where "ppt" runs, or the engine is exact and the
    generators complete.
    """
    if check not in ("state", "positivity", "effect", "trace"):
        raise ValueError(f"unknown check {check!r}")
    effect_sys, state_sys = SystemType(effect_atoms), SystemType(state_atoms)
    specs = tuple(_effect_side_specs(effect_atoms) + _state_side_specs(state_atoms))
    atoms = effect_atoms + state_atoms
    dims = tuple(a.d for a in atoms) if all(isinstance(a, Quantum) for a in atoms) else None
    engine = _engine([s.d for s in specs if isinstance(s, QuantumGenerators)])
    ppt = (len(state_atoms) == 2 and all(isinstance(a, Quantum) for a in state_atoms)
           and state_atoms[0].d * state_atoms[1].d <= 6)
    if check in ("effect", "trace") and ppt:
        return Plan(("ppt",), True, effect_sys, state_sys, specs, dims)
    probes, marked = _probes(state_atoms)
    complete = marked or sum(not isinstance(a, Classical) for a in state_atoms) <= 1
    methods = []
    if check in ("state", "positivity") and dims is not None:
        if ppt:
            methods.append("spectral-ppt")
        elif len(state_atoms) <= 1 and engine == "restart":
            methods.append("spectral")
    if check == "effect" and not complete:
        methods.append("effect-certificates")
    methods += [engine] + (["probes"] if probes else [])
    return Plan(tuple(methods), engine != "restart" and complete, effect_sys, state_sys, specs,
                dims)


def certificate_bound(coeffs: np.ndarray, steps: Plan) -> float | None:
    """The gate of ``steps``: a :func:`spectral_bound` on the form's minimum, or None.

    The form is tr(X (R ⊗ S)) over effects R and states S.  "spectral"
    bounds X, as the states are pure; "spectral-ppt", where every state
    is P + Q^Γ, the lower of X and X with the last atom transposed, the
    state pair as one factor.  Up to ``Q3*Q3`` and ``Q2*Q2*Q2`` every
    matrix the gate reads comes from one product of ``coeffs`` with the
    cached :func:`_gate_operator`, then one ``eigvalsh`` and one max and
    min; larger shapes convert with :func:`coeffs_to_hermitian` and take
    :func:`spectral_bound`.  Both give the same bits.
    """
    methods, dims = steps.methods, steps.dims
    gate = ("spectral" if "spectral" in methods else "spectral-ppt" if "spectral-ppt" in methods
            else None)
    if gate is None:
        return None
    operator = _gate_operator(dims, gate)
    if operator is not None:
        lows = np.linalg.eigvalsh(_gate_matrices(coeffs, operator))[..., 0]
        return float(lows.max(axis=1).min())
    if gate == "spectral-ppt":
        return spectral_bound(_with_last_transposed(coeffs_to_hermitian(coeffs, dims)[None], dims),
                              dims[:-2] + (dims[-2] * dims[-1],))
    return spectral_bound(coeffs_to_hermitian(coeffs, dims)[None], dims)


def _form_verdict(coeffs: np.ndarray, steps: Plan, cfg: SearchConfig | None, tol: float,
                  witness: Callable, detail="", why="", probe: Callable | None = None,
                  offset: float | None = None, form_first=False,
                  settled=False) -> MembershipVerdict:
    """Is a form at least -tol?  The one runner: the methods of ``steps``, then one merge.

    A certificate accepts at once, the gate with its bound as the margin.
    The other methods add (value, pick) candidates, with ``offset`` each
    followed by its complement on ``offset u - form`` (``u - e``; ``0 u -
    r = -r``): :func:`_ppt_min`'s, the engine's minimum and ``offset +
    min(-form)``, and per probe state p ``probe(p) = (value, effect)``
    (default: the form's value on p) and ``offset - value``.  With
    ``form_first`` all the form's candidates precede its complement's.
    The first lowest decides: at value >= -tol ``accepted`` with
    ``detail`` where the plan is exact (a probe's own check is exact
    there too) or the caller ``settled`` it, else ``inconclusive-accept``;
    below, ``rejected`` with ``why`` and ``witness(*pick(), value)``, built
    only then from ``pick() = (effect, state)``.  ``detail`` and ``why``
    may be functions of the margin.  A missing ``cfg`` is built only if the
    engine runs.
    """
    n, state_sys = len(steps.effect_sys.atoms), steps.state_sys

    def split(factors):
        return _product(steps.effect_sys, factors[:n]), _product(state_sys, factors[n:])

    found = []
    for method in steps.methods:
        if method == "ppt":
            found += _ppt_min(coeffs, steps.dims, offset)
        elif method.startswith("spectral"):
            bound = certificate_bound(coeffs, steps)
            if bound >= -tol:
                return MembershipVerdict(ACCEPTED, margin=bound, detail=_CERTIFIED)
        elif method == "effect-certificates":
            if not coeffs.any():
                return MembershipVerdict(ACCEPTED, margin=0.0, detail="zero effect")
            e = GptVector(state_sys, coeffs)
            factors = _rank_one_effect_factors(e)
            if factors is not None and _validate_certificate(e, [(1.0, factors)], tol)[0]:
                return MembershipVerdict(ACCEPTED, margin=0.0, detail="product-effect certificate")
        elif method == "probes":
            for p in probe_states(state_sys):
                value, effect = probe(p) if probe else (float(np.dot(coeffs, p.coeffs)), None)
                found.append((value, lambda p=p, effect=effect: (effect, p)))
                if offset is not None:
                    found.append((offset - value, found[-1][1]))
        else:
            cfg = cfg or default_config()
            lo = minimize_product_form(coeffs, steps.specs, cfg)
            found.append((lo.value, lambda: split(lo.factors)))
            if offset is not None:
                hi = minimize_product_form(-coeffs, steps.specs, cfg)
                found.append((offset + hi.value, lambda: split(hi.factors)))
    if form_first:
        found = found[0::2] + found[1::2]
    value, pick = min(found, key=lambda c: c[0])
    if value >= -tol:
        return MembershipVerdict(ACCEPTED if steps.exact or settled else INCONCLUSIVE_ACCEPT,
                                 margin=value, detail=detail(value) if callable(detail) else detail)
    return MembershipVerdict(REJECTED, margin=value, witness=witness(*pick(), value),
                             detail=why(value) if callable(why) else why)


def _ppt_min(coeffs: np.ndarray, dims: tuple, offset: float | None) -> list:
    """The "ppt" candidates: exact minima of tr(M W) over normalized states W.

    M is the form, with ``offset`` then offset I - form, then their partial
    transposes.  Where separable equals PPT every state is P + Q^Γ with
    P, Q PSD (Størmer 1963; Woronowicz 1976), so each minimum is a lowest
    eigenvalue, from one ``eigh``, attained on vv† or (vv†)^Γ.  M and M^Γ
    come from one product with the cached :func:`_gate_operator`; as
    I^Γ = I, the complement of M^Γ is offset I - M^Γ, bit for bit.
    """
    mats = _gate_matrices(coeffs, _gate_operator(dims, "ppt"))[:, 0]
    if offset is not None:
        mats = np.stack([mats, offset * np.eye(mats.shape[-1]) - mats], axis=1)
        mats = mats.reshape(-1, *mats.shape[-2:])
    vals, vecs = np.linalg.eigh(mats)

    def pick(i):
        w = np.outer(vecs[i, :, 0], vecs[i, :, 0].conj())
        w = _with_last_transposed(w[None], dims)[1] if 2 * i >= len(mats) else w
        return None, hermitian_tensor_to_vector(w, dims)

    return [(float(vals[i, 0]), lambda i=i: pick(i)) for i in range(len(vals))]


# ---------------------------------------------------------------------------
# Composite membership and validity
# ---------------------------------------------------------------------------


def composite_state_check(v: GptVector, cfg: SearchConfig | None = None) -> MembershipVerdict:
    """Max-tensor cone membership: nonnegative against all product effects.

    A single atom has its exact test; a composite runs its "state"
    :func:`plan` over product effects, and a rejection carries the product
    effect attaining the margin.  The tolerance is ``cfg.tol``, or
    ``DEFAULT_TOL`` without a configuration, at the unit size of ``v``
    (:func:`unit_tol`).  Without one, :func:`default_config` (and so
    ``WITWORLD_SEED``) is read only if a search runs.
    """
    tol = unit_tol(DEFAULT_TOL if cfg is None else cfg.tol, v.coeffs)
    if len(v.atoms) == 1:
        return atomic_state_check(v, tol)
    return _form_verdict(v.coeffs, plan("state", v.atoms, ()), cfg, tol,
                         lambda effect, state, value: effect, why=_NEGATIVE_EFFECT)


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


@functools.lru_cache(maxsize=64)
def _transposes(dims: tuple) -> np.ndarray:
    """Every partial transpose :func:`spectral_bound` takes on ``dims``, as one
    read-only integer array: row s holds, for each entry of M^{Γ_S}
    flattened, the flat index of M it reads.  The sets S leave out factor
    0 and run by size, then in order, so row 0 is the identity and, on two
    or more factors, row ``len(dims) - 1`` the last factor alone."""
    n, total = len(dims), math.prod(dims)
    index = np.arange(total * total).reshape(total, total)
    out = np.stack([_partial_transpose(index, dims, s).reshape(-1)
                    for k in range(n) for s in itertools.combinations(range(1, n), k)])
    out.flags.writeable = False
    return out


def _with_last_transposed(mats: np.ndarray, dims: tuple) -> np.ndarray:
    """The stack ``mats`` (two or more factors), then each matrix transposed
    on the last factor, in that order: one take from :func:`_transposes`."""
    total = mats.shape[-1]
    rows = _transposes(dims)[[0, len(dims) - 1]]
    return np.swapaxes(mats.reshape(len(mats), -1)[:, rows], 0, 1).reshape(-1, total, total)


@functools.lru_cache(maxsize=64)
def _gate_operator(dims: tuple, gate: str) -> tuple | None:
    """The matrices ``gate`` reads off a form M on ``dims``, as one linear
    map of M's coefficients, with their shape (G, S, D, D); None where
    :func:`coeffs_to_hermitian` does not convert through one cached
    matrix (one factor, or beyond ``Q3*Q3`` and ``Q2*Q2*Q2``).

    "spectral": G = 1, the partial transposes of :func:`_transposes`;
    "ppt": M and M transposed on the last factor, S = 1; "spectral-ppt":
    those two, each with the partial transposes of :func:`_transposes` of
    the last two factors as one.  Each order is the one
    :func:`spectral_bound` and :func:`_with_last_transposed` take, so ties
    fall the same way.  Every partial transpose permutes entries, so the
    map is the columns of ``systems._basis_change(dims)`` (re, im pairs)
    gathered through those permutations: one read-only real
    (D^2, 2 G S D^2) array per shape and gate.
    """
    total = math.prod(dims)
    if len(dims) < 2 or total ** 4 > _CACHED_ENTRIES:
        return None
    rows = _transposes(dims)  # row s: the flat index of M each entry reads
    if gate == "spectral":
        layout = rows[None]
    else:
        pair = rows[[0, len(dims) - 1]]
        layout = (pair[:, None] if gate == "ppt"
                  else pair[:, _transposes(dims[:-2] + (dims[-2] * dims[-1],))])
    basis = _basis_change(dims)
    out = basis.reshape(len(basis), -1, 2)[:, layout.reshape(-1)].reshape(len(basis), -1)
    out.flags.writeable = False
    return out, layout.shape[:-1] + (total, total)


def _gate_matrices(coeffs: np.ndarray, operator: tuple) -> np.ndarray:
    """The (..., G, S, D, D) matrices a :func:`_gate_operator` reads off the
    forms with coefficient rows ``coeffs``.

    One unoptimized einsum, the one :func:`coeffs_to_hermitian` runs with
    the basis-change matrix: each entry sums in the same order, so the
    matrices are bit for bit those that conversion and the layout take
    give.  Leading axes of ``coeffs`` are a stack.
    """
    matrix, shape = operator
    flat = np.einsum("...k,kj->...j", np.ascontiguousarray(coeffs, dtype=float), matrix)
    return flat.view(complex).reshape(coeffs.shape[:-1] + shape)


def spectral_bound(mats: np.ndarray, dims: tuple) -> float:
    """Certified lower bound of tr(M P) over products P of unit-trace rank-1 projectors.

    ``mats`` is a stack of Hermitian matrices M on the tensor product of
    factors of dimensions ``dims``.  A partial transpose turns a product of
    projectors into another such product, so for every set S of factors
    the lowest eigenvalue of M^{Γ_S} bounds tr(M P) from below; S and its
    complement give transposed matrices, so only sets without factor 0 are
    taken.  All of them come from one take of the cached layout
    :func:`_transposes`, and the bound is the best of them per M and the
    lowest of those over the stack, from one stacked ``eigvalsh``.  It is
    at least -tol whenever each M is PSD or PPT across some cut, and it is
    never above the minimum any search over products can reach.
    """
    layout = _transposes(tuple(dims))
    total = mats.shape[-1]
    stack = mats.reshape(len(mats), -1)[:, layout].reshape(-1, total, total)
    lows = np.linalg.eigvalsh(stack)[:, 0].reshape(len(mats), len(layout))
    return float(lows.max(axis=1).min())


_CERTIFIED = "spectral certificate: partial-transpose eigenvalues >= -tol"

# Rejection details, one shared string each: the margin carries the number,
# so a kept verdict holds no text of its own.
_NEGATIVE_EFFECT = "a product effect evaluates to the margin"
_OUTSIDE_ON_STATE = "evaluates outside [0, 1] on a state, by the margin"


def composite_effect_check(
    e: GptVector,
    certified_separable=None,
    cfg: SearchConfig | None = None,
    *,
    tol: float | None = None,
) -> MembershipVerdict:
    """Effect validity on a composite system: 0 <= <e, s> <= 1 on all states.

    A supplied separable decomposition ``[(weight, [factor, ...]), ...]``
    with valid factors and sub-unit weight sum certifies validity exactly.
    Otherwise the "effect" :func:`plan` runs with its complement ``u -
    e``: the margin is the lowest of <e, s> and <u - e, s> found over
    normalized states s, and a rejection carries the state attaining it.
    The tolerance is ``tol``, else ``cfg.tol``, else the default; a
    configuration is only built when the search runs.
    """
    if tol is None:
        tol = cfg.tol if cfg is not None else DEFAULT_TOL
    if len(e.atoms) == 1:
        return atomic_effect_check(e, tol)
    detail = ""
    if certified_separable is not None:
        ok, detail = _validate_certificate(e, certified_separable, tol)
        if ok:
            return MembershipVerdict(ACCEPTED, margin=0.0, detail=detail)
        detail = f"certificate rejected ({detail}); "
    steps = plan("effect", (), e.atoms)
    how = ("e and u - e are PPT" if steps.methods == ("ppt",)
           else "no violation on the cone generators" if steps.exact
           else "no violation found (heuristic search)")
    return _form_verdict(e.coeffs, steps, cfg, tol, lambda effect, state, value: state,
                         detail + how, detail + _OUTSIDE_ON_STATE, offset=1.0)


# ---------------------------------------------------------------------------
# Non-product extreme states of composite cones
# ---------------------------------------------------------------------------


def probe_states(sys: SystemType) -> tuple:
    """The known non-product extreme states of a composite cone (see :data:`_PROBES`)."""
    return _probes(sys.atoms)[0]


@functools.lru_cache(maxsize=64)
def _probes(atoms: tuple) -> tuple:
    """(probes, complete) of a state side: :data:`_PROBES` of its atoms that are
    not classical.  A classical atom only grades the composite into independent
    slots, so each probe is taken times every vertex of the classical atoms, in
    atom order."""
    classical = [i for i, a in enumerate(atoms) if isinstance(a, Classical)]
    others = [i for i, a in enumerate(atoms) if not isinstance(a, Classical)]
    probes, complete = _PROBES.get(tuple(atoms[i] for i in others), ((), False))
    if not classical or not probes:
        return probes, complete
    sys = SystemType(atoms)
    shape = [atoms[i].dim for i in others + classical]
    order = np.argsort(others + classical)  # those axes back in atom order
    points = list(itertools.product(*(vertex_table(atoms[i]) for i in classical)))
    return tuple(GptVector(sys, kron_all([p.coeffs, *pt]).reshape(shape).transpose(order)
                           .ravel()) for p in probes for pt in points), complete


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
    # Q2*Q2 probe their images.
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
# generator-based checks on that system, and beside classical atoms
# (:func:`_probes`), are exact.
_PROBES = {
    (Boxworld(2, 2), Boxworld(2, 2)): (_PR_STATES, True),
    (Quantum(2), Quantum(2)): (tuple(_two_qubit_probes()), False),
}

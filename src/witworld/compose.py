"""Composition of systems and membership tests for composite cones.

The composite state cone is the max tensor product of the atomic cones: a
vector belongs to it exactly when it pairs nonnegatively with every
product of local effects.  Membership testing therefore reduces to
minimizing a multilinear form over products of dual-cone generators:
finitely many outcome effects for classical and box atoms, rank-1
projectors for quantum atoms.  The same minimization engine also serves
positivity and trace checks in :mod:`witworld.transforms`, which minimize
over products of *state*-side generators instead.

For a pair of qubit factors the projector optimization is handled by a
grid scan over one Bloch sphere (the other sphere has a closed-form
minimum) followed by one stacked alternating closed-form descent from 7
starts; this path is exact for the systems of interest.  Searches over
more or higher-dimensional quantum factors use seeded random restarts,
run as one stacked descent that takes a qubit or qutrit factor's ground
state in closed form and a larger factor's from a batched ``eigh``, and
report only inconclusive acceptance.

Effect validity is the dual question: ``e`` and ``u - e`` must be
separable.  On Q2*Q2, Q2*Q3 and Q3*Q2 separable equals PPT, so there it
is decided exactly by the eigenvalues of ``e``, ``u - e`` and their
partial transposes; elsewhere it is searched for over product states
and registered probe states, exactly where those generate the cone.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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
    effect_cone_rays,
    hermitian_basis,
    pair,
    state_vertices,
    system,
    unit_effect,
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

    ``grid`` is the number of polar divisions of the Bloch-sphere scan
    (azimuthal divisions are twice that).  ``restarts`` controls the
    random-restart refinement used for quantum factors beyond a qubit
    pair.  All searches are deterministic given (grid, restarts, seed).
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
    out = GptVector(SystemType(), np.array([1.0]))
    for v in vs:
        out = tensor(out, v)
    return out


def scalar_one() -> GptVector:
    """The unit of the tensor product (the scalar system's number 1)."""
    return GptVector(SystemType(), np.array([1.0]))


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def hermitian_tensor_to_vector(m: np.ndarray, dims: Sequence[int]) -> GptVector:
    """Expand a Hermitian matrix on a tensor-product Hilbert space.

    ``dims`` lists the local dimensions; the result lives on the composite
    of the matching quantum atoms, with coefficients against products of
    the local operator bases.
    """
    dims = tuple(dims)
    n = len(dims)
    total = int(np.prod(dims))
    m = np.asarray(m, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian within tolerance")
    if 3 * n > len(_LETTERS):
        raise ValueError("too many factors")
    ks = _LETTERS[:n]
    ps = _LETTERS[n:2 * n]
    qs = _LETTERS[2 * n:3 * n]
    operands = []
    script = []
    for i in range(n):
        operands.append(hermitian_basis(dims[i]))
        script.append(ks[i] + ps[i] + qs[i])
    operands.append(m.reshape(dims + dims))
    script.append(qs + ps)
    coeffs = np.real(np.einsum(",".join(script) + "->" + ks, *operands))
    return GptVector(SystemType(tuple(Quantum(d) for d in dims)), coeffs.ravel())


def vector_to_hermitian_tensor(v: GptVector) -> np.ndarray:
    """Inverse of :func:`hermitian_tensor_to_vector`."""
    if not all(isinstance(a, Quantum) for a in v.atoms):
        raise ValueError(f"expected quantum atoms only, got {v.system}")
    dims = tuple(a.d for a in v.atoms)
    n = len(dims)
    ks = _LETTERS[:n]
    ps = _LETTERS[n:2 * n]
    qs = _LETTERS[2 * n:3 * n]
    operands = [v.coeffs.reshape(tuple(d * d for d in dims))]
    script = [ks]
    for i in range(n):
        operands.append(hermitian_basis(dims[i]))
        script.append(ks[i] + ps[i] + qs[i])
    total = int(np.prod(dims))
    out = np.einsum(",".join(script) + "->" + ps + qs, *operands)
    return out.reshape(total, total)


# ---------------------------------------------------------------------------
# Product-form minimization engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FiniteGenerators:
    """Finite generator list for one factor (vertices or dual rays)."""

    vectors: tuple


@dataclass(frozen=True, slots=True)
class QuantumGenerators:
    """Rank-1 projector generators for one quantum factor."""

    d: int


@dataclass(frozen=True, slots=True)
class ProductMin:
    value: float
    factors: tuple          # per-factor coefficient arrays, atom order
    conclusive: bool


@functools.lru_cache(maxsize=8)
def _sphere_grid(n_theta: int) -> np.ndarray:
    """The Bloch-scan grid as one read-only (4, G) array.

    Row 0 is all ones and rows 1-3 are unit Bloch directions, so column g
    is sqrt(2) times the coefficient vector of the projector with direction
    ``grid[1:, g]``.  The last six columns are the axis directions +z, -z,
    +x, -x, +y, -y.
    """
    thetas = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phis = np.arange(2 * n_theta) * (np.pi / n_theta)
    st, ct = np.sin(thetas), np.cos(thetas)
    cp, sp = np.cos(phis), np.sin(phis)
    grid = np.empty((4, n_theta * 2 * n_theta + 6))
    grid[0] = 1.0
    grid[1, :-6] = np.outer(st, cp).ravel()
    grid[2, :-6] = np.outer(st, sp).ravel()
    grid[3, :-6] = np.repeat(ct, 2 * n_theta)
    grid[1:, -6:] = np.array([(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0),
                              (0, 1, 0), (0, -1, 0)]).T
    grid.flags.writeable = False
    return grid


# Columns per block of the scan's product.  A 4 x 4 by 4 x G product over
# the whole grid is large enough for OpenBLAS to split it across threads,
# and on a loaded 2-CPU host that split took 0.15 ms or 7 ms per scan
# depending on the state of the worker thread; blocks below its threshold
# run on the calling thread at about 0.2 ms in total.
_SCAN_BLOCK = 8192


def _bloch_scan(C: np.ndarray, grid: np.ndarray) -> tuple[float, int]:
    """Scan min over m of p(n)^T C p(m) for every grid direction n.

    With q = C^T p(n), the minimum over the second sphere is the minimum
    eigenvalue (q0 - |q_vec|) / sqrt(2) of the qubit operator with
    coefficients q.  Returns (minimum value, argmin); ties resolve to the
    first index.
    """
    vals = np.empty(grid.shape[1])  # sqrt(2) (q0 - |q_vec|) per direction
    for a in range(0, grid.shape[1], _SCAN_BLOCK):
        q = C.T @ grid[:, a:a + _SCAN_BLOCK]  # sqrt(2) q, one column per direction
        np.square(q[1:], out=q[1:])
        np.add(q[1], q[2], out=q[1])
        np.add(q[1], q[3], out=q[1])
        np.sqrt(q[1], out=q[1])
        np.subtract(q[0], q[1], out=vals[a:a + _SCAN_BLOCK])
    g = int(np.argmin(vals))
    return float(vals[g]) / 2.0, g


def _steer_directions(qv: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Rows -qv / |qv|, keeping the row of ``prev`` where |qv| <= 1e-15."""
    norms = np.sqrt(np.einsum("ij,ij->i", qv, qv))
    ok = norms > 1e-15
    return np.where(ok[:, None], qv / np.where(ok, -norms, 1.0)[:, None], prev)


def _min_qubit_pair(C: np.ndarray, cfg: SearchConfig):
    """Global minimum of p(n)^T C p(m) over two Bloch spheres.

    A grid scan over n picks one start; the six axis directions are the
    others.  From each start, alternating closed-form descent replaces m
    and then n by the minimizer against the other, with m = +z at first.
    A start stops once both factors move by less than 1e-6 in an
    iteration, or after 300 iterations.  All seven starts run as one
    stack; the winner is the first start with the smallest value.
    """
    grid = _sphere_grid(cfg.grid)
    _, g = _bloch_scan(C, grid)
    starts = [g, -6, -5, -4, -3, -2, -1]
    nm = np.empty((len(starts), 2, 3))  # per start: directions n and m
    nm[:, 0] = grid[1:, starts].T
    nm[:, 1] = (0.0, 0.0, 1.0)
    s = C / _SQRT2
    # vector parts of q = C^T p(n) and h = C p(m), affine in n and m
    q_off, q_lin = s[0, 1:], s[1:, 1:]
    h_off, h_lin = s[1:, 0], s[1:, 1:].T.copy()
    active = np.arange(len(starts))
    for _ in range(300):
        old = nm[active]
        new = np.empty_like(old)
        new[:, 1] = _steer_directions(old[:, 0].dot(q_lin) + q_off, old[:, 1])
        new[:, 0] = _steer_directions(new[:, 1].dot(h_lin) + h_off, old[:, 0])
        nm[active] = new
        d = new - old
        step = np.sqrt(np.einsum("kij,kij->ki", d, d).max(axis=1))
        active = active[step >= 1e-6]
        if not active.size:
            break
    p = np.empty((len(starts), 2, 4))
    p[:, :, 0] = 1.0
    p[:, :, 1:] = nm
    p /= _SQRT2
    vals = np.einsum("ij,jk,ik->i", p[:, 0], C, p[:, 1])
    best = int(np.argmin(vals))
    return float(vals[best]), [p[best, 0], p[best, 1]]


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


def _lower_pair_ground(b: np.ndarray, w: tuple, mu: np.ndarray, p: np.ndarray,
                       prev: np.ndarray) -> tuple:
    """Ground vectors of qutrit operators whose top eigenvalue is the isolated one.

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
        # of the projector prev = psi psi^dagger, the column with the
        # largest diagonal entry is a nonzero multiple of psi
        mats = (prev[keep] @ _real_basis(3)).view(complex).reshape(-1, 3, 3)
        j = np.argmax(np.diagonal(mats, axis1=1, axis2=2).real, axis=1)
        psi = mats[np.arange(len(j)), :, j].T
        h0 = c0[keep] * psi[0] + c1[keep] * psi[1] + c2[keep] * psi[2]
        h1 = (u2[0][keep].conj() * psi[0] + u2[1][keep].conj() * psi[1]
              + u2[2][keep].conj() * psi[2])
        h0[_abs2(h0) + _abs2(h1) == 0] = 1.0
        g0[keep], g1[keep] = h0, h1
    g0, g1 = _unit((g0, g1))
    return tuple(g0 * f + g1 * h for f, h in zip(u1, u2))


def _qutrit_ground_vectors(t: np.ndarray, prev: np.ndarray) -> tuple:
    """Ground vectors of qutrit operators with coefficient rows ``t``.

    The traceless part b = A - tr(A) / 3 has coefficients t_vec, so its
    eigenvalues are 2 p cos(phi + 2 pi k / 3) with p = |t_vec| / sqrt(6) and
    cos(3 phi) = det(b) / (2 p^3) (Smith 1961).  Where det(b) < 0 the
    bottom one (k = 1) is the isolated one, and its eigenvector is the
    largest column of the adjugate of b - mu, which is c v v^dagger for the
    null vector v (Kopp 2008).  Where det(b) >= 0 the top (k = 0) is, and
    :func:`_lower_pair_ground` solves the rest on its complement.  Every
    row needs |t_vec| > 0.  Returns the components of the unit vectors.
    """
    b = np.ascontiguousarray((t[:, 1:] @ _real_basis(3)[1:]).view(complex).T)
    d0, d1, d2, x, y, z = b[0].real, b[4].real, b[8].real, b[1], b[2], b[5]
    xx, yy, zz = _abs2(x), _abs2(y), _abs2(z)
    p = np.sqrt(np.einsum("ij,ij->i", t[:, 1:], t[:, 1:]) / 6.0)
    det = d0 * d1 * d2 - d0 * zz - d1 * yy - d2 * xx + 2.0 * (x * z * y.conj()).real
    q = np.clip(det / (2.0 * p ** 3), -1.0, 1.0)
    top = q >= 0
    mu = 2.0 * p * np.cos(np.arccos(q) / 3.0 + np.where(top, 0.0, 2.0 * np.pi / 3.0))
    e0, e1, e2 = d0 - mu, d1 - mu, d2 - mu
    a00, a11, a22 = e1 * e2 - zz, e0 * e2 - yy, e0 * e1 - xx
    a01, a02, a12 = y * z.conj() - x * e2, x * z - y * e1, x.conj() * y - e0 * z
    n00, n11, n22 = np.abs(a00), np.abs(a11), np.abs(a22)
    col0 = (n00 >= n11) & (n00 >= n22)
    col1 = ~col0 & (n11 >= n22)
    v = _unit((np.where(col0, a00, np.where(col1, a01, a02)),
               np.where(col0, a01.conj(), np.where(col1, a11, a12)),
               np.where(col0, a02.conj(), np.where(col1, a12.conj(), a22))))
    if top.any():
        low = _lower_pair_ground(b[:, top], tuple(c[top] for c in v), mu[top], p[top],
                                 prev[top])
        for c, g in zip(v, low):
            c[top] = g
    return v


def _ground_states(t: np.ndarray, prev: np.ndarray):
    """Lowest eigenvalue and ground-state projector of a stack of operators.

    Row r of ``t`` holds the coefficients of one operator and row r of
    ``prev`` those of a projector for the same factor.  A qubit has the
    closed form: value (t0 - |t_vec|) / sqrt(2) and projector
    (1, -t_vec / |t_vec|) / sqrt(2), keeping the direction of ``prev``
    where |t_vec| <= 1e-15 (the value is then t0 / sqrt(2) up to that
    size).  A qutrit has one too (:func:`_qutrit_ground_vectors`); it keeps
    ``prev`` where |t_vec| <= 1e-15, and within a degenerate ground space
    keeps what it can of it.  Either value is the operator's expectation in
    the returned projector.  Larger factors take a batched ``eigh`` and
    ignore ``prev``.  Returns the values and the projector coefficients, one
    row each.
    """
    if t.shape[1] == 4:
        dirs = _steer_directions(t[:, 1:], prev[:, 1:] * _SQRT2)
        vals = (t[:, 0] + np.einsum("ij,ij->i", dirs, t[:, 1:])) / _SQRT2
        proj = np.empty_like(t)
        proj[:, 0] = 1.0
        proj[:, 1:] = dirs
        return vals, proj / _SQRT2
    if t.shape[1] == 9:
        live = np.einsum("ij,ij->i", t[:, 1:], t[:, 1:]) > 1e-30
        proj = prev.copy()
        if live.any():
            psi = np.stack(_qutrit_ground_vectors(t[live], prev[live]), axis=1)
            proj[live] = _projector_coeffs(psi)
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


def _min_quantum_general(red: np.ndarray, qdims: Sequence[int], cfg: SearchConfig,
                         rng: np.random.Generator):
    """Seeded random-restart descent over >2 or higher-dimensional factors.

    Every restart starts from Haar-random pure states and sweeps the
    factors in order, replacing each by the ground state of the operator
    left after contracting ``red`` with the other factors: closed form for
    a qubit or qutrit, ``eigh`` for a larger factor (:func:`_ground_states`).
    A restart stops once the last factor's eigenvalue moves by less than
    1e-13 over a sweep, or after 200 sweeps.  All restarts run as one
    stack, and the contraction for each factor goes one other factor at a
    time.  The winner is the first restart with the smallest final value.
    """
    n = len(qdims)
    # red with axis i moved last, so contracting the others leaves factor i
    reds = [np.ascontiguousarray(np.moveaxis(red, i, -1)) for i in range(n)]
    # row-major, this is the order of per-restart, per-factor (real, imaginary)
    # draws, so the values and the generator state match a restart-by-restart loop
    draws = rng.normal(size=(cfg.restarts, 2 * sum(qdims)))
    rows, col = [], 0
    for d in qdims:
        psi = draws[:, col:col + d] + 1j * draws[:, col + d:col + 2 * d]
        col += 2 * d
        rows.append(_projector_coeffs(psi / np.linalg.norm(psi, axis=1, keepdims=True)))
    last = np.full(cfg.restarts, np.inf)
    active = np.arange(cfg.restarts)
    cur = list(rows)  # the rows of the active restarts
    for _ in range(200):
        for i in range(n):
            t = _contract(reds[i], cur[:i] + cur[i + 1:])
            vals, cur[i] = _ground_states(t, cur[i])
        moving = np.abs(last[active] - vals) >= 1e-13
        last[active] = vals
        for row, c in zip(rows, cur):
            row[active] = c
        active = active[moving]
        cur = [c[moving] for c in cur]
        if not active.size:
            break
    full = _contract(red, rows)[:, 0]
    best = int(np.argmin(full))
    return float(full[best]), [row[best].copy() for row in rows]


def _min_over_quantum(red: np.ndarray, qdims: Sequence[int], cfg: SearchConfig,
                      rng: np.random.Generator):
    if not qdims:
        return float(red), []
    if len(qdims) == 1:
        # a qubit operator that is a multiple of the identity keeps |0><0|
        # (+z), the ground state eigh returns for it
        zero = _projector_coeffs(np.eye(qdims[0], dtype=complex)[:1])
        vals, proj = _ground_states(red.reshape(1, -1), zero)
        return float(vals[0]), [proj[0]]
    if len(qdims) == 2 and qdims[0] == 2 and qdims[1] == 2:
        return _min_qubit_pair(red.reshape(4, 4), cfg)
    return _min_quantum_general(red, qdims, cfg, rng)


def minimize_product_form(coeffs: np.ndarray, specs: Sequence, cfg: SearchConfig) -> ProductMin:
    """Minimize ``<g_1 x ... x g_N, w>`` over per-factor generator sets.

    ``specs[i]`` is either :class:`FiniteGenerators` (polytopic factor) or
    :class:`QuantumGenerators` (rank-1 projectors of a quantum factor).
    The result is exact whenever at most one quantum factor is present
    (eigenvalue computation) or exactly two qubit factors are (grid scan
    plus alternating descent); otherwise it is a seeded heuristic and
    ``conclusive`` is False.  Non-finite ``coeffs`` raise ``ValueError``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")
    dims = tuple(
        s.vectors[0].coeffs.size if isinstance(s, FiniteGenerators) else s.d * s.d
        for s in specs
    )
    tensor_w = coeffs.reshape(dims)
    finite_axes = [i for i, s in enumerate(specs) if isinstance(s, FiniteGenerators)]
    qdims = [s.d for s in specs if isinstance(s, QuantumGenerators)]
    conclusive = len(qdims) <= 1 or qdims == [2, 2]
    rng = np.random.default_rng(cfg.seed)

    best_val, best_factors = np.inf, None
    ranges = [range(len(specs[i].vectors)) for i in finite_axes]
    for combo in itertools.product(*ranges):
        red = tensor_w
        for ax, gi in sorted(zip(finite_axes, combo), reverse=True):
            red = np.tensordot(specs[ax].vectors[gi].coeffs, red, axes=([0], [ax]))
        val, qfactors = _min_over_quantum(red, qdims, cfg, rng)
        if val < best_val:
            factors: list = [None] * len(specs)
            for ax, gi in zip(finite_axes, combo):
                factors[ax] = specs[ax].vectors[gi].coeffs
            it = iter(qfactors)
            for i, s in enumerate(specs):
                if isinstance(s, QuantumGenerators):
                    factors[i] = next(it)
            best_val, best_factors = val, tuple(factors)
    return ProductMin(best_val, best_factors, conclusive)


def _effect_side_specs(atoms: Sequence) -> list:
    return [
        QuantumGenerators(a.d) if isinstance(a, Quantum)
        else FiniteGenerators(tuple(effect_cone_rays(a)))
        for a in atoms
    ]


def _state_side_specs(atoms: Sequence) -> list:
    return [
        QuantumGenerators(a.d) if isinstance(a, Quantum)
        else FiniteGenerators(tuple(state_vertices(a)))
        for a in atoms
    ]


def _product(atoms: Sequence, factors: Sequence[np.ndarray]) -> GptVector:
    """The tensor product of per-atom coefficient arrays, as one vector."""
    return tensor_all([GptVector(system(a), f) for a, f in zip(atoms, factors)])


def _verdict(value: float, conclusive: bool, tol: float,
             reject: Callable[[], tuple], detail: str = "") -> MembershipVerdict:
    """The verdict on a minimum slack ``value``.

    At ``value >= -tol`` the verdict is ``accepted`` with ``detail`` when
    the minimum is ``conclusive`` and ``inconclusive-accept`` otherwise.
    Below that it is ``rejected`` with the (witness, detail) pair that
    ``reject()`` returns; the witness is only built then.
    """
    if value >= -tol:
        return MembershipVerdict(ACCEPTED if conclusive else INCONCLUSIVE_ACCEPT,
                                 margin=value, detail=detail)
    witness, detail = reject()
    return MembershipVerdict(REJECTED, margin=value, witness=witness, detail=detail)


# ---------------------------------------------------------------------------
# Composite membership and validity
# ---------------------------------------------------------------------------


def composite_state_check(v: GptVector, cfg: SearchConfig | None = None) -> MembershipVerdict:
    """Max-tensor cone membership: nonnegative against all product effects.

    Polytopic factors are checked exhaustively over their dual rays; a
    qubit pair is scanned and refined; anything larger falls back to a
    seeded random-restart search whose acceptance is inconclusive.  A
    rejection carries the product effect attaining the margin.
    """
    cfg = cfg or SearchConfig()
    if len(v.atoms) == 1:
        return atomic_state_check(v, cfg.tol)
    res = minimize_product_form(v.coeffs, _effect_side_specs(v.atoms), cfg)
    return _verdict(res.value, res.conclusive, cfg.tol, lambda: (
        _product(v.atoms, res.factors), f"product effect evaluates to {res.value:.6g}"))


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
    verts = state_vertices(atom)
    return np.mean([s.coeffs for s in verts], axis=0)


def _rank_one_effect_factors(e: GptVector) -> list | None:
    """Split a product effect into per-atom factors, or None if entangled."""
    dims = e.system.atom_dims
    factors = []
    rest = e.coeffs
    for i in range(len(dims) - 1):
        m = rest.reshape(dims[i], -1)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        if s[0] < 1e-14 or (s.size > 1 and s[1] > 1e-10 * s[0]):
            return None
        f = u[:, 0] * np.sqrt(s[0])
        rest = vt[0] * np.sqrt(s[0])
        ref = float(f @ _mixed_state_coeffs(e.atoms[i]))
        if abs(ref) < 1e-12:
            return None
        if ref < 0:
            f, rest = -f, -rest
        factors.append(GptVector(system(e.atoms[i]), f))
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


def _partial_transpose(m: np.ndarray, dims: tuple) -> np.ndarray:
    """Transpose the second tensor factor; leading axes are a stack."""
    d1, d2 = dims
    return m.reshape(m.shape[:-2] + (d1, d2, d1, d2)).swapaxes(-3, -1).reshape(m.shape)


def ppt_min(mats: np.ndarray, dims: tuple) -> tuple[float, Callable[[], GptVector]]:
    """Exact minimum of tr(M W) over the normalized states W, M in a stack.

    On a system where :func:`ppt_dims` holds, every state is P + Q^Γ with
    P, Q PSD (Størmer 1963; Woronowicz 1976), so the minimum over
    unit-trace states is the lowest eigenvalue of any M or M^Γ.  One
    batched ``eigh`` covers the stack and its partial transposes.  Returns
    that minimum and a function building the state attaining it: vv† for
    an eigenvector v of some M, (vv†)^Γ for one of some M^Γ.
    """
    vals, vecs = np.linalg.eigh(np.concatenate([mats, _partial_transpose(mats, dims)]))
    i = int(np.argmin(vals[:, 0]))

    def state() -> GptVector:
        v = vecs[i, :, 0]
        w = np.outer(v, v.conj())
        if i >= len(mats):
            w = _partial_transpose(w, dims)
        return hermitian_tensor_to_vector(w, dims)

    return float(vals[i, 0]), state


def _state_min(f: GptVector, cfg: SearchConfig | None, complement: bool = False):
    """Minimum of <f, s>, and of <u - f, s> with ``complement``, over states s.

    The states are the normalized members of the state cone of ``f``'s
    system.  Where :func:`ppt_dims` holds the minimum is exact
    (:func:`ppt_min`).  Elsewhere it is the engine's minimum over products
    of atomic vertices and projectors, lowered by the registered probe
    states, and conclusive when the engine is and
    :func:`product_generators_complete` holds.  Returns (value,
    conclusive, state) where ``state()`` builds a state attaining the value.
    """
    dims = ppt_dims(f.system)
    if dims is not None:
        mat = vector_to_hermitian_tensor(f)
        value, state = ppt_min(np.stack([mat, np.eye(len(mat)) - mat]) if complement
                               else mat[None], dims)
        return value, True, state
    cfg = cfg or SearchConfig()
    specs = _state_side_specs(f.atoms)
    lo = minimize_product_form(f.coeffs, specs, cfg)
    found = [(lo.value, lambda: _product(f.atoms, lo.factors))]
    if complement:
        hi = minimize_product_form(-f.coeffs, specs, cfg)
        found.append((1.0 + hi.value, lambda: _product(f.atoms, hi.factors)))
    for probe in probe_states(f.system):
        val = pair(f, probe)
        found.append((val, lambda p=probe: p))
        if complement:
            found.append((1.0 - val, lambda p=probe: p))
    value, state = min(found, key=lambda c: c[0])
    return value, lo.conclusive and product_generators_complete(f.system), state


def composite_effect_check(
    e: GptVector,
    certified_separable=None,
    cfg: SearchConfig | None = None,
) -> MembershipVerdict:
    """Effect validity on a composite system: 0 <= <e, s> <= 1 on all states.

    A supplied separable decomposition ``[(weight, [factor, ...]), ...]``
    with valid factors and sub-unit weight sum certifies validity exactly.
    Otherwise the margin is the lowest of <e, s> and <u - e, s> over the
    states s found by :func:`_state_min`, and a rejection carries the state
    attaining it.  That is exact on Q2*Q2, Q2*Q3 and Q3*Q2 (``e`` and
    ``u - e`` must be PSD and PPT) and on systems whose product generators
    and probes are complete.  Elsewhere product effects are certified
    automatically, and the rest is a heuristic: finding a violation
    rejects conclusively, finding none only reports inconclusive
    acceptance.  The tolerance is ``cfg.tol``; a configuration is only
    built when the heuristic search runs.
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
    value, conclusive, state = _state_min(e, cfg, complement=True)

    def reject():
        w = state()
        return w, detail + f"evaluates to {pair(e, w):.6g} on a state"

    how = ("e and u - e are PPT" if dims is not None
           else "no violation on the cone generators" if conclusive
           else "no violation found (heuristic search)")
    return _verdict(value, conclusive, tol, reject, detail + how)


# ---------------------------------------------------------------------------
# Registry of non-product extreme states of composite cones
# ---------------------------------------------------------------------------

_PROBE_REGISTRY: dict = {}
_PROBE_COMPLETE: set = set()


def register_probe_states(atoms: tuple, states: Iterable[GptVector], complete: bool = False):
    """Register known non-product extreme states of a composite cone.

    With ``complete=True``, the registered states together with all
    products of vertices are asserted to generate the full cone, which
    upgrades generator-based checks on that system to exact ones.
    """
    _PROBE_REGISTRY[atoms] = tuple(states)
    if complete:
        _PROBE_COMPLETE.add(atoms)


def probe_states(sys: SystemType) -> tuple:
    return _PROBE_REGISTRY.get(sys.atoms, ())


def probes_complete(sys: SystemType) -> bool:
    return sys.atoms in _PROBE_COMPLETE


def product_generators_complete(sys: SystemType) -> bool:
    """Do atomic-generator products (plus probes) generate the whole cone?

    Classical atoms have simplicial cones, so they only grade the composite
    into independent slots: with at most one non-classical atom every
    extreme ray is a product.  Otherwise completeness holds only for
    systems whose probe registry is marked complete.
    """
    non_classical = sum(1 for a in sys.atoms if not isinstance(a, Classical))
    return non_classical <= 1 or probes_complete(sys)


def cone_generators(sys: SystemType) -> list:
    """Products of atomic vertices plus the registered probe states.

    For systems whose probe registry is marked complete this is a full
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

# The 16 products of local vertices plus these 8 box states are exactly the
# extreme points of the bipartite B2,2 state space, so generator-based
# checks on that system are exact.
register_probe_states((Boxworld(2, 2), Boxworld(2, 2)), _PR_STATES, complete=True)


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


register_probe_states((Quantum(2), Quantum(2)), _two_qubit_probes())

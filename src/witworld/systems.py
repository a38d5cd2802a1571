"""Atomic system types, their state cones, and exact validity tests.

Three atomic kinds are supported:

* classical systems ``C_v``: vectors in R^v holding the weights of the
  first v-1 outcomes plus a normalization coordinate (the last entry);
* quantum systems ``Q_d``: Hermitian d x d operators expanded in an
  orthonormal Hermitian basis, so the Euclidean inner product of
  coefficient vectors equals the Hilbert-Schmidt inner product;
* box systems ``B_{n,k}``: n independent k-outcome measurements, stored
  as n blocks of k-1 outcome weights plus a normalization coordinate.

Composite systems are ordered tuples of atoms; their vector space is the
Kronecker product of the atomic spaces, in atom order.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .verdict import ACCEPTED, REJECTED, MembershipVerdict

EPS_HERM = 1e-10
DEFAULT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Classical:
    """Classical system with ``v`` outcomes."""

    v: int

    def __post_init__(self):
        if self.v < 1:
            raise ValueError(f"classical outcome count must be >= 1, got {self.v}")

    @property
    def dim(self) -> int:
        return self.v

    def __str__(self) -> str:
        return f"C{self.v}"


@dataclass(frozen=True, slots=True)
class Quantum:
    """Quantum system on a ``d``-dimensional Hilbert space."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"Hilbert space dimension must be >= 1, got {self.d}")

    @property
    def dim(self) -> int:
        return self.d * self.d

    def __str__(self) -> str:
        return f"Q{self.d}"


@dataclass(frozen=True, slots=True)
class Boxworld:
    """Box system with ``n`` measurements of ``k`` outcomes each."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"measurement count must be >= 0, got {self.n}")
        if self.k < 2:
            raise ValueError(f"outcome count must be >= 2, got {self.k}")

    @property
    def dim(self) -> int:
        return self.n * (self.k - 1) + 1

    def __str__(self) -> str:
        return f"B{self.n},{self.k}"


AtomicSystem = Union[Classical, Quantum, Boxworld]


@dataclass(frozen=True, slots=True)
class SystemType:
    """Ordered list of atomic systems; the empty tuple is the scalar system."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple(self.atoms)
        for a in atoms:
            if not isinstance(a, (Classical, Quantum, Boxworld)):
                raise TypeError(f"not an atomic system: {a!r}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        out = 1
        for a in self.atoms:
            out *= a.dim
        return out

    @property
    def atom_dims(self) -> tuple:
        return tuple(a.dim for a in self.atoms)

    def __mul__(self, other: "SystemType") -> "SystemType":
        return SystemType(self.atoms + other.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __str__(self) -> str:
        return "*".join(str(a) for a in self.atoms) if self.atoms else "scalar"


def system(*atoms: AtomicSystem) -> SystemType:
    """Convenience constructor: ``system(Quantum(2), Boxworld(2, 2))``."""
    return SystemType(tuple(atoms))


def dimension(sys: SystemType) -> int:
    return sys.dim


@dataclass(frozen=True, eq=False, slots=True)
class GptVector:
    """Real coefficient vector over a system; a state or an effect by context."""

    system: SystemType
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1).copy()
        if c.size != self.system.dim:
            raise ValueError(
                f"coefficient length {c.size} does not match system "
                f"{self.system} of dimension {self.system.dim}"
            )
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def atoms(self) -> tuple:
        return self.system.atoms

    def __repr__(self) -> str:
        return f"GptVector({self.system}, {np.array2string(self.coeffs, precision=6)})"


def pair(e: GptVector, s: GptVector) -> float:
    """Pairing of an effect with a state (plain Euclidean inner product)."""
    if e.system != s.system:
        raise ValueError(f"system mismatch: {e.system} vs {s.system}")
    return float(np.dot(e.coeffs, s.coeffs))


# ---------------------------------------------------------------------------
# Hermitian operator basis and (de)vectorization
# ---------------------------------------------------------------------------


def _hs_normalize(m: np.ndarray) -> np.ndarray:
    return m / np.sqrt(np.real(np.trace(m.conj().T @ m)))


@functools.lru_cache(maxsize=32)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis with shape ``(d^2, d, d)``.

    Element 0 is the normalized identity; the rest are the normalized
    generalized Gell-Mann matrices (symmetric, antisymmetric, diagonal).
    For d=2 this is the Pauli basis scaled by 1/sqrt(2), in I, X, Y, Z order.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    basis = [_hs_normalize(np.eye(d, dtype=complex))]
    for k in range(1, d):
        for j in range(k):
            mat = np.zeros((d, d), dtype=complex)
            mat[j, k] = 1.0
            mat[k, j] = 1.0
            basis.append(_hs_normalize(mat))
            mat = np.zeros((d, d), dtype=complex)
            mat[j, k] = -1.0j
            mat[k, j] = 1.0j
            basis.append(_hs_normalize(mat))
        mat = np.zeros((d, d), dtype=complex)
        mat[np.arange(k), np.arange(k)] = 1.0
        mat[k, k] = -float(k)
        basis.append(_hs_normalize(mat))
    out = np.stack(basis, axis=0)
    out.flags.writeable = False
    return out


def not_hermitian(m: np.ndarray, eps: float):
    """Is a square matrix, or each matrix of a stack, further than ``eps`` from Hermitian?

    The largest entry of |m - m^dagger| is compared with eps times max(1,
    largest entry of |m|), so the test is relative for large matrices and
    absolute for small ones.  The entries' size is only taken when the
    absolute test fails.
    """
    m = np.asarray(m)
    skew = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1))
    over = skew > eps
    if over.any():
        over &= skew > eps * np.abs(m).max(axis=(-2, -1))
    return over


@functools.lru_cache(maxsize=None)
def _conversion_scripts(n: int) -> tuple:
    """The einsum scripts of :func:`hermitian_to_coeffs` and of the
    single-factor :func:`coeffs_to_hermitian`, on ``n`` factors."""
    k, p, q = (string.ascii_letters[i * n:(i + 1) * n] for i in range(3))
    bases = ",".join(map("".join, zip(k, p, q)))
    return f"{bases},...{q}{p}->...{k}", f"...{k},{bases}->...{p}{q}"


def hermitian_to_coeffs(mats: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Coefficients of Hermitian matrices on the tensor product of ``dims``.

    ``mats`` has shape ``(..., D, D)`` with ``D`` the product of ``dims``;
    the result has shape ``(..., prod(d**2))``, against products of the
    local bases of :func:`hermitian_basis` (entry ``k`` is ``tr(B_k M)``).
    One unoptimized einsum over every factor at once, unlike ``matmul`` or
    ``tensordot``, so each matrix of a stack converts bit for bit as it
    would alone.  The caller checks Hermiticity.
    """
    dims = tuple(dims)
    lead = mats.shape[:-2]
    coeffs = np.real(np.einsum(_conversion_scripts(len(dims))[0],
                               *map(hermitian_basis, dims), mats.reshape(lead + dims + dims)))
    return coeffs.reshape(lead + (math.prod(d * d for d in dims),))


# A basis-change matrix has D**4 complex entries for D x D matrices; it is
# cached up to this many (256 KiB: Q3*Q3 and Q2*Q2*Q2 are under, Q2**4 and
# Q2*Q2*Q3 over).  Larger shapes convert one factor at a time.
_CACHED_ENTRIES = 1 << 14


@functools.lru_cache(maxsize=32)
def _basis_change(dims: tuple) -> np.ndarray:
    """Row k is the product basis element k on ``dims``, flattened, as
    re, im pairs: one read-only ``(prod(d**2), 2 D**2)`` real array."""
    products = functools.reduce(
        lambda a, b: np.einsum("apq,brs->abprqs", a, b).reshape(
            len(a) * len(b), a.shape[1] * b.shape[1], -1),
        map(hermitian_basis, dims), np.ones((1, 1, 1), dtype=complex))
    out = np.ascontiguousarray(products).reshape(len(products), -1).view(float)
    out.flags.writeable = False
    return out


def _factor_by_factor(coeffs: np.ndarray, dims: tuple) -> np.ndarray:
    """:func:`coeffs_to_hermitian` through one einsum per factor: shape
    ``(..., D, D)`` once reshaped."""
    lead, n = coeffs.shape[:-1], len(dims)
    m = len(lead)
    t = coeffs.reshape(lead + tuple(d * d for d in dims))
    # axis labels: the stack, the factors' coefficient indices, then each
    # factor's row and column index, appended as the factor is converted
    stack, done = list(range(m)), []
    for i, d in enumerate(dims):
        k, p, q = m + i, m + n + 2 * i, m + n + 2 * i + 1
        t = np.einsum(t, stack + list(range(k, m + n)) + done, hermitian_basis(d), [k, p, q],
                      stack + list(range(k + 1, m + n)) + done + [p, q])
        done += [p, q]
    return t.transpose(stack + [m + 2 * i for i in range(n)] + [m + 2 * i + 1 for i in range(n)])


def coeffs_to_hermitian(coeffs: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`hermitian_to_coeffs`: shape ``(..., D, D)``.

    One factor: the one einsum of :func:`hermitian_to_coeffs`.  More
    factors: one product with the cached :func:`_basis_change` matrix
    where it has at most ``_CACHED_ENTRIES`` entries, else one product per
    factor, so memory stays O(sum d**4).  Each is an unoptimized einsum
    over C-ordered coefficients, summing in coefficient order, so each
    matrix of a stack converts bit for bit as it would alone.
    """
    dims = tuple(dims)
    lead = coeffs.shape[:-1]
    total = math.prod(dims)
    if len(dims) == 1:
        mats = np.einsum(_conversion_scripts(1)[1], coeffs.reshape(lead + (total * total,)),
                         hermitian_basis(total))
    elif total ** 4 <= _CACHED_ENTRIES:
        mats = np.einsum("...k,kj->...j", np.ascontiguousarray(coeffs, dtype=float),
                         _basis_change(dims)).view(complex)
    else:
        mats = _factor_by_factor(np.ascontiguousarray(coeffs, dtype=float), dims)
    return mats.reshape(lead + (total, total))


def hermitian_to_vector(m: np.ndarray) -> GptVector:
    """Expand a Hermitian matrix into its coefficient vector.

    The map is linear and invertible, and Euclidean inner products of
    images equal Hilbert-Schmidt inner products of the matrices.  The
    matrix must be Hermitian to ``EPS_HERM`` by :func:`not_hermitian`.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not_hermitian(m, EPS_HERM):
        raise ValueError("matrix is not Hermitian within tolerance")
    d = m.shape[0]
    return GptVector(system(Quantum(d)), hermitian_to_coeffs(m, (d,)))


def vector_to_hermitian(v: GptVector) -> np.ndarray:
    """Inverse of :func:`hermitian_to_vector`."""
    if len(v.atoms) != 1 or not isinstance(v.atoms[0], Quantum):
        raise ValueError(f"expected a single quantum atom, got {v.system}")
    return coeffs_to_hermitian(v.coeffs, (v.atoms[0].d,))


# ---------------------------------------------------------------------------
# Unit effects
# ---------------------------------------------------------------------------


def kron_all(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The Kronecker product of ``arrays``, taken left to right from the number 1."""
    return functools.reduce(np.kron, arrays, np.ones(()))


def _atomic_unit(atom: AtomicSystem) -> np.ndarray:
    u = np.zeros(atom.dim)
    if isinstance(atom, Quantum):
        u[0] = np.sqrt(atom.d)
    else:
        u[-1] = 1.0
    return u


def unit_effect(sys: SystemType) -> GptVector:
    """The normalization effect: evaluates to 1 on every normalized state.

    For a composite it is the Kronecker product of the atomic unit effects.
    """
    return GptVector(sys, kron_all([_atomic_unit(atom) for atom in sys.atoms]))


# ---------------------------------------------------------------------------
# Atomic cone membership
# ---------------------------------------------------------------------------


def _require_single_atom(v: GptVector) -> AtomicSystem:
    if len(v.atoms) != 1:
        raise ValueError(f"expected a single-atom system, got {v.system}")
    return v.atoms[0]


def atomic_state_check(v: GptVector, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Exact membership test for the positive cone of one atom.

    Quantum: the matrix must be positive semidefinite within ``tol``.
    Classical / box: the stored outcome weights must be nonnegative and
    each block must not exceed the normalization coordinate.  A rejection
    carries the effect that attains the margin: a ground-state projector,
    an outcome effect, a block's last-outcome effect or the unit effect.
    """
    atom = _require_single_atom(v)
    c = v.coeffs
    if isinstance(atom, Quantum):
        mat = vector_to_hermitian(v)
        vals, vecs = np.linalg.eigh(mat)
        margin = float(vals[0])
        if margin >= -tol:
            return MembershipVerdict(ACCEPTED, margin=margin)
        proj = np.outer(vecs[:, 0], vecs[:, 0].conj())
        return MembershipVerdict(
            REJECTED,
            margin=margin,
            witness=hermitian_to_vector(proj),
            detail=f"eigenvalue {margin:.6g} < 0",
        )
    # block i holds the first k - 1 outcome weights of measurement i; its k
    # outcome effects are ray_table(atom)[i * k:(i + 1) * k]
    box = isinstance(atom, Boxworld)
    n, k = _blocks(atom)
    last = float(c[-1])
    worst = last
    worst_detail = f"normalization coordinate {last:.6g}"
    worst_ray = None  # row of ray_table(atom); None for the unit effect
    for i in range(n):
        block = c[i * (k - 1):(i + 1) * (k - 1)]
        label = f"measurement {i}: " if box else ""
        if block.size:
            j = int(np.argmin(block))
            if block[j] < worst:
                worst = float(block[j])
                worst_detail = f"{label}outcome weight {block[j]:.6g}"
                worst_ray = i * k + j
        slack = last - float(np.sum(block))
        if slack < worst:
            worst = slack
            worst_detail = f"{label}weights exceed normalization by {-slack:.6g}"
            worst_ray = i * k + k - 1
    if worst >= -tol:
        return MembershipVerdict(ACCEPTED, margin=worst)
    witness = (unit_effect(v.system) if worst_ray is None
               else GptVector(v.system, ray_table(atom)[worst_ray]))
    return MembershipVerdict(REJECTED, margin=worst, witness=witness, detail=worst_detail)


def atomic_effect_check(e: GptVector, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Validity test for an effect on one atom: 0 <= <e, s> <= 1 on all states.

    Quantum effects are checked through their eigenvalues; classical and
    box effects are evaluated on the finitely many state-space vertices,
    which is exact.
    """
    atom = _require_single_atom(e)
    if isinstance(atom, Quantum):
        mat = vector_to_hermitian(e)
        vals, vecs = np.linalg.eigh(mat)
        margin = float(min(vals[0], 1.0 - vals[-1]))
        if margin >= -tol:
            return MembershipVerdict(ACCEPTED, margin=margin)
        idx = 0 if vals[0] < 1.0 - vals[-1] else -1
        proj = np.outer(vecs[:, idx], vecs[:, idx].conj())
        return MembershipVerdict(
            REJECTED,
            margin=margin,
            witness=hermitian_to_vector(proj),
            detail=f"eigenvalues span [{vals[0]:.6g}, {vals[-1]:.6g}]",
        )
    margin = np.inf
    for g, s in enumerate(vertex_table(atom)):
        val = float(np.dot(e.coeffs, s))
        slack = min(val, 1.0 - val)
        if slack < margin:
            margin, worst, worst_val = slack, g, val
    if margin >= -tol:
        return MembershipVerdict(ACCEPTED, margin=float(margin))
    return MembershipVerdict(REJECTED, margin=float(margin),
                             witness=GptVector(e.system, vertex_table(atom)[worst]),
                             detail=f"evaluates to {worst_val:.6g} on a vertex")


# ---------------------------------------------------------------------------
# Vertices and dual-cone rays for the polytopic atoms
# ---------------------------------------------------------------------------


def _blocks(atom: AtomicSystem) -> tuple:
    """(measurements, outcomes) of a polytopic atom: Classical(v) has the
    coordinates and the cone of Boxworld(1, v)."""
    if isinstance(atom, Quantum):
        raise ValueError("quantum atoms have a continuum of extreme states and dual rays")
    return (1, atom.v) if isinstance(atom, Classical) else (atom.n, atom.k)


@functools.lru_cache(maxsize=32)
def vertex_table(atom: AtomicSystem) -> np.ndarray:
    """The rows of :func:`state_vertices` as one read-only ``(G, D)`` array,
    built on first use.  Outcome j of a measurement is row j of eye(k, k - 1)
    in its block: an indicator, or zeros for the last outcome."""
    n, k = _blocks(atom)
    picks = np.array(list(itertools.product(range(k), repeat=n)), dtype=int).reshape(k ** n, n)
    out = np.hstack([np.eye(k, k - 1)[picks].reshape(k ** n, -1), np.ones((k ** n, 1))])
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def ray_table(atom: AtomicSystem) -> np.ndarray:
    """The rows of :func:`effect_cone_rays` as one read-only ``(G, D)`` array,
    built on first use.  Measurement i has rows i k to i k + k - 1: its
    k - 1 outcome indicators, then the last outcome, -1 on its block and 1
    in the normalization column."""
    n, k = _blocks(atom)
    if n == 0:
        out = np.ones((1, 1))
    else:
        out = np.zeros((n * k, n * (k - 1) + 1))
        block = np.vstack([np.eye(k - 1), -np.ones(k - 1)])
        for i in range(n):
            out[i * k:(i + 1) * k, i * (k - 1):(i + 1) * (k - 1)] = block
        out[k - 1::k, -1] = 1.0
    out.flags.writeable = False
    return out


def state_vertices(atom: AtomicSystem) -> list:
    """Extreme points of the normalized state space of a polytopic atom.

    Classical(v) yields the v deterministic distributions; Boxworld(n, k)
    yields the k^n deterministic outcome assignments, the first
    measurement's outcome varying slowest.  Quantum atoms have a continuum
    of extreme points and are rejected.
    """
    sys = system(atom)
    return [GptVector(sys, row) for row in vertex_table(atom)]


def effect_cone_rays(atom: AtomicSystem) -> list:
    """Extreme rays of the dual cone of a polytopic atom.

    These are exactly the outcome effects: for each measurement, the
    indicator of each stored outcome, plus "normalization minus the block
    sum" for the last outcome.  Every cone member evaluates nonnegatively
    on each ray, and the rays generate the full dual cone (the state cone
    is a cone over a product of simplices, whose facets are exactly these
    inequalities; verified against facet enumeration in the test suite).
    """
    sys = system(atom)
    return [GptVector(sys, row) for row in ray_table(atom)]


def classical_point(v: int, i: int) -> GptVector:
    """Deterministic state of Classical(v) with outcome ``i``."""
    if not 0 <= i < v:
        raise ValueError(f"outcome {i} out of range for {v} outcomes")
    return GptVector(system(Classical(v)), vertex_table(Classical(v))[i])


def classical_outcome_effect(v: int, i: int) -> GptVector:
    """Effect reading off the probability of outcome ``i`` of Classical(v)."""
    if not 0 <= i < v:
        raise ValueError(f"outcome {i} out of range for {v} outcomes")
    return GptVector(system(Classical(v)), ray_table(Classical(v))[i])


def boxworld_to_classical(v: GptVector) -> GptVector:
    """Identify a Boxworld(1, v) vector with the Classical(v) vector it equals."""
    atom = _require_single_atom(v)
    if not isinstance(atom, Boxworld) or atom.n != 1:
        raise ValueError(f"expected a single-measurement box system, got {v.system}")
    return GptVector(system(Classical(atom.k)), v.coeffs)

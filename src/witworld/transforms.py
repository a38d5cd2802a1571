"""Linear maps between systems: application, composition, and validity tests.

A transformation is a real matrix between the coefficient spaces of two
systems.  Positivity (mapping the domain cone into the codomain cone) is
decided by minimizing the bilinear form <codomain ray, T(domain
generator)> with the engine from :mod:`witworld.compose`; for quantum
systems the separate Choi-matrix test distinguishes maps that are
positive but not completely positive in quantum theory, which are
nevertheless valid here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .compose import (
    SearchConfig,
    composite_effect_check,
    composite_state_check,
    minimize_product_form,
    probe_states,
    product_generators_complete,
    tensor_all,
    _effect_side_specs,
    _product,
    _state_min,
    _state_side_specs,
    _verdict,
)
from .systems import (
    DEFAULT_TOL,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    atomic_effect_check,
    classical_point,
    hermitian_basis,
    hermitian_to_vector,
    pair,
    system,
    unit_effect,
    vector_to_hermitian,
)
from .verdict import ACCEPTED, INCONCLUSIVE_ACCEPT, REJECTED, MembershipVerdict

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False, slots=True)
class LinearMap:
    """Real matrix of shape dim(codomain) x dim(domain)."""

    domain: SystemType
    codomain: SystemType
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match "
                f"{self.codomain} x {self.domain} = ({self.codomain.dim}, {self.domain.dim})"
            )
        if not np.isfinite(m).all():
            raise ValueError("map matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __repr__(self):
        return f"LinearMap({self.domain} -> {self.codomain})"


def apply(t: LinearMap, v: GptVector) -> GptVector:
    if v.system != t.domain:
        raise ValueError(f"map expects {t.domain}, got {v.system}")
    return GptVector(t.codomain, t.matrix @ v.coeffs)


def compose_seq(t2: LinearMap, t1: LinearMap) -> LinearMap:
    """First apply t1, then t2."""
    if t1.codomain != t2.domain:
        raise ValueError(f"cannot compose: {t1.codomain} feeds {t2.domain}")
    return LinearMap(t1.domain, t2.codomain, t2.matrix @ t1.matrix)


def compose_par(t1: LinearMap, t2: LinearMap) -> LinearMap:
    """Side-by-side composition; domains and codomains concatenate."""
    return LinearMap(
        t1.domain * t2.domain,
        t1.codomain * t2.codomain,
        np.kron(t1.matrix, t2.matrix),
    )


def parallel(*ts: LinearMap) -> LinearMap:
    out = LinearMap(SystemType(), SystemType(), np.eye(1))
    for t in ts:
        out = compose_par(out, t)
    return out


def identity_map(sys: SystemType) -> LinearMap:
    return LinearMap(sys, sys, np.eye(sys.dim))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def map_from_matrix_action(action: Callable[[np.ndarray], np.ndarray],
                           d_in: int, d_out: int | None = None) -> LinearMap:
    """Linear map on quantum systems from its action on Hermitian matrices."""
    d_out = d_out if d_out is not None else d_in
    cols = [
        hermitian_to_vector(action(b), eps_herm=1e-8).coeffs
        for b in hermitian_basis(d_in)
    ]
    return LinearMap(system(Quantum(d_in)), system(Quantum(d_out)), np.column_stack(cols))


def transpose_map(d: int) -> LinearMap:
    return map_from_matrix_action(lambda m: m.T, d)


def unot_map(d: int = 2) -> LinearMap:
    """Universal NOT: rho -> tr(rho) I - rho (sends every pure state to an
    orthogonal one; the unique linear extension of that action)."""
    return map_from_matrix_action(lambda m: np.trace(m) * np.eye(d) - m, d)


def unitary_conjugation_map(u: np.ndarray) -> LinearMap:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square unitary")
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
        raise ValueError("matrix is not unitary")
    return map_from_matrix_action(lambda m: u @ m @ u.conj().T, u.shape[0])


def measurement_map(effects: Sequence[GptVector], tol: float = DEFAULT_TOL) -> LinearMap:
    """Map a system to the classical record of a measurement.

    ``effects`` lists the outcome effects; they must each be valid and sum
    to the unit effect.  The classical output stores <e_i, s> for the
    first v-1 outcomes and <u, s> in the normalization coordinate, so the
    map is trace preserving by construction.
    """
    v = len(effects)
    if v < 1:
        raise ValueError("a measurement needs at least one outcome")
    dom = effects[0].system
    for e in effects:
        if e.system != dom:
            raise ValueError("all outcome effects must share one system")
        check = (atomic_effect_check(e, tol) if len(dom) == 1
                 else composite_effect_check(e, cfg=SearchConfig(tol=tol)))
        if not check.passed:
            raise ValueError(f"invalid outcome effect: {check.describe()}")
    total = np.sum([e.coeffs for e in effects], axis=0)
    if np.max(np.abs(total - unit_effect(dom).coeffs)) > tol:
        raise ValueError("outcome effects do not sum to the unit effect")
    rows = [effects[i].coeffs for i in range(v - 1)]
    rows.append(unit_effect(dom).coeffs)
    return LinearMap(dom, system(Classical(v)), np.vstack(rows))


def preparation_map(states: Sequence[GptVector], tol: float = DEFAULT_TOL) -> LinearMap:
    """Map a classical value b to the prepared state ``states[b]``."""
    v = len(states)
    if v < 1:
        raise ValueError("a preparation needs at least one state")
    cod = states[0].system
    for s in states:
        if s.system != cod:
            raise ValueError("all prepared states must share one system")
        check = composite_state_check(s, SearchConfig(tol=tol))
        if not check.passed:
            raise ValueError(f"invalid prepared state: {check.describe()}")
        if abs(pair(unit_effect(cod), s) - 1.0) > tol:
            raise ValueError("prepared states must be normalized")
    cols = [states[b].coeffs - states[-1].coeffs for b in range(v - 1)]
    cols.append(states[-1].coeffs)
    return LinearMap(system(Classical(v)), cod, np.column_stack(cols))


def controlled_map(family: Sequence[LinearMap]) -> LinearMap:
    """Implement ``family[x]`` conditioned on a classical input x.

    On a classical point state x tensored with a, the result is
    ``family[x](a)``.  Classical coordinates store the first v-1 outcome
    weights plus normalization, so the block for the last deterministic
    value is carried by the normalization column and the explicit blocks
    hold differences against it.
    """
    v = len(family)
    if v < 1:
        raise ValueError("need at least one controlled branch")
    dom = family[0].domain
    cod = family[0].codomain
    for t in family:
        if t.domain != dom or t.codomain != cod:
            raise ValueError("all branches must share domain and codomain")
    blocks = [family[x].matrix - family[-1].matrix for x in range(v - 1)]
    blocks.append(family[-1].matrix)
    return LinearMap(system(Classical(v)) * dom, cod, np.hstack(blocks))


def copy_map(v: int) -> LinearMap:
    """Classical copy: point(i) goes to point(i) x point(i)."""
    points = [classical_point(v, i) for i in range(v)]
    pairs = [tensor_all([p, p]).coeffs for p in points]
    cols = [pairs[i] - pairs[-1] for i in range(v - 1)]
    cols.append(pairs[-1])
    return LinearMap(
        system(Classical(v)), system(Classical(v), Classical(v)), np.column_stack(cols)
    )


def partial_apply_classical(t: LinearMap, x: int) -> LinearMap:
    """Plug the classical point state x into the first atom of the domain."""
    atoms = t.domain.atoms
    if not atoms or not isinstance(atoms[0], Classical):
        raise ValueError(f"domain of {t!r} does not start with a classical atom")
    rest = SystemType(atoms[1:])
    point = classical_point(atoms[0].v, x)
    embed = np.kron(point.coeffs.reshape(-1, 1), np.eye(rest.dim))
    return LinearMap(rest, t.codomain, t.matrix @ embed)


# ---------------------------------------------------------------------------
# Validity tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PositivityViolation:
    """Input state and codomain effect exhibiting a positivity failure."""

    input_state: GptVector
    output_effect: GptVector
    value: float


def positivity_check(t: LinearMap, cfg: SearchConfig | None = None) -> MembershipVerdict:
    """Does ``t`` map the domain cone into the codomain cone?

    Decided by minimizing <r, t(g)> over codomain dual generators r and
    domain cone generators g.  Products of atomic generators are covered
    by the engine; registered non-product extreme states of composite
    domains are checked explicitly.  Conclusive whenever both generator
    descriptions are complete and the quantum search is in its exact
    regime.  A rejection carries a :class:`PositivityViolation`.
    """
    cfg = cfg or SearchConfig()
    cod, dom = t.codomain.atoms, t.domain.atoms
    specs = _effect_side_specs(cod) + _state_side_specs(dom)
    res = minimize_product_form(t.matrix.reshape(-1), specs, cfg)
    n = len(cod)
    margin, violation = res.value, lambda: PositivityViolation(
        _product(dom, res.factors[n:]), _product(cod, res.factors[:n]), res.value)
    conclusive = res.conclusive and product_generators_complete(t.domain)
    for probe in probe_states(t.domain):
        check = composite_state_check(apply(t, probe), cfg)
        conclusive = conclusive and check.status != INCONCLUSIVE_ACCEPT
        if check.margin < margin:
            margin, violation = check.margin, (
                lambda p=probe, c=check: PositivityViolation(p, c.witness, c.margin))
    return _verdict(margin, conclusive, cfg.tol, lambda: (
        violation(), f"maps a cone generator outside the codomain cone ({margin:.6g})"))


def apply_to_matrix(t: LinearMap, m: np.ndarray) -> np.ndarray:
    """Apply a quantum-to-quantum map to an arbitrary (complex) matrix."""
    m = np.asarray(m, dtype=complex)
    h1 = (m + m.conj().T) / 2
    h2 = (m - m.conj().T) / 2j
    out1 = vector_to_hermitian(apply(t, hermitian_to_vector(h1)))
    out2 = vector_to_hermitian(apply(t, hermitian_to_vector(h2)))
    return out1 + 1j * out2


def choi_matrix(t: LinearMap) -> np.ndarray:
    """The block matrix with (i, j) block T(|i><j|)."""
    if (
        len(t.domain.atoms) != 1 or not isinstance(t.domain.atoms[0], Quantum)
        or len(t.codomain.atoms) != 1 or not isinstance(t.codomain.atoms[0], Quantum)
    ):
        raise ValueError("Choi matrix requires single quantum domain and codomain")
    d = t.domain.atoms[0].d
    dp = t.codomain.atoms[0].d
    choi = np.zeros((d * dp, d * dp), dtype=complex)
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            choi += np.kron(eij, apply_to_matrix(t, eij))
    return choi


def quantum_cp_check(t: LinearMap, tol: float = DEFAULT_TOL):
    """Quantum-theory complete positivity via the Choi matrix.

    Returns (verdict, minimum Choi eigenvalue).  This is the standard
    quantum notion, used for contrast: here positivity alone already
    makes a map valid, so maps rejected by this test can still pass
    :func:`positivity_check`.
    """
    choi = choi_matrix(t)
    vals = np.linalg.eigvalsh(choi)
    min_eig = float(vals[0])
    status = ACCEPTED if min_eig >= -tol else REJECTED
    return MembershipVerdict(status, margin=min_eig,
                             detail=f"min Choi eigenvalue {min_eig:.6g}"), min_eig


def trace_condition_check(t: LinearMap, mode: str,
                          cfg: SearchConfig | None = None) -> MembershipVerdict:
    """Check ``u(T(s)) = u(s)`` (preserving) or ``<=`` (non-increasing).

    The preserving case is a linear identity, checked exactly.  The
    non-increasing case asks that the deficit ``u - T^T u`` be nonnegative
    on the domain cone.  On Q2*Q2, Q2*Q3 and Q3*Q2 domains that is exact:
    the deficit and its partial transpose must be PSD.  Elsewhere the
    deficit is minimized over the domain cone generators.
    """
    cfg = cfg or SearchConfig()
    u_dom = unit_effect(t.domain).coeffs
    u_cod = unit_effect(t.codomain).coeffs
    if mode == "preserving":
        residual = t.matrix.T @ u_cod - u_dom
        err = float(np.max(np.abs(residual))) if residual.size else 0.0
        status = ACCEPTED if err <= cfg.tol else REJECTED
        return MembershipVerdict(status, margin=-err,
                                 detail=f"max |u(T(s)) - u(s)| deviation {err:.3g} on a basis")
    if mode != "non-increasing":
        raise ValueError(f"unknown mode {mode!r}; use 'preserving' or 'non-increasing'")
    deficit = GptVector(t.domain, u_dom - t.matrix.T @ u_cod)
    margin, conclusive, state = _state_min(deficit, cfg)
    return _verdict(margin, conclusive, cfg.tol, lambda: (
        state(), f"trace increases by {-margin:.6g} on a state"))


# ---------------------------------------------------------------------------
# Named built-ins
# ---------------------------------------------------------------------------


def _pauli_measurement(sigma: np.ndarray) -> LinearMap:
    effects = [
        hermitian_to_vector((np.eye(2) + sign * sigma) / 2) for sign in (1.0, -1.0)
    ]
    return measurement_map(effects)


def computational_measurement(d: int = 2) -> LinearMap:
    effects = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        effects.append(hermitian_to_vector(m))
    return measurement_map(effects)


def computational_preparation(d: int = 2) -> LinearMap:
    states = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        states.append(hermitian_to_vector(m))
    return preparation_map(states)


def builtin_map(name: str) -> LinearMap:
    """Resolve a named built-in map, e.g. ``transpose2``, ``unot2``, ``copy2``."""
    m = re.fullmatch(r"(transpose|unot|copy|meas-comp|prep-comp)(\d+)", name)
    if m:
        kind, num = m.group(1), int(m.group(2))
        if kind == "transpose":
            return transpose_map(num)
        if kind == "unot":
            return unot_map(num)
        if kind == "copy":
            return copy_map(num)
        if kind == "meas-comp":
            return computational_measurement(num)
        return computational_preparation(num)
    if name == "pauli-meas":
        return controlled_map(
            [_pauli_measurement(s) for s in (PAULI_X, PAULI_Y, PAULI_Z)]
        )
    if name == "cunot2":
        return controlled_map([identity_map(system(Quantum(2))), unot_map(2)])
    if name == "ctranspose2":
        return controlled_map([identity_map(system(Quantum(2))), transpose_map(2)])
    raise KeyError(f"unknown built-in map {name!r}")


BUILTIN_MAP_NAMES = (
    "transpose<d>", "unot<d>", "copy<v>", "meas-comp<d>", "prep-comp<d>",
    "pauli-meas", "cunot2", "ctranspose2",
)

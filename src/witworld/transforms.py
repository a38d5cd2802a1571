"""Linear maps between systems: application, composition, and validity tests.

A transformation is a real matrix between the coefficient spaces of two
systems.  Positivity (mapping the domain cone into the codomain cone) and
the trace conditions are forms minimized on the one verdict path of
:mod:`witworld.compose`, which alone decides which method settles which
shape; this module only builds the forms and their witnesses.  For
quantum systems the separate Choi-matrix test distinguishes maps that
are positive but not completely positive in quantum theory, which are
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
    default_config,
    plan,
    tensor_all,
    unit_tol,
    _checked_tol,
    _form_verdict,
)
from .systems import (
    DEFAULT_TOL,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    atomic_state_check,
    classical_point,
    hermitian_basis,
    hermitian_to_coeffs,
    hermitian_to_vector,
    kron_all,
    not_hermitian,
    pair,
    system,
    unit_effect,
    vector_to_hermitian,
)
from .verdict import ACCEPTED, REJECTED, MembershipVerdict

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
    """``t(v)``, with rounding noise where an exact zero may be meant set to 0
    (:func:`_apply_matrix`)."""
    if v.system != t.domain:
        raise ValueError(f"map expects {t.domain}, got {v.system}")
    return GptVector(t.codomain, _apply_matrix(t.matrix, v.coeffs))


def _apply_matrix(matrix: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``matrix @ coeffs`` with every entry that is rounding noise made 0.

    An entry of the product no larger than its rounding-error bound,
    ``n eps (|T| |v|)_i`` for ``n`` terms, carries no digit of the true
    value, so it is made exactly 0.  Membership checks judge a vector at
    its own size; without this, a generator that a positive map sends to
    zero would come out as a few entries near -1e-17 and be rejected.
    """
    out = matrix @ coeffs
    bound = np.abs(matrix) @ np.abs(coeffs)
    noise = np.abs(out) <= coeffs.size * np.finfo(float).eps * bound
    out[noise & np.isfinite(bound)] = 0.0
    return out


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
    """Side-by-side composition of any number of maps; none is the scalar identity."""
    dom, cod = SystemType(), SystemType()
    for t in ts:
        dom, cod = dom * t.domain, cod * t.codomain
    return LinearMap(dom, cod, kron_all([t.matrix for t in ts]).reshape(cod.dim, dom.dim))


def identity_map(sys: SystemType) -> LinearMap:
    return LinearMap(sys, sys, np.eye(sys.dim))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def map_from_matrix_action(action: Callable[[np.ndarray], np.ndarray],
                           d_in: int, d_out: int | None = None) -> LinearMap:
    """Linear map on quantum systems from its action on Hermitian matrices.

    The basis images, each Hermitian to 1e-8 by :func:`not_hermitian`, convert
    as one stack, each bit for bit as alone (:func:`hermitian_to_coeffs`).
    """
    d_out = d_out if d_out is not None else d_in
    imgs = np.asarray([action(b) for b in hermitian_basis(d_in)], dtype=complex)
    if imgs.ndim != 3 or imgs.shape[1] != imgs.shape[2]:
        raise ValueError(f"expected square images, got shape {imgs.shape[1:]}")
    if not_hermitian(imgs, 1e-8).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    return LinearMap(system(Quantum(d_in)), system(Quantum(d_out)),
                     hermitian_to_coeffs(imgs, (imgs.shape[1],)).T)


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
    map is trace preserving by construction.  Each effect is checked at
    ``tol``, and ``WITWORLD_SEED`` is read only if that check searches.
    """
    v = len(effects)
    if v < 1:
        raise ValueError("a measurement needs at least one outcome")
    dom = effects[0].system
    for e in effects:
        if e.system != dom:
            raise ValueError("all outcome effects must share one system")
        check = composite_effect_check(e, tol=_checked_tol(tol))
        if not check.passed:
            raise ValueError(f"invalid outcome effect: {check.describe()}")
    total = np.sum([e.coeffs for e in effects], axis=0)
    if np.max(np.abs(total - unit_effect(dom).coeffs)) > tol:
        raise ValueError("outcome effects do not sum to the unit effect")
    rows = [effects[i].coeffs for i in range(v - 1)]
    rows.append(unit_effect(dom).coeffs)
    return LinearMap(dom, system(Classical(v)), np.vstack(rows))


def preparation_map(states: Sequence[GptVector], tol: float = DEFAULT_TOL) -> LinearMap:
    """Map a classical value b to the prepared state ``states[b]``, each checked at ``tol``;
    only a composite state's check builds a :class:`SearchConfig` (reading ``WITWORLD_SEED``)."""
    v = len(states)
    if v < 1:
        raise ValueError("a preparation needs at least one state")
    cod = states[0].system
    cfg = SearchConfig(tol=tol) if len(cod) > 1 else None
    for s in states:
        if s.system != cod:
            raise ValueError("all prepared states must share one system")
        check = (composite_state_check(s, cfg) if cfg
                 else atomic_state_check(s, unit_tol(_checked_tol(tol), s.coeffs)))
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
    rest, matrix = _classical_slice(t, x)
    return LinearMap(rest, t.codomain, matrix)


def _classical_slice(t: LinearMap, x: int) -> tuple:
    """The remaining domain and the matrix of :func:`partial_apply_classical`:
    ``t``'s matrix times the embedding of classical point ``x`` beside the
    identity on the rest of the domain."""
    atoms = t.domain.atoms
    if not atoms or not isinstance(atoms[0], Classical):
        raise ValueError(f"domain of {t!r} does not start with a classical atom")
    rest = SystemType(atoms[1:])
    point = classical_point(atoms[0].v, x)
    embed = np.kron(point.coeffs.reshape(-1, 1), np.eye(rest.dim))
    return rest, t.matrix @ embed


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

    The minimum of <r, t(g)> over codomain effect generators r and domain
    generators g, by the "positivity" :func:`witworld.compose.plan`; the
    domain's probe states count through :func:`composite_state_check` of
    their images, and replace the engine's witness only when strictly
    lower.  A rejection carries a :class:`PositivityViolation`.  The
    tolerance is ``cfg.tol``, or ``DEFAULT_TOL`` without a configuration,
    at the unit size of the map's matrix (:func:`witworld.compose.unit_tol`).
    Without one, :func:`witworld.compose.default_config` (and so
    ``WITWORLD_SEED``) is read only where the engine or the probes run.
    """
    tol = DEFAULT_TOL if cfg is None else cfg.tol

    def probe(p):
        check = composite_state_check(apply(t, p), cfg or default_config())
        return check.margin, check.witness

    steps = plan("positivity", t.codomain.atoms, t.domain.atoms)
    return _form_verdict(t.matrix.reshape(-1), steps, cfg, unit_tol(tol, t.matrix),
                         lambda effect, state, value: PositivityViolation(state, effect, value),
                         why=_OUTSIDE_CODOMAIN, probe=probe)


# the detail of every positivity rejection; the margin carries the number
_OUTSIDE_CODOMAIN = "maps a cone generator outside the codomain cone by the margin"


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

    Both are conditions on normalized states s.  A map with ``T^T u = u``
    exactly meets both, with margin 0 and no search.  Otherwise one run of
    the "trace" :func:`witworld.compose.plan` decides, and a rejection
    carries the state attaining the margin.  Preserving asks that ``r =
    T^T u - u`` vanish: its margin is the lowest of <r, s> and <-r, s>,
    ties to the r side, and it is conclusive where the plan is exact or
    every coefficient of r is within tol.  Non-increasing asks that the
    deficit ``u - T^T u`` be nonnegative.  The tolerance is ``cfg.tol``,
    or ``DEFAULT_TOL`` without a configuration; without one,
    :func:`witworld.compose.default_config` (and so ``WITWORLD_SEED``) is
    read only where the engine runs.
    """
    if mode not in ("preserving", "non-increasing"):
        raise ValueError(f"unknown mode {mode!r}; use 'preserving' or 'non-increasing'")
    tol = DEFAULT_TOL if cfg is None else cfg.tol
    u_dom = unit_effect(t.domain).coeffs
    tu = t.matrix.T @ unit_effect(t.codomain).coeffs
    residual = tu - u_dom
    if not residual.any():
        return MembershipVerdict(ACCEPTED, margin=0.0, detail="u(T(s)) = u(s) identically"
                                 if mode == "preserving" else "")
    steps = plan("trace", (), t.domain.atoms)
    if mode == "preserving":
        # within tol on a basis the identity holds, whatever a search found
        return _form_verdict(residual, steps, cfg, tol, lambda effect, state, value: state,
                             lambda m: f"max |u(T(s)) - u(s)| found {-m:.3g}",
                             lambda m: f"changes the trace by {-m:.6g} on a state",
                             offset=0.0, form_first=True,
                             settled=float(np.max(np.abs(residual))) <= tol)
    return _form_verdict(u_dom - tu, steps, cfg, tol, lambda effect, state, value: state,
                         why=lambda m: f"trace increases by {-m:.6g} on a state")


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

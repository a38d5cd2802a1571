"""Steering assemblages: data model, no-signalling checks, LHS feasibility.

An assemblage collects the subnormalized quantum states of the passive
party, indexed by the black-box parties' outcomes and settings (plus the
passive party's own input in the Bob-with-input scenario, or with that
input wired to the outcome in the instrumental scenario).  Constructors
are provided both for assemblages realized by measuring a shared
composite state and for the specific post-quantum examples built from PR
states, entangled quantum states, and the controlled transpose.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .compose import (
    SearchConfig,
    composite_state_check,
    default_config,
    hermitian_tensor_to_vector,
    pr_state,
    tensor_all,
    unit_exponent,
)
from .lp import solve_feasibility
from .systems import (
    Boxworld,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    atomic_state_check,
    classical_outcome_effect,
    coeffs_to_hermitian,
    effect_cone_rays,
    hermitian_to_coeffs,
    hermitian_to_vector,
    kron_all,
    system,
    unit_effect,
)
from .transforms import (
    LinearMap,
    _pauli_measurement,
    _apply_matrix,
    _classical_slice,
    compose_seq,
    controlled_map,
    identity_map,
    measurement_map,
    preparation_map,
    transpose_map,
    trace_condition_check,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)
from .verdict import ACCEPTED, REJECTED, UNSUPPORTED, MembershipVerdict

BIPARTITE = "bipartite"
MULTIPARTITE = "multipartite"
BOB_WITH_INPUT = "bob-with-input"
INSTRUMENTAL = "instrumental"

_SCENARIOS = (BIPARTITE, MULTIPARTITE, BOB_WITH_INPUT, INSTRUMENTAL)

ELEMENT_PSD_TOL = 1e-8


@dataclass(frozen=True, eq=False, init=False)
class Assemblage:
    """Indexed family of subnormalized quantum states.

    Element keys by scenario:

    * bipartite / instrumental: ``(a, x)``
    * multipartite: ``(a_tuple, x_tuple)``
    * bob-with-input: ``(a, x, y)``

    ``coeffs``, the only element store, holds every element's coefficients in
    one read-only array indexed ``(*outcomes, *settings[, y], d**2)``;
    ``keys`` keeps the order the keys came in.  The constructor converts
    ``{key: GptVector}`` to the rows :meth:`from_rows` takes, and both
    validate once, on the array.  ``elements`` builds every vector from
    ``coeffs`` on first read; ``element()`` and ``matrix()`` read one row.
    """

    scenario: str
    outcomes: tuple
    settings: tuple
    coeffs: np.ndarray = field(repr=False)
    keys: tuple = field(repr=False)
    bob_inputs: int | None = None

    def __init__(self, scenario, outcomes, settings, elements: dict, bob_inputs=None):
        self._set(scenario, outcomes, settings, list(elements), _element_rows(elements),
                  bob_inputs)

    @classmethod
    def from_rows(cls, scenario, outcomes, settings, keys, rows, bob_inputs=None) -> Assemblage:
        """The assemblage with coefficients ``rows[i]``, over ``Q<d>`` for rows of
        ``d**2``, at ``keys[i]``."""
        asm = cls.__new__(cls)
        asm._set(scenario, outcomes, settings, list(keys), rows, bob_inputs)
        return asm

    def _set(self, scenario, outcomes, settings, keys, rows, bob_inputs):
        vars(self).update(scenario=scenario, outcomes=tuple(outcomes), settings=tuple(settings),
                          bob_inputs=bob_inputs)
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario == BOB_WITH_INPUT and not self.bob_inputs:
            raise ValueError("bob-with-input assemblages need bob_inputs")
        if self.scenario != BOB_WITH_INPUT and self.bob_inputs is not None:
            raise ValueError(f"{self.scenario} assemblages take no bob_inputs")
        parties = len(self.outcomes)
        if parties != len(self.settings) or parties < 1 or (
                self.scenario != MULTIPARTITE and parties != 1):
            raise ValueError(
                f"{self.scenario} assemblage with outcomes {self.outcomes} and settings "
                f"{self.settings}: need one count of each per black-box party"
            )
        counts = self.outcomes + self.settings
        if self.bob_inputs is not None:
            counts += (self.bob_inputs,)
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 1
                   for c in counts):
            raise ValueError(f"outcome, setting and input counts must be positive integers, "
                             f"got {counts}")
        grid = list(itertools.product(*map(range, counts)))  # every key, in grid order
        if self.scenario == MULTIPARTITE:
            grid = [(k[:parties], k[parties:]) for k in grid]
        # the grid position of each key, in key order
        flat = list(map(dict(zip(grid, range(len(grid)))).get, keys))
        if len(keys) != len(grid) or None in flat or len(set(flat)) != len(flat):
            expected, got = set(grid), set(keys)
            raise ValueError(f"incomplete element index: missing {sorted(expected - got)[:3]}, "
                             f"extra {sorted(got - expected)[:3]}")
        rows = np.asarray(rows, dtype=float)
        d = math.isqrt(rows.shape[-1])
        if rows.shape != (len(keys), d * d) or not np.isfinite(rows).all():
            raise ValueError(f"need one finite row of d**2 coefficients per key, got {rows.shape}")
        coeffs = np.empty((len(flat), d * d))
        coeffs[flat] = rows
        failing = np.flatnonzero(_lowest_eigenvalues(coeffs, d)[flat] < -ELEMENT_PSD_TOL)
        if failing.size:
            i = failing[0]
            check = atomic_state_check(GptVector(system(Quantum(d)), rows[i]), ELEMENT_PSD_TOL)
            raise ValueError(f"element {keys[i]} is not positive: {check.describe()}")
        coeffs = coeffs.reshape(counts + (-1,))
        coeffs.flags.writeable = False
        vars(self).update(coeffs=coeffs, keys=tuple(keys))

    @property
    def d(self) -> int:
        return math.isqrt(self.coeffs.shape[-1])

    @functools.cached_property
    def _index(self) -> dict:
        """``{key: index of its row in coeffs}`` in key order; a key off the grid is missing."""
        multi = self.scenario == MULTIPARTITE
        return {k: k[0] + k[1] if multi else k for k in self.keys}

    @functools.cached_property
    def elements(self) -> dict:
        """``{key: GptVector}`` in key order, built from ``coeffs`` on first read."""
        return {k: self.element(k) for k in self.keys}

    def element(self, *key) -> GptVector:
        """The element at ``key``, built from its row alone; ``KeyError`` off the grid."""
        return GptVector(system(Quantum(self.d)),
                         self.coeffs[self._index[key if len(key) > 1 else key[0]]])

    def matrix(self, *key) -> np.ndarray:
        """:meth:`element` as a matrix, read from its row alone."""
        return coeffs_to_hermitian(self.coeffs[self._index[key if len(key) > 1 else key[0]]],
                                   (self.d,))

    def key_at(self, index) -> tuple:
        """The element key at a grid index of :attr:`coeffs`."""
        index = tuple(int(i) for i in index)
        if self.scenario == MULTIPARTITE:
            return index[:len(self.outcomes)], index[len(self.outcomes):]
        return index

    def as_parties(self):
        """Normalize to per-party tuples: keys (a_tuple, x_tuple)."""
        if self.scenario == MULTIPARTITE:
            return self.outcomes, self.settings, dict(self.elements)
        if self.scenario in (BIPARTITE, INSTRUMENTAL):
            els = {((a,), (x,)): v for (a, x), v in self.elements.items()}
            return (self.outcomes[0],), (self.settings[0],), els
        raise ValueError(f"cannot flatten a {self.scenario} assemblage to parties")


def _element_rows(elements: dict) -> np.ndarray:
    """The coefficients of ``{key: GptVector}`` in dict order, all on one quantum atom."""
    for key, el in elements.items():
        if len(el.atoms) != 1 or not isinstance(el.atoms[0], Quantum):
            raise ValueError(f"element {key} is not over a single quantum atom")
    if len({el.system for el in elements.values()}) > 1:
        raise ValueError("elements live on different systems")
    return np.array([el.coeffs for el in elements.values()])


def _lowest_eigenvalues(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Lowest eigenvalue of each element of a coefficient array ``(..., d**2)``.

    One batched ``eigh`` (not ``eigvalsh``): each value has the bits of the
    margin :func:`atomic_state_check` reports.
    """
    return np.linalg.eigh(coeffs_to_hermitian(coeffs, (d,)))[0][..., 0]


# ---------------------------------------------------------------------------
# No-signalling check
# ---------------------------------------------------------------------------


def ns_check(asm: Assemblage, tol: float = 1e-9) -> MembershipVerdict:
    """Is a bipartite, multipartite or Bob-with-input assemblage no-signalling?

    Four conditions, each failing when its deviation exceeds ``tol``:

    * every element is positive (deviation: minus the lowest eigenvalue);
    * for each proper subset of the black-box parties, including none, the
      sum over the other parties' outcomes does not depend on their
      settings (deviation: the largest spread, max - min, over those
      settings); Bob's input is a spectator;
    * with Bob's input, no element's trace depends on it (the same spread);
    * the sum over all outcomes has unit trace at every setting and input
      (the detail gives the trace furthest from 1 with all its digits).

    The margin is the lowest eigenvalue or the largest deviation negated,
    whichever is lower.  Instrumental assemblages are checked through the
    assemblage they were wired from.
    """
    if asm.scenario == INSTRUMENTAL:
        raise ValueError("instrumental assemblages are validated through their wiring")
    arr, n = asm.coeffs, len(asm.outcomes)
    lowest = _lowest_eigenvalues(arr, asm.d)
    worst = np.unravel_index(np.argmin(lowest), lowest.shape)
    margin = float(lowest[worst])
    failures = [f"element {asm.key_at(worst)} not positive ({margin:.3g})"] if margin < -tol else []
    spreads = []  # (deviation, what it means)
    for kept in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n)
    ):
        dropped = tuple(i for i in range(n) if i not in kept)
        dev = _spread(arr.sum(axis=dropped), tuple(len(kept) + i for i in dropped))
        spreads.append((dev, f"marginal over parties {kept} depends on their settings"
                        if kept else "outcome totals depend on the settings"))
    unit = unit_effect(system(Quantum(asm.d))).coeffs
    outcome_axes = tuple(range(n))
    if asm.scenario == BOB_WITH_INPUT:
        traces = arr @ unit
        spreads.append((_spread(traces, -1), "outcome probabilities depend on Bob's input"))
        # the element traces are summed; the other scenarios take the trace
        # of the summed element (the two can differ in the last bit)
        totals = traces.sum(axis=outcome_axes)
    else:
        totals = arr.sum(axis=outcome_axes) @ unit
    for dev, what in spreads:
        margin = min(margin, -dev)
        if dev > tol:
            failures.append(f"{what} (dev {dev:.3g})")
    trace = float(totals.flat[np.argmax(np.abs(totals - 1.0))])
    norm_err = abs(trace - 1.0)
    margin = min(margin, -norm_err)
    if norm_err > tol:
        failures.append(f"reduced state has trace {trace!r}")
    if failures:
        return MembershipVerdict(REJECTED, margin=margin, detail="; ".join(failures))
    return MembershipVerdict(ACCEPTED, margin=margin)


def _spread(values: np.ndarray, axes) -> float:
    """The largest spread, max - min, of ``values`` along ``axes``."""
    return float(np.max(values.max(axis=axes) - values.min(axis=axes)))


def wire_instrumental(bwi: Assemblage, tol: float = 1e-9) -> Assemblage:
    """Feed the black-box outcome back as the passive party's input (y = a)."""
    if bwi.scenario != BOB_WITH_INPUT:
        raise ValueError(f"expected a bob-with-input assemblage, got {bwi.scenario}")
    if bwi.bob_inputs != bwi.outcomes[0]:
        raise ValueError(
            f"wiring needs matching cardinalities, got outcomes {bwi.outcomes[0]} "
            f"and inputs {bwi.bob_inputs}"
        )
    check = ns_check(bwi, tol)
    if not check.passed:
        raise ValueError(f"assemblage is signalling: {check.detail}")
    a = np.arange(bwi.outcomes[0])
    keys = [(int(i), x) for i in a for x in range(bwi.settings[0])]
    wired = bwi.coeffs[a, :, a]  # (a, x, d**2): the elements with y = a
    return Assemblage.from_rows(INSTRUMENTAL, bwi.outcomes, bwi.settings, keys,
                                wired.reshape(len(keys), -1))


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


def assemblage_from_realization(
    shared: GptVector,
    measurements: Sequence[LinearMap],
    bob_transform: LinearMap | None = None,
    bob_input: int | None = None,
    cfg: SearchConfig | None = None,
    validate: bool = True,
) -> Assemblage:
    """Measure a shared composite state and collect the steered states.

    ``measurements[i]`` is a controlled measurement (classical setting
    atom first, then the party's share) producing that party's classical
    outcome.  ``bob_transform`` maps the remaining share to a quantum
    system; in the Bob-with-input scenario (``bob_input`` set) it takes
    an extra leading classical input atom.  ``validate=False`` skips the
    composite membership check of ``shared``, for a caller that has made it.
    A measurement object passed for several parties is checked once.

    Each party's measurement matrix with its setting plugged in, the
    passive party's map per input, and the effect of each outcome vector
    are built once.  Per setting vector (and input) the maps are combined
    by one Kronecker chain and applied to ``shared`` with :func:`apply`'s
    noise rule; each element is then that output contracted with one
    outcome effect.  These are the products, in the same order, of
    per-element :func:`partial_apply_classical`, :func:`parallel`,
    :func:`apply` and :func:`steer` calls, so every element has their bits.
    """
    cfg = cfg or default_config()
    n = len(measurements)
    if n < 1:
        raise ValueError("need at least one black-box party")
    if len(shared.atoms) < n:
        raise ValueError("shared state has fewer factors than parties")
    settings, outcomes = [], []
    for i, meas in enumerate(measurements):
        atoms = meas.domain.atoms
        if len(atoms) < 2 or not isinstance(atoms[0], Classical):
            raise ValueError(f"measurement {i} is not setting-controlled")
        if atoms[1:] != (shared.atoms[i],):
            raise ValueError(
                f"measurement {i} acts on {SystemType(atoms[1:])}, share is {shared.atoms[i]}"
            )
        cod = meas.codomain.atoms
        if len(cod) != 1 or not isinstance(cod[0], Classical):
            raise ValueError(f"measurement {i} must output a classical outcome")
        if meas not in measurements[:i] and not trace_condition_check(
                meas, "preserving", cfg).accepted:
            raise ValueError(f"measurement {i} is not normalized")
        settings.append(atoms[0].v)
        outcomes.append(cod[0].v)
    bob_sys = SystemType(shared.atoms[n:])
    if bob_transform is None:
        bob_transform = identity_map(bob_sys)
    expected_dom = (
        system(Classical(bob_input)) * bob_sys if bob_input is not None else bob_sys
    )
    if bob_transform.domain != expected_dom:
        raise ValueError(
            f"transform domain {bob_transform.domain} does not match {expected_dom}"
        )
    bob_cod = bob_transform.codomain
    if len(bob_cod.atoms) != 1 or not isinstance(bob_cod.atoms[0], Quantum):
        raise ValueError("the passive party must end up with a single quantum system")
    if validate:
        check = composite_state_check(shared, cfg)
        if not check.passed:
            raise ValueError(f"shared state is outside the composite cone: {check.describe()}")

    slices = [[_classical_slice(meas, x)[1] for x in range(s)]
              for meas, s in zip(measurements, settings)]
    party_effects = [[classical_outcome_effect(o, a).coeffs for a in range(o)] for o in outcomes]
    a_vecs = list(itertools.product(*(range(o) for o in outcomes)))
    effects = [kron_all([party_effects[i][a] for i, a in enumerate(a_vec)]).reshape(outcomes)
               for a_vec in a_vecs]
    axes = list(range(n))

    def steered(x_vec, bob_matrix):
        mat = kron_all([slices[i][x] for i, x in enumerate(x_vec)] + [bob_matrix])
        out = _apply_matrix(mat, shared.coeffs).reshape(tuple(outcomes) + (-1,))
        return [np.tensordot(out, e, axes=(axes, axes)) for e in effects]

    keys, rows = [], []
    if bob_input is not None:
        if n != 1:
            raise ValueError("bob-with-input realizations support one black-box party")
        bob_slices = [_classical_slice(bob_transform, y)[1] for y in range(bob_input)]
        for x in range(settings[0]):
            for y in range(bob_input):
                rows += steered((x,), bob_slices[y])
                keys += [(a_vec[0], x, y) for a_vec in a_vecs]
        return Assemblage.from_rows(BOB_WITH_INPUT, outcomes, settings, keys, rows,
                                    bob_inputs=bob_input)
    for x_vec in itertools.product(*(range(s) for s in settings)):
        rows += steered(x_vec, bob_transform.matrix)
        keys += [(a_vec[0], x_vec[0]) if n == 1 else (a_vec, x_vec) for a_vec in a_vecs]
    return Assemblage.from_rows(BIPARTITE if n == 1 else MULTIPARTITE, outcomes, settings,
                                keys, rows)


# ---------------------------------------------------------------------------
# LHS feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LhsConfig:
    tol: float = 1e-9
    strategy_cap: int = 10 ** 6


@dataclass(frozen=True, eq=False)
class LhsModel:
    """Shared-randomness model: deterministic strategies with subnormalized states.

    It uses the strategy ``columns`` of the per-party response ``tables``
    of :func:`_party_responses`; row ``i`` of ``states`` holds, over
    ``system``, the subnormalized state of strategy ``columns[i]``, whose
    trace is ``weights[i]``.  A model with no strategies still has its zero
    elements.  ``strategies`` (see :func:`_strategies`) and
    ``local_states`` are derived when read.
    """

    tables: tuple
    columns: np.ndarray
    weights: tuple
    states: np.ndarray
    system: SystemType

    @property
    def strategies(self) -> tuple:
        return tuple(_strategies(self.columns, self.tables))

    @property
    def local_states(self) -> tuple:
        return tuple(GptVector(self.system, row) for row in self.states)

    def element(self, a_vec, x_vec) -> GptVector:
        if not len(a_vec) == len(x_vec) == len(self.tables):
            raise ValueError(f"element key {tuple(a_vec)}, {tuple(x_vec)} does not have one "
                             f"outcome and one setting for each of {len(self.tables)} parties")
        return GptVector(self.system, self._rebuild(np.array([*a_vec, *x_vec])[:, None])[0])

    def max_error(self, asm: Assemblage) -> float:
        """Largest coefficient deviation of the rebuilt elements from ``asm``."""
        rebuilt = self._rebuild(_grid_index(asm.outcomes, asm.settings))
        return float(np.max(np.abs(rebuilt - asm.coeffs.reshape(rebuilt.shape))))

    def _rebuild(self, index: np.ndarray) -> np.ndarray:
        """Each column ``(*a_vec, *x_vec)`` of ``index`` rebuilt: the states of the
        strategies answering ``a_vec`` to ``x_vec``, summed over axis 1 in order."""
        n = len(self.tables)
        picks = np.unravel_index(self.columns, [t.shape[1] for t in self.tables])
        hit = np.ones((index.shape[1], len(self.columns)), dtype=bool)
        for p, (table, j) in enumerate(zip(self.tables, picks)):
            hit &= table[:, j][index[n + p]] == index[p][:, None]
        return np.where(hit[:, :, None], self.states, 0.0).sum(axis=1)


@dataclass(frozen=True)
class SteeringInequality:
    """Separating functional: every LHS assemblage scores <= 0, this one more."""

    coefficients: dict
    eigenvector: np.ndarray
    value: float

    def evaluate(self, asm: Assemblage) -> float:
        k = self.eigenvector
        return float(sum(
            c * np.real(k.conj() @ asm.matrix(*key) @ k)
            for key, c in self.coefficients.items()
        ))


class StrategyCapError(ValueError):
    """The deterministic strategy count exceeds :attr:`LhsConfig.strategy_cap`."""


def _common_eigenbasis(stack, tol, scale):
    """A unitary diagonalizing every matrix of ``stack``, and the rotated stack.

    ``scale`` is the stack's unit size, a power of two: commutators are
    compared with ``max(tol, 1e-10) * scale**2``, and a rotation is taken
    when dropping the rotated off-diagonal parts moves no coefficient by
    more than ``tol * scale``, the rebuild bound of :func:`lhs_check` (their
    Frobenius norm, which bounds every coefficient, is tried first).
    Returns ``(None, None)`` when two matrices fail to commute or no trial
    rotation passes.

    Every product comes from one ``tensordot``, whose entry ``[i, :, j, :]``
    is ``A_i A_j``; the matrices are Hermitian, so ``A_j A_i`` is its
    adjoint.  Rows of the product are taken in blocks of bounded size.
    """
    n, d = stack.shape[:2]
    ctol = max(tol, 1e-10) * scale * scale
    rows = max(1, _PRODUCT_ENTRIES // (n * d * d))
    for lo in range(0, n, rows):
        prod = np.tensordot(stack[lo:lo + rows], stack, axes=([2], [1]))
        if np.max(np.abs(prod - prod.transpose(0, 3, 2, 1).conj())) > ctol:
            return None, None
    for seed in (190452, 881237, 55901):
        w = np.random.default_rng(seed).normal(size=n)
        h = (w[:, None, None] * stack).sum(axis=0)
        _, u = np.linalg.eigh(h)
        rotated = u.conj().T @ stack @ u
        off = rotated.copy()
        off[:, np.arange(d), np.arange(d)] = 0.0
        if np.sqrt(np.max(np.sum(np.abs(off) ** 2, axis=(1, 2)))) <= tol * scale or np.max(
                np.abs(hermitian_to_coeffs(u @ off @ u.conj().T, (d,)))) <= tol * scale:
            return u, rotated
    return None, None


# entries of one block of commutator products (16 bytes each)
_PRODUCT_ENTRIES = 1 << 16


def _party_responses(outcomes, settings, cap):
    """Per-party response tables, one column per deterministic strategy.

    ``tables[p][x, j]`` is the outcome party ``p``'s ``j``-th response
    function gives to setting ``x``, with ``j`` in ``itertools.product``
    order over the settings.
    """
    total = 1
    for o, s in zip(outcomes, settings):
        total *= o ** s
        if total > cap:
            raise StrategyCapError(f"deterministic strategy count exceeds the cap of {cap}")
    return [np.indices((o,) * s).reshape(s, -1) for o, s in zip(outcomes, settings)]


def _grid_index(outcomes, settings) -> np.ndarray:
    """Rows ``(*a_vec, *x_vec)`` of every element key, one per column, in grid order."""
    grid = tuple(outcomes) + tuple(settings)
    return np.indices(grid).reshape(len(grid), -1)


def _response_matrix(outcomes, settings, tables):
    """0/1 matrix: rows are element keys in grid order, columns deterministic
    strategies.

    Columns follow ``itertools.product`` over the parties' response
    functions, so one party's indicator rows are combined with the next
    party's by outer products.
    """
    index = _grid_index(outcomes, settings)
    n, rows = len(outcomes), index.shape[1]
    dmat = np.ones((rows, 1))
    for p, table in enumerate(tables):
        hit = (table[index[n + p]] == index[p][:, None]).astype(float)
        dmat = (dmat[:, :, None] * hit[:, None, :]).reshape(rows, -1)
    return dmat


def _strategies(indices, tables) -> list:
    """The per-party response functions of each strategy column in ``indices``."""
    picks = np.unravel_index(np.asarray(indices, dtype=int), [t.shape[1] for t in tables])
    return list(zip(*(map(tuple, t[:, j].T.tolist()) for t, j in zip(tables, picks))))


def lhs_check(asm: Assemblage, solver_cfg: LhsConfig | None = None):
    """Decide whether the assemblage admits a shared-randomness model.

    Supported for assemblages whose elements pairwise commute: in a common
    eigenbasis the problem splits into one linear feasibility problem per
    eigenvector over the deterministic response functions.  Feasibility
    yields an explicit reconstructing :class:`LhsModel`; infeasibility
    yields a :class:`SteeringInequality` certificate.  Non-commuting
    assemblages are reported as unsupported.

    The check runs at unit size: with ``unit`` the power of two that
    brings the largest element entry into [1/2, 1), the LP gets the
    eigenvalue table divided by ``unit`` exactly, and every tolerance
    scales with it, so a scaled assemblage gets the same verdict.  Both
    outcomes are checked before a verdict is given: a certificate ``y``
    must score at most ``tol * max(1, |y|)`` on every deterministic
    strategy and more than that times ``unit`` on the eigenvalue table,
    and a model must rebuild every element within ``tol * unit``, the
    bound the common eigenbasis already meets (:func:`_common_eigenbasis`).
    Without a checked model or certificate the verdict is unsupported.
    """
    cfg = solver_cfg or LhsConfig()
    if asm.scenario not in (BIPARTITE, MULTIPARTITE):
        raise ValueError(f"LHS test supports bipartite or multipartite, got {asm.scenario}")
    outcomes, settings = asm.outcomes, asm.settings
    stack = coeffs_to_hermitian(asm.coeffs.reshape(-1, asm.coeffs.shape[-1]), (asm.d,))
    exp = unit_exponent(stack)
    unit = math.ldexp(1.0, exp)
    u, rotated = _common_eigenbasis(stack, cfg.tol, unit)
    if u is None:
        return MembershipVerdict(UNSUPPORTED,
                                 detail="elements do not commute within tolerance"), None
    d = stack.shape[1]
    responses = _party_responses(outcomes, settings, cfg.strategy_cap)
    dmat = _response_matrix(outcomes, settings, responses)
    tables = np.real(np.diagonal(rotated, axis1=1, axis2=2))
    unit_tables = np.ldexp(tables, -exp)

    weights = np.zeros((dmat.shape[1], d))
    for k in range(d):
        res = solve_feasibility(dmat, unit_tables[:, k], tol=cfg.tol)
        if not res.feasible:
            y = res.certificate
            value = float(y @ tables[:, k])
            worst = float(np.max(y @ dmat))
            ytol = cfg.tol * max(1.0, float(np.max(np.abs(y))))
            if worst > ytol or not value > ytol * unit:
                return MembershipVerdict(UNSUPPORTED, detail=(
                    f"the LP certificate fails its check (strategy score {worst:.3g}, "
                    f"value {value:.3g})")), None
            rows = np.flatnonzero(np.abs(y) > 1e-13)
            index = np.unravel_index(rows, asm.coeffs.shape[:-1])
            coeffs = dict(zip(map(asm.key_at, zip(*index)), y[rows].tolist()))
            cert = SteeringInequality(coeffs, u[:, k].copy(), value)
            return MembershipVerdict(
                REJECTED, margin=-cert.value, witness=cert,
                detail="no shared-randomness model reproduces the eigenvalue table"), None
        weights[:, k] = res.x
    weights = np.ldexp(weights, exp)
    totals = weights.sum(axis=1)
    used = np.flatnonzero(totals > 1e-13 * unit)
    # u diag(w) u^dagger for every used strategy, as one stacked product
    mats = (u * weights[used, None, :]) @ u.conj().T
    states = hermitian_to_coeffs((mats + mats.conj().transpose(0, 2, 1)) / 2, (d,))
    states.flags.writeable = False
    model = LhsModel(tuple(responses), used, tuple(totals[used].tolist()), states,
                     system(Quantum(d)))
    err = model.max_error(asm)
    if err > cfg.tol * unit:
        return MembershipVerdict(UNSUPPORTED, margin=-err,
                                 detail=f"the LP model reconstructs only within {err:.3g}"), None
    return MembershipVerdict(ACCEPTED, margin=-err,
                             detail=f"model reconstructs within {err:.3g}"), model


# ---------------------------------------------------------------------------
# Constructors for the flagship examples
# ---------------------------------------------------------------------------


PAPER_ASSEMBLAGE_NAMES = ("pr-box", "bwi-star", "bwi-star-star", "instrumental-star", "gleason")


def _controlled_box_measurement() -> LinearMap:
    rays = effect_cone_rays(Boxworld(2, 2))
    branches = [
        measurement_map([rays[2 * x], rays[2 * x + 1]]) for x in range(2)
    ]
    return controlled_map(branches)


def _phi_plus_vector() -> GptVector:
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    return hermitian_tensor_to_vector(np.outer(amp, amp.conj()), (2, 2))


@functools.lru_cache(maxsize=None)
def _named_realization(name: str) -> tuple:
    """``(shared, measurements, bob_transform, bob_input)`` of a named
    realization, built on first use; the maps and states are read-only.
    The shared state is checked for composite membership here, once."""
    if name == "pr-box":
        mixed = hermitian_to_vector(np.eye(2, dtype=complex) / 2)
        meas = _controlled_box_measurement()
        out = tensor_all([pr_state(), mixed]), (meas, meas), None, None
    elif name == "bwi-star":
        meas = _controlled_box_measurement()
        basis = [hermitian_to_vector(np.diag(p).astype(complex)) for p in ([1.0, 0.0], [0.0, 1.0])]
        out = pr_state(), (meas,), compose_seq(preparation_map(basis), meas), 2
    else:  # bwi-star-star
        ct = controlled_map([identity_map(system(Quantum(2))), transpose_map(2)])
        meas = controlled_map([_pauli_measurement(s.T) for s in (PAULI_X, PAULI_Y, PAULI_Z)])
        out = _phi_plus_vector(), (meas,), ct, 2
    check = composite_state_check(out[0])
    if not check.passed:
        raise ValueError(f"shared state is outside the composite cone: {check.describe()}")
    return out


def paper_assemblage(
    name: str,
    witness: GptVector | None = None,
    measurements: Sequence[Sequence[Sequence[GptVector]]] | None = None,
    cfg: SearchConfig | None = None,
) -> Assemblage:
    """Build one of the flagship assemblages by its realization diagram.

    ``pr-box``: two box parties measure a shared PR state alongside a
    maximally mixed qubit.  ``bwi-star``: the passive party's device
    measures its half of a PR state conditioned on an input and prepares
    the basis state given by the result.  ``bwi-star-star``: Pauli
    measurements on a maximally entangled pair with a transpose applied
    conditioned on the input.  ``instrumental-star``: the previous one
    wired at ``cfg.tol``.  ``gleason``: quantum measurements on a supplied
    composite state (any entanglement witness), given per-party POVM
    lists; the witness is checked for composite membership once.

    The first three realizations' states and maps are built, and their
    shared states checked, once per process (:func:`_named_realization`).
    """
    cfg = cfg or default_config()
    if name in ("pr-box", "bwi-star", "bwi-star-star"):
        shared, meas, device, inputs = _named_realization(name)
        return assemblage_from_realization(shared, meas, bob_transform=device,
                                           bob_input=inputs, cfg=cfg, validate=False)
    if name == "instrumental-star":
        return wire_instrumental(paper_assemblage("bwi-star-star", cfg=cfg), cfg.tol)
    if name == "gleason":
        if witness is None or measurements is None:
            raise ValueError("gleason assemblages need a witness state and measurements")
        if not all(isinstance(a, Quantum) for a in witness.atoms):
            raise ValueError("gleason witness must live on quantum atoms")
        check = composite_state_check(witness, cfg)
        if not check.passed:
            raise ValueError(f"witness fails composite membership: {check.describe()}")
        controlled = []
        for party, povms in enumerate(measurements):
            branches = []
            for povm in povms:
                for e in povm:
                    if len(e.atoms) != 1 or not isinstance(e.atoms[0], Quantum):
                        raise ValueError("gleason measurements must be quantum")
                branches.append(measurement_map(list(povm)))
            controlled.append(controlled_map(branches))
        return assemblage_from_realization(witness, controlled, cfg=cfg, validate=False)
    raise KeyError(f"unknown assemblage {name!r}; choose from {PAPER_ASSEMBLAGE_NAMES}")

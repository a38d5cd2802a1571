"""End-to-end protocol reconstructions: the PR box and one-bit RSP.

The PR box comes with its realizing state and measurement effects plus a
CHSH evaluator.  Remote state preparation sends an arbitrary qubit state
with a single classical bit: the sender encodes the target into a unitary
on her half of a singlet, measures, and the receiver corrects with a
controlled universal NOT.  The universal NOT is positive but not
completely positive in quantum theory, which is exactly why one bit
suffices here and not there.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .compose import (
    hermitian_tensor_to_vector,
    pr_state,
    steer,
    tensor,
)
from .steering import INSTRUMENTAL, Assemblage
from .systems import (
    Boxworld,
    GptVector,
    Quantum,
    classical_outcome_effect,
    effect_cone_rays,
    hermitian_to_vector,
    pair,
    system,
    unit_effect,
    vector_to_hermitian,
)
from .transforms import (
    LinearMap,
    apply,
    compose_par,
    computational_measurement,
    controlled_map,
    identity_map,
    transpose_map,
    unitary_conjugation_map,
    unot_map,
)

_SPR_COEFFS = (0.5, 0.5, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 1.0)


@dataclass(frozen=True)
class PrBoxKit:
    """The PR state together with both parties' measurement effects.

    ``alice_effects[a][x]`` is the effect for outcome ``a`` of measurement
    ``x``; same for Bob.  The two effects of each measurement sum to the
    unit effect.
    """

    s_pr: GptVector
    alice_effects: tuple
    bob_effects: tuple


def pr_box_kit() -> PrBoxKit:
    s_pr = pr_state()
    if tuple(np.round(s_pr.coeffs, 12)) != _SPR_COEFFS:
        raise AssertionError("PR state coefficients are off")
    rays = effect_cone_rays(Boxworld(2, 2))
    effects = tuple(tuple(rays[2 * x + a] for x in range(2)) for a in range(2))
    u = unit_effect(system(Boxworld(2, 2)))
    for x in range(2):
        if np.max(np.abs(effects[0][x].coeffs + effects[1][x].coeffs - u.coeffs)) > 1e-15:
            raise AssertionError("measurement effects do not sum to the unit effect")
    return PrBoxKit(s_pr, effects, effects)


def pr_box_probability(kit: PrBoxKit, a: int, b: int, x: int, y: int) -> float:
    """p(ab|xy) as the pairing of the product effect with the shared state."""
    for v in (a, b, x, y):
        if v not in (0, 1):
            raise ValueError("outcomes and settings are binary")
    return pair(tensor(kit.alice_effects[a][x], kit.bob_effects[b][y]), kit.s_pr)


def chsh_value(box: Callable[[int, int, int, int], float]) -> float:
    """The CHSH functional of a conditional distribution p(a, b | x, y).

    The box must be normalized for every setting pair; deterministic
    strategies reach 2, the PR box reaches 4.
    """
    total = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        probs = [box(a, b, x, y) for a, b in itertools.product(range(2), repeat=2)]
        if min(probs) < -1e-12 or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"box is not a conditional distribution at x={x}, y={y}")
        corr = sum((-1) ** (a ^ b) * box(a, b, x, y) for a, b in itertools.product(range(2), repeat=2))
        total += (-1) ** (x * y) * corr
    return total


def deterministic_box(a_of_x: Sequence[int], b_of_y: Sequence[int]):
    """The box of a local deterministic strategy."""
    return lambda a, b, x, y: 1.0 if (a == a_of_x[x] and b == b_of_y[y]) else 0.0


def best_deterministic_chsh() -> float:
    """Enumerate all 16 deterministic strategies and take the best value."""
    best = -np.inf
    for fa in itertools.product(range(2), repeat=2):
        for fb in itertools.product(range(2), repeat=2):
            best = max(best, chsh_value(deterministic_box(fa, fb)))
    return best


# ---------------------------------------------------------------------------
# Remote state preparation
# ---------------------------------------------------------------------------


def bloch_state(theta: float, phi: float) -> np.ndarray:
    """Qubit amplitudes for the Bloch angles (theta, phi)."""
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def haar_random_states(count: int, seed: int = 0) -> list:
    """Seeded Haar-random qubit states via normalized complex Gaussians."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        out.append(psi / np.linalg.norm(psi))
    return out


def orthogonal_state(psi: np.ndarray) -> np.ndarray:
    """The (up to phase unique) state orthogonal to a qubit state."""
    return np.array([-np.conj(psi[1]), np.conj(psi[0])])


def singlet_vector() -> GptVector:
    """The two-qubit singlet (|01> - |10>) / sqrt(2) as a composite vector."""
    amp = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return hermitian_tensor_to_vector(np.outer(amp, amp.conj()), (2, 2))


def encoding_unitary(psi: np.ndarray) -> np.ndarray:
    """|0><psi_perp| + |1><psi|: writes the target into the measurement basis."""
    perp = orthogonal_state(psi)
    return np.outer([1.0, 0.0], perp.conj()) + np.outer([0.0, 1.0], psi.conj())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


@dataclass(frozen=True)
class RspBranch:
    outcome: int
    weight: float
    pre_correction: GptVector
    post_correction: GptVector


@dataclass(frozen=True)
class RspRun:
    psi: np.ndarray
    branches: tuple
    output: GptVector
    bits_sent: int = 1

    def output_matrix(self) -> np.ndarray:
        return vector_to_hermitian(self.output)

    def target_matrix(self) -> np.ndarray:
        return np.outer(self.psi, self.psi.conj())

    def trace_distance_to_target(self) -> float:
        return trace_distance(self.output_matrix(), self.target_matrix())


@dataclass(frozen=True)
class _RspParts:
    """The maps and vectors every :func:`rsp_run` shares."""

    singlet: GptVector
    ident: LinearMap
    measure: LinearMap        # computational measurement ⊗ id
    unot: LinearMap
    correction: LinearMap     # controlled universal NOT
    unit: GptVector
    outcome_effects: tuple


@functools.lru_cache(maxsize=None)
def _rsp_parts() -> _RspParts:
    """The fixed parts of the protocol, built on first use."""
    q2 = system(Quantum(2))
    ident = identity_map(q2)
    unot = unot_map(2)
    return _RspParts(
        singlet=singlet_vector(),
        ident=ident,
        measure=compose_par(computational_measurement(2), ident),
        unot=unot,
        correction=controlled_map([ident, unot]),
        unit=unit_effect(q2),
        outcome_effects=tuple(classical_outcome_effect(2, a) for a in range(2)),
    )


def rsp_run(psi) -> RspRun:
    """Prepare ``psi`` remotely with one classical bit of communication.

    Steps: share a singlet; conjugate the sender's half by the encoding
    unitary; measure in the computational basis; feed the outcome bit
    into a controlled universal NOT on the receiver's half, which also
    sums out the bit.  The transcript records both measurement branches
    before and after correction.  Only the encoding map depends on
    ``psi``; the other maps are built once (:func:`_rsp_parts`).
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != 2:
        raise ValueError("expected a qubit state (two amplitudes)")
    if not np.isfinite(psi).all():
        raise ValueError("amplitudes must be finite")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    parts = _rsp_parts()
    after_encoding = apply(
        compose_par(unitary_conjugation_map(encoding_unitary(psi)), parts.ident),
        parts.singlet,
    )
    classical_and_qubit = apply(parts.measure, after_encoding)
    branches = []
    for a, effect in enumerate(parts.outcome_effects):
        pre = steer(classical_and_qubit, effect, on=(0,))
        post = apply(parts.unot, pre) if a == 1 else pre
        branches.append(RspBranch(a, pair(parts.unit, pre), pre, post))
    output = apply(parts.correction, classical_and_qubit)
    return RspRun(psi, tuple(branches), output)


def rsp_as_assemblage(psi_grid: Sequence[np.ndarray]) -> Assemblage:
    """The instrumental-scenario assemblage behind the protocol.

    Settings index the grid of target states; the element at (a, i) is the
    corrected branch ``a`` for target ``i``, each of trace 1/2.  Summing
    the two elements of a setting reproduces the protocol output.
    """
    grid = [np.asarray(p, dtype=complex).reshape(-1) for p in psi_grid]
    if not grid:
        raise ValueError("need at least one target state")
    els = {}
    for i, psi in enumerate(grid):
        run = rsp_run(psi)
        for branch in run.branches:
            els[(branch.outcome, i)] = branch.post_correction
    return Assemblage(INSTRUMENTAL, (2,), (len(grid),), els)


# ---------------------------------------------------------------------------
# Named built-in states (used by the command line and the tests)
# ---------------------------------------------------------------------------


def _swap_matrix() -> np.ndarray:
    m = np.zeros((4, 4))
    for i, j in itertools.product(range(2), repeat=2):
        m[2 * i + j, 2 * j + i] = 1.0
    return m


def builtin_state(name: str) -> GptVector:
    """Resolve a named built-in state."""
    q2 = (2, 2)
    if name == "s-pr":
        return pr_state()
    if name == "swap2":
        return hermitian_tensor_to_vector(_swap_matrix() / 2.0, q2)
    if name == "singlet":
        return singlet_vector()
    if name == "singlet-pt":
        return apply(
            compose_par(identity_map(system(Quantum(2))), transpose_map(2)),
            singlet_vector(),
        )
    if name == "phi-plus":
        amp = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        return hermitian_tensor_to_vector(np.outer(amp, amp.conj()), q2)
    if name == "max-mixed2":
        return hermitian_to_vector(np.eye(2, dtype=complex) / 2.0)
    raise KeyError(f"unknown built-in state {name!r}")


BUILTIN_STATE_NAMES = ("s-pr", "swap2", "singlet", "singlet-pt", "phi-plus", "max-mixed2")

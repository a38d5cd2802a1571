"""PR box statistics, CHSH, and the one-bit remote state preparation run."""

import itertools

import numpy as np
import pytest

from witworld import (
    Assemblage,
    apply,
    bloch_state,
    builtin_state,
    best_deterministic_chsh,
    chsh_value,
    compose_par,
    composite_state_check,
    controlled_map,
    haar_random_states,
    identity_map,
    lhs_check,
    pair,
    pr_box_kit,
    pr_box_probability,
    rsp_as_assemblage,
    rsp_run,
    singlet_vector,
    steer,
    system,
    trace_distance,
    unit_effect,
    unitary_conjugation_map,
    unot_map,
    vector_to_hermitian,
    vector_to_hermitian_tensor,
    Quantum,
)
from witworld import protocols
from witworld.protocols import (
    BUILTIN_STATE_NAMES,
    deterministic_box,
    encoding_unitary,
    orthogonal_state,
)
from witworld.steering import BIPARTITE
from witworld.systems import classical_outcome_effect
from witworld.transforms import computational_measurement


def test_pr_kit_invariants():
    kit = pr_box_kit()
    assert tuple(kit.s_pr.coeffs) == (0.5, 0.5, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 1.0)
    u = unit_effect(kit.s_pr.system)
    assert pair(u, kit.s_pr) == 1.0
    assert composite_state_check(kit.s_pr).accepted


def test_pr_probability_examples():
    kit = pr_box_kit()
    assert pr_box_probability(kit, 0, 0, 0, 0) == pytest.approx(0.5, abs=1e-12)
    assert pr_box_probability(kit, 0, 1, 1, 1) == pytest.approx(0.5, abs=1e-12)
    assert pr_box_probability(kit, 0, 0, 1, 1) == pytest.approx(0.0, abs=1e-12)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        expected = 0.5 if (a ^ b) == x * y else 0.0
        assert pr_box_probability(kit, a, b, x, y) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        pr_box_probability(kit, 2, 0, 0, 0)


def test_pr_marginals_are_uniform_and_setting_independent():
    kit = pr_box_kit()
    for a, x, y in itertools.product(range(2), repeat=3):
        marg = sum(pr_box_probability(kit, a, b, x, y) for b in range(2))
        assert marg == pytest.approx(0.5, abs=1e-12)


def test_chsh_values():
    kit = pr_box_kit()
    assert chsh_value(lambda a, b, x, y: pr_box_probability(kit, a, b, x, y)) == pytest.approx(4.0, abs=1e-12)
    assert chsh_value(lambda a, b, x, y: 0.25) == pytest.approx(0.0, abs=1e-12)
    assert chsh_value(deterministic_box((0, 0), (0, 0))) == pytest.approx(2.0, abs=1e-12)
    assert best_deterministic_chsh() == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        chsh_value(lambda a, b, x, y: 0.3)


def test_rsp_on_basis_state():
    run = rsp_run([1.0, 0.0])
    assert run.bits_sent == 1
    assert run.trace_distance_to_target() < 1e-12
    assert np.max(np.abs(run.output_matrix() - np.diag([1.0, 0.0]))) < 1e-12


def test_rsp_on_plus_state_branches():
    run = rsp_run(np.array([1.0, 1.0]) / np.sqrt(2))
    assert run.trace_distance_to_target() < 1e-12
    weights = [b.weight for b in run.branches]
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)
    # branch structure: outcome 0 holds the target, outcome 1 its orthogonal
    plus = np.full((2, 2), 0.25)
    minus = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.max(np.abs(vector_to_hermitian(run.branches[0].pre_correction) - plus * 2 / 2)) < 1e-12
    assert np.max(np.abs(vector_to_hermitian(run.branches[1].pre_correction) - minus)) < 1e-12
    # after correction both branches hold the target at half weight
    for b in run.branches:
        assert np.max(np.abs(vector_to_hermitian(b.post_correction) - plus)) < 1e-12


def test_rsp_random_states():
    for psi in haar_random_states(25, seed=3):
        run = rsp_run(psi)
        assert run.trace_distance_to_target() < 1e-10
        assert np.allclose([b.weight for b in run.branches], [0.5, 0.5], atol=1e-12)


def _reference_rsp_run(psi):
    """The protocol with every map built per call: the arithmetic
    :func:`rsp_run` must reproduce bit for bit."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    q2 = system(Quantum(2))
    ident = identity_map(q2)
    after_encoding = apply(
        compose_par(unitary_conjugation_map(encoding_unitary(psi)), ident),
        singlet_vector(),
    )
    classical_and_qubit = apply(
        compose_par(computational_measurement(2), ident), after_encoding
    )
    unot = unot_map(2)
    u = unit_effect(q2)
    branches = []
    for a in range(2):
        pre = steer(classical_and_qubit, classical_outcome_effect(2, a), on=(0,))
        post = apply(unot, pre) if a == 1 else pre
        branches.append((a, pair(u, pre), pre, post))
    return branches, apply(controlled_map([ident, unot]), classical_and_qubit)


def _golden_spiral(n):
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return [bloch_state(np.arccos(1 - 2 * (i + 0.5) / n), (i * golden) % (2 * np.pi))
            for i in range(n)]


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def test_rsp_run_matches_the_per_call_reference_bit_for_bit():
    states = haar_random_states(64, seed=11)
    states += [psi for n in (1, 2, 3, 16, 32) for psi in _golden_spiral(n)]
    for psi in states:
        run = rsp_run(psi)
        branches, output = _reference_rsp_run(psi)
        assert _bits(run.output.coeffs) == _bits(output.coeffs)
        assert run.output.system == output.system
        for got, (a, weight, pre, post) in zip(run.branches, branches, strict=True):
            assert got.outcome == a
            assert _bits(got.weight) == _bits(weight)
            assert _bits(got.pre_correction.coeffs) == _bits(pre.coeffs)
            assert _bits(got.post_correction.coeffs) == _bits(post.coeffs)
            assert (got.pre_correction.system, got.post_correction.system) == (
                pre.system, post.system)


def test_rsp_runs_after_the_first_build_no_fixed_map(monkeypatch):
    built = {"unot_map": 0, "computational_measurement": 0}

    def counting(name):
        original = getattr(protocols, name)

        def wrapper(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in built:
        monkeypatch.setattr(protocols, name, counting(name))
    rsp_run([1.0, 0.0])
    built.update(dict.fromkeys(built, 0))
    for psi in haar_random_states(8, seed=5):
        rsp_run(psi)
    assert built == {"unot_map": 0, "computational_measurement": 0}


def test_rsp_input_validation():
    with pytest.raises(ValueError):
        rsp_run([1.0, 1.0])
    with pytest.raises(ValueError):
        rsp_run([1.0, 0.0, 0.0])
    # |nan| - 1 > 1e-9 is False, so the norm check alone lets NaN through
    for psi in ([np.nan, 0.0], [1.0, np.inf], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="finite"):
            rsp_run(psi)


def test_encoding_unitary_and_orthogonal_state():
    rng = np.random.default_rng(4)
    for psi in haar_random_states(10, seed=5):
        perp = orthogonal_state(psi)
        assert abs(np.vdot(perp, psi)) < 1e-14
        u = encoding_unitary(psi)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        assert np.allclose(u @ perp, [1.0, 0.0], atol=1e-12)
        assert np.allclose(u @ psi, [0.0, 1.0], atol=1e-12)


def test_singlet_vector_is_the_singlet():
    m = vector_to_hermitian_tensor(singlet_vector())
    amp = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.max(np.abs(m - np.outer(amp, amp))) < 1e-14


def test_bloch_state():
    assert np.allclose(bloch_state(0.0, 0.0), [1.0, 0.0])
    v = bloch_state(np.pi / 2, 0.0)
    assert np.allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)


def test_rsp_assemblage_structure():
    grid = haar_random_states(4, seed=6)
    asm = rsp_as_assemblage(grid)
    assert asm.scenario == "instrumental"
    u = unit_effect(system(Quantum(2)))
    for i, psi in enumerate(grid):
        target = np.outer(psi, psi.conj())
        total = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            el = asm.element(a, i)
            assert pair(u, el) == pytest.approx(0.5, abs=1e-12)
            total += vector_to_hermitian(el)
        assert np.max(np.abs(total - target)) < 1e-10
        # wiring the assemblage reproduces the protocol output
        run = rsp_run(psi)
        assert trace_distance(total, run.output_matrix()) < 1e-12


def test_rsp_assemblage_restriction_smoke():
    # two non-parallel, non-orthogonal targets: elements cannot commute
    psi1 = bloch_state(0.0, 0.0)
    psi2 = bloch_state(np.pi / 3, 0.0)
    asm = rsp_as_assemblage([psi1, psi2])
    els = {(a, x): asm.element(a, x) for a in range(2) for x in range(2)}
    as_bipartite = Assemblage(BIPARTITE, (2,), (2,), els)
    verdict, _ = lhs_check(as_bipartite)
    assert verdict.status == "unsupported"


def test_builtin_states_resolve_and_validate():
    for name in BUILTIN_STATE_NAMES:
        v = builtin_state(name)
        res = composite_state_check(v)
        assert res.passed, name
    with pytest.raises(KeyError):
        builtin_state("nope")

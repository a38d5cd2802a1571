"""Linear maps: application, composition, positivity, CP contrast, built-ins."""

import numpy as np
import pytest

from witworld import (
    Boxworld,
    Classical,
    GptVector,
    LinearMap,
    Quantum,
    SearchConfig,
    apply,
    builtin_map,
    choi_matrix,
    composite_state_check,
    compose_par,
    compose_seq,
    cone_generators,
    composite_effect_check,
    controlled_map,
    copy_map,
    effect_cone_rays,
    hermitian_basis,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    identity_map,
    measurement_map,
    pair,
    positivity_check,
    preparation_map,
    quantum_cp_check,
    state_vertices,
    steer,
    system,
    tensor,
    trace_condition_check,
    transpose_map,
    unit_effect,
    unitary_conjugation_map,
    unot_map,
    vector_to_hermitian,
)
from witworld.protocols import singlet_vector
from witworld.transforms import (
    PAULI_X,
    PAULI_Y,
    apply_to_matrix,
    computational_measurement,
    computational_preparation,
    map_from_matrix_action,
    partial_apply_classical,
)
from witworld.systems import classical_point

from conftest import random_density, random_hermitian, random_positive_box_map

Q2 = system(Quantum(2))


def _vec(m):
    return hermitian_to_vector(np.asarray(m, dtype=complex))


def test_apply_identity_and_shape_errors():
    v = _vec(np.diag([0.7, 0.3]))
    assert np.allclose(apply(identity_map(Q2), v).coeffs, v.coeffs)
    with pytest.raises(ValueError):
        apply(identity_map(Q2), GptVector(system(Classical(4)), np.zeros(4)))
    with pytest.raises(ValueError):
        LinearMap(Q2, Q2, np.eye(3))
    bad = np.eye(4)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LinearMap(Q2, Q2, bad)


def test_transpose_fixes_real_symmetric_states():
    plus = _vec(np.full((2, 2), 0.5))
    out = apply(transpose_map(2), plus)
    assert np.allclose(out.coeffs, plus.coeffs, atol=1e-14)


def test_unot_swaps_basis_states():
    out = apply(unot_map(2), _vec(np.diag([1.0, 0.0])))
    assert np.max(np.abs(vector_to_hermitian(out) - np.diag([0.0, 1.0]))) < 1e-14


def test_unot_twice_is_identity_on_a_basis():
    un = unot_map(2)
    twice = compose_seq(un, un)
    assert np.max(np.abs(twice.matrix - np.eye(4))) < 1e-12


def test_compose_with_identity_is_neutral():
    t = transpose_map(2)
    assert np.array_equal(compose_seq(t, identity_map(Q2)).matrix, t.matrix)
    assert np.array_equal(compose_seq(identity_map(Q2), t).matrix, t.matrix)


def test_measure_after_prepare_is_classical_point():
    meas = computational_measurement(2)
    prep = computational_preparation(2)
    both = compose_seq(meas, prep)
    for b in range(2):
        out = apply(both, classical_point(2, b))
        assert np.allclose(out.coeffs, classical_point(2, b).coeffs, atol=1e-12)


def test_parallel_identities_and_kronecker_identity():
    rng = np.random.default_rng(5)
    assert np.array_equal(
        compose_par(identity_map(Q2), identity_map(Q2)).matrix, np.eye(16)
    )
    t1 = unitary_conjugation_map(np.array([[0, 1], [1, 0]], dtype=complex))
    t2 = unot_map(2)
    a = _vec(random_density(rng, 2))
    b = _vec(random_density(rng, 2))
    joint = apply(compose_par(t1, t2), tensor(a, b))
    split = tensor(apply(t1, a), apply(t2, b))
    assert np.allclose(joint.coeffs, split.coeffs, atol=1e-13)


def test_interchange_law_exact():
    rng = np.random.default_rng(6)
    mats = [rng.normal(size=(4, 4)) for _ in range(4)]
    t1, t2, s1, s2 = (LinearMap(Q2, Q2, m) for m in mats)
    lhs = compose_par(compose_seq(t2, t1), compose_seq(s2, s1)).matrix
    rhs = compose_seq(compose_par(t2, s2), compose_par(t1, s1)).matrix
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_singlet_covariance_under_joint_rotation():
    rng = np.random.default_rng(7)
    s = singlet_vector()
    for _ in range(5):
        h = random_hermitian(rng, 2)
        vals, vecs = np.linalg.eigh(h)
        u = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
        left = apply(compose_par(unitary_conjugation_map(u), identity_map(Q2)), s)
        right = apply(
            compose_par(identity_map(Q2), unitary_conjugation_map(u.conj().T)), s
        )
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12


def test_singlet_covariance_at_state_vector_level():
    rng = np.random.default_rng(8)
    amp = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    for _ in range(5):
        h = random_hermitian(rng, 2)
        vals, vecs = np.linalg.eigh(h)
        u = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
        left = np.kron(u, np.eye(2)) @ amp
        right = np.kron(np.eye(2), u.conj().T) @ amp
        phase = np.vdot(right, left)
        phase /= abs(phase)
        assert np.max(np.abs(left - phase * right)) < 1e-12


# --- positivity ------------------------------------------------------------------


def _reference_map_from_matrix_action(action, d_in, d_out=None):
    """One image at a time, each through :func:`hermitian_tensor_to_vector`."""
    d_out = d_in if d_out is None else d_out
    cols = [hermitian_tensor_to_vector(action(b), (d_out,)).coeffs
            for b in hermitian_basis(d_in)]
    return LinearMap(system(Quantum(d_in)), system(Quantum(d_out)), np.column_stack(cols))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_map_from_matrix_action_matches_per_image_conversion_bit_for_bit(d):
    gen = np.random.default_rng(d)
    actions = [lambda m: m.T, lambda m: np.trace(m) * np.eye(d) - m]
    for _ in range(50):
        u = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))[0]
        actions.append(lambda m, u=u: u @ m @ u.conj().T)
    for action in actions:
        t = map_from_matrix_action(action, d)
        assert np.array_equal(t.matrix, _reference_map_from_matrix_action(action, d).matrix)
    k = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))[0][:2]
    narrow = lambda m: k @ m.T @ k.conj().T  # noqa: E731
    assert np.array_equal(map_from_matrix_action(narrow, d, 2).matrix,
                          _reference_map_from_matrix_action(narrow, d, 2).matrix)


def test_map_from_matrix_action_rejects_a_non_hermitian_action():
    with pytest.raises(ValueError, match="not Hermitian within tolerance"):
        map_from_matrix_action(lambda m: m @ np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
    with pytest.raises(ValueError, match="not Hermitian within tolerance"):
        map_from_matrix_action(lambda m: m + 1e-7j * np.trace(m) * np.eye(3, k=1), 3)


def test_transpose_and_unot_are_positive():
    for t in (transpose_map(2), unot_map(2)):
        res = positivity_check(t)
        assert res.accepted
        assert res.margin >= -1e-7


def test_shifted_map_is_not_positive():
    bad = map_from_matrix_action(lambda m: m - np.trace(m) * np.eye(2) / 4, 2)
    res = positivity_check(bad)
    assert res.rejected
    assert res.margin == pytest.approx(-0.25, abs=1e-7)
    # witness reproduces the failure
    img = apply(bad, res.witness.input_state)
    assert np.linalg.eigvalsh(vector_to_hermitian(img)).min() == pytest.approx(
        res.margin, abs=1e-6
    )


def test_scalar_map_positivity():
    neg = LinearMap(system(), system(), [[-1.0]])
    res = positivity_check(neg)
    assert res.rejected and res.margin == -1.0
    w = res.witness
    assert pair(w.output_effect, apply(neg, w.input_state)) == -1.0
    res = positivity_check(LinearMap(system(), system(), [[1.0]]))
    assert res.accepted and res.margin == 1.0


def test_box_map_positivity_both_ways():
    rng = np.random.default_rng(9)
    for _ in range(10):
        assert positivity_check(random_positive_box_map(rng)).accepted
    flip = LinearMap(system(Boxworld(2, 2)), system(Boxworld(2, 2)), -np.eye(3))
    assert positivity_check(flip).rejected


def test_controlled_map_positivity():
    ct = builtin_map("ctranspose2")
    res = positivity_check(ct)
    assert res.accepted


def test_transpose_on_qutrits_accepted_by_certificate():
    res = positivity_check(transpose_map(3), SearchConfig(restarts=40))
    assert res.status == "accepted"
    assert res.detail.startswith("spectral certificate")
    assert res.margin >= -1e-12


# --- quantum CP contrast -----------------------------------------------------------


def test_choi_spectra():
    _, m = quantum_cp_check(map_from_matrix_action(lambda m_: np.trace(m_) * np.eye(2) / 2, 2))
    assert m == pytest.approx(0.5, abs=1e-10)
    v1, m1 = quantum_cp_check(transpose_map(2))
    assert v1.rejected and m1 == pytest.approx(-1.0, abs=1e-10)
    v2, m2 = quantum_cp_check(unot_map(2))
    assert v2.rejected and m2 == pytest.approx(-1.0, abs=1e-10)
    spec = sorted(np.linalg.eigvalsh(choi_matrix(unot_map(2))))
    assert np.allclose(spec, [-1, 1, 1, 1], atol=1e-10)


def test_cp_check_requires_quantum_atoms():
    with pytest.raises(ValueError):
        quantum_cp_check(copy_map(2))


def test_positive_but_not_cp_gap():
    for t in (transpose_map(2), unot_map(2)):
        assert positivity_check(t).accepted
        verdict, _ = quantum_cp_check(t)
        assert verdict.rejected


def test_cp_accepts_unitary_conjugation():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 2)
    vals, vecs = np.linalg.eigh(h)
    u = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
    verdict, m = quantum_cp_check(unitary_conjugation_map(u))
    assert verdict.accepted and m >= -1e-10


def test_apply_to_matrix_handles_non_hermitian_input():
    t = transpose_map(2)
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.max(np.abs(apply_to_matrix(t, e01) - e01.T)) < 1e-12


# --- trace conditions -----------------------------------------------------------


def test_unot_is_trace_preserving():
    assert trace_condition_check(unot_map(2), "preserving").accepted


def test_effect_as_map_is_trace_nonincreasing():
    e = effect_cone_rays(Boxworld(2, 2))[0]
    t = LinearMap(system(Boxworld(2, 2)), system(), e.coeffs.reshape(1, -1))
    res = trace_condition_check(t, "non-increasing")
    assert res.accepted
    assert trace_condition_check(t, "preserving").rejected


def test_doubling_fails_both_trace_conditions():
    t = LinearMap(Q2, Q2, 2 * np.eye(4))
    assert trace_condition_check(t, "preserving").rejected
    assert trace_condition_check(t, "non-increasing").rejected
    with pytest.raises(ValueError):
        trace_condition_check(t, "bogus")


@pytest.mark.parametrize("atoms", [(Quantum(3), Quantum(3)), (Quantum(2),) * 3,
                                   (Boxworld(2, 2), Boxworld(2, 2), Quantum(2))],
                         ids=["Q3*Q3", "Q2*Q2*Q2", "B2,2*B2,2*Q2"])
def test_identity_meets_both_trace_conditions_without_a_search(atoms, monkeypatch):
    # a zero deficit is nonnegative on every state: no search, so no
    # inconclusive acceptance where the search is heuristic
    import witworld.compose as compose

    monkeypatch.setattr(compose, "minimize_product_form", None)
    for mode, detail in (("preserving", "u(T(s)) = u(s) identically"), ("non-increasing", "")):
        res = trace_condition_check(identity_map(system(*atoms)), mode)
        assert (res.status, res.margin, res.detail) == ("accepted", 0.0, detail), mode


def test_quantum_trace_nonincreasing_via_sphere_minimum():
    # the map rho -> <1|rho|1> |1><1| keeps trace only on |1>
    m = np.zeros((4, 4))
    proj1 = hermitian_to_vector(np.diag([0.0, 1.0]).astype(complex))
    m = np.outer(proj1.coeffs, proj1.coeffs)
    t = LinearMap(Q2, Q2, m)
    assert trace_condition_check(t, "non-increasing").accepted
    assert trace_condition_check(t, "preserving").rejected


def _map_to_scalar_with_deficit(deficit):
    """T with u - T^T u equal to ``deficit``: T(s) = <u - deficit, s>."""
    u = unit_effect(deficit.system).coeffs
    return LinearMap(deficit.system, system(), (u - deficit.coeffs).reshape(1, -1))


def test_trace_nonincreasing_rejects_rotated_bell_deficit():
    # The deficit is a locally rotated Bell projector: nonnegative on every
    # product state, and off the registered Bell probes, so a product
    # search finds nothing; its partial transpose has eigenvalue -1/2.
    def rot(p, angle):
        return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * p

    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    amp = np.kron(rot(PAULI_X, np.pi / 3), rot(PAULI_Y, np.pi / 2)) @ bell
    deficit = hermitian_tensor_to_vector(np.outer(amp, amp.conj()), (2, 2))
    t = _map_to_scalar_with_deficit(deficit)
    res = trace_condition_check(t, "non-increasing")
    assert res.rejected
    assert res.margin == pytest.approx(-0.5, abs=1e-12)
    w = res.witness
    assert composite_state_check(w).accepted
    assert pair(unit_effect(w.system), w) == pytest.approx(1.0, abs=1e-12)
    assert apply(t, w).coeffs[0] == pytest.approx(1.5, abs=1e-12)


def test_trace_nonincreasing_is_exact_on_qubit_qutrit():
    # a separable deficit (a product of local effects) on Q2*Q3: accepted,
    # not inconclusive; the same map scaled past the unit fails
    rng = np.random.default_rng(4)
    a, b = random_density(rng, 2), random_density(rng, 3)
    deficit = hermitian_tensor_to_vector(np.kron(a, b), (2, 3))
    res = trace_condition_check(_map_to_scalar_with_deficit(deficit), "non-increasing")
    assert res.accepted
    assert res.margin >= -1e-12
    assert composite_effect_check(deficit).accepted
    bad = GptVector(deficit.system, -deficit.coeffs)
    res = trace_condition_check(_map_to_scalar_with_deficit(bad), "non-increasing")
    assert res.rejected
    assert pair(bad, res.witness) == pytest.approx(res.margin, abs=1e-12)


# --- classical machinery -----------------------------------------------------------


def test_controlled_transpose_branches():
    ct = controlled_map([identity_map(Q2), transpose_map(2)])
    rho = _vec(random_density(np.random.default_rng(11), 2))
    y_img = _vec(PAULI_Y)
    out0 = apply(ct, tensor(classical_point(2, 0), rho))
    assert np.allclose(out0.coeffs, rho.coeffs, atol=1e-13)
    out1 = apply(ct, tensor(classical_point(2, 1), y_img))
    assert np.allclose(out1.coeffs, -y_img.coeffs, atol=1e-13)


def test_controlled_unitaries_act_branchwise():
    rng = np.random.default_rng(12)
    us = []
    for _ in range(2):
        h = random_hermitian(rng, 2)
        vals, vecs = np.linalg.eigh(h)
        us.append(vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T)
    cmap = controlled_map([unitary_conjugation_map(u) for u in us])
    rho = random_density(rng, 2)
    for x in range(2):
        out = apply(cmap, tensor(classical_point(2, x), _vec(rho)))
        expected = us[x] @ rho @ us[x].conj().T
        assert np.max(np.abs(vector_to_hermitian(out) - expected)) < 1e-12


def test_controlled_map_on_mixtures_is_linear():
    ct = controlled_map([identity_map(Q2), unot_map(2)])
    rho = _vec(np.eye(2, dtype=complex) / 2)
    mix = GptVector(
        system(Classical(2)) * Q2,
        0.3 * tensor(classical_point(2, 0), rho).coeffs
        + 0.7 * tensor(classical_point(2, 1), rho).coeffs,
    )
    out = apply(ct, mix)
    assert np.allclose(out.coeffs, rho.coeffs, atol=1e-13)  # I/2 is UNOT-invariant


def test_measurement_map_examples():
    meas = computational_measurement(2)
    p0 = apply(meas, _vec(np.diag([1.0, 0.0])))
    assert np.allclose(p0.coeffs, [1.0, 1.0], atol=1e-13)
    mixed = apply(meas, _vec(np.eye(2) / 2))
    assert np.allclose(mixed.coeffs, [0.5, 1.0], atol=1e-13)
    rays = effect_cone_rays(Boxworld(2, 2))
    box_meas = measurement_map([rays[0], rays[1]])
    vert = state_vertices(Boxworld(2, 2))[0]  # outcome 0 for both measurements
    assert np.allclose(apply(box_meas, vert).coeffs, [1.0, 1.0], atol=1e-14)


def test_measurement_map_rejects_unnormalized():
    rays = effect_cone_rays(Boxworld(2, 2))
    with pytest.raises(ValueError):
        measurement_map([rays[0], rays[0]])
    with pytest.raises(ValueError):
        measurement_map([GptVector(system(Boxworld(2, 2)), [2.0, 0, 0]),
                         GptVector(system(Boxworld(2, 2)), [-2.0, 0, 1.0])])


def test_measurement_normalization_invariant():
    rng = np.random.default_rng(13)
    meas = computational_measurement(2)
    u_out = unit_effect(system(Classical(2)))
    composed = u_out.coeffs @ meas.matrix
    assert np.allclose(composed, unit_effect(Q2).coeffs, atol=1e-13)


def test_preparation_map_examples():
    prep = computational_preparation(2)
    out0 = apply(prep, classical_point(2, 0))
    assert np.max(np.abs(vector_to_hermitian(out0) - np.diag([1, 0]))) < 1e-14
    out1 = apply(prep, classical_point(2, 1))
    assert np.max(np.abs(vector_to_hermitian(out1) - np.diag([0, 1]))) < 1e-14
    uniform = GptVector(system(Classical(2)), [0.5, 1.0])
    mixed = apply(prep, uniform)
    assert np.max(np.abs(vector_to_hermitian(mixed) - np.eye(2) / 2)) < 1e-14
    assert trace_condition_check(prep, "preserving").accepted
    with pytest.raises(ValueError):
        preparation_map([_vec(np.diag([2.0, 0.0]))])


def test_preparation_map_applies_tol_to_composite_states():
    # <11| s |11> = -1e-6 is the lowest value of s on product effects
    s = hermitian_tensor_to_vector(np.diag([0.5, 0.25, 0.25 + 1e-6, -1e-6]), (2, 2))
    assert composite_state_check(s).margin == pytest.approx(-1e-6, abs=1e-12)
    prep = preparation_map([s, s], tol=1e-3)
    assert np.allclose(apply(prep, classical_point(2, 0)).coeffs, s.coeffs, atol=1e-15)
    with pytest.raises(ValueError, match="invalid prepared state"):
        preparation_map([s, s])


def test_copy_map_examples():
    cp = copy_map(2)
    for i in range(2):
        out = apply(cp, classical_point(2, i))
        expected = tensor(classical_point(2, i), classical_point(2, i))
        assert np.allclose(out.coeffs, expected.coeffs, atol=1e-14)
    s = GptVector(system(Classical(2)), [0.3, 1.0])
    copied = apply(cp, s)
    marg = steer(copied, unit_effect(system(Classical(2))), on=(1,))
    assert np.allclose(marg.coeffs, s.coeffs, atol=1e-14)
    # uniform bit copies to perfect correlation: p(00) = p(11) = 1/2
    twob = apply(cp, GptVector(system(Classical(2)), [0.5, 1.0]))
    rays = effect_cone_rays(Classical(2))
    joint = np.array([
        [pair(tensor(rays[i], rays[j]), twob) for j in range(2)] for i in range(2)
    ])
    assert np.allclose(joint, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)
    corr = joint[0, 0] + joint[1, 1] - joint[0, 1] - joint[1, 0]
    assert corr == pytest.approx(1.0)


def test_partial_apply_classical():
    ct = controlled_map([identity_map(Q2), transpose_map(2)])
    t1 = partial_apply_classical(ct, 1)
    assert np.allclose(t1.matrix, transpose_map(2).matrix, atol=1e-14)
    with pytest.raises(ValueError):
        partial_apply_classical(transpose_map(2), 0)


def test_builtin_map_registry():
    assert builtin_map("transpose2").domain == Q2
    assert builtin_map("unot3").domain == system(Quantum(3))
    assert builtin_map("copy3").codomain == system(Classical(3), Classical(3))
    pm = builtin_map("pauli-meas")
    assert pm.domain == system(Classical(3), Quantum(2))
    with pytest.raises(KeyError):
        builtin_map("nonsense")


# --- positive maps extend to composites (spot check) ------------------------------


def test_positive_box_maps_extend_to_composites():
    rng = np.random.default_rng(14)
    sys_pair = system(Boxworld(2, 2), Boxworld(2, 2))
    gens = cone_generators(sys_pair)
    for _ in range(10):
        t = random_positive_box_map(rng)
        assert positivity_check(t).accepted
        ext = compose_par(t, identity_map(system(Boxworld(2, 2))))
        for g in gens:
            assert composite_state_check(apply(ext, g)).accepted


def test_measurement_map_builds_a_config_only_for_a_composite_domain(monkeypatch):
    rays = effect_cone_rays(Classical(2))
    single = [rays[0], rays[1]]
    pairs = [tensor(a, b) for a in rays for b in rays]
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    assert measurement_map(single).matrix.shape == (2, 2)  # no search, no configuration
    with pytest.raises(ValueError, match="WITWORLD_SEED"):
        measurement_map(pairs)
    monkeypatch.setenv("WITWORLD_SEED", "0")
    assert measurement_map(pairs).matrix.shape == (4, 4)
    with pytest.raises(ValueError, match="tol"):
        measurement_map(pairs, tol=-1.0)
    with pytest.raises(ValueError, match="invalid outcome effect"):
        measurement_map(single, tol=-1.0)  # the atomic test at that tolerance

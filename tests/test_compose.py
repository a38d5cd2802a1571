"""Composite systems: tensoring, max-tensor membership, effects, steering."""

import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from witworld import (
    Boxworld,
    Classical,
    GptVector,
    LinearMap,
    Quantum,
    SearchConfig,
    box_pair_state,
    builtin_state,
    choi_matrix,
    compose_par,
    composite_effect_check,
    composite_state_check,
    cone_generators,
    effect_cone_rays,
    hermitian_basis,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    identity_map,
    pair,
    positivity_check,
    pr_state,
    probe_states,
    reduced_state,
    state_vertices,
    steer,
    system,
    tensor,
    tensor_all,
    transpose_map,
    unit_effect,
    unot_map,
    vector_to_hermitian,
    vector_to_hermitian_tensor,
)
from witworld import compose
from witworld.compose import (
    _bloch_scan,
    _effect_side_specs,
    _min_qubit_pair,
    _sphere_angles,
    _state_side_specs,
    _rank_one_effect_factors,
    minimize_product_form,
    plan,
)
from witworld.systems import coeffs_to_hermitian, hermitian_to_coeffs
from witworld.transforms import map_from_matrix_action, measurement_map, preparation_map

from conftest import (
    choi_witness,
    local_deterministic_box,
    planted_map,
    planted_witness,
    pr_box_table,
    random_decomposable_witness,
    random_density,
    random_hermitian,
    random_psd,
    random_box_effect,
    partial_transpose,
)

B22 = Boxworld(2, 2)
Q2 = Quantum(2)


def test_tensor_of_units_is_composite_unit():
    a, b = system(B22), system(Q2)
    assert np.allclose(
        tensor(unit_effect(a), unit_effect(b)).coeffs, unit_effect(a * b).coeffs
    )


def test_tensor_with_scalar_is_identity():
    v = pr_state()
    assert np.allclose(tensor(v, tensor_all([])).coeffs, v.coeffs)
    assert tensor(v, tensor_all([])).system == v.system


def test_tensor_associative():
    # exact on dyadic-valued data (all the flagship states and effects)
    a = pr_state()
    b = state_vertices(B22)[2]
    c = effect_cone_rays(B22)[1]
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.system == right.system
    assert np.array_equal(left.coeffs, right.coeffs)
    # and to the last ulp on arbitrary floats
    rng = np.random.default_rng(3)
    x = GptVector(system(B22), rng.normal(size=3))
    y = GptVector(system(Classical(2)), rng.normal(size=2))
    z = hermitian_to_vector(random_hermitian(rng, 2))
    np.testing.assert_allclose(
        tensor(tensor(x, y), z).coeffs, tensor(x, tensor(y, z)).coeffs, rtol=1e-15
    )


def test_product_of_vertices_is_in_cone():
    for v1, v2 in itertools.product(state_vertices(B22), repeat=2):
        prod = tensor(v1, v2)
        assert prod.coeffs.size == 9
        assert composite_state_check(prod).accepted


# --- composite state membership -------------------------------------------------


def test_pr_state_accepted_and_normalized():
    s = pr_state()
    res = composite_state_check(s)
    assert res.accepted
    assert res.margin >= -1e-12
    u = unit_effect(s.system)
    assert abs(pair(u, s) - 1.0) < 1e-15


def test_swap_half_accepted_with_near_zero_margin():
    res = composite_state_check(builtin_state("swap2"))
    assert res.accepted
    assert -1e-7 <= res.margin < 1e-3


def test_negative_product_matrix_rejected():
    v = hermitian_tensor_to_vector(-np.diag([1.0, 0, 0, 0]).astype(complex), (2, 2))
    res = composite_state_check(v)
    assert res.rejected
    assert res.margin < -0.9
    # the reported product effect reproduces the violation
    ray = res.witness
    assert pair(ray, v) == pytest.approx(res.margin, abs=1e-9)


def test_random_bipartite_quantum_states_accepted():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = hermitian_tensor_to_vector(random_density(rng, 4), (2, 2))
        res = composite_state_check(v)
        assert res.accepted
        assert res.margin >= -1e-9


def test_decomposable_witnesses_accepted():
    rng = np.random.default_rng(8)
    for _ in range(20):
        res = composite_state_check(random_decomposable_witness(rng))
        assert res.accepted
        assert res.margin >= -1e-7


def test_entangled_nonwitness_rejected():
    # A Bell projector minus too much identity is negative on some product state.
    amp = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    m = np.outer(amp, amp) - 0.3 * np.eye(4)
    res = composite_state_check(hermitian_tensor_to_vector(m, (2, 2)))
    assert res.rejected
    ray = res.witness
    val = pair(ray, hermitian_tensor_to_vector(m, (2, 2)))
    assert val < -1e-7


def test_mixed_box_quantum_composite():
    rng = np.random.default_rng(9)
    rho = hermitian_to_vector(random_density(rng, 2))
    for vert in state_vertices(B22):
        assert composite_state_check(tensor(vert, rho)).accepted
    neg = hermitian_to_vector(np.diag([1.0, -0.2]).astype(complex))
    res = composite_state_check(tensor(state_vertices(B22)[0], neg))
    assert res.rejected


def test_qutrit_pair_membership_is_inconclusive():
    # block positive, but no spectral certificate: the search decides
    v = hermitian_tensor_to_vector(choi_witness(), (3, 3))
    res = composite_state_check(v, SearchConfig(restarts=40))
    assert res.status == "inconclusive-accept"
    neg = hermitian_tensor_to_vector(-np.eye(9) / 9, (3, 3))
    assert composite_state_check(neg, SearchConfig(restarts=10)).rejected


def test_three_qubit_product_state_accepted_heuristically():
    rng = np.random.default_rng(11)
    v = tensor_all([hermitian_to_vector(random_density(rng, 2)) for _ in range(3)])
    res = composite_state_check(v, SearchConfig(restarts=60))
    assert res.passed
    assert res.margin >= -1e-9


def test_scalar_and_atomic_dispatch():
    assert composite_state_check(GptVector(system(), [0.5])).accepted
    assert composite_state_check(GptVector(system(), [-0.5])).rejected
    v = hermitian_to_vector(np.diag([1.0, -0.1]).astype(complex))
    assert composite_state_check(v).rejected


# --- qubit-pair search vs raw-matrix oracle --------------------------------------


def _product_min_oracle(mat, rng, tries=4000):
    """Minimum of <psi x phi| W |psi x phi> by raw complex linear algebra."""
    best = np.inf
    w = mat.reshape(2, 2, 2, 2)
    for _ in range(tries):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        for _ in range(60):
            m_b = np.einsum("i,ijkl,k->jl", psi.conj(), w, psi)
            vals, vecs = np.linalg.eigh(m_b)
            phi = vecs[:, 0]
            m_a = np.einsum("j,ijkl,l->ik", phi.conj(), w, phi)
            vals, vecs = np.linalg.eigh(m_a)
            new = vecs[:, 0]
            if abs(abs(np.vdot(new, psi)) - 1.0) < 1e-12:
                psi = new
                break
            psi = new
        val = np.real(np.einsum("i,j,ijkl,k,l", psi.conj(), phi.conj(), w, psi, phi))
        best = min(best, val)
    return best


def test_pair_search_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    for _ in range(6):
        m = random_hermitian(rng, 4)
        res = composite_state_check(hermitian_tensor_to_vector(m, (2, 2)))
        oracle = _product_min_oracle(m, np.random.default_rng(99), tries=60)
        assert res.margin == pytest.approx(oracle, abs=1e-7)


def test_margin_stable_across_grid_resolutions():
    # the descent does the real work; coarse and fine grids must agree
    rng = np.random.default_rng(22)
    for _ in range(10):
        v = random_decomposable_witness(rng)
        fine = composite_state_check(v, SearchConfig(grid=180))
        coarse = composite_state_check(v, SearchConfig(grid=45))
        assert fine.status == coarse.status
        assert fine.margin == pytest.approx(coarse.margin, abs=1e-9)


def test_mixed_box_and_qubit_pair_engine():
    # vertex (x) W: the minimum is min(0, pair margin of W), since the box
    # rays score 0 or 1 on a vertex and factor out of the product form
    rng = np.random.default_rng(23)
    vert = state_vertices(B22)[1]
    for shift in (0.0, 0.07):
        m = partial_transpose(np.outer(*2 * [np.array([0, 1, -1, 0]) / np.sqrt(2)]))
        m = m - shift * np.eye(4)
        w = tensor(vert, hermitian_tensor_to_vector(m, (2, 2)))
        res = composite_state_check(w)
        pair_margin = composite_state_check(hermitian_tensor_to_vector(m, (2, 2))).margin
        assert res.margin == pytest.approx(min(0.0, pair_margin), abs=1e-9)
        assert res.rejected == (shift > 0)


# --- Bloch scan and stacked qubit-pair descent ------------------------------------


def _reference_grid(n_theta):
    """The scan's directions as one (4, G) array of columns (1, n), as the scan orders them."""
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
    return grid


def _reference_scan(C, grid):
    """The scan over (G, 4) rows of projector coefficients, one row per direction."""
    points = grid.T / np.sqrt(2.0)
    q = points @ C
    vals = (q[:, 0] - np.linalg.norm(q[:, 1:], axis=1)) / np.sqrt(2.0)
    g = int(np.argmin(vals))
    return float(vals[g]), g


def test_scan_matches_reference_formula():
    rng = np.random.default_rng(1)
    grid = _reference_grid(24)
    for _ in range(10):
        C = rng.normal(size=(4, 4))
        val, idx, _ = _bloch_scan(C, 24)
        ref_val, ref_idx = _reference_scan(C, grid)
        assert val == pytest.approx(ref_val, abs=1e-12)
        assert idx == ref_idx


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
def test_scan_direction_is_the_reference_column(scale):
    # the direction is rebuilt from the angles with the reference grid's
    # own products, so it matches that column bit for bit
    rng = np.random.default_rng(3)
    grid = _reference_grid(180)
    for _ in range(20):
        C = scale * rng.normal(size=(4, 4))
        val, idx, col = _bloch_scan(C, 180)
        ref_val, ref_idx = _reference_scan(C, grid)
        assert idx == ref_idx
        assert np.array_equal(col, grid[:, ref_idx])
        assert val == pytest.approx(ref_val, rel=1e-15, abs=1e-15 * scale)


def test_scan_value_is_minimum_eigenvalue_of_steered_operator():
    # at each grid point the scan value equals the exact minimum of the
    # remaining rank-1 factor, computed here with raw matrix eigenvalues
    rng = np.random.default_rng(2)
    C = rng.normal(size=(4, 4))
    val, idx, col = _bloch_scan(C, 16)
    assert np.array_equal(col, _reference_grid(16)[:, idx])
    q = C.T @ col / np.sqrt(2.0)
    operator = np.einsum("k,kij->ij", q, hermitian_basis(2))
    assert val == pytest.approx(np.linalg.eigvalsh(operator).min(), abs=1e-12)


def test_ties_resolve_to_first_index():
    # C with zero rows 1-3 steers every direction, the axes too, to the same
    # operator: every value ties exactly, and the first grid direction wins
    for C in (np.zeros((4, 4)), np.diag([1.0, 0.0, 0.0, 0.0])):
        val, idx, col = _bloch_scan(C, 10)
        assert (val, idx) == (C[0, 0] / 2.0, 0)
        assert np.array_equal(col, _reference_grid(10)[:, 0])


def test_grid_shape_and_poles():
    grid = _reference_grid(10)
    assert grid.shape == (4, 10 * 20 + 6)
    assert np.all(grid[0] == 1.0)
    assert np.max(np.abs(np.linalg.norm(grid[1:], axis=0) - 1.0)) < 1e-12
    axes = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    assert np.array_equal(grid[1:, -6:].T, axes)
    st, ct, cp, sp = _sphere_angles(10)
    assert [v.shape for v in (st, ct, cp, sp)] == [(10,), (10,), (20,), (20,)]
    assert not any(v.flags.writeable for v in (st, ct, cp, sp))
    assert np.array_equal(grid[1, :-6], np.outer(st, cp).ravel())
    assert np.array_equal(grid[2, :-6], np.outer(st, sp).ravel())
    assert np.array_equal(grid[3, :-6], np.repeat(ct, 20))


def _qubit_coeffs(n):
    return np.concatenate(([1.0], n)) / np.sqrt(2.0)


def _alternate_qubit_pair(C, n0, step_tol=1e-6):
    """Alternating closed-form descent of f(n, m) = p(n)^T C p(m) from one start."""
    n = n0
    m = np.array([0.0, 0.0, 1.0])
    for _ in range(300):
        q = C.T @ _qubit_coeffs(n)
        nq = np.linalg.norm(q[1:])
        m_new = -q[1:] / nq if nq > 1e-15 else m
        g = C @ _qubit_coeffs(m_new)
        ng = np.linalg.norm(g[1:])
        n_new = -g[1:] / ng if ng > 1e-15 else n
        step = max(np.linalg.norm(n_new - n), np.linalg.norm(m_new - m))
        n, m = n_new, m_new
        if step < step_tol:
            break
    return float(_qubit_coeffs(n) @ C @ _qubit_coeffs(m))


def _reference_min_qubit_pair(C, cfg):
    """One descent per start: the scan's argmin, then the six axis directions."""
    grid = _reference_grid(cfg.grid)
    _, g = _reference_scan(C, grid)
    best = np.inf
    for i in [g] + list(range(grid.shape[1] - 6, grid.shape[1])):
        val = _alternate_qubit_pair(C, grid[1:, i].copy())
        if val < best:
            best = val
    return best


def test_stacked_qubit_pair_matches_per_start_loop():
    rng = np.random.default_rng(31)
    mats = [rng.normal(size=(4, 4)) for _ in range(200)]
    mats += [random_decomposable_witness(rng).coeffs.reshape(4, 4) for _ in range(20)]
    mats += [
        builtin_state("swap2").coeffs.reshape(4, 4),
        transpose_map(2).matrix,
        unot_map(2).matrix,
        hermitian_tensor_to_vector(choi_matrix(transpose_map(2)), (2, 2)).coeffs.reshape(4, 4),
        hermitian_tensor_to_vector(choi_matrix(unot_map(2)), (2, 2)).coeffs.reshape(4, 4),
        np.eye(4),                 # every start ties
        np.zeros((4, 4)),          # every direction update keeps the previous one
        np.diag([1.0, 0, 0, 0]),
    ]
    cfg = SearchConfig()
    for C in mats:
        val, (pn, pm) = _min_qubit_pair(C, cfg)
        ref = _reference_min_qubit_pair(C, cfg)
        assert val == pytest.approx(ref, abs=1e-12)
        assert (val >= -cfg.tol) == (ref >= -cfg.tol)
        assert pn @ C @ pm == pytest.approx(val, abs=1e-12)
        assert np.linalg.norm(pn[1:]) == pytest.approx(np.sqrt(0.5))
        assert np.linalg.norm(pm[1:]) == pytest.approx(np.sqrt(0.5))


def test_qubit_pair_search_keeps_no_grid():
    # the scan works a block of directions at a time and keeps only its
    # angle vectors, so a warmed-up search at the default grid of 64806
    # directions allocates far less than one value per direction (518 KB)
    C = np.random.default_rng(7).normal(size=(4, 4))
    cfg = SearchConfig()
    _min_qubit_pair(C, cfg)
    tracemalloc.start()
    try:
        _min_qubit_pair(C, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def _haar_qubit(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("seed", range(50))
def test_qubit_pair_minimum_reaches_a_planted_product(seed):
    # a decomposable witness pushed negative on one product vector a x b
    rng = np.random.default_rng(500 + seed)
    w = vector_to_hermitian_tensor(random_decomposable_witness(rng))
    a, b = _haar_qubit(rng), _haar_qubit(rng)
    ab = np.kron(a, b)
    w = w - (np.real(ab.conj() @ w @ ab) + rng.uniform(0.02, 0.2)) * np.outer(ab, ab.conj())
    witness = hermitian_tensor_to_vector(w, (2, 2))
    C = witness.coeffs.reshape(4, 4)
    planted = (hermitian_to_vector(np.outer(a, a.conj())).coeffs @ C
               @ hermitian_to_vector(np.outer(b, b.conj())).coeffs)
    val, (pn, pm) = _min_qubit_pair(C, SearchConfig())
    assert val <= planted + 1e-12
    assert pair(witness, tensor(GptVector(system(Q2), pn), GptVector(system(Q2), pm))) \
        == pytest.approx(val, abs=1e-12)
    for p in (pn, pm):
        assert p[0] == pytest.approx(np.sqrt(0.5))
        assert np.linalg.norm(p[1:]) == pytest.approx(np.sqrt(0.5))


@pytest.mark.parametrize("atoms", [(B22, B22), (Q2, Q2), (Q2, Quantum(3))])
def test_engine_rejects_non_finite_coefficients(atoms):
    # finite generators, the qubit-pair search and the random restarts
    specs = _effect_side_specs(atoms)
    dim = system(*atoms).dim
    cfg = SearchConfig(restarts=3)
    for bad in (np.nan, np.inf, -np.inf):
        coeffs = np.full(dim, 0.1)
        coeffs[dim // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            minimize_product_form(coeffs, specs, cfg)
    with pytest.raises(ValueError, match="finite"):
        minimize_product_form(np.full(dim, np.nan), specs, cfg)
    assert np.isfinite(minimize_product_form(np.full(dim, 0.1), specs, cfg).value)


# --- composite effects -----------------------------------------------------------


def test_product_effect_accepted_via_certificate():
    rays = effect_cone_rays(B22)
    e = tensor(rays[0], rays[0])
    res = composite_effect_check(e, certified_separable=[(1.0, [rays[0], rays[0]])])
    assert res.accepted
    assert "certificate" in res.detail


def test_product_effect_auto_certified():
    rays = effect_cone_rays(B22)
    res = composite_effect_check(tensor(rays[0], rays[0]))
    assert res.accepted


def _generator_margin(e):
    vals = [pair(e, s) for s in cone_generators(e.system)]
    return min(min(vals), 1.0 - max(vals))


def test_product_effects_get_their_true_margin_where_the_test_is_exact():
    # on B2,2*B2,2 the vertex products and PR boxes generate the cone
    rays = effect_cone_rays(B22)
    u = unit_effect(system(B22)).coeffs
    rng = np.random.default_rng(23)
    for _ in range(10):
        f, g = (GptVector(system(B22), a * u + b * rays[int(rng.integers(4))].coeffs)
                for a, b in rng.dirichlet([1.0, 1.0, 1.0], size=2)[:, :2])
        e = tensor(f, g)
        res = composite_effect_check(e)
        assert res.accepted
        assert res.margin == pytest.approx(_generator_margin(e), abs=1e-12)
        assert res.margin > 0.0
    # on C2*Q3 every state is a mixture of products
    c2q3 = system(Classical(2), Quantum(3))
    res = composite_effect_check(GptVector(c2q3, 0.25 * unit_effect(c2q3).coeffs))
    assert res.accepted
    assert res.margin == pytest.approx(0.25, abs=1e-12)
    f = GptVector(system(Classical(2)), np.array([0.3, 0.5]))  # 0.8 on point 0, 0.5 on 1
    g = hermitian_to_vector(np.diag([0.9, 0.5, 0.6]).astype(complex))
    res = composite_effect_check(tensor(f, g))
    assert res.accepted
    assert res.margin == pytest.approx(0.25, abs=1e-12)
    res = composite_effect_check(GptVector(c2q3, np.zeros(c2q3.dim)))
    assert res.accepted and res.margin == 0.0


def test_unit_effect_accepted():
    res = composite_effect_check(unit_effect(system(B22, B22)))
    assert res.accepted
    res = composite_effect_check(unit_effect(system(Q2, Q2)))
    assert res.accepted


def test_scaled_product_effect_rejected():
    rays = effect_cone_rays(B22)
    e = GptVector(system(B22, B22), 1.5 * tensor(rays[0], rays[0]).coeffs)
    res = composite_effect_check(e)
    assert res.rejected
    # the detail is a shared string; the margin and the witness carry the 1.5
    assert res.margin == pytest.approx(-0.5, abs=1e-12)
    assert pair(e, res.witness) == pytest.approx(1.5, abs=1e-12)


def test_product_effects_with_factors_of_different_sizes_get_the_certificate():
    # the split scales every factor but the last to a largest value of 1 on
    # states; an even split left a factor above the unit effect
    def scaled(atom, c):
        return GptVector(system(atom), c * unit_effect(system(atom)).coeffs)

    for e in (tensor(scaled(B22, 1.0), scaled(Q2, 0.9)), unit_effect(system(Q2, Q2, Q2)),
              unit_effect(system(B22, B22, Q2))):
        res = composite_effect_check(e)
        assert (res.status, res.margin, res.detail) == (
            "accepted", 0.0, "product-effect certificate"), e.system
    for e, over in ((tensor(scaled(B22, 1.0), scaled(Q2, 1.1)), 0.1),
                    (tensor_all([scaled(Q2, 1.0), scaled(Q2, 1.0), scaled(Q2, 1.01)]), 0.01)):
        res = composite_effect_check(e)
        assert res.rejected, e.system
        assert res.margin == pytest.approx(-over, abs=1e-12)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-13, 1e-15, 1e-100])
def test_product_effect_certificate_does_not_depend_on_the_effect_size(c):
    # the split's cut-offs are relative to the effect's unit size
    e = GptVector(system(Q2, Q2, Q2), c * unit_effect(system(Q2, Q2, Q2)).coeffs)
    res = composite_effect_check(e)
    assert (res.status, res.margin, res.detail) == ("accepted", 0.0, "product-effect certificate")
    assert _rank_one_effect_factors(GptVector(e.system, np.zeros(e.system.dim))) is None


def test_separable_mixture_inconclusive_without_certificate_then_certified():
    rays = effect_cone_rays(B22)
    terms = [(0.5, [rays[0], rays[0]]), (0.5, [rays[3], rays[3]])]
    e = GptVector(
        system(B22, B22),
        0.5 * tensor(rays[0], rays[0]).coeffs + 0.5 * tensor(rays[3], rays[3]).coeffs,
    )
    heuristic = composite_effect_check(e)
    assert heuristic.status == "accepted"
    certified = composite_effect_check(e, certified_separable=terms)
    assert certified.accepted


def test_classical_quantum_nonproduct_effect_accepted():
    # e = |0><0| x A + |1><1| x B on C2*Q3 with non-commuting A, B: not a
    # product, valid because every C2*Q3 state is a mixture of products
    # and 0 <= A, B <= I
    rng = np.random.default_rng(12)
    a, b = (hermitian_to_vector(0.9 * random_density(rng, 3)) for _ in range(2))
    c2 = effect_cone_rays(Classical(2))
    e = GptVector(system(Classical(2), Quantum(3)),
                  np.kron(c2[0].coeffs, a.coeffs) + np.kron(c2[1].coeffs, b.coeffs))
    res = composite_effect_check(e)
    assert res.status == "accepted"
    assert res.margin >= 0.0
    assert composite_effect_check(GptVector(e.system, -e.coeffs)).rejected


def test_bad_certificate_falls_back():
    rays = effect_cone_rays(B22)
    e = tensor(rays[0], rays[0])
    res = composite_effect_check(e, certified_separable=[(2.0, [rays[0], rays[0]])])
    # weight sum 2 > 1 invalidates the certificate but the effect itself is fine
    assert res.passed
    with pytest.raises(ValueError):
        composite_effect_check(e, certified_separable=[(1.0, [rays[0]])])


def test_correlation_functional_rejected_on_probe_state():
    # A functional bounded by [0, 1] on every product state but exceeding 1
    # on the PR probe; only the probe corpus can catch it.
    rays = effect_cone_rays(B22)
    diff = [rays[0].coeffs - rays[1].coeffs, rays[2].coeffs - rays[3].coeffs]
    chsh = np.zeros(9)
    for x, y in itertools.product(range(2), repeat=2):
        chsh += (-1) ** (x * y) * np.kron(diff[x], diff[y])
    u = unit_effect(system(B22, B22)).coeffs
    e = GptVector(system(B22, B22), (chsh + 2 * u) / 4.0)
    res = composite_effect_check(e)
    assert res.rejected
    assert pair(e, res.witness) == pytest.approx(1.5, abs=1e-12)


def test_quantum_effect_pair_checks():
    p = hermitian_to_vector(np.diag([1.0, 0.0]).astype(complex))
    res = composite_effect_check(tensor(p, p))
    assert res.accepted
    big = GptVector(system(Q2, Q2), 1.9 * tensor(p, p).coeffs)
    assert composite_effect_check(big).rejected


def test_entangled_projector_is_not_a_valid_effect():
    # nonnegative on every product state, but pairs at -1/2 with the
    # partially transposed singlet, which is itself a valid state here;
    # the PPT test finds it exactly
    amp = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    bell_effect = hermitian_tensor_to_vector(np.outer(amp, amp), (2, 2))
    res = composite_effect_check(bell_effect)
    assert res.rejected
    assert res.margin == pytest.approx(-0.5, abs=1e-12)
    assert pair(bell_effect, res.witness) == pytest.approx(-0.5, abs=1e-12)


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_local_effect(rng, d):
    u = _random_unitary(rng, d)
    return u @ np.diag(rng.uniform(0.0, 1.0, size=d)) @ u.conj().T


def _random_effects(rng, d1, d2, count):
    """(kind, matrix) pairs: random 0 <= E <= I, separable mixtures
    (valid by construction) and entangled pure projectors (invalid)."""
    n = d1 * d2
    out = []
    for i in range(count):
        kind = ("any", "separable", "entangled")[i % 3]
        if kind == "any":
            u = _random_unitary(rng, n)
            m = u @ np.diag(rng.uniform(0.0, 1.0, size=n)) @ u.conj().T
        elif kind == "separable":
            weights = rng.dirichlet(np.ones(3)) * rng.uniform(0.3, 1.0)
            m = sum(w * np.kron(_random_local_effect(rng, d1), _random_local_effect(rng, d2))
                    for w in weights)
        else:
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            m = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        out.append((kind, m))
    return out


def _product_search_effect_check(e, cfg):
    """The product-state search that decided these effects before the PPT
    test: the minima of e and u - e over product states plus the registered
    probe states.  Returns (status, margin); only a rejection is conclusive."""
    specs = _state_side_specs(e.atoms)
    lo = minimize_product_form(e.coeffs, specs, cfg).value
    hi = -minimize_product_form(-e.coeffs, specs, cfg).value
    vals = [lo, hi] + [pair(e, p) for p in probe_states(e.system)]
    margin = min(min(v, 1.0 - v) for v in vals)
    return ("rejected" if margin < -cfg.tol else "inconclusive-accept"), margin


def _assert_witness_replays(e, res, cfg):
    w = res.witness
    assert w.system == e.system
    assert composite_state_check(w, cfg).passed
    assert pair(unit_effect(w.system), w) == pytest.approx(1.0, abs=1e-9)
    val = pair(e, w)
    assert val < -cfg.tol or val > 1.0 + cfg.tol
    assert min(val, 1.0 - val) == pytest.approx(res.margin, abs=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_ppt_effect_test_is_at_least_as_strict_as_product_search(dims):
    rng = np.random.default_rng(sum(dims) * 10 + dims[0])
    cfg = SearchConfig(restarts=20, seed=1)
    rejected = 0
    for kind, m in _random_effects(rng, *dims, 69):
        e = hermitian_tensor_to_vector(m, dims)
        res = composite_effect_check(e, cfg=cfg)
        ref_status, ref_margin = _product_search_effect_check(e, cfg)
        assert res.status in ("accepted", "rejected")
        assert res.margin <= ref_margin + 1e-9
        if ref_status == "rejected":
            assert res.rejected
        if kind == "separable":
            assert res.accepted, res.describe()
        if kind == "entangled":
            assert res.rejected, res.describe()
        if res.rejected:
            rejected += 1
            _assert_witness_replays(e, res, cfg)
        else:
            assert res.witness is None
    assert rejected >= 23


def test_ppt_effect_margin_is_the_lowest_eigenvalue():
    rng = np.random.default_rng(8)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        for _, m in _random_effects(rng, *dims, 6):
            n = m.shape[0]
            mats = [m, np.eye(n) - m]
            mats += [partial_transpose(x, *dims) for x in mats]
            lowest = min(np.linalg.eigvalsh(x)[0] for x in mats)
            res = composite_effect_check(hermitian_tensor_to_vector(m, dims))
            assert res.margin == pytest.approx(lowest, abs=1e-12)


def test_ppt_gate_covers_only_small_quantum_pairs():
    Q3 = Quantum(3)
    for check in ("effect", "trace"):
        for atoms in ((Q2, Q2), (Q2, Q3), (Q3, Q2)):
            assert plan(check, (), atoms).methods == ("ppt",)
        for atoms in ((Q3, Q3), (Q2, Quantum(4)), (Q2, Q2, Q2), (Classical(2), Q2), (B22, Q2),
                      (Q2,)):
            assert "ppt" not in plan(check, (), atoms).methods


def test_tiles_bound_entangled_effect_is_never_accepted():
    # I minus the projector onto the five "Tiles" UPB vectors is PPT but
    # entangled, so it is not separable: an invalid effect on Q3*Q3 that a
    # PPT test would wrongly accept.
    k = np.eye(3)

    def minus(a, b):
        return (k[a] - k[b]) / np.sqrt(2)

    plus = k.sum(axis=0) / np.sqrt(3)
    tiles = [np.kron(k[0], minus(0, 1)), np.kron(minus(0, 1), k[2]),
             np.kron(k[2], minus(1, 2)), np.kron(minus(1, 2), k[0]), np.kron(plus, plus)]
    m = np.eye(9) - sum(np.outer(v, v) for v in tiles)
    for x in (m, np.eye(9) - m):
        assert np.linalg.eigvalsh(x)[0] > -1e-12
        assert np.linalg.eigvalsh(partial_transpose(x, 3, 3))[0] > -1e-12
    res = composite_effect_check(hermitian_tensor_to_vector(m, (3, 3)))
    assert res.status != "accepted"


def test_rejected_verdict_with_product_ray_witness_pickles():
    rays = effect_cone_rays(B22)
    e = GptVector(system(B22, B22), 1.5 * tensor(rays[0], rays[0]).coeffs)
    res = composite_effect_check(e)
    assert res.rejected and isinstance(res.witness, GptVector)
    assert not hasattr(res, "__dict__")
    back = pickle.loads(pickle.dumps(res))
    assert (back.status, back.margin, back.detail) == (res.status, res.margin, res.detail)
    assert back.witness.system == res.witness.system
    assert np.array_equal(back.witness.coeffs, res.witness.coeffs)


def test_two_qubit_probes_are_valid_states():
    for probe in probe_states(system(Q2, Q2)):
        res = composite_state_check(probe)
        assert res.accepted
        assert res.margin >= -1e-7


# --- steering (partial contraction) ----------------------------------------------


def test_steer_pr_state_gives_half_normalized_branch():
    s = pr_state()
    rays = effect_cone_rays(B22)
    out = steer(s, rays[0], on=(1,))
    assert out.system == system(B22)
    assert out.coeffs[-1] == pytest.approx(0.5)
    assert composite_state_check(out).accepted


def test_steer_with_unit_reduces_product_state():
    rng = np.random.default_rng(31)
    rho = hermitian_to_vector(random_density(rng, 2))
    vert = state_vertices(B22)[1]
    prod = tensor(vert, rho)
    red = steer(prod, unit_effect(system(Q2)), on=(1,))
    assert np.allclose(red.coeffs, vert.coeffs, atol=1e-14)
    red2 = reduced_state(prod, keep=[1])
    assert np.allclose(red2.coeffs, rho.coeffs, atol=1e-14)


def test_steer_swap_reproduces_partial_trace_formula():
    sw = builtin_state("swap2")
    p0 = hermitian_to_vector(np.diag([1.0, 0.0]).astype(complex))
    out = steer(sw, p0, on=(1,))
    assert np.max(np.abs(vector_to_hermitian(out) - np.diag([0.5, 0.0]))) < 1e-14


def test_steer_errors():
    s = pr_state()
    e = effect_cone_rays(B22)[0]
    with pytest.raises(IndexError):
        steer(s, e, on=(5,))
    with pytest.raises(ValueError):
        steer(s, unit_effect(system(Q2)), on=(0,))


def test_reduced_state_rejects_out_of_range_keep():
    s = builtin_state("singlet")
    for keep in ([5], [-1], [0, 2]):
        with pytest.raises(IndexError):
            reduced_state(s, keep)
    assert reduced_state(s, [0]).system == system(Q2)


def test_steer_non_contiguous_factors():
    rng = np.random.default_rng(33)
    a = GptVector(system(B22), rng.normal(size=3))
    b = hermitian_to_vector(random_hermitian(rng, 2))
    c = GptVector(system(Classical(2)), rng.normal(size=2))
    state = tensor_all([a, b, c])
    f = effect_cone_rays(B22)[2]
    g = effect_cone_rays(Classical(2))[1]
    out = steer(state, tensor(f, g), on=(0, 2))
    expected = pair(f, a) * pair(g, c)
    assert out.system == system(Q2)
    assert np.allclose(out.coeffs, expected * b.coeffs, atol=1e-13)


def test_steered_states_stay_subnormalized_in_cone():
    rng = np.random.default_rng(32)
    gens = cone_generators(system(B22, B22))
    u = unit_effect(system(B22))
    for _ in range(60):
        weights = rng.dirichlet(np.ones(len(gens)))
        state = GptVector(system(B22, B22), sum(w * g.coeffs for w, g in zip(weights, gens)))
        eff = random_box_effect(rng)
        out = steer(state, eff, on=(rng.integers(2),))
        assert composite_state_check(out).accepted or out.coeffs[-1] < 1e-12
        assert -1e-9 <= pair(u, out) <= 1.0 + 1e-9


# --- probe corpus ----------------------------------------------------------------


def test_probe_states_are_cone_members():
    for probe in probe_states(system(B22, B22)):
        res = composite_state_check(probe)
        assert res.accepted
        assert res.margin >= -1e-12


def test_box_pair_state_round_trip_against_tables():
    table = pr_box_table()
    s = box_pair_state(table)
    rays = effect_cone_rays(B22)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        e = tensor(rays[2 * x + a], rays[2 * y + b])
        assert pair(e, s) == pytest.approx(table[a, b, x, y], abs=1e-12)
    with pytest.raises(ValueError):
        box_pair_state(np.full((2, 2, 2, 2), 0.3))


def test_local_boxes_are_probe_free_members():
    for fa, fb in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
        s = box_pair_state(local_deterministic_box(fa, fb))
        assert composite_state_check(s).accepted


def test_partial_transpose_of_singlet_accepted_but_not_psd():
    pt = builtin_state("singlet-pt")
    res = composite_state_check(pt)
    assert res.accepted and res.margin >= -1e-7
    assert np.linalg.eigvalsh(vector_to_hermitian_tensor(pt)).min() == pytest.approx(-0.5, abs=1e-10)
    # sanity for the helper itself
    m = vector_to_hermitian_tensor(builtin_state("singlet"))
    assert np.max(np.abs(partial_transpose(m) - vector_to_hermitian_tensor(pt))) < 1e-12


# --- partial transposes from one layout ----------------------------------------------


def _subsets(n):
    return [s for k in range(n) for s in itertools.combinations(range(1, n), k)]


def _reference_spectral_bound(mats, dims):
    """spectral_bound from one _partial_transpose per subset, concatenated."""
    subsets = _subsets(len(dims))
    stack = np.concatenate([compose._partial_transpose(mats, dims, s) for s in subsets])
    lows = np.linalg.eigvalsh(stack)[:, 0].reshape(len(subsets), len(mats))
    return float(lows.max(axis=0).min())


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)])
def test_spectral_bound_through_the_layout_matches_per_subset_transposes(dims, count):
    rng = np.random.default_rng(math.prod(dims) * 10 + len(dims) + count)
    total, n = math.prod(dims), len(dims)
    layout = compose._transposes(dims)
    assert compose._transposes(dims) is layout and not layout.flags.writeable
    m = random_hermitian(rng, total)
    for row, s in zip(layout, _subsets(n), strict=True):
        assert m.reshape(-1)[row].tobytes() == compose._partial_transpose(m, dims, s).tobytes()
    psd = [random_psd(rng, total) for _ in range(4)]
    kinds = [random_hermitian(rng, total), psd[0],
             psd[1] + compose._partial_transpose(psd[2], dims, (n - 1,)),
             compose._partial_transpose(psd[3], dims, (1,)) + 0.01 * np.eye(total)]
    for picks in itertools.combinations(range(len(kinds)), count):
        mats = np.stack([kinds[i] for i in picks])
        assert compose.spectral_bound(mats, dims) == _reference_spectral_bound(mats, dims)


@pytest.mark.parametrize("offset", [None, 1.0])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2)])
def test_ppt_candidates_keep_their_order_and_values(dims, offset):
    rng = np.random.default_rng(sum(dims) + len(dims))
    total = math.prod(dims)
    for m in (random_hermitian(rng, total), random_density(rng, total)):
        coeffs = hermitian_to_coeffs(m, dims)
        found = compose._ppt_min(coeffs, dims, offset)
        mat = coeffs_to_hermitian(coeffs, dims)
        mats = mat[None] if offset is None else np.stack([mat, offset * np.eye(total) - mat])
        vals, vecs = np.linalg.eigh(np.concatenate([mats, compose._partial_transpose(mats, dims)]))
        assert [value for value, _ in found] == [float(v) for v in vals[:, 0]]
        for i, (_, pick) in enumerate(found):
            w = np.outer(vecs[i, :, 0], vecs[i, :, 0].conj())
            w = compose._partial_transpose(w, dims) if i >= len(mats) else w
            effect, state = pick()
            assert effect is None
            assert state.coeffs.tobytes() == hermitian_tensor_to_vector(w, dims).coeffs.tobytes()


# --- the gate operator: one product per shape and gate, the same bits ---------------

_Q2, _Q3 = Quantum(2), Quantum(3)

# (check, effect atoms, state atoms, gate): every shape a cached gate operator serves.
# A map's effect atoms are its codomain and its state atoms its domain.
_CACHED_GATES = (
    ("state", (_Q2, _Q3), (), "spectral"),
    ("state", (_Q3, _Q2), (), "spectral"),
    ("state", (_Q3, _Q3), (), "spectral"),
    ("state", (_Q2, _Q2, _Q2), (), "spectral"),
    ("positivity", (_Q2,), (_Q3,), "spectral"),
    ("positivity", (_Q3,), (_Q2,), "spectral"),
    ("positivity", (_Q3,), (_Q3,), "spectral"),
    ("positivity", (_Q2,), (_Q2, _Q2), "spectral-ppt"),
)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float).tobytes()


def _gate_inputs(rng, dims):
    """A stack of forms: a random one, a PSD one, a PPT one and a tiny one."""
    total = math.prod(dims)
    mats = [random_hermitian(rng, total), random_psd(rng, total),
            compose._partial_transpose(random_psd(rng, total), dims) + 1e-3 * np.eye(total),
            1e-200 * random_hermitian(rng, total)]
    return hermitian_to_coeffs(np.stack(mats), dims)


@pytest.mark.parametrize("check, effect_atoms, state_atoms, gate", _CACHED_GATES)
def test_gate_operator_gives_the_bits_of_conversion_and_layout(check, effect_atoms,
                                                               state_atoms, gate):
    steps = plan(check, effect_atoms, state_atoms)
    dims = steps.dims
    operator = compose._gate_operator(dims, gate)
    assert gate in steps.methods and operator is not None
    assert compose._gate_operator(dims, gate) is operator and not operator[0].flags.writeable
    merged = dims[:-2] + (dims[-2] * dims[-1],)
    coeffs = _gate_inputs(np.random.default_rng(math.prod(dims) + len(dims)), dims)
    mats = coeffs_to_hermitian(coeffs, dims)
    # the matrices, on the stack and one at a time, as conversion then layout takes them
    if gate == "spectral":
        layout = compose._transposes(dims)
        want = mats.reshape(len(mats), -1)[:, layout].reshape(len(mats), 1, len(layout),
                                                              *mats.shape[1:])
    else:
        pairs = compose._with_last_transposed(mats, dims).reshape(2, len(mats), -1)
        layout = compose._transposes(merged)
        want = np.swapaxes(pairs[:, :, layout], 0, 1).reshape(len(mats), 2, len(layout),
                                                                *mats.shape[1:])
    assert _bits(compose._gate_matrices(coeffs, operator)) == _bits(want)
    for c, w in zip(coeffs, want):
        assert _bits(compose._gate_matrices(c, operator)) == _bits(w)
        # the bound, as conversion and spectral_bound give it
        ref = (compose.spectral_bound(coeffs_to_hermitian(c, dims)[None], dims)
               if gate == "spectral" else
               compose.spectral_bound(compose._with_last_transposed(
                   coeffs_to_hermitian(c, dims)[None], dims), merged))
        assert _bits(compose.certificate_bound(c, steps)) == _bits(ref)


@pytest.mark.parametrize("offset", [None, 1.0])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_ppt_operator_gives_the_bits_of_conversion_and_last_transpose(dims, offset):
    operator = compose._gate_operator(dims, "ppt")
    coeffs = _gate_inputs(np.random.default_rng(10 * sum(dims) + (offset is None)), dims)
    mats = coeffs_to_hermitian(coeffs, dims)
    got = compose._gate_matrices(coeffs, operator)
    assert got.shape == (len(mats), 2, 1) + mats.shape[1:]
    want = compose._with_last_transposed(mats, dims).reshape(2, *mats.shape)
    assert _bits(got[:, :, 0]) == _bits(np.swapaxes(want, 0, 1))
    total = mats.shape[-1]
    for c, mat in zip(coeffs, mats):
        assert _bits(compose._gate_matrices(c, operator)[:, 0]) == _bits(
            compose._with_last_transposed(mat[None], dims))
        # the candidates formed the other way round: complement, then last transpose
        stack = mat[None] if offset is None else np.stack([mat, offset * np.eye(total) - mat])
        vals = np.linalg.eigh(compose._with_last_transposed(stack, dims))[0][:, 0]
        assert _bits([v for v, _ in compose._ppt_min(c, dims, offset)]) == _bits(vals)


def test_transpose2_x_id_certifies_through_the_general_path(monkeypatch):
    t = compose_par(transpose_map(2), identity_map(system(_Q2)))
    steps = plan("positivity", t.codomain.atoms, t.domain.atoms)
    dims = steps.dims
    assert dims == (2, 2, 2, 2) and "spectral-ppt" in steps.methods
    assert compose._gate_operator(dims, "spectral-ppt") is None
    coeffs = t.matrix.reshape(-1)
    ref = compose.spectral_bound(compose._with_last_transposed(
        coeffs_to_hermitian(coeffs, dims)[None], dims), (2, 2, 4))
    taken = []
    bound = compose.spectral_bound

    def spy(mats, dims):
        taken.append(dims)
        return bound(mats, dims)

    monkeypatch.setattr(compose, "spectral_bound", spy)
    verdict = positivity_check(t)
    assert verdict.accepted and verdict.detail == compose._CERTIFIED
    assert taken == [(2, 2, 4)] and _bits(verdict.margin) == _bits(ref)


# --- stacked restart descent --------------------------------------------------------


def _reference_projector_coeffs(psi):
    proj = np.outer(psi, psi.conj())
    return np.real(np.einsum("kij,ji->k", hermitian_basis(psi.shape[0]), proj))


def _reference_descent(red, qdims, psis):
    coeff_vecs = [_reference_projector_coeffs(p) for p in psis]
    val = np.inf
    for _ in range(200):
        prev = val
        for i in range(len(qdims)):
            t = red
            for j in range(len(qdims) - 1, -1, -1):
                if j != i:
                    t = np.tensordot(coeff_vecs[j], t, axes=([0], [j]))
            mat = np.einsum("k,kij->ij", t.ravel(), hermitian_basis(qdims[i]))
            vals, vecs = np.linalg.eigh(mat)
            val = float(vals[0])
            coeff_vecs[i] = _reference_projector_coeffs(vecs[:, 0])
        if abs(prev - val) < 1e-13:
            break
    full = red
    for j in range(len(qdims) - 1, -1, -1):
        full = np.tensordot(coeff_vecs[j], full, axes=([0], [j]))
    return float(full), coeff_vecs


def _reference_min_quantum_general(red, qdims, cfg, rng):
    """One descent per restart, each from its own Haar-random start."""
    best_val, best_factors = np.inf, None
    for _ in range(cfg.restarts):
        psis = []
        for d in qdims:
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psis.append(psi / np.linalg.norm(psi))
        val, coeff_vecs = _reference_descent(red, qdims, psis)
        if val < best_val:
            best_val, best_factors = val, coeff_vecs
    return best_val, best_factors


# The stopping rule resolves a value to 1e-13, which pins the minimizing
# factors only to about its square root; restarts converged to the same
# minimum can also swap places as the winner by a rounding.
_FACTOR_ATOL = 1e-5


def _descent_tensor(gen, source, qdims):
    """A tensor over the factors ``qdims``: Gaussian, or a planted witness on
    Q_d1*Q_d2 or the positivity tensor of a planted map Q_d2 -> Q_d1."""
    shape = tuple(d * d for d in qdims)
    if source == "random":
        return gen.normal(size=shape)
    if source == "planted witness":
        return hermitian_tensor_to_vector(planted_witness(gen, *qdims), qdims).coeffs.reshape(shape)
    return planted_map(gen, qdims[1], qdims[0]).matrix


@pytest.mark.parametrize("source, qdims", [
    pytest.param("random", qdims, id=f"qdims{i}")
    for i, qdims in enumerate([[2, 3], [3, 3], [2, 2, 2], [3, 2], [2, 2, 2, 2]])] + [
    pytest.param(source, qdims, id=f"{source.replace(' ', '-')}-{qdims[0]}{qdims[1]}")
    for source, qdims in (("planted witness", [2, 3]), ("planted witness", [3, 3]),
                          ("planted map", [3, 3]), ("planted map", [3, 2]))])
@pytest.mark.parametrize("restarts", [1, 7, 40])
def test_stacked_descent_matches_per_restart_loop(source, qdims, restarts):
    from witworld.compose import _min_quantum_general

    entropy = restarts + 10 * len(qdims) + qdims[0]
    gen = np.random.default_rng(entropy if source == "random" else [entropy, len(source)])
    cfg = SearchConfig(restarts=restarts)
    for _ in range(3):
        red = _descent_tensor(gen, source, qdims)
        seed = int(gen.integers(2**31))
        rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        ref_val, ref_factors = _reference_min_quantum_general(red, qdims, cfg, rng_ref)
        val, factors = _min_quantum_general(red, qdims, cfg, rng_new)
        assert val == pytest.approx(ref_val, abs=1e-12)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        if source == "planted map":
            # restarts can reach distinct minimizers whose values agree to a
            # rounding, so the winner is checked by the value it gives
            assert factors[0] @ red @ factors[1] == pytest.approx(val, abs=1e-12)
            continue
        for f, g in zip(factors, ref_factors):
            assert np.allclose(f, g, atol=_FACTOR_ATOL)


@pytest.mark.parametrize("d_in, d_out", [(3, 2), (3, 3)])
@pytest.mark.parametrize("restarts", [1, 7, 40])
def test_stacked_descent_matches_on_degenerate_ground_spaces(d_in, d_out, restarts):
    # rho -> K rho^T K^dagger with K a block of a Haar unitary, the
    # positivity-check tensor: with one factor fixed, the other factor's
    # operator has rank one, so a qutrit factor's ground space is a plane;
    # "shift" subtracts shift * tr(rho) * I, which keeps it a plane
    from witworld.compose import _min_quantum_general

    gen = np.random.default_rng(100 * d_out + restarts)
    cfg = SearchConfig(restarts=restarts)
    for shift in (0.0, 0.3, 0.0):
        u = np.linalg.qr(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))[0]
        k = u[:d_out, :d_in]
        t = map_from_matrix_action(
            lambda m: k @ m.T @ k.conj().T - shift * np.trace(m) * np.eye(d_out), d_in, d_out)
        red = t.matrix
        seed = int(gen.integers(2**31))
        rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        ref_val, _ = _reference_min_quantum_general(red, [d_out, d_in], cfg, rng_ref)
        val, factors = _min_quantum_general(red, [d_out, d_in], cfg, rng_new)
        assert val == pytest.approx(ref_val, abs=1e-12)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        # eigh's pick inside a degenerate ground space is arbitrary, so the
        # winning factors are checked by what they give, not against it
        assert factors[0] @ red @ factors[1] == pytest.approx(val, abs=1e-12)
        for f, d in zip(factors, (d_out, d_in)):
            p = np.einsum("k,kij->ij", f, hermitian_basis(d))
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(p @ p, p, rtol=0, atol=1e-14)


def _eigh_ground_states(t):
    vals, vecs = np.linalg.eigh(np.einsum("rk,kij->rij", t, hermitian_basis(2)))
    return vals[:, 0], np.array([_reference_projector_coeffs(v) for v in vecs[:, :, 0]])


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
def test_qubit_ground_states_match_eigh(scale):
    from witworld.compose import _ground_states

    gen = np.random.default_rng(17)
    t = scale * gen.normal(size=(200, 4))
    prev = np.tile([1.0, 0.0, 0.0, 1.0], (200, 1)) / np.sqrt(2.0)
    vals, proj = _ground_states(t, prev)
    ref_vals, ref_proj = _eigh_ground_states(t)
    assert np.allclose(vals, ref_vals, rtol=0, atol=1e-14 * scale)
    assert np.allclose(proj, ref_proj, rtol=0, atol=1e-14)


def test_qubit_ground_states_keep_previous_direction_on_a_multiple_of_identity():
    from witworld.compose import QuantumGenerators, _ground_states

    gen = np.random.default_rng(19)
    t = np.zeros((50, 4))
    t[:, 0] = gen.normal(size=50)
    n = gen.normal(size=(50, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    prev = np.column_stack([np.ones(50), n]) / np.sqrt(2.0)
    vals, proj = _ground_states(t, prev)
    assert np.array_equal(vals, t[:, 0] / np.sqrt(2.0))
    assert np.allclose(proj, prev, rtol=0, atol=1e-15)
    # a lone qubit keeps +z, the ground state eigh returns for the identity
    res = minimize_product_form(np.array([1.0, 0.0, 0.0, 0.0]), [QuantumGenerators(2)],
                                SearchConfig())
    val, factors = res.value, res.factors
    assert val == 1.0 / np.sqrt(2.0)
    plus_z = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(factors[0], plus_z, rtol=0, atol=1e-16)
    # a qutrit keeps the whole previous row, and a lone qutrit keeps |0><0|
    t = np.zeros((50, 9))
    t[:, 0] = gen.normal(size=50)
    prev = np.array([_reference_projector_coeffs(_haar_vector(gen, 3)) for _ in range(50)])
    vals, proj = _ground_states(t, prev)
    assert np.array_equal(proj, prev)
    assert np.allclose(vals, t[:, 0] / np.sqrt(3.0), rtol=1e-15, atol=0)
    res = minimize_product_form(np.eye(1, 9).ravel(), [QuantumGenerators(3)], SearchConfig())
    val, factors = res.value, res.factors
    assert val == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
    zero = _reference_projector_coeffs(np.eye(3)[0])
    assert np.allclose(factors[0], zero, rtol=0, atol=1e-16)


def test_qutrit_ground_state_in_a_degenerate_ground_space():
    from witworld.compose import _ground_states

    # diag(1, 0, 0) from |0><0|: the ground space span(|1>, |2>) holds
    # nothing of the previous state, and still gives a ground state
    t = _operator_coeffs(np.diag([1.0, 0.0, 0.0]))[None]
    prev = _reference_projector_coeffs(np.eye(3)[0])[None]
    vals, proj = _ground_states(t, prev)
    assert vals[0] == pytest.approx(0.0, abs=1e-16)
    p = np.einsum("k,kij->ij", proj[0], hermitian_basis(3))
    assert np.allclose(p @ p, p, rtol=0, atol=1e-15) and abs(p[0, 0]) <= 1e-16


def _haar_vector(gen, d):
    psi = gen.normal(size=d) + 1j * gen.normal(size=d)
    return psi / np.linalg.norm(psi)


def _operator_coeffs(m):
    return np.real(np.einsum("kij,...ji->...k", hermitian_basis(m.shape[-1]), m))


def _qutrit_operators(gen, kind, n):
    """n Hermitian 3x3 operators of one kind, with unit-size spectra."""
    u = np.linalg.qr(gen.normal(size=(n, 3, 3)) + 1j * gen.normal(size=(n, 3, 3)))[0]
    if kind == "random":
        a = gen.normal(size=(n, 3, 3)) + 1j * gen.normal(size=(n, 3, 3))
        return (a + a.conj().transpose(0, 2, 1)) / 2
    if kind == "rank-1":
        return np.einsum("ri,rj->rij", u[:, :, 0], u[:, :, 0].conj())
    if kind == "identity":
        return np.tile(np.eye(3, dtype=complex), (n, 1, 1))
    if kind == "diagonal":
        # ground space a coordinate plane, top eigenvector a basis vector
        return np.array([np.diag(gen.permutation([-0.5, -0.5, 1.0])) for _ in range(n)],
                        dtype=complex)
    eigs = {"degenerate-top": [-1.0, 0.5, 0.5], "degenerate-bottom": [-0.5, -0.5, 1.0],
            # rank 2 with a zero eigenvalue: K rho^T K^dagger - c |chi><chi| of
            # a planted map on a pure input, and its valid part on a mixed one
            "rank-2 indefinite": [-0.6, 0.0, 1.0], "rank-2 positive": [0.0, 0.4, 1.0]}.get(kind)
    if kind.startswith("threshold"):
        # sin(phi) just above or below the threshold of _qutrit_projectors,
        # where it turns from eigh to the adjugate
        from witworld.compose import _PLANE_Q

        sin_phi = np.sin(np.arccos(_PLANE_Q) / 3.0)
        phi = np.arcsin(sin_phi * (1.0 + (1e-6 if kind.endswith("above") else -1e-6)))
        eigs = 0.3 + 0.5 * np.cos(phi + 2.0 * np.pi * np.arange(3) / 3.0)
    elif eigs is None:
        gap = float(kind.split()[-1])
        eigs = [0.2, 0.2 + gap, 1.0] if kind.startswith("bottom") else [-1.0, 0.2, 0.2 + gap]
    return np.einsum("rij,j,rkj->rik", u, eigs, u.conj())


_QUTRIT_KINDS = (["random", "rank-1", "identity", "diagonal", "degenerate-top",
                  "degenerate-bottom", "rank-2 indefinite", "rank-2 positive",
                  "threshold above", "threshold below"]
                 + [f"{side} gap {g}" for side in ("bottom", "top")
                    for g in (1e-14, 1e-12, 1e-8, 1e-4, 1e-2)])


@pytest.mark.parametrize("rows", [1, 2, 7, 500])
@pytest.mark.parametrize("scale", [1e-10, 1e-3, 1.0, 1e4, 1e10])
def test_qutrit_ground_states_match_eigh(rows, scale):
    from witworld.compose import _ground_states

    gen = np.random.default_rng(rows)
    prev = np.tile(_reference_projector_coeffs(np.eye(3)[0]), (rows, 1))
    for kind in _QUTRIT_KINDS:
        mats = scale * _qutrit_operators(gen, kind, rows)
        t = _operator_coeffs(mats)
        ref = np.linalg.eigvalsh(mats)
        size = np.abs(ref).max(axis=1)
        vals, proj = _ground_states(t, prev)
        assert np.all(np.abs(vals - ref[:, 0]) <= 1e-14 * size), kind
        rayleigh = np.einsum("rk,rk->r", t, proj)
        assert np.all(np.abs(rayleigh - ref[:, 0]) <= 1e-14 * size), kind
        p = np.einsum("rk,kij->rij", proj, hermitian_basis(3))
        assert np.allclose(np.trace(p, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-14), kind
        assert np.allclose(p @ p, p, rtol=0, atol=1e-14), kind


def _plane_rows(monkeypatch):
    """Count the qutrit rows of every ground-state call, and those sent to ``eigh``."""
    import witworld.compose as compose

    rows, plane = [], []
    kernel, eigh = compose._qutrit_projectors, compose._eigh_ground

    def counted_kernel(t, tt):
        rows.append(len(t))
        return kernel(t, tt)

    def counted_eigh(t):
        if t.shape[1] == 9:
            plane.append(len(t))
        return eigh(t)

    monkeypatch.setattr(compose, "_qutrit_projectors", counted_kernel)
    monkeypatch.setattr(compose, "_eigh_ground", counted_eigh)
    return rows, plane


def test_qutrit_branch_turns_at_the_threshold(monkeypatch):
    from witworld.compose import _ground_states

    _, plane = _plane_rows(monkeypatch)
    gen = np.random.default_rng(8)
    prev = np.tile(_reference_projector_coeffs(np.eye(3)[0]), (50, 1))
    for kind, solved_on_plane in (("threshold above", 0), ("threshold below", 50),
                                  ("degenerate-top", 0), ("degenerate-bottom", 50)):
        plane.clear()
        _ground_states(_operator_coeffs(_qutrit_operators(gen, kind, 50)), prev)
        assert sum(plane) == solved_on_plane, kind


def test_qutrit_projectors_build_outer_products_only_on_plane_rows(monkeypatch):
    import witworld.compose as compose

    _, plane = _plane_rows(monkeypatch)
    built, outer = [], compose._projector_coeffs

    def counted_outer(psi):
        built.append(len(psi))
        return outer(psi)

    monkeypatch.setattr(compose, "_projector_coeffs", counted_outer)
    gen = np.random.default_rng(9)
    prev = np.tile(_reference_projector_coeffs(np.eye(3)[0]), (50, 1))
    for kind in _QUTRIT_KINDS:
        compose._ground_states(_operator_coeffs(_qutrit_operators(gen, kind, 50)), prev)
    assert built == plane
    assert 0 < sum(plane) < 50 * len(_QUTRIT_KINDS)


@pytest.mark.parametrize("dims", [(3, 3), (2, 3)])
def test_planted_maps_rarely_reach_the_plane_solve(monkeypatch, dims):
    # their operators are rank 2 with a zero eigenvalue, where a wrong sign
    # of det once sent 94-96% of their rows off the adjugate
    rows, plane = _plane_rows(monkeypatch)
    for seed in range(3):
        assert positivity_check(planted_map(np.random.default_rng([seed, 2]), *dims)).rejected
    assert sum(rows) > 5000
    assert sum(plane) <= 0.05 * sum(rows)


@pytest.mark.parametrize("scale", [1e100, 1e155, 1e200, 1e300])
def test_scaled_planted_inputs_keep_status_and_margin(scale):
    rng = np.random.default_rng(12)
    witnesses = [hermitian_tensor_to_vector(planted_witness(rng, *dims), dims)
                 for dims in ((2, 2), (2, 3), (3, 3))]
    maps = [planted_map(rng, *dims) for dims in ((3, 3), (2, 3))]
    for v in witnesses:
        ref = composite_state_check(v)
        res = composite_state_check(GptVector(v.system, scale * v.coeffs))
        assert ref.rejected and res.rejected, (v.system, res.describe())
        assert res.margin / scale == pytest.approx(ref.margin, rel=1e-12, abs=0)
    for t in maps:
        ref = positivity_check(t)
        res = positivity_check(LinearMap(t.domain, t.codomain, scale * t.matrix))
        assert ref.rejected and res.rejected, (t, res.describe())
        assert res.margin / scale == pytest.approx(ref.margin, rel=1e-12, abs=0)


def test_hermitian_tensor_test_is_relative_to_the_entries():
    rng = np.random.default_rng(6)
    a = 3e4 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    m = a @ a.conj().T  # entries ~1e9: Hermitian up to rounding, ~1e-7 absolute
    back = vector_to_hermitian_tensor(hermitian_tensor_to_vector(m, (2, 3)))
    assert np.max(np.abs(back - m)) <= 1e-12 * np.max(np.abs(m))
    bad = m.copy()
    bad[0, 1] += 1e-7 * np.max(np.abs(m))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_tensor_to_vector(bad, (2, 3))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_tensor_to_vector(np.diag([0.0, 0, 0, 0]) + 1e-7 * np.eye(4, k=1), (2, 2))


# --- finite factors: one stacked contraction against the per-combination loop ---------


def _reference_min_over_quantum(red, qdims, cfg, rng):
    """The engine's minimum over the quantum factors of one combination."""
    import witworld.compose as compose

    if not qdims:
        return float(red), []
    if len(qdims) == 1:
        zero = compose._projector_coeffs(np.eye(qdims[0], dtype=complex)[:1])
        vals, proj = compose._ground_states(red.reshape(1, -1), zero)
        return float(vals[0]), [proj[0]]
    if qdims == [2, 2]:
        return compose._min_qubit_pair(red.reshape(4, 4), cfg)
    return compose._min_quantum_general(red, qdims, cfg, rng)


def _reference_minimize_product_form(coeffs, specs, cfg):
    """The engine as a loop over generator combinations, one contraction chain
    and one quantum minimum each, the first strict minimum winning."""
    import math

    import witworld.compose as compose
    from witworld.compose import FiniteGenerators, QuantumGenerators

    coeffs = np.asarray(coeffs, dtype=float)
    dims = tuple(s.vectors.shape[1] if isinstance(s, FiniteGenerators) else s.d * s.d
                 for s in specs)
    exp = compose.unit_exponent(coeffs)
    tensor_w = np.ldexp(coeffs, -exp).reshape(dims)
    finite_axes = [i for i, s in enumerate(specs) if isinstance(s, FiniteGenerators)]
    qdims = [s.d for s in specs if isinstance(s, QuantumGenerators)]
    rng = np.random.default_rng(cfg.seed)
    best_val, best_factors = np.inf, None
    for combo in itertools.product(*(range(len(specs[i].vectors)) for i in finite_axes)):
        red = tensor_w
        for ax, gi in sorted(zip(finite_axes, combo), reverse=True):
            red = np.tensordot(specs[ax].vectors[gi], red, axes=([0], [ax]))
        val, qfactors = _reference_min_over_quantum(red, qdims, cfg, rng)
        if val < best_val:
            factors = [None] * len(specs)
            for ax, gi in zip(finite_axes, combo):
                factors[ax] = specs[ax].vectors[gi]
            it = iter(qfactors)
            for i, s in enumerate(specs):
                if isinstance(s, QuantumGenerators):
                    factors[i] = next(it)
            best_val, best_factors = val, tuple(factors)
    return compose.ProductMin(math.ldexp(best_val, exp), best_factors,
                              len(qdims) <= 1 or qdims == [2, 2])


_ENGINE_SHAPES = {
    "B22*B22 effect side": (lambda: _effect_side_specs((B22, B22)), 200),
    "B22->B22 positivity": (lambda: _effect_side_specs((B22,)) + _state_side_specs((B22,)), 200),
    "C2*B22 state side": (lambda: _state_side_specs((Classical(2), B22)), 200),
    "B23*C3": (lambda: _effect_side_specs((Boxworld(2, 3), Classical(3))), 200),
    "B22*B22*Q2": (lambda: _effect_side_specs((B22, B22, Q2)), 200),
    "C2*Q2": (lambda: _effect_side_specs((Classical(2), Q2)), 200),
    "C2*Q2*Q2": (lambda: _effect_side_specs((Classical(2), Q2, Q2)), 40),
    "C2*Q3*Q3": (lambda: _effect_side_specs((Classical(2), Quantum(3), Quantum(3))), 20),
}


def _random_engine_inputs(gen, specs, count):
    """``count`` random coefficient vectors for ``specs``, over 20 orders of magnitude."""
    from witworld.compose import FiniteGenerators

    size = 1
    for s in specs:
        size *= s.vectors.shape[1] if isinstance(s, FiniteGenerators) else s.d * s.d
    return gen.normal(size=(count, size)) * 10.0 ** gen.uniform(-10, 10, size=(count, 1))


@pytest.mark.parametrize("shape", list(_ENGINE_SHAPES))
def test_engine_matches_the_per_combination_loop_bit_for_bit(shape):
    build, count = _ENGINE_SHAPES[shape]
    specs = build()
    gen = np.random.default_rng(list(_ENGINE_SHAPES).index(shape))
    cfg = SearchConfig(grid=40, restarts=3)
    for coeffs in _random_engine_inputs(gen, specs, count):
        res = minimize_product_form(coeffs, specs, cfg)
        ref = _reference_minimize_product_form(coeffs, specs, cfg)
        assert res.value == ref.value and res.conclusive == ref.conclusive
        assert len(res.factors) == len(ref.factors)
        for f, g in zip(res.factors, ref.factors):
            assert np.array_equal(f, g)


@pytest.mark.parametrize("atoms", [(Classical(2), Quantum(3)), (B22, Quantum(3)),
                                   (Quantum(4), Classical(3))])
def test_engine_over_one_larger_quantum_factor_stays_within_16_ulps(atoms):
    # a stack of rows rounds the ground-state products apart from one row
    specs = _effect_side_specs(atoms)
    gen = np.random.default_rng([a.dim for a in atoms])
    cfg = SearchConfig()
    for coeffs in _random_engine_inputs(gen, specs, 200):
        res = minimize_product_form(coeffs, specs, cfg)
        ref = _reference_minimize_product_form(coeffs, specs, cfg)
        assert abs(res.value - ref.value) <= 16 * np.spacing(max(abs(res.value), abs(ref.value)))
        assert res.conclusive and ref.conclusive


def test_engine_ties_go_to_the_first_combination():
    from witworld.compose import FiniteGenerators

    zero = _reference_projector_coeffs(np.eye(2)[0])
    for atoms, coeffs in (((B22, B22), np.zeros(9)),
                          ((Classical(2), B22, Q2), np.zeros(24)),
                          ((Classical(2), B22), unit_effect(system(Classical(2), B22)).coeffs)):
        specs = (_state_side_specs(atoms) if coeffs.any() else _effect_side_specs(atoms))
        res = minimize_product_form(coeffs, specs, SearchConfig())
        for f, s in zip(res.factors, specs):
            first = s.vectors[0] if isinstance(s, FiniteGenerators) else zero
            assert np.allclose(f, first, rtol=0, atol=1e-16)
            if isinstance(s, FiniteGenerators):
                assert np.array_equal(f, first)


@pytest.mark.parametrize("restarts", [1, 7, 40])
def test_stacked_descent_matches_through_finite_factors(monkeypatch, restarts):
    import witworld.compose as compose

    gen = np.random.default_rng(restarts)
    atoms = (Classical(2), Quantum(3), Quantum(3))
    specs = compose._effect_side_specs(atoms)
    coeffs = gen.normal(size=system(*atoms).dim)
    cfg = SearchConfig(restarts=restarts, seed=int(gen.integers(2**31)))

    def recording(impl, states):
        def wrapped(red, qdims, cfg, rng):
            out = impl(red, qdims, cfg, rng)
            states.append(rng.bit_generator.state)
            return out
        return wrapped

    new_states, ref_states = [], []
    monkeypatch.setattr(compose, "_min_quantum_general",
                        recording(compose._min_quantum_general, new_states))
    res = compose.minimize_product_form(coeffs, specs, cfg)
    monkeypatch.setattr(compose, "_min_quantum_general",
                        recording(_reference_min_quantum_general, ref_states))
    ref = compose.minimize_product_form(coeffs, specs, cfg)

    assert res.value == pytest.approx(ref.value, abs=1e-12)
    assert not res.conclusive and not ref.conclusive
    for f, g in zip(res.factors, ref.factors):
        assert np.allclose(f, g, atol=_FACTOR_ATOL)
    assert len(new_states) == len(ref_states) == 2
    assert new_states == ref_states


def test_search_config_rejects_bad_ranges():
    for kwargs in ({"grid": 0}, {"grid": -3}, {"restarts": 0}, {"restarts": -5},
                   {"seed": -1}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")}):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)
    assert SearchConfig(grid=1, restarts=1, tol=0.0).restarts == 1


def test_search_config_rejects_non_integral_and_boolean_values():
    for kwargs in ({"restarts": 2.5}, {"grid": 2.5}, {"seed": 1.0}, {"grid": True},
                   {"restarts": False}, {"seed": True}, {"restarts": np.bool_(True)},
                   {"grid": "180"}, {"tol": True}, {"tol": "1e-3"}, {"tol": None}):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)
    cfg = SearchConfig(grid=np.int64(9), restarts=np.int32(3), seed=np.uint8(4),
                       tol=np.float32(1e-6))
    assert (cfg.grid, cfg.restarts, cfg.seed) == (9, 3, 4)
    assert SearchConfig(tol=0).tol == 0


def test_default_config_follows_the_seed_variable_between_calls(monkeypatch):
    import witworld.compose as compose
    from witworld import trace_condition_check

    seeds = []
    engine = compose.minimize_product_form

    def spy(coeffs, specs, cfg):
        seeds.append(cfg.seed)
        return engine(coeffs, specs, cfg)

    monkeypatch.setattr(compose, "minimize_product_form", spy)
    sys = system(Classical(2), B22)
    state = GptVector(sys, np.kron([1.0, 1.0], [1.0, 1.0, 1.0]))
    half = LinearMap(sys, sys, 0.5 * np.eye(sys.dim))
    checks = (lambda: composite_state_check(state), lambda: positivity_check(half),
              lambda: trace_condition_check(half, "non-increasing"))
    for raw in ("7", "11", "7"):
        monkeypatch.setenv("WITWORLD_SEED", raw)
        assert compose.default_config() is compose.default_config()
        for check in checks:
            seeds.clear()
            assert check().passed
            assert seeds and set(seeds) == {int(raw)}
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    for check in checks * 2:
        with pytest.raises(ValueError, match="WITWORLD_SEED"):
            check()


def test_checks_that_run_no_search_read_no_seed(monkeypatch):
    rng = np.random.default_rng(17)
    k = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0][:2]
    compressed_transpose = map_from_matrix_action(lambda m: k @ m.T @ k.conj().T, 3, 2)
    swap = np.eye(9)[[3 * (i % 3) + i // 3 for i in range(9)]]  # block-positive on Q3*Q3
    witness = hermitian_tensor_to_vector(swap, (3, 3))
    density = hermitian_to_vector(random_density(rng, 3))
    # "ppt" decides the Q2*Q2 outcome effects exactly; basis states are single atoms
    computational = [hermitian_tensor_to_vector(np.diag(np.eye(4)[k]), (2, 2)) for k in range(4)]
    basis = [hermitian_to_vector(np.diag(np.eye(2)[k])) for k in range(2)]
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    for verdict in (positivity_check(compressed_transpose), composite_state_check(witness)):
        assert verdict.accepted and verdict.detail == compose._CERTIFIED
    assert composite_state_check(density).accepted
    assert measurement_map(computational).matrix.shape == (4, 16)
    assert preparation_map(basis).matrix.shape == (4, 2)
    # a single-atom state is still checked at the given tolerance
    near = hermitian_to_vector(np.diag([1.0 + 1e-6, -1e-6]))
    assert preparation_map([near], tol=1e-3).matrix.shape == (4, 1)
    with pytest.raises(ValueError, match="invalid prepared state"):
        preparation_map([near])
    with pytest.raises(ValueError, match="tol must be"):
        preparation_map([near], tol=float("inf"))
    with pytest.raises(ValueError, match="WITWORLD_SEED"):
        SearchConfig()

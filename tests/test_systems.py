"""Atomic systems: dimensions, vectorization, cones, vertices, dual rays."""

import itertools
import math
import string

import numpy as np
import pytest

from witworld import (
    Boxworld,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    atomic_effect_check,
    atomic_state_check,
    dimension,
    effect_cone_rays,
    hermitian_basis,
    hermitian_to_vector,
    pair,
    state_vertices,
    system,
    unit_effect,
    vector_to_hermitian,
)
from witworld.lp import solve_feasibility
from witworld import systems
from witworld.systems import (
    boxworld_to_classical,
    classical_point,
    coeffs_to_hermitian,
    hermitian_to_coeffs,
    kron_all,
    ray_table,
    vertex_table,
)

from conftest import random_hermitian


def test_dimensions():
    assert dimension(system(Quantum(2))) == 4
    assert dimension(SystemType()) == 1
    assert dimension(system(Boxworld(2, 2), Classical(3))) == 9
    assert dimension(system(Quantum(3))) == 9
    assert dimension(system(Classical(1))) == 1
    assert dimension(system(Boxworld(0, 2))) == 1


def test_atom_validation():
    with pytest.raises(ValueError):
        Classical(0)
    with pytest.raises(ValueError):
        Quantum(0)
    with pytest.raises(ValueError):
        Boxworld(2, 1)


def test_coefficient_length_must_match():
    with pytest.raises(ValueError):
        GptVector(system(Quantum(2)), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        GptVector(system(Quantum(2), Quantum(3)), np.r_[bad, np.zeros(35)])


def test_hermitian_basis_is_orthonormal():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12
        for b in basis:
            assert np.max(np.abs(b - b.conj().T)) < 1e-14


def test_identity_vectorizes_to_unit_direction():
    v = hermitian_to_vector(np.eye(2, dtype=complex))
    assert np.allclose(v.coeffs, [np.sqrt(2), 0, 0, 0], atol=1e-14)


def test_projector_has_unit_norm():
    v = hermitian_to_vector(np.diag([1.0, 0.0]).astype(complex))
    assert abs(np.linalg.norm(v.coeffs) - 1.0) < 1e-14


def test_traceless_is_orthogonal_to_identity_image():
    z = hermitian_to_vector(np.diag([1.0, -1.0]).astype(complex))
    ident = hermitian_to_vector(np.eye(2, dtype=complex))
    assert abs(np.dot(z.coeffs, ident.coeffs)) < 1e-14


def test_round_trip_many_random_matrices():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for _ in range(334):
            m = random_hermitian(rng, d)
            back = vector_to_hermitian(hermitian_to_vector(m))
            assert np.max(np.abs(back - m)) < 1e-12


def test_inner_product_matches_hilbert_schmidt():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4):
        for _ in range(50):
            a, b = random_hermitian(rng, d), random_hermitian(rng, d)
            lhs = np.dot(hermitian_to_vector(a).coeffs, hermitian_to_vector(b).coeffs)
            assert abs(lhs - np.real(np.trace(a @ b))) < 1e-10


def test_vector_to_hermitian_inverse_examples():
    v = GptVector(system(Quantum(2)), [np.sqrt(2), 0, 0, 0])
    assert np.max(np.abs(vector_to_hermitian(v) - np.eye(2))) < 1e-14
    zero = GptVector(system(Quantum(2)), np.zeros(4))
    assert np.max(np.abs(vector_to_hermitian(zero))) == 0.0


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        hermitian_to_vector(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        vector_to_hermitian(GptVector(system(Classical(4)), np.zeros(4)))


def _scripts(n):
    k, p, q = (string.ascii_letters[i * n:(i + 1) * n] for i in range(3))
    bases = ",".join(map("".join, zip(k, p, q)))
    return f"{bases},...{q}{p}->...{k}", f"...{k},{bases}->...{p}{q}"


def _all_factor_matrices(coeffs, dims):
    """coeffs_to_hermitian as one unoptimized einsum over every factor at once: the reference."""
    lead, total = coeffs.shape[:-1], math.prod(dims)
    mats = np.einsum(_scripts(len(dims))[1], coeffs.reshape(lead + tuple(d * d for d in dims)),
                     *map(hermitian_basis, dims))
    return mats.reshape(lead + (total, total))


def _all_factor_coeffs(mats, dims):
    """hermitian_to_coeffs as one unoptimized einsum over every factor at once: the reference."""
    lead = mats.shape[:-2]
    coeffs = np.real(np.einsum(_scripts(len(dims))[0], *map(hermitian_basis, dims),
                               mats.reshape(lead + tuple(dims) * 2)))
    return coeffs.reshape(lead + (-1,))


_MULTI_FACTOR = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2), (3, 3, 3)]


@pytest.mark.parametrize("dims", _MULTI_FACTOR)
def test_multi_factor_conversion_stays_within_4_ulps_of_the_all_factor_einsum(dims):
    rng = np.random.default_rng(len(dims) * 10 + sum(dims))
    n = math.prod(d * d for d in dims)
    rows = rng.normal(size=(6, n)) * np.array([1.0, 1.0, 1e-9, 1e9, 3.0, 0.5])[:, None]
    rows[4, 1:] = 0.0  # a multiple of the identity
    for got, want in zip(coeffs_to_hermitian(rows, dims), _all_factor_matrices(rows, dims)):
        assert got.dtype == complex and got.shape == want.shape
        assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())
    back = hermitian_to_coeffs(coeffs_to_hermitian(rows, dims), dims)
    assert (np.abs(back - rows).max(axis=1) <= 1e-12 * np.abs(rows).max(axis=1)).all()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2),
                                  (3, 3, 3)])
def test_each_multi_factor_row_of_a_stack_converts_as_it_would_alone(dims):
    rng = np.random.default_rng(sum(dims) + len(dims))
    n = math.prod(d * d for d in dims)
    rows = rng.normal(size=(3, 4, n))
    stack = coeffs_to_hermitian(rows, dims)
    flat = stack.reshape((12,) + stack.shape[2:])
    for i, j in np.ndindex(3, 4):
        assert stack[i, j].tobytes() == coeffs_to_hermitian(rows[i, j], dims).tobytes()
        assert stack[i, j].tobytes() == coeffs_to_hermitian(rows[i, j:j + 1], dims)[0].tobytes()
    for layout in (np.asfortranarray(rows.reshape(12, n)), rows.reshape(12, n)[::-1][::-1],
                   np.ascontiguousarray(rows.reshape(12, n).T).T):
        assert coeffs_to_hermitian(layout, dims).tobytes() == flat.tobytes()


def test_small_shapes_convert_through_one_cached_matrix_and_large_ones_factor_by_factor():
    systems._basis_change.cache_clear()
    rng = np.random.default_rng(3)
    for dims in ((2, 2, 2, 2), (2, 2, 3), (3, 3, 3)):
        coeffs_to_hermitian(rng.normal(size=math.prod(d * d for d in dims)), dims)
    assert systems._basis_change.cache_info().currsize == 0
    for dims in ((2, 3), (3, 2), (3, 3), (3, 3)):
        coeffs_to_hermitian(rng.normal(size=math.prod(d * d for d in dims)), dims)
    assert systems._basis_change.cache_info()[:2] == (1, 3)
    matrix = systems._basis_change((3, 3))
    assert matrix.shape == (81, 2 * 81) and not matrix.flags.writeable
    assert 16 ** 4 > systems._CACHED_ENTRIES >= 9 ** 4


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_single_factor_conversions_are_the_one_einsum_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    rows = rng.normal(size=(5, d * d)) * 10.0 ** rng.uniform(-6, 6, size=(5, 1))
    mats = coeffs_to_hermitian(rows, (d,))
    assert mats.tobytes() == _all_factor_matrices(rows, (d,)).tobytes()
    assert coeffs_to_hermitian(rows[2], (d,)).tobytes() == mats[2].tobytes()
    herm = np.stack([random_hermitian(rng, d) for _ in range(5)])
    assert hermitian_to_coeffs(herm, (d,)).tobytes() == _all_factor_coeffs(herm, (d,)).tobytes()


@pytest.mark.parametrize("dims", _MULTI_FACTOR)
def test_hermitian_to_coeffs_stays_the_all_factor_einsum_bit_for_bit(dims):
    rng = np.random.default_rng(60 + sum(dims))
    total = math.prod(dims)
    herm = np.stack([random_hermitian(rng, total) for _ in range(3)])
    assert hermitian_to_coeffs(herm, dims).tobytes() == _all_factor_coeffs(herm, dims).tobytes()


def test_hermiticity_test_is_relative_to_the_entries():
    # a a^dagger with entries ~1e6 is Hermitian up to rounding, ~1e-9 absolute
    rng = np.random.default_rng(4)
    a = 1e3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    m = a @ a.conj().T
    assert np.max(np.abs(m - m.conj().T)) > 0.0
    back = vector_to_hermitian(hermitian_to_vector(m))
    assert np.max(np.abs(back - m)) <= 1e-12 * np.max(np.abs(m))
    # a skew part of 1e-9 of the entries is not rounding
    bad = m.copy()
    bad[0, 1] += 1e-9 * np.max(np.abs(m))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_to_vector(bad)
    # below entries of size 1 the tolerance stays absolute
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_to_vector(np.array([[0.0, 1e-9], [0.0, 0.0]], dtype=complex))
    hermitian_to_vector(np.array([[0.0, 1e-11], [0.0, 0.0]], dtype=complex))


def test_unit_effects():
    assert np.allclose(unit_effect(system(Classical(3))).coeffs, [0, 0, 1])
    assert np.allclose(unit_effect(system(Boxworld(2, 2))).coeffs, [0, 0, 1])
    rng = np.random.default_rng(13)
    u = unit_effect(system(Quantum(2)))
    for _ in range(20):
        m = random_hermitian(rng, 2)
        assert abs(pair(u, hermitian_to_vector(m)) - np.real(np.trace(m))) < 1e-12


def test_composite_unit_effect_is_product():
    sys = system(Classical(2), Quantum(2), Boxworld(2, 2))
    u = unit_effect(sys)
    parts = [unit_effect(system(a)).coeffs for a in sys.atoms]
    expected = np.kron(np.kron(parts[0], parts[1]), parts[2])
    assert np.allclose(u.coeffs, expected)


def test_atomic_state_check_examples():
    ok = atomic_state_check(GptVector(system(Classical(2)), [0.3, 1.0]))
    assert ok.accepted
    bad = atomic_state_check(hermitian_to_vector(np.diag([1.0, -0.1]).astype(complex)))
    assert bad.rejected
    assert abs(bad.margin + 0.1) < 1e-12
    box = atomic_state_check(GptVector(system(Boxworld(2, 2)), [0.5, 0.5, 1.0]))
    assert box.accepted


def test_atomic_state_check_rejections_report_condition():
    res = atomic_state_check(GptVector(system(Classical(3)), [0.8, 0.8, 1.0]))
    assert res.rejected
    assert "exceed" in res.detail
    res = atomic_state_check(GptVector(system(Boxworld(2, 2)), [-0.2, 0.5, 1.0]))
    assert res.rejected and "outcome weight" in res.detail


@pytest.mark.parametrize("atom, coeffs, kind, ray", [
    (Classical(2), [-0.5, 1.0], "outcome weight", 0),
    (Classical(3), [0.8, 0.8, 1.0], "exceed", 2),
    (Classical(2), [-0.1, -1.0], "normalization", None),
    (Boxworld(2, 2), [0.5, -0.25, 1.0], "outcome weight", 2),
    (Boxworld(2, 3), [0.5, 0.25, 0.75, 0.5, 1.0], "exceed", 5),
    (Boxworld(2, 2), [-0.1, -0.2, -1.0], "normalization", None),
])
def test_atomic_state_rejection_carries_the_attaining_effect(atom, coeffs, kind, ray):
    # the outcome effect for a negative weight, the block's last-outcome
    # effect for an excess, the unit effect for a negative normalization
    v = GptVector(system(atom), coeffs)
    res = atomic_state_check(v)
    assert res.rejected and kind in res.detail
    expected = unit_effect(v.system) if ray is None else effect_cone_rays(atom)[ray]
    assert np.array_equal(res.witness.coeffs, expected.coeffs)
    assert abs(pair(res.witness, v) - res.margin) <= 1e-12


def test_atomic_effect_check_examples():
    b22 = system(Boxworld(2, 2))
    assert atomic_effect_check(GptVector(b22, [1, 0, 0])).accepted
    res = atomic_effect_check(GptVector(b22, [2, 0, 0]))
    assert res.rejected
    assert pair(GptVector(b22, [2, 0, 0]), res.witness) == 2.0
    assert atomic_effect_check(unit_effect(system(Quantum(2)))).accepted
    assert atomic_effect_check(hermitian_to_vector(1.5 * np.eye(2, dtype=complex))).rejected


def test_state_vertices_classical():
    verts = state_vertices(Classical(2))
    assert [tuple(v.coeffs) for v in verts] == [(1.0, 1.0), (0.0, 1.0)]
    assert len(state_vertices(Classical(3))) == 3


def test_state_vertices_boxworld():
    verts = state_vertices(Boxworld(2, 2))
    tuples = {tuple(v.coeffs) for v in verts}
    assert len(tuples) == 4
    assert (1.0, 1.0, 1.0) in tuples and (0.0, 0.0, 1.0) in tuples


def test_boxworld_1v_matches_classical():
    box = state_vertices(Boxworld(1, 3))
    cls = state_vertices(Classical(3))
    assert len(box) == 3
    box_as_cls = sorted(tuple(boxworld_to_classical(v).coeffs) for v in box)
    assert box_as_cls == sorted(tuple(v.coeffs) for v in cls)


@pytest.mark.parametrize("atom", [Classical(1), Classical(3), Boxworld(0, 2), Boxworld(2, 2),
                                  Boxworld(3, 3)])
def test_generator_tables_are_built_once_and_read_only(atom):
    for table, listed in ((vertex_table, state_vertices), (ray_table, effect_cone_rays)):
        rows = table(atom)
        assert table(atom) is rows and not rows.flags.writeable
        assert np.array_equal(rows, np.stack([v.coeffs for v in listed(atom)]))
        assert rows.shape[1] == atom.dim
        # a negative zero would print as -0.0 in a witness built from a row
        assert not np.signbit(rows[rows == 0]).any()


def test_kron_all_matches_the_left_to_right_chain():
    gen = np.random.default_rng(3)
    for n in range(1, 4):
        for _ in range(20):
            mats = [gen.normal(size=(gen.integers(1, 4), gen.integers(1, 4))) for _ in range(n)]
            vecs = [m[0] for m in mats]
            ref, ref_vec = np.eye(1), np.array([1.0])
            for m, v in zip(mats, vecs):
                ref, ref_vec = np.kron(ref, m), np.kron(ref_vec, v)
            assert np.array_equal(kron_all(mats), ref)
            assert np.array_equal(kron_all(vecs), ref_vec)
    assert kron_all([]) == 1.0


def test_quantum_vertices_unsupported():
    with pytest.raises(ValueError):
        state_vertices(Quantum(2))
    with pytest.raises(ValueError):
        effect_cone_rays(Quantum(2))


def test_effect_cone_rays_match_flagship_effects():
    rays = effect_cone_rays(Boxworld(2, 2))
    expected = [(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1)]
    assert [tuple(r.coeffs) for r in rays] == [tuple(map(float, e)) for e in expected]
    c2 = effect_cone_rays(Classical(2))
    assert [tuple(r.coeffs) for r in c2] == [(1.0, 0.0), (-1.0, 1.0)]


# --- facet enumeration oracle -------------------------------------------------


def _dual_rays_by_facet_enumeration(vertices):
    """Extreme rays of {e : <e, v> >= 0} by brute subset enumeration."""
    arr = np.stack([v.coeffs for v in vertices])
    dim = arr.shape[1]
    found = []
    for subset in itertools.combinations(range(arr.shape[0]), dim - 1):
        sub = arr[list(subset)]
        u, s, vt = np.linalg.svd(sub)
        if np.sum(s > 1e-9) != dim - 1:
            continue
        ray = vt[-1]
        for cand in (ray, -ray):
            vals = arr @ cand
            if np.min(vals) >= -1e-9:
                cand = cand / np.max(np.abs(cand))
                if not any(np.max(np.abs(cand - f)) < 1e-8 for f in found):
                    found.append(cand)
    return found


@pytest.mark.parametrize("atom", [Classical(2), Classical(3), Boxworld(2, 2),
                                  Boxworld(2, 3), Boxworld(3, 2)])
def test_effect_cone_rays_agree_with_facet_enumeration(atom):
    rays = effect_cone_rays(atom)
    oracle = _dual_rays_by_facet_enumeration(state_vertices(atom))
    assert len(oracle) == len(rays)
    normalized = [r.coeffs / np.max(np.abs(r.coeffs)) for r in rays]
    for cand in oracle:
        assert any(np.max(np.abs(cand - r)) < 1e-8 for r in normalized)


def test_boxworld_2_3_has_six_rays():
    assert len(effect_cone_rays(Boxworld(2, 3))) == 6


# --- duality and completeness invariants ---------------------------------------


def _all_small_atoms():
    atoms = [Classical(v) for v in (1, 2, 3)]
    atoms += [Boxworld(n, k) for n in (1, 2, 3) for k in (2, 3)]
    return atoms


@pytest.mark.parametrize("atom", _all_small_atoms(), ids=str)
def test_state_check_agrees_with_ray_duality(atom):
    rng = np.random.default_rng(hash(str(atom)) % 2 ** 31)
    rays = np.stack([r.coeffs for r in effect_cone_rays(atom)])
    for _ in range(200):
        c = rng.normal(size=atom.dim)
        if rng.uniform() < 0.5:
            # bias towards the cone so both verdicts are exercised
            weights = rng.uniform(0, 1, size=len(state_vertices(atom)))
            c = sum(w * v.coeffs for w, v in zip(weights, state_vertices(atom)))
            c = c + rng.normal(scale=1e-2, size=atom.dim)
        direct = atomic_state_check(GptVector(system(atom), c), 1e-9)
        by_rays = float(np.min(rays @ c)) >= -1e-9
        assert direct.accepted == by_rays


@pytest.mark.parametrize("atom", [Boxworld(2, 2), Boxworld(2, 3), Boxworld(3, 2),
                                  Boxworld(3, 3), Classical(3)], ids=str)
def test_accepted_normalized_vectors_decompose_into_vertices(atom):
    # any vector the membership test accepts (with unit normalization
    # coordinate) must be a convex combination of the vertices
    rng = np.random.default_rng(42)
    verts = np.stack([v.coeffs for v in state_vertices(atom)]).T
    accepted = 0
    for _ in range(400):
        weights = rng.dirichlet(np.ones(verts.shape[1]))
        target = verts @ weights + rng.normal(scale=5e-2, size=atom.dim)
        target[-1] = 1.0
        if not atomic_state_check(GptVector(system(atom), target)).accepted:
            continue
        res = solve_feasibility(verts, target, tol=1e-9)
        assert res.feasible
        assert np.max(np.abs(verts @ res.x - target)) < 1e-8
        assert abs(np.sum(res.x) - 1.0) < 1e-8
        accepted += 1
        if accepted >= 20:
            break
    assert accepted >= 10


def test_vertices_are_normalized():
    for atom in _all_small_atoms():
        u = unit_effect(system(atom))
        for v in state_vertices(atom):
            assert abs(pair(u, v) - 1.0) < 1e-14


def test_classical_point_and_outcome_effect():
    p1 = classical_point(3, 1)
    assert tuple(p1.coeffs) == (0.0, 1.0, 1.0)
    rays = effect_cone_rays(Classical(3))
    for i in range(3):
        for j in range(3):
            assert abs(pair(rays[i], classical_point(3, j)) - (1.0 if i == j else 0.0)) < 1e-14

"""The spectral certificate: where it runs, what it accepts, and that it never lies.

A lowest eigenvalue of W or of a partial transpose of W at or above -tol
proves that W pairs nonnegatively with every product effect, and a map is
positive when the same holds for its operator over codomain atoms and the
domain.  These tests check that a certified acceptance is never given to
an input whose every eigenvalue test fails, that rejections do not move,
that the certified margin is a lower bound on what a long search finds,
and that the exact qubit-pair, box and single-atom paths never call it.
"""

import numpy as np
import pytest

import witworld.compose as compose
import witworld.transforms as transforms
from witworld import (
    Boxworld,
    Classical,
    GptVector,
    LinearMap,
    Quantum,
    SearchConfig,
    builtin_map,
    builtin_state,
    composite_effect_check,
    composite_state_check,
    hermitian_basis,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    positivity_check,
    pr_state,
    system,
    tensor,
    trace_condition_check,
    transpose_map,
    unot_map,
    vector_to_hermitian_tensor,
)
from witworld.compose import (
    _effect_side_specs, _state_side_specs, cone_generators, minimize_product_form,
)
from witworld.transforms import map_from_matrix_action

from conftest import (
    choi_map_action,
    choi_witness,
    haar_unitary,
    partial_transpose,
    planted_map,
    planted_witness,
    random_decomposable_witness,
    random_density,
    random_positive_box_map,
    random_psd,
)

CFG = SearchConfig(restarts=40)


def _rank_psd(rng, n, rank):
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return a @ a.conj().T


def _lowest(m):
    return np.linalg.eigvalsh(m)[0]


# --- soundness: valid inputs that no eigenvalue test certifies ------------------


def test_choi_map_positivity_stays_inconclusive():
    t = map_from_matrix_action(choi_map_action, 3)
    res = positivity_check(t, CFG)
    assert res.status == "inconclusive-accept", res.describe()
    assert res.margin >= -1e-9


def test_choi_witness_state_stays_inconclusive():
    w = choi_witness()
    assert _lowest(w) * 6 == pytest.approx(-1.0, abs=1e-12)
    assert _lowest(partial_transpose(w, 3, 3)) * 6 == pytest.approx(
        (1 - np.sqrt(5)) / 2, abs=1e-12)
    res = composite_state_check(hermitian_tensor_to_vector(w, (3, 3)), CFG)
    assert res.status == "inconclusive-accept", res.describe()


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_rank_deficient_decomposable_witness_stays_inconclusive(dims, seed):
    # W = P + Q^Γ with P, Q of rank one, Q entangled: block positive, but
    # Q^Γ is negative on a plane that one P cannot lift, and vice versa
    rng = np.random.default_rng([seed, *dims])
    n = dims[0] * dims[1]
    w = _rank_psd(rng, n, 1) + partial_transpose(_rank_psd(rng, n, 1), *dims)
    w /= np.trace(w).real
    assert _lowest(w) < -1e-3 and _lowest(partial_transpose(w, *dims)) < -1e-3
    v = hermitian_tensor_to_vector(w, dims)
    assert compose.spectral_bound(w[None], dims) < -1e-3
    res = composite_state_check(v, CFG)
    assert res.status == "inconclusive-accept", res.describe()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_ppt_domain_map_needs_both_conditions(dims):
    # T(s) = <Φ, s> σ with Φ an entangled projector: T*(r) = tr(rσ) Φ is
    # PSD but not PPT, so T sends the state (vv†)^Γ below zero.  The bound
    # on X alone would pass; the one on X^Γ must not.
    n = dims[0] * dims[1]
    amp = np.zeros(n)
    amp[[0, n - 1]] = 1 / np.sqrt(2)
    phi = hermitian_tensor_to_vector(np.outer(amp, amp), dims)
    sigma = hermitian_to_vector(np.diag([0.7, 0.3]).astype(complex))
    t = LinearMap(phi.system, sigma.system, np.outer(sigma.coeffs, phi.coeffs))
    steps = compose.plan("positivity", t.codomain.atoms, t.domain.atoms)
    assert compose.certificate_bound(t.matrix.reshape(-1), steps) < -0.1
    res = positivity_check(t, CFG)
    assert not res.accepted, res.describe()
    if dims == (2, 2):
        assert res.rejected  # a partially transposed Bell probe shows it


# --- planted inputs stay rejected with the search's margin ------------------------


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_planted_witness_rejected_with_the_search_margin(dims, seed):
    v = hermitian_tensor_to_vector(planted_witness(np.random.default_rng([seed, 1]), *dims),
                                   dims)
    res = composite_state_check(v, CFG)
    ref = minimize_product_form(v.coeffs, _effect_side_specs(v.atoms), CFG)
    assert res.rejected
    assert res.margin == ref.value
    assert np.array_equal(res.witness.coeffs, compose._product(v.system, ref.factors).coeffs)


@pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_planted_map_rejected_with_the_search_margin(dims, seed):
    t = planted_map(np.random.default_rng([seed, 2]), *dims)
    res = positivity_check(t, CFG)
    specs = _effect_side_specs(t.codomain.atoms) + _state_side_specs(t.domain.atoms)
    ref = minimize_product_form(t.matrix.reshape(-1), specs, CFG)
    assert res.rejected
    assert res.margin == ref.value


# --- the certified margin is a lower bound on any search --------------------------


def _certified_witness(rng, dims):
    """W such that W or one of its partial transposes is PSD and singular."""
    n = int(np.prod(dims))
    p = random_psd(rng, n)
    p -= _lowest(p) * np.eye(n)
    on = [tuple(range(1, len(dims))), (len(dims) - 1,), ()][rng.integers(3)]
    return compose._partial_transpose(p, dims, on) / np.trace(p).real


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_certified_margin_bounds_a_long_descent(dims, seed):
    w = _certified_witness(np.random.default_rng([seed, *dims]), dims)
    v = hermitian_tensor_to_vector(w, dims)
    res = composite_state_check(v, SearchConfig(restarts=40))
    assert res.accepted and res.detail.startswith("spectral certificate")
    cfg = SearchConfig(restarts=2000, seed=seed)
    found = minimize_product_form(v.coeffs, _effect_side_specs(v.atoms), cfg).value
    assert found >= -cfg.tol
    assert res.margin <= found + 1e-12


def test_certified_maps_and_their_margins():
    rng = np.random.default_rng(5)
    cases = [transpose_map(3), unot_map(3),
             map_from_matrix_action(lambda m: np.trace(m) * np.eye(2) - m[:2, :2], 3, 2)]
    # (Ad_U ⊗ Ad_V)(transpose2 ⊗ id_Q2) on Q2*Q2: only the PPT domain test sees it
    uv = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    basis = [np.kron(b1, b2) for b1 in hermitian_basis(2) for b2 in hermitian_basis(2)]
    cols = [hermitian_tensor_to_vector(uv @ partial_transpose(b.T, 2, 2) @ uv.conj().T,
                                       (2, 2)).coeffs for b in basis]
    q2q2 = system(Quantum(2), Quantum(2))
    cases.append(LinearMap(q2q2, q2q2, np.column_stack(cols)))
    for t in cases:
        res = positivity_check(t, CFG)
        assert res.accepted, (t, res.describe())
        assert res.detail.startswith("spectral certificate")
        assert res.margin >= -1e-12
    specs = _effect_side_specs(cases[0].codomain.atoms) + _state_side_specs(cases[0].domain.atoms)
    found = minimize_product_form(cases[0].matrix.reshape(-1), specs,
                                  SearchConfig(restarts=2000)).value
    assert positivity_check(cases[0], CFG).margin <= found + 1e-12


# --- where the gate runs ------------------------------------------------------------

Q2, Q3, C2, B22 = Quantum(2), Quantum(3), Classical(2), Boxworld(2, 2)

# (check, system or map domain, map codomain, the dims that the gate takes its
# bound on, or None where it does not run): all-quantum states and maps
# whose search is not exact, and maps from a PPT domain into quantum atoms
_GATE_TABLE = (
    ("state", (Q2,), None, None),
    ("state", (C2, Q2), None, None),
    ("state", (B22, Q2), None, None),
    ("state", (B22, B22), None, None),
    ("state", (Q2, Q2), None, None),
    ("state", (Q2, Q3), None, (2, 3)),
    ("state", (Q3, Q2), None, (3, 2)),
    ("state", (Q3, Q3), None, (3, 3)),
    ("state", (Q2, Q2, Q2), None, (2, 2, 2)),
    ("state", (Q2, Q2, Q3), None, (2, 2, 3)),
    ("state", (C2, Q2, Q2), None, None),
    ("state", (B22, B22, Q2), None, None),
    ("positivity", (Q2,), (Q2,), None),
    ("positivity", (Q2,), (), None),
    ("positivity", (Q3,), (), None),
    ("positivity", (Q3,), (Q3,), (3, 3)),
    ("positivity", (Q2,), (Q3,), (3, 2)),
    ("positivity", (Q3,), (Q2,), (2, 3)),
    ("positivity", (Q2,), (Q2, Q2), (2, 2, 2)),
    ("positivity", (Q2, Q2), (), (4,)),
    ("positivity", (), (Q3, Q3), (3, 3)),
    ("positivity", (Q2, Q2), (Q2,), (2, 4)),
    ("positivity", (Q2, Q3), (Q2,), (2, 6)),
    ("positivity", (Q3, Q3), (), None),
    ("positivity", (Q2, Q2, Q2), (), None),
    ("positivity", (Q2, Q2), (C2,), None),
    ("positivity", (Q2,), (C2,), None),
    ("positivity", (C2, Q2), (Q2,), None),
    ("positivity", (B22,), (B22,), None),
    ("positivity", (B22, B22), (C2,), None),
    ("effect", (Q2, Q2), None, None),
    ("effect", (Q2, Q3), None, None),
    ("effect", (Q3, Q3), None, None),
    ("effect", (Q2, Q2, Q2), None, None),
    ("effect", (B22, B22), None, None),
    ("preserving", (Q2, Q2), (Q2,), None),
    ("preserving", (Q3,), (Q3,), None),
    ("preserving", (Q2, Q2, Q2), (), None),
    ("non-increasing", (Q2, Q2), (Q2,), None),
    ("non-increasing", (Q3,), (Q3,), None),
    ("non-increasing", (Q3, Q3), (), None),
)


def test_certificate_stays_off_the_exact_paths(monkeypatch):
    calls = []

    def spy(coeffs, steps):
        # the dims the bound is taken on: "spectral-ppt" joins the state pair
        dims = steps.dims
        calls.append(dims[:-2] + (dims[-2] * dims[-1],) if "spectral-ppt" in steps.methods
                     else dims)
        return bound(coeffs, steps)

    bound = compose.certificate_bound
    monkeypatch.setattr(compose, "certificate_bound", spy)
    cfg = SearchConfig(restarts=5)
    rng = np.random.default_rng(3)
    for check, first, second, dims in _GATE_TABLE:
        calls.clear()
        if second is None:
            v = GptVector(system(*first), rng.normal(size=system(*first).dim))
            (composite_state_check(v, cfg) if check == "state"
             else composite_effect_check(v, cfg=cfg))
        else:
            dom, cod = system(*first), system(*second)
            t = LinearMap(dom, cod, rng.normal(size=(cod.dim, dom.dim)))
            (positivity_check(t, cfg) if check == "positivity"
             else trace_condition_check(t, check, cfg))
        assert calls == ([] if dims is None else [dims]), (check, first, second)
    # inputs the exact paths decide: built-in states and maps, boxes, classical factors
    q2 = hermitian_to_vector(random_density(rng, 2))
    c2q2 = tensor(GptVector(system(Classical(2)), [0.3, 1.0]), q2)
    calls.clear()
    for v in (random_decomposable_witness(rng), builtin_state("singlet-pt"),
              builtin_state("swap2"), hermitian_to_vector(random_density(rng, 3)), q2,
              pr_state(), c2q2, GptVector(c2q2.system, -c2q2.coeffs)):
        composite_state_check(v, CFG)
    for t in (transpose_map(2), unot_map(2), builtin_map("ctranspose2"),
              builtin_map("cunot2"), random_positive_box_map(rng),
              LinearMap(system(Boxworld(2, 2), Boxworld(2, 2)), system(Classical(2)),
                        np.ones((2, 9)))):
        positivity_check(t, CFG)
    assert calls == []
    composite_state_check(hermitian_tensor_to_vector(random_density(rng, 9), (3, 3)), CFG)
    positivity_check(transpose_map(3), CFG)
    assert calls == [(3, 3), (3, 3)]


# --- verdicts do not depend on the input's scale -----------------------------------


def _scale_cases():
    """(label, check, input, scaled copy) for states and maps, valid and not."""
    rng = np.random.default_rng(12)
    states = [hermitian_tensor_to_vector(planted_witness(rng, *dims), dims)
              for dims in ((2, 2), (2, 3), (3, 3))]
    states += [hermitian_tensor_to_vector(_certified_witness(rng, dims), dims)
               for dims in ((2, 3), (3, 3))]
    states += [random_decomposable_witness(rng), hermitian_tensor_to_vector(choi_witness(), (3, 3)),
               pr_state(),
               hermitian_to_vector(np.diag([0.7, -0.3]).astype(complex))]
    maps = [planted_map(rng, *dims) for dims in ((3, 3), (2, 3), (3, 2), (2, 2))]
    maps += [transpose_map(2), transpose_map(3), random_positive_box_map(rng)]
    cases = [("state", composite_state_check, v,
              lambda s, v=v: GptVector(v.system, s * v.coeffs)) for v in states]
    cases += [("map", positivity_check, t,
               lambda s, t=t: LinearMap(t.domain, t.codomain, s * t.matrix)) for t in maps]
    return cases


@pytest.mark.parametrize("factor", [1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e12])
def test_scaled_states_and_maps_keep_their_status(factor):
    statuses = set()
    for label, check, x, scaled in _scale_cases():
        ref = check(x, CFG)
        res = check(scaled(factor), CFG)
        assert res.status == ref.status, (label, x, factor, ref.describe(), res.describe())
        statuses.add(ref.status)
    assert statuses == {"accepted", "rejected", "inconclusive-accept"}


def _planted_qubit_pair():
    return hermitian_tensor_to_vector(planted_witness(np.random.default_rng(12), 2, 2), (2, 2))


@pytest.mark.parametrize("factor", [1e-8, 1e-9, 1e-10, 1e-12, 1e-14, 1e-15, 1e-20, 1e-100, 1e-300])
def test_planted_qubit_pair_witness_is_rejected_far_below_unit_scale(factor):
    # margin -0.187 at unit scale: with an absolute tol it was accepted below 1e-9
    v = _planted_qubit_pair()
    ref = composite_state_check(v)
    res = composite_state_check(GptVector(v.system, factor * v.coeffs))
    assert res.rejected
    assert res.margin / factor == pytest.approx(ref.margin, rel=1e-9)


@pytest.mark.parametrize("factor", [1.0, 1e-9, 1e-15, 1e-100])
def test_small_relative_margin_is_rejected_at_every_scale(factor):
    # the planted witness plus a multiple of the identity: a margin of
    # -5e-8 at unit size, far below tol there, is below tol at any size
    v = _planted_qubit_pair()
    shift = -composite_state_check(v).margin - 5e-8
    w = hermitian_tensor_to_vector(vector_to_hermitian_tensor(v) + shift * np.eye(4), (2, 2))
    ref = composite_state_check(w)
    assert ref.rejected and ref.margin == pytest.approx(-5e-8, rel=1e-4)
    res = composite_state_check(GptVector(w.system, factor * w.coeffs))
    assert res.rejected
    assert res.margin / factor == pytest.approx(ref.margin, rel=1e-6)


def test_unit_size_inputs_keep_the_threshold():
    # largest coefficient in [1/2, 1): tol itself; in [1, 2): 2 tol; below,
    # tol at the power of two, however small
    assert compose.unit_tol(1e-9, np.array([0.5, -0.1])) == 1e-9
    assert compose.unit_tol(1e-9, np.array([0.2, 0.99])) == 1e-9
    assert compose.unit_tol(1e-9, np.array([1.0])) == 2e-9
    assert compose.unit_tol(1e-9, np.array([3e-3])) == 1e-9 * 2.0 ** -8
    assert compose.unit_tol(1e-9, np.array([5.5e-17, 0.0])) == 1e-9 * 2.0 ** -54
    assert compose.unit_tol(1e-9, np.zeros(4)) == 1e-9
    # a vector is judged at its own size, rounding noise included
    noise = GptVector(system(Boxworld(2, 2), Boxworld(2, 2)), [-5.55e-17] * 2 + [0.0] * 7)
    assert composite_state_check(noise).rejected


def test_apply_sets_rounding_noise_to_zero():
    # positive box maps tensored with the identity send some box generators
    # to zero; the raw product leaves entries near -5.55e-17 there
    rng = np.random.default_rng(88)
    pair_sys = system(Boxworld(2, 2), Boxworld(2, 2))
    ident = transforms.identity_map(system(Boxworld(2, 2)))
    cleaned = 0
    for _ in range(100):
        extended = transforms.compose_par(random_positive_box_map(rng), ident)
        for g in cone_generators(pair_sys):
            raw = extended.matrix @ g.coeffs
            out = transforms.apply(extended, g).coeffs
            kept = out != 0.0
            assert np.array_equal(out[kept], raw[kept])
            assert np.all(np.abs(raw[~kept]) < 1e-15)
            cleaned += int(np.any(raw[~kept] != 0.0))
            assert composite_state_check(GptVector(pair_sys, out)).accepted
    assert cleaned >= 1

"""Assemblages: realizations, no-signalling checks, LHS feasibility, wiring."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from witworld import (
    Assemblage,
    Boxworld,
    GptVector,
    Quantum,
    SystemType,
    apply,
    assemblage_from_realization,
    compose_seq,
    controlled_map,
    effect_cone_rays,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    lhs_check,
    measurement_map,
    ns_check,
    paper_assemblage,
    pr_state,
    preparation_map,
    state_vertices,
    steer,
    system,
    tensor,
    tensor_all,
    transpose_map,
    unitary_conjugation_map,
    unot_map,
    vector_to_hermitian,
    wire_instrumental,
)
from witworld import lp, steering, systems
from witworld.systems import atomic_state_check, classical_outcome_effect, coeffs_to_hermitian
from witworld.steering import (
    BIPARTITE,
    BOB_WITH_INPUT,
    MULTIPARTITE,
    ELEMENT_PSD_TOL,
    PAPER_ASSEMBLAGE_NAMES,
    LhsConfig,
    StrategyCapError,
    _common_eigenbasis,
    _lowest_eigenvalues,
    _party_responses,
    _response_matrix,
    _strategies,
)
from witworld.transforms import (
    PAULI_X, PAULI_Y, PAULI_Z, identity_map, parallel, partial_apply_classical,
)
from witworld.protocols import builtin_state, singlet_vector

from conftest import (
    pr_box_table,
    random_box_measurement,
    random_density,
    random_local_box,
    random_psd,
)

B22 = Boxworld(2, 2)
PAULIS = [PAULI_X, PAULI_Y, PAULI_Z]


def _vec(m):
    return hermitian_to_vector(np.asarray(m, dtype=complex))


def _bipartite(els):
    return Assemblage(BIPARTITE, (2,), (2,), els)


def _uniform_elements():
    return {(a, x): _vec(np.eye(2) / 4) for a in range(2) for x in range(2)}


# --- data model -------------------------------------------------------------------


def test_assemblage_validates_coverage_and_positivity():
    els = _uniform_elements()
    asm = _bipartite(els)
    assert asm.d == 2
    missing = dict(els)
    missing.pop((1, 1))
    with pytest.raises(ValueError):
        _bipartite(missing)
    bad = dict(els)
    bad[(0, 0)] = _vec(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        _bipartite(bad)
    with pytest.raises(ValueError):
        Assemblage("nonsense", (2,), (2,), els)
    with pytest.raises(ValueError):
        Assemblage(BIPARTITE, (2,), (2,), els, bob_inputs=2)


def _random_hermitian_elements(rng, d, n, negative=()):
    """``n`` PSD elements ``(a, 0)`` over ``Q<d>``; those in ``negative`` get a
    negative eigenvalue."""
    els = {}
    for a in range(n):
        m = random_psd(rng, d) / d
        if a in negative:
            m = m - (np.linalg.eigvalsh(m)[0] + rng.uniform(1e-3, 1.0)) * np.eye(d)
        els[(a, 0)] = _vec(m)
    return els


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_psd_check_matches_atomic_state_check(d):
    rng = np.random.default_rng(40 + d)
    for n in (1, 2, 9, 64):
        for negative in ((), (n - 1,), tuple(range(n // 2, n, 3))):
            els = _random_hermitian_elements(rng, d, n, negative)
            checks = [atomic_state_check(el, ELEMENT_PSD_TOL) for el in els.values()]
            coeffs = np.array([el.coeffs for el in els.values()])
            assert np.array_equal(_lowest_eigenvalues(coeffs, d), [c.margin for c in checks])
            if not negative:
                Assemblage(BIPARTITE, (n,), (1,), els)
                continue
            # the first failing key in dict order, with its per-element message
            order = list(rng.permutation(n))
            shuffled = {(int(a), 0): els[(int(a), 0)] for a in order}
            first = next(k for k in shuffled if k[0] in negative)
            expected = (f"element {first} is not positive: "
                        f"{atomic_state_check(shuffled[first], ELEMENT_PSD_TOL).describe()}")
            with pytest.raises(ValueError) as exc:
                Assemblage(BIPARTITE, (n,), (1,), shuffled)
            assert str(exc.value) == expected


def _looped_positivity_margin(asm, tol):
    """The lowest element eigenvalue and its first key in grid (sorted key) order."""
    worst, which = np.inf, None
    for key in sorted(asm.elements):
        m = atomic_state_check(asm.elements[key], tol).margin
        if m < worst:
            worst, which = m, key
    return worst, which


def test_positivity_margin_matches_per_element_loop():
    rng = np.random.default_rng(7)
    asms = [paper_assemblage(name) for name in ("pr-box", "bwi-star", "bwi-star-star")]
    for d in (2, 3, 4):
        els = _random_hermitian_elements(rng, d, 8)
        els[(5, 0)] = els[(2, 0)]  # a tie: the first key in grid order wins
        asms.append(Assemblage(BIPARTITE, (8,), (1,), els))
    for asm in asms:
        lowest = _lowest_eigenvalues(asm.coeffs, asm.d)
        at = np.unravel_index(np.argmin(lowest), lowest.shape)
        assert (float(lowest[at]), asm.key_at(at)) == _looped_positivity_margin(asm, 1e-9)
    # two tied failing elements: ns_check names the first in grid order, whatever
    # the dict order
    dip = _vec(np.diag([0.5, 0.0]) - 5e-9 * np.eye(2))
    rest = _vec(np.diag([0.0, 0.5]) + 5e-9 * np.eye(2))
    els = {(a, x): dip if a == 1 else rest for x in (1, 0) for a in (1, 0)}
    res = ns_check(_bipartite(els))
    assert res.rejected and res.margin == atomic_state_check(dip, 1e-9).margin
    assert f"element (1, 0) not positive ({res.margin:.3g})" in res.detail


def test_assemblage_coeffs_hold_every_element_at_its_grid_index():
    rng = np.random.default_rng(8)
    asms = [paper_assemblage(name) for name in ("pr-box", "bwi-star", "bwi-star-star",
                                                "instrumental-star")]
    asms.append(_unequal_local_assemblage(rng))
    for asm in asms:
        grid = asm.outcomes + asm.settings + ((asm.bob_inputs,) if asm.bob_inputs else ())
        assert asm.coeffs.shape == grid + (asm.d ** 2,)
        assert not asm.coeffs.flags.writeable
        for index in np.ndindex(grid):
            assert np.array_equal(asm.coeffs[index], asm.elements[asm.key_at(index)].coeffs)


def test_lhs_stack_matches_per_element_matrices(monkeypatch):
    seen = []

    def spy(stack, tol, scale):
        seen.append(stack)
        return _common_eigenbasis(stack, tol, scale)

    monkeypatch.setattr(steering, "_common_eigenbasis", spy)
    rng = np.random.default_rng(11)
    asms = [paper_assemblage("pr-box"), _bipartite(_uniform_elements())]
    for d in (3, 4):
        asms.append(Assemblage(BIPARTITE, (6,), (1,), _random_hermitian_elements(rng, d, 6)))
    for asm in asms:
        lhs_check(asm)
        _, _, els = asm.as_parties()
        expected = np.array([vector_to_hermitian(els[k]) for k in sorted(els)])
        assert np.array_equal(seen.pop(), expected)


# --- realizations ------------------------------------------------------------------


def _controlled_box_meas():
    rays = effect_cone_rays(B22)
    return controlled_map(
        [measurement_map([rays[0], rays[1]]), measurement_map([rays[2], rays[3]])]
    )


def test_pr_box_realization_matches_closed_form():
    mixed = _vec(np.eye(2) / 2)
    shared = tensor(pr_state(), mixed)
    meas = _controlled_box_meas()
    asm = assemblage_from_realization(shared, [meas, meas])
    assert asm.scenario == MULTIPARTITE
    table = pr_box_table()
    for (a, x), el in asm.elements.items():
        p = table[a[0], a[1], x[0], x[1]]
        assert np.max(np.abs(vector_to_hermitian(el) - p * np.eye(2) / 2)) < 1e-12


def test_singlet_realization_is_quantum_assemblage():
    shared = singlet_vector()
    branches = []
    for sigma in (PAULI_Z, PAULI_X):
        effects = [_vec((np.eye(2) + s * sigma) / 2) for s in (1, -1)]
        branches.append(measurement_map(effects))
    asm = assemblage_from_realization(shared, [controlled_map(branches)])
    assert asm.scenario == BIPARTITE
    res = ns_check(asm)
    assert res.accepted
    for x in range(2):
        total = sum(asm.matrix(a, x) for a in range(2))
        assert np.max(np.abs(total - np.eye(2) / 2)) < 1e-12
    # steered states of the singlet: 1/2 (I - sigma^T)/... check against direct formula
    for x, sigma in enumerate((PAULI_Z, PAULI_X)):
        for a, s in enumerate((1, -1)):
            direct = (np.eye(2) - s * sigma.T) / 4
            assert np.max(np.abs(asm.matrix(a, x) - direct)) < 1e-12


def test_product_state_realization_is_lhs():
    rng = np.random.default_rng(5)
    rho = _vec(random_density(rng, 2))
    vert = state_vertices(B22)[0]
    asm = assemblage_from_realization(tensor(vert, rho), [_controlled_box_meas()])
    verdict, model = lhs_check(asm)
    assert verdict.accepted
    assert model.max_error(asm) < 1e-9


def test_realization_rejects_bad_inputs():
    mixed = _vec(np.eye(2) / 2)
    shared = tensor(pr_state(), mixed)
    meas = _controlled_box_meas()
    with pytest.raises(ValueError):
        assemblage_from_realization(shared, [])
    with pytest.raises(ValueError):
        assemblage_from_realization(shared, [meas, meas, meas])
    bad_shared = tensor(GptVector(system(B22, B22), -pr_state().coeffs), mixed)
    with pytest.raises(ValueError):
        assemblage_from_realization(bad_shared, [meas, meas])


def test_realization_soundness_random():
    rng = np.random.default_rng(6)
    from witworld import cone_generators

    gens = cone_generators(system(B22, B22))
    for _ in range(8):
        weights = rng.dirichlet(np.ones(len(gens)))
        box_part = GptVector(
            system(B22, B22), sum(w * g.coeffs for w, g in zip(weights, gens))
        )
        shared = tensor(box_part, _vec(random_density(rng, 2)))
        meas = [
            controlled_map([measurement_map(random_box_measurement(rng)) for _ in range(2)])
            for _ in range(2)
        ]
        asm = assemblage_from_realization(shared, meas, validate=False)
        assert ns_check(asm).accepted


def _reference_realization(shared, measurements, bob_transform=None, bob_input=None):
    """The realization as a loop over element keys, each element through
    partial_apply_classical, parallel, apply and steer: the arithmetic the
    realization must reproduce bit for bit."""
    n = len(measurements)
    settings = [m.domain.atoms[0].v for m in measurements]
    outcomes = [m.codomain.atoms[0].v for m in measurements]
    if bob_transform is None:
        bob_transform = identity_map(SystemType(shared.atoms[n:]))

    def steered(x_vec, bob_map):
        alice = [partial_apply_classical(measurements[i], x_vec[i]) for i in range(n)]
        out = apply(parallel(*alice, bob_map), shared)
        result = {}
        for a_vec in itertools.product(*(range(o) for o in outcomes)):
            eff = tensor_all([
                classical_outcome_effect(outcomes[i], a_vec[i]) for i in range(n)
            ])
            result[a_vec] = steer(out, eff, on=tuple(range(n)))
        return result

    if bob_input is not None:
        els = {}
        for x in range(settings[0]):
            for y in range(bob_input):
                branch = steered((x,), partial_apply_classical(bob_transform, y))
                for a_vec, sigma in branch.items():
                    els[(a_vec[0], x, y)] = sigma
        return Assemblage(BOB_WITH_INPUT, tuple(outcomes), tuple(settings), els,
                          bob_inputs=bob_input)
    els = {}
    for x_vec in itertools.product(*(range(s) for s in settings)):
        for a_vec, sigma in steered(x_vec, bob_transform).items():
            els[(a_vec, x_vec)] = sigma
    if n == 1:
        flat = {(a[0], x[0]): v for (a, x), v in els.items()}
        return Assemblage(BIPARTITE, tuple(outcomes), tuple(settings), flat)
    return Assemblage(MULTIPARTITE, tuple(outcomes), tuple(settings), els)


def _assert_same_bits(asm, ref):
    assert (asm.scenario, asm.outcomes, asm.settings, asm.bob_inputs) == (
        ref.scenario, ref.outcomes, ref.settings, ref.bob_inputs)
    assert list(asm.elements) == list(ref.elements)
    assert asm.coeffs.shape == ref.coeffs.shape
    assert asm.coeffs.tobytes() == ref.coeffs.tobytes()
    for key, el in asm.elements.items():
        assert el.system == ref.elements[key].system
        assert el.coeffs.tobytes() == ref.elements[key].coeffs.tobytes()


def _random_povm(rng, d, outcomes):
    """``outcomes`` quantum effects summing to the identity: S^-1/2 A_k S^-1/2."""
    parts = [random_psd(rng, d) for _ in range(outcomes)]
    vals, vecs = np.linalg.eigh(sum(parts))
    root = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return [_vec(root @ a @ root) for a in parts]


def _random_box_povm(rng, outcomes):
    """``outcomes`` B2,2 effects summing to the unit effect."""
    e0, e1 = random_box_measurement(rng)
    if outcomes == 1:
        return [GptVector(e0.system, e0.coeffs + e1.coeffs)]
    if outcomes == 2:
        return [e0, e1]
    t = rng.uniform(0.1, 0.9)
    return [GptVector(e0.system, t * e0.coeffs), GptVector(e0.system, (1 - t) * e0.coeffs), e1]


def _random_share_state(rng, atom):
    if isinstance(atom, Quantum):
        return random_density(rng, atom.d)
    verts = state_vertices(atom)
    return GptVector(system(atom), sum(w * v.coeffs for w, v in
                                       zip(rng.dirichlet(np.ones(len(verts))), verts)))


def _random_shared(rng, atoms):
    """A separable mixture over ``atoms``, or an entangled density when all are quantum."""
    if all(isinstance(a, Quantum) for a in atoms) and rng.random() < 0.5:
        return hermitian_tensor_to_vector(
            random_density(rng, math.prod(a.d for a in atoms)), [a.d for a in atoms])
    total = 0.0
    for w in rng.dirichlet(np.ones(3)):
        parts = [_random_share_state(rng, a) for a in atoms]
        parts = [p if isinstance(p, GptVector) else _vec(p) for p in parts]
        total = total + w * tensor_all(parts).coeffs
    return GptVector(SystemType(tuple(atoms)), total)


def _random_qubit_map(rng):
    kind = rng.integers(4)
    if kind == 0:
        return identity_map(system(Quantum(2)))
    if kind == 1:
        return transpose_map(2)
    if kind == 2:
        return unot_map(2)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return unitary_conjugation_map(u)


def _random_realization(rng):
    """Random measurements on random quantum and box shares, with and without
    a passive-party map, and in the Bob-with-input scenario."""
    with_input = rng.random() < 0.3
    n = 1 if with_input else int(rng.integers(1, 4))
    atoms = [Quantum(2) if rng.random() < 0.5 else B22 for _ in range(n)]
    measurements = []
    for atom in atoms:
        outcomes, settings = (int(v) for v in rng.integers(1, 4, size=2))
        povms = [_random_povm(rng, 2, outcomes) if isinstance(atom, Quantum)
                 else _random_box_povm(rng, outcomes) for _ in range(settings)]
        measurements.append(controlled_map([measurement_map(p) for p in povms]))
    bob_atom = Quantum(2)
    transform, inputs = None, None
    if with_input:
        inputs = int(rng.integers(1, 4))
        transform = controlled_map([_random_qubit_map(rng) for _ in range(inputs)])
    elif rng.random() < 0.3:
        bob_atom = B22
        transform = compose_seq(
            preparation_map([_vec(random_density(rng, 2)) for _ in range(2)]),
            measurement_map(random_box_measurement(rng)))
    elif rng.random() < 0.5:
        transform = _random_qubit_map(rng)
    shared = _random_shared(rng, atoms + [bob_atom])
    return shared, measurements, transform, inputs


@pytest.mark.parametrize("seed", range(40))
def test_realization_matches_the_per_key_reference_bit_for_bit(seed):
    shared, meas, transform, inputs = _random_realization(np.random.default_rng([17, seed]))
    asm = assemblage_from_realization(shared, meas, bob_transform=transform,
                                      bob_input=inputs, validate=False)
    _assert_same_bits(asm, _reference_realization(shared, meas, transform, inputs))


@pytest.mark.parametrize("seed", range(4))
def test_realization_zeroes_rounding_noise_as_the_reference_does(seed):
    # measuring a pure state in a basis that contains it: the weight of the
    # orthogonal outcome is 0, computed as rounding noise that apply's rule zeroes
    rng = np.random.default_rng(seed)
    n = rng.normal(size=3)
    proj = (np.eye(2) + np.einsum("i,ijk->jk", n / np.linalg.norm(n), np.array(PAULIS))) / 2
    meas = controlled_map([measurement_map([_vec(np.eye(2) - proj), _vec(proj)])])
    shared = tensor(_vec(proj), _vec(random_density(rng, 2)))
    asm = assemblage_from_realization(shared, [meas], validate=False)
    _assert_same_bits(asm, _reference_realization(shared, [meas]))
    assert not asm.coeffs[0].any()


def _reference_named_realization(name):
    """The named realizations' inputs, built from their definitions here."""
    box = _controlled_box_meas()
    if name == "pr-box":
        return tensor(pr_state(), _vec(np.eye(2) / 2)), [box, box], None, None
    if name == "bwi-star":
        device = compose_seq(
            preparation_map([_vec(np.diag([1.0, 0.0])), _vec(np.diag([0.0, 1.0]))]), box)
        return pr_state(), [box], device, 2
    ct = controlled_map([identity_map(system(Quantum(2))), transpose_map(2)])
    meas = controlled_map([
        measurement_map([_vec((np.eye(2) + sign * s.T) / 2) for sign in (1.0, -1.0)])
        for s in PAULIS])
    return builtin_state("phi-plus"), [meas], ct, 2


@pytest.mark.parametrize("name", PAPER_ASSEMBLAGE_NAMES)
def test_named_assemblages_match_the_per_key_reference_bit_for_bit(name):
    if name == "gleason":
        witness = builtin_state("singlet-pt")
        z = [_vec(np.diag([1.0, 0.0])), _vec(np.diag([0.0, 1.0]))]
        x = [_vec(np.array([[0.5, s * 0.5], [s * 0.5, 0.5]])) for s in (1.0, -1.0)]
        asm = paper_assemblage("gleason", witness=witness, measurements=[[z, x]])
        ref = _reference_realization(
            witness, [controlled_map([measurement_map(z), measurement_map(x)])])
    elif name == "instrumental-star":
        asm = paper_assemblage(name)
        ref = wire_instrumental(_reference_realization(
            *_reference_named_realization("bwi-star-star")))
    else:
        asm = paper_assemblage(name)
        ref = _reference_realization(*_reference_named_realization(name))
    _assert_same_bits(asm, ref)


def test_named_realizations_check_each_object_once(monkeypatch):
    names = ("pr-box", "bwi-star", "bwi-star-star")
    for name in names:
        paper_assemblage(name)  # builds each realization and checks its shared state
    counts = {}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for key in ("trace_condition_check", "composite_state_check"):
        monkeypatch.setattr(steering, key, counting(getattr(steering, key), key))
    for name in names:
        counts.update(trace_condition_check=0, composite_state_check=0)
        for _ in range(5):
            paper_assemblage(name)
        # pr-box passes its one measurement object for both parties
        assert counts == {"trace_condition_check": 5, "composite_state_check": 0}, name
    counts.update(trace_condition_check=0, composite_state_check=0)
    steering._named_realization.cache_clear()
    paper_assemblage("pr-box")
    assert counts == {"trace_condition_check": 1, "composite_state_check": 1}


# --- no-signalling checks ----------------------------------------------------------


def test_ns_bipartite_accepts_uniform():
    assert ns_check(_bipartite(_uniform_elements())).accepted


def test_ns_bipartite_rejects_signalling():
    els = {
        (0, 0): _vec(np.eye(2) / 2),
        (1, 0): _vec(np.eye(2) / 2),
        (0, 1): _vec(np.eye(2) / 4),
        (1, 1): _vec(np.eye(2) / 4),
    }
    res = ns_check(_bipartite(els))
    assert res.rejected
    assert "totals depend" in res.detail


def test_ns_deviation_is_the_spread_over_settings():
    # outcome totals I/2 + s X at s = 0, +delta, -delta: their X coefficient
    # spreads over twice its largest distance from the setting-0 value
    delta = 0.5e-9
    els = {(a, x): _vec((np.eye(2) / 2 + s * PAULI_X) / 2)
           for a in range(2) for x, s in enumerate((0.0, delta, -delta))}
    asm = Assemblage(BIPARTITE, (2,), (3,), els)
    totals = asm.coeffs.sum(axis=0)
    spread = float(np.max(totals.max(axis=0) - totals.min(axis=0)))
    assert 1e-9 < spread < 2e-9
    assert float(np.max(np.abs(totals - totals[0]))) < 1e-9
    res = ns_check(asm)
    assert res.rejected and res.margin == -spread
    assert f"outcome totals depend on the settings (dev {spread:.3g})" == res.detail


def test_ns_normalization_is_checked_at_every_setting():
    # the totals' traces are 1 at x=0 and 1 + eps at x=1; the trace
    # deviation at x=1 exceeds the coefficient spread, so it sets the margin
    eps = 4e-10
    els = {(a, x): _vec(np.eye(2) * (1 + x * eps) / 4) for a in range(2) for x in range(2)}
    asm = Assemblage(BIPARTITE, (2,), (2,), els)
    totals = asm.coeffs.sum(axis=0)
    traces = totals @ np.array([np.sqrt(2), 0, 0, 0])
    spread = float(np.max(totals.max(axis=0) - totals.min(axis=0)))
    res = ns_check(asm)
    assert res.accepted and traces[0] == 1.0
    assert res.margin == -abs(traces[1] - 1.0) < -spread


def test_ns_bipartite_reports_the_actual_trace():
    els = {(a, x): _vec(np.eye(2) / 8) for a in range(2) for x in range(2)}
    res = ns_check(_bipartite(els))
    assert res.rejected
    assert "reduced state has trace 0.5" in res.detail
    assert res.margin == pytest.approx(-0.5)


def test_ns_multipartite_reports_the_actual_trace():
    els = {((a, b), (x, y)): _vec(np.eye(2) / 16)
           for a, b, x, y in itertools.product(range(2), repeat=4)}
    res = ns_check(Assemblage(MULTIPARTITE, (2, 2), (2, 2), els))
    assert res.rejected
    assert "reduced state has trace 0.5" in res.detail
    assert res.margin == pytest.approx(-0.5)


def test_ns_normalization_failure_prints_every_digit_of_the_trace():
    # .6g would print "trace 1" for 1.000001
    asm = _scaled(_singlet_gleason(), 1 + 1e-6)
    res = ns_check(asm)
    assert res.rejected
    printed = res.detail.rsplit("reduced state has trace ", 1)[1]
    assert printed.startswith("1.000000")
    # the margin is 1 - trace, exact here, so the printed number is the trace itself
    assert float(printed) == 1.0 - res.margin
    assert res.margin == pytest.approx(-1e-6)
    assert ns_check(asm, tol=1e-3).accepted


def test_ns_multipartite_accepts_pr_and_lhs():
    assert ns_check(paper_assemblage("pr-box")).accepted
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    p = random_local_box(rng)
    els = {
        ((a, b), (x, y)): _vec(p[a, b, x, y] * rho)
        for a, b, x, y in itertools.product(range(2), repeat=4)
    }
    asm = Assemblage(MULTIPARTITE, (2, 2), (2, 2), els)
    assert ns_check(asm).accepted


def test_ns_multipartite_rejects_signalling_piece():
    # party 2's outcome tracks party 1's setting: marginals depend on x
    els = {}
    for a, b, x, y in itertools.product(range(2), repeat=4):
        p = 0.5 if b == x else 0.0
        els[((a, b), (x, y))] = _vec(p * np.eye(2) / 2)
    asm = Assemblage(MULTIPARTITE, (2, 2), (2, 2), els)
    res = ns_check(asm)
    assert res.rejected
    assert "marginal" in res.detail


def test_ns_bob_with_input():
    asm = paper_assemblage("bwi-star")
    assert ns_check(asm).accepted
    # traces depending on y must be rejected
    els = {}
    for a in range(2):
        for x in range(2):
            for y in range(2):
                w = 0.5 if y == 0 else (0.8 if a == 0 else 0.2)
                els[(a, x, y)] = _vec(w * np.eye(2) / 2)
    bad = Assemblage(BOB_WITH_INPUT, (2,), (2,), els, bob_inputs=2)
    res = ns_check(bad)
    assert res.rejected
    assert "input" in res.detail


def test_ns_dispatch_and_scenario_guards():
    for name in ("pr-box", "bwi-star", "bwi-star-star"):
        assert ns_check(paper_assemblage(name)).accepted
    with pytest.raises(ValueError):
        ns_check(paper_assemblage("instrumental-star"))


# --- flagship assemblages -----------------------------------------------------------


def test_pr_box_closed_form_and_ns():
    asm = paper_assemblage("pr-box")
    table = pr_box_table()
    for (a, x), el in asm.elements.items():
        expected = table[a[0], a[1], x[0], x[1]] * np.eye(2) / 2
        assert np.max(np.abs(vector_to_hermitian(el) - expected)) < 1e-10
    assert ns_check(asm).margin >= -1e-9


def test_bwi_star_closed_form():
    asm = paper_assemblage("bwi-star")
    for a in range(2):
        for x in range(2):
            for y in range(2):
                k = a ^ (x * y)
                expected = np.zeros((2, 2))
                expected[k, k] = 0.5
                assert np.max(np.abs(asm.matrix(a, x, y) - expected)) < 1e-10
    assert ns_check(asm).accepted


def test_bwi_star_star_closed_form_and_transpose_structure():
    asm = paper_assemblage("bwi-star-star")
    for a in range(2):
        for x in range(3):
            base = (np.eye(2) + (-1) ** a * PAULIS[x]) / 4
            for y in range(2):
                sign = (-1) ** (a + (1 if (x == 1 and y == 1) else 0))
                expected = (np.eye(2) + sign * PAULIS[x]) / 4
                got = asm.matrix(a, x, y)
                assert np.max(np.abs(got - expected)) < 1e-10
                if y == 1:
                    assert np.max(np.abs(got - base.T)) < 1e-10
    assert ns_check(asm).margin >= -1e-9


def test_instrumental_star_is_wiring_of_bwi_star_star():
    asm = paper_assemblage("instrumental-star")
    bwi = paper_assemblage("bwi-star-star")
    wired = wire_instrumental(bwi)
    for a in range(2):
        for x in range(3):
            sign = (-1) ** (a + (1 if (x == 1 and a == 1) else 0))
            expected = (np.eye(2) + sign * PAULIS[x]) / 4
            assert np.max(np.abs(asm.matrix(a, x) - expected)) < 1e-12
            assert np.max(np.abs(wired.matrix(a, x) - asm.matrix(a, x))) < 1e-15


def test_wiring_of_input_independent_assemblage_is_its_bipartite_core():
    base = paper_assemblage("bwi-star")
    els = {
        (a, x, y): base.element(a, x, 0) for a in range(2) for x in range(2) for y in range(2)
    }
    asm = Assemblage(BOB_WITH_INPUT, (2,), (2,), els, bob_inputs=2)
    wired = wire_instrumental(asm)
    for a in range(2):
        for x in range(2):
            assert np.array_equal(wired.matrix(a, x), vector_to_hermitian(base.element(a, x, 0)))


def test_wire_cardinality_mismatch():
    asm = paper_assemblage("bwi-star-star")  # outcomes 2, inputs 2: ok
    els = {
        (a, x, 0): asm.element(a, x, 0) for a in range(2) for x in range(3)
    }
    one_input = Assemblage(BOB_WITH_INPUT, (2,), (3,), els, bob_inputs=1)
    with pytest.raises(ValueError):
        wire_instrumental(one_input)


def test_gleason_with_quantum_state_is_quantum_assemblage():
    amp = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    w = hermitian_tensor_to_vector(np.outer(amp, amp), (2, 2))
    povms = [[
        [_vec(np.diag([1.0, 0.0])), _vec(np.diag([0.0, 1.0]))],
        [_vec(np.full((2, 2), 0.5)), _vec(np.array([[0.5, -0.5], [-0.5, 0.5]]))],
    ]]
    asm = paper_assemblage("gleason", witness=w, measurements=povms)
    assert asm.scenario == BIPARTITE
    assert ns_check(asm).accepted
    # oracle: direct partial trace with raw matrices
    big = np.outer(amp, amp)
    mz = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    mx = [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]
    for x, povm in enumerate((mz, mx)):
        for a, m in enumerate(povm):
            direct = np.einsum("ij,ikjl->kl", m.astype(complex), big.reshape(2, 2, 2, 2))
            assert np.max(np.abs(asm.matrix(a, x) - direct)) < 1e-10


def test_gleason_with_witness_state_is_post_quantum_capable():
    # the partial transpose of the singlet is a valid shared state here
    from witworld import builtin_state

    w = builtin_state("singlet-pt")
    povms = [[
        [_vec((np.eye(2) + s * sigma) / 2) for s in (1, -1)]
    ] for sigma in (PAULI_Z,)]
    asm = paper_assemblage("gleason", witness=w, measurements=[povms[0]])
    assert ns_check(asm).accepted


def test_gleason_rejects_invalid_witness():
    bad = hermitian_tensor_to_vector(-np.diag([1.0, 0, 0, 0]), (2, 2))
    with pytest.raises(ValueError):
        paper_assemblage("gleason", witness=bad, measurements=[[]])
    with pytest.raises(ValueError):
        paper_assemblage("gleason")
    with pytest.raises(KeyError):
        paper_assemblage("no-such-assemblage")


# --- LHS feasibility ----------------------------------------------------------------


def test_pr_box_assemblage_is_lhs_infeasible_with_certificate():
    asm = paper_assemblage("pr-box")
    verdict, model = lhs_check(asm)
    assert verdict.rejected
    assert model is None
    cert = verdict.witness
    assert cert.value > 1e-6
    assert cert.evaluate(asm) == pytest.approx(cert.value, abs=1e-9)


def test_certificate_is_sound_on_lhs_assemblages():
    # the certificate functional must be <= 0 on deterministic LHS data
    asm = paper_assemblage("pr-box")
    verdict, _ = lhs_check(asm)
    cert = verdict.witness
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_local_box(rng)
        els = {
            ((a, b), (x, y)): _vec(p[a, b, x, y] * np.eye(2) / 2)
            for a, b, x, y in itertools.product(range(2), repeat=4)
        }
        lhs_asm = Assemblage(MULTIPARTITE, (2, 2), (2, 2), els)
        assert cert.evaluate(lhs_asm) <= 1e-8


def test_shared_randomness_assemblage_feasible():
    rng = np.random.default_rng(12)
    # two hidden values with diagonal local states
    rhos = [np.diag(rng.dirichlet([1, 1])) for _ in range(2)]
    pls = rng.dirichlet([1, 1])
    resp = [  # deterministic responses per hidden value
        {(a, x): 1.0 if a == (x ^ lam) else 0.0 for a in range(2) for x in range(2)}
        for lam in range(2)
    ]
    els = {
        (a, x): _vec(sum(pls[l] * resp[l][(a, x)] * rhos[l] for l in range(2)))
        for a in range(2)
        for x in range(2)
    }
    asm = _bipartite(els)
    verdict, model = lhs_check(asm)
    assert verdict.accepted
    assert model.max_error(asm) < 1e-9
    assert abs(sum(model.weights) - 1.0) < 1e-9


def test_fixed_state_assemblage_feasible():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    p = rng.dirichlet([1, 1], size=2)  # p[x][a]
    els = {(a, x): _vec(p[x][a] * rho) for a in range(2) for x in range(2)}
    verdict, model = lhs_check(_bipartite(els))
    assert verdict.accepted
    assert model.max_error(_bipartite(els)) < 1e-9


def test_noncommuting_assemblage_unsupported():
    els = {
        (0, 0): _vec(np.diag([0.5, 0.0])),
        (1, 0): _vec(np.diag([0.0, 0.5])),
        (0, 1): _vec(np.full((2, 2), 0.25)),
        (1, 1): _vec(np.array([[0.25, -0.25], [-0.25, 0.25]])),
    }
    verdict, model = lhs_check(_bipartite(els))
    assert verdict.status == "unsupported"
    assert model is None


def test_lhs_scenario_guard_and_strategy_cap():
    with pytest.raises(ValueError):
        lhs_check(paper_assemblage("bwi-star"))
    asm = paper_assemblage("pr-box")
    with pytest.raises(ValueError):
        lhs_check(asm, LhsConfig(strategy_cap=3))
    with pytest.raises(StrategyCapError):
        lhs_check(asm, LhsConfig(strategy_cap=15))
    assert lhs_check(asm, LhsConfig(strategy_cap=16))[0].rejected


# --- oracle agreement ---------------------------------------------------------------


def test_lhs_check_agrees_with_scipy_oracle():
    pytest.importorskip("scipy.optimize")
    from conftest import chsh_symmetry_values, lhs_scipy_oracle

    rng = np.random.default_rng(21)
    checked = 0
    while checked < 10:
        mix = rng.uniform(0, 1)
        p = mix * pr_box_table() + (1 - mix) * random_local_box(rng)
        if min(abs(v - 2.0) for v in chsh_symmetry_values(p)) < 1e-3:
            continue  # too close to the local boundary for solver agreement
        rho = np.diag(rng.dirichlet([1.5, 1.5]))
        els = {
            ((a, b), (x, y)): _vec(p[a, b, x, y] * rho)
            for a, b, x, y in itertools.product(range(2), repeat=4)
        }
        asm = Assemblage(MULTIPARTITE, (2, 2), (2, 2), els)
        verdict, _ = lhs_check(asm)
        assert verdict.status in ("accepted", "rejected")
        assert verdict.accepted == lhs_scipy_oracle(asm, np.random.default_rng(100 + checked))
        checked += 1


# --- checked verdicts ------------------------------------------------------------------


def _local_bipartite():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    p = rng.dirichlet([1, 1], size=2)  # p[x][a]
    return _bipartite({(a, x): _vec(p[x][a] * rho) for a in range(2) for x in range(2)})


def test_lp_stopped_early_is_not_a_rejection(monkeypatch):
    asm = _local_bipartite()
    results = []

    def one_pivot(A, b, tol=1e-9):
        results.append(lp.solve_feasibility(A, b, tol=tol, max_iter=1))
        return results[-1]

    monkeypatch.setattr(steering, "solve_feasibility", one_pivot)
    verdict, model = lhs_check(asm)
    # the stopped LP claims infeasibility, but its certificate scores above 0 on
    # some deterministic strategy, so it separates nothing
    assert not results[-1].feasible
    assert verdict.status == "unsupported"
    assert "certificate" in verdict.detail
    assert model is None
    monkeypatch.undo()
    assert lhs_check(asm)[0].accepted


def test_model_that_misses_the_elements_is_not_accepted(monkeypatch):
    def sloppy(A, b, tol=1e-9):
        res = lp.solve_feasibility(A, b, tol=tol)
        return dataclasses.replace(res, x=res.x * 1.01) if res.feasible else res

    monkeypatch.setattr(steering, "solve_feasibility", sloppy)
    verdict, model = lhs_check(_local_bipartite())
    assert verdict.status == "unsupported"
    assert verdict.margin < -1e-9
    assert model is None


def test_model_that_misses_small_elements_is_not_accepted(monkeypatch):
    # the model check is relative to the elements' size: at 1e-10 an absolute
    # tol would accept a model 1% off
    def sloppy(A, b, tol=1e-9):
        res = lp.solve_feasibility(A, b, tol=tol)
        return dataclasses.replace(res, x=res.x * 1.01) if res.feasible else res

    monkeypatch.setattr(steering, "solve_feasibility", sloppy)
    verdict, model = lhs_check(_scaled(_local_bipartite(), 1e-10))
    assert verdict.status == "unsupported"
    assert model is None


# --- parity with the loop-built LHS pieces -------------------------------------------


def _nested_loop_dmat(keys, outcomes, settings):
    """Strategy list and 0/1 matrix built entry by entry: the reference."""
    per_party = [list(itertools.product(range(o), repeat=s)) for o, s in zip(outcomes, settings)]
    strategies = list(itertools.product(*per_party))
    dmat = np.zeros((len(keys), len(strategies)))
    for col, lam in enumerate(strategies):
        for row, (a_vec, x_vec) in enumerate(keys):
            if all(f[x] == a for f, a, x in zip(lam, a_vec, x_vec)):
                dmat[row, col] = 1.0
    return strategies, dmat


def _party_keys(outcomes, settings):
    return sorted(
        (a, x)
        for x in itertools.product(*(range(s) for s in settings))
        for a in itertools.product(*(range(o) for o in outcomes))
    )


@pytest.mark.parametrize("outcomes, settings", [
    ((2,), (2,)), ((3,), (2,)), ((2, 3), (3, 2)), ((3, 2), (1, 2)), ((2, 2, 2), (2, 2, 2)),
])
def test_response_matrix_matches_nested_loops(outcomes, settings):
    keys = _party_keys(outcomes, settings)
    responses = _party_responses(outcomes, settings, 10 ** 6)
    strategies, dmat = _nested_loop_dmat(keys, outcomes, settings)
    assert np.array_equal(_response_matrix(outcomes, settings, responses), dmat)
    assert _strategies(range(len(strategies)), responses) == strategies


def _pairwise_eigenbasis(mats, tol, scale):
    """Pair-by-pair commutation check and per-matrix rotation: the reference.

    ``scale`` is the unit size: commutators are compared with tol * scale**2,
    and a rotation passes when dropping each rotated matrix's off-diagonal
    part moves none of its coefficients by more than tol * scale.
    """
    ctol = max(tol, 1e-10) * scale * scale
    for a, b in itertools.combinations(mats, 2):
        if np.max(np.abs(a @ b - b @ a)) > ctol:
            return None, None
    for seed in (190452, 881237, 55901):
        w = np.random.default_rng(seed).normal(size=len(mats))
        h = sum(wi * m for wi, m in zip(w, mats))
        _, u = np.linalg.eigh(h)
        off = 0.0
        for m in mats:
            r = u.conj().T @ m @ u
            dropped = hermitian_to_vector(u @ (r - np.diag(np.diag(r))) @ u.conj().T)
            off = max(off, float(np.max(np.abs(dropped.coeffs))))
        if off <= tol * scale:
            return u, np.array([np.real(np.diag(u.conj().T @ m @ u)) for m in mats])
    return None, None


def _unequal_local_assemblage(rng, d=3, hidden=4):
    """Outcomes (2, 3), settings (3, 2): a shared-randomness model in a random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    weights = rng.dirichlet(np.ones(hidden))
    states = [w * q @ np.diag(rng.dirichlet(np.ones(d))) @ q.conj().T for w in weights]
    responses = [(tuple(rng.integers(0, 2, size=3)), tuple(rng.integers(0, 3, size=2)))
                 for _ in range(hidden)]
    els = {}
    for a, x in _party_keys((2, 3), (3, 2)):
        m = sum((s for s, (f, g) in zip(states, responses) if f[x[0]] == a[0] and g[x[1]] == a[1]),
                np.zeros((d, d), dtype=complex))
        els[(a, x)] = _vec(m)
    return Assemblage(MULTIPARTITE, (2, 3), (3, 2), els)


def test_common_eigenbasis_matches_pairwise_loop():
    rng = np.random.default_rng(31)
    cases = [paper_assemblage("pr-box"), _local_bipartite(), _unequal_local_assemblage(rng)]
    cases.append(_bipartite({
        (0, 0): _vec(np.diag([0.5, 0.0])), (1, 0): _vec(np.diag([0.0, 0.5])),
        (0, 1): _vec(np.full((2, 2), 0.25)), (1, 1): _vec(np.array([[0.25, -0.25], [-0.25, 0.25]])),
    }))
    for asm in cases:
        _, _, els = asm.as_parties()
        mats = [vector_to_hermitian(els[k]) for k in sorted(els)]
        stack = np.array(mats)
        scale = max(1.0, float(np.max(np.abs(stack))))
        u, rotated = _common_eigenbasis(stack, 1e-9, scale)
        u_ref, tables_ref = _pairwise_eigenbasis(mats, 1e-9, scale)
        assert (u is None) == (u_ref is None)
        if u is not None:
            assert np.array_equal(u, u_ref)
            assert np.array_equal(np.real(np.diagonal(rotated, axis1=1, axis2=2)), tables_ref)
    assert u is None  # the last case does not commute


def test_unequal_cardinality_assemblage_is_lhs():
    rng = np.random.default_rng(32)
    for _ in range(5):
        asm = _unequal_local_assemblage(rng)
        verdict, model = lhs_check(asm)
        assert verdict.accepted
        err = model.max_error(asm)
        assert err < 1e-9
        # the element-by-element rebuild gives the same error
        _, _, els = asm.as_parties()
        assert err == max(float(np.max(np.abs(model.element(a, x).coeffs - el.coeffs)))
                          for (a, x), el in els.items())


def test_all_zero_assemblage_model_has_zero_elements():
    # every LP weight is 0, so the model keeps no strategy, yet its
    # elements still live on the assemblage's system
    asm = _bipartite({(a, x): _vec(np.zeros((2, 2))) for a in range(2) for x in range(2)})
    verdict, model = lhs_check(asm)
    assert verdict.accepted
    assert model.strategies == ()
    el = model.element((0,), (0,))
    assert el.system == asm.element(0, 0).system
    assert not el.coeffs.any()
    assert model.max_error(asm) == 0.0


def test_model_element_rejects_a_key_of_the_wrong_length():
    verdict, model = lhs_check(_bipartite(_uniform_elements()))
    assert verdict.accepted
    assert np.allclose(model.element((0,), (1,)).coeffs, _vec(np.eye(2) / 4).coeffs, atol=1e-12)
    for a_vec, x_vec in (((0, 0), (0, 0)), ((0,), (0, 1)), ((0, 1), (0,)), ((), ())):
        with pytest.raises(ValueError, match="parties"):
            model.element(a_vec, x_vec)


def _three_party_local_assemblage(rng, d=2):
    """64 elements: per eigenvector of a random basis, a mixture of the 64
    deterministic three-party strategies."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = rng.dirichlet(np.ones(d))
    strategies = list(itertools.product(itertools.product(range(2), repeat=2), repeat=3))
    weights = rng.dirichlet(np.ones(len(strategies)), size=d)
    els = {}
    for a in itertools.product(range(2), repeat=3):
        for x in itertools.product(range(2), repeat=3):
            p = [sum(w for w, lam_fs in zip(weights[k], strategies)
                     if all(f[xi] == ai for f, ai, xi in zip(lam_fs, a, x))) for k in range(d)]
            els[(a, x)] = _vec(q @ np.diag(lam * np.array(p)) @ q.conj().T)
    return Assemblage(MULTIPARTITE, (2, 2, 2), (2, 2, 2), els)


def _unit(stack):
    return 2.0 ** math.frexp(float(np.max(np.abs(stack))))[1]


def _sorted_stack(asm):
    _, _, els = asm.as_parties()
    return np.array([vector_to_hermitian(els[k]) for k in sorted(els)])


@pytest.mark.parametrize("block", [None, 16, 200])
@pytest.mark.parametrize("where", [0, 31, 63])
def test_common_eigenbasis_finds_a_non_commuting_pair_anywhere(monkeypatch, where, block):
    if block is not None:  # products taken 1 or 12 rows at a time
        monkeypatch.setattr(steering, "_PRODUCT_ENTRIES", block)
    rng = np.random.default_rng(33 + where)
    stack = _sorted_stack(_three_party_local_assemblage(rng))
    scale = _unit(stack)
    u, rotated = _common_eigenbasis(stack, 1e-9, scale)
    u_ref, tables_ref = _pairwise_eigenbasis(list(stack), 1e-9, scale)
    assert np.array_equal(u, u_ref)
    assert np.array_equal(np.real(np.diagonal(rotated, axis1=1, axis2=2)), tables_ref)
    stack[where] = np.full((2, 2), 0.125)  # commutes with no element of the random basis
    assert _common_eigenbasis(stack, 1e-9, scale) == (None, None)
    assert _pairwise_eigenbasis(list(stack), 1e-9, scale) == (None, None)


@pytest.mark.parametrize("block", [None, 16, 600])
def test_every_block_of_products_is_checked(monkeypatch, block):
    # only elements 40 and 50 fail to commute; the others are multiples of I
    if block is not None:  # products taken 1 or 2 rows at a time
        monkeypatch.setattr(steering, "_PRODUCT_ENTRIES", block)
    eighs = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m, eigh=np.linalg.eigh: (
        eighs.append(m), eigh(m))[1])
    stack = np.array([np.eye(2) * (k + 1) / 128 for k in range(64)], dtype=complex)
    stack[40] = np.diag([0.5, 0.0])
    stack[50] = np.full((2, 2), 0.25)
    assert _common_eigenbasis(stack, 1e-9, 1.0) == (None, None)
    assert eighs == []  # decided by the commutators, before any rotation


@pytest.mark.parametrize("factor", [1.0, 2.0 ** -10, 2.0 ** 12])
def test_commutation_threshold_is_ctol_at_unit_size(monkeypatch, factor):
    eighs = []
    original = np.linalg.eigh

    def spy(m):
        eighs.append(m)
        return original(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for side, eps in (("below", 1.0 - 1e-3), ("above", 1.0 + 1e-3)):
        # [A, B] has off-diagonal entries of size 0.5 e = eps * 1e-9, the unit-size ctol
        e = 2e-9 * eps
        a = np.diag([0.5, 0.0]).astype(complex)
        b = np.array([[0.25, e], [e, 0.25]], dtype=complex)
        stack = np.array([a, b, a / 2]) * factor
        scale = _unit(stack)
        assert scale == factor
        eighs.clear()
        u, _ = _common_eigenbasis(stack, 1e-9, scale)
        u_ref, _ = _pairwise_eigenbasis(list(stack), 1e-9, scale)
        assert u is None and u_ref is None  # the off-diagonal test still fails
        # below ctol the commutation test passes and the three trial rotations run
        assert len(eighs) == (6 if side == "below" else 0)


def test_stacked_local_states_match_per_strategy_conversion(monkeypatch):
    seen, xs = {}, []

    def basis_spy(stack, tol, scale):
        seen["stack"] = stack
        seen["u"], rotated = _common_eigenbasis(stack, tol, scale)
        return seen["u"], rotated

    def lp_spy(A, b, tol=1e-9):
        res = lp.solve_feasibility(A, b, tol=tol)
        xs.append(res.x)
        return res

    monkeypatch.setattr(steering, "_common_eigenbasis", basis_spy)
    monkeypatch.setattr(steering, "solve_feasibility", lp_spy)
    rng = np.random.default_rng(34)
    asms = [_local_bipartite(), _unequal_local_assemblage(rng),
            _three_party_local_assemblage(rng), _three_party_local_assemblage(rng, 3)]
    asms += [_scaled(asm, 1e-7) for asm in asms[:2]]
    for asm in asms:
        xs.clear()
        verdict, model = lhs_check(asm)
        assert verdict.accepted
        unit = _unit(seen["stack"])
        weights = np.stack(xs, axis=1) * unit
        totals = weights.sum(axis=1)
        used = np.flatnonzero(totals > 1e-13 * unit)
        u = seen["u"]
        expected = []
        for i in used:
            mat = u @ np.diag(weights[i]) @ u.conj().T
            expected.append(hermitian_to_vector((mat + mat.conj().T) / 2))
        assert len(model.local_states) == len(expected)
        for got, want in zip(model.local_states, expected):
            assert got.system == want.system
            assert np.array_equal(got.coeffs, want.coeffs)
        assert model.weights == tuple(float(totals[i]) for i in used)


def test_lhs_check_makes_no_per_element_conversions(monkeypatch):
    asm = _three_party_local_assemblage(np.random.default_rng(35))
    counts = {"hermitian_to_vector": 0, "eigh": 0}
    original_eigh = np.linalg.eigh

    def no_conversion(*args, **kwargs):
        counts["hermitian_to_vector"] += 1
        raise AssertionError("per-element conversion")

    def eigh(m):
        counts["eigh"] += 1
        return original_eigh(m)

    monkeypatch.setattr(systems, "hermitian_to_vector", no_conversion)
    monkeypatch.setattr(steering, "hermitian_to_vector", no_conversion)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    verdict, model = lhs_check(asm)
    assert verdict.accepted and len(asm.elements) == 64
    assert counts["hermitian_to_vector"] == 0
    assert 1 <= counts["eigh"] <= 3


def _scaled(asm, factor):
    els = {k: GptVector(v.system, v.coeffs * factor) for k, v in asm.elements.items()}
    return Assemblage(asm.scenario, asm.outcomes, asm.settings, els)


def _singlet_gleason():
    amp = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    w = hermitian_tensor_to_vector(np.outer(amp, amp), (2, 2))
    povms = [[
        [_vec(np.diag([1.0, 0.0])), _vec(np.diag([0.0, 1.0]))],
        [_vec(np.full((2, 2), 0.5)), _vec(np.array([[0.5, -0.5], [-0.5, 0.5]]))],
    ]]
    return paper_assemblage("gleason", witness=w, measurements=povms)


@pytest.mark.parametrize("factor", [1e-3, 1e-6, 1e-10, 1e-12, 1e-14, 2.0 ** -40])
def test_lhs_verdicts_do_not_depend_on_scale(factor):
    pr = paper_assemblage("pr-box")
    verdict = lhs_check(pr)[0]
    scaled = lhs_check(_scaled(pr, factor))[0]
    assert verdict.rejected and scaled.rejected
    assert scaled.margin == pytest.approx(verdict.margin * factor, rel=1e-9)
    assert lhs_check(_singlet_gleason())[0].status == "unsupported"
    assert lhs_check(_scaled(_singlet_gleason(), factor))[0].status == "unsupported"
    rng = np.random.default_rng(36)
    for asm in (_local_bipartite(), _unequal_local_assemblage(rng),
                _three_party_local_assemblage(rng)):
        verdict, model = lhs_check(asm)
        scaled, scaled_model = lhs_check(_scaled(asm, factor))
        assert verdict.accepted and scaled.accepted
        assert len(scaled_model.strategies) == len(model.strategies)
        assert scaled_model.max_error(_scaled(asm, factor)) <= 1e-9 * factor


# --- one tolerance for the eigenbasis and the model -------------------------------------


def _noisy_one_setting_q3(rng, noise=1e-10):
    """Two outcomes, one setting on Q3: commuting elements plus opposite
    off-diagonal noise, so the elements still sum to one state."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    lam, p = rng.dirichlet(np.ones(3)), rng.uniform(size=3)
    e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    e = noise * (e + e.conj().T) / 2
    np.fill_diagonal(e, 0.0)
    mats = [q @ np.diag(lam * w) @ q.conj().T for w in (p, 1 - p)]
    return Assemblage(BIPARTITE, (2,), (1,), {(0, 0): _vec(mats[0] + e), (1, 0): _vec(mats[1] - e)})


def test_near_commuting_assemblages_get_a_model_or_are_unsupported():
    # every one-setting assemblage has a model; with the noise the elements
    # commute only within 1e-10, and each accepted eigenbasis must yield a
    # model that passes the rebuild check
    rng = np.random.default_rng(37)
    seen = set()
    for _ in range(120):
        asm = _noisy_one_setting_q3(rng)
        stack = coeffs_to_hermitian(asm.coeffs.reshape(-1, 9), (3,))
        u, _ = _common_eigenbasis(stack, 1e-9, _unit(stack))
        verdict, model = lhs_check(asm)
        seen.add(verdict.status)
        if u is None:
            assert verdict.status == "unsupported" and model is None
        else:
            assert verdict.accepted, verdict.detail
            assert model.max_error(asm) <= 1e-9 * _unit(stack)
    assert seen == {"accepted", "unsupported"}


def test_model_rebuilds_each_element_the_same_way_for_element_and_max_error():
    rng = np.random.default_rng(38)
    asms = [_local_bipartite(), _unequal_local_assemblage(rng), _three_party_local_assemblage(rng),
            _bipartite({(a, x): _vec(np.zeros((2, 2))) for a in range(2) for x in range(2)})]
    for asm in asms:
        verdict, model = lhs_check(asm)
        assert verdict.accepted
        n = len(asm.outcomes)
        rebuilt = np.array([model.element(i[:n], i[n:]).coeffs
                            for i in np.ndindex(asm.coeffs.shape[:-1])])
        assert rebuilt.tobytes() == model._rebuild(
            steering._grid_index(asm.outcomes, asm.settings)).tobytes()
        assert model.max_error(asm) == float(np.max(np.abs(rebuilt - asm.coeffs.reshape(
            rebuilt.shape))))
        assert len(model.local_states) == len(model.weights) == model.states.shape[0]
        for state, row in zip(model.local_states, model.states):
            assert state.coeffs.tobytes() == row.tobytes()

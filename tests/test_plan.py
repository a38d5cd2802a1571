"""The one plan per check and shape, against README's list of exact cases.

``compose.plan`` decides, for each check and shape, which methods run
and whether together they decide every input.  README ("How membership
testing works") states the exact cases in words; ``_readme_exact``
writes them out once, and every shape over {C2, B2,2, Q2, Q3} is checked
against it: states and effects of two or three atoms, and maps whose
domain and codomain have two or three atoms together.  On each shape
marked exact a seeded valid input must never come back
``inconclusive-accept``.  The last test pins how often each check reaches
the engine's functions, looked up as module attributes: the benchmark's
tracer times the engine by replacing those attributes.
"""

import collections
import itertools

import numpy as np
import pytest

import witworld.compose as compose
from witworld import (
    Boxworld,
    Classical,
    GptVector,
    LinearMap,
    Quantum,
    SearchConfig,
    SystemType,
    composite_effect_check,
    composite_state_check,
    effect_cone_rays,
    hermitian_to_vector,
    positivity_check,
    trace_condition_check,
    unit_effect,
)
from witworld.compose import kron_all, plan
from witworld.systems import ray_table, vertex_table
from witworld.verdict import ACCEPTED, INCONCLUSIVE_ACCEPT, REJECTED

C2, B22, Q2, Q3 = Classical(2), Boxworld(2, 2), Quantum(2), Quantum(3)
ATOMS = (C2, B22, Q2, Q3)
CFG = SearchConfig(restarts=20)


def _readme_exact(check, effect_atoms, state_atoms):
    """README's exact cases.  An effect or trace check is exact on a state side
    Q2*Q2, Q2*Q3 or Q3*Q2 (separable equals PPT).  Otherwise a check is exact
    where the engine is (at most one quantum atom in the whole form, or exactly
    two, both Q2) and the generators of the state side are complete (at most one
    of its atoms not classical, or those atoms are B2,2*B2,2)."""
    if check in ("effect", "trace") and state_atoms in ((Q2, Q2), (Q2, Q3), (Q3, Q2)):
        return True
    dims = [a.d for a in effect_atoms + state_atoms if isinstance(a, Quantum)]
    non_classical = [a for a in state_atoms if not isinstance(a, Classical)]
    return ((len(dims) <= 1 or dims == [2, 2])
            and (len(non_classical) <= 1 or non_classical == [B22, B22]))


def _shapes():
    """(check, effect atoms, state atoms) of every state, effect and map shape."""
    for n in (2, 3):
        for atoms in itertools.product(ATOMS, repeat=n):
            yield "state", atoms, ()
            yield "effect", (), atoms
            for k in range(n + 1):
                yield "positivity", atoms[k:], atoms[:k]
                yield "trace", (), atoms[:k]


def test_exact_flags_match_the_readme_list():
    shapes = list(_shapes())
    assert len(shapes) == 2 * (16 + 64) + 2 * (3 * 16 + 4 * 64)
    for shape in shapes:
        steps = plan(*shape)
        assert steps.exact == _readme_exact(*shape), (shape, steps.methods)
        assert ("ppt" in steps.methods) == (steps.methods == ("ppt",))


def test_no_spectral_certificate_runs_ahead_of_an_exact_search():
    for shape in _shapes():
        steps = plan(*shape)
        if steps.exact:
            assert not any(m.startswith("spectral") for m in steps.methods), shape
    assert plan("state", (Q2, Q2), ()).methods == ("qubit-pair",)
    assert plan("positivity", (Q2,), (Q2,)).methods == ("qubit-pair",)


# --- seeded valid inputs ------------------------------------------------------------------


def _atomic_state(rng, atom):
    if isinstance(atom, Quantum):
        g = rng.normal(size=(atom.d, atom.d)) + 1j * rng.normal(size=(atom.d, atom.d))
        rho = g @ g.conj().T
        return hermitian_to_vector(rho / np.trace(rho).real).coeffs
    return rng.dirichlet(np.ones(len(vertex_table(atom)))) @ vertex_table(atom)


def _atomic_effect(rng, atom):
    """An effect between 0 and u: a quantum one with eigenvalues in [0, 1), a
    finite one a sub-unit mix of outcome effects."""
    if isinstance(atom, Quantum):
        q = np.linalg.qr(rng.normal(size=(atom.d, atom.d)) + 1j * rng.normal(size=(atom.d,
                                                                                     atom.d)))[0]
        return hermitian_to_vector(q @ np.diag(rng.uniform(size=atom.d)) @ q.conj().T).coeffs
    rays = ray_table(atom)
    return rng.uniform() * rng.dirichlet(np.ones(len(rays))) @ rays


def _mix(rng, atoms, atomic):
    """A convex mix of two products of atomic members."""
    w = rng.uniform()
    return sum(c * kron_all([atomic(rng, a) for a in atoms]) for c in (w, 1.0 - w))


def _valid_input(rng, check, effect_atoms, state_atoms):
    """A call of ``check`` on a seeded valid input of its shape."""
    if check == "state":
        v = GptVector(SystemType(effect_atoms), _mix(rng, effect_atoms, _atomic_state))
        return lambda: composite_state_check(v, CFG)
    if check == "effect":
        e = GptVector(SystemType(state_atoms), _mix(rng, state_atoms, _atomic_effect))
        return lambda: composite_effect_check(e, cfg=CFG)
    dom, cod = SystemType(state_atoms), SystemType(effect_atoms)
    # measure and prepare: s -> <e, s> sigma, with e an effect and sigma a state
    e = _mix(rng, state_atoms, _atomic_effect)
    sigma = _mix(rng, effect_atoms, _atomic_state)
    if check == "positivity":
        t = LinearMap(dom, cod, np.outer(sigma, e))
        return lambda: positivity_check(t, CFG)
    u = unit_effect(dom).coeffs
    near = LinearMap(dom, cod, np.outer(sigma, u + 1e-13 * rng.normal(size=u.shape)))
    fewer = LinearMap(dom, cod, np.outer(sigma, e))
    return lambda: (trace_condition_check(near, "preserving", CFG),
                    trace_condition_check(fewer, "non-increasing", CFG))


def test_valid_inputs_on_exact_shapes_are_never_inconclusive():
    seen = set()
    for k, shape in enumerate(_shapes()):
        if not plan(*shape).exact or shape in seen:
            continue
        seen.add(shape)
        verdicts = _valid_input(np.random.default_rng([k, 5]), *shape)()
        for v in verdicts if isinstance(verdicts, tuple) else (verdicts,):
            assert v.passed, (shape, v.describe())
            assert v.status != INCONCLUSIVE_ACCEPT, (shape, v.describe())
    assert len(seen) > 100


def _box_pair_functional(k):
    """The C2 effect of outcome 0 at position ``k`` of C2 and two B2,2 atoms,
    times (2u - CHSH)/4 on the boxes: at least 0 on every product of
    vertices, -1/2 on a PR box in slot 0, so only the probes reach it."""
    rays = effect_cone_rays(B22)
    diff = [rays[0].coeffs - rays[1].coeffs, rays[2].coeffs - rays[3].coeffs]
    u = unit_effect(SystemType((B22,))).coeffs
    terms = [(2.0, u, u)] + [(-(-1.0) ** (x * y), diff[x], diff[y])
                             for x, y in itertools.product(range(2), repeat=2)]
    point = ray_table(C2)[0]
    return sum(c / 4.0 * kron_all([f, g][:k] + [point] + [f, g][k:]) for c, f, g in terms)


@pytest.mark.parametrize("k", range(3))
def test_a_classical_atom_beside_a_box_pair_keeps_the_plan_exact(k):
    atoms = (B22, B22)[:k] + (C2,) + (B22, B22)[k:]
    sys = SystemType(atoms)
    assert plan("positivity", atoms, atoms).exact and plan("trace", (), atoms).exact
    identity = LinearMap(sys, sys, np.eye(sys.dim))
    assert positivity_check(identity, CFG).status == ACCEPTED
    half = LinearMap(sys, sys, 0.5 * np.eye(sys.dim))
    assert trace_condition_check(half, "non-increasing", CFG).status == ACCEPTED
    # planted: positive on every product of vertices, not on a PR box in slot 0
    g = _box_pair_functional(k)
    planted = positivity_check(LinearMap(sys, SystemType(), g[None]), CFG)
    assert planted.status == REJECTED and planted.margin == pytest.approx(-0.5)
    more = LinearMap(sys, SystemType(), (unit_effect(sys).coeffs - g)[None])
    increasing = trace_condition_check(more, "non-increasing", CFG)
    assert increasing.status == REJECTED and increasing.margin == pytest.approx(-0.5)


# --- the engine stays reachable through module attributes ---------------------------------


_ENGINE = ("minimize_product_form", "_min_qubit_pair", "_min_quantum_general")

# Calls of each engine function, in _ENGINE order, per check on a noisy input
# over the shape (maps go from it to the scalar system).
_ENGINE_CALLS = {
    (C2, B22): {"state": (1, 0, 0), "effect": (2, 0, 0), "positivity": (1, 0, 0),
                "preserving": (2, 0, 0), "non-increasing": (1, 0, 0)},
    (Q2, Q2): {"state": (1, 1, 0), "effect": (0, 0, 0), "positivity": (9, 1, 0),
               "preserving": (0, 0, 0), "non-increasing": (0, 0, 0)},
    (Q3, Q3): {"state": (1, 0, 1), "effect": (2, 0, 2), "positivity": (1, 0, 1),
               "preserving": (2, 0, 2), "non-increasing": (1, 0, 1)},
}


@pytest.mark.parametrize("atoms", list(_ENGINE_CALLS), ids=lambda a: "*".join(map(str, a)))
def test_checks_reach_the_engine_through_module_attributes(monkeypatch, atoms):
    counts = collections.Counter()
    for name in _ENGINE:
        def counted(*args, _name=name, _f=getattr(compose, name), **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(compose, name, counted)
    rng = np.random.default_rng(31)
    sys = SystemType(atoms)
    u = unit_effect(sys).coeffs
    noisy = 0.5 * u + 0.3 * rng.normal(size=u.shape)
    t = LinearMap(sys, SystemType(), noisy[None])
    calls = {
        "state": lambda: composite_state_check(GptVector(sys, noisy), CFG),
        "effect": lambda: composite_effect_check(GptVector(sys, noisy), cfg=CFG),
        "positivity": lambda: positivity_check(t, CFG),
        "preserving": lambda: trace_condition_check(t, "preserving", CFG),
        "non-increasing": lambda: trace_condition_check(t, "non-increasing", CFG),
    }
    for check, call in calls.items():
        counts.clear()
        call()
        assert tuple(counts[n] for n in _ENGINE) == _ENGINE_CALLS[atoms][check], check

"""Every rejection of the four cone checks carries a witness that replays its margin.

The state check's witness is an effect ``w`` with ``<w, v> = margin``; the
effect check's is a state ``s`` on which ``e`` or ``u - e`` attains the
margin; the trace check's is a state on which the deficit ``u - T^T u``
attains it, and for the preserving condition one on which u(T(s)) - u(s)
has the largest size; positivity's is an input state and a codomain
effect whose pairing through the map attains it.
"""

import itertools

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
    box_pair_state,
    composite_effect_check,
    composite_state_check,
    effect_cone_rays,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    pair,
    positivity_check,
    state_vertices,
    system,
    tensor,
    trace_condition_check,
    unit_effect,
)

from witworld.transforms import map_from_matrix_action

from conftest import local_deterministic_box, pr_box_table

B22 = Boxworld(2, 2)
CFG = SearchConfig(restarts=20)


def _vec(atoms, coeffs):
    return GptVector(system(*atoms), np.asarray(coeffs, dtype=float))


def _chsh_effect():
    """Valid on every product box state, 3/2 on the PR box."""
    rays = effect_cone_rays(B22)
    diff = [rays[0].coeffs - rays[1].coeffs, rays[2].coeffs - rays[3].coeffs]
    chsh = sum((-1) ** (x * y) * np.kron(diff[x], diff[y])
               for x, y in itertools.product(range(2), repeat=2))
    return GptVector(system(B22, B22), (chsh + 2 * unit_effect(system(B22, B22)).coeffs) / 4)


_BELL = np.outer([1.0, 0, 0, 1.0], [1.0, 0, 0, 1.0]) / 2


def _bell_effect():
    return hermitian_tensor_to_vector(_BELL, (2, 2))


def _to_classical(e):
    """The measurement map s -> (<e, s>, <u, s>) into C2."""
    u = unit_effect(e.system).coeffs
    return LinearMap(e.system, system(Classical(2)), np.vstack([e.coeffs, u]))


def _with_deficit(d):
    """A map to the scalar system whose deficit u - T^T u is ``d``."""
    u = unit_effect(d.system).coeffs
    return LinearMap(d.system, system(), (u - d.coeffs).reshape(1, -1))


def _neg_quantum(*dims):
    m = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    m[0, 0] = -1.0
    return hermitian_tensor_to_vector(m, dims)


def _pr_mix(t):
    """(1 + t) PR - t L: outside the cone, off by -t on one entry."""
    return box_pair_state((1 + t) * pr_box_table() - t * local_deterministic_box((0, 0), (0, 0)))


def _q3_point():
    return hermitian_to_vector(np.diag([1.0, 0.0, 0.0]).astype(complex))


def _q2q3_entangled():
    amp = np.zeros(6)
    amp[0] = amp[4] = 1 / np.sqrt(2)
    return hermitian_tensor_to_vector(np.outer(amp, amp), (2, 3))


CASES = {
    # state check: the witness is an effect
    "state-scalar": ("state", lambda: _vec((), [-1.0])),
    "state-C2": ("state", lambda: _vec((Classical(2),), [-0.5, 1.0])),
    "state-B22": ("state", lambda: _vec((B22,), [0.5, 1.25, 1.0])),
    "state-Q2": ("state", lambda: hermitian_to_vector(np.diag([1.0, -0.2]).astype(complex))),
    "state-B22*B22": ("state", lambda: _pr_mix(0.25)),
    "state-Q2*Q2": ("state", lambda: hermitian_tensor_to_vector(_BELL - 0.3 * np.eye(4), (2, 2))),
    "state-Q2*Q3": ("state", lambda: _neg_quantum(2, 3)),
    "state-C2*Q3": ("state", lambda: tensor(state_vertices(Classical(2))[0],
                                            _neg_quantum(3))),
    # effect check: the witness is a state
    "effect-scalar": ("effect", lambda: _vec((), [1.5])),
    "effect-C2": ("effect", lambda: _vec((Classical(2),), [0.0, 1.5])),
    "effect-B22": ("effect", lambda: GptVector(system(B22), 1.5 * effect_cone_rays(B22)[0].coeffs)),
    "effect-Q2": ("effect", lambda: hermitian_to_vector(np.diag([1.5, 0.0]).astype(complex))),
    "effect-B22*B22-product": ("effect", lambda: GptVector(
        system(B22, B22), 1.5 * tensor(effect_cone_rays(B22)[0], effect_cone_rays(B22)[0]).coeffs)),
    "effect-B22*B22-pr-probe": ("effect", _chsh_effect),
    "effect-Q2*Q2": ("effect", _bell_effect),
    "effect-Q2*Q3": ("effect", _q2q3_entangled),
    "effect-C2*Q3": ("effect", lambda: GptVector(
        system(Classical(2), Quantum(3)),
        np.kron([1.0, 0.0], 1.5 * _q3_point().coeffs) + np.kron([-1.0, 1.0], _q3_point().coeffs))),
    # positivity: the witness pairs an input state with a codomain effect
    "positivity-scalar": ("positivity", lambda: LinearMap(system(), system(), [[-1.0]])),
    "positivity-C2": ("positivity", lambda: LinearMap(
        system(Classical(2)), system(Classical(2)), -np.eye(2))),
    "positivity-B22": ("positivity", lambda: LinearMap(system(B22), system(B22), -np.eye(3))),
    "positivity-Q2": ("positivity", lambda: map_from_matrix_action(
        lambda m: m - np.trace(m) * np.eye(2) / 4, 2)),
    "positivity-B22*B22-pr-probe": ("positivity", lambda: _to_classical(_chsh_effect())),
    "positivity-Q2*Q2": ("positivity", lambda: LinearMap(
        system(Quantum(2), Quantum(2)), system(Quantum(2), Quantum(2)), -np.eye(16))),
    "positivity-Q2*Q2-probe": ("positivity", lambda: _to_classical(_bell_effect())),
    # non-increasing trace: the witness is a state
    "trace-scalar": ("trace", lambda: LinearMap(system(), system(), [[2.0]])),
    "trace-C2": ("trace", lambda: LinearMap(system(Classical(2)), system(Classical(2)),
                                            2 * np.eye(2))),
    "trace-B22": ("trace", lambda: LinearMap(system(B22), system(B22), 2 * np.eye(3))),
    "trace-Q2": ("trace", lambda: LinearMap(system(Quantum(2)), system(Quantum(2)),
                                            2 * np.eye(4))),
    "trace-B22*B22-pr-probe": ("trace", lambda: _with_deficit(GptVector(
        system(B22, B22), unit_effect(system(B22, B22)).coeffs - _chsh_effect().coeffs))),
    "trace-Q2*Q2": ("trace", lambda: _with_deficit(_bell_effect())),
    "trace-Q2*Q3": ("trace", lambda: _with_deficit(_neg_quantum(2, 3))),
    "trace-C2*Q3": ("trace", lambda: _with_deficit(tensor(
        effect_cone_rays(Classical(2))[1], _neg_quantum(3)))),
    # preserving trace: the witness is a state on which u(T(s)) - u(s) is largest
    "preserving-scalar": ("preserving", lambda: LinearMap(system(), system(), [[0.5]])),
    "preserving-C2": ("preserving", lambda: LinearMap(
        system(Classical(2)), system(), [[1.0, 1.0]])),
    "preserving-Q2": ("preserving", lambda: LinearMap(
        system(Quantum(2)), system(Quantum(2)), 2 * np.eye(4))),
    "preserving-B22*B22": ("preserving", lambda: _with_deficit(GptVector(
        system(B22, B22), unit_effect(system(B22, B22)).coeffs - _chsh_effect().coeffs))),
    "preserving-Q2*Q2": ("preserving", lambda: _with_deficit(_bell_effect())),
}


def _replay(kind, obj, w):
    """The value the witness ``w`` attains for ``obj`` under check ``kind``."""
    if kind == "state":
        assert isinstance(w, GptVector)
        assert composite_effect_check(w, cfg=CFG).passed
        return pair(w, obj)
    if kind == "positivity":
        assert isinstance(w.input_state, GptVector) and isinstance(w.output_effect, GptVector)
        return pair(w.output_effect, apply(obj, w.input_state))
    assert isinstance(w, GptVector)
    assert composite_state_check(w, CFG).passed
    assert pair(unit_effect(w.system), w) == pytest.approx(1.0, abs=1e-12)
    if kind == "effect":
        val = pair(obj, w)
        return min(val, 1.0 - val)
    if kind == "preserving":
        return -abs(pair(unit_effect(obj.codomain), apply(obj, w)) - pair(unit_effect(obj.domain), w))
    return pair(unit_effect(obj.domain), w) - pair(unit_effect(obj.codomain), apply(obj, w))


CHECKS = {
    "state": lambda v: composite_state_check(v, CFG),
    "effect": lambda e: composite_effect_check(e, cfg=CFG),
    "positivity": lambda t: positivity_check(t, CFG),
    "trace": lambda t: trace_condition_check(t, "non-increasing", CFG),
    "preserving": lambda t: trace_condition_check(t, "preserving", CFG),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejection_witness_replays_margin(case):
    kind, make = CASES[case]
    obj = make()
    res = CHECKS[kind](obj)
    assert res.rejected, res.describe()
    assert np.isfinite(res.margin)
    assert _replay(kind, obj, res.witness) == pytest.approx(res.margin, abs=1e-12)
    if kind == "positivity":
        assert res.witness.value == res.margin


def test_preserving_margin_is_the_largest_trace_change_on_a_state():
    # 2 id doubles the trace of every normalized state: a change of 1, not
    # the coefficient-space deviation sqrt(2)
    res = trace_condition_check(LinearMap(system(Quantum(2)), system(Quantum(2)),
                                          2 * np.eye(4)), "preserving", CFG)
    assert res.margin == pytest.approx(-1.0, abs=1e-12)

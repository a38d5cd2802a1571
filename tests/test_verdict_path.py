"""The one verdict path against the four hand-merged checks it replaced.

``_reference_*`` below keep the earlier state, effect, positivity and
trace checks in this module: each ran its own certificate gate or probe
merge, and the preserving trace check called the state-side minimum
twice and merged with ``lo <= hi``.  They call today's engine and
helpers (``minimize_product_form``, ``spectral_bound``, the factor split
of product effects, ...), so any difference is in the gate, the
candidates and the merge.  On seeded inputs of every shape, with
scalar codomains and inputs where ties decide the witness, the checks
must give the same status, margin (to the sign of a zero), detail and
witness bits.  Two differences are intended: the non-increasing trace
check on a map with ``T^T u = u`` exactly is accepted with margin 0 and
no search, and the one gate reads a map from the scalar system as the
state check of its image.
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
    MembershipVerdict,
    Quantum,
    SearchConfig,
    SystemType,
    apply,
    atomic_effect_check,
    atomic_state_check,
    composite_effect_check,
    composite_state_check,
    hermitian_tensor_to_vector,
    identity_map,
    pair,
    positivity_check,
    trace_condition_check,
    unit_effect,
    vector_to_hermitian_tensor,
)
from witworld.compose import _effect_side_specs, _state_side_specs, minimize_product_form
from witworld.transforms import PositivityViolation
from witworld.verdict import ACCEPTED, INCONCLUSIVE_ACCEPT, REJECTED

from conftest import planted_map, planted_witness, random_positive_box_map

CFG = SearchConfig(restarts=20)
_CERTIFIED = "spectral certificate: partial-transpose eigenvalues >= -tol"
Q2, Q3, C2, B22 = Quantum(2), Quantum(3), Classical(2), Boxworld(2, 2)


# --- the earlier checks, each with its own gate and merge ---------------------------


def _reference_verdict(value, conclusive, tol, reject, detail=""):
    if value >= -tol:
        return MembershipVerdict(ACCEPTED if conclusive else INCONCLUSIVE_ACCEPT,
                                 margin=value, detail=detail)
    witness, detail = reject()
    return MembershipVerdict(REJECTED, margin=value, witness=witness, detail=detail)


def _ppt_dims(sys):
    """Local dimensions of a system on which separable equals PPT, else None."""
    atoms = sys.atoms
    if (len(atoms) == 2 and all(isinstance(a, Quantum) for a in atoms)
            and atoms[0].d * atoms[1].d <= 6):
        return atoms[0].d, atoms[1].d
    return None


def _complete(sys):
    """Do atomic-generator products and the probes generate the cone?"""
    non_classical = sum(1 for a in sys.atoms if not isinstance(a, Classical))
    return non_classical <= 1 or sys.atoms == (B22, B22)


def _reference_ppt_min(mats, dims):
    vals, vecs = np.linalg.eigh(np.concatenate([mats, compose._partial_transpose(mats, dims)]))
    i = int(np.argmin(vals[:, 0]))

    def state():
        v = vecs[i, :, 0]
        w = np.outer(v, v.conj())
        if i >= len(mats):
            w = compose._partial_transpose(w, dims)
        return hermitian_tensor_to_vector(w, dims)

    return float(vals[i, 0]), state


def _reference_state_min(f, cfg, complement=False):
    dims = _ppt_dims(f.system)
    if dims is not None:
        mat = vector_to_hermitian_tensor(f)
        value, state = _reference_ppt_min(np.stack([mat, np.eye(len(mat)) - mat]) if complement
                                          else mat[None], dims)
        return value, True, state
    specs = _state_side_specs(f.atoms)
    lo = minimize_product_form(f.coeffs, specs, cfg)
    found = [(lo.value, lambda: compose._product(f.system, lo.factors))]
    if complement:
        hi = minimize_product_form(-f.coeffs, specs, cfg)
        found.append((1.0 + hi.value, lambda: compose._product(f.system, hi.factors)))
    for probe in compose.probe_states(f.system):
        val = pair(f, probe)
        found.append((val, lambda p=probe: p))
        if complement:
            found.append((1.0 - val, lambda p=probe: p))
    value, state = min(found, key=lambda c: c[0])
    return value, lo.conclusive and _complete(f.system), state


def _reference_state_check(v, cfg):
    tol = compose.unit_tol(cfg.tol, v.coeffs)
    if len(v.atoms) == 1:
        return atomic_state_check(v, tol)
    if all(isinstance(a, Quantum) for a in v.atoms):
        dims = tuple(a.d for a in v.atoms)
        if not (len(dims) <= 1 or dims == (2, 2)):  # the search would not be exact
            bound = compose.spectral_bound(vector_to_hermitian_tensor(v)[None], dims)
            if bound >= -tol:
                return MembershipVerdict(ACCEPTED, margin=bound, detail=_CERTIFIED)
    res = minimize_product_form(v.coeffs, _effect_side_specs(v.atoms), cfg)
    return _reference_verdict(res.value, res.conclusive, tol, lambda: (
        compose._product(v.system, res.factors), "a product effect evaluates to the margin"))


def _reference_effect_check(e, cfg):
    tol = cfg.tol
    if len(e.atoms) == 1:
        return atomic_effect_check(e, tol)
    dims = _ppt_dims(e.system)
    if dims is None and not _complete(e.system):
        if not e.coeffs.any():
            return MembershipVerdict(ACCEPTED, margin=0.0, detail="zero effect")
        factors = compose._rank_one_effect_factors(e)
        if factors is not None and compose._validate_certificate(e, [(1.0, factors)], tol)[0]:
            return MembershipVerdict(ACCEPTED, margin=0.0, detail="product-effect certificate")
    value, conclusive, state = _reference_state_min(e, cfg, complement=True)
    how = ("e and u - e are PPT" if dims is not None
           else "no violation on the cone generators" if conclusive
           else "no violation found (heuristic search)")
    return _reference_verdict(value, conclusive, tol, lambda: (
        state(), "evaluates outside [0, 1] on a state, by the margin"), how)


def _reference_positivity_bound(t):
    cod, dom = t.codomain.atoms, t.domain.atoms
    if not all(isinstance(a, Quantum) for a in cod):
        return None
    cod_dims = tuple(a.d for a in cod)
    pair_dims = None
    if len(dom) == 1 and isinstance(dom[0], Quantum):
        dims = cod_dims + (dom[0].d,)
        if len(dims) <= 1 or dims == (2, 2):  # the search is exact
            return None
    else:
        pair_dims = _ppt_dims(t.domain)
        if pair_dims is None:
            return None
        dims = cod_dims + (pair_dims[0] * pair_dims[1],)
    x = vector_to_hermitian_tensor(GptVector(t.codomain * t.domain, t.matrix.reshape(-1)))
    mats = (x[None] if pair_dims is None
            else np.stack([x, compose._partial_transpose(x, cod_dims + pair_dims)]))
    return compose.spectral_bound(mats, dims)


def _reference_positivity_check(t, cfg):
    tol = compose.unit_tol(cfg.tol, t.matrix)
    bound = _reference_positivity_bound(t)
    if bound is not None and bound >= -tol:
        return MembershipVerdict(ACCEPTED, margin=bound, detail=_CERTIFIED)
    cod, dom = t.codomain.atoms, t.domain.atoms
    res = minimize_product_form(t.matrix.reshape(-1),
                                _effect_side_specs(cod) + _state_side_specs(dom), cfg)
    n = len(cod)
    margin, violation = res.value, lambda: PositivityViolation(
        compose._product(t.domain, res.factors[n:]), compose._product(t.codomain, res.factors[:n]),
        res.value)
    conclusive = res.conclusive and _complete(t.domain)
    for probe in compose.probe_states(t.domain):
        check = _reference_state_check(apply(t, probe), cfg)
        conclusive = conclusive and check.status != INCONCLUSIVE_ACCEPT
        if check.margin < margin:
            margin, violation = check.margin, (
                lambda p=probe, c=check: PositivityViolation(p, c.witness, c.margin))
    return _reference_verdict(margin, conclusive, tol, lambda: (
        violation(), "maps a cone generator outside the codomain cone by the margin"))


def _reference_trace_check(t, mode, cfg):
    u_dom = unit_effect(t.domain).coeffs
    u_cod = unit_effect(t.codomain).coeffs
    if mode == "preserving":
        residual = t.matrix.T @ u_cod - u_dom
        if not residual.any():
            return MembershipVerdict(ACCEPTED, margin=0.0, detail="u(T(s)) = u(s) identically")
        lo, lo_exact, lo_state = _reference_state_min(GptVector(t.domain, residual), cfg)
        hi, hi_exact, hi_state = _reference_state_min(GptVector(t.domain, -residual), cfg)
        margin, state = (lo, lo_state) if lo <= hi else (hi, hi_state)
        exact = (lo_exact and hi_exact) or float(np.max(np.abs(residual))) <= cfg.tol
        return _reference_verdict(margin, exact, cfg.tol, lambda: (
            state(), f"changes the trace by {-margin:.6g} on a state"),
            f"max |u(T(s)) - u(s)| found {-margin:.3g}")
    deficit = GptVector(t.domain, u_dom - t.matrix.T @ u_cod)
    margin, conclusive, state = _reference_state_min(deficit, cfg)
    return _reference_verdict(margin, conclusive, cfg.tol, lambda: (
        state(), f"trace increases by {-margin:.6g} on a state"))


# --- comparison -----------------------------------------------------------------------


def _bits(x):
    if x is None:
        return None
    if isinstance(x, PositivityViolation):
        return _bits(x.input_state), _bits(x.output_effect), _bits(x.value)
    if isinstance(x, GptVector):
        return x.system, x.coeffs.tobytes()
    return np.float64(x).tobytes()  # tells 0.0 from -0.0


def _assert_same(new, ref, label):
    assert new.status == ref.status, (label, new.describe(), ref.describe())
    assert _bits(new.margin) == _bits(ref.margin), (label, new.margin, ref.margin)
    assert new.detail == ref.detail, label
    assert _bits(new.witness) == _bits(ref.witness), label


# --- seeded inputs --------------------------------------------------------------------


def _mixed(atoms):
    """The product of the atoms' maximally mixed states (or vertex means)."""
    return compose.kron_all([compose._mixed_state_coeffs(a) for a in atoms])


def _vectors(atoms, centre, rng):
    """``centre`` and perturbations of it of growing size, over every sign of the margin."""
    dim = SystemType(atoms).dim
    size = float(np.linalg.norm(centre)) or 1.0
    out = [centre]
    for scale in (1e-3, 0.05, 0.3, 1.0, 3.0):
        noise = rng.normal(size=dim)
        out.append(centre + scale * size * noise / np.linalg.norm(noise))
    return [GptVector(SystemType(atoms), c) for c in out]


def _maps(dom, cod, rng):
    """Maps s -> u(s) mixed + noise of growing size, plus scaled identities."""
    d, c = SystemType(dom), SystemType(cod)
    centre = np.outer(_mixed(cod), unit_effect(d).coeffs)
    out = []
    for scale in (0.0, 1e-3, 0.05, 0.3, 1.0):
        out.append(LinearMap(d, c, centre + scale * rng.normal(size=centre.shape)))
    if d == c:
        out += [identity_map(d), LinearMap(d, d, 2.0 * np.eye(d.dim)),
                LinearMap(d, d, 0.5 * np.eye(d.dim))]
    return out


# A functional on B2,2*B2,2 with values -2 to 3 on product boxes, -3 and 3 on
# two PR boxes and 0 on the other six: -max over products ties the lowest PR
# value and the complement of the highest, and every value is exact.
_TIED = np.array([-3.0, 3, 1, 3, 3, -3, -1, -2, 1])


_STATE_SHAPES = ((Q2, Q2), (Q2, Q3), (Q3, Q2), (Q3, Q3), (Q2, Q2, Q2), (C2, Q2), (C2, Q3),
                 (B22, B22), (B22, Q2), (C2, B22), (C2, Q2, Q2), (B22, B22, Q2), (Q2,), (B22,))

_MAP_SHAPES = (((Q2,), (Q2,)), ((Q3,), (Q3,)), ((Q2,), (Q3,)), ((Q3,), (Q2,)),
               ((Q2, Q2), (Q2,)), ((Q2, Q3), (Q2,)), ((Q2, Q2), ()), ((Q2,), ()),
               ((Q3, Q3), ()), ((), (Q3, Q3)), ((Q2,), (Q2, Q2)), ((Q2, Q2), (Q2, Q2)),
               ((B22, B22), (C2,)), ((B22, B22), ()), ((B22,), (B22,)), ((C2, Q2), (Q2,)),
               ((Q2,), (C2,)), ((Q3, Q3), (Q3, Q3)), ((Q2, Q2, Q2), ()), ((B22, B22, Q2), ()))


def _shape_id(shape):
    return "*".join(map(str, shape)) or "scalar"


@pytest.mark.parametrize("atoms", _STATE_SHAPES, ids=_shape_id)
def test_state_checks_match_the_hand_merged_check(atoms):
    rng = np.random.default_rng([len(atoms), SystemType(atoms).dim])
    vectors = _vectors(atoms, _mixed(atoms), rng)
    if len(atoms) == 2 and all(isinstance(a, Quantum) for a in atoms):
        dims = (atoms[0].d, atoms[1].d)
        vectors.append(hermitian_tensor_to_vector(planted_witness(rng, *dims), dims))
    statuses = set()
    for k, v in enumerate(vectors):
        new, ref = composite_state_check(v, CFG), _reference_state_check(v, CFG)
        _assert_same(new, ref, (atoms, k))
        statuses.add(new.status)
    if len(atoms) > 1:
        assert REJECTED in statuses


@pytest.mark.parametrize("atoms", [a for a in _STATE_SHAPES if len(a) > 1], ids=_shape_id)
def test_effect_checks_match_the_hand_merged_check(atoms):
    rng = np.random.default_rng([len(atoms), SystemType(atoms).dim, 1])
    u = unit_effect(SystemType(atoms)).coeffs
    effects = _vectors(atoms, 0.5 * u, rng)
    # 0.5 u is 1/2 on both sides of every candidate; u and 0 tie at 0, and
    # 1.5 u and -0.5 u are rejected on every state
    effects += [GptVector(SystemType(atoms), c) for c in (u, 0.0 * u, 1.5 * u, -0.5 * u)]
    if atoms == (B22, B22):
        # 1 - <e, s> on a product state ties <e, s> on a PR box: the first wins
        effects.append(GptVector(SystemType(atoms), 0.5 * u + _TIED / 2))
    for k, e in enumerate(effects):
        new, ref = composite_effect_check(e, cfg=CFG), _reference_effect_check(e, CFG)
        _assert_same(new, ref, (atoms, k))


@pytest.mark.parametrize("dom, cod", _MAP_SHAPES, ids=lambda s: _shape_id(s))
def test_positivity_checks_match_the_hand_merged_check(dom, cod):
    rng = np.random.default_rng([len(dom), len(cod), SystemType(dom + cod).dim])
    maps = _maps(dom, cod, rng)
    if dom == cod == (B22,):
        maps.append(random_positive_box_map(rng))
    if len(dom) == len(cod) == 1 and all(isinstance(a, Quantum) for a in dom + cod):
        maps.append(planted_map(rng, dom[0].d, cod[0].d))
    for k, t in enumerate(maps):
        new = positivity_check(t, CFG)
        if not dom:
            # the gate reads a map from the scalar system as the state check of its image
            ref = composite_state_check(GptVector(t.codomain, t.matrix[:, 0]), CFG)
            assert (new.status, _bits(new.margin)) == (ref.status, _bits(ref.margin)), k
            assert new.rejected or new.detail == ref.detail
            continue
        _assert_same(new, _reference_positivity_check(t, CFG), (dom, cod, k))


def _trace_maps(dom, cod, rng):
    """Maps with residual Tᵀu - u of growing size, symmetric residuals among them."""
    d, c = SystemType(dom), SystemType(cod)
    u, mixed = unit_effect(d).coeffs, _mixed(cod)
    residuals = [np.zeros(d.dim)] + [s * rng.normal(size=d.dim) for s in (1e-12, 1e-3, 0.3)]
    if all(isinstance(a, Quantum) for a in dom):
        # traceless: <r, s> and <-r, s> have the same minimum on a qubit
        residuals.append(np.eye(d.dim)[-1])
        if dom == (Q2, Q2):
            # 4 P_Φ+ - I: its negation and its partial transpose share the
            # lowest eigenvalue in exact arithmetic
            amp = np.array([1.0, 0, 0, 1]) / np.sqrt(2)
            residuals.append(hermitian_tensor_to_vector(
                4 * np.outer(amp, amp) - np.eye(4), (2, 2)).coeffs)
    if dom == (B22, B22):
        prs = [p.coeffs for p in compose.probe_states(d)]
        vertex = compose.cone_generators(d)[0].coeffs
        # <-r, s> on a product state ties <r, s> on a PR box: the r side wins
        residuals += [prs[0] - prs[1], prs[2] - vertex, vertex - prs[0], _TIED]
    out = [LinearMap(d, c, np.outer(mixed, u + r)) for r in residuals]
    if d == c:
        out.append(identity_map(d))
    return out


@pytest.mark.parametrize("mode", ["preserving", "non-increasing"])
@pytest.mark.parametrize("dom, cod", _MAP_SHAPES, ids=lambda s: _shape_id(s))
def test_trace_checks_match_the_hand_merged_check(dom, cod, mode):
    rng = np.random.default_rng([len(dom), len(cod), SystemType(dom + cod).dim, 2])
    for k, t in enumerate(_trace_maps(dom, cod, rng)):
        new, ref = trace_condition_check(t, mode, CFG), _reference_trace_check(t, mode, CFG)
        tu = t.matrix.T @ unit_effect(t.codomain).coeffs
        if mode == "non-increasing" and np.array_equal(tu, unit_effect(t.domain).coeffs):
            # the one intended change: no search for a zero deficit
            assert (new.status, _bits(new.margin), new.detail) == (
                ACCEPTED, _bits(0.0), ""), (dom, cod, k)
            assert ref.passed and ref.margin == 0.0 and ref.detail == ""
            continue
        _assert_same(new, ref, (dom, cod, mode, k))


def test_preserving_mode_makes_one_state_side_minimum_call(monkeypatch):
    calls = []
    runner = transforms._form_verdict
    monkeypatch.setattr(transforms, "_form_verdict",
                        lambda *a, **k: calls.append(a[1].state_sys) or runner(*a, **k))
    rng = np.random.default_rng(7)
    for dom in ((Q2,), (Q2, Q2), (B22, B22), (Q3, Q3)):
        for t in _trace_maps(dom, (Q2,), rng):
            calls.clear()
            trace_condition_check(t, "preserving", CFG)
            same = np.array_equal(t.matrix.T @ unit_effect(t.codomain).coeffs,
                                  unit_effect(t.domain).coeffs)
            assert calls == ([] if same else [t.domain])

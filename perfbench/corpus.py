"""Seeded inputs for the three workloads, each carrying its known label.

Every workload is a fixed schedule of input kinds that repeats; the
schedule fixes the mix, the seed fixes the numbers.  Item ``i`` is drawn
from its own generator seeded with ``(seed, i)``, so a prefix of the
corpus is the same whatever its length.  Labels come from how an input
was constructed (a decomposable witness is block positive, a planted
product vector is negative, a box table with a negative entry is outside
the cone, ...), never from the program under test.

An item's ``call`` runs one verdict through the public API or
``witworld.cli.main`` and returns the raw outcome; ``judge`` turns that
outcome into ``(sound, conclusive)``: sound is False when the verdict
contradicts the label or the call failed, conclusive is True when the
verdict is ``accepted``/``rejected`` and agrees with the label.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import witworld as ww
from witworld.transforms import map_from_matrix_action

VALID = "valid"
INVALID = "invalid"

# Statuses a verdict may carry; any other status counts as inconclusive.
_ACCEPTED = "accepted"
_REJECTED = "rejected"


@dataclass(frozen=True)
class Item:
    """One verdict request: ``call()`` runs it, ``judge(outcome)`` checks it."""

    kind: str
    call: Callable[[], object]
    judge: Callable[[object], tuple]
    argv: tuple = ()        # CLI items: the argument vector
    data: object = None     # API items: the input's coefficient array


class CallFailed:
    """Outcome of a call that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def judge_status(label: str, status: str) -> tuple:
    """(sound, conclusive) for a verdict status against a valid/invalid label."""
    if label == VALID:
        return status != _REJECTED, status == _ACCEPTED
    return status != _ACCEPTED, status == _REJECTED


def _api_judge(label: str):
    def judge(outcome):
        if isinstance(outcome, CallFailed):
            return False, False
        return judge_status(label, outcome.status)
    return judge


# ---------------------------------------------------------------------------
# Random linear algebra (independent of the program under test)
# ---------------------------------------------------------------------------


def _random_psd(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T


def _partial_transpose(m, d1, d2):
    return m.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)


def _haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _haar_vector(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def _decomposable_witness(rng, d1, d2):
    """Unit-trace ``P + Q^Γ`` with P, Q ⪰ 0: block positive, so a valid state."""
    n = d1 * d2
    w = _random_psd(rng, n) + _partial_transpose(_random_psd(rng, n), d1, d2)
    return w / np.real(np.trace(w))


def _planted_witness(rng, d1, d2):
    """A witness pushed negative on one product vector: not block positive."""
    w = _decomposable_witness(rng, d1, d2)
    ab = np.kron(_haar_vector(rng, d1), _haar_vector(rng, d2))
    depth = rng.uniform(0.02, 0.2)
    c = np.real(ab.conj() @ w @ ab) + depth
    return w - c * np.outer(ab, ab.conj())


def _canonical_witness(rng, d1, d2):
    """(U ⊗ V)(Φ^Γ + μ I/n)(U ⊗ V)†, Φ maximally entangled: block positive, not PSD."""
    n = d1 * d2
    phi = np.zeros(n)
    phi[[i * d2 + i for i in range(min(d1, d2))]] = 1.0
    w = _partial_transpose(np.outer(phi, phi), d1, d2) + rng.uniform(0.0, 0.5) / n * np.eye(n)
    uv = np.kron(_haar_unitary(rng, d1), _haar_unitary(rng, d2))
    w = uv @ w @ uv.conj().T
    return w / np.real(np.trace(w))


def _qubit_effect(rng):
    """Random 0 ⪯ A ⪯ I on a qubit."""
    u = _haar_unitary(rng, 2)
    return u @ np.diag(rng.uniform(0.0, 1.0, size=2)) @ u.conj().T


def _state_item(kind, mat, dims, label):
    v = ww.hermitian_tensor_to_vector(mat, dims)
    return Item(kind, lambda: ww.composite_state_check(v), _api_judge(label), data=v.coeffs)


def _map_item(kind, action, d_in, d_out, label):
    t = map_from_matrix_action(action, d_in, d_out)
    return Item(kind, lambda: ww.positivity_check(t), _api_judge(label), data=t.matrix)


# ---------------------------------------------------------------------------
# qubit-pair: the Q2*Q2 scan-plus-descent path
# ---------------------------------------------------------------------------


def _qp_witness(rng, k, path):
    return _state_item("witness", _decomposable_witness(rng, 2, 2), (2, 2), VALID)


def _qp_planted(rng, k, path):
    return _state_item("witness-planted", _planted_witness(rng, 2, 2), (2, 2), INVALID)


def _qp_effect_separable(rng, k, path):
    # Σ w_k A_k ⊗ B_k with Σ w_k <= 1: both e and u - e are separable.
    terms = int(rng.integers(2, 4))
    weights = rng.dirichlet(np.ones(terms)) * rng.uniform(0.5, 1.0)
    e = sum(w * np.kron(_qubit_effect(rng), _qubit_effect(rng)) for w in weights)
    v = ww.hermitian_tensor_to_vector(e, (2, 2))
    return Item("effect-separable", lambda: ww.composite_effect_check(v), _api_judge(VALID),
                data=v.coeffs)


def _qp_effect_entangled(rng, k, path):
    # An entangled pure projector is not separable, so not a valid effect.
    psi = _haar_vector(rng, 4)
    v = ww.hermitian_tensor_to_vector(np.outer(psi, psi.conj()), (2, 2))
    return Item("effect-entangled", lambda: ww.composite_effect_check(v), _api_judge(INVALID),
                data=v.coeffs)


def _qp_map_transpose(rng, k, path):
    u = _haar_unitary(rng, 2)
    return _map_item("map-transpose", lambda m: u @ m.T @ u.conj().T, 2, 2, VALID)


def _qp_map_unot(rng, k, path):
    u = _haar_unitary(rng, 2)
    return _map_item(
        "map-unot", lambda m: u @ (np.trace(m) * np.eye(2) - m) @ u.conj().T, 2, 2, VALID
    )


# ---------------------------------------------------------------------------
# restart-search: quantum factors beyond a qubit pair
# ---------------------------------------------------------------------------


def _compressed_transpose(rng, d_in, d_out):
    """ρ -> K ρ^T K† with K a d_out x d_in block of a Haar unitary: positive."""
    k = _haar_unitary(rng, max(d_in, d_out))[:d_out, :d_in]
    return lambda m: k @ m.T @ k.conj().T


def _rs_map(d_in, d_out):
    def make(rng, k, path):
        return _map_item(f"map-q{d_in}q{d_out}", _compressed_transpose(rng, d_in, d_out),
                         d_in, d_out, VALID)
    return make


def _rs_map_planted(rng, k, path):
    # T(ρ) = K ρ^T K† - c <φ|ρ|φ> |χ><χ| with χ spanning the range of
    # K φ̄ φ̄† K† and c past its eigenvalue: <χ|T(|φ><φ|)|χ> < 0, so T is
    # not positive.  (A random χ gives the same label but a search up to
    # four times slower.)
    d_in, d_out = [(3, 3), (2, 3)][k % 2]
    base = _compressed_transpose(rng, d_in, d_out)
    phi = _haar_vector(rng, d_in)
    p_phi = np.outer(phi, phi.conj())
    chi = np.linalg.eigh(base(p_phi))[1][:, -1]
    p_chi = np.outer(chi, chi.conj())
    c = np.real(chi.conj() @ base(p_phi) @ chi) + rng.uniform(0.1, 0.3)
    return _map_item(
        f"map-q{d_in}q{d_out}-planted",
        lambda m: base(m) - c * np.trace(p_phi @ m) * p_chi, d_in, d_out, INVALID,
    )


def _rs_transpose_id(rng, k, path):
    # (Ad_U ⊗ Ad_V)(transpose2 ⊗ id_Q2): W -> W^Γ-type, positive on block-positive W.
    uv = np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2))

    def action(m):
        pt = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        return uv @ pt @ uv.conj().T

    cols = [
        ww.hermitian_tensor_to_vector(action(np.kron(b1, b2)), (2, 2)).coeffs
        for b1 in ww.hermitian_basis(2) for b2 in ww.hermitian_basis(2)
    ]
    q2q2 = ww.system(ww.Quantum(2), ww.Quantum(2))
    t = ww.LinearMap(q2q2, q2q2, np.column_stack(cols))
    return Item("map-transpose2-id", lambda: ww.positivity_check(t), _api_judge(VALID),
                data=t.matrix)


def _rs_witness(rng, k, path):
    # Random P + Q^Γ witnesses take 0.5 to 6 s here, a tail that swamped the
    # run-to-run spread; a rotated canonical witness takes about 0.15 s.
    d1, d2 = [(2, 3), (3, 3)][k % 2]
    return _state_item(f"witness-q{d1}q{d2}", _canonical_witness(rng, d1, d2),
                       (d1, d2), VALID)


def _rs_witness_planted(rng, k, path):
    d1, d2 = [(2, 3), (3, 3)][k % 2]
    return _state_item(f"witness-q{d1}q{d2}-planted", _planted_witness(rng, d1, d2),
                       (d1, d2), INVALID)


# ---------------------------------------------------------------------------
# steering-cli: witworld.cli.main in process, --json, files written at set-up
# ---------------------------------------------------------------------------


def run_cli(argv):
    """Run one CLI call in process; returns (exit code, standard output)."""
    from witworld import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_item(kind, argv, check):
    """``check(code, payload)`` gives (sound, conclusive) for a clean exit."""
    def judge(outcome):
        if isinstance(outcome, CallFailed):
            return False, False
        code, text = outcome
        if code in (64, 65):
            return False, False
        try:
            payload = json.loads(text)
        except ValueError:
            return False, False
        return check(code, payload)
    return Item(kind, lambda: run_cli(argv), judge, tuple(argv))


def _cli_status_check(label, accepted, rejected):
    """Check for verbs whose payload status is ``accepted``/``rejected``-like."""
    def check(code, payload):
        status = payload.get("status")
        mapped = _ACCEPTED if status == accepted else _REJECTED if status == rejected else status
        return judge_status(label, mapped)
    return check


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _matrix_json(m):
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _local_box(rng, parties=2):
    """Mixture of local deterministic boxes: p[a..., x...]."""
    shape = (2,) * (2 * parties)
    strategies = list(itertools.product(itertools.product(range(2), repeat=2), repeat=parties))
    p = np.zeros(shape)
    for w, fs in zip(rng.dirichlet(np.ones(len(strategies))), strategies):
        for xs in itertools.product(range(2), repeat=parties):
            p[tuple(f[x] for f, x in zip(fs, xs)) + xs] += w
    return p


def _pr_box(alpha, beta, gamma):
    p = np.zeros((2, 2, 2, 2))
    for a, b, x, y in itertools.product(range(2), repeat=4):
        if (a + b) % 2 == (x * y + alpha * x + beta * y + gamma) % 2:
            p[a, b, x, y] = 0.5
    return p


def _chsh_values(p):
    """All eight sign-symmetric CHSH expressions of a two-party box."""
    corr = np.array([[sum((-1) ** (a ^ b) * p[a, b, x, y]
                          for a, b in itertools.product(range(2), repeat=2))
                      for y in range(2)] for x in range(2)])
    vals = []
    for sx, sy, flip in itertools.product((1, -1), (1, -1), range(2)):
        signs = np.array([[1, 1], [1, -1]]) if flip == 0 else np.array([[1, -1], [1, 1]])
        vals.append(abs(sum(sx ** x * sy ** y * signs[x, y] * corr[x, y]
                            for x, y in itertools.product(range(2), repeat=2))))
    return vals


def _two_party_box(rng):
    """A local box or a PR mixture, at least 1e-3 away from the CHSH bound 2."""
    while True:
        if rng.uniform() < 0.5:
            p = _local_box(rng)
        else:
            mix = rng.uniform(0.0, 1.0)
            p = mix * _pr_box(*rng.integers(0, 2, size=3)) + (1 - mix) * _local_box(rng)
        vals = _chsh_values(p)
        if min(abs(v - 2.0) for v in vals) >= 1e-3:
            return p, max(vals) <= 2.0


def _commuting_assemblage_json(rng, tables):
    """σ_{a|x} = Σ_k p_k(a|x) λ_k |k><k| in a random qubit basis: commuting."""
    parties = tables[0].ndim // 2
    u = _haar_unitary(rng, 2)
    lam = rng.dirichlet([1.5, 1.5])
    proj = [lam[k] * np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
    elements = {}
    for a in itertools.product(range(2), repeat=parties):
        for x in itertools.product(range(2), repeat=parties):
            m = sum(t[a + x] * pk for t, pk in zip(tables, proj))
            key = f"a={','.join(map(str, a))}|x={','.join(map(str, x))}"
            elements[key] = _matrix_json(m)
    return {"scenario": "multipartite", "outcomes": [2] * parties,
            "settings": [2] * parties, "d": 2, "elements": elements}


def _feasibility_check(feasible):
    return _cli_status_check(VALID if feasible else INVALID, "feasible", "infeasible")


def _sc_lhs(rng, k, path):
    # Fine: a two-party box is local iff all eight CHSH values are <= 2, and
    # each eigenvector slice of the commuting assemblage is one such box.
    (p1, ok1), (p2, ok2) = _two_party_box(rng), _two_party_box(rng)
    _write_json(path, _commuting_assemblage_json(rng, [p1, p2]))
    return _cli_item("lhs", ["lhs", path, "--json"], _feasibility_check(ok1 and ok2))


def _sc_lhs3(rng, k, path):
    # Three parties, both slices mixtures of local deterministic boxes: feasible.
    _write_json(path, _commuting_assemblage_json(
        rng, [_local_box(rng, 3), _local_box(rng, 3)]))
    return _cli_item("lhs", ["lhs", path, "--json"], _feasibility_check(True))


_GLEASON_WITNESSES = ("singlet-pt", "swap2", "singlet", "phi-plus")


def _sc_assemblage(rng, k, path):
    # All five named assemblages are no-signalling.  pr-box has no LHS
    # model; gleason on a maximally entangled witness with Z and X
    # measurements is steerable; the other three are not bipartite or
    # multipartite, so the LHS question does not apply to them.
    names = ("pr-box", "bwi-star", "bwi-star-star", "instrumental-star", "gleason")
    name = names[k % len(names)]
    argv = ["assemblage", name, "--verify-ns", "--verify-lhs", "--json"]
    if name == "gleason":
        argv += ["--witness", "builtin:" + _GLEASON_WITNESSES[int(rng.integers(4))]]

    def check(code, payload):
        ns = payload.get("ns", {}).get("status")
        lhs = payload.get("lhs", {}).get("status")
        ns_sound, ns_conclusive = judge_status(VALID, ns)
        if name in ("pr-box", "gleason"):
            lhs_sound, lhs_conclusive = lhs != "feasible", lhs == "infeasible"
        else:
            lhs_sound = lhs_conclusive = lhs == "not-applicable"
        return ns_sound and lhs_sound, ns_conclusive and lhs_conclusive

    return _cli_item("assemblage", argv, check)


def _box_pair_coeffs(p):
    """B2,2*B2,2 coordinates of a no-signalling table p[a, b, x, y]."""
    c = np.empty(9)
    for x, y in itertools.product(range(2), repeat=2):
        c[3 * x + y] = p[0, 0, x, y]
    for x in range(2):
        c[3 * x + 2] = p[0, :, x, 0].sum()
    for y in range(2):
        c[6 + y] = p[:, 0, 0, y].sum()
    c[8] = 1.0
    return c


def _sc_check_state(rng, k, path):
    # A mixture of local and PR boxes is in the cone.  (1 + t) PR - t L for
    # a local deterministic L has an entry -t < 0, so it is outside.
    if k % 2:
        t = rng.uniform(0.05, 0.5)
        fa, fb = rng.integers(0, 2, size=2), rng.integers(0, 2, size=2)
        det = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product(range(2), repeat=2):
            det[fa[x], fb[y], x, y] = 1.0
        p, label = (1 + t) * _pr_box(*rng.integers(0, 2, size=3)) - t * det, INVALID
    else:
        mix = rng.uniform(0.0, 1.0)
        p = mix * _pr_box(*rng.integers(0, 2, size=3)) + (1 - mix) * _local_box(rng)
        label = VALID
    _write_json(path, {"system": ["B2,2", "B2,2"], "coeffs": _box_pair_coeffs(p).tolist()})
    return _cli_item("check-state", ["check-state", path, "--json"],
                     _cli_status_check(label, _ACCEPTED, _REJECTED))


# B2,2 coordinates (p(0|x=0), p(0|x=1), 1): vertices and outcome effects.
_BOX_VERTICES = [np.array([1.0 - a0, 1.0 - a1, 1.0])
                 for a0, a1 in itertools.product(range(2), repeat=2)]
_BOX_RAYS = [np.array(r, dtype=float)
             for r in ([1, 0, 0], [-1, 0, 1], [0, 1, 0], [0, -1, 1])]


def _sc_check_map(rng, k, path):
    # Σ c v r^T over vertices v and outcome effects r maps the cone into
    # itself.  Subtracting enough of one such term makes one ray-vertex
    # pairing negative, so the map is not positive.
    mat = sum(rng.uniform(0.2, 1.0) * np.outer(_BOX_VERTICES[rng.integers(4)],
                                               _BOX_RAYS[rng.integers(4)])
              for _ in range(4))
    label = VALID
    if k % 2:
        r, v = _BOX_RAYS[rng.integers(4)], _BOX_VERTICES[rng.integers(4)]
        mat = mat - (r @ mat @ v + rng.uniform(0.05, 0.5)) * np.outer(r, v) / ((r @ r) * (v @ v))
        label = INVALID
    _write_json(path, {"domain": ["B2,2"], "codomain": ["B2,2"], "matrix": mat.tolist()})
    return _cli_item("check-map", ["check-map", path, "--test", "positivity", "--json"],
                     _cli_status_check(label, _ACCEPTED, _REJECTED))


def _sc_rsp(rng, k, path):
    n = int(rng.integers(4, 17))

    def check(code, payload):
        ok = code == 0 and payload.get("max_trace_distance", 1.0) < 1e-10
        return ok, ok

    return _cli_item("rsp", ["rsp", "--grid", str(n), "--json"], check)


def _sc_prbox(rng, k, path):
    def check(code, payload):
        ok = code == 0 and abs(payload.get("chsh", 0.0) - 4.0) <= 1e-12
        return ok, ok

    return _cli_item("prbox", ["prbox", "--json"], check)


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    schedule: tuple     # item makers, one per slot, repeated
    pool: int           # distinct items generated; the timed loop cycles them
    trace_items: int    # fixed corpus prefix the traced run replays
    warmup: int         # leading items run once, untimed, to fill lazy caches
    uses_files: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "qubit-pair",
            (_qp_witness, _qp_planted, _qp_effect_separable, _qp_map_transpose,
             _qp_witness, _qp_effect_entangled, _qp_planted, _qp_map_unot),
            pool=2000, trace_items=120, warmup=8,
        ),
        Workload(
            "restart-search",
            # By cost: Q3/Q2->Q3 maps and valid witnesses, Q3->Q2 maps, planted
            # maps, planted witnesses.  The mix puts p50 inside the Q3->Q2 band
            # and p90 inside the planted-witness band, not on an edge between
            # two kinds.  One transpose2 ⊗ id_Q2 check in 24: its eight
            # probe-image scans run slow or fast with the state of the BLAS
            # thread pool, which flips between processes on a 2-CPU box.
            (_rs_map(3, 3), _rs_map(3, 2), _rs_map(2, 3), _rs_map_planted,
             _rs_map(3, 2), _rs_witness_planted, _rs_map(3, 3), _rs_map(3, 2),
             _rs_witness, _rs_map_planted, _rs_map(3, 2), _rs_witness_planted,
             _rs_map(3, 3), _rs_map(3, 2), _rs_map(2, 3), _rs_map_planted,
             _rs_transpose_id, _rs_map(3, 2), _rs_map(3, 3), _rs_witness_planted,
             _rs_map(3, 2), _rs_map(2, 3), _rs_map_planted, _rs_map(3, 2)),
            pool=240, trace_items=24, warmup=2,
        ),
        Workload(
            "steering-cli",
            # Three-party LHS problems (64 strategies, about 55 ms) are the
            # slowest 25%, so p90 falls at the 60th percentile of their band.
            # The host runs all verdicts about a third faster for stretches of
            # seconds; a lower point of that band lands among those fast
            # samples in some runs and not in others.  p50 falls inside the
            # two-party LHS band.
            (_sc_lhs, _sc_lhs3, _sc_check_state, _sc_lhs, _sc_check_map,
             _sc_lhs3, _sc_assemblage, _sc_lhs, _sc_prbox, _sc_lhs3,
             _sc_check_state, _sc_lhs, _sc_rsp, _sc_lhs3, _sc_check_map,
             _sc_lhs, _sc_assemblage, _sc_lhs3, _sc_check_state, _sc_lhs),
            pool=800, trace_items=200, warmup=20, uses_files=True,
        ),
    )
}


def build(workload: str, seed: int, count: int, workdir: str | None = None) -> list:
    """The first ``count`` items of a workload's corpus for ``seed``.

    Workloads that read files write them into ``workdir``.  Each maker gets
    its own generator, how many items of its slot kind came before, and the
    file path it may write.
    """
    w = WORKLOADS[workload]
    if w.uses_files and workdir is None:
        raise ValueError(f"workload {workload} writes input files and needs a workdir")
    seen: dict = {}
    items = []
    for i in range(count):
        make = w.schedule[i % len(w.schedule)]
        k = seen.get(make, 0)
        seen[make] = k + 1
        path = os.path.join(workdir, f"in-{i:05d}.json") if w.uses_files else None
        items.append(make(np.random.default_rng([seed, i]), k, path))
    return items

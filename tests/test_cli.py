"""Command-line behavior: verbs, exit codes, JSON determinism."""

import contextlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from witworld import cli, steering
from witworld.cli import main
from witworld.serialize import (
    assemblage_from_json,
    dump_json,
    gptvector_to_json,
    linear_map_to_json,
    system_from_json,
)
from witworld import (GptVector, LinearMap, builtin_state, hermitian_tensor_to_vector,
                      transpose_map)

from conftest import choi_witness, planted_map, planted_witness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prbox_table(capsys):
    code, out, _ = run(capsys, "prbox")
    assert code == 0
    assert "CHSH = 4.0000" in out
    assert "0.5000" in out and "0.0000" in out


def test_prbox_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "prbox", "--json")
    code2, out2, _ = run(capsys, "prbox", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["chsh"] == 4.0
    assert payload["classical_bound"] == 2.0
    assert payload["probabilities"]["a=0,b=0|x=0,y=0"] == 0.5


def test_rsp_single_run(capsys):
    code, out, _ = run(capsys, "rsp", "--theta", "1.0", "--phi", "0.5")
    assert code == 0
    assert "bits sent = 1" in out
    code, out, _ = run(capsys, "rsp", "--theta", "1.0", "--phi", "0.5", "--json")
    payload = json.loads(out)
    assert payload["bits_sent"] == 1
    assert payload["trace_distance"] < 1e-10
    assert len(payload["branches"]) == 2


def test_rsp_grid(capsys):
    code, out, _ = run(capsys, "rsp", "--grid", "5", "--json")
    assert code == 0
    assert json.loads(out)["max_trace_distance"] < 1e-10


def test_check_state_builtin(capsys):
    code, out, _ = run(capsys, "check-state", "builtin:s-pr")
    assert code == 0 and "accepted" in out
    code, out, _ = run(capsys, "check-state", "builtin:swap2", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "accepted"


def test_check_state_file_and_rejection(capsys, tmp_path):
    bad = hermitian_tensor_to_vector(-np.diag([1.0, 0, 0, 0]).astype(complex), (2, 2))
    path = tmp_path / "bad.json"
    dump_json(gptvector_to_json(bad), str(path))
    code, out, _ = run(capsys, "check-state", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "rejected"
    assert "violating_effect" in payload


def test_check_state_single_atom_rejection(capsys, tmp_path):
    # one atom: the witness is a plain effect, not a product effect ray
    path = tmp_path / "q2.json"
    path.write_text(json.dumps({"system": ["Q2"], "coeffs": [0.0, 0.0, 0.0, 1.0]}))
    code, out, err = run(capsys, "check-state", str(path), "--json")
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["violating_effect"]["system"] == ["Q2"]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite number {name} in JSON output")
    return json.loads(text, parse_constant=reject)


def test_check_state_classical_rejection_has_witness(capsys, tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"system": ["C2"], "coeffs": [-0.5, 1.0]}))
    code, out, _ = run(capsys, "check-state", str(path), "--json")
    assert code == 1
    payload = _strict_json(out)
    assert payload["margin"] == -0.5
    assert payload["violating_effect"] == {"system": ["C2"], "coeffs": [1.0, 0.0]}


@pytest.mark.parametrize("entry, code, margin", [(-1.0, 1, -1.0), (1.0, 0, 1.0)])
def test_check_map_scalar_positivity(capsys, tmp_path, entry, code, margin):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"domain": [], "codomain": [], "matrix": [[entry]]}))
    got, out, _ = run(capsys, "check-map", str(path), "--test", "positivity", "--json")
    assert got == code
    assert "Infinity" not in out
    assert _strict_json(out)["margin"] == margin


def test_check_effect(capsys, tmp_path):
    e = builtin_state("s-pr")  # a state vector; 1.5x the unit is an invalid effect
    import witworld

    u = witworld.unit_effect(e.system)
    path = tmp_path / "eff.json"
    dump_json(gptvector_to_json(witworld.GptVector(e.system, 1.5 * u.coeffs)), str(path))
    code, out, _ = run(capsys, "check-effect", str(path))
    assert code == 1
    path2 = tmp_path / "unit.json"
    dump_json(gptvector_to_json(u), str(path2))
    code, out, _ = run(capsys, "check-effect", str(path2))
    assert code == 0


def test_check_effect_bell_projector_rejected_with_replayable_state(capsys, tmp_path):
    amp = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    path = tmp_path / "bell.json"
    dump_json(gptvector_to_json(hermitian_tensor_to_vector(np.outer(amp, amp), (2, 2))), str(path))
    code, out, _ = run(capsys, "check-effect", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "rejected"
    assert payload["margin"] == pytest.approx(-0.5, abs=1e-12)
    state = tmp_path / "violating.json"
    dump_json(payload["violating_state"], str(state))
    code, out, _ = run(capsys, "check-state", str(state), "--json")
    assert code == 0
    assert json.loads(out)["status"] == "accepted"


@pytest.mark.parametrize("seed", range(3))
def test_check_effect_qubit_qutrit_rejection_state_is_confirmed(capsys, tmp_path, seed):
    # the violating state is vv† or (vv†)^Γ, so check-state certifies it
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    path = tmp_path / "projector.json"
    dump_json(gptvector_to_json(hermitian_tensor_to_vector(np.outer(psi, psi.conj()), (2, 3))),
              str(path))
    code, out, _ = run(capsys, "check-effect", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["margin"] < -1e-3
    state = tmp_path / "violating.json"
    dump_json(payload["violating_state"], str(state))
    code, out, _ = run(capsys, "check-state", str(state), "--json")
    assert code == 0
    assert json.loads(out)["detail"].startswith("spectral certificate")


def test_check_effect_separable_qubit_pair_mixture_accepted(capsys, tmp_path):
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus = np.full((2, 2), 0.5)
    e = 0.5 * np.kron(p0, plus) + 0.4 * np.kron(p1, np.eye(2) - plus)
    path = tmp_path / "separable.json"
    dump_json(gptvector_to_json(hermitian_tensor_to_vector(e, (2, 2))), str(path))
    code, out, _ = run(capsys, "check-effect", str(path), "--json")
    assert code == 0
    assert json.loads(out)["status"] == "accepted"


def test_check_map_cp_rejection(capsys):
    code, out, _ = run(capsys, "check-map", "builtin:unot2", "--test", "cp")
    assert code == 1
    assert "min Choi eigenvalue = -1.0000" in out


def test_check_map_positivity(capsys):
    code, out, _ = run(capsys, "check-map", "builtin:unot2", "--test", "positivity")
    assert code == 0
    code, _, _ = run(capsys, "check-map", "builtin:transpose2", "--test", "trace-preserving")
    assert code == 0


def test_check_map_file(capsys, tmp_path):
    path = tmp_path / "map.json"
    dump_json(linear_map_to_json(transpose_map(2)), str(path))
    code, out, _ = run(capsys, "check-map", str(path), "--test", "positivity")
    assert code == 0


def test_assemblage_verify_and_emit(capsys, tmp_path):
    out_path = tmp_path / "prbox.json"
    code, out, _ = run(
        capsys, "assemblage", "pr-box", "--verify-ns", "--verify-lhs",
        "--emit", str(out_path),
    )
    assert code == 0
    assert "ns: accepted" in out
    assert "infeasible" in out
    asm = assemblage_from_json(json.loads(out_path.read_text()))
    assert asm.scenario == "multipartite"


def test_assemblage_bwi_and_instrumental(capsys):
    code, out, _ = run(capsys, "assemblage", "bwi-star", "--verify-ns")
    assert code == 0
    code, out, _ = run(capsys, "assemblage", "instrumental-star", "--verify-ns")
    assert code == 0
    assert "wired" in out


def test_assemblage_gleason_with_builtin_witness(capsys):
    code, out, _ = run(
        capsys, "assemblage", "gleason", "--witness", "builtin:singlet-pt", "--verify-ns"
    )
    assert code == 0


def test_lhs_verb(capsys, tmp_path):
    out_path = tmp_path / "prbox.json"
    run(capsys, "assemblage", "pr-box", "--emit", str(out_path))
    code, out, _ = run(capsys, "lhs", str(out_path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "infeasible"
    assert payload["certificate"]["value"] > 0


def test_lhs_verb_on_other_scenarios_is_not_applicable(capsys, tmp_path):
    for name, scenario in (("bwi-star", "bob-with-input"), ("instrumental-star", "instrumental")):
        path = tmp_path / f"{name}.json"
        run(capsys, "assemblage", name, "--emit", str(path))
        code, out, _ = run(capsys, "lhs", str(path), "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "not-applicable"
        assert scenario in payload["detail"]
        code, out, _ = run(capsys, "lhs", str(path))
        assert code == 2 and out.startswith("not-applicable:")


def test_lhs_verb_over_the_strategy_cap_is_unsupported(capsys, tmp_path):
    # well formed and commuting, but 2**21 deterministic strategies
    half = {"re": [[0.25, 0.0], [0.0, 0.25]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    doc = {"scenario": "bipartite", "outcomes": [2], "settings": [21], "d": 2,
           "elements": {f"a={a}|x={x}": half for a in range(2) for x in range(21)}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lhs", str(path), "--json")
    assert code == 2 and "Traceback" not in err
    payload = json.loads(out)
    assert payload["status"] == "unsupported"
    assert "cap" in payload["detail"]


def test_usage_errors(capsys):
    assert run(capsys, "no-such-verb")[0] == 64
    assert run(capsys, "check-state", "builtin:nope")[0] == 64
    assert run(capsys, "check-map", "builtin:unot2")[0] == 64  # missing --test
    assert run(capsys, "--threads", "0", "prbox")[0] == 64  # no such flag
    for flags in (["--grid", "0"], ["--grid", "-3"], ["--restarts", "0"],
                  ["--restarts", "-5"], ["--seed", "-1"], ["--tol", "-1"], ["--tol", "nan"]):
        code, out, err = run(capsys, "check-state", "builtin:swap2", *flags)
        assert code == 64, flags
        assert out == "" and "Traceback" not in err
    for flags in (["--grid", "0"], ["--grid", "-3"], ["--theta", "nan"], ["--phi", "inf"],
                  ["--theta", "-inf", "--grid", "4"]):
        code, out, err = run(capsys, "rsp", *flags)
        assert code == 64, flags
        assert out == "" and "Traceback" not in err


def test_malformed_seed_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    code, _, err = run(capsys, "check-state", "builtin:swap2")
    assert code == 64
    assert "WITWORLD_SEED" in err
    assert run(capsys, "check-state", "builtin:swap2", "--seed", "3")[0] == 0
    assert run(capsys, "assemblage", "pr-box", "--seed", "3")[0] == 0


# Valid built-ins whose margin at --tol 0 is a rounding error of -4e-17 to -8e-17.
_ROUNDING_FLOOR = (
    ("check-state", "builtin:phi-plus"),
    ("check-state", "builtin:singlet"),
    ("check-state", "builtin:swap2"),
    ("check-map", "builtin:transpose2", "--test", "positivity"),
    ("check-map", "builtin:unot2", "--test", "positivity"),
    ("check-map", "builtin:transpose3", "--test", "positivity"),
    ("check-map", "builtin:cunot2", "--test", "positivity"),
    ("check-map", "builtin:ctranspose2", "--test", "positivity"),
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a margin below -tol by a rounding "
                                       "error is rejected, so tol=0 rejects valid inputs")
@pytest.mark.parametrize("argv", _ROUNDING_FLOOR, ids=lambda argv: argv[1])
def test_valid_builtins_are_accepted_at_zero_tol(capsys, argv):
    assert run(capsys, *argv, "--tol", "0")[0] == 0


def test_malformed_input_exit_code(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert run(capsys, "check-state", str(missing))[0] == 65
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(capsys, "check-state", str(bad))[0] == 65
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"system": ["Q2"], "coeffs": [1, 2]}))
    assert run(capsys, "check-state", str(wrong))[0] == 65
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps({"system": ["B2,2", "B2,2"], "coeffs": [float("nan")] + [0.0] * 8}))
    assert run(capsys, "check-state", str(nan))[0] == 65
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({"scenario": "bipartite", "outcomes": [2], "settings": [2],
                                  "d": 2, "elements": []}))
    assert run(capsys, "lhs", str(listed))[0] == 65
    for counts in ({"bob_inputs": "two"}, {"bob_inputs": 0}, {"outcomes": [0]}):
        doc = {"scenario": "bob-with-input", "outcomes": [1], "settings": [1], "bob_inputs": 1,
               "elements": {"a=0|x=0;y=0": {"re": [[1.0]]}}}
        bad_counts = tmp_path / "counts.json"
        bad_counts.write_text(json.dumps({**doc, **counts}))
        code, _, err = run(capsys, "lhs", str(bad_counts))
        assert code == 65 and "Traceback" not in err, counts


def test_non_finite_matrix_file_exits_65_without_warning(capsys, tmp_path):
    path = tmp_path / "inf_im.json"
    path.write_text(json.dumps({"system": ["Q2"], "matrix": {
        "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, float("inf")], [0.0, 0.0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "check-effect", str(path))
    assert code == 65 and "finite" in err and "Hermitian" not in err


def _local_assemblage_doc(parties, seed):
    """A commuting qubit assemblage: in a random basis, each eigenvector's
    slice is a mixture of local deterministic boxes, so it has an LHS model."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    strategies = list(itertools.product(itertools.product(range(2), repeat=2), repeat=parties))
    mixtures = [lam * rng.dirichlet(np.ones(len(strategies)))
                for lam in rng.dirichlet([1.5, 1.5])]
    elements = {}
    for a in itertools.product(range(2), repeat=parties):
        for x in itertools.product(range(2), repeat=parties):
            m = sum(
                sum(w for w, fs in zip(mix, strategies)
                    if all(f[xi] == ai for f, ai, xi in zip(fs, a, x)))
                * np.outer(u[:, k], u[:, k].conj())
                for k, mix in enumerate(mixtures))
            key = f"a={','.join(map(str, a))}|x={','.join(map(str, x))}"
            elements[key] = {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
    return {"scenario": "multipartite", "outcomes": [2] * parties,
            "settings": [2] * parties, "d": 2, "elements": elements}


def test_tol_near_the_float_maximum_is_not_an_internal_error(capsys, tmp_path):
    # at unit size the tolerance overflowed and the verb exited 70; an
    # infinite tolerance passes every margin
    path = tmp_path / "zz.json"
    path.write_text(json.dumps({"system": ["Q2", "Q2"], "coeffs": [0.0] * 15 + [1.0]}))
    for argv in (["check-state", str(path)],
                 ["check-map", "builtin:transpose3", "--test", "positivity"]):
        code, out, err = run(capsys, *argv, "--tol", "8.98846567431158e+307", "--json")
        assert code == 0 and err == "", argv
        assert json.loads(out)["status"] == "accepted"


def test_json_determinism_across_verbs(capsys, tmp_path):
    two_party = tmp_path / "prbox.json"
    run(capsys, "assemblage", "pr-box", "--emit", str(two_party))
    three_party = tmp_path / "local3.json"
    three_party.write_text(json.dumps(_local_assemblage_doc(3, 3)))
    qutrits = tmp_path / "qutrits.json"
    amp = np.zeros(9)
    amp[[0, 4, 8]] = 1.0
    dump_json(gptvector_to_json(hermitian_tensor_to_vector(
        (np.outer(amp, amp).reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
         + np.eye(9) / 9) / 4, (3, 3))), str(qutrits))
    for argv in (
        ["check-state", "builtin:singlet-pt", "--json"],
        ["check-state", str(qutrits), "--json"],
        ["check-map", "builtin:transpose3", "--test", "positivity", "--json"],
        ["assemblage", "bwi-star-star", "--verify-ns", "--json"],
        ["lhs", str(two_party), "--json"],
        ["lhs", str(three_party), "--json"],
        ["assemblage", "gleason", "--witness", "builtin:singlet", "--verify-ns",
         "--verify-lhs", "--json"],
        ["check-effect", "builtin:swap2", "--json"],
        ["check-map", "builtin:ctranspose2", "--test", "trace-nonincreasing", "--json"],
        ["check-map", "builtin:unot2", "--test", "trace-preserving", "--json"],
    ):
        a = run(capsys, *argv)
        b = run(capsys, *argv)
        assert a == b
        _strict_json(a[1])
    # a rejected Q3->Q3 map: a restart descent through qutrit ground states
    planted = tmp_path / "planted.json"
    dump_json(linear_map_to_json(planted_map(np.random.default_rng([0, 2]), 3, 3)), str(planted))
    argv = ["check-map", str(planted), "--test", "positivity", "--json"]
    a, b = run(capsys, *argv), run(capsys, *argv)
    assert a == b and a[0] == 1
    assert json.loads(a[1])["status"] == "rejected"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    from witworld import cli

    path = tmp_path / "local3.json"
    path.write_text(json.dumps(_local_assemblage_doc(3, 4)))
    calls = [
        ["no-such-verb"],
        ["lhs", str(path), "--json"],
        ["--help"],
        ["check-state", "builtin:swap2"],
        ["check-map", "builtin:unot2"],  # missing --test
        ["lhs", str(path)],
    ]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(_run_quietly(argv)[:2])
    assert [code for code, _ in alone] == [64, 0, 0, 0, 64, 0]
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    assert [_run_quietly(argv)[:2] for argv in calls] == alone
    assert len(built) == 1


def test_inconclusive_exit_code(capsys, tmp_path):
    # the Choi witness on Q3*Q3: neither it nor its partial transpose is
    # PSD, so no spectral certificate, and the search cannot be exhaustive
    v = hermitian_tensor_to_vector(choi_witness(), (3, 3))
    path = tmp_path / "qutrits.json"
    dump_json(gptvector_to_json(v), str(path))
    code, out, _ = run(capsys, "check-state", str(path), "--restarts", "20")
    assert code == 2
    assert "inconclusive" in out


def test_seed_env_var_sets_default(monkeypatch):
    from witworld import SearchConfig

    monkeypatch.setenv("WITWORLD_SEED", "31337")
    assert SearchConfig().seed == 31337
    monkeypatch.delenv("WITWORLD_SEED")
    assert SearchConfig().seed == 0
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    with pytest.raises(ValueError, match="WITWORLD_SEED"):
        SearchConfig()


def test_assemblage_verify_lhs_unsupported_is_inconclusive(capsys):
    argv = ["assemblage", "gleason", "--witness", "builtin:singlet", "--verify-lhs"]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "lhs: unsupported" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["lhs"]["status"] == "unsupported"


def _scaled_singlet_file(tmp_path, factor=1 + 1e-6):
    singlet = builtin_state("singlet")
    path = tmp_path / "w.json"
    dump_json(gptvector_to_json(GptVector(singlet.system, singlet.coeffs * factor)), str(path))
    return str(path)


def test_assemblage_tol_reaches_the_ns_verdict(capsys, tmp_path):
    argv = ["assemblage", "gleason", "--witness", _scaled_singlet_file(tmp_path),
            "--verify-ns", "--json"]
    code, out, _ = run(capsys, *argv)
    ns = json.loads(out)["ns"]
    assert code == 1 and ns["status"] == "rejected"
    assert "reduced state has trace 1.000000" in ns["detail"]
    code, out, _ = run(capsys, *argv, "--tol", "1e-3")
    ns = json.loads(out)["ns"]
    assert code == 0 and ns["status"] == "accepted"
    assert ns["margin"] == pytest.approx(-1e-6)


@pytest.mark.parametrize("name, reached", [
    ("pr-box", ["ns_check", "lhs_check"]),
    ("instrumental-star", ["wire_instrumental", "ns_check"]),
])
def test_assemblage_tol_reaches_every_check(capsys, monkeypatch, name, reached):
    seen = []

    def recording(hook):
        original = getattr(cli, hook)

        def wrapper(asm, tol):
            seen.append((hook, tol.tol if hook == "lhs_check" else tol))
            return original(asm, tol)
        return wrapper

    for hook in ("ns_check", "lhs_check", "wire_instrumental"):
        monkeypatch.setattr(cli, hook, recording(hook))
    code, out, _ = run(capsys, "assemblage", name, "--verify-ns", "--verify-lhs",
                       "--tol", "1e-7", "--json")
    assert code == 0
    assert seen == [(hook, 1e-7) for hook in reached]


def _count_calls(monkeypatch, module, name, counted=lambda *a, **k: True):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if counted(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_instrumental_star_is_realized_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, steering, "assemblage_from_realization")
    code, out, _ = run(capsys, "assemblage", "instrumental-star", "--verify-ns", "--json")
    assert code == 0 and json.loads(out)["ns"]["status"] == "accepted"
    assert len(calls) == 1


def test_gleason_witness_is_checked_once(capsys, monkeypatch):
    witness = builtin_state("swap2")

    def is_witness(v, *args, **kwargs):
        return v.system == witness.system and np.array_equal(v.coeffs, witness.coeffs)

    calls = _count_calls(monkeypatch, steering, "composite_state_check", is_witness)
    run(capsys, "assemblage", "gleason", "--witness", "builtin:swap2", "--json")
    assert len(calls) == 1


def test_check_map_cp_on_non_quantum_map_is_usage_error(capsys):
    code, out, err = run(capsys, "check-map", "builtin:copy2", "--test", "cp")
    assert code == 64
    assert out == ""
    assert "--test cp" in err and "Traceback" not in err


def test_internal_error_exits_70_with_traceback(capsys, monkeypatch):
    from witworld import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_prbox", broken)
    code, out, err = run(capsys, "prbox")
    assert code == cli.EXIT_SOFTWARE == 70
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("bad_float", [lambda: np.float64(1e300) * np.float64(1e300),
                                       lambda: np.sqrt(np.float64(-1.0))])
def test_floating_point_overflow_exits_70(capsys, monkeypatch, bad_float):
    # an inf or nan margin would read as a verdict (inf >= -tol accepts)
    from witworld import cli
    from witworld.verdict import ACCEPTED, MembershipVerdict

    monkeypatch.setattr(cli, "composite_state_check",
                        lambda v, cfg: MembershipVerdict(ACCEPTED, margin=float(bad_float())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the guard, not pytest's filter
        code, out, err = run(capsys, "check-state", "builtin:swap2")
    assert code == cli.EXIT_SOFTWARE == 70
    assert out == ""
    assert "Traceback" in err and "FloatingPointError" in err


@pytest.mark.parametrize("argv", [["check-state", "builtin:phi-plus", "--tol", "0", "--json"],
                                  ["rsp", "--grid", "3", "--json"], ["prbox"]])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_74_without_traceback(argv, unbuffered):
    # buffered, the write fails at main's flush; unbuffered, at the print
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to standard output fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "witworld.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_IOERR == 74
    assert proc.stderr == b""


def test_closed_stdout_in_process_leaves_file_descriptors_alone(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    dup2_calls = []
    monkeypatch.setattr(cli.os, "dup2", lambda *a: dup2_calls.append(a))
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
        code = main(["prbox", "--json"])
    assert code == 74
    assert err.getvalue() == "" and dup2_calls == []


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_unwritable_emit_file_exits_74_without_traceback(capsys, tmp_path, json_flag):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "assemblage", "pr-box", "--emit", str(target), *json_flag)
    assert code == cli.EXIT_IOERR == 74
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("scale", [1e100, 1e155, 1e300])
def test_scaled_planted_inputs_rejected_with_exit_1(capsys, tmp_path, scale):
    rng = np.random.default_rng(13)
    for dims in ((2, 2), (3, 3)):
        v = hermitian_tensor_to_vector(planted_witness(rng, *dims), dims)
        path = tmp_path / f"witness{dims[0]}{dims[1]}.json"
        dump_json(gptvector_to_json(GptVector(v.system, scale * v.coeffs)), str(path))
        code, out, err = run(capsys, "check-state", str(path), "--json")
        assert code == 1, (dims, out, err)
        assert json.loads(out)["margin"] < -1e-3 * scale
    t = planted_map(rng, 3, 3)
    path = tmp_path / "map.json"
    dump_json(linear_map_to_json(LinearMap(t.domain, t.codomain, scale * t.matrix)), str(path))
    code, out, err = run(capsys, "check-map", str(path), "--test", "positivity", "--json")
    assert code == 1, (out, err)
    assert json.loads(out)["margin"] < -1e-3 * scale


# --- exit-code properties over generated files and flags ---------------------------

_ATOMS = ("Q2", "Q3", "C2", "C3", "B2,2")
_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
_finite = st.floats(min_value=-2.0, max_value=2.0)


def _dim(atoms):
    return system_from_json(list(atoms)).dim


@st.composite
def _state_doc(draw):
    """(JSON text, whether it holds a non-finite number)."""
    kind = draw(st.sampled_from(["finite", "non-finite", "wrong-length", "garbage"]))
    if kind == "garbage":
        text = draw(st.sampled_from(
            ["{oops", "[]", "null", '{"system": "Q2"}', '{"system": ["Q9x"], "coeffs": [1]}',
             '{"system": ["Q2"], "coeffs": {"a": 1}}', '{"system": ["Q2"], "coeffs": ["x", 1, 2, 3]}',
             '{"system": ["Q2"], "matrix": {"re": 1}}']))
        return text, False
    atoms = draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=2))
    if atoms == ["Q3", "Q3"]:  # keep the random-restart searches to one Q3 factor
        atoms = ["Q3", "Q2"]
    n = _dim(atoms) + (draw(st.sampled_from([-1, 1])) if kind == "wrong-length" else 0)
    coeffs = draw(st.lists(_finite, min_size=n, max_size=n))
    bad = False
    if kind == "non-finite":
        coeffs[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        bad = True
    return json.dumps({"system": atoms, "coeffs": coeffs}), bad


@st.composite
def _map_doc(draw):
    kind = draw(st.sampled_from(["finite", "non-finite", "wrong-shape", "garbage"]))
    if kind == "garbage":
        text = draw(st.sampled_from(
            ["{", '{"domain": ["Q2"]}', '{"domain": ["Q2"], "codomain": ["Q2"], "matrix": {"a": 1}}',
             '{"domain": "Q2", "codomain": ["Q2"], "matrix": [[1]]}',
             '{"domain": ["Q2"], "codomain": ["Q2"], "matrix": [["a", 1, 2, 3]]}']))
        return text, False
    dom = draw(st.lists(st.sampled_from(("Q2", "Q3", "C2")), min_size=1, max_size=2))
    cod = [draw(st.sampled_from(("Q2", "C2", "B2,2")))]
    if "Q3" in dom:  # keep the random-restart searches to one Q3 factor
        dom = ["Q3"]
    rows, cols = _dim(cod), _dim(dom) + (1 if kind == "wrong-shape" else 0)
    matrix = draw(st.lists(st.lists(_finite, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    bad = False
    if kind == "non-finite":
        matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        bad = True
    return json.dumps({"domain": dom, "codomain": cod, "matrix": matrix}), bad


@st.composite
def _search_flags(draw):
    flags, bad = [], False
    if draw(st.booleans()):
        flags += ["--grid", str(draw(st.integers(-2, 50)))]
    if draw(st.booleans()):
        flags += ["--restarts", str(draw(st.integers(-2, 20)))]
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(-1, 2**31)))]
    if draw(st.booleans()):
        tol = draw(st.one_of(st.floats(0, 1e-3), _any_float))
        flags += ["--tol", repr(tol)]
        bad = not math.isfinite(tol)
    return flags, bad


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# unit size 2 (a coefficient in [1, 2)), where tol at unit size is 2 tol: an overflow for
# the largest finite --tol, which must read as an infinite tol
_UNIT_TWO_STATE = json.dumps({"system": ["Q2", "Q2"], "coeffs": [1.5] + [0.0] * 15})


# derandomized, so each run draws the same examples and a failure repeats
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          derandomize=True)
@example(doc=("check-state", (_UNIT_TWO_STATE, False)),
         flags=(["--tol", "8.98846567431158e+307"], False))
@example(doc=("check-state", (_UNIT_TWO_STATE, False)), flags=(["--tol", "5e-324"], False))
@example(doc=("positivity", (json.dumps({"domain": ["Q2"], "codomain": ["Q2"], "matrix": np.diag(
    [1.5, 1.0, 1.0, 1.0]).tolist()}), False)), flags=(["--tol", "8.98846567431158e+307"], False))
@given(
    doc=st.one_of(
        st.tuples(st.sampled_from(["check-state", "check-effect"]), _state_doc()),
        st.tuples(
            st.sampled_from(["positivity", "cp", "trace-preserving", "trace-nonincreasing"]),
            _map_doc(),
        ),
    ),
    flags=_search_flags(),
)
def test_generated_inputs_exit_with_documented_codes(tmp_path_factory, doc, flags):
    verb, (text, bad_doc) = doc
    path = tmp_path_factory.mktemp("doc") / "input.json"
    path.write_text(text)
    argv = [verb, str(path)] if verb.startswith("check-") else [
        "check-map", str(path), "--test", verb]
    argv += flags[0]
    code, _, err = _run_quietly(argv)
    assert code in (0, 1, 2, 64, 65), (argv, text, err)
    assert "Traceback" not in err
    if bad_doc or flags[1]:
        assert code != 0, (argv, text)


_LHS_KEYS = {
    "bipartite": [f"a={a}|x={x}" for a in range(2) for x in range(2)],
    "multipartite": [f"a={a},{b}|x={x},{y}" for a in range(2) for b in range(2)
                     for x in range(2) for y in range(2)],
    "instrumental": [f"a={a}|x={x}" for a in range(2) for x in range(2)],
    "bob-with-input": [f"a={a}|x={x};y={y}" for a in range(2) for x in range(2)
                       for y in range(2)],
}


@st.composite
def _assemblage_doc(draw):
    """(JSON text, whether it holds a non-finite number, whether it must be decided,
    whether it must exit 65)."""
    kind = draw(st.sampled_from(
        ["commuting", "non-commuting", "non-finite", "non-psd", "non-square", "list-element",
         "missing-key", "extra-key", "other-scenario", "garbage", "non-hermitian",
         "mixed-size", "bad-d"]))
    if kind == "garbage":
        text = draw(st.sampled_from(
            ["{", "[]", '{"scenario": "bipartite"}', '{"scenario": "x", "elements": {}}',
             '{"scenario": "bipartite", "outcomes": [2], "settings": [2], "elements": {"a=0": 1}}',
             '{"scenario": "bipartite", "outcomes": "2", "settings": [2], "elements": {}}',
             '{"scenario": "bipartite", "outcomes": [0], "settings": [2], "elements": {}}',
             '{"scenario": "bipartite", "outcomes": [2, 2], "settings": [2], "elements": {}}',
             '{"scenario": "bob-with-input", "outcomes": [1], "settings": [1], '
             '"bob_inputs": "two", "elements": {"a=0|x=0;y=0": {"re": [[1.0]]}}}']))
        return text, False, False, False
    scenario = draw(st.sampled_from(
        ["instrumental", "bob-with-input"] if kind == "other-scenario"
        else ["bipartite", "multipartite"]))
    keys = list(_LHS_KEYS[scenario])
    diag = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
    elements = {k: {"re": np.diag(draw(diag)).tolist(), "im": [[0.0, 0.0], [0.0, 0.0]]}
                for k in keys}
    bad = False
    target = draw(st.sampled_from(keys))
    if kind == "non-commuting":
        w = draw(st.floats(0.05, 1.0))
        elements[target]["re"] = [[w, w], [w, w]]
    elif kind == "non-finite":
        part, i, j = draw(st.sampled_from(["re", "im"])), draw(st.integers(0, 1)), draw(
            st.integers(0, 1))
        elements[target][part][i][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        bad = True
    elif kind == "non-psd":
        elements[target]["re"][1][1] = -draw(st.floats(0.01, 1.0))
    elif kind == "non-square":
        elements[target] = {"re": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]}
    elif kind == "list-element":
        elements[target] = elements[target]["re"]
    elif kind == "missing-key":
        del elements[target]
    elif kind == "extra-key":
        elements[target.replace("a=0", "a=2").replace("a=1", "a=2")] = elements[target]
    elif kind == "non-hermitian":
        w = draw(st.floats(0.01, 1.0))
        elements[target]["im"] = [[0.0, w], [w, 0.0]]
    elif kind == "mixed-size":
        elements[target] = {"re": np.diag(draw(diag) + [0.5]).tolist(), "im": [[0.0] * 3] * 3}
    doc = {"scenario": scenario, "outcomes": [2] * (2 if scenario == "multipartite" else 1),
           "settings": [2] * (2 if scenario == "multipartite" else 1), "d": 2,
           "elements": elements}
    if kind == "bad-d":
        doc["d"] = draw(st.sampled_from([3, 1, 0, -2, "two", None, True, [2]]))
    if scenario == "bob-with-input":
        doc["bob_inputs"] = 2
    # a real diagonal assemblage is always decided: feasible or a checked certificate
    return (json.dumps(doc), bad, kind == "commuting",
            kind in ("non-hermitian", "mixed-size", "bad-d"))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          derandomize=True)
@given(doc=_assemblage_doc(), as_json=st.booleans())
def test_generated_lhs_files_exit_with_documented_codes(tmp_path_factory, doc, as_json):
    text, bad_doc, decided, malformed = doc
    path = tmp_path_factory.mktemp("asm") / "assemblage.json"
    path.write_text(text)
    code, out, err = _run_quietly(["lhs", str(path)] + (["--json"] if as_json else []))
    assert code in (0, 1, 2, 64, 65), (text, err)
    assert "Traceback" not in err
    if bad_doc:
        assert code != 0, text
    if decided:
        assert code in (0, 1), (text, out)
    if malformed:
        assert code == 65, (text, err)
    if as_json and code in (0, 1, 2):
        assert json.loads(out)["status"]

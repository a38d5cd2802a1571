"""Command-line behavior: verbs, exit codes, JSON determinism."""

import json

import numpy as np
import pytest

from witworld.cli import main
from witworld.serialize import (
    assemblage_from_json,
    dump_json,
    gptvector_to_json,
    linear_map_to_json,
)
from witworld import builtin_state, transpose_map, hermitian_tensor_to_vector


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


def test_malformed_seed_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    code, _, err = run(capsys, "check-state", "builtin:swap2")
    assert code == 64
    assert "WITWORLD_SEED" in err
    assert run(capsys, "check-state", "builtin:swap2", "--seed", "3")[0] == 0
    assert run(capsys, "assemblage", "pr-box", "--seed", "3")[0] == 0


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


def test_json_determinism_across_verbs(capsys):
    for argv in (
        ["check-state", "builtin:singlet-pt", "--json"],
        ["check-map", "builtin:transpose3", "--test", "positivity", "--json"],
        ["assemblage", "bwi-star-star", "--verify-ns", "--json"],
    ):
        a = run(capsys, *argv)
        b = run(capsys, *argv)
        assert a == b


def test_inconclusive_exit_code(capsys, tmp_path):
    # a qutrit-pair state: the search cannot be exhaustive, exit 2
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    v = hermitian_tensor_to_vector(rho, (3, 3))
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

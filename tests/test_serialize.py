"""JSON round trips and malformed-input rejection."""

import warnings

import numpy as np
import pytest

from witworld import (
    Boxworld,
    Classical,
    Quantum,
    SearchConfig,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    lhs_check,
    paper_assemblage,
    pr_state,
    system,
    transpose_map,
)
from witworld.serialize import (
    MalformedInputError,
    assemblage_from_json,
    assemblage_to_json,
    atom_from_str,
    gptvector_from_json,
    gptvector_to_json,
    linear_map_from_json,
    linear_map_to_json,
    load_json_file,
    dump_json,
    search_config_from_json,
    search_config_to_json,
    steering_inequality_to_json,
)

from conftest import random_psd


def test_atom_codes():
    assert atom_from_str("Q2") == Quantum(2)
    assert atom_from_str("C3") == Classical(3)
    assert atom_from_str("B2,2") == Boxworld(2, 2)
    with pytest.raises(MalformedInputError):
        atom_from_str("X5")


def test_vector_round_trip_coeffs():
    v = pr_state()
    back = gptvector_from_json(gptvector_to_json(v))
    assert back.system == v.system
    assert np.array_equal(back.coeffs, v.coeffs)


def test_vector_round_trip_matrix_form():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = (a + a.conj().T) / 2
    v = hermitian_tensor_to_vector(m, (2, 2))
    enc = gptvector_to_json(v, matrix_form=True)
    assert "matrix" in enc
    back = gptvector_from_json(enc)
    assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-12


def test_vector_malformed():
    with pytest.raises(MalformedInputError):
        gptvector_from_json({"coeffs": [1, 2]})
    with pytest.raises(MalformedInputError):
        gptvector_from_json({"system": ["Q2"], "coeffs": [1, 2]})
    with pytest.raises(MalformedInputError):
        gptvector_from_json({"system": ["C2"], "matrix": {"re": [[1, 0], [0, 1]]}})
    with pytest.raises(MalformedInputError):
        gptvector_from_json({"system": ["Q2"]})


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_matrix_rejected_before_arithmetic(part, bad):
    entries = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    entries[part][0][1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedInputError, match="finite"):
            gptvector_from_json({"system": ["Q2"], "matrix": entries})


def test_linear_map_round_trip():
    t = transpose_map(2)
    back = linear_map_from_json(linear_map_to_json(t))
    assert back.domain == t.domain and back.codomain == t.codomain
    assert np.array_equal(back.matrix, t.matrix)
    with pytest.raises(MalformedInputError):
        linear_map_from_json({"domain": ["Q2"], "matrix": [[1]]})
    with pytest.raises(MalformedInputError):
        linear_map_from_json(
            {"domain": ["Q2"], "codomain": ["Q2"], "matrix": [[1, 0], [0, 1]]}
        )


def test_search_config_round_trip_and_defaults():
    cfg = SearchConfig(grid=90, restarts=10, seed=5, tol=1e-8)
    assert search_config_from_json(search_config_to_json(cfg)) == cfg
    partial = search_config_from_json({"grid": 60})
    assert partial.grid == 60 and partial.restarts == SearchConfig().restarts
    for bad in ({"grid": "many"}, {"grid": 0}, {"tol": -1.0}):
        with pytest.raises(MalformedInputError):
            search_config_from_json(bad)


def test_search_config_with_seed_ignores_seed_env_var(monkeypatch):
    monkeypatch.setenv("WITWORLD_SEED", "abc")
    assert search_config_from_json({"seed": 3}).seed == 3
    with pytest.raises(ValueError, match="WITWORLD_SEED"):
        search_config_from_json({})


@pytest.mark.parametrize("name", ["pr-box", "bwi-star", "bwi-star-star", "instrumental-star"])
def test_assemblage_round_trip(name):
    asm = paper_assemblage(name)
    back = assemblage_from_json(assemblage_to_json(asm))
    assert back.scenario == asm.scenario
    assert back.outcomes == asm.outcomes and back.settings == asm.settings
    for key, el in asm.elements.items():
        assert np.max(np.abs(back.elements[key].coeffs - el.coeffs)) < 1e-12


def test_assemblage_malformed():
    asm = paper_assemblage("pr-box")
    enc = assemblage_to_json(asm)
    broken = dict(enc)
    broken["scenario"] = "weird"
    with pytest.raises(MalformedInputError):
        assemblage_from_json(broken)
    broken = dict(enc)
    broken["elements"] = dict(list(enc["elements"].items())[:3])
    with pytest.raises(MalformedInputError):
        assemblage_from_json(broken)
    with pytest.raises(MalformedInputError):
        assemblage_from_json({"scenario": "bipartite"})


def _random_psd_json(rng, d):
    m = random_psd(rng, d) * 10.0 ** rng.uniform(-6, 2)
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _column_doc(elements, **extra):
    """A bipartite document with one setting and one outcome per element."""
    return {"scenario": "bipartite", "outcomes": [len(elements)], "settings": [1],
            "elements": {f"a={a}|x=0": el for a, el in enumerate(elements)}, **extra}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_loader_matches_per_element_conversion_bit_for_bit(d):
    # the byte-identical --json contract rests on this equality
    rng = np.random.default_rng(d)
    for n in range(1, 65):
        doc = _column_doc([_random_psd_json(rng, d) for _ in range(n)])
        asm = assemblage_from_json(doc)
        assert list(asm.elements) == [(a, 0) for a in range(n)]
        for (a, _), el in asm.elements.items():
            entry = doc["elements"][f"a={a}|x=0"]
            m = np.array(entry["re"]) + 1j * np.array(entry["im"])
            assert el.system == system(Quantum(d))
            assert np.array_equal(el.coeffs, hermitian_tensor_to_vector(m, (d,)).coeffs)
            assert np.array_equal(el.coeffs, hermitian_to_vector(m).coeffs)


def test_assemblage_keeps_file_order_across_element_forms():
    rng = np.random.default_rng(1)
    coeffs = {"system": ["Q2"], "coeffs": hermitian_to_vector(np.eye(2) / 2).coeffs.tolist()}
    doc = _column_doc([_random_psd_json(rng, 2), coeffs, _random_psd_json(rng, 2), coeffs])
    doc["elements"] = dict(reversed(list(doc["elements"].items())))
    asm = assemblage_from_json(doc)
    assert list(asm.elements) == [(3, 0), (2, 0), (1, 0), (0, 0)]
    assert np.array_equal(asm.elements[(1, 0)].coeffs, coeffs["coeffs"])


def test_assemblage_d_is_checked_when_present():
    rng = np.random.default_rng(2)
    elements = [_random_psd_json(rng, 2) for _ in range(2)]
    assert assemblage_from_json(_column_doc(elements)).d == 2
    assert assemblage_from_json(_column_doc(elements, d=2)).d == 2
    for d in (3, 1, 0, -2, "two", "2", 2.5, True, None, [2]):
        with pytest.raises(MalformedInputError, match="'d' must be|declares d="):
            assemblage_from_json(_column_doc(elements, d=d))


def test_malformed_elements_are_named():
    rng = np.random.default_rng(3)
    elements = [_random_psd_json(rng, 2) for _ in range(3)]
    skew = dict(elements[1], im=[[0.0, 0.25], [0.25, 0.0]])
    with pytest.raises(MalformedInputError) as exc:
        assemblage_from_json(_column_doc([elements[0], skew, skew]))
    assert str(exc.value) == "element a=1|x=0 matrix is not Hermitian within tolerance"
    with pytest.raises(MalformedInputError, match=r"element a=2\|x=0 matrix is 3x3"):
        assemblage_from_json(_column_doc(elements[:2] + [_random_psd_json(rng, 3)]))


def test_certificate_json_shape():
    verdict, _ = lhs_check(paper_assemblage("pr-box"))
    cert = steering_inequality_to_json(verdict.witness, "multipartite")
    assert cert["type"] == "steering-inequality"
    assert cert["value"] > 0 and cert["lhs_bound"] == 0.0
    assert all("|" in k for k in cert["coefficients"])


def test_file_helpers(tmp_path):
    path = tmp_path / "vec.json"
    dump_json(gptvector_to_json(pr_state()), str(path))
    assert load_json_file(str(path))["system"] == ["B2,2", "B2,2"]
    with pytest.raises(MalformedInputError):
        load_json_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedInputError):
        load_json_file(str(bad))

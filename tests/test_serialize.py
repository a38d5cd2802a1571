"""JSON round trips and malformed-input rejection."""

import contextlib
import copy
import io
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from witworld import (
    Boxworld,
    Classical,
    GptVector,
    Quantum,
    SearchConfig,
    SteeringInequality,
    hermitian_tensor_to_vector,
    hermitian_to_vector,
    lhs_check,
    paper_assemblage,
    pr_state,
    system,
    transpose_map,
    vector_to_hermitian,
)
from witworld import serialize
from witworld.cli import main
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
    # no value is cast: 2.7 is not read as 2, true as 1, or "1e-3" as a number
    for bad in ({"grid": "many"}, {"grid": 0}, {"tol": -1.0}, {"grid": 2.7},
                {"restarts": True}, {"tol": "1e-3"}, {"seed": 1.0}, {"tol": False}):
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


def test_certificate_keys_parse_as_element_keys():
    # a signalling bipartite assemblage: its outcome totals halve at x=1,
    # so no LHS model reproduces it
    elements = {f"a={a}|x={x}": {"re": (np.diag([1 - a, a]) / (2 + 2 * x)).tolist(),
                                 "im": np.zeros((2, 2)).tolist()}
                for a in range(2) for x in range(2)}
    bipartite = assemblage_from_json({"scenario": "bipartite", "outcomes": [2], "settings": [2],
                                      "elements": elements})
    for asm in (bipartite, paper_assemblage("pr-box")):
        verdict, _ = lhs_check(asm)
        assert verdict.rejected
        assert verdict.witness.evaluate(asm) == pytest.approx(verdict.witness.value, abs=1e-9)
        cert = steering_inequality_to_json(verdict.witness, asm.scenario)
        assert cert["coefficients"]
        for text, c in cert["coefficients"].items():
            key = serialize._element_key_from_str(asm.scenario, text)
            assert key in asm.elements
            assert verdict.witness.coefficients[key] == c


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


# --- one-pass assemblage load ------------------------------------------------------


def _regex_key(scenario, s):
    """The element-key grammar as regular expressions: the reference."""
    if scenario == "bob-with-input":
        m = re.fullmatch(r"a=(\d+)\|x=(\d+);y=(\d+)", s)
        return m and (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if scenario == "multipartite":
        m = re.fullmatch(r"a=(\d+(?:,\d+)*)\|x=(\d+(?:,\d+)*)", s)
        return m and (tuple(int(t) for t in m.group(1).split(",")),
                      tuple(int(t) for t in m.group(2).split(",")))
    m = re.fullmatch(r"a=(\d+)\|x=(\d+)", s)
    return m and (int(m.group(1)), int(m.group(2)))


@pytest.mark.parametrize("scenario", ["bipartite", "multipartite", "bob-with-input",
                                      "instrumental"])
def test_element_keys_parse_as_the_regular_grammar(scenario):
    texts = ["a=0|x=1", "a=10|x=02", "a=1,0|x=0,1", "a=1,0,1|x=1,1,0", "a=0|x=1;y=2",
             "a=1|x=0;y=", "a=|x=0", "a=0|x=", "a=0|x=1|x=2", "a=0,|x=1", "a=,0|x=1",
             "a=0|y=1", "b=0|x=1", " a=0|x=1", "a=0|x=1 ", "a=+1|x=0", "a=-1|x=0",
             "a=\u0661|x=\u0662", "a=\u00b2|x=0", "a=0|x=1;y=2;y=3", "a=0;y=1|x=2", ""]
    for text in texts:
        expected = _regex_key(scenario, text) or None
        assert serialize._parse_element_key(scenario, text) == expected, text
        if expected is None:
            with pytest.raises(MalformedInputError, match="bad element key"):
                serialize._element_key_from_str(scenario, text)


def _psd_doc(rng, n=8, d=2):
    return _column_doc([_random_psd_json(rng, d) for _ in range(n)], d=d)


def test_valid_matrix_file_is_read_in_one_pass(monkeypatch):
    rng = np.random.default_rng(5)
    doc = _psd_doc(rng, 64)
    expected = {
        serialize._element_key_from_str("bipartite", key):
            hermitian_to_vector(np.array(el["re"]) + 1j * np.array(el["im"]))
        for key, el in doc["elements"].items()
    }
    calls = []
    monkeypatch.setattr(serialize, "_matrix_from_json",
                        lambda obj: calls.append(obj) or pytest.fail("per-element read"))
    asm = assemblage_from_json(doc)
    assert calls == []
    assert list(asm.elements) == list(expected)
    for key, el in asm.elements.items():
        assert el.system == expected[key].system
        assert np.array_equal(el.coeffs, expected[key].coeffs)


def _malformed(doc, message):
    with pytest.raises(MalformedInputError) as exc:
        assemblage_from_json(doc)
    assert message in str(exc.value)
    return str(exc.value)


def test_loader_errors_name_the_first_bad_element():
    rng = np.random.default_rng(6)
    base = _psd_doc(rng)
    for bad in (math.nan, math.inf, -math.inf):
        doc = copy.deepcopy(base)
        doc["elements"]["a=5|x=0"]["im"][0][1] = bad
        doc["elements"]["a=7|x=0"]["re"][1][1] = bad
        _malformed(doc, "element a=5|x=0: matrix 're' and 'im' entries must be finite")
    doc = copy.deepcopy(base)
    doc["elements"]["a=3|x=0"]["re"] = [[0.5, 0.0], [0.0]]  # ragged
    _malformed(doc, "element a=3|x=0: matrix 're' must be numbers")
    doc = copy.deepcopy(base)
    doc["elements"]["a=4|x=0"]["re"][0][0] = "half"  # not a number
    _malformed(doc, "element a=4|x=0: matrix 're' must be numbers")
    doc = copy.deepcopy(base)
    doc["elements"]["a=2|x=0"]["im"] = [[0.0, 0.0]]  # 're' and 'im' of different shapes
    _malformed(doc, "element a=2|x=0: matrix 're' and 'im' must be equal-shape 2d arrays")
    doc = copy.deepcopy(base)
    doc["elements"]["a=6|x=0"] = [[0.5, 0.0], [0.0, 0.5]]
    _malformed(doc, "element a=6|x=0 needs 'matrix' re/im or a vector")
    for d in (3, 1):
        doc = copy.deepcopy(base)
        doc["d"] = d
        _malformed(doc, f"assemblage declares d={d} but its elements have d=2")


def test_files_outside_the_one_pass_read_as_before():
    rng = np.random.default_rng(7)
    base = _psd_doc(rng)
    # a missing 'im' is a real matrix
    doc = copy.deepcopy(base)
    doc["elements"]["a=3|x=0"]["im"] = [[0.0, 0.0], [0.0, 0.0]]
    real = assemblage_from_json(doc)
    del doc["elements"]["a=3|x=0"]["im"]
    missing = assemblage_from_json(doc)
    for key, el in real.elements.items():
        assert np.array_equal(missing.elements[key].coeffs, el.coeffs)
    # coefficient-form elements mixed in keep the file's order and values
    doc = copy.deepcopy(base)
    coeffs = hermitian_to_vector(np.eye(2) / 2).coeffs.tolist()
    doc["elements"]["a=1|x=0"] = {"system": ["Q2"], "coeffs": coeffs}
    mixed = assemblage_from_json(doc)
    assert list(mixed.elements) == [(a, 0) for a in range(8)]
    assert np.array_equal(mixed.elements[(1, 0)].coeffs, coeffs)
    one_pass = assemblage_from_json(base)
    for key in mixed.elements:
        if key != (1, 0):
            assert np.array_equal(mixed.elements[key].coeffs, one_pass.elements[key].coeffs)
    # two spellings of one key: the later element wins, in the first one's place
    doc = copy.deepcopy(base)
    doc["elements"]["a=01|x=0"] = doc["elements"].pop("a=1|x=0")
    doc["elements"]["a=1|x=0"] = doc["elements"]["a=0|x=0"]
    twice = assemblage_from_json(doc)
    assert list(twice.elements) == [(0, 0)] + [(a, 0) for a in range(2, 8)] + [(1, 0)]
    assert np.array_equal(twice.elements[(1, 0)].coeffs, one_pass.elements[(0, 0)].coeffs)


def test_a_key_spelled_twice_keeps_its_first_place():
    rng = np.random.default_rng(9)
    base = _psd_doc(rng)
    later = {"system": ["Q2"], "coeffs": hermitian_to_vector(np.eye(2) / 2).coeffs.tolist()}
    for first, second in ((base["elements"]["a=3|x=0"], later), (later, base["elements"]["a=3|x=0"])):
        doc = copy.deepcopy(base)
        items = list(doc["elements"].items())
        items[3] = ("a=03|x=0", first)
        doc["elements"] = dict(items + [("a=3|x=0", second)])
        asm = assemblage_from_json(doc)
        assert list(asm.elements) == [(a, 0) for a in range(8)]
        want = assemblage_from_json(dict(base, elements=dict(base["elements"], **{"a=3|x=0": second})))
        for key, el in asm.elements.items():
            assert np.array_equal(el.coeffs, want.elements[key].coeffs)


@pytest.mark.parametrize("kind", ["non-finite", "ragged", "non-numeric", "list", "bad-d"])
def test_malformed_assemblage_files_exit_65_naming_the_element(tmp_path, kind):
    doc = _psd_doc(np.random.default_rng(8))
    key = "a=6|x=0"
    if kind == "non-finite":
        doc["elements"][key]["re"][1][0] = math.inf
    elif kind == "ragged":
        doc["elements"][key]["re"][1] = [0.5]
    elif kind == "non-numeric":
        doc["elements"][key]["im"][0][0] = "zero"
    elif kind == "list":
        doc["elements"][key] = doc["elements"][key]["re"]
    else:
        doc["d"], key = 3, "declares d=3"
    path = tmp_path / "assemblage.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lhs", str(path), "--json"])
    assert code == 65
    assert out.getvalue() == ""
    assert key in err.getvalue() and "Traceback" not in err.getvalue()


def _three_party_doc(rng):
    """A 64-element three-party file, keys in a shuffled order."""
    keys = [f"a={a}|x={x}" for a, x in itertools.product(
        map(",".join, itertools.product("01", repeat=3)), repeat=2)]
    order = rng.permutation(len(keys))
    return {"scenario": "multipartite", "outcomes": [2, 2, 2], "settings": [2, 2, 2],
            "elements": {keys[i]: _random_psd_json(rng, 2) for i in order}}


def _per_element_reference(scenario, items):
    """``{key: GptVector}`` read one element at a time, in file order: a key
    spelled twice keeps its first place and takes its later element."""
    els = {}
    for key_str, val in items.items():
        key = serialize._element_key_from_str(scenario, key_str)
        els[key] = gptvector_from_json(
            val if "coeffs" in val else {"system": [f"Q{len(val['re'])}"], "matrix": val})
    return els


def test_loading_builds_no_vector_until_elements_are_read(monkeypatch):
    doc = _three_party_doc(np.random.default_rng(21))
    built = []
    init = GptVector.__post_init__
    monkeypatch.setattr(GptVector, "__post_init__", lambda v: (built.append(v), init(v))[1])
    asm = assemblage_from_json(doc)
    assert built == []
    assert lhs_check(asm)[0].status in ("accepted", "rejected", "unsupported")
    assert built == []  # the check works on the array too
    els = asm.elements
    assert len(built) == 64 and asm.elements is els


def test_element_reads_build_only_the_rows_they_read(monkeypatch):
    asm = assemblage_from_json(_three_party_doc(np.random.default_rng(23)))
    built = []
    init = GptVector.__post_init__
    monkeypatch.setattr(GptVector, "__post_init__", lambda v: (built.append(v), init(v))[1])
    keys = [((0, 1, 0), (1, 1, 0)), ((1, 1, 1), (0, 0, 0))]
    ineq = SteeringInequality({keys[0]: 1.0, keys[1]: -0.5},
                              np.array([1.0, 1j]) / np.sqrt(2.0), 0.0)
    value = ineq.evaluate(asm)
    assert built == []
    el = asm.element(*keys[0])
    assert len(built) == 1
    for bad in (((0, 1, 0), (1, 1, 2)), ((0, 1, 0), (1, 1, -1)), ((0, -1, 0), (1, 1, 0)),
                ((0, 1), (1, 1, 0)), (0, 1)):
        with pytest.raises(KeyError):
            asm.element(*bad)
        with pytest.raises(KeyError):
            asm.matrix(*bad)
    assert len(built) == 1
    els = asm.elements
    assert len(built) == 65
    assert el.coeffs.tobytes() == els[keys[0]].coeffs.tobytes()
    for key, v in els.items():
        assert asm.matrix(*key).tobytes() == vector_to_hermitian(v).tobytes()
    k = ineq.eigenvector
    assert value == float(sum(c * np.real(k.conj() @ vector_to_hermitian(els[key]) @ k)
                              for key, c in ineq.coefficients.items()))
    # a bipartite key off the grid, a negative index among them, is missing too
    pr = paper_assemblage("pr-box")
    for bad in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(KeyError):
            pr.element(*bad)
        with pytest.raises(KeyError):
            pr.matrix(*bad)


def test_elements_match_the_per_element_reference_bit_for_bit():
    rng = np.random.default_rng(22)
    doc = _three_party_doc(rng)
    items = list(doc["elements"].items())
    vector = {"system": ["Q2"], "coeffs": hermitian_to_vector(np.eye(2) / 4).coeffs.tolist()}
    def spelled_twice(i, first, later):
        # key i spelled with a leading zero in its place, then as usual at the end
        return (items[:i] + [(items[i][0].replace("a=", "a=0"), first)] + items[i + 1:]
                + [(items[i][0], later)])

    twice = [spelled_twice(5, items[5][1], items[9][1]),
             spelled_twice(3, vector, items[7][1]), spelled_twice(3, items[7][1], vector)]
    for pairs in [items] + twice:
        elements = dict(pairs)
        ref = _per_element_reference("multipartite", elements)
        assert len(ref) == 64
        asm = assemblage_from_json(dict(doc, elements=elements))
        assert list(asm.elements) == list(ref) == list(asm.keys)
        for key, el in asm.elements.items():
            assert el.system == ref[key].system
            assert el.coeffs.tobytes() == ref[key].coeffs.tobytes()
            assert el.coeffs.tobytes() == asm.coeffs[key[0] + key[1]].tobytes()


def test_canonical_keys_resolve_without_parsing(monkeypatch):
    doc = _three_party_doc(np.random.default_rng(24))
    want = assemblage_from_json(doc)
    parsed = []
    parse = serialize._parse_element_key
    monkeypatch.setattr(serialize, "_parse_element_key",
                        lambda scenario, s: parsed.append(s) or parse(scenario, s))
    asm = assemblage_from_json(doc)
    assert parsed == []
    assert asm.keys == want.keys and asm.coeffs.tobytes() == want.coeffs.tobytes()
    # another spelling of a key, or the keys of another grid, are parsed
    items = dict(doc["elements"])
    items["a=0,1,01|x=1,0,0"] = items.pop("a=0,1,1|x=1,0,0")
    assert list(map(len, assemblage_from_json(dict(doc, elements=items)).keys)) == [2] * 64
    assert parsed == ["a=0,1,01|x=1,0,0"]
    with pytest.raises(MalformedInputError, match="incomplete element index"):
        assemblage_from_json(dict(doc, outcomes=[2, 2, 2, 1], settings=[2, 2, 2, 1]))
    assert len(parsed) == 65


def _uniform_three_party_doc():
    keys = [f"a={a}|x={x}" for a, x in itertools.product(
        map(",".join, itertools.product("01", repeat=3)), repeat=2)]
    return {"scenario": "multipartite", "outcomes": [2, 2, 2], "settings": [2, 2, 2],
            "elements": {k: {"re": [[0.125, 0.0], [0.0, 0.125]], "im": [[0.0, 0.0], [0.0, 0.0]]}
                         for k in keys}}


def _renamed(doc, old, new):
    return dict(doc, elements={new if k == old else k: v for k, v in doc["elements"].items()})


def _ragged_message():
    try:
        np.asarray([[0.125, 0.0], [0.0]], dtype=float)
    except ValueError as exc:
        return f"matrix 're' must be numbers: {exc}"


@pytest.mark.parametrize("kind", ["bad-key", "duplicate-key", "ragged", "non-finite"])
def test_malformed_three_party_files_keep_their_exit_code_and_message(tmp_path, kind):
    doc = _uniform_three_party_doc()
    bad = "a=1,0,1|x=0,1,1"
    if kind == "bad-key":
        doc = _renamed(doc, "a=0,1,0|x=1,0,0", "a=0,1,0|y=1,0,0")
        message = "bad element key 'a=0,1,0|y=1,0,0' for scenario multipartite"
    elif kind == "duplicate-key":
        doc = _renamed(doc, "a=1,1,1|x=1,1,1", "a=0,0,0|x=00,0,0")
        message = "incomplete element index: missing [((1, 1, 1), (1, 1, 1))], extra []"
    elif kind == "ragged":
        doc["elements"][bad] = {"re": [[0.125, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        message = f"element {bad}: {_ragged_message()}"
    else:
        doc["elements"][bad] = {"re": [[0.125, 0.0], [0.0, 0.125]],
                                "im": [[0.0, 0.0], [math.nan, 0.0]]}
        message = f"element {bad}: matrix 're' and 'im' entries must be finite"
    path = tmp_path / "assemblage.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lhs", str(path), "--json"])
    assert (code, out.getvalue(), err.getvalue()) == (65, "", f"malformed input: {message}\n")

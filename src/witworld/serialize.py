"""JSON formats for vectors, maps, search configuration, and assemblages.

Atoms are encoded as ``"Q<d>"``, ``"C<v>"``, ``"B<n>,<k>"``.  Vectors are
``{"system": [...], "coeffs": [...]}``; vectors over quantum atoms may
instead carry ``{"matrix": {"re": [[...]], "im": [[...]]}}``.  Linear maps
are ``{"domain": [...], "codomain": [...], "matrix": [[...]]}``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from types import MappingProxyType

import numpy as np

from .compose import SearchConfig, hermitian_tensor_to_vector
from .steering import (
    BIPARTITE,
    BOB_WITH_INPUT,
    INSTRUMENTAL,
    MULTIPARTITE,
    Assemblage,
    SteeringInequality,
    _element_rows,
)
from .systems import (
    Boxworld,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    coeffs_to_hermitian,
    hermitian_to_coeffs,
    not_hermitian,
)
from .transforms import LinearMap


class MalformedInputError(ValueError):
    """Raised when a JSON document does not match the expected format."""


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{what} must be numbers: {exc}") from exc


def atom_to_str(atom) -> str:
    return str(atom)


def atom_from_str(s: str):
    if not isinstance(s, str):
        raise MalformedInputError(f"cannot parse atom {s!r} (expected a string)")
    m = re.fullmatch(r"Q(\d+)", s)
    if m:
        return Quantum(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", s)
    if m:
        return Classical(int(m.group(1)))
    m = re.fullmatch(r"B(\d+),(\d+)", s)
    if m:
        return Boxworld(int(m.group(1)), int(m.group(2)))
    raise MalformedInputError(f"cannot parse atom {s!r} (expected Q<d>, C<v>, or B<n>,<k>)")


def system_to_json(sys: SystemType) -> list:
    return [atom_to_str(a) for a in sys.atoms]


def system_from_json(items) -> SystemType:
    if not isinstance(items, (list, tuple)):
        raise MalformedInputError("system must be a list of atom strings")
    return SystemType(tuple(atom_from_str(s) for s in items))


def _matrix_to_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise MalformedInputError("matrix must be an object with 're' (and optional 'im')")
    re_part = _float_array(obj["re"], "matrix 're'")
    im_part = _float_array(obj.get("im", np.zeros_like(re_part)), "matrix 'im'")
    if re_part.shape != im_part.shape or re_part.ndim != 2:
        raise MalformedInputError("matrix 're' and 'im' must be equal-shape 2d arrays")
    if not (np.isfinite(re_part).all() and np.isfinite(im_part).all()):
        raise MalformedInputError("matrix 're' and 'im' entries must be finite")
    return re_part + 1j * im_part


def gptvector_to_json(v: GptVector, matrix_form: bool = False) -> dict:
    out = {"system": system_to_json(v.system)}
    if matrix_form and all(isinstance(a, Quantum) for a in v.atoms) and v.atoms:
        from .compose import vector_to_hermitian_tensor

        out["matrix"] = _matrix_to_json(vector_to_hermitian_tensor(v))
    else:
        out["coeffs"] = v.coeffs.tolist()
    return out


def gptvector_from_json(obj) -> GptVector:
    if not isinstance(obj, dict) or "system" not in obj:
        raise MalformedInputError("vector must be an object with 'system'")
    sys = system_from_json(obj["system"])
    if "coeffs" in obj:
        coeffs = _float_array(obj["coeffs"], "coeffs")
        try:
            return GptVector(sys, coeffs)
        except ValueError as exc:
            raise MalformedInputError(str(exc)) from exc
    if "matrix" in obj:
        if not all(isinstance(a, Quantum) for a in sys.atoms) or not sys.atoms:
            raise MalformedInputError("matrix form is only for quantum systems")
        mat = _matrix_from_json(obj["matrix"])
        dims = tuple(a.d for a in sys.atoms)
        try:
            return hermitian_tensor_to_vector(mat, dims)
        except ValueError as exc:
            raise MalformedInputError(str(exc)) from exc
    raise MalformedInputError("vector needs 'coeffs' or 'matrix'")


def linear_map_to_json(t: LinearMap) -> dict:
    return {
        "domain": system_to_json(t.domain),
        "codomain": system_to_json(t.codomain),
        "matrix": t.matrix.tolist(),
    }


def linear_map_from_json(obj) -> LinearMap:
    if not isinstance(obj, dict) or not {"domain", "codomain", "matrix"} <= set(obj):
        raise MalformedInputError("map must carry 'domain', 'codomain', 'matrix'")
    try:
        return LinearMap(
            system_from_json(obj["domain"]),
            system_from_json(obj["codomain"]),
            _float_array(obj["matrix"], "map matrix"),
        )
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc


def search_config_to_json(cfg: SearchConfig) -> dict:
    return {"grid": cfg.grid, "restarts": cfg.restarts, "seed": cfg.seed, "tol": cfg.tol}


def search_config_from_json(obj) -> SearchConfig:
    if not isinstance(obj, dict):
        raise MalformedInputError("search configuration must be an object")
    try:
        return SearchConfig(**{k: obj[k] for k in ("grid", "restarts", "seed", "tol") if k in obj})
    except ValueError as exc:
        raise MalformedInputError(f"bad search configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# Assemblages
# ---------------------------------------------------------------------------


def _element_key_to_str(scenario: str, key) -> str:
    if scenario == MULTIPARTITE:
        a, x = key
        return f"a={','.join(map(str, a))}|x={','.join(map(str, x))}"
    if scenario == BOB_WITH_INPUT:
        a, x, y = key
        return f"a={a}|x={x};y={y}"
    a, x = key
    return f"a={a}|x={x}"


def _element_key_from_str(scenario: str, s: str):
    key = _parse_element_key(scenario, s)
    if key is None:
        raise MalformedInputError(f"bad element key {s!r} for scenario {scenario}")
    return key


@functools.lru_cache(maxsize=32)
def _spelled_keys(scenario: str, outcomes: tuple, settings: tuple, bob_inputs,
                  size: int) -> MappingProxyType:
    """A read-only ``{spelling: key}`` for every key of the declared element
    grid, as :func:`_element_key_to_str` spells it; empty where the counts
    do not describe ``size`` elements of ``scenario`` (the
    :class:`Assemblage` then names the fault)."""
    parties = len(outcomes)
    counts = outcomes + settings + (() if bob_inputs is None else (bob_inputs,))
    if (len(settings) != parties or (scenario != MULTIPARTITE and parties != 1)
            or (bob_inputs is None) == (scenario == BOB_WITH_INPUT) or math.prod(counts) != size):
        return MappingProxyType({})
    grid = itertools.product(*map(range, counts))
    if scenario == MULTIPARTITE:
        grid = ((k[:parties], k[parties:]) for k in grid)
    return MappingProxyType({_element_key_to_str(scenario, k): k for k in grid})


def _parse_element_key(scenario: str, s: str):
    """The key that ``s`` spells, or None: ``a=<n>|x=<n>``, ``a=<n>,..|x=<n>,..``
    (multipartite) or ``a=<n>|x=<n>;y=<n>`` (bob-with-input), with decimal digits."""
    if not isinstance(s, str) or not s.startswith("a="):
        return None
    a, sep, x = s[2:].partition("|x=")
    if not sep:
        return None
    if scenario == MULTIPARTITE:
        a, x = a.split(","), x.split(",")
        if not all(map(str.isdecimal, a + x)):
            return None
        return tuple(map(int, a)), tuple(map(int, x))
    if scenario == BOB_WITH_INPUT:
        x, sep, y = x.partition(";y=")
        if not (sep and a.isdecimal() and x.isdecimal() and y.isdecimal()):
            return None
        return int(a), int(x), int(y)
    if not (a.isdecimal() and x.isdecimal()):
        return None
    return int(a), int(x)


def assemblage_to_json(asm: Assemblage) -> dict:
    mats = coeffs_to_hermitian(asm.coeffs, (asm.d,))
    out = {
        "scenario": asm.scenario,
        "outcomes": list(asm.outcomes),
        "settings": list(asm.settings),
        "d": asm.d,
        "elements": {
            _element_key_to_str(asm.scenario, asm.key_at(index)): _matrix_to_json(mats[index])
            for index in np.ndindex(asm.coeffs.shape[:-1])
        },
    }
    if asm.bob_inputs is not None:
        out["bob_inputs"] = asm.bob_inputs
    return out


def assemblage_from_json(obj) -> Assemblage:
    """An :class:`Assemblage` from its JSON form.

    Keys and element forms are read in file order.  All matrix-form
    ``{"re", "im"}`` parts then go into one array, with one finiteness
    test; only when that fails are they read one by one, so the error
    names the first bad element.  No per-element vector is built.
    """
    if not isinstance(obj, dict) or "scenario" not in obj or "elements" not in obj:
        raise MalformedInputError("assemblage must carry 'scenario' and 'elements'")
    if not isinstance(obj["elements"], dict):
        raise MalformedInputError("assemblage 'elements' must be an object keyed by element")
    scenario = obj["scenario"]
    if scenario not in (BIPARTITE, MULTIPARTITE, BOB_WITH_INPUT, INSTRUMENTAL):
        raise MalformedInputError(f"unknown scenario {scenario!r}")
    try:
        outcomes = tuple(int(v) for v in obj["outcomes"])
        settings = tuple(int(v) for v in obj["settings"])
        bob_inputs = None if obj.get("bob_inputs") is None else int(obj["bob_inputs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad outcome/setting/input counts: {exc}") from exc
    d = obj.get("d")
    if "d" in obj and (not isinstance(d, int) or isinstance(d, bool) or d < 1):
        raise MalformedInputError(f"assemblage 'd' must be a positive integer, got {d!r}")
    keys, rows = _read_elements(scenario, obj["elements"], _spelled_keys(
        scenario, outcomes, settings, bob_inputs, len(obj["elements"])))
    try:
        asm = Assemblage.from_rows(scenario, outcomes, settings, keys, rows, bob_inputs=bob_inputs)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    if d is not None and d != asm.d:
        raise MalformedInputError(f"assemblage declares d={d} but its elements have d={asm.d}")
    return asm


def _read_elements(scenario: str, items: dict, spelled) -> tuple:
    """The element keys in file order, and their coefficient rows.

    A key is looked up in ``spelled`` (:func:`_spelled_keys`), and parsed
    only when it is not there.  A key spelled twice keeps its first place
    and takes its later element.
    """
    # a matrix-form element waits as its row in `matrices`
    elements, key_strs, matrices = {}, [], []
    for key_str, val in items.items():
        key = spelled.get(key_str)
        if key is None:
            key = _element_key_from_str(scenario, key_str)
        if isinstance(val, dict) and "re" in val:
            elements[key] = len(matrices)
            key_strs.append(key_str)
            matrices.append(val)
        elif isinstance(val, dict) and "coeffs" in val:
            elements[key] = gptvector_from_json(val)
        else:
            raise MalformedInputError(f"element {key_str} needs 'matrix' re/im or a vector")
    vectors = {key: v for key, v in elements.items() if not isinstance(v, int)}
    try:
        rows = _element_rows(vectors)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    if matrices:
        stack = _matrix_stack(key_strs, matrices)
        bad = np.flatnonzero(not_hermitian(stack, 1e-8))  # the test of hermitian_tensor_to_vector
        if bad.size:
            raise MalformedInputError(
                f"element {key_strs[bad[0]]} matrix is not Hermitian within tolerance"
            )
        d = stack.shape[1]
        if vectors and rows.shape[1] != d * d:
            raise MalformedInputError("elements live on different systems")
        # the vector rows follow the matrix rows, in file order
        at = dict(zip(vectors, range(len(matrices), len(matrices) + len(vectors))))
        rows = np.concatenate([hermitian_to_coeffs(stack, (d,)), rows.reshape(-1, d * d)])
        rows = rows[[at.get(key, v) for key, v in elements.items()]]
    return list(elements), rows


def _matrix_stack(key_strs: list, matrices: list) -> np.ndarray:
    """The matrix-form elements as one complex ``(n, d, d)`` array."""
    try:
        # a missing 'im' reads as 're' here and is zeroed below
        re_part = np.asarray([m["re"] for m in matrices], dtype=float)
        im_part = np.asarray([m.get("im", m["re"]) for m in matrices], dtype=float)
    except (TypeError, ValueError):
        re_part = im_part = None
    if (re_part is not None and re_part.ndim == 3 and re_part.shape == im_part.shape
            and re_part.shape[1] == re_part.shape[2]):
        im_part[[i for i, m in enumerate(matrices) if "im" not in m]] = 0.0
        if np.isfinite(re_part).all() and np.isfinite(im_part).all():
            return re_part + 1j * im_part
    # name the first bad element
    mats = []
    for key_str, obj in zip(key_strs, matrices):
        try:
            mat = _matrix_from_json(obj)
        except MalformedInputError as exc:
            raise MalformedInputError(f"element {key_str}: {exc}") from None
        if mat.shape[0] != mat.shape[1]:
            raise MalformedInputError(f"element {key_str} matrix is not square")
        if mats and mat.shape != mats[0].shape:
            raise MalformedInputError(
                f"element {key_str} matrix is {mat.shape[0]}x{mat.shape[0]}, but element "
                f"{key_strs[0]} is {mats[0].shape[0]}x{mats[0].shape[0]}"
            )
        mats.append(mat)
    return np.stack(mats)


def steering_inequality_to_json(cert: SteeringInequality, scenario: str) -> dict:
    return {
        "type": "steering-inequality",
        "lhs_bound": 0.0,
        "value": cert.value,
        "coefficients": {
            _element_key_to_str(scenario, key): c for key, c in sorted(cert.coefficients.items())
        },
        "eigenvector": {
            "re": np.real(cert.eigenvector).tolist(),
            "im": np.imag(cert.eigenvector).tolist(),
        },
    }


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text

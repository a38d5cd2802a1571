"""Verdicts on a fixed prefix of the benchmark corpus match ``data/snapshot.json``.

``data/make_snapshot.py`` builds the records (and regenerates the file).
Status and exit code must match exactly; a margin may move by
``1e-12 * 2**unit_exponent``, the exponent of the input's largest entry,
so a change in rounding passes and a change in a verdict does not.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "data" / "make_snapshot.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("_make_snapshot", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


snapshot = _load_script()
EXPECTED = json.loads(Path(snapshot.SNAPSHOT).read_text(encoding="utf-8"))


def _same_margin(old, new, exponent) -> bool:
    if old is None or new is None or not (math.isfinite(old) and math.isfinite(new)):
        return old == new
    return abs(new - old) <= 1e-12 * 2.0 ** exponent


def test_snapshot_covers_the_declared_prefixes():
    assert EXPECTED["seed"] == snapshot.SEED
    assert {w: len(r) for w, r in EXPECTED["workloads"].items()} == dict(snapshot.PREFIXES)


@pytest.mark.parametrize("workload, count", snapshot.PREFIXES)
def test_verdicts_match_the_snapshot(workload, count):
    got = snapshot.records(workload, count)
    for i, (old, new) in enumerate(zip(EXPECTED["workloads"][workload], got)):
        where = f"{workload} item {i} ({old['kind']})"
        assert (new["kind"], new["digest"]) == (old["kind"], old["digest"]), \
            f"corpus changed at {where}: regenerate the snapshot only on purpose"
        assert (new["status"], new.get("code")) == (old["status"], old.get("code")), where
        assert _same_margin(old["margin"], new["margin"], old["unit_exponent"]), \
            f"{where}: margin {new['margin']!r}, snapshot {old['margin']!r}"


def _records(edit=None):
    """Two synthetic workloads, one API and one CLI record each, with ``edit`` applied."""
    doc = {"seed": 11, "workloads": {
        "restart-search": [
            {"kind": "map Q3->Q3 planted", "digest": "a" * 20, "status": "rejected",
             "margin": -0.25, "unit_exponent": 3},
            {"kind": "witness Q2*Q3", "digest": "b" * 20, "status": "accepted",
             "margin": 1.5e-3, "unit_exponent": 0}],
        "steering-cli": [
            {"kind": "assemblage", "digest": "c" * 20, "code": 0, "status": "accepted",
             "margin": 0.0, "unit_exponent": 1, "stdout": "d" * 20}]}}
    if edit:
        edit(doc["workloads"])
    return doc


def _drift(factor):
    def edit(workloads):
        item = workloads["restart-search"][0]
        item["margin"] += factor * 1e-12 * 2.0 ** item["unit_exponent"]
    return edit


def _set(workload, key, value):
    return lambda workloads: workloads[workload][0].update({key: value})


@pytest.mark.parametrize("edit, code", [
    pytest.param(None, 0, id="identical"),
    pytest.param(_set("restart-search", "status", "accepted"), 1, id="status-flipped"),
    pytest.param(_set("steering-cli", "code", 1), 1, id="exit-code-changed"),
    pytest.param(_drift(2.0), 1, id="drift-twice-the-bound"),
    pytest.param(_drift(0.5), 0, id="drift-half-the-bound"),
])
def test_diff_exits_1_on_a_changed_verdict_or_a_drift_beyond_its_bound(
        tmp_path, capsys, edit, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_records()), encoding="utf-8")
    b.write_text(json.dumps(_records(edit)), encoding="utf-8")
    assert snapshot.main(["--diff", str(a), str(b)]) == code
    assert "restart-search: 2 and 2 items, 2 compared" in capsys.readouterr().out

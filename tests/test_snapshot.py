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

"""Regenerate ``snapshot.json``: the verdicts on a fixed prefix of the benchmark corpus.

Usage (from the repository root)::

    PYTHONPATH=src python tests/data/make_snapshot.py

The snapshot covers the first 400 ``qubit-pair``, 240 ``restart-search``
and 200 ``steering-cli`` items of seed 11, built by ``perfbench/corpus.py``
(imported, never changed).  Per item it records the kind, a digest of the
input, the status (and, for CLI items, the exit code) and the margin, with
the binary exponent of the input's largest entry that scales the margin's
tolerance.  ``tests/test_snapshot.py`` recomputes the records and compares.
Regenerate only when a verdict is meant to change, and say which in
``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshot.json")
SEED = 11
PREFIXES = (("qubit-pair", 400), ("restart-search", 240), ("steering-cli", 200))


def load_corpus():
    """``perfbench/corpus.py`` as the module ``perfbench.corpus``."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    return importlib.import_module("perfbench.corpus")


def _numbers(obj):
    """Every number in a loaded JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def _unit_exponent(values) -> int:
    """e with the largest |value| in [2^(e-1), 2^e); 0 for no or only zero values."""
    top = max(map(abs, values), default=0.0)
    return math.frexp(top)[1] if top else 0


def _api_record(item, outcome) -> dict:
    data = item.data.astype("<f8")
    return {
        "kind": item.kind,
        "digest": hashlib.sha256(item.kind.encode() + data.tobytes()).hexdigest()[:20],
        "status": outcome.status,
        "margin": outcome.margin,
        "unit_exponent": _unit_exponent(data.reshape(-1).tolist()),
    }


def _cli_record(item, outcome, workdir) -> dict:
    digest = hashlib.sha256(item.kind.encode())
    numbers = []
    for arg in item.argv:
        if arg.startswith(workdir):
            with open(arg, "rb") as fh:
                text = fh.read()
            digest.update(os.path.basename(arg).encode() + text)
            numbers += _numbers(json.loads(text))
        else:
            digest.update(arg.encode())
        digest.update(b"\0")
    code, stdout = outcome
    payload = json.loads(stdout)
    if "status" in payload:
        status = payload["status"]
    else:
        parts = [f"{k}={payload[k]['status']}" for k in ("ns", "lhs") if k in payload]
        status = ";".join(parts) or None
    margin = payload.get("margin", payload.get("ns", {}).get("margin"))
    return {
        "kind": item.kind,
        "digest": digest.hexdigest()[:20],
        "code": code,
        "status": status,
        "margin": margin,
        "unit_exponent": _unit_exponent(numbers),
    }


def records(workload: str, count: int) -> list:
    """The snapshot records of the first ``count`` items of ``workload``, seed 11."""
    corpus = load_corpus()
    with tempfile.TemporaryDirectory() as workdir:
        out = []
        for item in corpus.build(workload, SEED, count, workdir):
            outcome = item.call()
            out.append(_cli_record(item, outcome, workdir) if item.argv
                       else _api_record(item, outcome))
        return out


def main() -> int:
    # one record a line, so a regenerated snapshot diffs item by item
    blocks = [f"  {json.dumps(w)}: [\n" + ",\n".join(f"   {json.dumps(r)}" for r in records(w, n))
              + "\n  ]" for w, n in PREFIXES]
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "seed": {SEED},\n "workloads": {{\n' + ",\n".join(blocks) + "\n }\n}\n")
    print(f"wrote {SNAPSHOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

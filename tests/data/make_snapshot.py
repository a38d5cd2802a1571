"""Regenerate ``snapshot.json``, and compare the verdicts of two checkouts.

Usage (from the repository root)::

    PYTHONPATH=src python tests/data/make_snapshot.py
    PYTHONPATH=src python tests/data/make_snapshot.py --full --seed 12 --out B.json
    python tests/data/make_snapshot.py --diff A.json B.json

The snapshot covers the first 400 ``qubit-pair``, 240 ``restart-search``
and 200 ``steering-cli`` items of seed 11, built by ``perfbench/corpus.py``
(imported, never changed).  Per item it records the kind, a digest of the
input, the status (and, for CLI items, the exit code) and the margin, with
the binary exponent of the input's largest entry that scales the margin's
tolerance.  ``tests/test_snapshot.py`` recomputes the records and compares.
Regenerate only when a verdict is meant to change, and say which in
``CHANGES.md``.

``--out FILE`` writes the records to ``FILE`` instead, for ``--seed N``
and, with ``--full``, for every item of each workload's pool (2000, 240
and 800).  Those records also carry a digest of each CLI item's standard
output; ``snapshot.json`` leaves it out, as an LP that reports another
vertex of the same problem changes digits no verdict rests on.
``--diff A B`` prints, per workload, the items whose kind, status or exit
code differ, how many margins and outputs are bit-identical, and the
largest margin drift as a multiple of its ``1e-12 * 2**unit_exponent``
bound; it exits 1 if a status or exit code differs or a drift exceeds
its bound.  Run each side with its own checkout's ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
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


def _cli_record(item, outcome, workdir, with_stdout: bool) -> dict:
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
    record = {
        "kind": item.kind,
        "digest": digest.hexdigest()[:20],
        "code": code,
        "status": status,
        "margin": margin,
        "unit_exponent": _unit_exponent(numbers),
    }
    if with_stdout:
        record["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()[:20]
    return record


def records(workload: str, count: int, seed: int = SEED, with_stdout: bool = False) -> list:
    """The records of the first ``count`` items of ``workload`` for ``seed``;
    with ``with_stdout``, CLI records carry a digest of the standard output."""
    corpus = load_corpus()
    with tempfile.TemporaryDirectory() as workdir:
        out = []
        for item in corpus.build(workload, seed, count, workdir):
            outcome = item.call()
            out.append(_cli_record(item, outcome, workdir, with_stdout) if item.argv
                       else _api_record(item, outcome))
        return out


def write(path: str, seed: int, prefixes, with_stdout: bool) -> None:
    # one record a line, so a regenerated snapshot diffs item by item
    blocks = [f"  {json.dumps(w)}: [\n"
              + ",\n".join(f"   {json.dumps(r)}" for r in records(w, n, seed, with_stdout))
              + "\n  ]" for w, n in prefixes]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "seed": {seed},\n "workloads": {{\n' + ",\n".join(blocks) + "\n }\n}\n")


def _drift(old: dict, new: dict) -> float:
    """How far ``new``'s margin lies from ``old``'s, in units of its bound."""
    a, b = old["margin"], new["margin"]
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if repr(a) == repr(b) else math.inf
    return abs(b - a) / (1e-12 * 2.0 ** old["unit_exponent"])


def diff(path_a: str, path_b: str) -> int:
    """Print how the records in ``path_b`` differ from those in ``path_a``."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if a["seed"] != b["seed"]:
        print(f"seeds differ: {a['seed']} and {b['seed']}")
    same = a["seed"] == b["seed"]
    for workload, old in a["workloads"].items():
        new = b["workloads"].get(workload, [])
        pairs = list(zip(old, new))
        print(f"{workload}: {len(old)} and {len(new)} items, {len(pairs)} compared")
        same &= len(old) == len(new)
        for i, (o, n) in enumerate(pairs):
            if (o["kind"], o["digest"]) != (n["kind"], n["digest"]):
                print(f"  item {i}: input differs ({o['kind']} -> {n['kind']})")
                same = False
            elif (o["status"], o.get("code")) != (n["status"], n.get("code")):
                code = f", exit code {o['code']} -> {n['code']}" if "code" in o else ""
                print(f"  item {i} ({o['kind']}): status {o['status']} -> {n['status']}{code}")
                same = False
        bits = sum(repr(o["margin"]) == repr(n["margin"]) for o, n in pairs)
        print(f"  margins bit-identical: {bits} of {len(pairs)}")
        outputs = [(o["stdout"], n["stdout"]) for o, n in pairs if "stdout" in o and "stdout" in n]
        if outputs:
            print(f"  stdout byte-identical: {sum(x == y for x, y in outputs)} of {len(outputs)}")
        if pairs:
            i, worst = max(enumerate(_drift(o, n) for o, n in pairs), key=lambda p: p[1])
            print(f"  largest margin drift: {worst:.3g} of its bound (item {i})")
            same &= worst <= 1.0
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the records here, not to snapshot.json")
    parser.add_argument("--seed", type=int, default=SEED, help=f"corpus seed (default {SEED})")
    parser.add_argument("--full", action="store_true", help="every item of each pool")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two record files")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.out is None and (args.full or args.seed != SEED):
        parser.error(f"snapshot.json holds the seed-{SEED} prefixes; give --out")
    prefixes = PREFIXES
    if args.full:
        pools = load_corpus().WORKLOADS
        prefixes = tuple((w, pools[w].pool) for w, _ in PREFIXES)
    path = args.out or SNAPSHOT
    write(path, args.seed, prefixes, with_stdout=args.out is not None)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

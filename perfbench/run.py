"""Verdict benchmark for witworld: how long each verdict takes, and whether
it is true and conclusive.

Usage (from the repository root):

    python3 perfbench/run.py --workload qubit-pair --seed 1 --seconds 40 --trace 0

Workloads (see ``corpus.py``): ``qubit-pair`` (Python API on Q2*Q2),
``restart-search`` (Python API, quantum factors beyond a qubit pair, at the
default 500 restarts) and ``steering-cli`` (``witworld.cli.main`` in
process with ``--json``, on files written at set-up).

Every timed run is a closed loop: one caller sends one verdict at a time
and the next only after the previous returned, at the library's default
``SearchConfig()``.  Inputs come from ``--seed``; each verdict is checked
against its input's label after the timed phase.

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` replays a fixed prefix of the corpus in alternating
untraced and traced passes, the latter with the per-layer hooks of
``tracer.py``, and reports the per-layer metrics and the tracing
overhead; spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (seed, search defaults, versions, BLAS, CPU count,
sample counts).  A checkout without ``src/witworld`` exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "sound_share": "ratio",
    "conclusive_share": "ratio",
    "peak_rss_mb": "MB",
}

_TRACE_EXTRAS = (
    ("trace.untraced_verdict_ms", "ms"),
    ("trace.traced_verdict_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.absent_layers", "count"),
)


def per_layer_metrics() -> list:
    """Every metric of a traced run, in report order, with its unit."""
    import tracer as tracing

    return tracing.metric_names() + list(_TRACE_EXTRAS)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _blas_info() -> dict:
    """BLAS library, version and thread count as loaded in this process."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def run_record(workload: str, seed: int) -> dict:
    import numpy as np

    import witworld
    from witworld.compose import SearchConfig

    cfg = SearchConfig()
    record = {
        "workload": workload,
        "seed": seed,
        "search_config": {"grid": cfg.grid, "restarts": cfg.restarts, "tol": cfg.tol},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
    }
    kernels = getattr(witworld, "_kernels", None)
    if kernels is not None and hasattr(kernels, "BACKEND"):
        record["kernels_backend"] = kernels.BACKEND
    return record


def _call(item):
    try:
        return item.call()
    except (Exception, SystemExit) as exc:  # a failed verdict, not a failed run
        import corpus

        return corpus.CallFailed(exc)


def judge_all(items, outcomes) -> tuple:
    """(failed count, conclusive flag per outcome, first errors) over
    outcomes of the cycled items."""
    n = len(items)
    failed = 0
    conclusive, errors = [], []
    for i, out in enumerate(outcomes):
        item = items[i % n]
        sound, concl = item.judge(out)
        failed += not sound
        conclusive.append(concl)
        if not sound and len(errors) < 5:
            detail = getattr(out, "error", None) or repr(out)[:300]
            errors.append(f"item {i % n} ({item.kind}): {detail}")
    return failed, conclusive, errors


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, workdir: str) -> tuple:
    """Seconds from a fresh interpreter to its first checked verdict, per repeat."""
    script = os.path.join(HERE, "first_verdict.py")
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, script, workload, str(seed), workdir],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        err = ""
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ok" or proc.returncode != 0:
            failed += 1
            print(f"setup probe failed: {line!r} {err.strip()[-500:]}", file=sys.stderr)
    return times, failed


def timed_loop(items, seconds: float) -> tuple:
    """Closed loop over ``items`` (cycled) for ``seconds``, and at least two
    verdicts; returns latencies, outcomes and the wall time of the loop."""
    n = len(items)
    latencies, outcomes = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        out = _call(items[i % n])
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outcomes.append(out)
        i += 1
        if t1 >= deadline and i >= 2:
            return latencies, outcomes, t1 - start


def byte_identity_checks(items) -> tuple:
    """Run the first ``--json`` argv of each verb twice; outputs must match."""
    import corpus

    seen, attempted, failed = set(), 0, 0
    for item in items:
        if not item.argv or item.argv[0] in seen:
            continue
        seen.add(item.argv[0])
        attempted += 1
        try:
            first, second = corpus.run_cli(item.argv), corpus.run_cli(item.argv)
        except (Exception, SystemExit) as exc:
            print(f"byte-identity check raised on {item.argv}: {exc}", file=sys.stderr)
            failed += 1
            continue
        if first != second:
            print(f"--json output differs between two calls of {item.argv}", file=sys.stderr)
            failed += 1
    return attempted, failed


def end_to_end(items, workload, seconds: float, seed: int, workdir: str) -> tuple:
    setup_times, setup_failed = measure_setup(workload.name, seed, workdir)
    for item in items[:workload.warmup]:
        _call(item)
    latencies, outcomes, wall = timed_loop(items, seconds)
    failed, conclusive, errors = judge_all(items, outcomes)
    checks, checks_failed = byte_identity_checks(items)
    n = len(latencies)
    attempted = n + len(setup_times) + checks
    failed_total = failed + setup_failed + checks_failed
    p90 = statistics.quantiles(latencies, n=10)[8]
    # Over whole repetitions of the schedule, so the share does not depend
    # on where the deadline cut the mix.
    cycle = len(workload.schedule)
    whole = conclusive[:n - n % cycle] or conclusive
    values = {
        "setup_s": statistics.median(setup_times),
        "verdicts_per_s": n / wall,
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        "verdict_p90_ms": p90 * 1e3,
        "sound_share": 1.0 - failed_total / attempted,
        "conclusive_share": sum(whole) / len(whole),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "verdicts": n,
        "beyond_p90": sum(1 for t in latencies if t > p90),
        "distinct_inputs": min(n, len(items)),
        "conclusive_share_over": len(whole),
        "setup_repeats": len(setup_times),
        "byte_identity_checks": checks,
        "timed_failed": failed,
        "errors": errors,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    return {"correct": failed_total == 0, "attempted": attempted, "failed": failed_total,
            "metrics": metrics}, samples


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _pass(items, tracer=None, offset=0) -> tuple:
    """One pass over ``items``; returns per-verdict seconds and outcomes."""
    times, outcomes = [], []
    for j, item in enumerate(items):
        if tracer is not None:
            tracer.begin_verdict(offset + j)
        t0 = time.perf_counter()
        out = _call(item)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_verdict()
        times.append(t1 - t0)
        outcomes.append(out)
    return times, outcomes


def traced(items, workload, seconds: float, spans_path: str) -> tuple:
    """Alternating untraced and traced passes over the fixed trace prefix.

    One untimed pass warms the caches; then pairs of passes alternate
    which side runs first, so a slow phase of the machine does not land on
    one side only.  Times are medians over passes; counters come from the
    first traced pass and must repeat exactly in every other one.
    """
    import tracer as tracing

    prefix = items[:workload.trace_items]
    _pass(prefix)
    tally = {"failed": 0, "attempted": 0, "errors": []}
    untraced_ms, traced_ms = [], []
    pass_totals, pass_self, pass_counts = [], [], []
    tracer = tracing.Tracer()

    def judged(outcomes):
        f, _, errs = judge_all(prefix, outcomes)
        tally["failed"] += f
        tally["attempted"] += len(prefix)
        tally["errors"] += errs

    def untraced_pass():
        times, outcomes = _pass(prefix)
        untraced_ms.append(sum(times) * 1e3)
        judged(outcomes)

    def traced_pass():
        first_span = len(tracer.spans)
        before = dict(tracer.counts)
        tracer.install()
        try:
            times, outcomes = _pass(prefix, tracer, offset=len(traced_ms) * len(prefix))
        finally:
            tracer.uninstall()
        traced_ms.append(sum(times) * 1e3)
        totals, selfs = tracer.layer_times(first_span)
        pass_totals.append(totals)
        pass_self.append(selfs)
        pass_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()
                            if v != before.get(k, 0)})
        judged(outcomes)

    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    # At least two pairs; then another only if it fits before the deadline.
    while len(traced_ms) < 2 or time.perf_counter() + pair_s <= deadline:
        t0 = time.perf_counter()
        first, second = ((untraced_pass, traced_pass) if len(traced_ms) % 2 == 0
                         else (traced_pass, untraced_pass))
        first()
        second()
        pair_s = time.perf_counter() - t0
    tracer.write(spans_path)

    counters_repeat = all(c == pass_counts[0] for c in pass_counts[1:])
    if not counters_repeat:
        print("deterministic counters differ between traced passes", file=sys.stderr)
    untraced_verdict = statistics.median(untraced_ms) / len(prefix)
    traced_verdict = statistics.median(traced_ms) / len(prefix)
    absent = sorted(set(tracer.absent))

    metrics = {}
    for name, unit in tracing.metric_names():
        layer, _, stat = name.rpartition(".")
        if stat == "ms":
            value = statistics.median(t.get(layer, 0.0) for t in pass_totals)
        elif stat == "self_ms":
            value = statistics.median(s.get(layer, 0.0) for s in pass_self)
        else:
            value = pass_counts[0].get(name, 0)
        metrics[name] = _metric(value, unit)
    extras = (untraced_verdict, traced_verdict, traced_verdict - untraced_verdict,
              len(absent))
    for (name, unit), value in zip(_TRACE_EXTRAS, extras):
        metrics[name] = _metric(value, unit)
    samples = {
        "trace_items": len(prefix),
        "passes": len(traced_ms),
        "counters_repeat": counters_repeat,
        "absent_layers": absent,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "errors": tally["errors"][:5],
    }
    return {"correct": tally["failed"] == 0 and counters_repeat,
            "attempted": tally["attempted"], "failed": tally["failed"],
            "metrics": metrics}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="witworld verdict benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "witworld", "__init__.py")):
        print(f"witworld sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import corpus

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(corpus.WORKLOADS)}")
    workload = corpus.WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.trace:
            items = corpus.build(workload.name, args.seed, workload.trace_items, workdir)
            spans = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.jsonl")
            result, samples = traced(items, workload, args.seconds, spans)
        else:
            items = corpus.build(workload.name, args.seed, workload.pool, workdir)
            result, samples = end_to_end(items, workload, args.seconds, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(workload.name, args.seed)
    record.update(trace=args.trace, seconds=args.seconds, samples=samples)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

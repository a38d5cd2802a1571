"""Tests of the benchmark itself: corpus, labels, hooks.

Run from the repository root: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import witworld  # noqa: E402
import witworld.compose  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402


def _fingerprint(items):
    out = []
    for item in items:
        if item.argv:
            files = [Path(a).read_bytes() for a in item.argv if os.path.isfile(a)]
            argv = [os.path.basename(a) for a in item.argv]
            out.append((item.kind, tuple(argv), tuple(files)))
        else:
            out.append((item.kind, np.asarray(item.data).tobytes()))
    return out


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_identical_for_the_same_seed(workload, tmp_path):
    n = 2 * len(corpus.WORKLOADS[workload].schedule)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = _fingerprint(corpus.build(workload, 5, n, str(first)))
    b = _fingerprint(corpus.build(workload, 5, n, str(second)))
    assert a == b
    other = tmp_path / "c"
    other.mkdir()
    assert _fingerprint(corpus.build(workload, 6, n, str(other))) != a
    # a prefix does not depend on how many items were built
    assert _fingerprint(corpus.build(workload, 5, 3, str(other))) == a[:3]


def _verdict(item):
    outcome = item.call()
    return outcome, item.judge(outcome)


def test_builtin_witness_states_are_accepted():
    for name in ("swap2", "singlet-pt"):
        v = witworld.builtin_state(name)
        mat = witworld.vector_to_hermitian_tensor(v)
        verdict, judged = _verdict(corpus._state_item(name, mat, (2, 2), corpus.VALID))
        assert verdict.status == "accepted"
        assert judged == (True, True)


def test_planted_qubit_pair_witness_is_rejected():
    rng = np.random.default_rng(3)
    item = corpus._qp_planted(rng, 0, None)
    verdict, judged = _verdict(item)
    assert verdict.status == "rejected"
    assert judged == (True, True)


def test_planted_witness_is_negative_on_its_product_vector():
    w = corpus._planted_witness(np.random.default_rng(4), 2, 3)
    replay = np.random.default_rng(4)
    corpus._decomposable_witness(replay, 2, 3)
    ab = np.kron(corpus._haar_vector(replay, 2), corpus._haar_vector(replay, 3))
    assert np.real(np.conj(ab) @ w @ ab) <= -0.02 + 1e-12


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_canonical_witness_is_block_positive_and_not_psd(dims):
    w = corpus._canonical_witness(np.random.default_rng(5), *dims)
    assert np.linalg.eigvalsh(w)[0] < 0
    rng = np.random.default_rng(6)
    for _ in range(500):
        ab = np.kron(corpus._haar_vector(rng, dims[0]), corpus._haar_vector(rng, dims[1]))
        assert np.real(np.conj(ab) @ w @ ab) >= -1e-12


def test_pr_box_lhs_is_infeasible(tmp_path):
    items = corpus.build("steering-cli", 1, len(corpus.WORKLOADS["steering-cli"].schedule),
                         str(tmp_path))
    pr = next(i for i in items if i.argv[:2] == ("assemblage", "pr-box"))
    (code, text), judged = _verdict(pr)
    assert json.loads(text)["lhs"]["status"] == "infeasible"
    assert judged == (True, True)


def test_judge_flags_contradictions_and_failures():
    assert corpus.judge_status(corpus.INVALID, "accepted") == (False, False)
    assert corpus.judge_status(corpus.VALID, "rejected") == (False, False)
    assert corpus.judge_status(corpus.VALID, "inconclusive-accept") == (True, False)
    assert corpus.judge_status(corpus.INVALID, "inconclusive-accept") == (True, False)
    item = corpus._qp_witness(np.random.default_rng(0), 0, None)
    assert item.judge(corpus.CallFailed(RuntimeError("boom"))) == (False, False)
    cli = corpus._sc_prbox(np.random.default_rng(0), 0, None)
    assert cli.judge((65, "")) == (False, False)
    assert cli.judge((0, "not json")) == (False, False)


def _snapshot():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "witworld" or name.startswith("witworld."))
        for attr, value in list(vars(mod).items())
        if callable(value)
    }


def _small(workload, trace_items):
    return dataclasses.replace(corpus.WORKLOADS[workload], trace_items=trace_items)


def test_hooks_are_gone_after_the_traced_run(tmp_path):
    workload = _small("steering-cli", 20)
    items = corpus.build(workload.name, 2, workload.trace_items, str(tmp_path))
    before = _snapshot()
    result, samples = run.traced(items, workload, 0.0, str(tmp_path / "spans.jsonl"))
    assert _snapshot() == before
    assert result["correct"] and samples["absent_layers"] == []
    assert result["metrics"]["cli.lhs.ms"]["value"] > 0
    assert result["metrics"]["lp.solve.calls"]["value"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["layer"] for s in spans} >= {"verdict", "cli.lhs", "lp.solve"}


def test_counters_repeat_between_runs_of_the_same_seed(tmp_path):
    workload = _small("qubit-pair", 16)
    counts = []
    for _ in range(2):
        items = corpus.build(workload.name, 9, workload.trace_items)
        result, samples = run.traced(items, workload, 0.0, str(tmp_path / "spans.jsonl"))
        assert samples["counters_repeat"]
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["compose.scan.calls"] > 0
    assert counts[0]["compose.scan.points"] == (
        counts[0]["compose.scan.calls"] * witworld.compose._sphere_grid(180)[1].shape[0])


def test_missing_scan_kernel_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(witworld.compose, "_kernels")
    workload = _small("qubit-pair", 8)
    items = corpus.build(workload.name, 1, workload.trace_items)
    result, samples = run.traced(items, workload, 0.0, str(tmp_path / "spans.jsonl"))
    assert "compose.scan" in samples["absent_layers"]
    assert result["metrics"]["compose.scan.calls"]["value"] == 0
    assert result["metrics"]["trace.absent_layers"]["value"] >= 1


def test_run_refuses_a_checkout_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "qubit-pair", "--seed", "1", "--seconds", "1"]) != 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.per_layer_metrics()]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)

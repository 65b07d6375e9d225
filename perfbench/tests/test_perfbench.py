"""Tests of the benchmark itself, at small input sizes.

    python3 -m pytest perfbench/tests -q

They run the real program in child processes, so they need the sources in
`src/` beside the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {"push_n": 300, "cluster_blocks": (200, 200, 200), "cluster_seeds": 2}


def deadline():
    return time.monotonic() + run.RUN_DEADLINE_S


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "SIZES", SMALL)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_the_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(small, spec, tmp_path, workload, trace):
    _, result = run.measure(workload, 3, 0.0, trace, tmp_path, deadline())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 1)


def test_memory_pass_yields_to_the_deadline(small, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MEMORY_PASS_FACTOR", 1e9)
    info, result = run.measure("cluster-sbm-1200", 3, 0.0, 1, tmp_path, deadline())
    assert info["memory_pass"].startswith("skipped")
    assert result["attempted"] == 2 and result["correct"]
    assert result["metrics"]["engine.diffuse.peak_mb"]["value"] == 0.0


def test_missing_span_fails_loudly(small, monkeypatch, tmp_path):
    prepare, expected = run.WORKLOADS["cluster-sbm-1200"]
    monkeypatch.setitem(run.WORKLOADS, "cluster-sbm-1200",
                        (prepare, expected + ("engine.renamed_away",)))
    with pytest.raises(run.BenchError, match="engine.renamed_away"):
        run.measure("cluster-sbm-1200", 3, 0.0, 1, tmp_path, deadline())


def test_tracer_refuses_a_vanished_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(tracer, "TRACED",
                        (("graph", "no_such_function", "graph.gone"),) + tracer.TRACED)
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.Tracer(memory=False).install()


def test_span_parent_self_time_and_peak():
    t = tracer.Tracer(memory=True)
    inner = t.wrap("inner", lambda: np.ones(2 ** 20).sum())
    outer = t.wrap("outer", lambda: (inner(), time.sleep(0.05)))
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    spans = {s["name"]: s for s in t.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    assert 0.04 < spans["outer"]["self_s"] < spans["outer"]["wall_s"]
    assert spans["inner"]["peak_mb"] >= 7.9  # 2**20 float64


def test_judge_fails_an_operation_whose_bytes_differ():
    ok = checks.GateResult(True, "")
    use = run.Usage(1.0, 1.0, 1.0)
    ops = [run.Op(use, ok, "a"), run.Op(use, ok, "a"), run.Op(use, ok, "b")]
    assert run.judge(ops) == 1
    assert not ops[2].gate.ok


# ---- inputs -------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed(tmp_path):
    digests = []
    for seed in (1, 1, 2):
        path = tmp_path / f"sbm-{len(digests)}.txt"
        inputs.write_edge_list(path, inputs.sbm_input(300, seed))
        digests.append(inputs.sha256_file(path))
    assert digests[0] == digests[1] != digests[2]


# ---- gates reject corrupted outputs ------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real, passing program output per workload at small size."""
    made = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SIZES", SMALL)
        for name, (prepare, _) in run.WORKLOADS.items():
            work = tmp_path_factory.mktemp(name)
            prep = prepare(5, work)
            op = run.run_op(prep, work, 0, "", deadline())
            assert op.gate.ok, op.gate.detail
            made[name] = (prep, work / "op0")
    return made


def corrupt(outputs, tmp_path, workload, edit, name="out.txt"):
    prep, src = outputs[workload]
    dst = tmp_path / "corrupt"
    shutil.copytree(src, dst)
    lines = (dst / name).read_text().splitlines(keepends=True)
    (dst / name).write_text("".join(edit(lines)))
    try:
        return prep.gate(dst)
    except ValueError as exc:  # run_op counts an unreadable output as failed
        return checks.GateResult(False, str(exc))


def test_outputs_pass_unchanged(outputs, tmp_path):
    for workload in outputs:
        name = "report.csv" if workload.startswith("cluster") else "out.txt"
        assert corrupt(outputs, tmp_path / workload, workload, lambda x: x, name).ok


@pytest.mark.parametrize("workload,edit", [
    ("push-sbm-1k", lambda lines: lines[::2]),
    ("push-sbm-1k", lambda lines: lines + lines[:1]),
    ("push-sbm-1k", lambda lines: lines + ["1 2\n"]),
])
def test_gate_rejects_corrupted_edges(outputs, tmp_path, workload, edit):
    assert not corrupt(outputs, tmp_path, workload, edit).ok


def _bump_raw(delta):
    def edit(lines):
        seed, raw, gdc, diff = lines[1].strip().split(",")
        lines[1] = f"{seed},{float(raw) + delta!r},{gdc},{diff}\n"
        return lines
    return edit


@pytest.mark.parametrize("edit", [_bump_raw(-0.01), _bump_raw(0.01),
                                  lambda lines: lines[:-1]])
def test_cluster_gate_rejects_changed_raw_arm(outputs, tmp_path, edit):
    assert not corrupt(outputs, tmp_path, "cluster-sbm-1200", edit, "report.csv").ok


# ---- contract -----------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "push-sbm-1k", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

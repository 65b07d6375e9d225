"""The names the benchmark tracer wraps must keep resolving.

perfbench/tracer.py wraps functions by name in the graphdiffusion module
namespaces, and a traced benchmark run fails when a span never fires. These
checks catch a rename or a move that would silently zero a layer without
running the benchmark, and one small traced run per workload checks that
every span of that workload fires. They read perfbench/ and write nothing
there.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from graphdiffusion.cluster import eval_gdc_clustering, run_gdc_for_clustering
from graphdiffusion.sparsify import diffuse_graph

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(short, attr):
    obj = importlib.import_module(f"graphdiffusion.{short}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves(tracer):
    assert tracer.TRACED
    for short, attr, name in tracer.TRACED:
        assert callable(resolve(short, attr)), name


def test_pipeline_core_calls_traced_names(tracer):
    # the tracer only sees calls made through a traced module's namespace
    assert diffuse_graph.__module__ in tracer.MODULES
    traced = {(short, attr) for short, attr, _ in tracer.TRACED}
    for short, attr in (("graph", "transition_matrix"), ("engine", "diffuse"),
                        ("sparsify", "epsilon_for_degree"),
                        ("sparsify", "sparsify"), ("sparsify", "postprocess")):
        assert (short, attr) in traced
        assert diffuse_graph.__globals__[attr] is resolve(short, attr), attr
    # the clustering arm reaches diffuse_graph through the traced
    # run_gdc_for_clustering
    assert ("cluster", "run_gdc_for_clustering") in traced
    assert (eval_gdc_clustering.__globals__["run_gdc_for_clustering"]
            is resolve("cluster", "run_gdc_for_clustering"))
    assert (run_gdc_for_clustering.__globals__["diffuse_graph"]
            is resolve("sparsify", "diffuse_graph"))


# each workload at a size that runs in about a second
SMALL_SIZES = {"push-sbm-1k": dict(push_n=200),
               "cluster-sbm-1200": dict(cluster_blocks=(60, 60, 60),
                                        cluster_seeds=1)}


@pytest.mark.parametrize("workload", list(SMALL_SIZES))
def test_traced_workload_fires_every_span(tmp_path, monkeypatch, workload):
    # run.py pins these to one thread when imported; monkeypatch restores them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports checks and inputs
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    run.SIZES = dict(run.SIZES, **SMALL_SIZES[workload])
    prepare, spans = run.WORKLOADS[workload]
    argv = prepare(1, tmp_path).argv(tmp_path / "out.txt")
    if "--push" in argv:
        # the exact route also runs the tracer's residual check on
        # diffuse's positional (T, spec)
        i = argv.index("--push")
        argv[i:i + 2] = ["--exact"]
    job = {"trace": "timing", "spans_out": str(tmp_path / "spans.json"),
           "argv": argv}
    (tmp_path / "job.json").write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "run",
                           str(tmp_path / "job.json")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fired = {s["name"] for s in json.loads((tmp_path / "spans.json").read_text())}
    assert set(spans) <= fired
    assert (tmp_path / "out.txt").exists()

"""Pipeline benchmark for graphdiffusion.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Inputs are generated from --seed by
the benchmark's own code; the program runs from `src/` in a fresh
interpreter per operation, with every BLAS pool at one thread. Each
operation's output is checked against a reference the benchmark computes
itself; a failed check counts as a failed operation.

With --trace 0 the last stdout line carries the end-to-end metrics: the
median wall time and peak RSS of the operations run in --seconds (at least
one), the median wall time of the fresh-interpreter set-up probes run
between them (at least SETUP_SAMPLES), and the quality metrics. With
--trace 1 it carries the per-layer metrics of a timing-traced operation and
a memory-traced one, plus the wall time of an untraced one and the tracing
overhead against it. The line before it describes the environment and the
inputs' sha256.

Workloads (sizes fit a 2-core machine; see README.md for the reasons):
  push-sbm-1k       transform --transition rw --push 1e-4 --sparsify degree:64 --threads 1
  cluster-sbm-1200  eval-cluster, 3 x 400 nodes, 3 seeds
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread, set before numpy is imported so the references obey it
# too: with `--threads 1` as well, every operation runs on a single core.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
# tracemalloc makes the push operation ~2x slower; the margin covers the
# push probe and the gates that follow the memory pass
MEMORY_PASS_FACTOR = 3.0
MEMORY_PASS_MARGIN_S = 20.0
PUSH_PROBE_COLUMNS = 64
PUSH_EPS = 1e-4
# Input sizes of the workloads; the benchmark's own tests shrink them.
SIZES = {"push_n": 1000, "cluster_blocks": (400, 400, 400), "cluster_seeds": 3}


# ---- workloads ----------------------------------------------------------

@dataclass
class Prepared:
    """A workload instantiated for one seed: its inputs, argv and gate."""

    argv: object                   # output path -> CLI argv
    gate: object                   # operation dir -> GateResult
    output_name: str
    input_sha256: dict
    quality: tuple = ()            # end-to-end quality metrics that apply


def _write_input(work, name, edges):
    path = work / name
    inputs.write_edge_list(path, edges)
    return path, {name: inputs.sha256_file(path)}


def prepare_push(seed, work):
    edges = inputs.sbm_input(SIZES["push_n"], seed)
    path, sha = _write_input(work, "sbm.txt", edges)
    ref = checks.push_degree_reference(edges)
    return Prepared(
        output_name="out.txt", input_sha256=sha,
        argv=lambda out: ["transform", "--input", str(path), "--output", str(out),
                          "--transition", "rw", "--push", repr(PUSH_EPS),
                          "--sparsify", "degree:64", "--threads", "1"],
        gate=lambda d: checks.gate_push(d / "out.txt", ref),
        quality=("edge_recall",))


def prepare_cluster(seed, work):
    sizes, seeds = SIZES["cluster_blocks"], SIZES["cluster_seeds"]
    first = seed * seeds  # eval-cluster draws graphs first .. first+seeds-1
    raw_ref = checks.raw_arm_reference(first, seeds, sizes)
    blocks = ",".join(str(b) for b in sizes)
    return Prepared(
        output_name="report.csv",
        input_sha256={"eval-cluster-seeds": f"{first}..{first + seeds - 1}"},
        argv=lambda out: ["eval-cluster", "--blocks", blocks,
                          "--p-in", repr(checks.CLUSTER_P_IN),
                          "--p-out", repr(checks.CLUSTER_P_OUT),
                          "--seeds", str(seeds), "--seed", str(first),
                          "--unweighted", "--threads", "1", "--output", str(out)],
        gate=lambda d: checks.gate_cluster(d / "report.csv", raw_ref),
        quality=("gdc_accuracy",))


# Each workload: how to prepare it, and the spans its traced run must fire.
# exact-sbm-2k (transform --exact on N=2000, the Richardson path) was
# dropped as unsteady: on the shared 2-core machine this was built on, its
# memory-bound solve took 15 s to 34 s per operation as neighbours' load
# changed, with ten-seed spreads up to 0.54. io-edges (the library
# load_edge_list -> largest_connected_component -> save_edge_list round trip)
# was dropped so that two workloads get runs long enough to be steady within
# the time a comparison of two commits may take; push-sbm-1k still runs
# every graph I/O function.
WORKLOADS = {
    "push-sbm-1k": (prepare_push, (
        "cli.run_pipeline", "graph.load_edge_list", "graph.read_edge_list",
        "graph.load_graph", "graph.from_scipy", "graph.largest_connected_component",
        "graph.transition_matrix", "engine.diffuse", "sparsify.epsilon_for_degree",
        "sparsify.sparsify", "sparsify.postprocess", "graph.save_edge_list")),
    "cluster-sbm-1200": (prepare_cluster, (
        "cli.eval_cluster", "cluster.generate_sbm", "graph.largest_connected_component",
        "cluster.spectral_embedding", "cluster.kmeans", "cluster.run_gdc_for_clustering",
        "graph.transition_matrix", "engine.diffuse", "sparsify.sparsify",
        "sparsify.postprocess", "graph.from_scipy")),
}


# ---- processes ----------------------------------------------------------

class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GRAPHDIFFUSION_THREADS")}
    return env  # the BLAS thread counts were set in os.environ at import


@dataclass
class Usage:
    wall_s: float
    cpu_s: float   # user + system time of the process and its threads
    rss_mb: float  # peak resident set size


def spawn(args, deadline):
    """Run child.py with args and return its Usage."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline reached")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=sys.stderr.fileno())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


@dataclass
class Op:
    usage: Usage
    gate: checks.GateResult
    digest: str
    spans: list | None = None


def run_op(prep, work, index, trace, deadline):
    """One operation in a fresh process; trace is '', 'timing' or 'memory'."""
    d = work / f"op{index}"
    d.mkdir()
    out = d / prep.output_name
    job = {"trace": trace, "spans_out": str(d / "spans.json"), "argv": prep.argv(out)}
    (d / "job.json").write_text(json.dumps(job))
    usage = spawn(["run", str(d / "job.json")], deadline)
    try:
        gate = prep.gate(d)
    except (OSError, ValueError) as exc:
        gate = checks.GateResult(False, f"unreadable output: {exc}")
    spans = json.loads((d / "spans.json").read_text()) if trace else None
    return Op(usage, gate, inputs.sha256_file(out), spans)


def setup_probe(prep, deadline):
    return spawn(["setup", *prep.argv("unused-output")], deadline).wall_s


# ---- metrics ------------------------------------------------------------

LAYER_TIMES = ("graph.read_edge_list", "graph.load_graph",
               "graph.largest_connected_component", "graph.save_edge_list",
               "graph.from_scipy", "graph.transition_matrix", "engine.diffuse",
               "sparsify.sparsify", "sparsify.epsilon_for_degree",
               "sparsify.postprocess", "cluster.spectral_embedding", "cluster.kmeans",
               "cluster.generate_sbm", "cluster.run_gdc_for_clustering")


def layer_metrics(spans, memory_spans, plain_wall, traced_wall, probe):
    """Per-layer metrics from a timing-traced and a memory-traced operation
    (memory_spans may be empty). A layer that does not run on the workload
    reports 0."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    peaks = [s["peak_mb"] for s in memory_spans if s["name"] == "engine.diffuse"]

    def total(name, key="wall_s"):
        return float(sum(s[key] for s in by.get(name, [])))

    m = {f"{name}.s": (total(name), "s") for name in LAYER_TIMES}
    m["graph.from_scipy.calls"] = (len(by.get("graph.from_scipy", [])), "count")
    m["graph.save_edge_list.mb_written"] = (total("graph.save_edge_list", "bytes_out")
                                            / 1e6, "MB")
    diff = by.get("engine.diffuse", [])
    diff_nnz = sum(s["nnz_out"] or 0 for s in diff)
    m["engine.diffuse.peak_mb"] = (max(peaks, default=0.0), "MB")
    m["engine.diffuse.nnz_out"] = (diff_nnz, "count")
    wall = total("engine.diffuse")
    m["engine.diffuse.cpu_util"] = (total("engine.diffuse", "cpu_s") / wall
                                    if wall else 0.0, "ratio")
    kept = sum(s["nnz_out"] or 0 for s in by.get("sparsify.sparsify", []))
    m["sparsify.keep_ratio"] = (kept / diff_nnz if diff_nnz else 0.0, "ratio")
    resid = [s["residual_max"] for s in diff if s.get("residual_max") is not None]
    m["engine.exact.residual_max"] = (max(resid, default=0.0), "mass")
    m["cli.run_pipeline.self_s"] = (total("cli.run_pipeline", "self_s"), "s")
    m["cli.eval_cluster.self_s"] = (total("cli.eval_cluster", "self_s"), "s")
    m["op.wall_s"] = (plain_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    small = probe[0]["columns"] if probe else []
    big = probe[1]["columns"] if probe else []

    def med(cols, key):
        return float(statistics.median(c[key] for c in cols)) if cols else 0.0

    def mean(cols, key):
        return float(statistics.fmean(c[key] for c in cols)) if cols else 0.0

    m["engine.push.ms_per_column"] = (med(small, "ms"), "ms")
    m["engine.push.ms_per_column_ratio_4x"] = (
        med(big, "ms") / med(small, "ms") if small else 0.0, "ratio")
    m["engine.push.support_mean"] = (mean(small, "support"), "count")
    m["engine.push.touched_mean"] = (mean(small, "touched"), "count")
    m["engine.push.drain_rounds_mean"] = (mean(small, "rounds_drain"), "count")
    m["engine.push.residual_l1_max"] = (
        max((c["residual_l1"] for c in small), default=0.0), "mass")
    return m


def push_probe(seed, work, deadline):
    """diffuse_push_ppr on a seeded column sample, at the workload's N and 4N."""
    n = SIZES["push_n"]
    paths = []
    for size in (n, 4 * n):
        path, _ = _write_input(work, f"probe-{size}.txt", inputs.sbm_input(size, seed))
        paths.append(str(path))
    rng = np.random.default_rng([seed, 99])
    cols = sorted(rng.choice(n, PUSH_PROBE_COLUMNS, replace=False).tolist())
    job = {"graphs": paths, "columns": cols, "alpha": checks.ALPHA, "eps": PUSH_EPS,
           "result_out": str(work / "probe.json")}
    (work / "probe-job.json").write_text(json.dumps(job))
    spawn(["probe-push", str(work / "probe-job.json")], deadline)
    return json.loads((work / "probe.json").read_text())


# ---- environment --------------------------------------------------------

def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"nproc": NPROC, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    info["caches"] = {}
    for line in _command_output(["getconf", "-a"]).splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            info["caches"][key] = value.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = h.hexdigest()
    info["commit"] = ((ROOT / ".git").exists() and _command_output(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"]).strip()) or "unknown"
    return info


def _command_output(argv):
    """stdout of a small informational command, or '' if it cannot run."""
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return ""


# ---- driver -------------------------------------------------------------

def judge(ops):
    """Number of failed operations. Beyond its own gate, an operation fails
    when its output bytes differ from the first operation's: the same code
    on the same input must write the same file (criterion 9)."""
    for op in ops:
        if op.digest != ops[0].digest:
            op.gate = checks.GateResult(False, "output differs from operation 0")
    return sum(not op.gate.ok for op in ops)


def measure(name, seed, seconds, trace, work, deadline):
    prepare, expected = WORKLOADS[name]
    prep = prepare(seed, work)
    info = {"workload": name, "seed": seed, "trace": trace,
            "inputs_sha256": prep.input_sha256, "env": environment()}

    if trace:
        ops = [run_op(prep, work, i, mode, deadline)
               for i, mode in enumerate(("", "timing"))]
        # The memory pass feeds only engine.diffuse.peak_mb, so it runs only
        # if tracemalloc's slowdown still fits before the deadline; when
        # skipped, the metric reads 0.
        budget = deadline - time.monotonic() - MEMORY_PASS_MARGIN_S
        if budget > MEMORY_PASS_FACTOR * ops[1].usage.wall_s:
            ops.append(run_op(prep, work, 2, "memory", deadline))
        else:
            info["memory_pass"] = "skipped: too little time before the deadline"
        traced = {mode: op.spans for mode, op in zip(("timing", "memory"), ops[1:])}
        for spans in traced.values():
            missing = [s for s in expected if s not in {sp["name"] for sp in spans}]
            if missing:
                raise BenchError(f"expected spans never fired: {', '.join(missing)}")
        probe = push_probe(seed, work, deadline) if name == "push-sbm-1k" else None
        metrics = layer_metrics(traced["timing"], traced.get("memory", []),
                                ops[0].usage.wall_s, ops[1].usage.wall_s, probe)
        info["spans"] = traced
    else:
        setup_probe(prep, deadline)  # warm the bytecode and page caches
        # set-up probes alternate with operations, so that both sample the
        # machine's speed over the same stretch of time
        ops, setup = [], []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            setup.append(setup_probe(prep, deadline))
            ops.append(run_op(prep, work, len(ops), "", deadline))
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_probe(prep, deadline))
        metrics = {
            "wall_s": (statistics.median(o.usage.wall_s for o in ops), "s"),
            "peak_rss_mb": (statistics.median(o.usage.rss_mb for o in ops), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        for key in ("edge_recall", "gdc_accuracy"):
            # a quality metric that has no meaning on a workload reads 1; an
            # unreadable output has no value and reads 0
            vals = [o.gate.values[key] for o in ops if key in o.gate.values]
            if key not in prep.quality:
                vals = [1.0]
            metrics[key] = (statistics.median(vals) if vals else 0.0, "ratio")
        info["setup_samples_s"] = setup

    failed = judge(ops)
    info["operations"] = [{"wall_s": o.usage.wall_s, "cpu_s": o.usage.cpu_s,
                           "peak_rss_mb": o.usage.rss_mb,
                           "ok": o.gate.ok, "gate": o.gate.detail,
                           "output_sha256": o.digest} for o in ops]
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return info, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if ns.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "graphdiffusion" / "cli.py").is_file():
        print(f"perfbench: no graphdiffusion sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{ns.workload}-{ns.seed}-{os.getpid()}"
    work.mkdir()
    try:
        info, result = measure(ns.workload, ns.seed, ns.seconds, ns.trace, work,
                               deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = out_dir / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1))
    info.pop("spans", None)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py setup [argv ...]
    python3 perfbench/child.py run JOB.json
    python3 perfbench/child.py probe-push JOB.json

`setup` imports the program and parses the workload's arguments, then exits
where the program would first read its input. `run` executes a workload
exactly as a user would, through `graphdiffusion.cli.main`, optionally with
the tracer installed. `probe-push` times
`diffuse_push_ppr` on a sample of columns. The program is imported from the
`src/` directory beside this benchmark and nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program(module):
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import importlib
    mod = importlib.import_module(module)
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"graphdiffusion imported from {mod.__file__}, not {SRC}")
    return mod


def setup(argv):
    _import_program("graphdiffusion.cli").build_parser().parse_args(argv)


def run(job):
    cli = _import_program("graphdiffusion.cli")  # before the tracer imports modules
    tracer = None
    if job["trace"]:
        import tracemalloc
        from tracer import Tracer  # this script's directory is on sys.path
        tracer = Tracer(memory=job["trace"] == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()
    rc = cli.main(job["argv"])
    if rc:
        raise SystemExit(rc)
    if tracer is not None:
        tracemalloc.stop()  # a no-op when it was never started
        with open(job["spans_out"], "w") as fh:
            json.dump(tracer.spans, fh)


def probe_push(job):
    gd = _import_program("graphdiffusion")
    out = []
    for path in job["graphs"]:
        g = gd.load_edge_list(path)
        t = gd.transition_matrix(g, gd.RandomWalk())
        gd.diffuse_push_ppr(t, job["alpha"], job["eps"], job["columns"][0])
        cols = []
        for j in job["columns"]:
            t0 = time.perf_counter()
            c = gd.diffuse_push_ppr(t, job["alpha"], job["eps"], j)
            cols.append({"ms": (time.perf_counter() - t0) * 1e3, "support": c.support,
                         "touched": c.touched, "rounds_drain": c.rounds_drain,
                         "residual_l1": c.residual_l1})
        out.append({"n": g.n, "columns": cols})
    with open(job["result_out"], "w") as fh:
        json.dump(out, fh)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1:])
        return 0
    with open(argv[1]) as fh:
        job = json.load(fh)
    if mode == "run":
        run(job)
    elif mode == "probe-push":
        probe_push(job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

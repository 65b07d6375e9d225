"""The names the benchmark tracer wraps must keep resolving.

perfbench/tracer.py wraps functions by name in the graphdiffusion module
namespaces, and a traced benchmark run fails when a span never fires. These
checks catch a rename or a move that would silently zero a layer without
running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from graphdiffusion.sparsify import diffuse_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

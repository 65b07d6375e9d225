import re

import numpy as np
import pytest

from graphdiffusion import (Heat, InputError, Ppr, Push, RandomWalk, SbmSpec, Series,
                            SymmetricSelfLoop, TargetDegree, Threshold, TopK,
                            closed_form_xi, diffuse_push_ppr, epsilon_for_degree,
                            load_graph, theta, transition_matrix, truncation_k)
from graphdiffusion.engine import worker_count
from graphdiffusion.errors import check_number

NAN = float("nan")


def path3_walk():
    return transition_matrix(load_graph([(0, 1), (1, 2)]), RandomWalk())


# a plain numeric argument of a public function is checked for its type
# and range before it is used
@pytest.mark.parametrize("call,message", [
    (lambda: closed_form_xi(Ppr(0.8), 1.5),
     "coefficient index must be an integer, got 1.5"),
    (lambda: theta(Ppr(), NAN), "weight index must be an integer, got nan"),
    (lambda: worker_count(1.5), "thread count must be an integer, got 1.5"),
    (lambda: worker_count(True), "thread count must be an integer, got True"),
    (lambda: worker_count(NAN), "thread count must be an integer, got nan"),
    (lambda: truncation_k(Ppr(), "x"),
     "tail tolerance must be a finite number, got 'x'"),
    (lambda: epsilon_for_degree(np.eye(3), "8"),
     "average degree must be a finite number, got '8'"),
    (lambda: epsilon_for_degree(np.eye(3), True),
     "average degree must be a finite number, got True"),
    (lambda: diffuse_push_ppr(path3_walk(), 0.15, 1e-4, 1.5),
     "column must be an integer, got 1.5")],
    ids=["xi-index-fraction", "theta-index-nan", "threads-fraction", "threads-bool",
         "threads-nan", "tail-tol-text", "degree-text", "degree-bool",
         "push-column-fraction"])
def test_numeric_argument_is_checked(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# the message of every value class at a bad value; an integer field
# refuses NaN for its type, a real one for its range
@pytest.mark.parametrize("make,message", [
    (lambda: Ppr(1.0), "teleport probability must be in (0, 1), got 1.0"),
    (lambda: Ppr(NAN), "teleport probability must be in (0, 1), got nan"),
    (lambda: Ppr(np.float64(1.5)), "teleport probability must be in (0, 1), got 1.5"),
    (lambda: Heat(0.0), "diffusion time must be positive, got 0.0"),
    (lambda: Heat(NAN), "diffusion time must be positive, got nan"),
    (lambda: Series(-1), "series order must be non-negative, got -1"),
    (lambda: Series(NAN), "series order must be an integer, got nan"),
    (lambda: Push(0.0), "push tolerance must be positive, got 0.0"),
    (lambda: Push(NAN), "push tolerance must be positive, got nan"),
    (lambda: SymmetricSelfLoop(-1.0), "self-loop weight must be positive, got -1.0"),
    (lambda: SymmetricSelfLoop(NAN), "self-loop weight must be positive, got nan"),
    (lambda: TopK(0), "top-k count must be positive, got 0"),
    (lambda: TopK(np.int64(-2)), "top-k count must be positive, got -2"),
    (lambda: TopK(NAN), "top-k count must be an integer, got nan"),
    (lambda: Threshold(-0.5), "threshold must be positive, got -0.5"),
    (lambda: Threshold(NAN), "threshold must be positive, got nan"),
    (lambda: TargetDegree(0), "target degree must be positive, got 0"),
    (lambda: TargetDegree(NAN), "target degree must be positive, got nan"),
    (lambda: SbmSpec((5, 5), 0.5, 0.1, seed=-1), "seed must be non-negative, got -1"),
    (lambda: SbmSpec((5, 5), 0.5, 0.1, seed=NAN), "seed must be an integer, got nan")],
    ids=["ppr", "ppr-nan", "ppr-numpy", "heat", "heat-nan", "series", "series-nan",
         "push", "push-nan", "symloop", "symloop-nan", "topk", "topk-numpy",
         "topk-nan", "threshold", "threshold-nan", "degree", "degree-nan",
         "seed", "seed-nan"])
def test_value_class_message(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("must,good,bad", [
    ("positive", [1e-300, 3], [0, -1.0, NAN]),
    ("non-negative", [0, 0.0, 2], [-1, -1e-300, NAN]),
    ("in (0, 1)", [1e-300, 0.5, np.float32(0.25)], [0.0, 1, NAN])])
def test_check_number_ranges(must, good, bad):
    for value in good:
        check_number(value, "x", must=must)
    for value in bad:
        with pytest.raises(InputError, match=f"^x must be {re.escape(must)}, got "):
            check_number(value, "x", must=must)

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphdiffusion import engine
from graphdiffusion import (DiffusionMatrix, Exact, Gdc, Heat, InputError,
                            PostProcess, Ppr, Push, RandomWalk, Series, TargetDegree,
                            Threshold, TopK, TransitionMatrix, diffuse,
                            diffuse_graph, eigen,
                            epsilon_for_degree, load_graph, postprocess,
                            sparsify, transition_matrix)
from graphdiffusion.cluster import SbmSpec, generate_sbm
from graphdiffusion.graph import (Symmetric, SymmetricSelfLoop,
                                  largest_connected_component)


def as_diffusion(arr):
    return DiffusionMatrix(np.asarray(arr, dtype=float), "exact")


def single_column(vals):
    """3x3 matrix whose column 0 is vals; other columns tiny and distinct."""
    m = np.full((3, 3), 1e-6)
    m[:, 0] = vals
    return as_diffusion(m)


class TestSparsify:
    def test_topk_keeps_heaviest(self):
        g = sparsify(single_column([0.5, 0.3, 0.2]), TopK(2))
        rows, vals = g.column(0)
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_allclose(vals, [0.5, 0.3])

    def test_threshold_keeps_at_or_above(self):
        g = sparsify(single_column([0.5, 0.3, 0.2]), Threshold(0.25))
        rows, vals = g.column(0)
        np.testing.assert_allclose(vals, [0.5, 0.3])
        # an entry exactly at the threshold survives
        g = sparsify(single_column([0.5, 0.3, 0.2]), Threshold(0.3))
        _, vals = g.column(0)
        np.testing.assert_allclose(vals, [0.5, 0.3])

    def test_topk_tie_break_smaller_row(self):
        g = sparsify(single_column([0.5, 0.5, 0.5]), TopK(2))
        rows, _ = g.column(0)
        np.testing.assert_array_equal(rows, [0, 1])

    def test_target_degree_example(self):
        s = as_diffusion([[0.5, 0.4, 0.45],
                          [0.3, 0.35, 0.3],
                          [0.2, 0.25, 0.25]])
        # oracle: sort all nine entries, the 6th largest is 0.3
        flat = np.sort(np.asarray(s.data).ravel())[::-1]
        assert flat[5] == pytest.approx(0.3)
        assert epsilon_for_degree(s, 2.0) == pytest.approx(0.3)
        g = sparsify(s, TargetDegree(2.0))
        assert g.nnz == 6

    def test_topk_bounds(self):
        s = single_column([0.5, 0.3, 0.2])
        g = sparsify(s, TopK(4))
        assert_same_graph(g, sparsify(s, TopK(3)))
        rows, vals = g.column(0)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(vals, [0.5, 0.3, 0.2])

    def test_threshold_above_max_is_empty(self):
        with pytest.raises(InputError, match="empty"):
            sparsify(single_column([0.5, 0.3, 0.2]), Threshold(0.9))

    def test_negative_entries_rejected(self):
        with pytest.raises(InputError):
            sparsify(as_diffusion(-np.eye(3)), TopK(1))

    @pytest.mark.parametrize("make,arg,message", [
        (TopK, 2.5, "top-k count must be an integer, got 2.5"),
        (TopK, True, "top-k count must be an integer, got True"),
        (TopK, "4", "top-k count must be an integer, got '4'"),
        (Threshold, "0.1", "threshold must be a finite number, got '0.1'"),
        (Threshold, np.inf, "threshold must be a finite number, got inf"),
        (Threshold, False, "threshold must be a finite number, got False"),
        (TargetDegree, "8", "target degree must be a finite number, got '8'"),
        (TargetDegree, np.inf, "target degree must be a finite number, got inf"),
        (TopK, 0, "top-k count must be positive, got 0"),
        (TargetDegree, 0.0, "target degree must be positive, got 0.0")])
    def test_rule_checks_its_argument(self, make, arg, message):
        with pytest.raises(InputError) as info:
            make(arg)
        assert str(info.value) == message

    def test_rule_accepts_numpy_scalars(self):
        # degree:D resolves to a Threshold at a numpy float
        assert TopK(np.int64(2)).k == 2
        assert Threshold(np.float64(0.1)).eps == 0.1
        with pytest.raises(InputError, match="threshold must be positive"):
            Threshold(np.nan)

    def test_topk_per_column_count(self):
        rng = np.random.default_rng(0)
        s = as_diffusion(rng.random((20, 20)))
        g = sparsify(s, TopK(5))
        counts = np.diff(g.col_ptr)
        np.testing.assert_array_equal(counts, 5)

    def test_topk_short_columns_keep_all(self):
        m = np.zeros((4, 4))
        m[0, 0] = 0.5
        m[:, 1] = 0.2
        m[0, 2] = 0.1
        m[1, 2] = 0.1
        m[2, 3] = 0.9
        g = sparsify(as_diffusion(m), TopK(3))
        np.testing.assert_array_equal(np.diff(g.col_ptr), [1, 3, 2, 1])

    def test_threshold_idempotent(self):
        rng = np.random.default_rng(1)
        s = as_diffusion(rng.random((15, 15)))
        once = sparsify(s, Threshold(0.4))
        twice = sparsify(as_diffusion(once.to_scipy().toarray()), Threshold(0.4))
        assert once.same_structure(twice)

    def test_threshold_monotone(self):
        rng = np.random.default_rng(2)
        s = as_diffusion(rng.random((15, 15)))
        loose = sparsify(s, Threshold(0.2))
        tight = sparsify(s, Threshold(0.5))
        loose_set = set(zip(loose.row_idx, loose.column_of_entry()))
        tight_set = set(zip(tight.row_idx, tight.column_of_entry()))
        assert tight_set <= loose_set


def assert_same_graph(g, ref):
    assert g.n == ref.n
    np.testing.assert_array_equal(g.col_ptr, ref.col_ptr)
    np.testing.assert_array_equal(g.row_idx, ref.row_idx)
    np.testing.assert_array_equal(g.values, ref.values)


def topk_by_column_loop(arr, k):
    """Reference top-k: one stable lexsort per column, heaviest first and
    the smaller row winning a tie, over the positive entries only."""
    mat = sp.csc_matrix(np.maximum(arr, 0.0))
    n = mat.shape[0]
    rows_out, cols_out, vals_out = [], [], []
    for j in range(n):
        lo, hi = mat.indptr[j], mat.indptr[j + 1]
        rows, vals = mat.indices[lo:hi], mat.data[lo:hi]
        if vals.size > k:
            order = np.lexsort((rows, -vals))[:k]
            rows, vals = rows[order], vals[order]
        rows_out.append(rows)
        cols_out.append(np.full(rows.size, j))
        vals_out.append(vals)
    out = sp.csc_matrix((np.concatenate(vals_out),
                         (np.concatenate(rows_out), np.concatenate(cols_out))),
                        shape=(n, n))
    out.sort_indices()
    return out


def topk_cases():
    rng = np.random.default_rng(12)
    ties = rng.choice([0.0, 0.25, 0.5], size=(37, 37))
    short = rng.random((40, 40)) * (rng.random((40, 40)) < 0.1)
    tiny = np.finfo(float).smallest_subnormal
    subnormal = rng.choice([0.0, tiny, 3 * tiny, 1e-310, 0.2], size=(30, 30))
    dense = rng.random((25, 25))
    return [("ties", ties, 1), ("ties", ties, 5), ("ties", ties, 37),
            ("short", short, 3), ("short", short, 40),
            ("subnormal", subnormal, 2), ("subnormal", subnormal, 12),
            ("dense", dense, 1), ("dense", dense, 7), ("dense", dense, 25)]


class TestTopKAgainstColumnLoop:
    # many narrow blocks, and one block wider than the whole matrix
    @pytest.mark.parametrize("block", [8, 256])
    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    @pytest.mark.parametrize("name,arr,k", topk_cases(),
                             ids=[f"{c[0]}-k{c[2]}" for c in topk_cases()])
    def test_identical_to_loop(self, name, arr, k, layout, block, monkeypatch):
        monkeypatch.setattr(engine, "PUSH_BLOCK", block)
        data = {"dense": arr, "fortran": np.asfortranarray(arr)}[layout]
        g = sparsify(DiffusionMatrix(data, "exact"), TopK(k))
        ref = topk_by_column_loop(arr, k)
        np.testing.assert_array_equal(g.col_ptr, ref.indptr)
        np.testing.assert_array_equal(g.row_idx, ref.indices)
        np.testing.assert_array_equal(g.values, ref.data)

    # k at or past N keeps every positive entry of each column
    @pytest.mark.parametrize("factor,extra", [(1, 0), (1, 1), (10, 0)])
    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_count_past_n_saturates(self, layout, factor, extra):
        rng = np.random.default_rng(13)
        arr = rng.choice([0.0, 0.25, 0.5], size=(30, 30)) * (rng.random((30, 30)) < 0.7)
        data = {"dense": arr, "fortran": np.asfortranarray(arr)}[layout]
        s = DiffusionMatrix(data, "exact")
        g = sparsify(s, TopK(factor * 30 + extra))
        assert_same_graph(g, sparsify(s, TopK(30)))
        assert g.nnz == np.count_nonzero(arr)

    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_negative_entries_rejected(self, layout):
        # at N = PUSH_BLOCK + 5 the entry sits in the partial last block
        for n in (5, engine.PUSH_BLOCK + 5):
            m = np.full((n, n), 0.1)
            m[3, n - 1] = -1e-9
            data = np.asfortranarray(m) if layout == "fortran" else m
            with pytest.raises(InputError, match="non-negative"):
                sparsify(DiffusionMatrix(data, "exact"), TopK(2))

    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_negative_noise_dropped(self, layout):
        m = np.full((5, 5), 0.1)
        # the 3rd largest entry of column 4 is noise below zero
        m[:, 4] = [-1e-13, 0.3, -1e-13, -2e-13, 0.0]
        data = np.asfortranarray(m) if layout == "fortran" else m
        g = sparsify(DiffusionMatrix(data, "exact"), TopK(3))
        rows, vals = g.column(4)
        np.testing.assert_array_equal(rows, [1])
        np.testing.assert_array_equal(vals, [0.3])


def clean_entries(arr):
    """CSC copy of arr with tiny negative noise clamped: the input of the
    former threshold path."""
    mat = sp.csc_matrix(arr, copy=True)
    if mat.data.size and mat.data.min() < -1e-12:
        raise InputError("diffusion entries must be non-negative")
    mat.data = np.maximum(mat.data, 0.0)
    mat.eliminate_zeros()
    return mat


def threshold_by_copy(arr, eps):
    """Reference threshold: the former whole-matrix copy and mask."""
    mat = clean_entries(arr)
    if mat.data.size == 0 or eps > mat.data.max():
        raise InputError("the sparsified graph would be empty")
    mat.data[mat.data < eps] = 0.0
    mat.eliminate_zeros()
    return mat


def epsilon_by_copy(arr, avg_degree):
    """Reference order statistic over the clamped stored entries."""
    vals = clean_entries(arr).data
    m = int(np.ceil(arr.shape[0] * avg_degree))
    if m >= vals.size:
        return float(vals.min())
    return float(np.partition(vals, vals.size - m)[vals.size - m])


def threshold_cases():
    """(name, arr, thresholds, degrees); each case's last threshold
    exceeds its largest entry."""
    rng = np.random.default_rng(21)
    noise = rng.random((30, 30)) * (rng.random((30, 30)) < 0.4)
    noise[rng.random((30, 30)) < 0.2] = -5e-13
    noise[0, :] = -0.0
    tiny = np.finfo(float).smallest_subnormal
    subnormal = rng.choice([0.0, tiny, 3 * tiny, 1e-310, 0.2], size=(30, 30))
    at_eps = rng.choice([0.0, 0.1, 0.25, 0.5], size=(37, 37))
    dense = rng.random((25, 25))
    return [("noise", noise, (1e-3, 0.5, 1.5), (0.5, 3.0, 30.0)),
            ("subnormal", subnormal, (tiny, 3 * tiny, 0.2, 0.3), (1.0, 30.0)),
            ("at_eps", at_eps, (0.1, 0.25, 0.5, 0.75), (1.0, 5.5, 37.0)),
            ("dense", dense, (0.3, 0.999, 2.0), (1.0, 7.0, 25.0))]


class TestThresholdAgainstCopy:
    # many narrow blocks, and one block wider than the whole matrix
    @pytest.mark.parametrize("block", [8, 256])
    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    @pytest.mark.parametrize("name,arr,epss,degrees", threshold_cases(),
                             ids=[c[0] for c in threshold_cases()])
    def test_identical_to_copy(self, name, arr, epss, degrees, layout, block,
                               monkeypatch):
        monkeypatch.setattr(engine, "PUSH_BLOCK", block)
        data = {"dense": arr, "fortran": np.asfortranarray(arr)}[layout]
        s = DiffusionMatrix(data, "exact")
        for eps in epss[:-1]:
            g = sparsify(s, Threshold(eps))
            ref = threshold_by_copy(arr, eps)
            np.testing.assert_array_equal(g.col_ptr, ref.indptr)
            np.testing.assert_array_equal(g.row_idx, ref.indices)
            np.testing.assert_array_equal(g.values, ref.data)
        with pytest.raises(InputError, match="empty"):
            threshold_by_copy(arr, epss[-1])
        with pytest.raises(InputError, match="empty"):
            sparsify(s, Threshold(epss[-1]))
        for d in degrees:
            eps = epsilon_by_copy(arr, d)
            assert epsilon_for_degree(s, d) == eps
            g = sparsify(s, TargetDegree(d))
            ref = threshold_by_copy(arr, eps)
            np.testing.assert_array_equal(g.col_ptr, ref.indptr)
            np.testing.assert_array_equal(g.row_idx, ref.indices)
            np.testing.assert_array_equal(g.values, ref.data)

    @pytest.mark.parametrize("rule", [Threshold(0.05), TargetDegree(2.0)])
    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_negative_entries_rejected(self, rule, layout):
        # at N = PUSH_BLOCK + 5 the entry sits in the partial last block;
        # TargetDegree meets it in epsilon_for_degree, Threshold in the masker
        for n in (5, engine.PUSH_BLOCK + 5):
            m = np.full((n, n), 0.1)
            m[3, n - 1] = -1e-9
            data = np.asfortranarray(m) if layout == "fortran" else m
            with pytest.raises(InputError, match="non-negative"):
                sparsify(DiffusionMatrix(data, "exact"), rule)


@pytest.fixture(scope="module")
def exact_s_1200():
    g, _ = generate_sbm(SbmSpec((400, 400, 400), 0.05, 0.01, seed=3))
    g, _ = largest_connected_component(g)
    return diffuse(transition_matrix(g, Symmetric()), Ppr(0.15)).data


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("rule,buffers", [("eps", 0.25), ("degree", 2.2)])
def test_sparsify_peak_memory(exact_s_1200, order, rule, buffers):
    # dense input is read in place: a threshold needs block temporaries and
    # the result, which at 16 entries per column is 0.03 N^2 * 8 bytes and
    # takes about three times that to assemble and validate; degree:D adds
    # the running top N * D entries and one block's candidates
    s = DiffusionMatrix(np.array(exact_s_1200, order=order), "exact")
    rule = (Threshold(epsilon_for_degree(s, 16.0)) if rule == "eps"
            else TargetDegree(16.0))
    n = s.data.shape[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = sparsify(s, rule)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.nnz >= 16 * n
    assert peak <= buffers * n ** 2 * 8


@pytest.fixture(scope="module")
def sbm_1000():
    g, _ = generate_sbm(SbmSpec((334, 333, 333), 0.07, 0.005, seed=1))
    g, _ = largest_connected_component(g)
    assert g.n == 1000
    return g


@pytest.mark.parametrize("parts,message", [
    ({"route": Push(1e-4)}, "random-walk transition"),
    ({"transition": RandomWalk(), "spec": Heat(3.0), "route": Push(1e-4)},
     r"Series\(k\) or Exact\(\)"),
    ({"route": "push"}, "unknown diffusion route 'push'"),
    ({"rule": "topk:64"}, "unknown sparsify rule 'topk:64'"),
    ({"post": "sym"}, "postprocessing must be a PostProcess, got 'sym'")],
    ids=["symloop-push", "heat-push", "route-name", "rule-text", "post-text"])
def test_gdc_checks_its_parts_when_built(parts, message):
    # an operator no route runs fails before any graph is read
    with pytest.raises(InputError, match=message):
        Gdc(**parts)


PIPELINE_ROUTES = {"exact": Exact(), "push": Push(1e-4), "series": Series(20)}


@pytest.mark.parametrize("route", list(PIPELINE_ROUTES))
@pytest.mark.parametrize("rule", [TopK(64), TargetDegree(64.0)],
                         ids=["topk", "degree"])
def test_pipeline_peak_memory(sbm_1000, route, rule):
    # the dense S is the pipeline's one N x N array: the masks run on the
    # producer's PUSH_BLOCK columns, and S is gone before postprocess
    gdc = Gdc(RandomWalk(), Ppr(0.15), PIPELINE_ROUTES[route], rule,
              PostProcess(symmetrize=True, renorm=RandomWalk()))
    # the first call, untraced, imports anything the route loads lazily
    first = diffuse_graph(sbm_1000, gdc, threads=1)
    t = transition_matrix(sbm_1000, RandomWalk())
    assert first[1] == diffuse(t, Ppr(0.15), gdc.route, threads=1).certificate
    n = sbm_1000.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = diffuse_graph(sbm_1000, gdc, threads=1)[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert isinstance(result, TransitionMatrix)
    assert peak <= 1.5 * n ** 2 * 8


def test_postprocess_peak_memory(sbm_1000):
    # the push benchmark's argv: rw push at 1e-4, degree:64, symmetrize and
    # rw renorm; the input graph holds about 0.1 N^2 * 8 bytes
    t = transition_matrix(sbm_1000, RandomWalk())
    g = sparsify(diffuse(t, Ppr(0.15), Push(1e-4), threads=1),
                 TargetDegree(64.0))
    post = PostProcess(symmetrize=True, renorm=RandomWalk())
    postprocess(g, post)  # warm-up, untraced
    n = sbm_1000.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = postprocess(g, post)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert isinstance(result, TransitionMatrix)
    assert peak <= 0.5 * n ** 2 * 8


class TestEpsilonForDegree:
    def test_degenerate_ties(self):
        s = as_diffusion(np.full((4, 4), 0.1))
        eps = epsilon_for_degree(s, 2.0)
        assert eps == pytest.approx(0.1)
        g = sparsify(s, Threshold(eps))
        assert g.nnz == 16

    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_order_statistic_matches_sort_oracle(self, layout):
        rng = np.random.default_rng(3)
        arr = rng.random((12, 12))
        s = as_diffusion(np.asfortranarray(arr) if layout == "fortran" else arr)
        for d in (1.0, 2.5, 5.0):
            m = int(np.ceil(12 * d))
            oracle = np.sort(arr.ravel())[::-1][m - 1]
            assert epsilon_for_degree(s, d) == pytest.approx(oracle)

    def test_full_degree_keeps_everything(self):
        rng = np.random.default_rng(4)
        s = as_diffusion(rng.random((8, 8)) + 0.01)
        eps = epsilon_for_degree(s, 8.0)
        assert eps == pytest.approx(np.asarray(s.data).min())
        g = sparsify(s, Threshold(eps))
        assert g.nnz == 64

    # a degree of N or more, up to one whose N * D overflows a float
    @pytest.mark.parametrize("avg_degree", [8.0, 16.0, 1e308])
    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_degree_past_n_saturates(self, layout, avg_degree):
        rng = np.random.default_rng(6)
        arr = rng.random((8, 8)) * (rng.random((8, 8)) < 0.6)
        s = as_diffusion(np.asfortranarray(arr) if layout == "fortran" else arr)
        assert epsilon_for_degree(s, avg_degree) == arr[arr > 0].min()
        g = sparsify(s, TargetDegree(avg_degree))
        assert_same_graph(g, sparsify(s, TargetDegree(8.0)))
        assert g.nnz == np.count_nonzero(arr)

    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_no_positive_entry(self, layout):
        arr = np.zeros((4, 4))
        arr[1, 2] = -1e-13
        s = as_diffusion(np.asfortranarray(arr) if layout == "fortran" else arr)
        with pytest.raises(InputError, match="no positive entry"):
            epsilon_for_degree(s, 2.0)

    def test_range_validation(self):
        s = as_diffusion(np.eye(3))
        with pytest.raises(InputError):
            epsilon_for_degree(s, 0.0)
        # a degree above N gives the smallest positive entry
        assert epsilon_for_degree(s, 4.0) == 1.0

    # many narrow blocks, and one block wider than the whole matrix
    @pytest.mark.parametrize("block", [3, 256])
    @pytest.mark.parametrize("layout", ["dense", "fortran"])
    def test_matches_sorted_positives(self, layout, block, monkeypatch):
        # ties, zeros, tiny negative noise and, at the larger degrees,
        # fewer positive entries than ceil(N * avg_degree)
        monkeypatch.setattr(engine, "PUSH_BLOCK", block)
        rng = np.random.default_rng(8)
        arr = rng.choice([0.0, 0.0, 0.1, 0.25, 0.25, 0.5], size=(20, 20))
        arr[rng.random((20, 20)) < 0.05] = -1e-13
        arr[:, 7] = rng.random(20)
        s = as_diffusion(np.asfortranarray(arr) if layout == "fortran" else arr)
        positives = np.sort(arr[arr > 0])[::-1]
        for d in (0.05, 1.0, 3.3, 7.0, 12.0, 20.0):
            m = int(np.ceil(20 * d))
            oracle = positives[min(m, positives.size) - 1]
            assert epsilon_for_degree(s, d) == oracle

    def test_peak_memory_below_a_copy_of_the_positives(self):
        # only the running top ceil(N * D) and one block's candidates are
        # held, never a copy of every positive entry
        n = 1000
        s = as_diffusion(np.random.default_rng(9).random((n, n)) + 1e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            epsilon_for_degree(s, 64.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * n ** 2 * 8


class TestPostprocess:
    def test_symmetrize_averages(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.4
        m[1, 0] = 0.2
        g = sparsify(as_diffusion(m + 1e-9 * np.eye(3) * 0), Threshold(0.1))
        out = postprocess(g, PostProcess(symmetrize=True))
        arr = out.to_scipy().toarray()
        assert arr[0, 1] == pytest.approx(0.3)
        assert arr[1, 0] == pytest.approx(0.3)
        assert not out.directed

    def test_unweighted_sets_ones(self):
        rng = np.random.default_rng(5)
        g = sparsify(as_diffusion(rng.random((6, 6))), TopK(2))
        out = postprocess(g, PostProcess(unweighted=True))
        assert set(np.unique(out.values)) == {1.0}

    def test_random_walk_renorm_column_stochastic(self):
        rng = np.random.default_rng(6)
        g = sparsify(as_diffusion(rng.random((10, 10)) + 0.05), TopK(4))
        out = postprocess(g, PostProcess(symmetrize=True, renorm=RandomWalk()))
        assert isinstance(out, TransitionMatrix)
        sums = np.asarray(out.matrix.sum(axis=0)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_symmetric_renorm_formula(self):
        rng = np.random.default_rng(7)
        g = sparsify(as_diffusion(rng.random((8, 8)) + 0.05), TopK(3))
        out = postprocess(g, PostProcess(symmetrize=True, renorm=Symmetric()))
        m = out.source.to_scipy().toarray()
        d = m.sum(axis=1)
        oracle = m / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(out.matrix.toarray(), oracle, atol=1e-14)
        assert np.abs(out.matrix.toarray() - out.matrix.toarray().T).max() == 0.0

    @pytest.mark.parametrize("renorm,kind", [("rw", RandomWalk()),
                                             ("sym", Symmetric())])
    def test_undirected_renorm_is_transition_matrix(self, renorm, kind):
        rng = np.random.default_rng(8)
        g = sparsify(as_diffusion(rng.random((40, 40)) + 0.05), TopK(12))
        out = postprocess(g, PostProcess(symmetrize=True, renorm=kind))
        ref = transition_matrix(out.source, kind)
        assert out.kind == kind
        assert np.array_equal(out.degrees, ref.degrees)
        assert (out.matrix != ref.matrix).nnz == 0
        # the kind is the one spelling; its former name is refused
        with pytest.raises(InputError, match=f"unknown renormalization '{renorm}'"):
            PostProcess(symmetrize=True, renorm=renorm)

    def test_directed_sym_renorm_uses_in_degrees(self):
        rng = np.random.default_rng(9)
        g = sparsify(as_diffusion(rng.random((30, 30)) + 0.05), TopK(5))
        out = postprocess(g, PostProcess(renorm=Symmetric()))
        assert out.source.directed
        m = out.source.to_scipy().toarray()
        d_row = m.sum(axis=1)
        assert np.abs(d_row - m.sum(axis=0)).max() > 0.1
        np.testing.assert_allclose(out.degrees, d_row, rtol=1e-14)
        oracle = m / np.sqrt(np.outer(d_row, d_row))
        np.testing.assert_allclose(out.matrix.toarray(), oracle, rtol=1e-14)

    def test_isolated_node_fails_loudly(self):
        m = np.zeros((3, 3))
        m[0, 0] = 0.5
        m[1, 0] = 0.4
        m[0, 1] = 0.4
        m[1, 1] = 0.5
        m[2, 2] = 0.05
        g = sparsify(as_diffusion(m), Threshold(0.3))
        # node 2 keeps neither its column (degree) nor its row (in-degree)
        for renorm in (RandomWalk(), Symmetric()):
            with pytest.raises(InputError, match="node 2 has degree 0"):
                postprocess(g, PostProcess(renorm=renorm))

    def test_renorm_checked_when_built(self):
        with pytest.raises(InputError, match="unknown renormalization 'bogus'"):
            PostProcess(renorm="bogus")
        # the two normalizations only, as kinds; None is no renormalization
        for renorm in ("none", SymmetricSelfLoop(), RandomWalk):
            with pytest.raises(InputError, match="unknown renormalization") as err:
                PostProcess(renorm=renorm)
            assert repr(renorm) in str(err.value)

    def test_unweight_happens_before_symmetrize(self):
        # one-sided edge: unweight to 1, then average with the missing side
        m = np.zeros((2, 2))
        m[1, 0] = 0.4
        m[0, 0] = 0.5
        m[1, 1] = 0.5
        g = sparsify(as_diffusion(m), Threshold(0.3))
        out = postprocess(g, PostProcess(symmetrize=True, unweighted=True))
        arr = out.to_scipy().toarray()
        assert arr[1, 0] == pytest.approx(0.5)
        assert arr[0, 1] == pytest.approx(0.5)


class TestPerturbationBound:
    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_sorted_eigenvalue_deviation(self, eps):
        g, _ = generate_sbm(SbmSpec((50, 50), 0.08, 0.02, seed=11))
        g, _ = largest_connected_component(g)
        t = transition_matrix(g, Symmetric())
        s = diffuse(t, Ppr(0.1))
        n = g.n
        sparse_graph = sparsify(s, Threshold(eps))
        dense = s.data
        trimmed = sparse_graph.to_scipy().toarray()
        before = np.sort(np.linalg.eigvalsh(dense))
        after = np.sort(np.linalg.eigvalsh(trimmed))
        assert np.sqrt(np.sum((after - before) ** 2)) <= n * eps

import importlib
import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from graphdiffusion import (ComputeError, Gdc, InputError, PostProcess,
                            RandomWalk, SbmSpec, Series, SparseGraph, Symmetric,
                            TopK, eval_gdc_clustering,
                            generate_sbm, hungarian_accuracy, kmeans,
                            largest_connected_component, load_graph,
                            spectral_cluster, transition_matrix)
from graphdiffusion import cluster as cluster_mod
from graphdiffusion.cluster import _lloyd, run_gdc_for_clustering, spectral_embedding


def generate_sbm_reference(spec):
    """generate_sbm with the COO build of its own that graph_from_edges replaced."""
    rng = np.random.default_rng(spec.seed)
    sizes = spec.block_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = spec.n
    labels = np.concatenate([np.full(b, i) for i, b in enumerate(sizes)])
    src_parts, dst_parts = [], []
    for bi in range(len(sizes)):
        for bj in range(bi, len(sizes)):
            p = spec.p_in if bi == bj else spec.p_out
            if p == 0.0:
                continue
            draws = rng.random((sizes[bi], sizes[bj])) < p
            if bi == bj:
                draws = np.triu(draws, k=1)
            ii, jj = np.nonzero(draws)
            src_parts.append(ii + offsets[bi])
            dst_parts.append(jj + offsets[bj])
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    m = sp.csc_matrix((np.ones(src.size), (dst, src)), shape=(n, n))
    m = m.maximum(m.T)
    return SparseGraph.from_scipy(m, directed=False), labels


class TestSbm:
    @pytest.mark.parametrize("sizes,p_in,p_out,seed", [
        ((40, 60, 50), 0.2, 0.05, 3),
        ((30, 30), 0.3, 0.0, 4),          # no cross-block part
        ((1, 25, 1), 0.5, 0.1, 5),        # single-node blocks
        ((1,), 1.0, 0.0, 6),              # one node, no edge
    ])
    def test_matches_coo_build(self, sizes, p_in, p_out, seed):
        spec = SbmSpec(sizes, p_in, p_out, seed=seed)
        g, labels = generate_sbm(spec)
        ref, ref_labels = generate_sbm_reference(spec)
        assert g.same_structure(ref)
        np.testing.assert_array_equal(g.original_ids, ref.original_ids)
        np.testing.assert_array_equal(labels, ref_labels)

    def test_disjoint_triangles(self):
        g, labels = generate_sbm(SbmSpec((3, 3), 1.0, 0.0, seed=0))
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(g.degrees(), 2.0)
        arr = g.to_scipy().toarray()
        assert arr[:3, 3:].sum() == 0

    def test_invariant_validation(self):
        with pytest.raises(InputError):
            SbmSpec((5, 5), 0.1, 0.1, seed=0)
        with pytest.raises(InputError):
            SbmSpec((5, 5), 0.0, 0.0, seed=0)
        with pytest.raises(InputError):
            SbmSpec((5, 0), 0.5, 0.1, seed=0)
        # default_rng takes non-negative integers only
        for seed in (-1, 1.5, True):
            with pytest.raises(InputError, match="seed must be"):
                SbmSpec((5, 5), 0.5, 0.1, seed=seed)
        # a size is a positive integer, checked rather than truncated, and
        # the probabilities are numbers
        for sizes in ((2.5, 3), (True, 3)):
            with pytest.raises(InputError, match="block size must be an integer"):
                SbmSpec(sizes, 0.5, 0.1)
        with pytest.raises(InputError, match="p_in must be a finite number, got '0.5'"):
            SbmSpec((5, 5), "0.5", 0.1)
        spec = SbmSpec([np.int64(5), 5], 0.5, 0.1)
        assert spec.block_sizes == (5, 5)
        assert [type(b) for b in spec.block_sizes] == [int, int]

    def test_deterministic_given_seed(self):
        a, _ = generate_sbm(SbmSpec((40, 40), 0.2, 0.05, seed=7))
        b, _ = generate_sbm(SbmSpec((40, 40), 0.2, 0.05, seed=7))
        c, _ = generate_sbm(SbmSpec((40, 40), 0.2, 0.05, seed=8))
        assert a.same_structure(b)
        assert not a.same_structure(c)

    def test_within_block_edge_count_binomial_band(self):
        # two blocks of 100 at p_in=0.1: expected within-block edges
        # 0.1 * C(100,2) * 2 = 990; band is 3 sigma of the mean of 30 draws
        seeds = 30
        pairs = 2 * 99 * 100 // 2
        counts = []
        for i in range(seeds):
            g, labels = generate_sbm(SbmSpec((100, 100), 0.1, 0.01, seed=100 + i))
            arr = g.to_scipy().tocoo()
            same = labels[arr.row] == labels[arr.col]
            counts.append(int(same.sum()) // 2)
        mean = np.mean(counts)
        sigma_mean = np.sqrt(pairs * 0.1 * 0.9 / seeds)
        assert abs(mean - 990) <= 3 * sigma_mean


class TestSpectralCluster:
    def test_two_cliques_with_bridge(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        edges += [(0, 6)]
        g = load_graph(edges)
        labels = np.array([0] * 6 + [1] * 6)
        got = spectral_cluster(g, 2, seed=0)
        assert hungarian_accuracy(got, labels).accuracy == 1.0

    def test_complete_graph_is_structureless(self):
        n = 40
        g = load_graph([(i, j) for i in range(n) for j in range(i + 1, n)])
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        got = spectral_cluster(g, 2, seed=3)
        acc = hungarian_accuracy(got, labels).accuracy
        assert 0.5 <= acc <= 0.85

    def test_separated_planted_partition(self):
        # verified empirically: mean 0.998, min 0.99 over these 20 seeds
        accs = []
        for seed in range(20):
            g, labels = generate_sbm(SbmSpec((50, 50), 0.2, 0.02, seed=seed))
            lcc, im = largest_connected_component(g)
            got = spectral_cluster(lcc, 2, seed=seed)
            accs.append(hungarian_accuracy(got, labels[im >= 0]).accuracy)
        assert np.mean(accs) > 0.9

    def test_cluster_count_validated(self):
        g = load_graph([(0, 1), (1, 2)])
        with pytest.raises(InputError):
            spectral_cluster(g, 1, seed=0)

    def test_embedding_shape(self):
        g, _ = generate_sbm(SbmSpec((20, 20), 0.5, 0.1, seed=1))
        emb = spectral_embedding(g, 3)
        assert emb.shape == (40, 3)
        norms = np.linalg.norm(emb, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestSparseEmbedding:
    def sbm(self):
        g, _ = generate_sbm(SbmSpec((40, 40, 40), 0.3, 0.03, seed=5))
        return largest_connected_component(g)[0]

    def test_spans_dense_bottom_eigenspace(self):
        g = self.sbm()
        emb = spectral_embedding(g, 3)
        a = g.to_scipy().toarray()
        s = 1.0 / np.sqrt(a.sum(axis=0))
        lap = np.eye(g.n) - (s[:, None] * a) * s[None, :]
        vals, vecs = np.linalg.eigh((lap + lap.T) * 0.5)
        assert vals[3] - vals[2] > 0.1
        # rows of a basis V Q, for any orthogonal Q, have the norms of the
        # rows of V, so the Gram matrix of normalized rows is one per eigenspace
        ref = vecs[:, :3] / np.linalg.norm(vecs[:, :3], axis=1)[:, None]
        np.testing.assert_allclose(emb @ emb.T, ref @ ref.T, atol=1e-8)

    def test_repeated_calls_bit_identical(self):
        g = self.sbm()
        assert np.array_equal(spectral_embedding(g, 3), spectral_embedding(g, 3))

    def test_clusters_not_below_nodes(self):
        g = load_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(InputError, match="fewer clusters than nodes"):
            spectral_embedding(g, 4)
        assert spectral_embedding(g, 3).shape == (4, 3)

    def test_disjoint_cliques_are_perfect(self):
        edges = [(b + i, b + j) for b in (0, 8, 16)
                 for i in range(8) for j in range(i + 1, 8)]
        g = load_graph(edges)
        labels = np.repeat([0, 1, 2], 8)
        got = spectral_cluster(g, 3, seed=0)
        assert hungarian_accuracy(got, labels).accuracy == 1.0

    def test_operator_bit_symmetric_on_undirected_graph(self, monkeypatch):
        seen = []

        def recording(a, *args, **kwargs):
            seen.append(a)
            return eigsh(a, *args, **kwargs)
        monkeypatch.setattr(cluster_mod, "eigsh", recording)
        g = self.sbm()
        rng = np.random.default_rng(3)
        m = g.to_scipy()
        m.data = rng.uniform(0.1, 7.0, m.data.size)
        weighted = SparseGraph.from_scipy(m.maximum(m.T), directed=False)
        spectral_embedding(weighted, 3)
        (a,) = seen
        assert (a != a.T).nnz == 0

    def test_operator_is_symmetrized_transition_matrix(self, monkeypatch):
        seen = []

        def recording(a, *args, **kwargs):
            seen.append(a)
            return eigsh(a, *args, **kwargs)
        monkeypatch.setattr(cluster_mod, "eigsh", recording)
        g = self.sbm()
        rng = np.random.default_rng(4)
        m = g.to_scipy()
        m.data = rng.uniform(0.1, 7.0, m.data.size)
        weighted = SparseGraph.from_scipy(m, directed=True)
        spectral_embedding(weighted, 3)
        t = transition_matrix(weighted, Symmetric()).matrix
        (a,) = seen
        assert (a != (t + t.T) * 0.5).nnz == 0

    def test_isolated_node_named_when_disconnected_allowed(self):
        g = load_graph([(0, 1), (1, 2), (2, 0), (4, 5)], n_hint=6)
        with pytest.raises(InputError, match="node 3 has degree 0"):
            spectral_embedding(g, 2)

    def test_non_convergence_is_compute_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(1),
                                      np.zeros((1, 1)))
        monkeypatch.setattr(cluster_mod, "eigsh", stalled)
        g = self.sbm()
        with pytest.raises(ComputeError, match="1 of 3"):
            spectral_embedding(g, 3)


class TestKmeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(30, 2))
        b = rng.normal(5.0, 0.1, size=(30, 2))
        pts = np.vstack([a, b])
        labels = kmeans(pts, 2, seed=0)
        truth = np.array([0] * 30 + [1] * 30)
        assert hungarian_accuracy(labels, truth).accuracy == 1.0

    def test_identical_points_terminate(self):
        pts = np.ones((10, 3))
        labels = kmeans(pts, 2, seed=0)
        assert labels.shape == (10,)
        # every point sits in one center's cell
        assert len(np.unique(labels)) == 1

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        pts = rng.random((6, 2))
        labels = kmeans(pts, 6, seed=0)
        assert len(np.unique(labels)) == 6

    def test_k_above_n_rejected(self):
        with pytest.raises(InputError):
            kmeans(np.ones((3, 2)), 4, seed=0)

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        pts = rng.random((60, 2))
        centers = pts[rng.choice(60, size=4, replace=False)].copy()
        _, _, trace = _lloyd(pts, centers, 300)
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 3))
        a = kmeans(pts, 3, seed=9)
        b = kmeans(pts, 3, seed=9)
        np.testing.assert_array_equal(a, b)


class TestHungarian:
    def test_exact_match(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert hungarian_accuracy(labels, labels).accuracy == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=100)
        perm = np.array([2, 3, 0, 1])
        assert hungarian_accuracy(perm[labels], labels).accuracy == 1.0

    def test_relabeled_clusters_same_accuracy(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=60)
        assign = rng.integers(0, 3, size=60)
        base = hungarian_accuracy(assign, labels).accuracy
        perm = np.array([1, 2, 0])
        assert hungarian_accuracy(perm[assign], labels).accuracy == pytest.approx(base)

    def test_collapsed_assignment_on_balanced_classes(self):
        labels = np.array([0] * 50 + [1] * 50)
        assign = np.zeros(100, dtype=int)
        assert hungarian_accuracy(assign, labels).accuracy == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            hungarian_accuracy(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_matched_permutation_exposed(self):
        labels = np.array([0, 0, 1, 1])
        assign = np.array([1, 1, 0, 0])
        res = hungarian_accuracy(assign, labels)
        assert res.matched_permutation == {0: 1, 1: 0}

    def test_negative_ids_rejected(self):
        with pytest.raises(InputError, match="non-negative"):
            hungarian_accuracy([0, -1, 1], [0, 1, 1])
        with pytest.raises(InputError, match="non-negative"):
            hungarian_accuracy([0, 1, 1], [0, -1, 1])

    def test_matches_brute_force(self):
        # square, rectangular and heavily tied tables of up to 6 x 6
        rng = np.random.default_rng(8)
        for trial in range(200):
            nclu, ncls = rng.integers(1, 7, size=2)
            if trial % 3 == 0:
                ncls = nclu
            size = int(rng.integers(1, 40))
            assign = rng.integers(0, nclu, size=size)
            labels = rng.integers(0, ncls if trial % 2 else 2, size=size)
            table = np.zeros((assign.max() + 1, labels.max() + 1), dtype=int)
            np.add.at(table, (assign, labels), 1)
            small, large = sorted(table.shape)
            best = 0
            for perm in itertools.permutations(range(large), small):
                pairs = (zip(range(small), perm) if table.shape[0] == small
                         else zip(perm, range(small)))
                best = max(best, sum(table[r, c] for r, c in pairs))
            res = hungarian_accuracy(assign, labels)
            assert res.accuracy == best / size
            matched = res.matched_permutation
            assert len(matched) == small
            assert len(set(matched.values())) == small
            assert sum(table[r, c] for r, c in matched.items()) == best

    @pytest.mark.parametrize("nclu,ncls", [(70, 70), (70, 66), (65, 90)])
    def test_many_clusters_match_reference(self, nclu, ncls):
        # imported here: the package itself never imports scipy.optimize
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(nclu + ncls)
        labels = rng.integers(0, ncls, size=2000)
        # mostly a hidden relabeling of the classes, with noise
        assign = rng.permutation(max(nclu, ncls))[labels] % nclu
        noise = rng.random(2000) < 0.3
        assign[noise] = rng.integers(0, nclu, size=noise.sum())
        table = np.zeros((nclu, ncls), dtype=int)
        np.add.at(table, (assign, labels), 1)
        rows, cols = linear_sum_assignment(table, maximize=True)
        res = hungarian_accuracy(assign, labels)
        assert res.accuracy == table[rows, cols].sum() / 2000
        assert len(res.matched_permutation) == min(nclu, ncls)


class TestEval:
    def test_near_disjoint_blocks_are_perfect(self):
        # p_out must stay positive so the sampled graph is connected; a
        # tiny value keeps both arms at accuracy 1.0
        sbm = SbmSpec((30, 30, 30), 1.0, 0.02, seed=5)
        rep = eval_gdc_clustering(sbm, gdc=Gdc(), seeds=3)
        np.testing.assert_allclose(rep.raw_acc, 1.0)
        np.testing.assert_allclose(rep.gdc_acc, 1.0)
        assert rep.delta_mean == 0.0

    def test_single_seed_degenerate_ci(self):
        sbm = SbmSpec((20, 20), 0.5, 0.05, seed=1)
        rep = eval_gdc_clustering(sbm, gdc=Gdc(), seeds=1)
        assert rep.seeds == 1
        assert rep.delta_ci[0] == rep.delta_ci[1]

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_no_seed_rejected(self, seeds):
        sbm = SbmSpec((20, 20), 0.5, 0.05, seed=1)
        with pytest.raises(InputError, match="at least one seed"):
            eval_gdc_clustering(sbm, gdc=Gdc(), seeds=seeds)

    def test_threads_do_not_change_results(self):
        sbm = SbmSpec((20, 20), 0.5, 0.05, seed=2)
        a = eval_gdc_clustering(sbm, gdc=Gdc(), seeds=3, threads=1)
        b = eval_gdc_clustering(sbm, gdc=Gdc(), seeds=3, threads=3)
        c = eval_gdc_clustering(sbm, gdc=Gdc(), seeds=3, threads=0)
        np.testing.assert_array_equal(a.raw_acc, b.raw_acc)
        np.testing.assert_array_equal(a.gdc_acc, b.gdc_acc)
        np.testing.assert_array_equal(a.raw_acc, c.raw_acc)
        np.testing.assert_array_equal(a.gdc_acc, c.gdc_acc)

    def test_diffused_graph_keeps_original_ids(self):
        ids = [10, 20, 30, 40, 50]
        g = load_graph([(10, 20), (20, 30), (30, 40), (40, 50), (50, 10),
                        (10, 30)])
        out = run_gdc_for_clustering(g, Gdc(rule=TopK(3)))
        np.testing.assert_array_equal(out.original_ids, ids)

    @pytest.mark.parametrize("renorm", [RandomWalk(), Symmetric()],
                             ids=["rw", "sym"])
    def test_renormalizing_arm_rejected_before_any_seed(self, monkeypatch,
                                                        renorm):
        # a renormalized result is a TransitionMatrix, not a graph to embed
        def no_graph(spec):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(cluster_mod, "generate_sbm", no_graph)
        sbm = SbmSpec((20, 20), 0.5, 0.05, seed=1)
        gdc = Gdc(post=PostProcess(symmetrize=True, renorm=renorm))
        with pytest.raises(InputError, match=re.escape(f"renorm {renorm!r}")):
            eval_gdc_clustering(sbm, gdc=gdc, seeds=2, threads=1)

    @pytest.mark.parametrize("blocks,clusters", [((20, 20), 1), ((40,), None)],
                             ids=["clusters", "one-block"])
    def test_one_cluster_rejected_before_any_seed(self, monkeypatch, blocks,
                                                  clusters):
        def no_graph(spec):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(cluster_mod, "generate_sbm", no_graph)
        sbm = SbmSpec(blocks, 0.5, 0.05, seed=1)
        with pytest.raises(InputError, match="need at least 2 clusters, got 1"):
            eval_gdc_clustering(sbm, gdc=Gdc(), seeds=2, num_clusters=clusters,
                                threads=1)

    def test_arm_runs_its_route(self, monkeypatch):
        # the package's sparsify attribute is the function, not the module
        sparsify_mod = importlib.import_module("graphdiffusion.sparsify")
        calls = []
        real = sparsify_mod.diffuse

        def spy(t, spec, route, threads=0):
            calls.append((t.kind, spec, route, threads))
            return real(t, spec, route, threads=threads)

        monkeypatch.setattr(sparsify_mod, "diffuse", spy)
        sbm = SbmSpec((20, 20), 0.5, 0.05, seed=1)
        gdc = Gdc(transition=RandomWalk(), route=Series(3))
        rep = eval_gdc_clustering(sbm, gdc=gdc, seeds=2, threads=1)
        assert calls == [(RandomWalk(), gdc.spec, Series(3), 1)] * 2
        assert rep.gdc_acc.shape == (2,)

    def test_improvement_in_sparse_regime(self):
        # sparse graphs are where the extra diffusion reach pays off;
        # unweighted edges after top-k give the cleanest neighborhood graph
        sbm = SbmSpec((100, 100, 100), 0.03, 0.005, seed=0)
        gdc = Gdc(post=PostProcess(symmetrize=True, unweighted=True))
        rep = eval_gdc_clustering(sbm, gdc=gdc, seeds=10)
        assert rep.gdc_mean > rep.raw_mean
        assert np.sum(rep.gdc_acc > rep.raw_acc) >= 7

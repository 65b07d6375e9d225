import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphdiffusion import (Heat, InputError, Ppr, Push, RandomWalk, SparseGraph,
                            Series, Symmetric, TransitionMatrix, diffuse,
                            diffuse_push_ppr, load_graph, transition_matrix,
                            truncation_k)
from graphdiffusion import engine
from graphdiffusion.cluster import SbmSpec, generate_sbm
from graphdiffusion.engine import PUSH_BLOCK, _push_ppr_block, worker_count

from conftest import dense_column


def rw(edges):
    return transition_matrix(load_graph(edges), RandomWalk())


def star(n):
    return load_graph([(0, i) for i in range(1, n)])


def uneven_graph(n, seed):
    """Connected sparse graph on n nodes: a ring plus 0-2 random chords per
    node, so degrees (and with them the drain round counts) vary."""
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        for j in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return rw(sorted(edges))


def absorbing_single_node():
    g = SparseGraph(1, [0, 0], [], [], directed=False)
    m = sp.csc_matrix(np.array([[1.0]]))
    return TransitionMatrix(matrix=m, kind=RandomWalk(), source=g,
                            degrees=np.array([1.0]))


class TestPushGeometric:
    def test_absorbing_node(self):
        col = diffuse_push_ppr(absorbing_single_node(), 0.5, 1e-10, 0)
        np.testing.assert_allclose(dense_column(col, 1), [1.0], atol=1e-9)

    def test_k2(self):
        col = diffuse_push_ppr(rw([(0, 1)]), 0.5, 1e-8, 0)
        err = np.abs(dense_column(col, 2) - np.array([2 / 3, 1 / 3])).sum()
        assert err < 1e-6

    def test_star_center(self):
        t = rw([(0, i) for i in range(1, 100)])
        exact = diffuse(t, Ppr(0.15)).data[:, 0]
        col = diffuse_push_ppr(t, 0.15, 1e-4, 0)
        assert np.abs(dense_column(col, 100) - exact).sum() < 1e-2

    def test_exactness_identity(self):
        # p plus the exactly propagated residual reproduces the exact column
        t = rw([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        alpha, eps = 0.3, 1e-3
        n = t.n
        p = np.zeros(n)
        r = np.zeros(n)
        r[1] = 1.0
        deg = t.degrees
        for _ in range(1000):
            active = np.flatnonzero(r >= eps * deg)
            if active.size == 0:
                break
            ra = r[active]
            p[active] += alpha * ra
            r[active] = 0.0
            r += (1 - alpha) * (t.matrix[:, active] @ ra)
        exact = diffuse(t, Ppr(alpha)).data[:, 1]
        propagated = alpha * np.linalg.solve(
            np.eye(n) - (1 - alpha) * t.matrix.toarray(), r)
        np.testing.assert_allclose(p + propagated, exact, atol=1e-12)

    def test_matches_per_column_reference(self):
        # a one-column threshold phase and Chebyshev drain, the reference
        # the block kernel must reproduce bit for bit
        t = uneven_graph(90, seed=6)
        alpha, eps = 0.15, 1e-5
        m, thresholds = t.matrix, eps * t.degrees
        half = 1 - alpha  # undirected: the spectrum of I - (1-a)T is [a, 2-a]
        for j in (0, 41, 89):
            p, r = np.zeros(t.n), np.zeros(t.n)
            r[j] = 1.0
            touched = drains = 0
            while True:
                active = np.flatnonzero(r >= thresholds)
                if active.size == 0:
                    break
                touched += int(active.size)
                ra = r[active]
                p[active] += alpha * ra
                r[active] = 0.0
                r += (1 - alpha) * (m[:, active] @ ra)
            d = np.zeros(t.n)
            beta, omega, rho = 0.0, 1.0, half
            while np.abs(r).sum() > 50.0 * eps:
                drains += 1
                d = beta * d + omega * r
                p += alpha * d
                r = r - d + (1 - alpha) * (m @ d)
                omega = 2.0 / (2.0 - half * rho)
                beta = rho * (half * omega / 2.0)
                rho = half * omega / 2.0
            p = np.maximum(p, 0.0)
            col = diffuse_push_ppr(t, alpha, eps, j)
            nz = np.flatnonzero(p)
            np.testing.assert_array_equal(col.indices, nz)
            np.testing.assert_array_equal(col.values, p[nz])
            assert col.residual_l1 == float(np.abs(r).sum())
            assert (col.touched, col.support, col.rounds_drain) == (
                touched, nz.size, drains)

    def test_residual_commitment(self):
        t = rw([(0, 1), (1, 2), (2, 0), (2, 3)])
        eps = 1e-5
        col = diffuse_push_ppr(t, 0.2, eps, 0)
        assert col.residual_l1 <= 50.0 * eps + 1e-15

    def test_monotone_convergence(self):
        t = rw([(i, j) for i in range(8) for j in range(i + 1, 8)
                if (i + j) % 3 != 0])
        exact = diffuse(t, Ppr(0.2)).data[:, 0]
        errs = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            col = diffuse_push_ppr(t, 0.2, eps, 0)
            errs.append(np.abs(dense_column(col, t.n) - exact).sum())
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_requires_random_walk(self):
        t = transition_matrix(load_graph([(0, 1)]), Symmetric())
        with pytest.raises(InputError, match="random-walk"):
            diffuse_push_ppr(t, 0.5, 1e-6, 0)

    def test_parameter_validation(self):
        t = rw([(0, 1)])
        with pytest.raises(InputError):
            diffuse_push_ppr(t, 0.5, 0.0, 0)
        with pytest.raises(InputError):
            diffuse_push_ppr(t, 0.5, 1e-6, 5)

    def test_touched_accounting(self):
        t = rw([(0, 1), (1, 2)])
        col = diffuse_push_ppr(t, 0.5, 1e-6, 0)
        assert col.touched >= col.support


class TestPushDrain:
    def test_sbm_meets_cap_in_few_rounds(self):
        # a Richardson drain takes about 30 rounds per column here
        g, _ = generate_sbm(SbmSpec((334, 333, 333), 0.07, 0.005, seed=1))
        t = transition_matrix(g, RandomWalk())
        assert t.n == 1000
        eps = 1e-4
        s = diffuse(t, Ppr(0.15), Push(eps), threads=1)
        exact = diffuse(t, Ppr(0.15)).data
        err = np.abs(s.data - exact).sum(axis=0)
        assert err.max() <= s.certificate["residual_l1_max"] + 1e-12
        assert s.certificate["residual_l1_max"] <= 50.0 * eps
        assert s.certificate["drain_rounds_mean"] <= 12

    def test_directed_source_is_richardson(self):
        # half-width 0: every drain round is p += a r, r <- (1-a) T r
        rng = np.random.default_rng(8)
        n, alpha, eps = 80, 0.15, 1e-5
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(int(i), int(j)) for i, j in rng.integers(0, n, (3 * n, 2)) if i != j]
        t = transition_matrix(load_graph(edges, directed=True), RandomWalk())
        m, thresholds = t.matrix, eps * t.degrees
        exact = diffuse(t, Ppr(alpha)).data
        for j in (0, 33, 79):
            col = diffuse_push_ppr(t, alpha, eps, j)
            p, r = np.zeros(n), np.zeros(n)
            r[j] = 1.0
            while (active := np.flatnonzero(r >= thresholds)).size:
                ra = r[active]
                p[active] += alpha * ra
                r[active] = 0.0
                r += (1 - alpha) * (m[:, active] @ ra)
            drains = 0
            while np.abs(r).sum() > 50.0 * eps:
                drains += 1
                p += alpha * r
                r = (1 - alpha) * (m @ r)
            np.testing.assert_array_equal(dense_column(col, n), p)
            assert col.rounds_drain == drains > 0
            err = np.abs(dense_column(col, n) - exact[:, j]).sum()
            assert err <= col.residual_l1 + 1e-12
            assert col.residual_l1 <= 50.0 * eps

    @pytest.mark.parametrize("edges", [
        [(i, i + 1) for i in range(199)],
        [(0, i) for i in range(1, 200)],
        [(i, (i + 1) % 200) for i in range(200)],
        [(i, j) for i in range(2) for j in range(2, 152)],
    ], ids=["path", "star", "ring", "bipartite"])
    @pytest.mark.parametrize("alpha,eps", [(0.05, 1e-3), (0.05, 1e-5), (0.15, 1e-5)])
    def test_bipartite_and_long_diameter(self, edges, alpha, eps):
        # T has eigenvalue -1 on each graph, an end of the drain's interval
        t = rw(edges)
        exact = diffuse(t, Ppr(alpha)).data
        p, residual_l1, _, rounds_drain = _push_ppr_block(t, alpha, eps,
                                                          np.arange(t.n))
        assert rounds_drain.any()
        # clipped at 0, so every nonzero entry is positive
        assert (p >= 0).all()
        err = np.abs(p - exact).sum(axis=0)
        assert (err <= residual_l1 + 1e-12).all()
        assert (residual_l1 <= 50.0 * eps).all()


def heat_to_tolerance(t, t_val, eps):
    """Heat to push's tolerance eps: the series truncated where its analytic
    tail drops below eps, which bounds each column's L1 error on the random
    walk. Push itself runs PPR only."""
    return diffuse(t, Heat(t_val), Series(truncation_k(Heat(t_val), eps)))


class TestPushHeat:
    def test_tiny_time_is_identity(self):
        t = rw([(0, 1)])
        col = heat_to_tolerance(t, 1e-9, 1e-6).data[:, 0]
        np.testing.assert_allclose(col, [1.0, 0.0], atol=1e-6)

    def test_k2(self):
        col = heat_to_tolerance(rw([(0, 1)]), np.log(2.0), 1e-6).data[:, 0]
        err = np.abs(col - np.array([0.625, 0.375])).sum()
        assert err < 1e-4

    def test_ring_against_series(self):
        t = rw([(i, (i + 1) % 50) for i in range(50)])
        series = diffuse(t, Heat(3.0), Series(200)).data[:, 0]
        col = heat_to_tolerance(t, 3.0, 1e-5).data[:, 0]
        assert np.abs(col - series).sum() < 1e-3

    @pytest.mark.parametrize("t_val,eps", [(1.0, 1e-4), (5.0, 1e-5)])
    def test_l1_contract(self, t_val, eps):
        t = rw([(i, j) for i in range(10) for j in range(i + 1, 10)
                if (i * j) % 4 != 1])
        series = diffuse(t, Heat(t_val), Series(220)).data
        s = heat_to_tolerance(t, t_val, eps)
        assert s.exactness == f"series:{truncation_k(Heat(t_val), eps)}"
        assert np.abs(s.data - series).sum(axis=0).max() <= eps
        assert s.certificate["tail_mass"] <= eps

    @pytest.mark.parametrize("kind", [RandomWalk(), Symmetric()], ids=["rw", "sym"])
    def test_push_refuses_heat(self, kind):
        t = transition_matrix(load_graph([(0, 1)]), kind)
        with pytest.raises(InputError, match=r"Series\(k\) or Exact\(\)"):
            diffuse(t, Heat(1.0), Push(1e-6))


class TestPushMatrix:
    @pytest.mark.parametrize("spec", [Ppr(0.2), Heat(1.0)])
    def test_random_walk_checked_once(self, monkeypatch, spec):
        # one check per call, before any kernel: push passes it with Ppr
        # weights on the random walk alone
        calls = []
        check = engine.check_route
        monkeypatch.setattr(engine, "check_route",
                            lambda *a: calls.append(a) or check(*a))
        t = rw([(0, 1), (1, 2)])
        sym = transition_matrix(load_graph([(0, 1)]), Symmetric())
        ppr = isinstance(spec, Ppr)
        if ppr:
            diffuse(t, spec, Push(1e-6))
        else:
            with pytest.raises(InputError, match="Series"):
                diffuse(t, spec, Push(1e-6))
        with pytest.raises(InputError, match="random-walk" if ppr else "Series"):
            diffuse(sym, spec, Push(1e-6))
        assert calls == [(t.kind, spec, Push(1e-6)), (sym.kind, spec, Push(1e-6))]

    def test_assembles_all_columns(self):
        t = rw([(0, 1), (1, 2), (2, 0)])
        exact = diffuse(t, Ppr(0.3)).data
        m = diffuse(t, Ppr(0.3), Push(1e-8))
        assert m.data.shape == (3, 3) and m.data.flags.f_contiguous
        assert np.abs(m.data - exact).max() < 1e-5

    def test_thread_count_does_not_change_result(self):
        t = rw([(i, (i + 3) % 20) for i in range(20)] +
               [(i, (i + 1) % 20) for i in range(20)])
        a = diffuse(t, Ppr(0.2), Push(1e-6), threads=1)
        b = diffuse(t, Ppr(0.2), Push(1e-6), threads=4)
        assert np.array_equal(a.data, b.data)

    def test_worker_count(self):
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        assert worker_count(0) == worker_count(-1) == worker_count(None) == cores
        assert worker_count(1) == 1
        assert worker_count(3) == 3

    def test_worker_count_without_affinity(self, monkeypatch):
        # macOS and Windows have no sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert worker_count(0) == os.cpu_count()
        assert worker_count(2) == 2

    def test_explicit_rejected(self):
        from graphdiffusion import Explicit
        t = rw([(0, 1)])
        with pytest.raises(InputError):
            diffuse(t, Explicit((1.0,)), Push(1e-6))

    def test_block_columns_match_single_columns(self):
        # N is not a multiple of the block width, so the last block is short
        t = uneven_graph(150, seed=3)
        assert t.n % PUSH_BLOCK != 0
        out = diffuse(t, Ppr(0.2), Push(1e-5), threads=1)
        singles = []
        for j in range(t.n):
            col = diffuse_push_ppr(t, 0.2, 1e-5, j)
            assert np.array_equal(out.data[:, j], dense_column(col, t.n))
            singles.append(col)
        # the block certificate aggregates exactly the single-column counts
        assert out.certificate == {
            "residual_l1_max": max(c.residual_l1 for c in singles),
            "support_mean": float(np.mean([c.support for c in singles])),
            "touched_mean": float(np.mean([c.touched for c in singles])),
            "drain_rounds_mean": float(np.mean([c.rounds_drain for c in singles])),
        }
        drains = [c.rounds_drain for c in singles]
        # columns of every block stop their drain at different rounds
        for lo in range(0, t.n, PUSH_BLOCK):
            assert len(set(drains[lo:lo + PUSH_BLOCK])) > 1

    def test_threads_do_not_change_result_across_blocks(self):
        t = uneven_graph(3 * PUSH_BLOCK + 5, seed=4)
        a = diffuse(t, Ppr(0.15), Push(1e-5), threads=1)
        b = diffuse(t, Ppr(0.15), Push(1e-5), threads=2)
        assert np.array_equal(a.data, b.data)
        assert a.certificate == b.certificate

    def test_peak_memory_is_one_dense_array(self):
        # blocks are written into the result: besides it, only the running
        # block's N x PUSH_BLOCK temporaries are live
        g, _ = generate_sbm(SbmSpec((334, 333, 333), 0.07, 0.005, seed=1))
        t = transition_matrix(g, RandomWalk())
        n = t.n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = diffuse(t, Ppr(0.15), Push(1e-4), threads=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert s.data.shape == (n, n) == (1000, 1000)
        assert peak <= 1.6 * n ** 2 * 8

    def test_certificate(self):
        t = uneven_graph(100, seed=5)
        eps = 1e-5
        m = diffuse(t, Ppr(0.2), Push(eps))
        cert = m.certificate
        assert 0.0 < cert["residual_l1_max"] <= 50.0 * eps
        cols = [diffuse_push_ppr(t, 0.2, eps, j) for j in range(t.n)]
        assert cert["residual_l1_max"] == max(c.residual_l1 for c in cols)
        assert cert["support_mean"] == np.count_nonzero(m.data) / t.n
        assert cert["touched_mean"] >= cert["support_mean"]
        assert cert["drain_rounds_mean"] == np.mean([c.rounds_drain for c in cols])

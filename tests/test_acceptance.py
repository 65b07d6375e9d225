"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion. Criterion 8 checks the clustering improvement on a sparse planted
partition, blocks (100,100,100) with p_in=0.03 and p_out=0.005, for the
unweighted top-k arm at master seed 1000; the supplementary check repeats it
at master seed 0, so the two cover 40 distinct graphs. No gain is asserted
at the dense point (0.06, 0.02) or for the weighted arm; the comment on
criterion 8 gives the measurements behind that.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from graphdiffusion import (Gdc, Heat, PostProcess, Ppr, RandomWalk,
                            SbmSpec, Series, Symmetric, SymmetricSelfLoop,
                            Threshold, closed_form_xi, diffuse, diffuse_push_ppr,
                            eigen, eval_gdc_clustering,
                            eigenvalue_map, filter_response_curve,
                            generate_sbm, largest_connected_component,
                            laplacian, load_graph, sparsify, theta_to_xi,
                            theta_vector, transition_matrix, truncation_k,
                            xi_to_theta)
from graphdiffusion.cli import main as cli_main
from conftest import connected_er, random_theta


def report(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_series_exact_equivalence():
    start = time.perf_counter()
    kinds = [RandomWalk(), Symmetric(), SymmetricSelfLoop(1.0)]
    alphas = [0.05, 0.15, 0.3]
    worst = 0.0
    for i in range(20):
        g = connected_er(100, 0.05, 1000 + i)
        for kind in kinds:
            t = transition_matrix(g, kind)
            for alpha in alphas:
                exact = diffuse(t, Ppr(alpha)).data
                k = truncation_k(Ppr(alpha), 1e-12)
                series = diffuse(t, Ppr(alpha), Series(k)).data
                worst = max(worst, float(np.abs(exact - series).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    assert report("criterion-1 series/closed-form equivalence", ok,
                  f"max entry diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_eigenvalue_map_theorem():
    g = connected_er(150, 0.04, 77)
    worst = 0.0
    for kind in (Symmetric(), SymmetricSelfLoop(1.0)):
        t = transition_matrix(g, kind)
        lam_t = eigen(t.matrix).eigenvalues
        for alpha in (0.1, 0.2):
            s = diffuse(t, Ppr(alpha))
            lam_s = np.sort(eigen(s.data).eigenvalues)
            mapped = np.sort([eigenvalue_map(Ppr(alpha), x) for x in lam_t])
            worst = max(worst, float(np.abs(lam_s - mapped).max()))
        for t_diff in (1.0, 5.0):
            k = truncation_k(Heat(t_diff), 1e-14)
            s = diffuse(t, Heat(t_diff), Series(k))
            lam_s = np.sort(eigen(s.data).eigenvalues)
            mapped = np.sort([eigenvalue_map(Heat(t_diff), x) for x in lam_t])
            worst = max(worst, float(np.abs(lam_s - mapped).max()))
    ok = worst < 1e-8
    assert report("criterion-2 eigenvalue-map theorem", ok,
                  f"max multiset deviation {worst:.2e}")


def test_criterion_3_weight_filter_round_trip():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 21))
        th = random_theta(k, rng)
        back = xi_to_theta(theta_to_xi(th))
        worst = max(worst, float(np.abs(np.asarray(back, dtype=float)
                                        - np.asarray(th)).max()))
    exact_ok = True
    for seed in range(5):
        r = np.random.default_rng(seed)
        th = [Fraction(int(v), 997) for v in r.integers(0, 16, size=61)]
        exact_ok &= xi_to_theta(theta_to_xi(th, mode="exact"),
                                mode="exact") == th
    ok = worst < 1e-9 and exact_ok
    assert report("criterion-3 weight/filter round trip", ok,
                  f"float max err {worst:.2e}, rational exact {exact_ok}")


def test_criterion_4_filter_equivalence_and_divergence():
    from graphdiffusion import apply_poly_filter
    rng = np.random.default_rng(404)
    worst = 0.0
    graphs = [load_graph([(0, 1), (1, 2), (2, 0)]), connected_er(30, 0.15, 40)]
    for g in graphs:
        t = transition_matrix(g, Symmetric())
        s = diffuse(t, Ppr(0.75))
        lap = laplacian(t)
        xi = [closed_form_xi(Ppr(0.75), j) for j in range(201)]
        for _ in range(10):
            x = rng.standard_normal(g.n)
            out = apply_poly_filter(xi, lap, x)
            worst = max(worst, float(np.abs(out - s.data @ x).max()))

    g = graphs[1]
    t = transition_matrix(g, Symmetric())
    lap = laplacian(t)
    x = rng.standard_normal(g.n)
    norms = {}
    for j_max in (20, 60):
        xi = [closed_form_xi(Ppr(0.25), j) for j in range(j_max + 1)]
        norms[j_max] = float(np.linalg.norm(apply_poly_filter(xi, lap, x)))
    diverges = norms[60] > 1e6 and norms[60] > 1e6 * max(1.0, norms[20] / 1e6)
    ok = worst < 1e-6 and diverges
    assert report("criterion-4 filter equivalence / divergence", ok,
                  f"max err {worst:.2e}; norm J=20 {norms[20]:.2e}, "
                  f"J=60 {norms[60]:.2e}")


def test_criterion_5_perturbation_bound():
    worst_margin = np.inf
    ok = True
    for seed in range(10):
        g, _ = generate_sbm(SbmSpec((50, 50), 0.08, 0.02, seed=500 + seed))
        g, _ = largest_connected_component(g)
        t = transition_matrix(g, Symmetric())
        s = diffuse(t, Ppr(0.1))
        n = g.n
        dense = s.data
        before = np.sort(np.linalg.eigvalsh(dense))
        for eps in (1e-4, 1e-3):
            trimmed = sparsify(s, Threshold(eps)).to_scipy().toarray()
            after = np.sort(np.linalg.eigvalsh(trimmed))
            dev = float(np.sqrt(np.sum((after - before) ** 2)))
            ok &= dev <= n * eps
            worst_margin = min(worst_margin, n * eps - dev)
    assert report("criterion-5 perturbation bound", ok,
                  f"smallest slack to N*eps {worst_margin:.2e}")


def test_criterion_6_push_accuracy_and_locality():
    sbm_small = SbmSpec((500, 500), 0.045, 0.015, seed=42)
    g1, _ = generate_sbm(sbm_small)
    g1, _ = largest_connected_component(g1)
    assert g1.n == 1000, "benchmark graph must stay connected"
    t1 = transition_matrix(g1, RandomWalk())
    exact = diffuse(t1, Ppr(0.15)).data
    worst_l1 = 0.0
    touched_small = []
    for j in range(1000):
        col = diffuse_push_ppr(t1, 0.15, 1e-6, j)
        worst_l1 = max(worst_l1, float(np.abs(col.dense(1000) - exact[:, j]).sum()))
        touched_small.append(col.touched)

    sbm_big = SbmSpec((2000, 2000), 0.045, 0.015, seed=43)
    g4, _ = generate_sbm(sbm_big)
    g4, _ = largest_connected_component(g4)
    assert g4.n == 4000, "benchmark graph must stay connected"
    t4 = transition_matrix(g4, RandomWalk())
    rng = np.random.default_rng(606)
    sample = rng.choice(4000, size=300, replace=False)
    touched_big = [diffuse_push_ppr(t4, 0.15, 1e-6, int(j)).touched
                   for j in sample]

    ratio = float(np.mean(touched_big) / np.mean(touched_small))
    ok = worst_l1 < 1e-4 and ratio < 2.0
    assert report("criterion-6 push accuracy and locality", ok,
                  f"max L1 {worst_l1:.2e}; mean touched {np.mean(touched_small):.0f} "
                  f"(N=1000) vs {np.mean(touched_big):.0f} (N=4000), ratio {ratio:.2f}")


def test_criterion_7_low_pass_property():
    grid = np.linspace(0.0, 2.0, 201)
    ok = True
    for spec in [Ppr(0.05), Ppr(0.1), Ppr(0.2),
                 Heat(1.0), Heat(3.0), Heat(5.0), Heat(10.0)]:
        curve = filter_response_curve(spec, grid)
        ok &= bool(np.all(np.diff(curve[:, 1]) < 0))
    assert report("criterion-7 low-pass property", ok,
                  "strictly decreasing on 201-point grid for all 7 settings")


def test_criterion_8_clustering_improvement_pinned_regime():
    # Pinned benchmark: blocks (100,100,100), p_in=0.03, p_out=0.005,
    # master seed 1000, 20 paired seeds, unweighted top-k arm (the
    # README's eval-cluster example). Exact diffusion keeps the order of
    # T's eigenvectors, so the gain can only come from top-k turning a
    # sparse graph into a better-conditioned neighbourhood graph. Measured
    # delta (bootstrap CI) here: +0.076 [+0.030, +0.118] at master seed 0,
    # +0.093 [+0.058, +0.129] at 1000, +0.124 [+0.077, +0.172] at 2000.
    # Not asserted:
    # - the dense point (0.06, 0.02): raw 0.712 there, and spectral
    #   clustering on the exact S (symloop, alpha=0.15) or on T itself
    #   gives 0.693. A sweep over alpha in {0.05, 0.15, 0.3}, k from 8 to
    #   300, heat t in {1, 3, 5}, every transition and renorm, weighted
    #   and unweighted, found no supported setting that improves it: the
    #   best PPR setting gives +0.009 [-0.013, +0.039], the unweighted
    #   default -0.015 [-0.023, -0.008] at master seed 2000, and only
    #   heat t=3 unweighted clears zero (lower bound +0.0007) at one
    #   master seed, which is noise, not a regime.
    # - the weighted arm, the default Gdc(): it loses at every regime tried,
    #   -0.055 [-0.085, -0.030] at the dense point and -0.026
    #   [-0.046, -0.010] at the sparse one (master seed 1000), mostly from
    #   the diffusion's self-mass on the diagonal of S, which top-k keeps.
    start = time.perf_counter()
    sbm = SbmSpec((100, 100, 100), 0.03, 0.005, seed=1000)
    gdc = Gdc(post=PostProcess(symmetrize=True, unweighted=True))
    rep = eval_gdc_clustering(sbm, gdc=gdc, seeds=20)
    elapsed = time.perf_counter() - start
    improved = rep.gdc_mean > rep.raw_mean
    ci_excludes_zero = rep.delta_ci[0] > 0.0
    ok = improved and ci_excludes_zero and elapsed < 120.0
    assert report(
        "criterion-8 clustering improvement (sparse 0.03/0.005, unweighted)",
        ok,
        f"raw {rep.raw_mean:.3f}, gdc {rep.gdc_mean:.3f}, delta "
        f"{rep.delta_mean:+.4f}, ci [{rep.delta_ci[0]:+.4f}, "
        f"{rep.delta_ci[1]:+.4f}], {elapsed:.0f}s")


def test_clustering_improvement_sparse_regime_supplementary():
    # Companion evidence for the improvement claim: sparse planted
    # partition, unweighted edges after top-k truncation.
    start = time.perf_counter()
    sbm = SbmSpec((100, 100, 100), 0.03, 0.005, seed=0)
    gdc = Gdc(post=PostProcess(symmetrize=True, unweighted=True))
    rep = eval_gdc_clustering(sbm, gdc=gdc, seeds=20)
    elapsed = time.perf_counter() - start
    ok = (rep.gdc_mean > rep.raw_mean and rep.delta_ci[0] > 0.0
          and elapsed < 120.0)
    assert report(
        "supplementary clustering improvement (sparse regime)", ok,
        f"raw {rep.raw_mean:.3f}, gdc {rep.gdc_mean:.3f}, delta "
        f"{rep.delta_mean:+.4f}, ci [{rep.delta_ci[0]:+.4f}, "
        f"{rep.delta_ci[1]:+.4f}], {elapsed:.0f}s")


def test_criterion_9_pipeline_determinism(tmp_path):
    g, _ = generate_sbm(SbmSpec((40, 40), 0.2, 0.05, seed=9))
    inp = tmp_path / "input.txt"
    from graphdiffusion import save_edge_list
    save_edge_list(inp, g)
    out = tmp_path / "out.txt"
    outputs = []
    hashes = []
    for _ in range(2):
        rc = cli_main(["transform", "--input", str(inp), "--output", str(out),
                       "--sparsify", "topk:8", "--seed", "5"])
        assert rc == 0
        outputs.append(out.read_bytes())
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / "out.txt.meta").read_text().splitlines())
        hashes.append(meta["config_hash"])
    ok = outputs[0] == outputs[1] and hashes[0] == hashes[1]
    assert report("criterion-9 pipeline determinism", ok,
                  f"same config hash {hashes[0] == hashes[1]}, "
                  f"byte-identical graphs {outputs[0] == outputs[1]}")

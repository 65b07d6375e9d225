"""Command-line frontend: transform, spectrum, convert-coeffs, gen-sbm,
eval-cluster.

Exit codes: 0 success, 1 computation error, 2 I/O or usage error. Errors
print a single machine-parsable line (E_IO / E_USAGE / E_COMPUTE prefix) on
stderr. The default thread count comes from GRAPHDIFFUSION_THREADS (0 means
automatic).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import coeffs as cf
from .cluster import GdcConfig, SbmSpec, eval_gdc_clustering, generate_sbm
from .engine import Exact, Push, Series
from .errors import ComputeError, InputError
from .graph import (RandomWalk, SparseGraph, Symmetric, SymmetricSelfLoop,
                    TransitionMatrix, edge_list_meta, largest_connected_component,
                    load_edge_list, save_edge_list, write_meta)
from .sparsify import PostProcess, TargetDegree, Threshold, TopK, diffuse_graph
from .spectral import SYMMETRIC, eigen, filter_response_curve, laplacian, spectrum_compare

TOOL_VERSION = "0.1.0"

# One table per choice, read by the argparse choices, parse_config and the
# sidecar's names. A rule maps to its class and the type of its argument.
TRANSITIONS = {"rw": RandomWalk, "sym": Symmetric, "symloop": SymmetricSelfLoop}
METHODS = {"ppr": cf.Ppr, "heat": cf.Heat, "explicit": cf.Explicit}
RULES = {"topk": (TopK, int), "eps": (Threshold, float),
         "degree": (TargetDegree, float)}
ROUTES = {"exact": Exact, "series": Series, "push": Push}
# The config key of a route's argument maps to the route and the argument's type.
ROUTE_KEYS = {"series_k": ("series", int), "eps_push": ("push", float)}
RENORMS = ("sym", "rw", "none")
FORMATS = ("edges", "npz")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageError; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class PipelineConfig:
    input: str
    output: str
    transition: object
    spec: object
    route: object  # engine.Exact() | Series(k) | Push(eps)
    rule: object
    post: PostProcess
    seed: int
    threads: int
    fmt: str = "edges"

    def items(self):
        """Flat key/value view used for the sidecar and the config hash."""
        kv = {
            "input": self.input,
            "output": self.output,
            "transition": _name_of(TRANSITIONS, self.transition),
            "w_loop": getattr(self.transition, "w_loop", ""),
            "method": _name_of(METHODS, self.spec),
            "alpha": getattr(self.spec, "alpha", ""),
            "t": getattr(self.spec, "t", ""),
            "theta": ",".join(repr(v) for v in getattr(self.spec, "theta", ())),
            "mode": _name_of(ROUTES, self.route),
            "series_k": getattr(self.route, "k", None),
            "eps_push": getattr(self.route, "eps", None),
            "sparsify": _rule_name(self.rule),
            "symmetrize": str(self.post.symmetrize).lower(),
            "unweighted": str(self.post.unweighted).lower(),
            "renorm": self.post.renorm or "none",
            "seed": self.seed,
            "threads": self.threads,
            "format": self.fmt,
        }
        return {k: "" if v is None else str(v) for k, v in kv.items()}

    def config_hash(self):
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.items().items()))
        return hashlib.sha256(blob.encode()).hexdigest()


def _name_of(table, obj):
    """The name under which table holds the class of obj, else str(obj)."""
    return next((name for name, cls in table.items() if isinstance(obj, cls)),
                str(obj))


def _choice(name, names, what):
    if name not in names:
        raise UsageError(f"unknown {what} {name!r}; use one of {', '.join(names)}")
    return name


def _rule_name(rule):
    for name, (cls, _) in RULES.items():
        if isinstance(rule, cls):
            return f"{name}:{astuple(rule)[0]!r}"
    return str(rule)


def _parse_rule(text):
    name, _, arg = text.partition(":")
    if name not in RULES:
        raise UsageError(f"bad sparsify rule {text!r}; use topk:K, eps:E or degree:D")
    cls, kind = RULES[name]
    try:
        return cls(kind(arg))
    except (ValueError, InputError) as exc:
        raise UsageError(f"bad sparsify rule {text!r}: {exc}") from exc


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_PIPELINE_KEYS = ("input", "output", "transition", "wloop", "method", "alpha",
                  "t", "theta_file", "mode", "series_k", "eps_push", "sparsify",
                  "symmetrize", "unweighted", "renorm", "seed", "threads",
                  "format")

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _as_bool(val, key):
    s = str(val).strip().lower()
    if s in _BOOL_TRUE:
        return True
    if s in _BOOL_FALSE:
        return False
    raise UsageError(f"bad boolean for {key}: {val!r}")


def _number(val, key, kind=float):
    """val as a kind (int or float); a value that does not parse is a usage error."""
    try:
        return kind(val)
    except ValueError as exc:
        raise UsageError(f"bad {kind.__name__} for {key}: {val!r}") from exc


def _add_pipeline_flags(p):
    p.add_argument("--input", help="edge-list file to transform")
    p.add_argument("--output", help="destination path")
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--transition", choices=TRANSITIONS)
    p.add_argument("--wloop", type=float, help="self-loop weight for symloop")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--alpha", type=float, help="teleport probability (ppr)")
    p.add_argument("--t", type=float, help="diffusion time (heat)")
    p.add_argument("--theta-file", help="one weight per line (explicit)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="closed-form solve")
    mode.add_argument("--series", type=int, metavar="K", help="truncated series")
    mode.add_argument("--push", type=float, metavar="EPS",
                      help="per-column push approximation")
    p.add_argument("--sparsify", help="topk:K, eps:E or degree:D")
    sym = p.add_mutually_exclusive_group()
    sym.add_argument("--symmetrize", dest="symmetrize", action="store_const", const=True)
    sym.add_argument("--no-symmetrize", dest="symmetrize", action="store_const", const=False)
    p.add_argument("--unweighted", action="store_const", const=True, default=None)
    p.add_argument("--renorm", choices=RENORMS)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help="0 = automatic")
    p.add_argument("--format", dest="fmt", choices=FORMATS)


def parse_config(ns):
    """Resolve flags plus optional config file into a PipelineConfig.

    Defaults without any flags: self-loop symmetric transition (w = 1),
    geometric diffusion with teleport 0.15 solved in closed form, top-64
    sparsification, symmetrization and random-walk renormalization.
    """
    file_values = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key in file_values:
        if key not in _PIPELINE_KEYS:
            raise UsageError(f"unknown config key {key!r}")

    def get(key, default=None):
        flag = getattr(ns, key, None)
        return flag if flag is not None else file_values.get(key, default)

    input_path = get("input")
    output_path = get("output")
    if not input_path or not output_path:
        raise UsageError("--input and --output are required")

    trans_name = _choice(get("transition", "symloop"), TRANSITIONS, "transition")
    wloop = get("wloop")
    if wloop is not None and trans_name != "symloop":
        raise UsageError("--wloop applies only to the symloop transition")
    # only symloop takes an argument, its self-loop weight (default 1.0)
    args = () if wloop is None else (_number(wloop, "wloop"),)
    transition = TRANSITIONS[trans_name](*args)

    method = _choice(get("method", "ppr"), METHODS, "method")
    alpha = get("alpha")
    t_val = get("t")
    theta_file = get("theta_file")
    if alpha is not None and t_val is not None:
        raise UsageError("--alpha and --t are mutually exclusive")
    if method == "ppr":
        if t_val is not None or theta_file:
            raise UsageError("--t/--theta-file conflict with method ppr")
        spec = cf.Ppr(_number(alpha, "alpha") if alpha is not None else 0.15)
    elif method == "heat":
        if alpha is not None or theta_file:
            raise UsageError("--alpha/--theta-file conflict with method heat")
        if t_val is None:
            raise UsageError("method heat requires --t")
        spec = cf.Heat(_number(t_val, "t"))
    else:
        if alpha is not None or t_val is not None:
            raise UsageError("--alpha/--t conflict with method explicit")
        if not theta_file:
            raise UsageError("method explicit requires --theta-file")
        spec = cf.Explicit(tuple(_read_vector(theta_file)))

    # the one flag given, else the file's mode; a flag's argument overrides
    # the file's, and an argument that another route takes is an error
    if getattr(ns, "series", None) is not None:
        mode, arg = "series", ns.series
    elif getattr(ns, "push", None) is not None:
        mode, arg = "push", ns.push
    elif getattr(ns, "exact", False):
        mode, arg = "exact", None
    else:
        mode, arg = _choice(file_values.get("mode", "exact"), ROUTES, "mode"), None
    for key, (owner, kind) in ROUTE_KEYS.items():
        if key in file_values:
            if owner != mode:
                raise UsageError(f"{key} applies only to mode {owner}, not {mode}")
            if arg is None:
                arg = _number(file_values[key], key, kind)
    if mode == "push":
        if arg is None:
            raise UsageError("push mode requires an epsilon")
        if not isinstance(transition, RandomWalk):
            raise UsageError("push mode requires --transition rw")
    # building the route checks its argument, like alpha, before any input is read
    route = ROUTES[mode]() if arg is None else ROUTES[mode](arg)

    rule_text = get("sparsify", "topk:64")
    rule = _parse_rule(rule_text) if isinstance(rule_text, str) else rule_text

    symmetrize = _as_bool(get("symmetrize", True), "symmetrize")
    unweighted = _as_bool(get("unweighted", False), "unweighted")
    renorm = _choice(get("renorm", "rw"), RENORMS, "renormalization")
    if renorm == "none":
        renorm = None
    post = PostProcess(symmetrize=symmetrize, unweighted=unweighted, renorm=renorm)

    fmt = _choice(get("fmt", file_values.get("format", "edges")), FORMATS,
                  "output format")

    seed = _number(get("seed", 0), "seed", int)
    threads = get("threads", os.environ.get("GRAPHDIFFUSION_THREADS", "0"))
    return PipelineConfig(input=str(input_path), output=str(output_path),
                          transition=transition, spec=spec, route=route,
                          rule=rule, post=post, seed=seed,
                          threads=_number(threads, "threads", int), fmt=fmt)


def _read_vector(path):
    """One finite number per line (a decimal or a fraction p/q); '#' comments."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                v = float(Fraction(line)) if "/" in line else float(line)
            except (ValueError, ZeroDivisionError, OverflowError):
                v = math.nan
            if not math.isfinite(v):
                raise InputError(f"{path}:{lineno}: expected a finite number")
            out.append(v)
    if not out:
        raise InputError(f"{path}: no numbers found")
    return out


def _write_vector(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{v}\n" if isinstance(v, Fraction) else f"{float(v)!r}\n")


def _is_identity_spec(spec):
    # theta_0 I with theta_0 = 0 is the zero matrix, which keeps no self-loop
    return (isinstance(spec, cf.Explicit) and spec.theta[0] != 0.0
            and all(v == 0.0 for v in spec.theta[1:]))


def run_pipeline(cfg):
    """Load, diffuse, sparsify, postprocess, export. Returns the metadata."""
    timings = {}
    t0 = time.perf_counter()
    g = load_edge_list(cfg.input, directed=False)
    g, index_map = largest_connected_component(g)
    timings["load"] = time.perf_counter() - t0

    if _is_identity_spec(cfg.spec):
        print("warning: diffusion weights are the identity; the output graph "
              "contains only self-loops", file=sys.stderr)

    result, certificate, eps, stage_seconds = diffuse_graph(
        g, cfg.transition, cfg.spec, cfg.rule, cfg.post, route=cfg.route,
        threads=cfg.threads)
    timings.update(stage_seconds)

    if isinstance(result, TransitionMatrix):
        out_graph = SparseGraph.from_scipy(result.matrix, directed=True,
                                           original_ids=g.original_ids,
                                           allow_loops=True)
    else:
        out_graph = result

    meta = dict(cfg.items())
    meta.update({
        "epsilon_resolved": repr(eps) if eps is not None else "",
        "nodes_input": str(int(index_map.size)),
        "nodes": str(out_graph.n),
        "lcc_dropped": str(int(np.sum(index_map < 0))),
        "config_hash": cfg.config_hash(),
        "tool_version": TOOL_VERSION,
    })
    for name, value in (certificate or {}).items():
        meta[f"certificate_{name}"] = repr(float(value))

    t0 = time.perf_counter()
    if cfg.fmt == "npz":
        # through a handle: given a path, save_npz appends '.npz' to it
        with open(cfg.output, "wb") as fh:
            sp.save_npz(fh, out_graph.to_scipy())
    else:
        save_edge_list(cfg.output, out_graph, sidecar=False)
    timings["export"] = time.perf_counter() - t0
    for stage, secs in timings.items():
        meta[f"stage_seconds_{stage}"] = f"{secs:.6f}"
    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    # the one sidecar write goes last so that it carries the export time
    write_meta(cfg.output, edge_list_meta(out_graph, meta))
    return meta


def cmd_transform(ns):
    cfg = parse_config(ns)
    run_pipeline(cfg)
    return 0


def cmd_spectrum(ns):
    cfg = parse_config(ns)
    g = load_edge_list(cfg.input, directed=False)
    g, _ = largest_connected_component(g)
    before = eigen(laplacian(g, SYMMETRIC), source="input L_sym")

    result = diffuse_graph(g, cfg.transition, cfg.spec, cfg.rule, cfg.post,
                           route=cfg.route, threads=cfg.threads)[0]
    if isinstance(result, TransitionMatrix):
        if isinstance(result.kind, RandomWalk) and not result.source.directed:
            # I - T_rw of a symmetric graph shares its spectrum with the
            # symmetric normalized Laplacian of the same graph
            after = eigen(laplacian(result.source, SYMMETRIC),
                          source="output L_sym (similar to rw form)")
        else:
            lap = laplacian(result)
            after = eigen((lap + lap.T) * 0.5, source="output Laplacian (symmetrized)")
    else:
        after = eigen(laplacian(result, SYMMETRIC), source="output L_sym")

    delta = spectrum_compare(before, after)
    with open(cfg.output, "w") as fh:
        fh.write("index,lambda_before,lambda_after,delta\n")
        bs = np.sort(before.eigenvalues)
        as_ = np.sort(after.eigenvalues)
        for i, (b, a, d) in enumerate(zip(bs, as_, delta.deltas)):
            fh.write(f"{i},{float(b)!r},{float(a)!r},{float(d)!r}\n")

    grid = np.linspace(0.0, 2.0, 201)
    curve = filter_response_curve(cfg.spec, grid)
    curve_path = cfg.output + ".response.csv"
    with open(curve_path, "w") as fh:
        fh.write("lambda_L,response\n")
        for lam, resp in curve:
            fh.write(f"{float(lam)!r},{float(resp)!r}\n")
    print(f"spectrum delta l2 = {delta.l2:.6g}; curves in {cfg.output} "
          f"and {curve_path}")
    return 0


def cmd_convert_coeffs(ns):
    vec = _read_vector(ns.input)
    if ns.mode == "exact":
        vec = [Fraction(v).limit_denominator(10 ** 12) for v in vec]
    if ns.direction == "theta-to-xi":
        out = cf.theta_to_xi(vec, mode=ns.mode)
    else:
        out = cf.xi_to_theta(vec, mode=ns.mode)
    _write_vector(ns.output, out)
    return 0


def cmd_gen_sbm(ns):
    blocks = tuple(_number(b, "--blocks", int) for b in ns.blocks.split(","))
    spec = SbmSpec(blocks, ns.p_in, ns.p_out, seed=ns.seed)
    g, labels = generate_sbm(spec)
    save_edge_list(ns.output, g, metadata={
        "generator": "sbm",
        "blocks": ns.blocks,
        "p_in": repr(ns.p_in),
        "p_out": repr(ns.p_out),
        "gen_seed": str(ns.seed),
    })
    with open(ns.output + ".labels", "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")
    print(f"wrote {g.n} nodes, {g.edge_count} edges to {ns.output}")
    return 0


def cmd_eval_cluster(ns):
    blocks = tuple(_number(b, "--blocks", int) for b in ns.blocks.split(","))
    sbm = SbmSpec(blocks, ns.p_in, ns.p_out, seed=ns.seed)
    gdc = GdcConfig(spec=cf.Ppr(ns.alpha), rule=TopK(ns.topk),
                    unweighted=ns.unweighted)
    report = eval_gdc_clustering(sbm, gdc=gdc, seeds=ns.seeds,
                                 num_clusters=ns.clusters, threads=ns.threads)
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write("seed,raw_accuracy,gdc_accuracy,delta\n")
            for i, (r, a) in enumerate(zip(report.raw_acc, report.gdc_acc)):
                fh.write(f"{sbm.seed + i},{float(r)!r},{float(a)!r},"
                         f"{float(a - r)!r}\n")
    print(f"raw   mean accuracy {report.raw_mean:.4f} "
          f"ci95 [{report.raw_ci[0]:.4f}, {report.raw_ci[1]:.4f}]")
    print(f"gdc   mean accuracy {report.gdc_mean:.4f} "
          f"ci95 [{report.gdc_ci[0]:.4f}, {report.gdc_ci[1]:.4f}]")
    print(f"delta mean {report.delta_mean:+.4f} "
          f"ci95 [{report.delta_ci[0]:+.4f}, {report.delta_ci[1]:+.4f}]")
    return 0


def build_parser():
    parser = _Parser(
        prog="graphdiffusion",
        description="Transform graphs via sparsified generalized diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="run the full diffusion pipeline")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("spectrum", help="compare spectra before/after the pipeline")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("convert-coeffs", help="convert weight vectors")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--direction", choices=["theta-to-xi", "xi-to-theta"],
                   required=True)
    p.add_argument("--mode", choices=["float", "exact"], default="float")
    p.set_defaults(func=cmd_convert_coeffs)

    p = sub.add_parser("gen-sbm", help="sample a planted-partition graph")
    p.add_argument("--blocks", required=True, help="comma-separated sizes")
    p.add_argument("--p-in", dest="p_in", type=float, required=True)
    p.add_argument("--p-out", dest="p_out", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_sbm)

    p = sub.add_parser("eval-cluster", help="paired clustering evaluation")
    p.add_argument("--blocks", required=True)
    p.add_argument("--p-in", dest="p_in", type=float, required=True)
    p.add_argument("--p-out", dest="p_out", type=float, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--topk", type=int, default=64)
    p.add_argument("--unweighted", action="store_true")
    # argparse converts a string default with type only when the command runs
    p.add_argument("--threads", type=int,
                   default=os.environ.get("GRAPHDIFFUSION_THREADS", "0"))
    p.add_argument("--output", help="per-seed CSV report")
    p.set_defaults(func=cmd_eval_cluster)
    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"E_USAGE: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        return 2
    except (InputError, ComputeError) as exc:
        print(f"E_COMPUTE: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

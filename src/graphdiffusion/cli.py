"""Command-line frontend: transform, spectrum, convert-coeffs, gen-sbm,
eval-cluster.

Exit codes: 0 success, 1 computation error, 2 I/O or usage error. Errors
print a single machine-parsable line (E_IO / E_USAGE / E_COMPUTE prefix) on
stderr. Every subcommand builds the values of its settings (the operator and
its parts, the SBM, the counts) before it reads input or draws a graph, and
a value that does not build is a usage error; what the input files hold (an
edge list, a weight file) and what goes wrong in the computation is
E_COMPUTE. The default thread count comes from GRAPHDIFFUSION_THREADS (0
means automatic).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import coeffs as cf
from .cluster import SbmSpec, check_counts, eval_gdc_clustering, generate_sbm
from .engine import Exact, Push, Series
from .errors import ComputeError, InputError
from .graph import (RandomWalk, SparseGraph, Symmetric, SymmetricSelfLoop,
                    TransitionMatrix, edge_list_meta, largest_connected_component,
                    load_edge_list, save_edge_list, write_meta)
from .sparsify import Gdc, PostProcess, TargetDegree, Threshold, TopK, diffuse_graph
from .spectral import SYMMETRIC, eigen, filter_response_curve, laplacian, spectrum_compare

TOOL_VERSION = "0.1.0"

# One table per choice: each name maps to what builds the choice's object
# from the settings it owns (see SETTINGS); explicit takes the weights that
# parse_config reads from the theta file. A rule and a route, written
# name[:arg], map to their class and the type of their argument, None for no
# argument.
TRANSITIONS = {"rw": RandomWalk, "sym": Symmetric, "symloop": SymmetricSelfLoop}
METHODS = {"ppr": cf.Ppr, "heat": cf.Heat, "explicit": lambda weights: weights}
RULES = {"topk": (TopK, int), "eps": (Threshold, float),
         "degree": (TargetDegree, float)}
ROUTES = {"exact": (Exact, None), "series": (Series, int), "push": (Push, float)}
RENORMS = ("sym", "rw", "none")
FORMATS = ("edges", "npz")

REQUIRED = object()  # the default of a setting that its owner cannot do without


class Setting(NamedTuple):
    """A pipeline setting: the type of its value (int, float, bool, str or
    a choice's name table), its default, the (choice, name) whose object
    takes it as an argument, and its flag's help. flag=False marks the
    settings whose flags are written by hand."""

    kind: object
    default: object = None
    owner: tuple | None = None
    help: str | None = None
    flag: bool = True


# Every pipeline setting, keyed by its config key, in .meta order. A setting
# owned by a choice applies only under it, where it defaults to its default;
# under another choice it is None and an error if given.
SETTINGS = {
    "input": Setting(str, help="edge-list file to transform"),
    "output": Setting(str, help="destination path"),
    "transition": Setting(TRANSITIONS, "symloop"),
    "wloop": Setting(float, 1.0, ("transition", "symloop"),
                     "self-loop weight for symloop"),
    "method": Setting(METHODS, "ppr"),
    "alpha": Setting(float, 0.15, ("method", "ppr"), "teleport probability (ppr)"),
    "t": Setting(float, REQUIRED, ("method", "heat"), "diffusion time (heat)"),
    "theta_file": Setting(str, REQUIRED, ("method", "explicit"),
                          "one weight per line (explicit)"),
    "route": Setting(str, "exact", help="exact, series:K or push:EPS", flag=False),
    "sparsify": Setting(str, "topk:64", help="topk:K, eps:E or degree:D"),
    "symmetrize": Setting(bool, True, flag=False),
    "unweighted": Setting(bool, False, flag=False),
    "renorm": Setting(RENORMS, "rw"),
    # threads defaults to GRAPHDIFFUSION_THREADS, which parse_config reads
    "threads": Setting(int, help="0 = automatic"),
    "format": Setting(FORMATS, "edges"),
}
# the .meta key of a setting whose config key differs, and the name an
# unknown value's message gives a setting
META_KEYS = {"wloop": "w_loop", "theta_file": "theta"}
LABELS = {"renorm": "renormalization", "format": "output format",
          "sparsify": "sparsify rule"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageError; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class PipelineConfig:
    values: dict  # config key -> resolved value, in SETTINGS order
    gdc: Gdc  # the operator the values build

    def items(self):
        """Flat key/value view used for the sidecar and the config hash."""
        kv = {META_KEYS.get(k, k): "" if v is None else
              str(v).lower() if isinstance(v, bool) else str(v)
              for k, v in self.values.items()}
        kv["theta"] = ",".join(repr(v) for v in getattr(self.gdc.spec, "theta", ()))
        kv["route"] = _render(ROUTES, self.gdc.route)
        kv["sparsify"] = _render(RULES, self.gdc.rule)
        return kv

    def config_hash(self):
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.items().items()))
        return hashlib.sha256(blob.encode()).hexdigest()


def _render(table, obj):
    """The name[:arg] text of obj, a value of one of table's classes."""
    for name, (cls, kind) in table.items():
        if isinstance(obj, cls):
            return name if kind is None else f"{name}:{astuple(obj)[0]!r}"


def _parse(table, key, text):
    """The object that text, name[:arg], names in table, the table of setting
    key; a name its table lacks, an argument it does not take or a bad
    argument is a usage error."""
    name, colon, arg = text.partition(":")
    what = LABELS.get(key, key)
    if name not in table or (table[name][1] is None) == bool(colon):
        raise UsageError(f"bad {what} {text!r}; use {SETTINGS[key].help}")
    cls, kind = table[name]
    try:
        return cls() if kind is None else cls(kind(arg))
    except (ValueError, InputError) as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from exc


@contextmanager
def _settings_built():
    """Report an InputError raised while a setting's value is built as a
    usage error."""
    try:
        yield
    except InputError as exc:
        raise UsageError(str(exc)) from exc


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


def _convert(key, kind, val):
    """A flag's or a config file's value of setting key as its kind."""
    if kind is bool:
        return _as_bool(val, key)
    if kind in (int, float):
        return _number(val, key, kind)
    if kind is not str and val not in kind:
        label = LABELS.get(key, key)
        raise UsageError(f"unknown {label} {val!r}; use one of {', '.join(kind)}")
    return val


def _add_pipeline_flags(p):
    for key, s in SETTINGS.items():
        if s.flag:
            convert = ({"type": s.kind} if s.kind in (int, float) else
                       {"choices": s.kind} if s.kind is not str else {})
            p.add_argument("--" + key.replace("_", "-"), help=s.help, **convert)
    p.add_argument("--config", help="flat key=value config file; flags override it")
    # each route flag sets the route setting, name:arg
    route = p.add_mutually_exclusive_group()
    route.add_argument("--exact", dest="route", action="store_const", const="exact",
                       help="closed-form solve")
    route.add_argument("--series", dest="route", type="series:{}".format,
                       metavar="K", help="truncated series")
    route.add_argument("--push", dest="route", type="push:{}".format,
                       metavar="EPS", help="per-column push approximation")
    sym = p.add_mutually_exclusive_group()
    sym.add_argument("--symmetrize", dest="symmetrize", action="store_const", const=True)
    sym.add_argument("--no-symmetrize", dest="symmetrize", action="store_const", const=False)
    p.add_argument("--unweighted", action="store_const", const=True, default=None)


def parse_config(ns):
    """Resolve flags plus optional config file into a PipelineConfig.

    Defaults without any flags: self-loop symmetric transition (w = 1),
    geometric diffusion with teleport 0.15 solved in closed form (route
    exact), top-64 sparsification, symmetrization and random-walk
    renormalization. A value that does not build, or a combination of
    choices that no route runs, is a UsageError before any input is read;
    a theta file whose numbers are not a list of weights is an InputError.
    """
    file_values = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key in file_values:
        if key not in SETTINGS:
            raise UsageError(f"unknown config key {key!r}")

    # the variable stands in for a threads line that the file lacks
    file_values.setdefault("threads", os.environ.get("GRAPHDIFFUSION_THREADS", "0"))

    def get(key):
        flag = getattr(ns, key, None)
        return flag if flag is not None else file_values.get(key)

    if not get("input") or not get("output"):
        raise UsageError("--input and --output are required")
    values = {}
    for key, s in SETTINGS.items():
        val = get(key)
        choice, name = s.owner or (None, None)
        if choice and values[choice] != name:
            if val is not None:
                raise UsageError(f"{key} applies only to {choice} {name}, "
                                 f"not {values[choice]}")
        elif val is None and s.default is REQUIRED:
            raise UsageError(f"{choice} {name} requires {key}")
        elif val is None:
            val = s.default
        values[key] = None if val is None else _convert(key, s.kind, val)

    args = dict(values)
    if values["theta_file"] is not None:
        # the theta file's contents are input, so a bad weight list is E_COMPUTE
        args["theta_file"] = cf.Explicit(tuple(_read_vector(values["theta_file"])))
    # each choice builds its object from the settings it owns, and the Gdc
    # refuses a combination of choices that no route runs
    with _settings_built():
        built = {choice: SETTINGS[choice].kind[name](
            *(args[key] for key, s in SETTINGS.items() if s.owner == (choice, name)))
            for choice, name in values.items() if isinstance(SETTINGS[choice].kind, dict)}
        post = PostProcess(symmetrize=values["symmetrize"],
                           unweighted=values["unweighted"],
                           renorm=None if values["renorm"] == "none" else values["renorm"])
        gdc = Gdc(transition=built["transition"], spec=built["method"],
                  route=_parse(ROUTES, "route", values["route"]),
                  rule=_parse(RULES, "sparsify", values["sparsify"]), post=post)
    return PipelineConfig(values=values, gdc=gdc)


def _read_vector(path):
    """One number per line (a decimal or a fraction p/q), each as the exact
    Fraction it writes; '#' comments. A number must be finite as a float.
    """
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
            # float reads any exponent at once, while Fraction builds 10**E:
            # a nonzero finite float bounds E, and a decimal below the float
            # range, which float reads as 0.0, reads as 0
            out.append(Fraction(line) if v else Fraction(0))
    if not out:
        raise InputError(f"{path}: no numbers found")
    return out


def _write_vector(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{v}\n" if isinstance(v, Fraction) else f"{float(v)!r}\n")


def _is_identity_route(gdc):
    # the route sums theta_0 I alone under Series(0) or explicit weights that
    # are 0 past theta_0; theta_0 = 0 is the zero matrix, which keeps no self-loop
    alone = (isinstance(gdc.route, Series) and gdc.route.k == 0
             or isinstance(gdc.spec, cf.Explicit) and not any(gdc.spec.theta[1:]))
    return alone and cf.theta(gdc.spec, 0) != 0.0


def run_pipeline(cfg):
    """Load, diffuse, sparsify, postprocess, export. Returns the metadata."""
    timings = {}
    t0 = time.perf_counter()
    g = load_edge_list(cfg.values["input"], directed=False)
    g, index_map = largest_connected_component(g)
    timings["load"] = time.perf_counter() - t0

    if _is_identity_route(cfg.gdc):
        print("warning: diffusion weights are the identity; the output graph "
              "contains only self-loops", file=sys.stderr)

    result, certificate, eps, stage_seconds = diffuse_graph(
        g, cfg.gdc, threads=cfg.values["threads"])
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
    if cfg.values["format"] == "npz":
        # through a handle: given a path, save_npz appends '.npz' to it
        with open(cfg.values["output"], "wb") as fh:
            sp.save_npz(fh, out_graph.to_scipy())
    else:
        save_edge_list(cfg.values["output"], out_graph, sidecar=False)
    timings["export"] = time.perf_counter() - t0
    for stage, secs in timings.items():
        meta[f"stage_seconds_{stage}"] = f"{secs:.6f}"
    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    # the one sidecar write goes last so that it carries the export time
    write_meta(cfg.values["output"], edge_list_meta(out_graph, meta))
    return meta


def cmd_transform(ns):
    cfg = parse_config(ns)
    run_pipeline(cfg)
    return 0


def cmd_spectrum(ns):
    cfg = parse_config(ns)
    output = cfg.values["output"]
    g = load_edge_list(cfg.values["input"], directed=False)
    g, _ = largest_connected_component(g)
    before = eigen(laplacian(g, SYMMETRIC), source="input L_sym")

    result = diffuse_graph(g, cfg.gdc, threads=cfg.values["threads"])[0]
    if (isinstance(result, TransitionMatrix) and isinstance(result.kind, RandomWalk)
            and not result.source.directed):
        # I - T_rw of a symmetric graph shares its spectrum with the
        # symmetric normalized Laplacian of the same graph
        after = eigen(laplacian(result.source, SYMMETRIC),
                      source="output L_sym (similar to rw form)")
    else:
        # I - T, or L_sym of a graph, through its symmetric part, which is
        # the matrix itself bit for bit when the output is undirected
        lap = laplacian(result)
        after = eigen((lap + lap.T) * 0.5, source="output Laplacian (symmetrized)")

    delta = spectrum_compare(before, after)
    with open(output, "w") as fh:
        fh.write("index,lambda_before,lambda_after,delta\n")
        bs = np.sort(before.eigenvalues)
        as_ = np.sort(after.eigenvalues)
        for i, (b, a, d) in enumerate(zip(bs, as_, delta.deltas)):
            fh.write(f"{i},{float(b)!r},{float(a)!r},{float(d)!r}\n")

    grid = np.linspace(0.0, 2.0, 201)
    curve = filter_response_curve(cfg.gdc.spec, grid)
    curve_path = output + ".response.csv"
    with open(curve_path, "w") as fh:
        fh.write("lambda_L,response\n")
        for lam, resp in curve:
            fh.write(f"{float(lam)!r},{float(resp)!r}\n")
    print(f"spectrum delta l2 = {delta.l2:.6g}; curves in {output} "
          f"and {curve_path}")
    return 0


def cmd_convert_coeffs(ns):
    vec = _read_vector(ns.input)
    if ns.mode == "float":
        vec = [float(v) for v in vec]
    if ns.direction == "theta-to-xi":
        out = cf.theta_to_xi(vec, mode=ns.mode)
    else:
        out = cf.xi_to_theta(vec, mode=ns.mode)
    _write_vector(ns.output, out)
    return 0


def _add_sbm_flags(p):
    p.add_argument("--blocks", required=True, help="comma-separated sizes")
    p.add_argument("--p-in", dest="p_in", type=float, required=True)
    p.add_argument("--p-out", dest="p_out", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)


def _sbm_spec(ns):
    blocks = tuple(_number(b, "--blocks", int) for b in ns.blocks.split(","))
    with _settings_built():
        return SbmSpec(blocks, ns.p_in, ns.p_out, seed=ns.seed)


def cmd_gen_sbm(ns):
    g, labels = generate_sbm(_sbm_spec(ns))
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
    sbm = _sbm_spec(ns)
    with _settings_built():
        gdc = Gdc(spec=cf.Ppr(ns.alpha), rule=TopK(ns.topk),
                  post=PostProcess(symmetrize=True, unweighted=ns.unweighted))
        check_counts(sbm, ns.seeds, ns.clusters)
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
    _add_sbm_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_sbm)

    p = sub.add_parser("eval-cluster", help="paired clustering evaluation")
    _add_sbm_flags(p)
    p.add_argument("--seeds", type=int, default=20)
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

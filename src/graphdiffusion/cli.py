"""Command-line frontend: transform, spectrum, convert-coeffs, gen-sbm,
eval-cluster.

Exit codes: 0 success, 1 computation error, 2 I/O or usage error. Errors
print a single machine-parsable line (E_IO / E_USAGE / E_COMPUTE prefix) on
stderr. Each choice of the operator is one setting written name[:arg]:
transition, method, route and sparsify, each parsed from its table by _parse
and written to .meta by _render. transform, spectrum and the clustering arm
of eval-cluster read their settings through one table, SETTINGS: READS names
the keys each one reads, _add_setting_flags adds their flags and
parse_config builds them into one Gdc. Every subcommand builds the values of
its settings (the operator and its parts, the SBM, the counts) before it
reads input or draws a graph, and a value that does not build is a usage
error; what the input files hold (an edge list, a weight file) and what goes
wrong in the computation is E_COMPUTE. The default thread count comes from
GRAPHDIFFUSION_THREADS (0 means automatic).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, astuple, dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import coeffs as cf
from .cluster import SbmSpec, check_counts, eval_gdc_clustering, generate_sbm
from .engine import Exact, Push, Series, worker_count
from .errors import ComputeError, InputError
from .graph import (RandomWalk, SparseGraph, Symmetric, SymmetricSelfLoop,
                    TransitionMatrix, edge_list_meta, largest_connected_component,
                    load_edge_list, read_lines, save_edge_list, write_lines,
                    write_meta)
from .sparsify import Gdc, PostProcess, TargetDegree, Threshold, TopK, diffuse_graph
from .spectral import eigen, filter_response_curve, spectrum_compare, symmetric_operator

TOOL_VERSION = "0.1.0"

# One table per choice of the operator, written name[:arg]: each name maps
# to its class and the type of its argument, None for no argument. The
# argument may be left out where the class has a default for it. explicit's
# argument is a weight file, which parse_config reads; an Explicit renders
# as its weights.
TRANSITIONS = {"rw": (RandomWalk, None), "sym": (Symmetric, None),
               "symloop": (SymmetricSelfLoop, float)}
METHODS = {"ppr": (cf.Ppr, float), "heat": (cf.Heat, float),
           "explicit": (cf.Explicit, str)}
RULES = {"topk": (TopK, int), "eps": (Threshold, float),
         "degree": (TargetDegree, float)}
ROUTES = {"exact": (Exact, None), "series": (Series, int), "push": (Push, float)}
# the renorm names and the transition kind each stands for, None for none
RENORMS = {"sym": Symmetric(), "rw": RandomWalk(), "none": None}
FORMATS = ("edges", "npz")


class Setting(NamedTuple):
    """A pipeline setting: the type of its value (int, bool, str, or the
    names it may take, a tuple or a dict's keys), its default and its flag's
    help, which for a name[:arg] setting is its grammar. A setting given
    flags, (flag, value, help) each, has these in place of --KEY VALUE, as
    one exclusive group: a flag sets its value, or, for a value name:ARG,
    name and the flag's argument."""

    kind: object
    default: object = None
    help: str | None = None
    flags: tuple = ()


# Every pipeline setting, keyed by its config key, in .meta order
SETTINGS = {
    "input": Setting(str, help="edge-list file to transform"),
    "output": Setting(str, help="destination path"),
    "transition": Setting(str, "symloop", "rw, sym or symloop[:W]"),
    "method": Setting(str, "ppr", "ppr[:A], heat:T or explicit:FILE"),
    "route": Setting(str, "exact", "exact, series:K or push:EPS", flags=(
        ("--exact", "exact", "closed-form solve"),
        ("--series", "series:K", "truncated series"),
        ("--push", "push:EPS", "per-column push approximation"))),
    "sparsify": Setting(str, "topk:64", "topk:K, eps:E or degree:D"),
    "symmetrize": Setting(bool, True, flags=(("--symmetrize", True, None),
                                             ("--no-symmetrize", False, None))),
    "unweighted": Setting(bool, False, flags=(("--unweighted", True, None),)),
    "renorm": Setting(RENORMS, "rw", ", ".join(RENORMS)),
    # threads defaults to GRAPHDIFFUSION_THREADS (see parse_config)
    "threads": Setting(int, help="0 = automatic"),
    "format": Setting(FORMATS, "edges", ", ".join(FORMATS)),
}
# The settings each subcommand reads. It has no flag and no config key for
# the others, which keep their defaults, the choices of Gdc(); eval-cluster
# fixes renorm to none (build_parser), as Gdc() has it.
READS = {"transform": tuple(SETTINGS),
         "spectrum": tuple(key for key in SETTINGS if key != "format"),
         "eval-cluster": ("method", "sparsify", "unweighted", "threads")}
# the name an unknown value's message gives a setting
LABELS = {"renorm": "renormalization", "format": "output format",
          "sparsify": "sparsify rule"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageError and which takes no
    shortened flag; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


@dataclass
class PipelineConfig:
    values: dict  # config key -> resolved value, in SETTINGS order
    gdc: Gdc  # the operator the values build

    def items(self):
        """Flat key/value view used for the sidecar and the config hash."""
        kv = {k: str(v).lower() if isinstance(v, bool) else str(v)
              for k, v in self.values.items()}
        gdc = self.gdc
        kv.update(transition=_render(TRANSITIONS, gdc.transition),
                  method=_render(METHODS, gdc.spec),
                  route=_render(ROUTES, gdc.route),
                  sparsify=_render(RULES, gdc.rule))
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
    key. A name its table lacks, an argument its class does not take, an
    argument left out where the class has no default for it, or a bad
    argument is a usage error."""
    name, colon, arg = text.partition(":")
    what = LABELS.get(key, key)
    cls, kind = table.get(name, (None, None))
    if (cls is None or colon and not (kind and arg)
            or not colon and kind and fields(cls)[0].default is MISSING):
        raise UsageError(f"bad {what} {text!r}; use {SETTINGS[key].help}")
    try:
        return cls(kind(arg)) if colon else cls()
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
    """The 'key = value' lines of a config file, read by read_lines, as a
    dict; a line without '=' is a usage error naming path and line number."""
    values = {}
    for lineno, line in read_lines(path):
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


def _int(val, key):
    """val as an int; a value that does not parse is a usage error."""
    try:
        return int(val)
    except ValueError as exc:
        raise UsageError(f"bad int for {key}: {val!r}") from exc


def _convert(key, kind, val):
    """A flag's, a config file's or the thread variable's value of setting
    key as its kind."""
    if kind is bool:
        return _as_bool(val, key)
    if kind is int:
        return _int(val, key)
    if kind is not str and val not in kind:
        label = LABELS.get(key, key)
        raise UsageError(f"unknown {label} {val!r}; use one of {', '.join(kind)}")
    return val


def _add_setting_flags(p, keys):
    """The flags of the settings that keys names, each value kept as text
    for parse_config to convert, and --config where they include the input:
    a config file names a whole run, input and output included."""
    for key in keys:
        s = SETTINGS[key]
        if not s.flags:
            p.add_argument("--" + key.replace("_", "-"), help=s.help)
            continue
        group = p.add_mutually_exclusive_group()
        for flag, value, about in s.flags:
            name, colon, metavar = str(value).partition(":")
            if colon:
                group.add_argument(flag, dest=key, type=f"{name}:{{}}".format,
                                   metavar=metavar, help=about)
            else:
                group.add_argument(flag, dest=key, action="store_const", const=value,
                                   help=about)
    if "input" in keys:
        p.add_argument("--config", help="flat key=value config file; flags override it")


def parse_config(ns, keys=READS["transform"]):
    """Resolve the flags of the settings keys names, plus an optional config
    file, into a PipelineConfig.

    Defaults without any flags: transition symloop (w = 1), method ppr
    (teleport 0.15), route exact (the closed form), sparsify topk:64,
    symmetrization and random-walk renormalization. The transition, method,
    route and sparsify rule are each one name[:arg] setting, whose argument
    may be left out where its class has a default. A setting outside keys
    has no flag and no config key: it keeps its default, or the value its
    subcommand fixes with set_defaults. A config key outside keys, a value
    that does not build, a negative thread count, or a combination of
    choices that no route runs, is a UsageError before any input is read.
    The weight file of method explicit:FILE is input, read once every
    setting has built: a missing one is an OSError, and one whose numbers
    are not a list of weights is an InputError.
    """
    file_values = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key in file_values:
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")

    # the variable stands in for a threads line that the file lacks
    file_values.setdefault("threads", os.environ.get("GRAPHDIFFUSION_THREADS", "0"))

    def get(key):
        flag = getattr(ns, key, None)
        return flag if flag is not None else file_values.get(key, SETTINGS[key].default)

    if not all(get(key) for key in ("input", "output") if key in keys):
        raise UsageError("--input and --output are required")
    values = {key: _convert(key, s.kind, get(key)) for key, s in SETTINGS.items()}

    name, _, path = values["method"].partition(":")
    explicit = name == "explicit" and path
    with _settings_built():
        worker_count(values["threads"])  # refuses a negative count
        parts = dict(transition=_parse(TRANSITIONS, "transition", values["transition"]),
                     route=_parse(ROUTES, "route", values["route"]),
                     rule=_parse(RULES, "sparsify", values["sparsify"]),
                     post=PostProcess(symmetrize=values["symmetrize"],
                                      unweighted=values["unweighted"],
                                      renorm=RENORMS[values["renorm"]]))
        spec = None if explicit else _parse(METHODS, "method", values["method"])
    # the weight file is input, read once every setting has built and
    # outside the conversion: a bad weight list in it is E_COMPUTE, not E_USAGE
    spec = spec or cf.Explicit(tuple(_read_vector(path)))
    with _settings_built():
        # the Gdc refuses a combination of choices that no route runs
        gdc = Gdc(spec=spec, **parts)
    return PipelineConfig(values=values, gdc=gdc)


def _read_vector(path):
    """One number per line (a decimal or a fraction p/q), read by
    read_lines, each as the exact Fraction it writes. A number must be
    finite as a float.
    """
    out = []
    for lineno, line in read_lines(path):
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
    write_lines(path, (v if isinstance(v, Fraction) else repr(float(v))
                       for v in values))


def run_pipeline(cfg):
    """Load, diffuse, sparsify, postprocess, export. Returns the metadata."""
    timings = {}
    t0 = time.perf_counter()
    g = load_edge_list(cfg.values["input"], directed=False)
    g, index_map = largest_connected_component(g)
    timings["load"] = time.perf_counter() - t0

    result, certificate, exactness, eps, stage_seconds = diffuse_graph(
        g, cfg.gdc, threads=cfg.values["threads"])
    timings.update(stage_seconds)

    if isinstance(result, TransitionMatrix):
        out_graph = SparseGraph.from_scipy(result.matrix, directed=True,
                                           original_ids=g.original_ids,
                                           allow_loops=True)
    else:
        out_graph = result
    if out_graph.values.size and np.all(out_graph.row_idx == out_graph.column_of_entry()):
        print("warning: the output graph contains only self-loops", file=sys.stderr)

    meta = dict(cfg.items())
    meta.update({
        "epsilon_resolved": repr(eps) if eps is not None else "",
        "nodes_input": str(int(index_map.size)),
        "lcc_dropped": str(int(np.sum(index_map < 0))),
        "config_hash": cfg.config_hash(),
        "tool_version": TOOL_VERSION,
        "exactness": exactness,
    })
    for name, value in certificate.items():
        meta[f"certificate_{name}"] = repr(float(value))

    t0 = time.perf_counter()
    if cfg.values["format"] == "npz":
        # through a handle: given a path, save_npz appends '.npz' to it
        with open(cfg.values["output"], "wb") as fh:
            sp.save_npz(fh, out_graph.to_scipy())
    else:
        save_edge_list(cfg.values["output"], out_graph)
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
    cfg = parse_config(ns, READS["spectrum"])
    output = cfg.values["output"]
    g = largest_connected_component(load_edge_list(cfg.values["input"]))[0]

    def spectrum(x):
        return eigen(sp.identity(x.n, format="csc") - symmetric_operator(x))

    before = spectrum(g)
    after = spectrum(diffuse_graph(g, cfg.gdc, threads=cfg.values["threads"])[0])
    delta = spectrum_compare(before, after)
    # eigen's eigenvalues are ascending, as spectrum_compare pairs them
    write_lines(output, ["index,lambda_before,lambda_after,delta", *(
        f"{i},{float(b)!r},{float(a)!r},{float(d)!r}" for i, (b, a, d) in enumerate(
            zip(before.eigenvalues, after.eigenvalues, delta.deltas)))])

    grid = np.linspace(0.0, 2.0, 201)
    curve = filter_response_curve(cfg.gdc.spec, grid)
    curve_path = output + ".response.csv"
    write_lines(curve_path, ["lambda_L,response", *(
        f"{float(lam)!r},{float(resp)!r}" for lam, resp in curve)])
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
    blocks = tuple(_int(b, "--blocks") for b in ns.blocks.split(","))
    with _settings_built():
        return SbmSpec(blocks, ns.p_in, ns.p_out, seed=ns.seed)


def cmd_gen_sbm(ns):
    g, labels = generate_sbm(_sbm_spec(ns))
    save_edge_list(ns.output, g)
    write_meta(ns.output, edge_list_meta(g, {
        "generator": "sbm",
        "blocks": ns.blocks,
        "p_in": repr(ns.p_in),
        "p_out": repr(ns.p_out),
        "gen_seed": str(ns.seed),
    }))
    write_lines(ns.output + ".labels", labels.tolist())
    print(f"wrote {g.n} nodes, {g.edge_count} edges to {ns.output}")
    return 0


def cmd_eval_cluster(ns):
    sbm = _sbm_spec(ns)
    cfg = parse_config(ns, READS["eval-cluster"])
    with _settings_built():
        check_counts(sbm, ns.seeds, ns.clusters)
    report = eval_gdc_clustering(sbm, gdc=cfg.gdc, seeds=ns.seeds,
                                 num_clusters=ns.clusters,
                                 threads=cfg.values["threads"])
    if ns.output:
        write_lines(ns.output, ["seed,raw_accuracy,gdc_accuracy,delta", *(
            f"{sbm.seed + i},{float(r)!r},{float(a)!r},{float(a - r)!r}"
            for i, (r, a) in enumerate(zip(report.raw_acc, report.gdc_acc)))])
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
    _add_setting_flags(p, READS["transform"])
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("spectrum", help="compare spectra before/after the pipeline")
    _add_setting_flags(p, READS["spectrum"])
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
    _add_setting_flags(p, READS["eval-cluster"])
    p.add_argument("--output", help="per-seed CSV report")
    # eval_gdc_clustering embeds a graph, not a transition matrix
    p.set_defaults(func=cmd_eval_cluster, renorm="none")
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
    except OSError as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        return 2
    except (InputError, ComputeError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate ("Unable
        # to allocate ... for an array with shape (N, N) ..."); Python's own
        # carries no text
        print(f"E_COMPUTE: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

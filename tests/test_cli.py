import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import graphdiffusion
from graphdiffusion import (ComputeError, Exact, Gdc, Heat, PostProcess, Ppr, Push,
                            RandomWalk, Series, Symmetric, SymmetricSelfLoop,
                            TargetDegree, Threshold, TopK, load_edge_list,
                            truncation_k)
from graphdiffusion.cli import (METHODS, ROUTES, RULES, TRANSITIONS, UsageError,
                                _parse, _read_config_file, _read_vector, _render,
                                build_parser, main, parse_config, run_pipeline)
from graphdiffusion.graph import read_edge_list
from graphdiffusion.spectral import DENSE_EIGEN_CAP


def parse(argv):
    ns = build_parser().parse_args(["transform"] + argv)
    return parse_config(ns)


def write_k2(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("0 1\n")
    return str(path)


class TestParseConfig:
    def test_defaults(self, tmp_path):
        cfg = parse(["--input", "a", "--output", "b"])
        assert isinstance(cfg.gdc.transition, SymmetricSelfLoop)
        assert cfg.gdc.transition.w_loop == 1.0
        assert cfg.gdc.spec == Ppr(0.15)
        assert cfg.gdc.route == Exact()
        assert cfg.gdc.rule == TopK(64)
        assert cfg.gdc.post.symmetrize is True
        assert cfg.gdc.post.unweighted is False
        assert cfg.gdc.post.renorm == RandomWalk()

    def test_heat_threshold_combo(self):
        cfg = parse(["--input", "a", "--output", "b", "--method", "heat:5",
                     "--sparsify", "eps:0.0001"])
        assert cfg.gdc.spec == Heat(5.0)
        assert cfg.gdc.rule == Threshold(0.0001)

    def test_degree_rule(self):
        cfg = parse(["--input", "a", "--output", "b", "--sparsify", "degree:64"])
        assert cfg.gdc.rule == TargetDegree(64.0)

    def test_heat_needs_t(self):
        with pytest.raises(UsageError):
            parse(["--input", "a", "--output", "b", "--method", "heat"])

    def test_wloop_needs_symloop(self):
        with pytest.raises(UsageError, match="bad transition 'rw:2'"):
            parse(["--input", "a", "--output", "b", "--transition", "rw:2"])

    def test_push_needs_random_walk(self):
        with pytest.raises(UsageError, match="random-walk transition"):
            parse(["--input", "a", "--output", "b", "--push", "1e-4"])

    def test_push_on_symloop_names_the_transition_flag(self, tmp_path, capsys):
        out = tmp_path / "o.txt"
        assert main(["transform", "--input", str(tmp_path / "missing.txt"),
                     "--output", str(out), "--push", "1e-4"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: push requires the column-stochastic random-walk transition "
            "matrix (--transition rw)"]
        assert not out.exists()

    # the route is one setting, route = name[:arg]: the keys that once held
    # it and its argument are unknown
    @pytest.mark.parametrize("flags,conf,message", [
        ([], "series_k = 5", "unknown config key 'series_k'"),
        ([], "mode = exact\neps_push = 1e-4", "unknown config key 'mode'"),
        (["--series", "12"], "eps_push = 1e-4", "unknown config key 'eps_push'")],
        ids=["series_k-alone", "exact-eps_push", "series-flag-eps_push"])
    def test_unused_route_setting_is_usage_error(self, tmp_path, capsys, flags,
                                                 conf, message):
        out = tmp_path / "out.txt"
        config = tmp_path / "run.conf"
        config.write_text(f"input = {write_k2(tmp_path)}\noutput = {out}\n{conf}\n")
        assert main(["transform", "--config", str(config)] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("conf,flags,route", [
        ("route = push:1e-4", ["--push", "1e-3"], Push(1e-3)),
        ("route = push:1e-4", [], Push(1e-4)),
        ("route = series:5", ["--series", "12"], Series(12)),
        ("route = series:5", [], Series(5))],
        ids=["push-flag", "push-file", "series-flag", "series-file"])
    def test_route_flag_overrides_file_argument(self, tmp_path, conf, flags, route):
        config = tmp_path / "run.conf"
        config.write_text(conf + "\n")
        assert parse(["--input", "a", "--output", "b", "--transition", "rw",
                      "--config", str(config)] + flags).gdc.route == route

    @pytest.mark.parametrize("flags,route", [
        ([], "exact"), (["--series", "0"], "series:0"),
        (["--series", "12"], "series:12"),
        (["--transition", "rw", "--push", "1e-4"], "push:0.0001")],
        ids=["exact", "series-0", "series-12", "push"])
    def test_route_sidecar_keys(self, flags, route):
        items = parse(["--input", "a", "--output", "b"] + flags).items()
        assert items["route"] == route
        assert not {"mode", "series_k", "eps_push"} & set(items)

    # a route without its argument is among the owned-setting cases below
    @pytest.mark.parametrize("line,message", [
        ("route = exact:1", "bad route 'exact:1'; use exact, series:K or push:EPS"),
        ("route = ppr", "bad route 'ppr'; use exact, series:K or push:EPS"),
        ("route = series:1.5",
         "bad route 'series:1.5': invalid literal for int() with base 10: '1.5'")],
        ids=["exact-arg", "name", "series-float"])
    def test_bad_route_setting_is_one_usage_line(self, tmp_path, capsys, line,
                                                 message):
        out = tmp_path / "out.txt"
        config = tmp_path / "run.conf"
        config.write_text(f"input = {write_k2(tmp_path)}\noutput = {out}\n"
                          f"transition = rw\n{line}\n")
        assert main(["transform", "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert not out.exists()

    # each name[:arg] table with the key of its setting; an argument of each
    # type that every class of the table accepts
    TABLES = {"transition": TRANSITIONS, "method": METHODS, "route": ROUTES,
              "sparsify": RULES}
    SAMPLE_ARGS = {int: 3, float: 0.1, None: None}

    @pytest.mark.parametrize("key,name", [
        (key, name) for key, table in TABLES.items() for name in table
        if name != "explicit"])  # explicit's argument names a file
    def test_name_arg_table_round_trips(self, key, name):
        table = self.TABLES[key]
        cls, kind = table[name]
        arg = self.SAMPLE_ARGS[kind]
        obj = cls() if arg is None else cls(arg)
        text = _render(table, obj)
        assert text == (name if arg is None else f"{name}:{arg!r}")
        assert _parse(table, key, text) == obj

    @pytest.mark.parametrize("key,text,default", [
        ("transition", "symloop", SymmetricSelfLoop(1.0)),
        ("method", "ppr", Ppr(0.15))])
    def test_bare_name_is_the_class_default(self, key, text, default):
        assert _parse(self.TABLES[key], key, text) == default

    # an argument left out where the class has no default, or given where
    # the class takes none
    @pytest.mark.parametrize("line,message", [
        ("method = heat", "bad method 'heat'; use ppr[:A], heat:T or explicit:FILE"),
        ("route = series", "bad route 'series'; use exact, series:K or push:EPS"),
        ("sparsify = topk", "bad sparsify rule 'topk'; use topk:K, eps:E or degree:D"),
        ("transition = rw:1", "bad transition 'rw:1'; use rw, sym or symloop[:W]"),
        ("route = exact:1", "bad route 'exact:1'; use exact, series:K or push:EPS"),
        ("transition = symloop:",
         "bad transition 'symloop:'; use rw, sym or symloop[:W]"),
        ("method = explicit:",
         "bad method 'explicit:'; use ppr[:A], heat:T or explicit:FILE")],
        ids=["heat", "series", "topk", "rw-1", "exact-1", "symloop-empty",
             "explicit-empty"])
    def test_missing_or_extra_argument_is_one_usage_line(self, tmp_path, capsys,
                                                         line, message):
        # the input does not exist, so reading it first would exit 2 with E_IO
        out = tmp_path / "o.txt"
        config = tmp_path / "run.conf"
        config.write_text(f"input = {tmp_path / 'missing.txt'}\noutput = {out}\n"
                          f"{line}\n")
        assert main(["transform", "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags,line,message", [
        (["--alpha", "0.2"], "", "unrecognized arguments: --alpha 0.2"),
        (["--t", "3"], "", "unrecognized arguments: --t 3"),
        (["--wloop", "2"], "", "unrecognized arguments: --wloop 2"),
        (["--theta-file", "w.txt"], "", "unrecognized arguments: --theta-file w.txt"),
        ([], "alpha = 0.2", "unknown config key 'alpha'"),
        ([], "t = 3", "unknown config key 't'"),
        ([], "wloop = 2", "unknown config key 'wloop'"),
        ([], "theta_file = w.txt", "unknown config key 'theta_file'")],
        ids=["alpha-flag", "t-flag", "wloop-flag", "theta-file-flag", "alpha-key",
             "t-key", "wloop-key", "theta_file-key"])
    def test_removed_setting_is_one_usage_line(self, tmp_path, capsys, flags, line,
                                               message):
        out = tmp_path / "o.txt"
        config = tmp_path / "run.conf"
        config.write_text(f"input = {tmp_path / 'missing.txt'}\noutput = {out}\n"
                          f"{line}\n")
        assert main(["transform", "--config", str(config)] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,line,env", [
        ("transform", ["--threads", "-3"], "", None),
        ("transform", [], "threads = -3", None),
        ("transform", [], "", "-3"),
        ("eval-cluster", ["--threads", "-3"], None, None),
        ("eval-cluster", [], None, "-3")],
        ids=["flag", "config", "variable", "eval-cluster-flag", "eval-cluster-variable"])
    def test_negative_threads_is_usage_error_before_input(self, tmp_path, capsys,
                                                          monkeypatch, command,
                                                          flags, line, env):
        import graphdiffusion.cluster as cluster
        drawn = []
        monkeypatch.setattr(cluster, "generate_sbm", lambda spec: drawn.append(spec))
        if env is None:
            monkeypatch.delenv("GRAPHDIFFUSION_THREADS", raising=False)
        else:
            monkeypatch.setenv("GRAPHDIFFUSION_THREADS", env)
        out = tmp_path / "o.txt"
        if command == "transform":
            config = tmp_path / "run.conf"
            config.write_text(f"input = {tmp_path / 'missing.txt'}\noutput = {out}\n"
                              f"{line}\n")
            argv = ["transform", "--config", str(config)]
        else:
            argv = ["eval-cluster", "--blocks", "10,10", "--p-in", "0.5",
                    "--p-out", "0.1", "--output", str(out)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: thread count must be non-negative, got -3"]
        assert drawn == [] and not out.exists()

    def test_paths_required(self):
        with pytest.raises(UsageError):
            parse(["--input", "a"])

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "input = in.txt\noutput = out.txt\nmethod = heat:3\n"
            "sparsify = eps:0.001\nsymmetrize = false\nrenorm = none\n")
        cfg = parse(["--config", str(conf)])
        assert cfg.gdc.spec == Heat(3.0)
        assert cfg.gdc.post.symmetrize is False
        assert cfg.gdc.post.renorm is None
        cfg = parse(["--config", str(conf), "--method", "heat:7", "--renorm", "sym"])
        assert cfg.gdc.spec == Heat(7.0)
        assert cfg.gdc.post.renorm == Symmetric()

    def test_seed_is_not_a_transform_setting(self, tmp_path, capsys):
        # every route is deterministic; only gen-sbm and eval-cluster draw
        out = tmp_path / "out.txt"
        conf = tmp_path / "run.conf"
        conf.write_text(f"input = {write_k2(tmp_path)}\noutput = {out}\nseed = 3\n")
        assert main(["transform", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: unknown config key 'seed'"]
        assert main(["transform", "--input", write_k2(tmp_path), "--output",
                     str(out), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: unrecognized arguments")
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("inptu = x\n")
        with pytest.raises(UsageError, match="unknown config key"):
            parse(["--config", str(conf)])

    @pytest.mark.parametrize("line,what", [("format = csv", "output format"),
                                           ("renorm = bogus", "renormalization")])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, line, what):
        inp = write_k2(tmp_path)
        out = tmp_path / "out.txt"
        conf = tmp_path / "run.conf"
        conf.write_text(f"input = {inp}\noutput = {out}\n{line}\n")
        assert main(["transform", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.startswith(f"E_USAGE: unknown {what}")
        assert not out.exists()

    @pytest.mark.parametrize("command,line,message", [
        ("transform", "method = ppr:abc",
         "bad method 'ppr:abc': could not convert string to float: 'abc'"),
        ("transform", "threads = two", "bad int for threads: 'two'"),
        ("gen-sbm", None, "bad int for --blocks: 'abc'"),
        ("eval-cluster", None, "bad int for --blocks: 'abc'"),
        ("transform", "symmetrize = maybe", "bad boolean for symmetrize: 'maybe'")],
        ids=["alpha", "threads", "gen-sbm", "eval-cluster", "symmetrize"])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, command, line,
                                       message):
        out = tmp_path / "out.txt"
        if line is None:
            argv = [command, "--blocks", "40,abc", "--p-in", "0.5",
                    "--p-out", "0.1", "--output", str(out)]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"input = {write_k2(tmp_path)}\noutput = {out}\n"
                            f"{line}\n")
            argv = [command, "--config", str(conf)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert not out.exists()

    def test_bad_threads_variable_is_usage_error(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("GRAPHDIFFUSION_THREADS", "two")
        out = tmp_path / "out.txt"
        assert main(["transform", "--input", write_k2(tmp_path),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: bad int for threads: 'two'"]
        assert main(["eval-cluster", "--blocks", "10,10", "--p-in", "0.5",
                     "--p-out", "0.1", "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: bad int for threads: 'two'"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,threads,message", [
        (["eval-cluster", "--blocks", "10,10", "--p-in", "0.5", "--p-out", "abc"],
         None, "argument --p-out: invalid float value: 'abc'"),
        (["eval-cluster", "--blocks", "10,10", "--p-in", "0.5", "--p-out", "0.1",
          "--seeds", "x"], None, "argument --seeds: invalid int value: 'x'"),
        (["transform", "--input", "x", "--output", "y", "--bogus"], None,
         "unrecognized arguments: --bogus"),
        # a prefix of a flag is not that flag
        (["transform", "--input", "x", "--output", "y", "--spars", "topk:3"], None,
         "unrecognized arguments: --spars topk:3"),
        (["transform", "--input", "x", "--output", "y", "--exact", "--push",
          "1e-4"], None, "argument --push: not allowed with argument --exact"),
        (["eval-cluster", "--blocks", "10,10", "--p-in", "0.5", "--p-out", "0.1"],
         "two", "bad int for threads: 'two'")],
        ids=["float", "int", "unknown-flag", "abbreviated-flag", "exclusive-modes",
             "threads-variable"])
    def test_argument_error_is_one_usage_line(self, capsys, monkeypatch, argv,
                                              threads, message):
        if threads is not None:
            monkeypatch.setenv("GRAPHDIFFUSION_THREADS", threads)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]

    def test_help_exits_0(self, capsys):
        assert main(["transform", "--help"]) == 0
        assert "--push" in capsys.readouterr().out

    def test_hash_stable_and_sensitive(self):
        a = parse(["--input", "a", "--output", "b"])
        b = parse(["--input", "a", "--output", "b"])
        c = parse(["--input", "a", "--output", "b", "--method", "ppr:0.2"])
        # a left-out argument is its class's default, so the hash is the same
        d = parse(["--input", "a", "--output", "b", "--method", "ppr:0.15",
                   "--transition", "symloop:1"])
        assert a.config_hash() == b.config_hash() == d.config_hash()
        assert a.config_hash() != c.config_hash()

    DEFAULT_ITEMS = {
        "input": "a", "output": "b", "transition": "symloop:1.0",
        "method": "ppr:0.15", "route": "exact", "sparsify": "topk:64",
        "symmetrize": "true", "unweighted": "false", "renorm": "rw",
        "threads": "0", "format": "edges"}

    # between them the flags set every setting; conf holds the same values
    @pytest.mark.parametrize("flags,conf,changed", [
        ([], "", {}),
        (["--transition", "symloop:2", "--method", "heat:3", "--series", "0",
          "--format", "npz", "--threads", "1"],
         "transition = symloop:2\nmethod = heat:3\nroute = series:0\n"
         "format = npz\nthreads = 1",
         {"transition": "symloop:2.0", "method": "heat:3.0",
          "route": "series:0", "format": "npz", "threads": "1"}),
        (["--transition", "rw", "--push", "1e-4"],
         "transition = rw\nroute = push:1e-4",
         {"transition": "rw", "route": "push:0.0001"}),
        # an explicit method renders as the weights its file held
        (["--method", "explicit:THETA", "--exact",
          "--sparsify", "degree:8", "--symmetrize", "--renorm", "none"],
         "method = explicit:THETA\nroute = exact\n"
         "sparsify = degree:8\nsymmetrize = true\nrenorm = none",
         {"method": "explicit:(0.5, 0.25)", "sparsify": "degree:8.0",
          "renorm": "none"}),
        (["--method", "ppr:0.2", "--sparsify", "eps:1e-3", "--no-symmetrize",
          "--unweighted", "--renorm", "sym", "--format", "edges"],
         "method = ppr:0.2\nsparsify = eps:1e-3\nsymmetrize = false\n"
         "unweighted = true\nrenorm = sym\nformat = edges",
         {"method": "ppr:0.2", "sparsify": "eps:0.001", "symmetrize": "false",
          "unweighted": "true", "renorm": "sym"})],
        ids=["defaults", "symloop-series", "rw-push", "explicit", "ppr-post"])
    def test_meta_items_pinned(self, tmp_path, monkeypatch, flags, conf, changed):
        monkeypatch.delenv("GRAPHDIFFUSION_THREADS", raising=False)
        theta = tmp_path / "theta.txt"
        theta.write_text("0.5\n0.25\n")
        flags = [f.replace("THETA", str(theta)) for f in flags]
        config = tmp_path / "run.conf"
        config.write_text(f"input = a\noutput = b\n"
                          f"{conf.replace('THETA', str(theta))}\n")
        expected = dict(self.DEFAULT_ITEMS, **changed)
        by_flag = parse(["--input", "a", "--output", "b"] + flags)
        by_file = parse(["--config", str(config)])
        assert list(by_flag.items().items()) == list(expected.items())
        assert list(by_file.items().items()) == list(expected.items())
        assert by_file.config_hash() == by_flag.config_hash()

    # The settings a choice once owned (wloop, alpha, t, theta_file) are the
    # argument of that choice now, name[:arg]: the old flags and keys are
    # unknown, an argument given to a choice that takes none is a usage
    # error, and so is one left out where the class has no default for it.
    @pytest.mark.parametrize("flags,conf,message", [
        (["--transition", "rw:2"], "",
         "bad transition 'rw:2'; use rw, sym or symloop[:W]"),
        ([], "transition = sym:2",
         "bad transition 'sym:2'; use rw, sym or symloop[:W]"),
        (["--method", "heat:2", "--alpha", "0.1"], "",
         "unrecognized arguments: --alpha 0.1"),
        ([], "method = explicit:THETA\nalpha = 0.1", "unknown config key 'alpha'"),
        (["--t", "2"], "", "unrecognized arguments: --t 2"),
        ([], "method = explicit:THETA\nt = 1", "unknown config key 't'"),
        (["--theta-file", "THETA"], "", "unrecognized arguments: --theta-file THETA"),
        ([], "method = heat:1\ntheta_file = THETA",
         "unknown config key 'theta_file'"),
        (["--method", "heat"], "",
         "bad method 'heat'; use ppr[:A], heat:T or explicit:FILE"),
        ([], "method = explicit",
         "bad method 'explicit'; use ppr[:A], heat:T or explicit:FILE"),
        ([], "transition = rw\nroute = push",
         "bad route 'push'; use exact, series:K or push:EPS"),
        ([], "route = series", "bad route 'series'; use exact, series:K or push:EPS")],
        ids=["wloop-flag", "wloop-file", "alpha-flag", "alpha-file", "t-flag",
             "t-file", "theta_file-flag", "theta_file-file",
             "heat-requires-t", "explicit-requires-theta_file",
             "push-requires-eps_push", "series-requires-series_k"])
    def test_owned_setting_under_another_choice(self, tmp_path, capsys, flags,
                                                conf, message):
        theta = tmp_path / "theta.txt"
        theta.write_text("0.5\n0.25\n")
        flags = [str(theta) if f == "THETA" else f for f in flags]
        out = tmp_path / "out.txt"
        config = tmp_path / "run.conf"
        config.write_text(f"input = {write_k2(tmp_path)}\noutput = {out}\n"
                          f"{conf.replace('THETA', str(theta))}\n")
        assert main(["transform", "--config", str(config)] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"E_USAGE: {message.replace('THETA', str(theta))}"]
        assert not out.exists()


class TestTransform:
    def test_k2_threshold_keeps_diag_and_offdiag(self, tmp_path):
        inp = write_k2(tmp_path)
        out = str(tmp_path / "out.txt")
        rc = main(["transform", "--input", inp, "--output", out,
                   "--transition", "rw", "--method", "ppr:0.5",
                   "--sparsify", "eps:0.3", "--no-symmetrize",
                   "--renorm", "none"])
        assert rc == 0
        g = load_edge_list(out, directed=True, allow_self_loops=True)
        arr = g.to_scipy().toarray()
        np.testing.assert_allclose(arr, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
                                   atol=1e-9)

    def test_identity_weights_warn(self, tmp_path, capsys):
        inp = write_k2(tmp_path)
        theta = tmp_path / "theta.txt"
        theta.write_text("1.0\n")
        out = str(tmp_path / "out.txt")
        rc = main(["transform", "--input", inp, "--output", out,
                   "--method", f"explicit:{theta}",
                   "--sparsify", "eps:0.5", "--no-symmetrize",
                   "--renorm", "none"])
        assert rc == 0
        assert "self-loops" in capsys.readouterr().err
        g = load_edge_list(out, directed=True, allow_self_loops=True)
        np.testing.assert_allclose(g.to_scipy().toarray(), np.eye(2))

    @pytest.mark.parametrize("method", [[], ["--method", "heat:3"]],
                             ids=["ppr", "heat"])
    def test_series_zero_warns(self, tmp_path, capsys, method):
        # Series(0) sums theta_0 I alone under every method
        inp = str(tmp_path / "g.txt")
        assert main(["gen-sbm", "--blocks", "30,30", "--p-in", "0.3",
                     "--p-out", "0.05", "--seed", "1", "--output", inp]) == 0
        capsys.readouterr()
        out = tmp_path / "out.txt"
        rc = main(["transform", "--input", inp, "--output", str(out),
                   "--series", "0"] + method)
        assert rc == 0
        assert "self-loops" in capsys.readouterr().err
        lines = [ln.split() for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 60 and all(u == v for u, v, *_ in lines)

    def test_top1_self_loops_warn(self, tmp_path, capsys):
        # the diagonal is the heaviest entry of every PPR column, so topk:1
        # keeps self-loops alone; the warning reads the output graph
        inp = str(tmp_path / "g.txt")
        assert main(["gen-sbm", "--blocks", "30,30", "--p-in", "0.3",
                     "--p-out", "0.05", "--seed", "1", "--output", inp]) == 0
        capsys.readouterr()
        out = tmp_path / "out.txt"
        assert main(["transform", "--input", inp, "--output", str(out),
                     "--sparsify", "topk:1"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: the output graph contains only self-loops"]
        lines = [ln.split() for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 60 and all(u == v for u, v, *_ in lines)
        # topk:2 keeps a neighbour too, and no warning is printed
        assert main(["transform", "--input", inp, "--output", str(out),
                     "--sparsify", "topk:2"]) == 0
        assert capsys.readouterr().err == ""

    def test_zero_degree_error_names_input_ids(self, tmp_path, capsys):
        # heat at t = 800 underflows theta_0, so Series(0) is the zero
        # matrix and every node of the 60-node graph loses its edges
        inp = tmp_path / "g.txt"
        assert main(["gen-sbm", "--blocks", "30,30", "--p-in", "0.3",
                     "--p-out", "0.05", "--seed", "1", "--output", str(inp)]) == 0
        capsys.readouterr()
        shifted = tmp_path / "shifted.txt"
        shifted.write_text("".join(
            f"{int(u) + 100} {int(v) + 100} {w}\n" for u, v, w in
            (ln.split() for ln in inp.read_text().splitlines()
             if ln and not ln.startswith("#"))))
        rc = main(["transform", "--input", str(shifted), "--output",
                   str(tmp_path / "o.txt"), "--method", "heat:800",
                   "--series", "0"])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_COMPUTE: node 100 has degree 0 (60 ")
        assert line.endswith("100, 101, 102, 103, 104, ...)")
        assert len(line) <= 200

    @pytest.mark.parametrize("flags,conf,theta,rc,message", [
        ([], "route exact", None, 2, "E_USAGE: CONF:2: expected 'key = value'"),
        (["--sparsify", "top:3"], "", None, 2,
         "E_USAGE: bad sparsify rule 'top:3'; use topk:K, eps:E or degree:D"),
        (["--method", "explicit:THETA"], "", "# none\n", 1,
         "E_COMPUTE: THETA: no numbers found"),
        # the weights are the file's contents, not a setting's value
        (["--method", "explicit:THETA"], "", "0.75\n3/4\n", 1,
         "E_COMPUTE: explicit weights must sum to at most 1")],
        ids=["config-line", "rule-name", "empty-theta", "theta-sum"])
    def test_malformed_setting_fails_before_input(self, tmp_path, capsys, flags,
                                                  conf, theta, rc, message):
        config = tmp_path / "run.conf"
        config.write_text(f"output = {tmp_path / 'o.txt'}\n{conf}\n")
        path = tmp_path / "theta.txt"
        if theta is not None:
            path.write_text(theta)
        flags = [f.replace("THETA", str(path)) for f in flags]
        assert main(["transform", "--input", str(tmp_path / "missing.txt"),
                     "--config", str(config)] + flags) == rc
        assert capsys.readouterr().err.splitlines() == [
            message.replace("CONF", str(config)).replace("THETA", str(path))]
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--threads", "-3"], "thread count must be non-negative, got -3"),
        (["--sparsify", "top:3"],
         "bad sparsify rule 'top:3'; use topk:K, eps:E or degree:D")],
        ids=["threads", "rule"])
    def test_setting_checked_before_weight_file(self, tmp_path, capsys, flags,
                                                message):
        # the weight file is input too, read once every setting has built
        theta = tmp_path / "theta.txt"
        theta.write_text("# none\n")
        out = tmp_path / "o.txt"
        assert main(["transform", "--input", str(tmp_path / "missing.txt"),
                     "--output", str(out), "--method", f"explicit:{theta}"]
                    + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert not out.exists()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        rc = main(["transform", "--input", str(tmp_path / "nope.txt"),
                   "--output", str(tmp_path / "o.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("E_IO:")

    @pytest.mark.parametrize("bad", ["a b", "0 1 x"])
    def test_malformed_edge_line_exit_1(self, tmp_path, capsys, bad):
        inp = tmp_path / "g.txt"
        inp.write_text(f"0 1\n1 2\n{bad}\n")
        rc = main(["transform", "--input", str(inp),
                   "--output", str(tmp_path / "o.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"E_COMPUTE: {inp}:3: expected 'src dst [weight]'"]

    @pytest.mark.parametrize("big", ["99999999999999999999",
                                     "-99999999999999999999"])
    def test_id_beyond_int64_exit_1(self, tmp_path, capsys, big):
        inp = tmp_path / "g.txt"
        inp.write_text(f"0 1\n1 {big}\n")
        rc = main(["transform", "--input", str(inp),
                   "--output", str(tmp_path / "o.txt")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"E_COMPUTE: node id does not fit in int64 in edge (1, {big}, 1.0)"]

    def test_compute_error_exit_1(self, tmp_path, capsys):
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n")
        rc = main(["transform", "--input", str(inp),
                   "--output", str(tmp_path / "o.txt"),
                   "--sparsify", "eps:2.0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("E_COMPUTE:")

    def test_degree_on_zero_diffusion_exit_1(self, tmp_path, capsys):
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n2 3\n3 0\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("0\n")
        rc = main(["transform", "--input", str(inp),
                   "--output", str(tmp_path / "o.txt"), "--method", f"explicit:{theta}",
                   "--sparsify", "degree:4"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "E_COMPUTE: the diffusion has no positive entry; "
            "no threshold gives average degree 4"]

    @pytest.mark.parametrize("flags,conf", [
        (["--push", "-1"], ""),
        (["--push", "nan"], ""),
        ([], "route = push:0\n"),
    ])
    def test_bad_push_tolerance_fails_before_input(self, tmp_path, capsys,
                                                   flags, conf):
        self._fails_before_input(tmp_path, capsys, flags, conf, "push",
                                 "push tolerance must be positive")

    @pytest.mark.parametrize("flags,conf", [
        (["--series", "-1"], ""),
        ([], "route = series:-2\n"),
    ])
    def test_bad_series_order_fails_before_input(self, tmp_path, capsys,
                                                 flags, conf):
        self._fails_before_input(tmp_path, capsys, flags, conf, "series",
                                 "series order must be non-negative")

    @pytest.mark.parametrize("flags,message", [
        (["--method", "heat:inf"],
         "E_USAGE: bad method 'heat:inf': diffusion time must be a finite number, "
         "got inf"),
        (["--transition", "rw", "--push", "inf"],
         "E_USAGE: bad route 'push:inf': push tolerance must be a finite number, "
         "got inf"),
        (["--transition", "symloop:inf"],
         "E_USAGE: bad transition 'symloop:inf': self-loop weight must be a "
         "finite number, got inf"),
        (["--sparsify", "eps:inf"],
         "E_USAGE: bad sparsify rule 'eps:inf': "
         "threshold must be a finite number, got inf")],
        ids=["heat-t", "push", "wloop", "eps"])
    def test_infinite_setting_fails_before_input(self, tmp_path, capsys, flags,
                                                 message):
        # heat at t = inf never stopped: its series order had no finite bound
        out = tmp_path / "o.txt"
        rc = main(["transform", "--input", str(tmp_path / "missing.txt"),
                   "--output", str(out)] + flags)
        assert rc == (2 if message.startswith("E_USAGE") else 1)
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @staticmethod
    def _fails_before_input(tmp_path, capsys, flags, conf, route, reason):
        # the input does not exist, so reading it first would exit 2 with E_IO
        config = tmp_path / "run.conf"
        config.write_text(conf)
        rc = main(["transform", "--input", str(tmp_path / "missing.txt"),
                   "--output", str(tmp_path / "o.txt"), "--transition", "rw",
                   "--config", str(config)] + flags)
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"E_USAGE: bad route '{route}:")
        assert f"': {reason}, got " in line
        assert not (tmp_path / "o.txt").exists()

    def test_usage_error_exit_2(self, tmp_path, capsys):
        rc = main(["transform", "--input", "a", "--output", "b",
                   "--method", "heat"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("E_USAGE:")

    def test_metadata_sidecar_provenance(self, tmp_path):
        inp = write_k2(tmp_path)
        out = str(tmp_path / "out.txt")
        main(["transform", "--input", inp, "--output", out,
              "--sparsify", "degree:1.5"])
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / "out.txt.meta").read_text().splitlines())
        assert meta["method"] == "ppr:0.15"
        assert not {"alpha", "t", "w_loop", "theta"} & set(meta)
        assert meta["sparsify"].startswith("degree:")
        assert float(meta["epsilon_resolved"]) > 0
        assert "seed" not in meta
        assert len(meta["config_hash"]) == 64
        assert "stage_seconds_diffuse" in meta

    def test_pipeline_matches_manual_composition(self, tmp_path):
        from graphdiffusion import (PostProcess, SparseGraph, SymmetricSelfLoop,
                                    diffuse, largest_connected_component,
                                    postprocess, sparsify,
                                    transition_matrix)
        inp = tmp_path / "g.txt"
        edges = [(i, j) for i in range(9) for j in range(i + 1, 9)
                 if (i * 7 + j) % 4]
        inp.write_text("".join(f"{i} {j}\n" for i, j in edges))
        out = str(tmp_path / "out.txt")
        main(["transform", "--input", str(inp), "--output", out,
              "--method", "ppr:0.2", "--sparsify", "topk:4"])
        got = load_edge_list(out, directed=True, allow_self_loops=True)

        g = load_edge_list(str(inp))
        g, _ = largest_connected_component(g)
        t = transition_matrix(g, SymmetricSelfLoop(1.0))
        s = diffuse(t, Ppr(0.2), Exact())
        manual = postprocess(sparsify(s, TopK(4)),
                             PostProcess(symmetrize=True, renorm=RandomWalk()))
        np.testing.assert_array_equal(got.to_scipy().toarray(),
                                      manual.matrix.toarray())

    def test_determinism_byte_identical(self, tmp_path):
        inp = write_k2(tmp_path)
        out1 = tmp_path / "o1.txt"
        out2 = tmp_path / "o2.txt"
        for out in (out1, out2):
            main(["transform", "--input", inp, "--output", str(out),
                  "--sparsify", "topk:2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_npz_output(self, tmp_path):
        import scipy.sparse as sp
        inp = write_k2(tmp_path)
        out = str(tmp_path / "out.npz")
        rc = main(["transform", "--input", inp, "--output", out,
                   "--format", "npz", "--sparsify", "topk:2",
                   "--no-symmetrize", "--renorm", "none"])
        assert rc == 0
        m = sp.load_npz(out)
        assert m.shape == (2, 2)

    def test_npz_written_at_output_path(self, tmp_path):
        import scipy.sparse as sp
        inp = write_k2(tmp_path)
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            rc = main(["transform", "--input", inp, "--output", str(out),
                       "--format", "npz", "--sparsify", "topk:2"])
            assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "k2.txt", "o1", "o1.meta", "o2", "o2.meta"]
        assert sp.load_npz(outs[0]).shape == (2, 2)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("fmt", ["edges", "npz"])
    def test_original_ids_in_sidecar(self, tmp_path, fmt):
        inp = tmp_path / "g.txt"
        inp.write_text("10 20\n20 30\n30 40\n40 10\n")
        out = tmp_path / f"out.{fmt}"
        rc = main(["transform", "--input", inp.as_posix(), "--output", str(out),
                   "--format", fmt, "--sparsify", "topk:3"])
        assert rc == 0
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / f"out.{fmt}.meta").read_text().splitlines())
        assert meta["id_map"] == "10,20,30,40"
        assert meta["nodes"] == "4"

    def test_push_mode_pipeline(self, tmp_path):
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n2 0\n")
        out = str(tmp_path / "out.txt")
        rc = main(["transform", "--input", inp.as_posix(), "--output", out,
                   "--transition", "rw", "--method", "ppr:0.5", "--push", "1e-8",
                   "--sparsify", "topk:3", "--no-symmetrize",
                   "--renorm", "none"])
        assert rc == 0
        g = load_edge_list(out, directed=True, allow_self_loops=True)
        np.testing.assert_allclose(g.to_scipy().toarray(),
                                   0.4 * np.eye(3) + 0.2, atol=1e-5)

    @pytest.mark.parametrize("transition", ["rw", "symloop"])
    def test_heat_push_fails_before_input(self, tmp_path, capsys, transition):
        # push is PPR only: heat is summed by --series K or --exact
        out = tmp_path / "o.txt"
        rc = main(["transform", "--input", str(tmp_path / "missing.txt"),
                   "--output", str(out), "--method", "heat:3",
                   "--transition", transition, "--push", "1e-4"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E_USAGE: push runs geometric")
        assert "--series K" in err[0] and "--exact" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra,keys", [
        ([], ["certificate_residual_max", "certificate_l1_error_max"]),
        (["--method", "heat:3", "--exact"],
         ["certificate_tail_mass", "certificate_l1_error_max"]),
        (["--series", "5"], ["certificate_tail_mass", "certificate_l1_error_max"]),
        # the order whose tail is below 1e-4: the tail bounds each column's
        # L1 error on the random walk
        (["--method", "heat:3", "--transition", "rw", "--series",
          str(truncation_k(Heat(3.0), 1e-4))],
         ["certificate_tail_mass", "certificate_l1_error_max"]),
        (["--transition", "rw", "--push", "1e-6"],
         ["certificate_residual_l1_max", "certificate_support_mean",
          "certificate_touched_mean", "certificate_drain_rounds_mean",
          "certificate_l1_error_max"]),
    ])
    def test_sidecar_certificate_and_export_time(self, tmp_path, extra, keys):
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n2 0\n2 3\n")
        out = tmp_path / "out.txt"
        rc = main(["transform", "--input", inp.as_posix(), "--output", str(out),
                   "--sparsify", "topk:3"] + extra)
        assert rc == 0
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / "out.txt.meta").read_text().splitlines())
        for key in keys:
            assert 0.0 <= float(meta[key]) < 1e6
        assert float(meta["stage_seconds_export"]) >= 0.0
        assert meta["nodes"] == "4"
        assert meta["id_map"] == "0,1,2,3"

    @pytest.mark.parametrize("extra,exactness,bound", [
        ([], "exact", None),
        # heat under --exact runs the series to a tail below 1e-12
        (["--method", "heat:3", "--exact"],
         f"series:{truncation_k(Heat(3.0), 1e-12)}", None),
        (["--series", "5"], "series:5", None),
        (["--transition", "rw", "--series", "5"], "series:5", "tail_mass"),
        (["--transition", "rw", "--push", "1e-6"], "push:1e-06", "residual_l1_max"),
    ], ids=["exact", "heat-exact", "series", "rw-series", "push"])
    def test_sidecar_names_the_route_that_ran(self, tmp_path, extra, exactness,
                                              bound):
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n2 0\n2 3\n")
        out = tmp_path / "out.txt"
        assert main(["transform", "--input", inp.as_posix(), "--output", str(out),
                     "--sparsify", "topk:3"] + extra) == 0
        meta = read_meta(f"{out}.meta")
        assert meta["exactness"] == exactness
        # on the random walk the L1 bound is the route's own certificate
        if bound:
            assert meta["certificate_l1_error_max"] == meta[f"certificate_{bound}"]

    @pytest.mark.parametrize("fmt", ["edges", "npz"])
    def test_one_sidecar_write_per_transform(self, tmp_path, monkeypatch, fmt):
        import graphdiffusion.cli as cli
        import graphdiffusion.graph as graph
        writes = []
        real = graph.write_meta

        def counting(path, meta):
            writes.append(str(path))
            return real(path, meta)

        for module in (graph, cli):
            monkeypatch.setattr(module, "write_meta", counting)
        inp = tmp_path / "g.txt"
        inp.write_text("0 1\n1 2\n2 0\n2 3\n")
        out = tmp_path / f"out.{fmt}"
        rc = main(["transform", "--input", inp.as_posix(), "--output", str(out),
                   "--format", fmt, "--sparsify", "topk:3"])
        assert rc == 0
        assert writes == [str(out)]
        assert "stage_seconds_export" in (tmp_path / f"out.{fmt}.meta").read_text()


class TestOtherCommands:
    def test_convert_coeffs_round_trip(self, tmp_path):
        theta = tmp_path / "theta.txt"
        theta.write_text("0.0\n1.0\n0.0\n")
        xi = str(tmp_path / "xi.txt")
        rc = main(["convert-coeffs", "--input", str(theta), "--output", xi,
                   "--direction", "theta-to-xi"])
        assert rc == 0
        vals = [float(v) for v in Path(xi).read_text().split()]
        assert vals == pytest.approx([1.0, -1.0, 0.0])
        back = str(tmp_path / "back.txt")
        main(["convert-coeffs", "--input", xi, "--output", back,
              "--direction", "xi-to-theta"])
        vals = [float(v) for v in Path(back).read_text().split()]
        assert vals == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_convert_coeffs_exact_round_trip(self, tmp_path):
        # each line is read as the Fraction it writes, so exact mode returns
        # its input however many digits a weight has
        theta = ["0.5", "1e-20", "0.123456789012345678", "1/3"]
        path = tmp_path / "theta.txt"
        path.write_text("\n".join(theta) + "\n")
        xi, back = str(tmp_path / "xi.txt"), str(tmp_path / "back.txt")
        for direction, src, dst in (("theta-to-xi", str(path), xi),
                                    ("xi-to-theta", xi, back)):
            assert main(["convert-coeffs", "--input", src, "--output", dst,
                         "--direction", direction, "--mode", "exact"]) == 0
        assert [Fraction(v) for v in Path(back).read_text().split()] == [
            Fraction(v) for v in theta]
        assert Path(back).read_text().split()[:2] == [
            "1/2", "1/100000000000000000000"]

    def test_convert_coeffs_exact_mode(self, tmp_path):
        theta = tmp_path / "theta.txt"
        theta.write_text("1/2\n1/4\n1/4\n")
        out = str(tmp_path / "xi.txt")
        rc = main(["convert-coeffs", "--input", str(theta), "--output", out,
                   "--direction", "theta-to-xi", "--mode", "exact"])
        assert rc == 0
        assert Path(out).read_text().split() == ["1", "-3/4", "1/4"]

    def test_convert_coeffs_float_cap_names_the_mode_flag(self, tmp_path, capsys):
        theta = tmp_path / "theta.txt"
        theta.write_text("0.01\n" * 62)
        out = tmp_path / "xi.txt"
        assert main(["convert-coeffs", "--input", str(theta), "--output", str(out),
                     "--direction", "theta-to-xi"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "E_COMPUTE: float conversion is limited to K <= 60 (got K = 61); "
            "use mode='exact' (--mode exact) for larger orders"]
        assert not out.exists()

    @pytest.mark.parametrize("token", ["abc", "1/0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["transform", "float", "exact"])
    def test_bad_vector_line_exit_1(self, tmp_path, capsys, command, token):
        vec = tmp_path / "theta.txt"
        vec.write_text(f"0.5\n{token}\n")
        out = tmp_path / "out.txt"
        if command == "transform":
            argv = ["transform", "--input", write_k2(tmp_path), "--output", str(out),
                    "--method", f"explicit:{vec}"]
        else:
            argv = ["convert-coeffs", "--input", str(vec), "--output", str(out),
                    "--direction", "theta-to-xi", "--mode", command]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"E_COMPUTE: {vec}:2: expected a finite number"]
        assert not out.exists()

    def test_spectrum_outputs(self, tmp_path):
        inp = tmp_path / "g.txt"
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)
                 if (i + j) % 3]
        inp.write_text("".join(f"{i} {j}\n" for i, j in edges))
        out = str(tmp_path / "spec.csv")
        rc = main(["spectrum", "--input", str(inp), "--output", out,
                   "--sparsify", "topk:4"])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "index,lambda_before,lambda_after,delta"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert all(np.isfinite(float(v)) for v in first[1:])
        curve = Path(out + ".response.csv").read_text().splitlines()
        assert curve[0] == "lambda_L,response"
        assert len(curve) == 202
        lam, resp = curve[1].split(",")
        assert float(lam) == 0.0
        assert float(resp) == pytest.approx(1.0)

    def test_spectrum_past_the_eigen_cap_is_one_compute_line(self, tmp_path, capsys):
        n = DENSE_EIGEN_CAP + 1
        ring = tmp_path / "ring.txt"
        ring.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--input", str(ring), "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"E_COMPUTE: matrix size {n} exceeds the dense eigensolver cap "
            f"{DENSE_EIGEN_CAP}"]
        assert not out.exists()

    def test_gen_sbm(self, tmp_path, capsys):
        out = str(tmp_path / "sbm.txt")
        rc = main(["gen-sbm", "--blocks", "10,10", "--p-in", "0.9",
                   "--p-out", "0.1", "--seed", "4", "--output", out])
        assert rc == 0
        g = load_edge_list(out)
        assert g.n == 20
        labels = [int(x) for x in Path(out + ".labels").read_text().split()]
        assert labels == [0] * 10 + [1] * 10
        meta = read_meta(out + ".meta")
        assert list(meta) == ["nodes", "edges", "directed", "id_map", "generator",
                              "blocks", "p_in", "p_out", "gen_seed"]
        assert meta["nodes"] == "20" and meta["edges"] == str(g.edge_count)
        assert [meta[k] for k in ("generator", "blocks", "p_in", "p_out", "gen_seed")] == [
            "sbm", "10,10", "0.9", "0.1", "4"]

    @pytest.mark.parametrize("argv,message", [
        (["eval-cluster", "--sparsify", "topk:0"],
         "bad sparsify rule 'topk:0': top-k count must be positive, got 0"),
        (["eval-cluster", "--method", "ppr:1.5"],
         "bad method 'ppr:1.5': teleport probability must be in (0, 1), got 1.5"),
        (["eval-cluster", "--method", "ppr:inf"],
         "bad method 'ppr:inf': teleport probability must be a finite number, "
         "got inf"),
        (["eval-cluster", "--seeds", "0"], "need at least one seed, got 0"),
        (["eval-cluster", "--clusters", "1"], "need at least 2 clusters, got 1"),
        (["eval-cluster", "--blocks", "20"], "need at least 2 clusters, got 1"),
        (["gen-sbm", "--p-in", "0.1", "--p-out", "0.5"],
         "need 0 <= p_out < p_in <= 1 for an assortative partition, "
         "got p_in=0.1, p_out=0.5"),
        (["eval-cluster", "--p-in", "0.1", "--p-out", "0.5"],
         "need 0 <= p_out < p_in <= 1 for an assortative partition, "
         "got p_in=0.1, p_out=0.5"),
        (["gen-sbm", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["eval-cluster", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["transform", "--method", "ppr:2"],
         "bad method 'ppr:2': teleport probability must be in (0, 1), got 2.0")],
        ids=["topk", "alpha", "alpha-inf", "seeds", "clusters", "one-block",
             "gen-sbm-p", "eval-cluster-p", "gen-sbm-seed", "eval-cluster-seed",
             "transform-alpha"])
    def test_bad_value_is_usage_error_before_drawing(self, tmp_path, capsys,
                                                     monkeypatch, argv, message):
        import graphdiffusion.cli as cli
        import graphdiffusion.cluster as cluster
        drawn = []
        for module in (cli, cluster):
            monkeypatch.setattr(module, "generate_sbm",
                                lambda spec: drawn.append(spec) or (None, None))
        out = tmp_path / "out.txt"
        # the last of a repeated flag wins, so argv overrides these values;
        # transform's input does not exist, so reading it would be E_IO
        base = {"transform": ["--input", str(tmp_path / "missing.txt")]}.get(
            argv[0], ["--blocks", "10,10", "--p-in", "0.5", "--p-out", "0.1"])
        assert main(argv[:1] + base + ["--output", str(out)] + argv[1:]) == 2
        assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert drawn == [] and not out.exists()

    def test_clusters_past_the_drawn_graph_is_compute_error(self, capsys):
        # the LCC is known only once the graph is drawn
        assert main(["eval-cluster", "--blocks", "5,5", "--p-in", "0.9",
                     "--p-out", "0.1", "--seeds", "1", "--clusters", "10",
                     "--threads", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "E_COMPUTE: need fewer clusters than nodes, got 10 clusters for 10 nodes"]

    def test_cluster_arm_reads_the_transform_settings(self, tmp_path, capsys,
                                                      monkeypatch):
        import graphdiffusion.cli as cli
        import graphdiffusion.cluster as cluster
        seen = []

        def capture(sbm, gdc, **kwargs):
            seen.append(gdc)
            raise ComputeError("captured")

        monkeypatch.setattr(cli, "eval_gdc_clustering", capture)
        sbm = ["--blocks", "10,10", "--p-in", "0.5", "--p-out", "0.1"]
        for flags in ([], ["--unweighted"],
                      ["--method", "heat:2", "--sparsify", "degree:8"]):
            assert main(["eval-cluster"] + sbm + flags) == 1
        # a choice the arm takes no flag for stays at the library's default
        assert seen[0] == Gdc()
        assert seen[1] == Gdc(post=PostProcess(symmetrize=True, unweighted=True))
        assert (seen[2].spec, seen[2].rule) == (Heat(2.0), TargetDegree(8.0))
        capsys.readouterr()

        drawn = []
        monkeypatch.setattr(cluster, "generate_sbm", lambda spec: drawn.append(spec))
        out = tmp_path / "out.txt"
        missing = ["--input", str(tmp_path / "missing.txt")]
        conf = tmp_path / "run.conf"
        conf.write_text("format = npz\n")
        for argv, message in [
                (["eval-cluster"] + sbm + ["--alpha", "0.2"],
                 "unrecognized arguments: --alpha 0.2"),
                (["eval-cluster"] + sbm + ["--topk", "8"],
                 "unrecognized arguments: --topk 8"),
                (["spectrum"] + missing + ["--format", "npz"],
                 "unrecognized arguments: --format npz"),
                (["spectrum"] + missing + ["--config", str(conf)],
                 "unknown config key 'format'")]:
            assert main(argv + ["--output", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"E_USAGE: {message}"]
        assert drawn == [] and not out.exists() and len(seen) == 3

    def test_eval_cluster(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        rc = main(["eval-cluster", "--blocks", "15,15", "--p-in", "0.8",
                   "--p-out", "0.05", "--seeds", "2", "--sparsify", "topk:8",
                   "--output", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "seed,raw_accuracy,gdc_accuracy,delta"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert 0.0 <= float(row[1]) <= 1.0 and 0.0 <= float(row[2]) <= 1.0
        report = capsys.readouterr().out
        assert "delta mean" in report


@pytest.fixture
def sbm_40(tmp_path):
    """A 40-node connected SBM graph: smaller than the default top-64."""
    path = str(tmp_path / "sbm40.txt")
    assert main(["gen-sbm", "--blocks", "20,20", "--p-in", "0.3",
                 "--p-out", "0.05", "--seed", "1", "--output", path]) == 0
    assert load_edge_list(path).n == 40
    return path


def read_meta(path):
    return dict(line.split(" = ", 1) for line in Path(path).read_text().splitlines())


class TestSmallGraphs:
    @pytest.mark.parametrize("command", ["transform", "spectrum"])
    def test_defaults_run_below_64_nodes(self, tmp_path, sbm_40, command):
        out = tmp_path / "out.txt"
        assert main([command, "--input", sbm_40, "--output", str(out)]) == 0
        if command == "transform":
            # top-64 keeps every positive entry: all 40 x 40 of the diffusion
            assert read_meta(f"{out}.meta")["edges"] == "1600"

    def test_count_rules_saturate_at_n(self, tmp_path, sbm_40):
        outs = {}
        for rule in ["degree:40", "degree:80", "degree:1e308", "topk:40",
                     "topk:1000000"]:
            out = tmp_path / f"{rule}.txt"
            assert main(["transform", "--input", sbm_40, "--output", str(out),
                         "--sparsify", rule]) == 0
            outs[rule] = out.read_bytes()
        assert all(v == outs["degree:40"] for v in outs.values())

    def test_spectrum_of_directed_unnormalized_output(self, tmp_path, sbm_40):
        flags = ["--input", sbm_40, "--sparsify", "topk:8", "--no-symmetrize",
                 "--renorm", "none"]
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--output", str(out)] + flags) == 0
        after = [float(line.split(",")[2])
                 for line in out.read_text().splitlines()[1:]]
        graph = tmp_path / "graph.txt"
        assert main(["transform", "--output", str(graph)] + flags) == 0
        a = load_edge_list(str(graph), directed=True,
                           allow_self_loops=True).to_scipy().toarray()
        s = 1.0 / np.sqrt(a.sum(axis=0))
        lap = np.eye(40) - s[:, None] * a * s[None, :]
        assert not np.allclose(lap, lap.T)
        np.testing.assert_allclose(after, np.linalg.eigvalsh((lap + lap.T) / 2),
                                   rtol=0, atol=1e-12)

    def test_explicit_series_past_the_weights(self, tmp_path, sbm_40):
        theta = tmp_path / "theta.txt"
        theta.write_text("0.5\n0.25\n0.125\n")
        outs = []
        for k in ("2", "4"):
            out = tmp_path / f"series{k}.txt"
            assert main(["transform", "--input", sbm_40, "--output", str(out),
                         "--method", f"explicit:{theta}", "--series", k]) == 0
            outs.append(out.read_bytes())
            assert read_meta(f"{out}.meta")["certificate_tail_mass"] == "0.0"
        assert outs[0] == outs[1]

    def test_explicit_push_fails_before_input(self, tmp_path, capsys):
        theta = tmp_path / "theta.txt"
        theta.write_text("0.5\n0.5\n")
        out = tmp_path / "o.txt"
        rc = main(["transform", "--input", str(tmp_path / "missing.txt"),
                   "--output", str(out), "--transition", "rw", "--method",
                   f"explicit:{theta}", "--push", "1e-4"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "E_USAGE: push runs geometric (ppr) weights only; sum heat or explicit "
            "weights as a series: Series(k) or Exact() (--series K or --exact)"]
        assert sorted(os.listdir(tmp_path)) == ["theta.txt"]

    def test_eval_cluster_topk_past_n(self, tmp_path, capsys):
        # 90 nodes: top-500 keeps what top-90 keeps, every positive entry
        runs = []
        for k in ("90", "500"):
            out = tmp_path / f"topk{k}.csv"
            assert main(["eval-cluster", "--blocks", "30,30,30", "--p-in", "0.3",
                         "--p-out", "0.02", "--seeds", "3", "--sparsify",
                         f"topk:{k}", "--output", str(out)]) == 0
            runs.append((out.read_text(), capsys.readouterr().out))
        assert runs[0] == runs[1]


def test_cli_import_skips_slow_scipy_modules():
    # scipy.special is imported only where heat tails need it, and the
    # clustering accuracy matches on csgraph, so neither start-up nor
    # eval-cluster pays for scipy.special or scipy.optimize
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphdiffusion.__file__)))
    code = ("import sys, graphdiffusion.cli\n"
            "from graphdiffusion import hungarian_accuracy\n"
            "hungarian_accuracy([0, 1, 1, 2], [1, 0, 0, 2])\n"
            "print([m for m in ('scipy.special', 'scipy.optimize') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
     "and data type float64",
     "E_COMPUTE: Unable to allocate 7.28 TiB for an array with shape "
     "(1000000, 1000000) and data type float64"),
    ("", "E_COMPUTE: out of memory")], ids=["numpy", "bare"])
def test_refused_allocation_is_one_compute_line(tmp_path, capsys, monkeypatch,
                                                message, line):
    import graphdiffusion.cli as cli

    def refuse(g, gdc, threads):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "diffuse_graph", refuse)
    out = tmp_path / "out.txt"
    assert main(["transform", "--input", write_k2(tmp_path), "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


def commented_file(path, third, fifth):
    """A file of two data lines, 3 and 5, under the shared text rule: a
    full-line comment, blank lines and a trailing comment around them."""
    path.write_text(f"# a full-line comment\n\n{third}  # a trailing comment\n"
                    f"   \n{fifth}\n\n")
    return str(path)


# each reader: data lines 3 and 5, what the reader makes of them, the argv
# that reads the file at p (tmp at hand), and the exit code and message of
# a malformed line 3
SHARED_RULE_READERS = {
    "edge-list": (read_edge_list, "0 1", "1 2 0.5", [(0, 1, 1.0), (1, 2, 0.5)],
                  lambda p, tmp: ["transform", "--input", p,
                                  "--output", str(tmp / "out.txt")],
                  "E_COMPUTE", "expected 'src dst [weight]'"),
    "config": (_read_config_file, "input = g.txt", "output = o.txt",
               {"input": "g.txt", "output": "o.txt"},
               lambda p, tmp: ["transform", "--config", p],
               "E_USAGE", "expected 'key = value'"),
    "convert-coeffs": (_read_vector, "1/2", "0.25", [Fraction(1, 2), Fraction(1, 4)],
                       lambda p, tmp: ["convert-coeffs", "--input", p, "--output",
                                       str(tmp / "xi.txt"), "--direction", "theta-to-xi"],
                       "E_COMPUTE", "expected a finite number"),
    "explicit": (_read_vector, "1/2", "0.25", [Fraction(1, 2), Fraction(1, 4)],
                 lambda p, tmp: ["transform", "--input", write_k2(tmp), "--output",
                                 str(tmp / "out.txt"), "--method", f"explicit:{p}"],
                 "E_COMPUTE", "expected a finite number"),
}


@pytest.mark.parametrize("kind", SHARED_RULE_READERS)
def test_every_reader_keeps_the_shared_text_rule(tmp_path, capsys, kind):
    read, third, fifth, parsed, argv, prefix, expected = SHARED_RULE_READERS[kind]
    assert read(commented_file(tmp_path / "good.txt", third, fifth)) == parsed
    bad = commented_file(tmp_path / "bad.txt", "?", fifth)
    assert main(argv(bad, tmp_path)) == (2 if prefix == "E_USAGE" else 1)
    assert capsys.readouterr().err.splitlines() == [f"{prefix}: {bad}:3: {expected}"]

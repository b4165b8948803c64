import argparse
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from roleforge import cli, clustering, synth
from roleforge.capitalists import IN_DEGREE_FLOOR, detect_capitalists
from roleforge.cli import (PipelineConfig, build_parser, config_from_mapping, config_hash, main,
                           parse_config_file, read_tsv, run_pipeline)
from roleforge.clustering import kmeans, select_k
from roleforge.errors import ConfigError, PipelineStageError, RoleForgeError
from roleforge.measures import MEASURE_COLUMNS
from roleforge.graph import load_edge_list, save_edge_list
from roleforge.louvain import louvain_directed

from conftest import G1_EDGES, graph_from_edges

ARTIFACTS = [
    "partition.tsv", "id_map.tsv", "measures.tsv", "clusters.tsv", "centroids.tsv",
    "capitalists.tsv", "capitalists_crosstab.tsv", "anova.tsv", "pairwise.tsv",
    "report.txt", "report_groups.tsv", "report_group_means.tsv",
]


def write_g1(tmp_path, name="g1.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{u} {v}\n" for u, v in G1_EDGES))
    return path


def g1_config(tmp_path, outdir="out", **overrides):
    return replace(PipelineConfig(input=str(write_g1(tmp_path)), output_dir=str(tmp_path / outdir),
                                  k_min=2, k_max=3), **overrides)


def test_config_file_parse_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed=7\nk_min=2\nk_max=4\noverlap_min=0.9\n")
    cfg = config_from_mapping(parse_config_file(path))
    assert cfg.seed == 7
    assert cfg.k_max == 4
    assert cfg.overlap_min == 0.9
    cfg = config_from_mapping({"seed": "11"}, cfg)  # later sources win
    assert cfg.seed == 11
    with pytest.raises(ConfigError):
        config_from_mapping({"bogus_key": "1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 7\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    # a file saved with a UTF-8 byte-order mark: the mark is not part of the first key
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbfseed=3\nk_max=5\n")
    assert parse_config_file(bom) == {"seed": "3", "k_max": "5"}
    assert config_from_mapping(parse_config_file(bom)) == PipelineConfig(seed=3, k_max=5)


def test_config_values_are_strict(tmp_path, capsys):
    # heterogeneity has one definition, so the key that chose another is gone
    with pytest.raises(ConfigError, match="unknown config key 'lambda_include_zeros'"):
        config_from_mapping({"lambda_include_zeros": "true"})
    for key, value in (("k_max", "abc"), ("seed", "1.5"), ("kmeans_tol", "small")):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: value})
    # through the CLI: a clean error naming the key, not a traceback
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"input={write_g1(tmp_path)}\nk_max=abc\n")
    assert main(["run", "--config", str(cfg_file), "--output-dir", str(tmp_path / "out")]) == 1
    assert "k_max" in capsys.readouterr().err
    # a flag takes the same path: the same clean error, exit 1 rather than argparse's 2
    g1 = write_g1(tmp_path)
    assert main(["run", "--input", str(g1), "--output-dir", str(tmp_path / "out"), "--k-max", "abc"]) == 1
    assert "error: k_max expects int, got 'abc'" in capsys.readouterr().err
    # a choice flag passes its value through
    out = tmp_path / "flags"
    assert main(["run", "--input", str(g1), "--output-dir", str(out), "--k-min", "2", "--k-max", "3",
                 "--order", "shuffled", "--min-gain", "1e-8"]) == 0
    want = PipelineConfig(k_min=2, k_max=3, order="shuffled", min_gain=1e-8)
    assert json.loads((out / "manifest.json").read_text())["config_hash"] == config_hash(want)
    # a choice key is checked where a file line is: exit 1 and an error: line naming it
    capsys.readouterr()
    assert main(["run", "--input", str(g1), "--output-dir", str(out), "--order", "sideways"]) == 1
    assert "error: order" in capsys.readouterr().err
    cfg_file.write_text(f"input={g1}\norder=sideways\n")
    assert main(["run", "--config", str(cfg_file), "--output-dir", str(out)]) == 1
    assert "error: order" in capsys.readouterr().err
    # a float key takes only finite values, from a mapping, a flag or Python
    for key in ("min_gain", "kmeans_tol", "overlap_min"):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=key):
                config_from_mapping({key: value})
            with pytest.raises(ConfigError, match=key):
                PipelineConfig(**{key: float(value)})
    for flag, value in (("--min-gain", "nan"), ("--min-gain", "inf"), ("--kmeans-tol", "nan"),
                        ("--overlap-min", "inf"), ("--kmeans-tol", "inf")):
        capsys.readouterr()
        assert main(["run", "--input", str(g1), "--output-dir", str(tmp_path / "nonfinite"),
                     flag, value]) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err, err
    assert main(["communities", "--input", str(g1), "--output", str(tmp_path / "p.tsv"),
                 "--min-gain", "nan"]) == 1
    assert "error: min_gain" in capsys.readouterr().err
    # a negative value in exponent form or -inf is a value, not an option
    for value, message in (("-1e-9", "min_gain must be non-negative"), ("-inf", "min_gain must be a finite")):
        assert main(["communities", "--input", str(g1), "--output", str(tmp_path / "p.tsv"),
                     "--min-gain", value]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert main(["run", "--input", str(g1), "--output-dir", str(tmp_path / "neg"),
                 "--kmeans-max-iter", "0"]) == 1
    assert "error: kmeans_max_iter" in capsys.readouterr().err
    # the removed key is unknown in a file and its flag is unknown to argparse
    cfg_file.write_text(f"input={g1}\nlambda_include_zeros=true\n")
    assert main(["run", "--config", str(cfg_file), "--output-dir", str(out)]) == 1
    assert "error: unknown config key 'lambda_include_zeros'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as stop:
        main(["measures", "--input", str(g1), "--partition", str(tmp_path / "p.tsv"),
              "--output", str(tmp_path / "m.tsv"), "--lambda-include-zeros"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --lambda-include-zeros" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    g1 = write_g1(tmp_path)
    part, meas = tmp_path / "partition.tsv", tmp_path / "measures.tsv"
    assert main(["communities", "--input", str(g1), "--output", str(part)]) == 0
    assert main(["measures", "--input", str(g1), "--partition", str(part), "--output", str(meas)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for argv in (["run", "--input", str(g1), "--output-dir", str(out), "--k-max", "3", "--seed=-1"],
                 ["cluster", "--measures", str(meas), "--output", str(tmp_path / "roles"), "--k-max", "3",
                  "--seed", "-1"],
                 ["communities", "--input", str(g1), "--output", str(tmp_path / "p.tsv"), "--seed", "-1",
                  "--order", "shuffled"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n", argv
    assert not out.exists()
    assert not (tmp_path / "p.tsv").exists()


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="k_max must be at least k_min"):
        run_pipeline(g1_config(tmp_path, k_min=5, k_max=3))  # rejected before any computation
    assert not (tmp_path / "out").exists()
    # each range message names the key that is out of range
    for key, value in (("k_min", 1), ("kmeans_restarts", 0), ("kmeans_max_iter", 0), ("kmeans_tol", 0.0)):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            g1_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match="min_gain"):
        run_pipeline(g1_config(tmp_path, min_gain=float("nan")))
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="classification floor"):
        g1_config(tmp_path, in_degree_min=100)
    with pytest.raises(ConfigError):
        g1_config(tmp_path, direction="sideways")
    # run_pipeline checks the paths it uses before it creates the output directory
    for cfg, message in ((PipelineConfig(output_dir=str(tmp_path / "out")), "^input is required$"),
                         (g1_config(tmp_path, input=str(tmp_path / "none.txt")), "^input not found: "),
                         (g1_config(tmp_path, output_dir=""), "^output_dir is required$")):
        with pytest.raises(ConfigError, match=message):
            run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


# a non-integer for each int key but k_max, which k_min's rule would reject first
_NON_INTEGERS = {"k_min": 2.5, "kmeans_restarts": 2.5, "kmeans_max_iter": 2.5, "in_degree_min": 500.5,
                 "seed": 1.5}


@pytest.mark.parametrize("key,value", _NON_INTEGERS.items())
def test_a_non_integer_for_an_int_key_stops_at_construction(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    for bad in (value, float(int(value))):  # 2.0 is no more an integer than 2.5
        with pytest.raises(ConfigError, match=f"^{key} expects int, got {bad}$"):
            run_pipeline(g1_config(tmp_path, **{key: bad}))
        for data in ({key: bad}, {key: str(bad)}):
            with pytest.raises(ConfigError, match=f"^{key} expects int, got '?{bad}'?$"):
                config_from_mapping(data)
        assert main(["run", "--input", str(write_g1(tmp_path)), "--output-dir", str(out),
                     f"--{key.replace('_', '-')}", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {key} expects int, got '{bad}'\n"
    assert not out.exists()


def test_every_config_default_has_a_kind_that_construction_types():
    for f in fields(PipelineConfig):
        assert type(f.default) in (str, int, float), f.name
        assert f.type == type(f.default).__name__, f.name  # the annotation names the same kind
        assert type(getattr(PipelineConfig(), f.name)) is type(f.default), f.name


# at least one bad value per rule of every computation key, and the library
# calls that take the key
_NAN, _INF = float("nan"), float("inf")
_BAD_VALUES = {
    "direction": (["sideways", ""], ("load_edge_list",)),
    "seed": ([-1], ("louvain_directed", "select_k", "kmeans")),
    "min_gain": ([_NAN, _INF, -_INF, -1e-9], ("louvain_directed",)),
    "order": (["sideways"], ("louvain_directed",)),
    "k_min": ([1, -3], ("select_k",)),
    "k_max": ([1], ("select_k",)),
    "kmeans_restarts": ([0, -1], ("select_k", "kmeans")),
    "kmeans_max_iter": ([0], ("select_k", "kmeans")),
    "kmeans_tol": ([0.0, -1e-6, _NAN, _INF, -_INF], ("select_k", "kmeans")),
    "overlap_min": ([-0.1, 1.5, _NAN, _INF, -_INF], ("detect_capitalists",)),
    "in_degree_min": ([IN_DEGREE_FLOOR - 1, -1], ("detect_capitalists",)),
}


def test_every_computation_key_has_bad_values():
    assert set(_BAD_VALUES) == {f.name for f in fields(PipelineConfig)} - {"input", "output_dir"}


@pytest.mark.parametrize("key,value,call", [(key, value, call) for key, (values, calls) in _BAD_VALUES.items()
                                            for value in values for call in calls])
def test_a_key_has_one_rule_in_the_cli_and_the_library(tmp_path, key, value, call):
    with pytest.raises(ConfigError) as cli_error:
        replace(PipelineConfig(), **{key: value})
    cfg = SimpleNamespace(**{**asdict(PipelineConfig()), key: value})
    x = np.random.default_rng(0).standard_normal((20, 2))
    g = graph_from_edges(G1_EDGES, 6)
    library = {
        "load_edge_list": lambda: load_edge_list(write_g1(tmp_path), convention=cfg.direction),
        "louvain_directed": lambda: louvain_directed(g, min_gain=cfg.min_gain, seed=cfg.seed, order=cfg.order),
        "select_k": lambda: select_k(x, cfg.k_min, cfg.k_max, seed=cfg.seed, max_iter=cfg.kmeans_max_iter,
                                     tol=cfg.kmeans_tol, restarts=cfg.kmeans_restarts),
        "kmeans": lambda: kmeans(x, 2, seed=cfg.seed, max_iter=cfg.kmeans_max_iter, tol=cfg.kmeans_tol,
                                 restarts=cfg.kmeans_restarts),
        "detect_capitalists": lambda: detect_capitalists(g, overlap_min=cfg.overlap_min,
                                                         in_degree_min=cfg.in_degree_min),
    }
    with pytest.raises(ConfigError) as library_error:
        library[call]()
    assert str(library_error.value) == str(cli_error.value)
    assert str(cli_error.value).startswith(key)
    assert isinstance(library_error.value, ValueError)


def test_config_hash_ignores_paths(tmp_path):
    a = g1_config(tmp_path, outdir="a")
    b = g1_config(tmp_path, outdir="b")
    assert config_hash(a) == config_hash(b)
    c = g1_config(tmp_path, seed=5)
    assert config_hash(c) != config_hash(a)


def test_config_hash_of_the_defaults_is_pinned():
    assert config_hash(PipelineConfig()) == "4fa4c099a10d762d"


@pytest.mark.parametrize("size", [0, 5 << 19])  # empty, and 2.5 MiB: three 1 MiB read blocks
def test_file_digest_equals_hashlib(tmp_path, size):
    path = tmp_path / "blob.bin"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this Python has no builtin SHA-256")
def test_import_cli_leaves_openssl_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", "import sys, roleforge.cli; print('_hashlib' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_run_in_workers_leaves_numpy_random_unloaded(tmp_path):
    # 2,420 nodes, more than the 2,250-row sample at k_max=15: the workers draw
    # the sample and refit on all rows, and the parent never draws a number
    g, _, _ = synth.capitalist_community_network(n_comms=6, comm_size=400, n_capitalists=20,
                                                 cap_ext_out=300, seed=2)
    save_edge_list(g, tmp_path / "edges.txt")
    script = "\n".join([
        "import sys",
        "from roleforge import cli, clustering",
        "clustering._usable_cpus = lambda: 2",
        "calls = []",
        "fit_in_workers = clustering._fit_in_workers",
        "def record(x, ks, params, n_workers):",
        "    calls.append((params['sample_size'], len(x), n_workers))",
        "    return fit_in_workers(x, ks, params, n_workers)",
        "clustering._fit_in_workers = record",
        f"rc = cli.main(['run', '--input', {str(tmp_path / 'edges.txt')!r}, "
        f"'--output-dir', {str(tmp_path / 'out')!r}])",
        "print(rc, calls, 'numpy.random' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-"], input=script, capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 [(2250, {g.n}, 2)] False"


def test_run_pipeline_g1_smoke(tmp_path):
    cfg = g1_config(tmp_path)
    manifest = run_pipeline(cfg)
    outdir = tmp_path / "out"
    assert len(manifest["artifacts"]) >= 6
    for name in ARTIFACTS:
        assert (outdir / name).exists(), name
        assert name in manifest["artifacts"]
    # manifest checksums match file contents
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
    # every artifact declares the config hash
    for name in ARTIFACTS:
        first = (outdir / name).read_text().splitlines()[0]
        assert first == f"# config_hash={manifest['config_hash']}"
    on_disk = json.loads((outdir / "manifest.json").read_text())
    assert on_disk == manifest


def test_run_pipeline_is_deterministic(tmp_path):
    m1 = run_pipeline(g1_config(tmp_path, outdir="r1"))
    m2 = run_pipeline(g1_config(tmp_path, outdir="r2"))
    assert m1 == m2


def test_library_and_cli_write_the_same_bytes_for_the_same_values(tmp_path, capsys):
    # the graph of the artifact pins; overlap_min=1 and min_gain=0 are ints in
    # Python and text on the command line, and a float key holds 1.0 and 0.0 from both
    g = synth.capitalist_community_network(n_comms=10, comm_size=200, n_capitalists=20, cap_ext_out=900,
                                           seed=7)[0]
    edges = tmp_path / "edges.txt"
    save_edge_list(g, edges)
    lib, cli_out = tmp_path / "lib", tmp_path / "cli"
    run_pipeline(PipelineConfig(input=str(edges), output_dir=str(lib), seed=7, overlap_min=1, min_gain=0))
    assert main(["run", "--input", str(edges), "--output-dir", str(cli_out), "--seed", "7",
                 "--overlap-min", "1", "--min-gain", "0"]) == 0, capsys.readouterr()
    assert (lib / "manifest.json").read_text() == (cli_out / "manifest.json").read_text()


def test_run_pipeline_row_slices_do_not_change_outputs(tmp_path, monkeypatch):
    want = run_pipeline(g1_config(tmp_path, outdir="default"))
    for rows_per_slice in (1, 4):
        monkeypatch.setattr(cli, "_ROW_SLICE", rows_per_slice)
        assert run_pipeline(g1_config(tmp_path, outdir=f"slice{rows_per_slice}")) == want


def test_run_pipeline_same_outputs_inline_and_in_workers(tmp_path, monkeypatch):
    # on this graph the chosen k depends on the k-means seed (k=6 at seed 0, k=4 at seed 1)
    g, _, _ = synth.capitalist_community_network(n_comms=4, comm_size=60, n_capitalists=8,
                                                 cap_ext_out=80, seed=3)
    save_edge_list(g, tmp_path / "edges.txt")

    def run(outdir):
        run_pipeline(PipelineConfig(input=str(tmp_path / "edges.txt"), output_dir=str(tmp_path / outdir),
                                    k_min=4, k_max=8, kmeans_restarts=3))
        return (tmp_path / outdir / "manifest.json").read_bytes()

    inline = run("inline")
    monkeypatch.setattr(clustering, "_WORKER_MIN_WORK", 0)
    monkeypatch.setattr(clustering, "_usable_cpus", lambda: 2)
    assert run("workers") == inline


def test_run_pipeline_partition_and_measures_content(tmp_path):
    run_pipeline(g1_config(tmp_path))
    outdir = tmp_path / "out"
    header, rows, _ = read_tsv(outdir / "partition.tsv")
    assert header == ["original_id", "community"]
    assert len(rows) == 6
    header, rows, _ = read_tsv(outdir / "measures.tsv")
    assert header[:2] == ["original_id", "community"]
    assert len(header) == 12
    # group shares in the report sum to 100
    _, grows, _ = read_tsv(outdir / "report_groups.tsv")
    assert sum(float(r[2]) for r in grows) == pytest.approx(100.0, abs=0.02)
    # G1 has no nodes past the degree floor: crosstab rows exist and are all zero
    _, crows, meta = read_tsv(outdir / "capitalists_crosstab.tsv")
    assert meta["overlap_min"] == "0.8"
    assert len(crows) == 10
    for row in crows:
        assert all(float(v) == 0.0 for v in row[3:])


def test_run_pipeline_stage_error_names_stage(tmp_path):
    cfg = g1_config(tmp_path, k_max=10)  # exceeds n=6 at the cluster stage
    with pytest.raises(PipelineStageError, match="cluster"):
        run_pipeline(cfg)
    # artifacts from earlier stages are preserved
    assert (tmp_path / "out" / "partition.tsv").exists()
    assert (tmp_path / "out" / "measures.tsv").exists()


def test_blank_embeddedness_for_isolated_node(tmp_path):
    path = tmp_path / "iso.txt"
    lines = "".join(f"{u} {v}\n" for u, v in G1_EDGES)
    path.write_text(lines + "9 9\n")  # node 9 survives only via its dropped self-loop
    out = tmp_path / "iso_out"
    cfg = PipelineConfig(input=str(path), output_dir=str(out), k_min=2, k_max=3)
    run_pipeline(cfg)
    _, rows, _ = read_tsv(out / "measures.tsv")
    by_id = {r[0]: r for r in rows}
    assert by_id["9"][10] == ""  # embeddedness column blank
    assert by_id["9"][11] == "0"  # participation 0 by convention


def test_cli_subcommands_chain(tmp_path, capsys):
    edges = write_g1(tmp_path)
    part = tmp_path / "partition.tsv"
    meas = tmp_path / "measures.tsv"
    prefix = str(tmp_path / "roles")
    clusters = f"{prefix}_clusters.tsv"
    centroids = f"{prefix}_centroids.tsv"
    cap_prefix = str(tmp_path / "cap")
    stats_prefix = str(tmp_path / "st")
    report_prefix = str(tmp_path / "rep")
    chain = {  # subcommand -> (its argv, the stages it runs)
        "communities": (["--input", str(edges), "--output", str(part), "--seed", "0"], ["ingest", "communities"]),
        "measures": (["--input", str(edges), "--partition", str(part), "--output", str(meas)],
                     ["ingest", "measures"]),
        "cluster": (["--measures", str(meas), "--k-min", "2", "--k-max", "3", "--seed", "0", "--output", prefix],
                    ["cluster"]),
        "capitalists": (["--input", str(edges), "--clusters", clusters, "--overlap-min", "0.8",
                         "--output", cap_prefix], ["ingest", "capitalists"]),
        "stats": (["--measures", str(meas), "--clusters", clusters, "--output", stats_prefix], ["stats"]),
        "report": (["--measures", str(meas), "--clusters", clusters, "--centroids", centroids,
                    "--capitalists", f"{cap_prefix}_capitalists.tsv", "--output", report_prefix], ["report"]),
    }
    printed = {}
    capsys.readouterr()
    for command, (argv, _) in chain.items():
        assert main([command, *argv]) == 0, command
        printed[command] = capsys.readouterr().out.splitlines()
    assert part.exists()
    assert (tmp_path / "partition.id_map.tsv").exists()
    report = (tmp_path / "rep_report.txt").read_text()
    assert "== Role groups ==" in report
    assert "share_of_group" in report

    # one implementation per stage: `run` with the same seed and k range
    # writes the same tables below the config_hash line
    out = tmp_path / "run"
    assert main(["run", "--input", str(edges), "--output-dir", str(out), "--seed", "0",
                 "--k-min", "2", "--k-max", "3"]) == 0
    # each subcommand prints `run`'s line for every stage it runs
    run_lines = {line[1:line.index("]")]: line for line in capsys.readouterr().out.splitlines()}
    assert list(run_lines) == ["ingest", "communities", "measures", "cluster", "capitalists", "stats", "report",
                               "ok"]
    for command, (_, stages) in chain.items():
        assert printed[command] == [run_lines[stage] for stage in stages], command
    # the [measures] line counts the columns that measures.tsv holds
    assert run_lines["measures"].endswith(f" columns={len(read_tsv(meas)[0])}")
    pairs = {"partition.tsv": part, "id_map.tsv": tmp_path / "partition.id_map.tsv",
             "measures.tsv": meas, "clusters.tsv": clusters, "centroids.tsv": centroids,
             "capitalists.tsv": f"{cap_prefix}_capitalists.tsv",
             "capitalists_crosstab.tsv": f"{cap_prefix}_crosstab.tsv",
             "anova.tsv": f"{stats_prefix}_anova.tsv", "pairwise.tsv": f"{stats_prefix}_pairwise.tsv",
             "report.txt": f"{report_prefix}_report.txt",
             "report_groups.tsv": f"{report_prefix}_groups.tsv"}
    for name, chained in pairs.items():
        ran = (out / name).read_text().splitlines()
        assert ran[0].startswith("# config_hash=")
        assert ran[1:] == Path(chained).read_text(encoding="utf-8").splitlines()[1:], name
    # the chain re-reads measures.tsv, written at 12 significant digits
    _, ran_means, _ = read_tsv(out / "report_group_means.tsv")
    _, chained_means, _ = read_tsv(f"{report_prefix}_group_means.tsv")
    assert [[float(v) for v in r] for r in ran_means] == \
        [pytest.approx([float(v) for v in r], rel=1e-10) for r in chained_means]


def test_stats_names_pairs_by_the_clusters_file_labels(tmp_path):
    edges = write_g1(tmp_path)
    part, meas = tmp_path / "partition.tsv", tmp_path / "measures.tsv"
    assert main(["communities", "--input", str(edges), "--output", str(part), "--seed", "0"]) == 0
    assert main(["measures", "--input", str(edges), "--partition", str(part), "--output", str(meas)]) == 0
    ids = [row[0] for row in read_tsv(meas)[1]]
    pairwise = {}
    for labels in ([1, 2, 3], [1, 3, 5]):
        tag = "".join(map(str, labels))
        clusters = tmp_path / f"clusters_{tag}.tsv"
        clusters.write_text("original_id\tgroup\n"
                            + "".join(f"{i}\t{labels[j // 2]}\n" for j, i in enumerate(ids)))
        prefix = str(tmp_path / f"st_{tag}")
        assert main(["stats", "--measures", str(meas), "--clusters", str(clusters), "--output", prefix]) == 0
        pairwise[tuple(labels)] = read_tsv(f"{prefix}_pairwise.tsv")[1]
    # groups 1, 3, 5 keep their labels; the tests are those of groups 1, 2, 3
    assert {(a, b) for _, a, b, _ in pairwise[1, 3, 5]} == {("1", "3"), ("1", "5"), ("3", "5")}
    rename = {"1": "1", "2": "3", "3": "5"}
    assert pairwise[1, 3, 5] == [[m, rename[a], rename[b], p] for m, a, b, p in pairwise[1, 2, 3]]


def _planted_run(tmp_path):
    """`run` output on a graph whose three groups get three different roles."""
    g, _, _ = synth.capitalist_community_network(n_comms=10, comm_size=200, n_capitalists=20,
                                                 cap_ext_out=900, seed=7)
    save_edge_list(g, tmp_path / "planted.txt")
    out = tmp_path / "planted_run"
    assert main(["run", "--input", str(tmp_path / "planted.txt"), "--output-dir", str(out),
                 "--seed", "7", "--k-min", "3", "--k-max", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    return _planted_run(tmp_path_factory.mktemp("planted"))


def test_cluster_gives_a_constant_measure_column_no_role(tmp_path):
    """A measure equal on every row standardizes to 0, so it cannot make a
    group a pivot: the roles benchmark graph's measures, I_int_out set to 0.7."""
    g, _, _ = synth.capitalist_community_network(comm_size=300, n_capitalists=60, seed=7)
    edges, part, meas = tmp_path / "roles.txt", tmp_path / "partition.tsv", tmp_path / "measures.tsv"
    save_edge_list(g, edges)
    assert main(["communities", "--input", str(edges), "--output", str(part), "--seed", "7"]) == 0
    assert main(["measures", "--input", str(edges), "--partition", str(part), "--output", str(meas)]) == 0
    columns, rows, _ = read_tsv(meas)
    col = columns.index("I_int_out")
    meas.write_text("\t".join(columns) + "\n" + "".join(
        "\t".join(r[:col] + ["0.7"] + r[col + 1:]) + "\n" for r in rows))
    prefix = tmp_path / "roles"
    assert main(["cluster", "--measures", str(meas), "--seed", "7", "--output", str(prefix)]) == 0
    _, centroids, _ = read_tsv(f"{prefix}_centroids.tsv")
    assert centroids[0][:3] == ["1", "6000", "non-pivot périphérique"]
    assert {float(r[3 + col - 2]) for r in centroids} == {0.0}


def _report(out, centroids, capitalists, prefix):
    return main(["report", "--measures", str(out / "measures.tsv"), "--clusters", str(out / "clusters.tsv"),
                 "--centroids", str(centroids), "--capitalists", str(capitalists), "--output", str(prefix)])


def test_report_takes_each_role_by_its_group_label(tmp_path, capsys, planted_run):
    out = planted_run
    lines = (out / "centroids.tsv").read_text().splitlines()
    head, body = lines[:4], lines[4:]  # config_hash, k, davies_bouldin, header
    assert head[3].startswith("group\t") and [row.split("\t")[0] for row in body] == ["1", "2", "3"]
    assert len({row.split("\t")[2] for row in body}) == 3
    reversed_rows = tmp_path / "centroids_reversed.tsv"
    reversed_rows.write_text("\n".join(head + body[::-1]) + "\n")
    assert _report(out, reversed_rows, out / "capitalists.tsv", tmp_path / "rep") == 0
    for ran, reported in (("report.txt", "rep_report.txt"), ("report_groups.tsv", "rep_groups.tsv")):
        assert (out / ran).read_text().splitlines()[1:] == (tmp_path / reported).read_text().splitlines()[1:]
    # a label outside 1..k, or one listed twice, names the centroids file
    for name, labels in (("centroids_label_4.tsv", ("4", "2", "3")), ("centroids_label_0.tsv", ("1", "0", "3")),
                         ("centroids_label_2_twice.tsv", ("1", "2", "2"))):
        bad = tmp_path / name
        bad.write_text("\n".join(head + [label + row[row.index("\t"):] for label, row in zip(labels, body)]) + "\n")
        capsys.readouterr()
        assert _report(out, bad, out / "capitalists.tsv", tmp_path / "bad") == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: centroids file ") and str(bad) in err, err


def test_report_counts_each_capitalist_once(tmp_path, capsys, planted_run):
    out = planted_run
    lines = (out / "capitalists.tsv").read_text().splitlines()
    assert len(lines) > 5
    twice = tmp_path / "capitalists_twice.tsv"
    twice.write_text("\n".join(lines + lines[-1:]) + "\n")
    capsys.readouterr()
    assert _report(out, out / "centroids.tsv", twice, tmp_path / "rep") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(twice) in err, err
    assert f"lists id {lines[-1].split()[0]} more than once" in err, err


_REPORT_FILE_CASES = {  # file -> (its bytes -> the bytes read), None if `report` reads it as `run` did, else the error
    "CRLF": (lambda b: b.replace(b"\n", b"\r\n"), None),
    "CR": (lambda b: b.replace(b"\n", b"\r"), None),
    "# and blank lines between rows": (lambda b: b.replace(b"\n", b"\n# x=1\n\n"), None),
    "not UTF-8 on the last line": (lambda b: b[:-1] + b"\xe9\n", "{path}:{lines}: not UTF-8 text"),
    "missing": (None, "missing artifact: {path}"),
}


@pytest.mark.parametrize("edit, want", _REPORT_FILE_CASES.values(), ids=_REPORT_FILE_CASES)
@pytest.mark.parametrize("changed", ["centroids", "capitalists"])
def test_report_reads_its_table_files_by_the_table_rule(tmp_path, capsys, planted_run, changed, edit, want):
    files = {name: planted_run / f"{name}.tsv" for name in ("centroids", "capitalists")}
    data = files[changed].read_bytes()
    files[changed] = path = tmp_path / f"{changed}.tsv"
    if edit is not None:
        path.write_bytes(edit(data))
    capsys.readouterr()
    if want is None:
        assert _report(planted_run, files["centroids"], files["capitalists"], tmp_path / "rep") == 0
        for ran, reported in (("report.txt", "rep_report.txt"), ("report_groups.tsv", "rep_groups.tsv")):
            assert (planted_run / ran).read_text().splitlines()[1:] == \
                (tmp_path / reported).read_text().splitlines()[1:]
    else:
        assert _report(planted_run, files["centroids"], files["capitalists"], tmp_path / "rep") == 1
        assert capsys.readouterr().err == "error: " + want.format(path=path, lines=data.count(b"\n")) + "\n"


def test_report_reads_a_capitalists_file_with_no_rows(tmp_path, planted_run):
    lines = (planted_run / "capitalists.tsv").read_text().splitlines()
    header_only = tmp_path / "capitalists.tsv"
    header_only.write_text("\n".join(line for line in lines if line.startswith("#")) + "\n" + lines[3] + "\n")
    assert lines[3].startswith("original_id\t") and len(lines) > 5
    assert _report(planted_run, planted_run / "centroids.tsv", header_only, tmp_path / "rep") == 0
    ran = (planted_run / "report.txt").read_text().splitlines()
    reported = (tmp_path / "rep_report.txt").read_text().splitlines()
    shares = ran.index(next(line for line in ran if line.startswith("== Capitalist share")))
    assert reported[1:shares + 2] == ran[1:shares + 2]
    assert len(reported) == len(ran) and all(
        v == "0.00%" for line in reported[shares + 2:] for v in line.split("\t")[3:])


def test_cli_run_subcommand_and_config_file(tmp_path):
    edges = write_g1(tmp_path)
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text(f"input={edges}\nk_min=2\nk_max=3\nseed=5\n")
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(cfg_file), "--output-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()
    # flag overrides the file
    out2 = tmp_path / "run_out2"
    assert main(["run", "--config", str(cfg_file), "--output-dir", str(out2), "--seed", "6"]) == 0
    m1 = json.loads((out / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] != m2["config_hash"]


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nnot an arc\n")
    part = tmp_path / "p.tsv"
    code = main(["communities", "--input", str(bad), "--output", str(part)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    # missing artifact for a downstream stage
    code = main(["stats", "--measures", str(tmp_path / "nope.tsv"),
                 "--clusters", str(tmp_path / "nope2.tsv"), "--output", str(tmp_path / "x")])
    assert code == 1
    assert "missing artifact" in capsys.readouterr().err
    # a missing input file is a clean error, not a traceback
    code = main(["communities", "--input", str(tmp_path / "absent.txt"),
                 "--output", str(tmp_path / "p2.tsv")])
    assert code == 1
    assert "absent.txt" in capsys.readouterr().err
    # a graph without arcs is rejected by every subcommand that ingests one
    empty = tmp_path / "empty.txt"
    empty.write_text("# no arcs\n")
    for argv in (["run", "--input", str(empty), "--output-dir", str(tmp_path / "e_run")],
                 ["communities", "--input", str(empty), "--output", str(tmp_path / "e.tsv")],
                 ["measures", "--input", str(empty), "--partition", str(part),
                  "--output", str(tmp_path / "e_meas.tsv")],
                 ["capitalists", "--input", str(empty), "--clusters", str(part),
                  "--output", str(tmp_path / "e_cap")]):
        assert main(argv) == 1, argv[0]
        assert "no arcs" in capsys.readouterr().err, argv[0]
    # group labels outside 1..k name the clusters file instead of a numpy traceback
    cfg = g1_config(tmp_path)
    run_pipeline(cfg)
    out = tmp_path / "out"
    _, rows, _ = read_tsv(out / "clusters.tsv")
    for bad_group, argv in (
            ("9", ["report", "--measures", str(out / "measures.tsv"), "--centroids",
                   str(out / "centroids.tsv"), "--capitalists", str(out / "capitalists.tsv")]),
            ("0", ["capitalists", "--input", cfg.input]),
            (str(2**62), ["capitalists", "--input", cfg.input])):
        clusters = tmp_path / f"clusters_{bad_group}.tsv"
        clusters.write_text("original_id\tgroup\n" + "".join(
            f"{r[0]}\t{bad_group if i == 0 else r[1]}\n" for i, r in enumerate(rows)))
        capsys.readouterr()
        code = main(argv + ["--clusters", str(clusters), "--output", str(tmp_path / "bad")])
        assert code == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(clusters) in err, argv[0]

    # malformed artifacts, edge lists and config files: an error line naming
    # the file and the bad id or line, not a traceback
    def bad_file(name, content):
        path = tmp_path / name
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
        return str(path)

    measures = (out / "measures.tsv").read_text().splitlines()
    partition = (out / "partition.tsv").read_text().splitlines()
    cap_header = (out / "capitalists.tsv").read_text().splitlines()[-1]
    fields = measures[2].split("\t")
    fields[3] = "abc"
    huge_id = "\t".join([str(2**63)] + measures[2].split("\t")[1:])
    clusters = str(out / "clusters.tsv")
    dest = ["--output", str(tmp_path / "bad")]
    nan_row = "\t".join(measures[2].split("\t")[:4] + ["nan"] + measures[2].split("\t")[5:])
    float_id = "\t".join(["2.0"] + measures[4].split("\t")[1:])
    # a bad value and a short row after a good row, `#` and blank lines
    part_gap = "# c=1\n\noriginal_id\tcommunity\n0\t0\n# x\n\n1\tx\n"
    one_col_gap = "# c=1\n\noriginal_id\tgroup\n0\t1\n\n# x\n1\n"
    read_partition = ["measures", "--input", cfg.input, *dest, "--partition"]
    read_clusters = ["stats", "--measures", str(out / "measures.tsv"), *dest, "--clusters"]
    report = ["report", "--measures", str(out / "measures.tsv"), "--clusters", str(out / "clusters.tsv"),
              "--centroids", str(out / "centroids.tsv"), *dest, "--capitalists"]
    for argv, names in (
            (report + [bad_file("cap_777.tsv", f"{cap_header}\n777\t600\t600\t0.9\t1.0\tx\ty\t1\n")],
             ["cap_777.tsv", "node 777"]),
            (report + [bad_file("cap_meta.tsv", f"# overlap_min=high\n{cap_header}\n")],
             ["cap_meta.tsv", "overlap_min"]),
            # the thresholds a report prints follow their keys' rules
            (report + [bad_file("cap_meta_range.tsv", f"# overlap_min=7\n{cap_header}\n")],
             ["cap_meta_range.tsv", "overlap_min must lie in [0, 1], got 7.0"]),
            (["measures", "--input", cfg.input, *dest,
              "--partition", bad_file("part_x.tsv", "original_id\tcommunity\n0\tx\n")], ["part_x.tsv:2"]),
            (["stats", "--measures", str(out / "measures.tsv"), *dest,
              "--clusters", bad_file("one_col.tsv", "original_id\tgroup\n0\n")], ["one_col.tsv:2"]),
            (["cluster", *dest,
              "--measures", bad_file("meas_abc.tsv", "\n".join(measures[:2] + ["\t".join(fields)]))],
             ["meas_abc.tsv:3", "abc"]),
            (["stats", "--clusters", clusters, *dest,
              "--measures", bad_file("meas_latin1.tsv", "\n".join(measures).encode() + b"\n# caf\xe9")],
             [f"meas_latin1.tsv:{len(measures) + 1}", "not UTF-8"]),
            (["stats", "--measures", str(out / "measures.tsv"), *dest,
              "--clusters", bad_file("huge_group.tsv", "original_id\tgroup\n" + "".join(
                  f"{r[0]}\t{2**64 if i == 0 else r[1]}\n" for i, r in enumerate(rows)))],
             ["huge_group.tsv", "int64"]),
            (["stats", "--clusters", clusters, *dest,
              "--measures", bad_file("huge_id.tsv", "\n".join(measures[:2] + [huge_id]))],
             ["huge_id.tsv", "int64"]),
            (["measures", "--input", cfg.input, *dest,
              "--partition", bad_file("part_twice.tsv", "\n".join(partition + ["0\t1"]))],
             ["part_twice.tsv", "id 0"]),
            (["stats", "--measures", str(out / "measures.tsv"), *dest,
              "--clusters", bad_file("clusters_twice.tsv", "original_id\tgroup\n" + "".join(
                  f"{r[0]}\t{r[1]}\n" for r in rows + rows[-1:]))],
             ["clusters_twice.tsv", f"id {rows[-1][0]}"]),
            (["cluster", *dest,
              "--measures", bad_file("meas_twice.tsv", "\n".join(measures + measures[2:3]))],
             ["meas_twice.tsv", f"id {measures[2].split()[0]}"]),
            (read_partition + [bad_file("part_gap.tsv", part_gap)], ["part_gap.tsv:7:", "'x'"]),
            (read_clusters + [bad_file("one_col_gap.tsv", one_col_gap)], ["one_col_gap.tsv:7:"]),
            (read_partition + [bad_file("part_gap_crlf.tsv", part_gap.replace("\n", "\r\n").encode())],
             ["part_gap_crlf.tsv:7:", "'x'"]),
            (read_clusters + [bad_file("one_col_gap_crlf.tsv", one_col_gap.replace("\n", "\r\n").encode())],
             ["one_col_gap_crlf.tsv:7:"]),
            (["cluster", *dest, "--measures", bad_file("meas_nan_gap.tsv", "\n".join(
                measures[:2] + ["# x", nan_row] + measures[3:]))], ["meas_nan_gap.tsv:4:", "non-finite"]),
            # with bad rows of several kinds the first in the file decides, as in ingest
            (["cluster", *dest, "--measures", bad_file("meas_nan_then_float_id.tsv", "\n".join(
                measures[:2] + [nan_row, measures[3], float_id] + measures[5:]))],
             ["meas_nan_then_float_id.tsv:3:", "non-finite"]),
            (["cluster", *dest, "--measures", bad_file("meas_abc_then_odd_byte.tsv", "\n".join(
                measures[:2] + ["\t".join(fields), measures[3], measures[4] + "\x1c"] + measures[5:]))],
             ["meas_abc_then_odd_byte.tsv:3:", "'abc'"]),
            (["cluster", *dest, "--measures", bad_file("meas_nan_then_short.tsv", "\n".join(
                measures[:3] + [nan_row, "7"] + measures[5:]))],
             ["meas_nan_then_short.tsv:4:", "non-finite"]),
            (read_clusters + [bad_file("empty.tsv", "")], ["empty table", "empty.tsv"]),
            (["cluster", *dest, "--measures", bad_file("meas_comm.tsv", "\n".join(
                [measures[0], measures[1].replace("community", "comm")] + measures[2:]))],
             ["meas_comm.tsv", "unexpected measures header"]),
            (["cluster", *dest, "--measures", bad_file("comments_only.tsv", "# only a comment\n\n")],
             ["empty table", "comments_only.tsv"]),
            (["communities", "--input", bad_file("huge.txt", "0 1\n1 9223372036854775808\n"), *dest],
             ["line 2"]),
            (["communities", "--input", bad_file("latin1.txt", b"0 1\n# caf\xe9\n"), *dest],
             ["latin1.txt", "line 2"]),
            (["run", "--input", cfg.input, "--output-dir", str(tmp_path / "bad_run"),
              "--config", bad_file("latin1.cfg", b"# caf\xe9\nseed=1\n")], ["latin1.cfg"])):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(name in err for name in names), (argv[0], err)

    # a non-finite measure is a parse error, not a standardized column of zeros
    row = measures[2].split("\t")
    for value, argv in (("nan", ["cluster", "--k-max", "3"]),
                        ("inf", ["stats", "--clusters", clusters]),
                        ("1e400", ["report", "--clusters", clusters, "--centroids", str(out / "centroids.tsv"),
                                   "--capitalists", str(out / "capitalists.tsv")])):
        path = bad_file(f"meas_{value}.tsv", "\n".join(
            measures[:2] + ["\t".join(row[:4] + [value] + row[5:])] + measures[3:]))
        capsys.readouterr()
        assert main(argv + [*dest, "--measures", path]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: cannot parse row"), err
    # fewer distinct measure rows than k at every k of the range
    same = bad_file("meas_same.tsv", "\n".join(measures[:2] + ["\t".join([str(i)] + row[1:]) for i in range(30)]))
    assert main(["cluster", *dest, "--k-max", "4", "--measures", same]) == 1
    assert "error: every k in the range produced a degenerate clustering" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifact I/O: the bytes write_tsv writes, and the node tables the subcommands read

def test_write_tsv_matches_per_value_format(tmp_path, monkeypatch):
    nan = float("nan")
    rows = [
        (1, 0.5, "a", None, 1 / 3),
        (2**53 + 1, nan, "banana", 1.0, None),  # a string holding "nan" next to a NaN
        (-0.0, float("inf"), float("-inf"), 1e-300, 2**64),
        (np.float64(0.1), np.float32(0.1), np.int64(-7), np.bool_(True), np.float64(nan)),
        (np.float64(-0.0), np.float64(np.inf), np.float32(nan), np.int32(2**31 - 1), 5e-324),
        (True, "100%", "%s", 123456789012.5, "nan"),
        [7, 0.1, "list row", 1e300, -1.5e-7],
        (1.0, 2, "kinds swapped", 3, 0.5),
        (),
    ]
    want = "".join("\t".join(map(cli._fmt, row)) + "\n" for row in rows)
    assert {"-0", "NA", "inf", "", "9007199254740993", "1e-300"} <= set(want.replace("\n", "\t").split("\t"))
    for rows_per_slice in (1, 2, 4096):
        monkeypatch.setattr(cli, "_ROW_SLICE", rows_per_slice)
        path = tmp_path / f"t{rows_per_slice}.tsv"
        cli.write_tsv(path, ("a", "b", "c", "d", "e"), iter(rows), "h", ("k=1",))
        assert path.read_bytes() == ("# config_hash=h\n# k=1\na\tb\tc\td\te\n" + want).encode()


# Node tables (partition, clusters, measures), all read by cli._node_table.
# The labels of ids 3, 5, 7, 9 in _LABEL_ROWS are 2, 1, 3, 1.  A case given
# one row replaces node 3's, the second data row, at file line 6.
_LABEL_ROWS = ["5\t1", "3\t2", "9\t1", "7\t3"]
_LABEL_CASES = {  # rows -> the labels of 3, 5, 7, 9, or the file line the error names, its text, or both
    "plain": (_LABEL_ROWS, [2, 1, 3, 1]),
    "leading plus": ("+3\t+2", [2, 1, 3, 1]),
    "padding spaces": (" 3 \t 2 ", [2, 1, 3, 1]),
    "leading zeros and a negative label": ("0003\t-2", [-2, 1, 3, 1]),
    "extra columns": ("3\t2\tx\t\t", [2, 1, 3, 1]),
    "blank and # lines": (["", "# a=1", *_LABEL_ROWS[:2], "", "#", *_LABEL_ROWS[2:], ""], [2, 1, 3, 1]),
    "short row": ("3", (6, "['3']: 1 field(s), the table needs 2")),
    "whitespace-only line": (_LABEL_ROWS[:1] + ["  "] + _LABEL_ROWS[1:], 6),
    "tab-only line": (_LABEL_ROWS[:1] + ["\t"] + _LABEL_ROWS[1:], 6),
    "inline #": ("3\t2 # two", 6),
    "information separator": ("3\x1c\t2", 6),
    "NA": ("3\tNA", 6),
    "inf": ("3\tinf", 6),
    "float label": ("3\t2.0", 6),
    "hex label": ("3\t0x10", 6),
    "label 2**63": ("3\t9223372036854775808", 6),
    # int() reads these, and the row-by-row reader of earlier versions accepted them
    "underscore": ("3\t1_0", 6),
    "arabic-indic digit": ("3\t\u0661", 6),
    "em space": ("3\u2003\t2", 6),
    "label 2**63 of an uncovered id": (_LABEL_ROWS + ["11\t9223372036854775808"], 9),
    "byte not UTF-8": ("3\t2\udce9", "labels.tsv:6: not UTF-8 text"),
    "repeated id": (_LABEL_ROWS + ["3\t4"], "lists id 3 more than once"),
    "uncovered node": (_LABEL_ROWS[:3], "does not cover node 7"),
    "header only": ([], "empty table"),
}


_MEASURE_ROWS = [[str(u), "0", *(f"{v:.12g}" for v in values), "", "0.5"]
                 for u, values in zip((5, 3, 9, 7), np.random.default_rng(4).normal(size=(4, len(MEASURE_COLUMNS))))]
_MEASURES_HEADER = "\t".join(("original_id", "community", *MEASURE_COLUMNS, "embeddedness", "participation"))


def _swap_field(j, value):  # field j of id 5's row, at file line 2
    return [_MEASURE_ROWS[0][:j] + [value] + _MEASURE_ROWS[0][j + 1:]] + _MEASURE_ROWS[1:]


_MEASURES_CASES = {  # rows -> None if read, else the file line the error names, its text, or both
    **{f"measure {value!r}": (_swap_field(4, value), None) for value in ("+1.5", " 1.5 ", "-0", "1e-300")},
    **{f"measure {value!r}": (_swap_field(4, value), 2) for value in (
        "inf", "-Infinity", "nan", "1e400", "NA", "", "0x1p3", "1.5\x1c",
        "1_0.5", "\u0661.\u0665")},  # float() reads the last two
    "plain": (_MEASURE_ROWS, None),
    "community not a number": (_swap_field(1, "abc"), None),
    "id with a leading plus": (_swap_field(0, "+5"), None),
    "comment and blank lines": (_MEASURE_ROWS[:1] + [["# x=1"], [""]] + _MEASURE_ROWS[1:], None),
    "id 2**63": (_swap_field(0, str(2**63)), 2),
    "id as a float": (_swap_field(0, "5.0"), 2),
    "short row": ([_MEASURE_ROWS[0][:9]] + _MEASURE_ROWS[1:], (2, ": 9 field(s), the table needs 10")),
    "whitespace-only line": (_MEASURE_ROWS + [[" "]], 6),
    "byte not UTF-8": (_swap_field(4, "1.5\udce9"), "measures.tsv:2: not UTF-8 text"),
    "repeated id": (_MEASURE_ROWS + _MEASURE_ROWS[:1], "lists id 5 more than once"),
}


def _expect_error(capsys, argv, path, want):
    """`main(argv)` exits 1 with one error line naming `path`, and its line `want`,
    the text `want`, or both, for a (line, text) pair."""
    capsys.readouterr()
    assert main(argv + [str(path), "--output", str(path.parent / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err
    for expect in want if isinstance(want, tuple) else (want,):
        assert (f"{path}:{expect}: cannot parse row" if isinstance(expect, int) else expect) in err, err


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("rows, want", _LABEL_CASES.values(), ids=_LABEL_CASES)
def test_label_table(tmp_path, capsys, rows, want, end):
    rows = [_LABEL_ROWS[0], rows, *_LABEL_ROWS[2:]] if isinstance(rows, str) else rows
    path = tmp_path / "labels.tsv"
    path.write_text(end.join(["# config_hash=x", "", "# k=1", "original_id\tgroup", *rows]) + end, newline="",
                    errors="surrogateescape")
    if isinstance(want, list):
        assert cli._labels_for(path, np.array([3, 5, 7, 9]), "partition").tolist() == want
    else:
        graph = tmp_path / "g.txt"
        graph.write_text("3 5\n5 7\n7 9\n9 3\n")
        _expect_error(capsys, ["measures", "--input", str(graph), "--partition"], path, want)


@pytest.mark.parametrize("head, end, last", [
    (_MEASURES_HEADER, "\n", "\n"),
    (_MEASURES_HEADER + "\textra", "\r\n", "\r\n"),
    (_MEASURES_HEADER, "\r", ""),
], ids=["LF", "extra column, CRLF", "CR, no last line end"])
@pytest.mark.parametrize("rows, want", _MEASURES_CASES.values(), ids=_MEASURES_CASES)
def test_measures_table(tmp_path, capsys, rows, want, head, end, last):
    path = tmp_path / "measures.tsv"
    path.write_text(end.join([head] + ["\t".join(r) for r in rows]) + last, newline="", errors="surrogateescape")
    if want is None:
        ids, mat = cli._load_measures(path)
        kept = [r for r in rows if r[0][:1] not in ("", "#")]
        assert ids.dtype == np.int64 and ids.tolist() == [int(r[0]) for r in kept]
        assert mat.tobytes() == np.array([[float(v) for v in r[2:10]] for r in kept]).tobytes()
        assert ids.flags.c_contiguous and mat.flags.c_contiguous
    else:
        _expect_error(capsys, ["cluster", "--measures"], path, want)


def test_bad_row_errors_do_not_read_numpy_messages(tmp_path, capsys, monkeypatch):
    loadtxt = np.loadtxt

    def reworded(*args, **kwargs):
        try:
            return loadtxt(*args, **kwargs)
        except ValueError:
            raise ValueError("a wording no numpy release uses") from None

    monkeypatch.setattr(cli.np, "loadtxt", reworded)
    for i, third in enumerate((_MEASURE_ROWS[2][:4] + ["abc"] + _MEASURE_ROWS[2][5:],  # a bad value
                               _MEASURE_ROWS[2][:3])):  # a short row
        path = tmp_path / f"measures{i}.tsv"
        rows = _MEASURE_ROWS[:2] + [third] + _MEASURE_ROWS[3:]
        path.write_text("\n".join([_MEASURES_HEADER] + ["\t".join(r) for r in rows]) + "\n")
        _expect_error(capsys, ["cluster", "--measures"], path, 4)


def _row_values(line, kinds):
    """The numbers in `kinds`' columns of a data row, None if the node-table
    rule rejects the row: printable ASCII and tabs, each number read as int()
    or float() reads it but for an underscore, an int within int64, a float finite."""
    try:
        values = [kind(line.split("\t")[j].replace("_", "x")) for j, kind in kinds.items()]
    except (ValueError, IndexError):
        return None
    in_range = all(-2**63 <= v < 2**63 if kind is int else np.isfinite(v) for v, kind in zip(values, kinds.values()))
    return values if in_range and all(c == "\t" or " " <= c <= "~" for c in line) else None


def test_node_table_fuzz_matches_the_rule_row_by_row(tmp_path):
    tokens = ["0", "1", "7", "12", "+3", "-2", " 4", "5 ", "007", "1.5", "-0.25", "1e3", "inf", "nan", "NA",
              "", " ", "1_0", "\u0661", "#", "x", "2.0", "9223372036854775807", "9223372036854775808",
              "\x0b1", "1\x1d", "1e400"]
    rng = random.Random(11)
    ids = [0, 1, 7, 12]
    readers = {"partition": ({0: int, 1: int}, lambda path: cli._labels_for(path, np.array(ids), "partition")),
               "measures": ({0: int, **{j: float for j in range(2, 10)}}, cli._load_measures)}
    outcomes = set()
    for i in range(200):
        table = [[str(u)] + [f"{rng.uniform(-3, 3):.6g}" for _ in range(len(MEASURE_COLUMNS) + 1)] for u in ids]
        for _ in range(rng.randrange(3)):  # up to two odd fields, and maybe one short row
            row = rng.choice(table)
            row[rng.randrange(len(row))] = rng.choice(tokens)
        if rng.random() < 0.2:
            row = rng.choice(table)
            del row[rng.randrange(1, len(row)):]
        lines = ["\t".join(row) for row in table]
        rng.shuffle(lines)
        path = tmp_path / f"fuzz{i}.tsv"
        path.write_text("\n".join([_MEASURES_HEADER] + lines) + "\n")
        for what, (kinds, read) in readers.items():
            rows = {n: _row_values(line, kinds) for n, line in enumerate(lines, 2) if line and line[0] != "#"}
            file_ids = [values[0] for values in rows.values() if values]
            try:
                got = read(path)
            except RoleForgeError as exc:
                line = re.match(rf"{re.escape(str(path))}:(\d+): cannot parse row", str(exc))
                if line:  # the first row the rule rejects, in file order
                    assert int(line[1]) == min(n for n, values in rows.items() if values is None), (i, exc)
                else:  # a repeated id, or a node the partition does not cover, in a table of good rows
                    uncovered = what == "partition" and set(ids) - set(file_ids)
                    assert None not in rows.values() and (len(set(file_ids)) < len(file_ids) or uncovered), exc
                outcomes.add("row" if line else "ids")
            else:
                assert None not in rows.values(), i
                if what == "partition":
                    assert got.tolist() == [dict(rows.values())[u] for u in ids], i
                else:
                    assert got[0].tolist() == file_ids and got[1].tolist() == [v[1:] for v in rows.values()], i
                outcomes.add("read")
    assert outcomes == {"row", "ids", "read"}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_block_and_config_keys_match_the_code():
    """Every `role-forge` line of the README's CLI block parses, together they
    name every subcommand, and the README lists the PipelineConfig keys."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("role-forge ")]
    parser = build_parser()
    commands = set()
    for line in lines:
        argv = line.replace("[", "").replace("]", "").split()[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        commands.add(args.command)
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subcommands.choices)
    listed = re.search(r"Keys\s+mirror\s+the\s+`PipelineConfig`\s+fields:(.*?)\.\n", text, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(PipelineConfig)]

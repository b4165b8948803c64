import hashlib
import json
from pathlib import Path

import pytest

from roleforge import cli
from roleforge.cli import (PipelineConfig, config_from_mapping, config_hash, main,
                           parse_config_file, read_tsv, run_pipeline, validate_config)
from roleforge.errors import ConfigError, PipelineStageError

from conftest import G1_EDGES

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
    cfg = PipelineConfig(input=str(write_g1(tmp_path)), output_dir=str(tmp_path / outdir),
                         k_min=2, k_max=3)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


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


def test_config_values_are_strict(tmp_path, capsys):
    assert config_from_mapping({"lambda_include_zeros": " Yes"}).lambda_include_zeros is True
    assert config_from_mapping({"lambda_include_zeros": "off"}).lambda_include_zeros is False
    with pytest.raises(ConfigError, match="lambda_include_zeros"):
        config_from_mapping({"lambda_include_zeros": "ture"})
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
    # a switch sets its bool and a choice flag passes its value through
    out = tmp_path / "flags"
    assert main(["run", "--input", str(g1), "--output-dir", str(out), "--k-min", "2", "--k-max", "3",
                 "--lambda-include-zeros", "--order", "shuffled", "--min-gain", "1e-8"]) == 0
    want = PipelineConfig(k_min=2, k_max=3, lambda_include_zeros=True, order="shuffled", min_gain=1e-8)
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
                validate_config(config_from_mapping({key: value}), for_run=False)
            with pytest.raises(ConfigError, match=key):
                validate_config(PipelineConfig(**{key: float(value)}), for_run=False)
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


def test_config_validation(tmp_path):
    cfg = g1_config(tmp_path, k_min=5, k_max=3)
    with pytest.raises(ConfigError, match="k range"):
        run_pipeline(cfg)  # rejected before any computation
    assert not (tmp_path / "out").exists()
    cfg = g1_config(tmp_path, min_gain=float("nan"))
    with pytest.raises(ConfigError, match="min_gain"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()
    cfg = g1_config(tmp_path, in_degree_min=100)
    with pytest.raises(ConfigError, match="classification floor"):
        validate_config(cfg)
    cfg = g1_config(tmp_path, direction="sideways")
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_config_hash_ignores_paths(tmp_path):
    a = g1_config(tmp_path, outdir="a")
    b = g1_config(tmp_path, outdir="b")
    assert config_hash(a) == config_hash(b)
    c = g1_config(tmp_path, seed=5)
    assert config_hash(c) != config_hash(a)


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


def test_run_pipeline_row_slices_do_not_change_outputs(tmp_path, monkeypatch):
    want = run_pipeline(g1_config(tmp_path, outdir="default"))
    for rows_per_slice in (1, 4):
        monkeypatch.setattr(cli, "_ROW_SLICE", rows_per_slice)
        assert run_pipeline(g1_config(tmp_path, outdir=f"slice{rows_per_slice}")) == want


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
    cfg = g1_config(tmp_path, k_max=3, k_min=2)
    cfg.k_max = 10  # exceeds n=6 at the cluster stage
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


def test_cli_subcommands_chain(tmp_path):
    edges = write_g1(tmp_path)
    part = tmp_path / "partition.tsv"
    meas = tmp_path / "measures.tsv"
    assert main(["communities", "--input", str(edges), "--output", str(part), "--seed", "0"]) == 0
    assert part.exists()
    assert (tmp_path / "partition.id_map.tsv").exists()
    assert main(["measures", "--input", str(edges), "--partition", str(part),
                 "--output", str(meas)]) == 0
    prefix = str(tmp_path / "roles")
    assert main(["cluster", "--measures", str(meas), "--k-min", "2", "--k-max", "3",
                 "--seed", "0", "--output", prefix]) == 0
    clusters = f"{prefix}_clusters.tsv"
    centroids = f"{prefix}_centroids.tsv"
    cap_prefix = str(tmp_path / "cap")
    assert main(["capitalists", "--input", str(edges), "--clusters", clusters,
                 "--overlap-min", "0.8", "--output", cap_prefix]) == 0
    stats_prefix = str(tmp_path / "st")
    assert main(["stats", "--measures", str(meas), "--clusters", clusters,
                 "--output", stats_prefix]) == 0
    report_prefix = str(tmp_path / "rep")
    assert main(["report", "--measures", str(meas), "--clusters", clusters,
                 "--centroids", centroids, "--capitalists", f"{cap_prefix}_capitalists.tsv",
                 "--output", report_prefix]) == 0
    report = (tmp_path / "rep_report.txt").read_text()
    assert "== Role groups ==" in report
    assert "share_of_group" in report

    # one implementation per stage: `run` with the same seed and k range
    # writes the same tables below the config_hash line
    out = tmp_path / "run"
    assert main(["run", "--input", str(edges), "--output-dir", str(out), "--seed", "0",
                 "--k-min", "2", "--k-max", "3"]) == 0
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
    report = ["report", "--measures", str(out / "measures.tsv"), "--clusters", str(out / "clusters.tsv"),
              "--centroids", str(out / "centroids.tsv"), *dest, "--capitalists"]
    for argv, names in (
            (report + [bad_file("cap_777.tsv", f"{cap_header}\n777\t600\t600\t0.9\t1.0\tx\ty\t1\n")],
             ["cap_777.tsv", "node 777"]),
            (report + [bad_file("cap_meta.tsv", f"# overlap_min=high\n{cap_header}\n")],
             ["cap_meta.tsv", "overlap_min"]),
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

"""Batch command line: ingest -> communities -> measures -> cluster ->
capitalists -> stats -> report, plus an all-in-one `run` with a checksum
manifest.

Configuration is a flat key=value file overridable by flags (flags win).
Every output file carries the hash of the computation-relevant parameters in
a header comment, and a full `run` with a fixed seed is reproducible down to
identical artifact checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .capitalists import crosstab, detect_capitalists
from .clustering import (ClusteringResult, RoleThresholds, label_role, renumber_by_size,
                         select_k, standardize)
from .errors import ConfigError, DegenerateVarianceError, PipelineStageError, RoleForgeError
from .graph import CONVENTIONS, DirectedGraph, load_edge_list
from .louvain import Partition, louvain_directed
from .measures import (MEASURE_COLUMNS, community_profile, embeddedness_values,
                       measures_from_profile, participation_coefficients)
from .report import format_p, group_summary_rows, render_report
from .stats import one_way_anova, pairwise_t_bonferroni


@dataclass
class PipelineConfig:
    """End-to-end pipeline parameters.

    `input` and `output_dir` are paths; everything else drives computation
    and is covered by the config hash.  The ga_* entries are the external
    constants of the classical 7-role typology, kept here so they are
    visible configuration rather than buried defaults.
    """

    input: str = ""
    output_dir: str = ""
    direction: str = "src-follows-dst"
    seed: int = 0
    min_gain: float = 1e-9
    order: str = "natural"
    lambda_include_zeros: bool = False
    k_min: int = 2
    k_max: int = 15
    kmeans_restarts: int = 10
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-6
    overlap_min: float = 0.8
    in_degree_min: int = 500
    pivot_threshold: float = 1.0
    connector_threshold: float = 0.5
    orphan_threshold: float = 5.0
    ga_z_hub: float = 2.5
    ga_nonhub_cuts: str = "0.05,0.62,0.80"
    ga_hub_cuts: str = "0.30,0.75"


_PATH_KEYS = ("input", "output_dir")
_CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' comments and blanks ignored."""
    data: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {s!r}")
            key, value = s.split("=", 1)
            data[key.strip()] = value.strip()
    return data


def config_from_mapping(data: dict[str, str], base: PipelineConfig | None = None) -> PipelineConfig:
    cfg = replace(base) if base is not None else PipelineConfig()
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            word = value.strip().lower()
            if word not in _TRUE_WORDS + _FALSE_WORDS:
                raise ConfigError(f"{key} must be one of {'/'.join(_TRUE_WORDS + _FALSE_WORDS)}, "
                                  f"got {value!r}")
            parsed: object = word in _TRUE_WORDS
        elif isinstance(current, (int, float)):
            try:
                parsed = type(current)(value)
            except ValueError:
                raise ConfigError(f"{key} expects {type(current).__name__}, got {value!r}") from None
        else:
            parsed = value
        setattr(cfg, key, parsed)
    return cfg


def _parse_cuts(raw: str, want: int) -> tuple[float, ...]:
    try:
        cuts = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise ConfigError(f"cut points must be comma-separated numbers, got {raw!r}") from None
    if len(cuts) != want:
        raise ConfigError(f"expected {want} cut points, got {len(cuts)} in {raw!r}")
    return cuts


def validate_config(cfg: PipelineConfig, *, for_run: bool = True) -> None:
    if cfg.direction not in CONVENTIONS:
        raise ConfigError(f"direction must be one of {CONVENTIONS}")
    if cfg.order not in ("natural", "shuffled"):
        raise ConfigError("order must be 'natural' or 'shuffled'")
    if cfg.k_min < 2 or cfg.k_min > cfg.k_max:
        raise ConfigError(f"invalid k range [{cfg.k_min}, {cfg.k_max}]")
    if not 0.0 <= cfg.overlap_min <= 1.0:
        raise ConfigError("overlap_min must lie in [0, 1]")
    if cfg.in_degree_min < 500:
        raise ConfigError("in_degree_min below 500 conflicts with the classification floor")
    if cfg.kmeans_restarts < 1 or cfg.kmeans_max_iter < 1 or cfg.kmeans_tol <= 0:
        raise ConfigError("k-means needs restarts >= 1, max_iter >= 1, tol > 0")
    if cfg.min_gain < 0:
        raise ConfigError("min_gain must be non-negative")
    _parse_cuts(cfg.ga_nonhub_cuts, 3)
    _parse_cuts(cfg.ga_hub_cuts, 2)
    if for_run:
        if not cfg.input:
            raise ConfigError("input is required")
        if not Path(cfg.input).exists():
            raise ConfigError(f"input not found: {cfg.input}")
        if not cfg.output_dir:
            raise ConfigError("output_dir is required")


def config_hash(cfg: PipelineConfig) -> str:
    """Hash of the computation-relevant parameters (paths excluded)."""
    items = sorted((name, getattr(cfg, name)) for name in _CONFIG_KEYS if name not in _PATH_KEYS)
    canon = "\n".join(f"{k}={v}" for k, v in items)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# artifact I/O

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:
            return "NA"
        return f"{value:.12g}"
    return str(value)


def write_tsv(path, columns, rows, chash: str, extra=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        for line in extra:
            fh.write(f"# {line}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def read_tsv(path) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """(header, rows, comment metadata) of an artifact; raises on a missing file."""
    p = Path(path)
    if not p.exists():
        raise RoleForgeError(f"missing artifact: {path}")
    header: list[str] | None = None
    rows: list[list[str]] = []
    meta: dict[str, str] = {}
    with open(p, encoding="utf-8") as fh:
        for raw in fh:
            s = raw.rstrip("\n")
            if not s:
                continue
            if s.startswith("#"):
                body = s.lstrip("#").strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                continue
            parts = s.split("\t")
            if header is None:
                header = parts
            else:
                rows.append(parts)
    if header is None:
        raise RoleForgeError(f"empty table: {path}")
    return header, rows, meta


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stages

def _partition_rows(g: DirectedGraph, part: Partition):
    ids = g.node_ids
    return [(int(ids[u]), int(part.assign[u])) for u in range(g.n)]


def _measures_rows(g: DirectedGraph, part: Partition, mat, emb, pcs):
    ids = g.node_ids
    rows = []
    for u in range(g.n):
        e = None if emb[u] != emb[u] else float(emb[u])
        rows.append((int(ids[u]), int(part.assign[u]), *(float(x) for x in mat[u]), e, float(pcs[u])))
    return rows


def _role_thresholds(cfg: PipelineConfig) -> RoleThresholds:
    return RoleThresholds(pivot=cfg.pivot_threshold, connector=cfg.connector_threshold,
                          orphan=cfg.orphan_threshold)


def _cluster_stage(cfg: PipelineConfig, ids, mat):
    """standardize -> select_k -> renumber_by_size -> role names.

    Returns the clustering and its two tables, keyed by artifact stem, as
    (columns, rows, extra header lines); `ids` are the original ids of the
    rows of `mat`.
    """
    std = standardize(mat)
    res = select_k(std, cfg.k_min, cfg.k_max, seed=cfg.seed, max_iter=cfg.kmeans_max_iter,
                   tol=cfg.kmeans_tol, restarts=cfg.kmeans_restarts)
    res = renumber_by_size(res)
    roles = [label_role(c, _role_thresholds(cfg)) for c in res.centroids]
    sizes = np.bincount(res.assign, minlength=res.k)
    tables = {
        "clusters": (("original_id", "group"),
                     [(int(ids[u]), int(res.assign[u]) + 1) for u in range(len(ids))], ()),
        "centroids": (("group", "size", "role", *MEASURE_COLUMNS),
                      [(i + 1, int(sizes[i]), roles[i], *(float(x) for x in res.centroids[i]))
                       for i in range(res.k)],
                      (f"k={res.k}", f"davies_bouldin={res.db_index:.12g}")),
    }
    return res, roles, sizes, tables


def _stats_rows(mat, groups):
    anova_rows = []
    pair_rows = []
    for j, name in enumerate(MEASURE_COLUMNS):
        col = mat[:, j]
        try:
            res = one_way_anova(col, groups)
            anova_rows.append((name, res.F, res.df_between, res.df_within, format_p(res.p)))
        except (DegenerateVarianceError, ConfigError):
            anova_rows.append((name, float("nan"), "NA", "NA", "NA"))
        pmat = pairwise_t_bonferroni(col, groups)
        k = pmat.shape[0]
        for a in range(k):
            for b in range(a + 1, k):
                p = pmat[a, b]
                pair_rows.append((name, a + 1, b + 1, "NA" if p != p else format_p(float(p))))
    return anova_rows, pair_rows


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage, write the artifacts plus manifest.json, return the manifest.

    A stage failure raises PipelineStageError naming the stage; artifacts
    written before the failure are left in place.
    """
    validate_config(cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    artifacts: list[str] = []

    def emit(name, columns, rows, extra=()):
        write_tsv(outdir / name, columns, rows, chash, extra)
        artifacts.append(name)

    stage = "ingest"
    try:
        g = load_edge_list(cfg.input, convention=cfg.direction)
        if g.m == 0:
            raise ConfigError("input graph has no arcs")
        print(f"[ingest] n={g.n} m={g.m}")

        stage = "communities"
        part, trace = louvain_directed(g, min_gain=cfg.min_gain, seed=cfg.seed, order=cfg.order)
        emit("partition.tsv", ("original_id", "community"), _partition_rows(g, part))
        emit("id_map.tsv", ("dense_id", "original_id"),
             [(u, int(g.node_ids[u])) for u in range(g.n)])
        print(f"[communities] passes={len(trace.modularity)} communities={part.n_comms} "
              f"Q={trace.modularity[-1]:.6f}")

        stage = "measures"
        profile = community_profile(g, part, lambda_include_zeros=cfg.lambda_include_zeros)
        mat = measures_from_profile(profile, part)
        emb = embeddedness_values(profile)
        pcs = participation_coefficients(g, part)
        emit("measures.tsv", ("original_id", "community", *MEASURE_COLUMNS, "embeddedness", "participation"),
             _measures_rows(g, part, mat, emb, pcs))
        print(f"[measures] rows={g.n} columns={len(MEASURE_COLUMNS) + 2}")

        stage = "cluster"
        res, roles, sizes, cluster_tables = _cluster_stage(cfg, g.node_ids, mat)
        for stem, (columns, rows, extra) in cluster_tables.items():
            emit(f"{stem}.tsv", columns, rows, extra)
        print(f"[cluster] k={res.k} davies_bouldin={res.db_index:.4f}")

        stage = "capitalists"
        records = detect_capitalists(g, overlap_min=cfg.overlap_min, in_degree_min=cfg.in_degree_min)
        cap_meta = (f"overlap_min={cfg.overlap_min}", f"in_degree_min={cfg.in_degree_min}")
        emit("capitalists.tsv",
             ("original_id", "k_in", "k_out", "overlap", "ratio", "band", "behavior", "group"),
             [(int(g.node_ids[r.node]), r.k_in, r.k_out, r.overlap, r.ratio, r.band, r.behavior,
               int(res.assign[r.node]) + 1) for r in records],
             extra=cap_meta)
        tables = crosstab(records, res, g.n)
        ct_rows = []
        for (band, behavior), (row_a, row_b) in tables.items():
            ct_rows.append((band, behavior, "share_of_capitalists", *(float(v) for v in row_a)))
            ct_rows.append((band, behavior, "share_of_group", *(float(v) for v in row_b)))
        emit("capitalists_crosstab.tsv",
             ("band", "behavior", "row", *(f"G{i}" for i in range(1, res.k + 1))),
             ct_rows, extra=cap_meta)
        print(f"[capitalists] detected={len(records)}")

        stage = "stats"
        anova_rows, pair_rows = _stats_rows(mat, res.assign)
        emit("anova.tsv", ("measure", "F", "df_between", "df_within", "p"), anova_rows)
        emit("pairwise.tsv", ("measure", "group_a", "group_b", "p_adjusted"), pair_rows)
        print(f"[stats] anova_rows={len(anova_rows)} pairwise_rows={len(pair_rows)}")

        stage = "report"
        group_rows = group_summary_rows(sizes, roles)
        mean_rows = [mat[res.assign == i].mean(axis=0) for i in range(res.k)]
        text = render_report(group_rows, mean_rows, MEASURE_COLUMNS, tables, res.k,
                             overlap_min=cfg.overlap_min, in_degree_min=cfg.in_degree_min)
        report_path = outdir / "report.txt"
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(f"# config_hash={chash}\n")
            fh.write(text)
        artifacts.append("report.txt")
        emit("report_groups.tsv", ("group", "size", "share_pct", "role"),
             [(i, s, f"{share:.2f}", role) for i, s, share, role in group_rows])
        emit("report_group_means.tsv", ("group", *MEASURE_COLUMNS),
             [(i + 1, *(float(x) for x in mean_rows[i])) for i in range(res.k)])
        print("[report] written")
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc

    manifest = {
        "config_hash": chash,
        "artifacts": {name: _sha256(outdir / name) for name in sorted(artifacts)},
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[ok] wrote {len(artifacts)} artifacts to {outdir} (manifest.json)")
    return manifest


# ---------------------------------------------------------------------------
# artifact readers used by the standalone subcommands

def _load_partition_for(g: DirectedGraph, path) -> Partition:
    _, rows, _ = read_tsv(path)
    comm_of = {int(r[0]): int(r[1]) for r in rows}
    try:
        labels = [comm_of[int(orig)] for orig in g.node_ids]
    except KeyError as missing:
        raise RoleForgeError(f"partition file {path} does not cover node {missing}") from None
    return Partition.from_labels(labels)


def _load_measures(path):
    header, rows, _ = read_tsv(path)
    want = ("original_id", "community", *MEASURE_COLUMNS)
    if tuple(header[: len(want)]) != want:
        raise RoleForgeError(f"unexpected measures header in {path}")
    ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
    mat = np.array([[float(v) for v in r[2:10]] for r in rows], dtype=np.float64)
    return ids, mat


def _load_clusters(path):
    _, rows, _ = read_tsv(path)
    ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
    groups = np.array([int(r[1]) - 1 for r in rows], dtype=np.int64)
    return ids, groups


def _align(ids_a, ids_b, what: str):
    """Index array mapping rows of b onto the order of a (join on original id)."""
    pos = {int(v): i for i, v in enumerate(ids_b)}
    try:
        return np.array([pos[int(v)] for v in ids_a], dtype=np.int64)
    except KeyError as missing:
        raise RoleForgeError(f"{what} does not cover node {missing}") from None


# ---------------------------------------------------------------------------
# subcommands

def _make_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = config_from_mapping(parse_config_file(args.config), cfg)
    overrides = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    return config_from_mapping(overrides, cfg)


def cmd_communities(args) -> int:
    cfg = _make_config(args)
    validate_config(cfg, for_run=False)
    g = load_edge_list(args.input, convention=cfg.direction)
    if g.m == 0:
        raise ConfigError("input graph has no arcs")
    part, trace = louvain_directed(g, min_gain=cfg.min_gain, seed=cfg.seed, order=cfg.order)
    chash = config_hash(cfg)
    write_tsv(args.output, ("original_id", "community"), _partition_rows(g, part), chash)
    map_path = Path(args.output).with_suffix(".id_map.tsv")
    write_tsv(map_path, ("dense_id", "original_id"),
              [(u, int(g.node_ids[u])) for u in range(g.n)], chash)
    print(f"[communities] n={g.n} communities={part.n_comms} Q={trace.modularity[-1]:.6f} -> {args.output}")
    return 0


def cmd_measures(args) -> int:
    cfg = _make_config(args)
    validate_config(cfg, for_run=False)
    g = load_edge_list(args.input, convention=cfg.direction)
    part = _load_partition_for(g, args.partition)
    profile = community_profile(g, part, lambda_include_zeros=cfg.lambda_include_zeros)
    mat = measures_from_profile(profile, part)
    emb = embeddedness_values(profile)
    pcs = participation_coefficients(g, part)
    write_tsv(args.output, ("original_id", "community", *MEASURE_COLUMNS, "embeddedness", "participation"),
              _measures_rows(g, part, mat, emb, pcs), config_hash(cfg))
    print(f"[measures] rows={g.n} -> {args.output}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _make_config(args)
    validate_config(cfg, for_run=False)
    ids, mat = _load_measures(args.measures)
    res, _, _, tables = _cluster_stage(cfg, ids, mat)
    chash = config_hash(cfg)
    for stem, (columns, rows, extra) in tables.items():
        write_tsv(f"{args.output}_{stem}.tsv", columns, rows, chash, extra)
    print(f"[cluster] k={res.k} davies_bouldin={res.db_index:.4f} -> {args.output}_clusters.tsv")
    return 0


def cmd_capitalists(args) -> int:
    cfg = _make_config(args)
    validate_config(cfg, for_run=False)
    g = load_edge_list(args.input, convention=cfg.direction)
    cids, groups = _load_clusters(args.clusters)
    take = _align(g.node_ids, cids, f"clusters file {args.clusters}")
    assign = groups[take]
    k = int(assign.max()) + 1 if assign.size else 1
    res = ClusteringResult(k=k, assign=assign, centroids=np.zeros((k, len(MEASURE_COLUMNS))), inertia=0.0)
    records = detect_capitalists(g, overlap_min=cfg.overlap_min, in_degree_min=cfg.in_degree_min)
    chash = config_hash(cfg)
    meta = (f"overlap_min={cfg.overlap_min}", f"in_degree_min={cfg.in_degree_min}")
    write_tsv(f"{args.output}_capitalists.tsv",
              ("original_id", "k_in", "k_out", "overlap", "ratio", "band", "behavior", "group"),
              [(int(g.node_ids[r.node]), r.k_in, r.k_out, r.overlap, r.ratio, r.band, r.behavior,
                int(assign[r.node]) + 1) for r in records], chash, extra=meta)
    tables = crosstab(records, res, g.n)
    rows = []
    for (band, behavior), (row_a, row_b) in tables.items():
        rows.append((band, behavior, "share_of_capitalists", *(float(v) for v in row_a)))
        rows.append((band, behavior, "share_of_group", *(float(v) for v in row_b)))
    write_tsv(f"{args.output}_crosstab.tsv",
              ("band", "behavior", "row", *(f"G{i}" for i in range(1, k + 1))), rows, chash, extra=meta)
    print(f"[capitalists] detected={len(records)} -> {args.output}_capitalists.tsv")
    return 0


def cmd_stats(args) -> int:
    cfg = _make_config(args)
    validate_config(cfg, for_run=False)
    mids, mat = _load_measures(args.measures)
    cids, groups = _load_clusters(args.clusters)
    take = _align(mids, cids, f"clusters file {args.clusters}")
    anova_rows, pair_rows = _stats_rows(mat, groups[take])
    chash = config_hash(cfg)
    write_tsv(f"{args.output}_anova.tsv", ("measure", "F", "df_between", "df_within", "p"),
              anova_rows, chash)
    write_tsv(f"{args.output}_pairwise.tsv", ("measure", "group_a", "group_b", "p_adjusted"),
              pair_rows, chash)
    print(f"[stats] -> {args.output}_anova.tsv")
    return 0


def cmd_report(args) -> int:
    cfg = _make_config(args)
    validate_config(cfg, for_run=False)
    mids, mat = _load_measures(args.measures)
    cids, groups = _load_clusters(args.clusters)
    take = _align(mids, cids, f"clusters file {args.clusters}")
    assign = groups[take]
    header, crows, cmeta = read_tsv(args.centroids)
    k = len(crows)
    roles = [r[2] for r in crows]
    sizes = np.bincount(assign, minlength=k)
    _, caprows, capmeta = read_tsv(args.capitalists)
    id_to_row = {int(v): i for i, v in enumerate(mids)}
    from .capitalists import CapitalistRecord  # record shape shared with detection
    records = []
    for r in caprows:
        node = id_to_row[int(r[0])]
        records.append(CapitalistRecord(node, int(r[1]), int(r[2]), float(r[3]), float(r[4]), r[5], r[6]))
    res = ClusteringResult(k=k, assign=assign, centroids=np.zeros((k, len(MEASURE_COLUMNS))), inertia=0.0)
    tables = crosstab(records, res, mids.size)
    overlap_min = float(capmeta.get("overlap_min", cfg.overlap_min))
    in_degree_min = int(capmeta.get("in_degree_min", cfg.in_degree_min))
    group_rows = group_summary_rows(sizes, roles)
    mean_rows = [mat[assign == i].mean(axis=0) if (assign == i).any() else np.zeros(mat.shape[1])
                 for i in range(k)]
    text = render_report(group_rows, mean_rows, MEASURE_COLUMNS, tables, k,
                         overlap_min=overlap_min, in_degree_min=in_degree_min)
    chash = config_hash(cfg)
    with open(f"{args.output}_report.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(text)
    write_tsv(f"{args.output}_groups.tsv", ("group", "size", "share_pct", "role"),
              [(i, s, f"{share:.2f}", role) for i, s, share, role in group_rows], chash)
    write_tsv(f"{args.output}_group_means.tsv", ("group", *MEASURE_COLUMNS),
              [(i + 1, *(float(x) for x in mean_rows[i])) for i in range(k)], chash)
    print(f"[report] -> {args.output}_report.txt")
    return 0


def cmd_run(args) -> int:
    run_pipeline(_make_config(args))
    return 0


# ---------------------------------------------------------------------------

def _add_override_args(p: argparse.ArgumentParser, keys) -> None:
    option_for = {
        "direction": dict(choices=CONVENTIONS),
        "seed": dict(type=int),
        "min_gain": dict(type=float),
        "order": dict(choices=("natural", "shuffled")),
        "lambda_include_zeros": dict(action="store_const", const=True),
        "k_min": dict(type=int),
        "k_max": dict(type=int),
        "kmeans_restarts": dict(type=int),
        "kmeans_max_iter": dict(type=int),
        "kmeans_tol": dict(type=float),
        "overlap_min": dict(type=float),
        "in_degree_min": dict(type=int),
        "pivot_threshold": dict(type=float),
        "connector_threshold": dict(type=float),
        "orphan_threshold": dict(type=float),
        "ga_z_hub": dict(type=float),
        "ga_nonhub_cuts": dict(),
        "ga_hub_cuts": dict(),
    }
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, **option_for[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="role-forge",
        description="Community structure, directional role measures, role groups, "
                    "and social-capitalist analysis for directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("communities", help="detect communities by directed modularity")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", default=None)
    _add_override_args(p, ("direction", "min_gain", "seed", "order"))
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("measures", help="compute the 8 role measures, embeddedness, participation")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", default=None)
    _add_override_args(p, ("direction", "lambda_include_zeros"))
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("cluster", help="standardize, k-means over a k range, Davies-Bouldin selection")
    p.add_argument("--measures", required=True)
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--config", default=None)
    _add_override_args(p, ("k_min", "k_max", "seed", "kmeans_restarts", "kmeans_max_iter",
                           "kmeans_tol", "pivot_threshold", "connector_threshold", "orphan_threshold"))
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("capitalists", help="detect and band reciprocal-follow accounts")
    p.add_argument("--input", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--config", default=None)
    _add_override_args(p, ("direction", "overlap_min", "in_degree_min"))
    p.set_defaults(func=cmd_capitalists)

    p = sub.add_parser("stats", help="per-measure ANOVA and pairwise adjusted p-values over groups")
    p.add_argument("--measures", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="render the group, measure-mean, and capitalist tables")
    p.add_argument("--measures", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--centroids", required=True)
    p.add_argument("--capitalists", required=True)
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="run the whole pipeline into an output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--output-dir", dest="output_dir", default=None)
    _add_override_args(p, ("direction", "seed", "min_gain", "order", "lambda_include_zeros",
                           "k_min", "k_max", "kmeans_restarts", "kmeans_max_iter", "kmeans_tol",
                           "overlap_min", "in_degree_min", "pivot_threshold",
                           "connector_threshold", "orphan_threshold"))
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RoleForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

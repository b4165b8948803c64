"""Batch command line: ingest -> communities -> measures -> cluster ->
capitalists -> stats -> report, plus an all-in-one `run` with a checksum
manifest.

Configuration is a flat key=value file overridable by flags (flags win).
A value from either source is parsed by `config_from_mapping` and checked by
`validate_config`, the only place that checks a key.
Every output file carries the hash of the computation-relevant parameters in
a header comment, and a full `run` with a fixed seed is reproducible down to
identical artifact checksums.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .capitalists import IN_DEGREE_FLOOR, CapitalistRecord, crosstab, detect_capitalists
from .clustering import label_role, renumber_by_size, select_k, standardize
from .errors import ConfigError, DegenerateVarianceError, PipelineStageError, RoleForgeError
from .graph import CONVENTIONS, DirectedGraph, load_edge_list
from .louvain import ORDERS, Partition, louvain_directed
from .measures import (MEASURE_COLUMNS, community_profile, embeddedness_values,
                       measures_from_profile, participation_coefficients)
from .report import format_p, group_summary_rows, render_report
from .stats import one_way_anova, pairwise_t_bonferroni

# CPython's builtin SHA-256 gives hashlib's digests without loading OpenSSL,
# which would add ~4 MB to the peak of every subcommand process.
try:
    from _sha2 import sha256 as _new_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _new_sha256


@dataclass
class PipelineConfig:
    """End-to-end pipeline parameters.

    `input` and `output_dir` are paths; everything else drives computation
    and is covered by the config hash.
    """

    input: str = ""
    output_dir: str = ""
    direction: str = "src-follows-dst"
    seed: int = 0
    min_gain: float = 1e-9
    order: str = "natural"
    k_min: int = 2
    k_max: int = 15
    kmeans_restarts: int = 10
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-6
    overlap_min: float = 0.8
    in_degree_min: int = IN_DEGREE_FLOOR


_PATH_KEYS = ("input", "output_dir")
_CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))
_FLOAT_KEYS = tuple(key for key in _CONFIG_KEYS if isinstance(getattr(PipelineConfig, key), float))
# the flag of each config key; every one takes a value
_VALUE_FLAGS = frozenset(f"--{key.replace('_', '-')}" for key in _CONFIG_KEYS)


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' comments and blanks ignored."""
    data: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                s = raw.strip()
                if not s or s.startswith("#"):
                    continue
                if "=" not in s:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {s!r}")
                key, value = s.split("=", 1)
                data[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from None
    return data


def config_from_mapping(data: dict[str, str], base: PipelineConfig | None = None) -> PipelineConfig:
    """`base` (default: the defaults) with each key set to its value parsed
    to the key's type; the values are checked by validate_config."""
    cfg = replace(base) if base is not None else PipelineConfig()
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, (int, float)):
            try:
                parsed: object = type(current)(value)
            except ValueError:
                raise ConfigError(f"{key} expects {type(current).__name__}, got {value!r}") from None
        else:
            parsed = value
        setattr(cfg, key, parsed)
    return cfg


def validate_config(cfg: PipelineConfig, *, for_run: bool = True) -> None:
    """Raise ConfigError on the first value out of range; with `for_run`,
    also require the input file and the output directory."""
    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if cfg.direction not in CONVENTIONS:
        raise ConfigError(f"direction must be one of {', '.join(CONVENTIONS)}, got {cfg.direction!r}")
    if cfg.order not in ORDERS:
        raise ConfigError(f"order must be one of {', '.join(ORDERS)}, got {cfg.order!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.k_min < 2:
        raise ConfigError(f"k_min must be at least 2, got {cfg.k_min}")
    if cfg.k_max < cfg.k_min:
        raise ConfigError(f"k_max must be at least k_min ({cfg.k_min}), got {cfg.k_max}")
    if not 0.0 <= cfg.overlap_min <= 1.0:
        raise ConfigError("overlap_min must lie in [0, 1]")
    if cfg.in_degree_min < IN_DEGREE_FLOOR:
        raise ConfigError(f"in_degree_min below {IN_DEGREE_FLOOR} conflicts with the classification floor")
    for key in ("kmeans_restarts", "kmeans_max_iter"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    if cfg.kmeans_tol <= 0:
        raise ConfigError(f"kmeans_tol must be positive, got {cfg.kmeans_tol!r}")
    if cfg.min_gain < 0:
        raise ConfigError("min_gain must be non-negative")
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
    return _new_sha256(canon.encode("utf-8")).hexdigest()[:16]


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


@functools.lru_cache(maxsize=64)  # a table's rows come in a few combinations of types
def _row_template(kinds: tuple) -> str | None:
    """The %-template that writes a row of values of these types as `_fmt`
    does, bar a NaN float; None if a value is None, which `_fmt` writes blank.
    `"%.12g" % v` is `f"{v:.12g}"` for every float, and `"%s" % v` is `str(v)`."""
    if type(None) in kinds:
        return None
    return "\t".join("%.12g" if issubclass(kind, float) else "%s" for kind in kinds) + "\n"


def _format_row(row) -> str:
    row = tuple(row)
    template = _row_template(tuple(map(type, row)))
    if template is not None:
        line = template % row
        # a NaN float, which _fmt writes NA; a string holding "nan" only costs the slower join
        if "nan" not in line:
            return line
    return "\t".join(map(_fmt, row)) + "\n"


# rows converted to Python values and written per slice, so no per-node list
# is held at once; a slice of 4096 measures rows held 1.6 MB of text, which
# raised the peak of a 6k-node `run`
_ROW_SLICE = 512


def write_tsv(path, columns, rows, chash: str, extra=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        for line in extra:
            fh.write(f"# {line}\n")
        fh.write("\t".join(columns) + "\n")
        rows = iter(rows)
        while batch := list(itertools.islice(rows, _ROW_SLICE)):
            fh.write("".join(map(_format_row, batch)))


def _column_rows(*columns):
    """Rows of equal-length array columns, each slice converted with .tolist()."""
    n = len(columns[0])
    for lo in range(0, n, _ROW_SLICE):
        yield from zip(*(c[lo:lo + _ROW_SLICE].tolist() for c in columns))


def read_tsv(path, parse=None) -> tuple[list[str], list, dict[str, str]]:
    """(header, rows, comment metadata) of an artifact; raises on a missing file.

    With `parse`, each data row is parse(fields); a row it rejects with
    ValueError or IndexError raises RoleForgeError naming the file and line,
    as does a line that is not UTF-8 text.
    """
    p = Path(path)
    if not p.exists():
        raise RoleForgeError(f"missing artifact: {path}")
    header: list[str] | None = None
    rows: list = []
    meta: dict[str, str] = {}
    # undecodable bytes are read as lone surrogates, which do not encode back
    with open(p, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, 1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise RoleForgeError(f"{path}:{line_no}: not UTF-8 text") from None
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
                try:
                    rows.append(parts if parse is None else parse(parts))
                except (ValueError, IndexError):
                    raise RoleForgeError(f"{path}:{line_no}: cannot parse row {parts}") from None
    if header is None:
        raise RoleForgeError(f"empty table: {path}")
    return header, rows, meta


def _sha256(path) -> str:
    h = _new_sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stages: each maps in-memory inputs to its result plus its tables, keyed by
# artifact stem as (columns, rows, extra header lines).  `run` chains them;
# each subcommand loads its artifacts and calls one.

def _ingest_stage(cfg: PipelineConfig) -> DirectedGraph:
    g = load_edge_list(cfg.input, convention=cfg.direction)
    if g.m == 0:
        raise ConfigError("input graph has no arcs")
    return g


def _communities_stage(cfg: PipelineConfig, g: DirectedGraph):
    part, trace = louvain_directed(g, min_gain=cfg.min_gain, seed=cfg.seed, order=cfg.order)
    ids = g.node_ids
    tables = {
        "partition": (("original_id", "community"), _column_rows(ids, part.assign), ()),
        "id_map": (("dense_id", "original_id"), _column_rows(np.arange(g.n), ids), ()),
    }
    return part, trace, tables


def _measures_stage(g: DirectedGraph, part: Partition):
    profile = community_profile(g, part)
    mat = measures_from_profile(profile, part)
    emb = embeddedness_values(profile)
    pcs = participation_coefficients(profile)
    emb_or_blank = emb.astype(object)
    emb_or_blank[np.isnan(emb)] = None  # a linkless node: blank, not NA
    columns = ("original_id", "community", *MEASURE_COLUMNS, "embeddedness", "participation")
    rows = _column_rows(g.node_ids, part.assign, *mat.T, emb_or_blank, pcs)
    return mat, {"measures": (columns, rows, ())}


def _cluster_stage(cfg: PipelineConfig, ids, mat):
    """standardize -> select_k -> renumber_by_size -> role names; `ids` are
    the original ids of the rows of `mat`."""
    std = standardize(mat)
    res = select_k(std, cfg.k_min, cfg.k_max, seed=cfg.seed, max_iter=cfg.kmeans_max_iter,
                   tol=cfg.kmeans_tol, restarts=cfg.kmeans_restarts)
    res = renumber_by_size(res)
    roles = [label_role(c) for c in res.centroids]
    sizes = np.bincount(res.assign, minlength=res.k)
    tables = {
        "clusters": (("original_id", "group"), _column_rows(ids, res.assign + 1), ()),
        "centroids": (("group", "size", "role", *MEASURE_COLUMNS),
                      [(i + 1, int(sizes[i]), roles[i], *(float(x) for x in res.centroids[i]))
                       for i in range(res.k)],
                      (f"k={res.k}", f"davies_bouldin={res.db_index:.12g}")),
    }
    return res, roles, tables


def _crosstab_table(records, assign, k: int):
    """crosstab and its table: per slice, the share of capitalists, then of group."""
    ct = crosstab(records, assign, k)
    rows = []
    for (band, behavior), (row_a, row_b) in ct.items():
        rows.append((band, behavior, "share_of_capitalists", *(float(v) for v in row_a)))
        rows.append((band, behavior, "share_of_group", *(float(v) for v in row_b)))
    return ct, (("band", "behavior", "row", *(f"G{i}" for i in range(1, k + 1))), rows)


def _capitalists_stage(cfg: PipelineConfig, g: DirectedGraph, assign, k: int):
    """Detection against the groups `assign` (0-based, one per node of `g`)."""
    records = detect_capitalists(g, overlap_min=cfg.overlap_min, in_degree_min=cfg.in_degree_min)
    meta = (f"overlap_min={cfg.overlap_min}", f"in_degree_min={cfg.in_degree_min}")
    ct, (ct_columns, ct_rows) = _crosstab_table(records, assign, k)
    tables = {
        "capitalists": (("original_id", "k_in", "k_out", "overlap", "ratio", "band", "behavior", "group"),
                        [(int(g.node_ids[r.node]), r.k_in, r.k_out, r.overlap, r.ratio, r.band,
                          r.behavior, int(assign[r.node]) + 1) for r in records], meta),
        "crosstab": (ct_columns, ct_rows, meta),
    }
    return records, ct, tables


def _stats_stage(mat, groups):
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
    return {
        "anova": (("measure", "F", "df_between", "df_within", "p"), anova_rows, ()),
        "pairwise": (("measure", "group_a", "group_b", "p_adjusted"), pair_rows, ()),
    }


def _report_stage(mat, assign, k: int, roles, ct, *, overlap_min: float, in_degree_min: int):
    """The report text and its group tables; `ct` is the crosstab of the capitalists."""
    group_rows = group_summary_rows(np.bincount(assign, minlength=k), roles)
    mean_rows = [mat[assign == i].mean(axis=0) if (assign == i).any() else np.zeros(mat.shape[1])
                 for i in range(k)]
    text = render_report(group_rows, mean_rows, MEASURE_COLUMNS, ct, k,
                         overlap_min=overlap_min, in_degree_min=in_degree_min)
    tables = {
        "groups": (("group", "size", "share_pct", "role"),
                   [(i, s, f"{share:.2f}", role) for i, s, share, role in group_rows], ()),
        "group_means": (("group", *MEASURE_COLUMNS),
                        [(i + 1, *(float(x) for x in mean_rows[i])) for i in range(k)], ()),
    }
    return text, tables


def _write_tables(tables, chash: str, path_for) -> None:
    for stem, (columns, rows, extra) in tables.items():
        write_tsv(path_for(stem), columns, rows, chash, extra)


def _write_text(path, text: str, chash: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(text)


# file names `run` gives the stems whose name is not just stem + ".tsv"
_RUN_NAMES = {"crosstab": "capitalists_crosstab.tsv", "report": "report.txt",
              "groups": "report_groups.tsv", "group_means": "report_group_means.tsv"}


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

    def artifact(stem):
        name = _RUN_NAMES.get(stem, f"{stem}.tsv")
        artifacts.append(name)
        return outdir / name

    stage = "ingest"
    try:
        g = _ingest_stage(cfg)
        print(f"[ingest] n={g.n} m={g.m}")

        stage = "communities"
        part, trace, tables = _communities_stage(cfg, g)
        _write_tables(tables, chash, artifact)
        print(f"[communities] passes={len(trace.modularity)} communities={part.n_comms} "
              f"Q={trace.modularity[-1]:.6f}")

        stage = "measures"
        mat, tables = _measures_stage(g, part)
        _write_tables(tables, chash, artifact)
        print(f"[measures] rows={g.n} columns={len(MEASURE_COLUMNS) + 2}")

        stage = "cluster"
        res, roles, tables = _cluster_stage(cfg, g.node_ids, mat)
        _write_tables(tables, chash, artifact)
        print(f"[cluster] k={res.k} davies_bouldin={res.db_index:.4f}")

        stage = "capitalists"
        records, ct, tables = _capitalists_stage(cfg, g, res.assign, res.k)
        _write_tables(tables, chash, artifact)
        print(f"[capitalists] detected={len(records)}")

        stage = "stats"
        tables = _stats_stage(mat, res.assign)
        _write_tables(tables, chash, artifact)
        print(f"[stats] anova_rows={len(tables['anova'][1])} pairwise_rows={len(tables['pairwise'][1])}")

        stage = "report"
        text, tables = _report_stage(mat, res.assign, res.k, roles, ct,
                                     overlap_min=cfg.overlap_min, in_degree_min=cfg.in_degree_min)
        _write_text(artifact("report"), text, chash)
        _write_tables(tables, chash, artifact)
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

# Bytes a data row of a node table may hold, besides the line end: printable
# ASCII and tabs.  np.loadtxt strips \x1c-\x1f around a number and reads some
# non-ASCII characters as digits.
_ROW_BYTES = bytes(range(32, 127)) + b"\t\n"
# the row np.loadtxt names in its error: counted from 0 for a value it cannot
# convert, from 1 for a row short of a column
_LOADTXT_ROW = re.compile(r"(.*) at row (\d+)(, column \d+\.| with \d+ columns)")


def _node_table(path, usecols, dtype: np.dtype, finite: str | None = None):
    """(header, body) of the node table at `path`: its header's fields, and
    its data rows' `usecols` parsed by np.loadtxt into records of `dtype`.

    A node table is UTF-8 text with \\n, \\r\\n or \\r line ends.  Empty lines
    and lines starting with `#` are skipped anywhere; the first other line is
    the header, and each line after it a data row of printable ASCII and tabs,
    whose fields np.loadtxt reads, with finite numbers in the array field of
    `dtype` named `finite`, if one is.  Any other table raises RoleForgeError naming
    the file, and the line where there is one; with several bad rows the
    first in the file decides, as in `load_edge_list`.
    """
    if not Path(path).exists():
        raise RoleForgeError(f"missing artifact: {path}")
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise RoleForgeError(f"{path}:{line_no}: not UTF-8 text") from None
    kept = [i for i, s in enumerate(lines) if s and s[0] != "#"]
    if len(kept) < 2:
        raise RoleForgeError(f"empty table: {path}")
    header = lines[kept[0]].split("\t")
    rows = [lines[i] for i in kept[1:]]

    def parse(k: int) -> np.ndarray:
        """The first k rows, read."""
        if not k:  # np.loadtxt warns on no rows
            return np.empty(0, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(rows[:k], dtype=dtype, comments=None, delimiter="\t", usecols=usecols, ndmin=1)

    # bad = (first bad row, reason); each check below reads only the rows before the one found so far
    bad = None
    end = len(rows)
    # the rows are looked at one by one only if some line, a comment or the header too, holds another byte
    if data.translate(None, _ROW_BYTES):
        end = next((j for j, row in enumerate(rows) if row.encode().translate(None, _ROW_BYTES)), end)
        if end < len(rows):
            bad = (end, "not printable ASCII")
    del data, lines
    try:
        body = parse(end)
    except (ValueError, Warning) as exc:
        found = _LOADTXT_ROW.fullmatch(str(exc))
        short = bool(found) and found[3].startswith(" with")
        j = int(found[2]) - short if found else -1
        if not 0 <= j < end:
            raise RoleForgeError(f"{path}: cannot parse table: {exc}") from None
        width = len(rows[j].split("\t"))
        bad = (j, f"{width} field(s), the table needs {max(usecols) + 1}" if short else found[1])
        body = parse(j)
    if finite:
        nonfinite = np.flatnonzero(~np.isfinite(body[finite]).all(axis=1))
        if nonfinite.size:
            bad = (nonfinite[0], f"non-finite {finite}")
    if bad:
        j, reason = bad
        fields = rows[j].split("\t")
        raise RoleForgeError(f"{path}:{kept[j + 1] + 1}: cannot parse row {fields}: {reason}")
    return header, body


def _check_once(path, sorted_ids: np.ndarray, what: str) -> None:
    """Raise unless each id of a node table, `sorted_ids` sorted, is listed once."""
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if repeated.size:
        raise RoleForgeError(f"{what} file {path} lists id {repeated[0]} more than once")


_LABELS_ROW = np.dtype([("id", np.int64), ("label", np.int64)])


def _labels_for(path, ids, what: str) -> np.ndarray:
    """Second column of the artifact at `path`, joined on original id, in the order of `ids`."""
    _, body = _node_table(path, (0, 1), _LABELS_ROW)
    order = np.argsort(body["id"])
    file_ids = body["id"][order]
    _check_once(path, file_ids, what)
    at = np.minimum(np.searchsorted(file_ids, ids), file_ids.size - 1)
    missing = ids[file_ids[at] != ids]
    if missing.size:
        raise RoleForgeError(f"{what} file {path} does not cover node {missing[0]}")
    return body["label"][order[at]]


def _load_groups(path, ids):
    """0-based group labels of a clusters file aligned to `ids`, and k."""
    assign = _labels_for(path, ids, "clusters") - 1
    if assign.min() < 0:
        raise RoleForgeError(f"clusters file {path} has group labels below 1")
    if assign.max() >= assign.size:
        raise RoleForgeError(f"clusters file {path} has group labels above its node count {assign.size}")
    return assign, int(assign.max()) + 1


_MEASURES_HEADER = ("original_id", "community", *MEASURE_COLUMNS)
# the id and the measure columns of a measures row; the community is not read
_MEASURES_ROW = np.dtype([("id", np.int64), ("measure", np.float64, (len(MEASURE_COLUMNS),))])


def _load_measures(path):
    # a non-finite measure would turn its whole standardized column into zeros
    header, body = _node_table(path, (0, *range(2, len(_MEASURES_HEADER))), _MEASURES_ROW, finite="measure")
    ids = np.ascontiguousarray(body["id"])
    mat = np.ascontiguousarray(body["measure"])
    if tuple(header[:len(_MEASURES_HEADER)]) != _MEASURES_HEADER:
        raise RoleForgeError(f"unexpected measures header in {path}")
    _check_once(path, np.sort(ids), "measures")
    return ids, mat


# ---------------------------------------------------------------------------
# subcommands

def _make_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = config_from_mapping(parse_config_file(args.config), cfg)
    overrides = {key: value for key in _CONFIG_KEYS if (value := getattr(args, key, None)) is not None}
    cfg = config_from_mapping(overrides, cfg)
    validate_config(cfg, for_run=False)
    return cfg


def cmd_communities(args) -> int:
    cfg = _make_config(args)
    g = _ingest_stage(cfg)
    part, trace, tables = _communities_stage(cfg, g)
    paths = {"partition": args.output, "id_map": Path(args.output).with_suffix(".id_map.tsv")}
    _write_tables(tables, config_hash(cfg), paths.get)
    print(f"[communities] n={g.n} communities={part.n_comms} Q={trace.modularity[-1]:.6f} -> {args.output}")
    return 0


def cmd_measures(args) -> int:
    cfg = _make_config(args)
    g = _ingest_stage(cfg)
    part = Partition.from_labels(_labels_for(args.partition, g.node_ids, "partition"))
    _, tables = _measures_stage(g, part)
    _write_tables(tables, config_hash(cfg), lambda stem: args.output)
    print(f"[measures] rows={g.n} -> {args.output}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _make_config(args)
    ids, mat = _load_measures(args.measures)
    res, _, tables = _cluster_stage(cfg, ids, mat)
    _write_tables(tables, config_hash(cfg), lambda stem: f"{args.output}_{stem}.tsv")
    print(f"[cluster] k={res.k} davies_bouldin={res.db_index:.4f} -> {args.output}_clusters.tsv")
    return 0


def cmd_capitalists(args) -> int:
    cfg = _make_config(args)
    g = _ingest_stage(cfg)
    assign, k = _load_groups(args.clusters, g.node_ids)
    records, _, tables = _capitalists_stage(cfg, g, assign, k)
    _write_tables(tables, config_hash(cfg), lambda stem: f"{args.output}_{stem}.tsv")
    print(f"[capitalists] detected={len(records)} -> {args.output}_capitalists.tsv")
    return 0


def cmd_stats(args) -> int:
    cfg = _make_config(args)
    mids, mat = _load_measures(args.measures)
    assign, _ = _load_groups(args.clusters, mids)
    tables = _stats_stage(mat, assign)
    _write_tables(tables, config_hash(cfg), lambda stem: f"{args.output}_{stem}.tsv")
    print(f"[stats] -> {args.output}_anova.tsv")
    return 0


def cmd_report(args) -> int:
    cfg = _make_config(args)
    mids, mat = _load_measures(args.measures)
    assign, _ = _load_groups(args.clusters, mids)
    _, roles, _ = read_tsv(args.centroids, parse=lambda r: r[2])
    k = len(roles)
    row_of = {int(v): i for i, v in enumerate(mids)}

    def record(r):
        node = int(r[0])
        if node not in row_of:
            raise RoleForgeError(f"measures file {args.measures} does not cover node {node} "
                                 f"of {args.capitalists}")
        return CapitalistRecord(row_of[node], int(r[1]), int(r[2]), float(r[3]), float(r[4]), r[5], r[6])

    _, records, capmeta = read_tsv(args.capitalists, parse=record)
    try:
        ct, _ = _crosstab_table(records, assign, k)
    except ValueError:  # from crosstab: a group label above the centroids' k
        raise RoleForgeError(f"clusters file {args.clusters} has group labels above k={k} "
                             f"of {args.centroids}") from None
    try:
        overlap_min = float(capmeta.get("overlap_min", cfg.overlap_min))
        in_degree_min = int(capmeta.get("in_degree_min", cfg.in_degree_min))
    except ValueError:
        raise RoleForgeError(f"{args.capitalists}: cannot parse header {capmeta}") from None
    text, tables = _report_stage(mat, assign, k, roles, ct,
                                 overlap_min=overlap_min, in_degree_min=in_degree_min)
    chash = config_hash(cfg)
    _write_text(f"{args.output}_report.txt", text, chash)
    _write_tables(tables, chash, lambda stem: f"{args.output}_{stem}.tsv")
    print(f"[report] -> {args.output}_report.txt")
    return 0


def cmd_run(args) -> int:
    run_pipeline(_make_config(args))
    return 0


# ---------------------------------------------------------------------------

def _add_override_args(p: argparse.ArgumentParser, keys) -> None:
    # one flag per key, its text parsed by config_from_mapping and checked by
    # validate_config, as a config-file line is
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key)


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
    _add_override_args(p, ("direction",))
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("cluster", help="standardize, k-means over a k range, Davies-Bouldin selection")
    p.add_argument("--measures", required=True)
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--config", default=None)
    _add_override_args(p, ("k_min", "k_max", "seed", "kmeans_restarts", "kmeans_max_iter", "kmeans_tol"))
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
    _add_override_args(p, [key for key in _CONFIG_KEYS if key not in _PATH_KEYS])
    p.set_defaults(func=cmd_run)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`argv` with each `--key <value>` of a config key written `--key=<value>`
    where the value is a negative number.  argparse reads a value such as
    `-1e-9` or `-inf` as an option and rejects the flag for lacking one; so
    joined, the value reaches validate_config as a config-file line does."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and arg.startswith("-") and _is_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (RoleForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

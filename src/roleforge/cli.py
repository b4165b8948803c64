"""Batch command line: ingest -> communities -> measures -> cluster ->
capitalists -> stats -> report, plus an all-in-one `run` with a checksum
manifest.

`run` and every subcommand run each stage through `_run_stage`, which writes
the stage's tables and prints its one `[stage]` line, so a subcommand prints
`run`'s line for each stage it runs.  The subcommands read every table file
back through `_table_lines`; node tables add a row rule (`_node_table`).

Configuration is a flat key=value file overridable by flags (flags win).
A value from a file line, a flag or Python is typed and checked when its
`PipelineConfig` is built: an int key takes only an integer, a float key holds
a float (so the hash does not depend on spelling), and each key's one rule is
the check of the module whose function takes the value (`seed`'s in `errors`).
Every output file carries the hash of the computation-relevant parameters in
a header comment, and a full `run` with a fixed seed is reproducible down to
identical artifact checksums.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .capitalists import IN_DEGREE_FLOOR, CapitalistRecord, check_thresholds, crosstab, detect_capitalists
from .clustering import check_fit_params, check_k_range, label_role, renumber_by_size, select_k, standardize
from .errors import ConfigError, DegenerateVarianceError, PipelineStageError, RoleForgeError, check_seed
from .graph import DirectedGraph, _blocks, check_direction, load_edge_list
from .louvain import Partition, check_louvain_params, louvain_directed
from .measures import (MEASURE_COLUMNS, community_profile, embeddedness_values,
                       measures_from_profile, participation_coefficients)
from .report import format_p, group_summary_rows, render_report
from .stats import group_moments, one_way_anova, pairwise_t_bonferroni

# CPython's builtin SHA-256 gives hashlib's digests without loading OpenSSL,
# which would add ~4 MB to the peak of every subcommand process.
try:
    from _sha2 import sha256 as _new_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256 as _new_sha256


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end pipeline parameters.

    `input` and `output_dir` are paths, given as str or path objects and
    stored as str; everything else drives computation and is covered by the
    config hash.  Construction types each value to its default's type and
    checks it by its key's rule, raising ConfigError.
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

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)  # str, int or float
            if f.name in _PATH_KEYS and isinstance(value, os.PathLike):
                value = os.fspath(value)
            try:  # text is parsed; an int key takes only an integer, a float key stores a float
                typed = kind(value) if isinstance(value, str) or kind is float else operator.index(value)
            except (TypeError, ValueError, OverflowError):
                typed = None
            if type(typed) is not kind:
                raise ConfigError(f"{f.name} expects {kind.__name__}, got {value!r}")
            object.__setattr__(self, f.name, typed)
        check_direction(self.direction)
        check_seed(self.seed)
        check_louvain_params(self.min_gain, self.order)
        check_k_range(self.k_min, self.k_max)
        check_fit_params(self.kmeans_restarts, self.kmeans_max_iter, self.kmeans_tol)
        check_thresholds(self.overlap_min, self.in_degree_min)


_PATH_KEYS = ("input", "output_dir")
_CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))
# the flag of each config key; every one takes a value
_VALUE_FLAGS = frozenset(f"--{key.replace('_', '-')}" for key in _CONFIG_KEYS)


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' comments and blanks ignored; a leading
    UTF-8 byte-order mark is skipped."""
    data: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


def config_from_mapping(data: dict, base: PipelineConfig | None = None) -> PipelineConfig:
    """`base` (default: the defaults) with each key of `data` set to its
    value, text or Python, which PipelineConfig types and checks."""
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return replace(base or PipelineConfig(), **data)


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


def _table_lines(path) -> tuple[list[str], list[int]]:
    """The lines of the table file at `path`, and the indices of its header
    and data rows.

    A table file is UTF-8 text with \\n, \\r\\n or \\r line ends, read into
    lines as an edge list is (`graph._blocks`), so a leading byte-order mark
    is skipped.  Empty lines and lines starting with `#` are skipped anywhere;
    the first other line is the header, and each line after it a data row.
    A missing file, a file with no header and a line that is not UTF-8 text
    raise RoleForgeError naming the file, and the line where there is one.
    """
    if not Path(path).exists():
        raise RoleForgeError(f"missing artifact: {path}")
    with open(path, "rb") as fh:
        data = b"".join(_blocks(fh))
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise RoleForgeError(f"{path}:{line_no}: not UTF-8 text") from None
    kept = [i for i, s in enumerate(lines) if s and s[0] != "#"]
    if not kept:
        raise RoleForgeError(f"empty table: {path}")
    return lines, kept


def read_tsv(path, parse=None) -> tuple[list[str], list, dict[str, str]]:
    """(header, rows, comment metadata) of the table file at `path`
    (`_table_lines`); the metadata are the `key=value` bodies of its `#` lines.

    With `parse`, each data row is parse(fields); a row it rejects with
    ValueError, IndexError or OverflowError raises RoleForgeError naming the
    file and line.
    """
    lines, kept = _table_lines(path)
    meta = dict(map(str.strip, s.lstrip("#").split("=", 1)) for s in lines if s[:1] == "#" and "=" in s)
    rows: list = []
    for i in kept[1:]:
        parts = lines[i].split("\t")
        try:
            rows.append(parts if parse is None else parse(parts))
        except (ValueError, IndexError, OverflowError):
            raise RoleForgeError(f"{path}:{i + 1}: cannot parse row {parts}") from None
    return lines[kept[0]].split("\t"), rows, meta


def _sha256(path) -> str:
    h = _new_sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stages: each maps in-memory inputs to (result, tables, summary): its tables
# keyed by artifact stem as (columns, rows, extra header lines), or as text,
# and its one-line summary.  `_run_stage` runs one; `run` chains them, and
# each subcommand loads its artifacts and runs the ones it names.

def _ingest_stage(cfg: PipelineConfig):
    g = load_edge_list(cfg.input, convention=cfg.direction)
    if g.m == 0:
        raise ConfigError("input graph has no arcs")
    return g, {}, f"n={g.n} m={g.m}"


def _communities_stage(cfg: PipelineConfig, g: DirectedGraph):
    part, trace = louvain_directed(g, min_gain=cfg.min_gain, seed=cfg.seed, order=cfg.order)
    ids = g.node_ids
    tables = {
        "partition": (("original_id", "community"), _column_rows(ids, part.assign), ()),
        "id_map": (("dense_id", "original_id"), _column_rows(np.arange(g.n), ids), ()),
    }
    return part, tables, f"passes={len(trace.modularity)} communities={part.n_comms} Q={trace.modularity[-1]:.6f}"


def _measures_stage(g: DirectedGraph, labels: np.ndarray):
    """The measures of each node of `g` under the communities `labels` (one
    per node), which its `community` column keeps as given."""
    part = Partition.from_labels(labels)
    profile = community_profile(g, part)
    mat = measures_from_profile(profile, part)
    emb = embeddedness_values(profile)
    pcs = participation_coefficients(profile)
    emb_or_blank = emb.astype(object)
    emb_or_blank[np.isnan(emb)] = None  # a linkless node: blank, not NA
    columns = ("original_id", "community", *MEASURE_COLUMNS, "embeddedness", "participation")
    rows = _column_rows(g.node_ids, labels, *mat.T, emb_or_blank, pcs)
    return mat, {"measures": (columns, rows, ())}, f"rows={g.n} columns={len(columns)}"


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
    return (res, roles), tables, f"k={res.k} davies_bouldin={res.db_index:.4f}"


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
    return ct, tables, f"detected={len(records)}"


def _stats_stage(mat, groups):
    """ANOVA and pairwise tables over the 0-based `groups`.  A pair is named
    by its two labels + 1, as in the clusters file, even when some labels
    have no rows."""
    present = np.flatnonzero(np.bincount(groups)).tolist()  # row/column labels of the p matrix
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
                pair_rows.append((name, present[a] + 1, present[b] + 1, format_p(float(p))))
    tables = {
        "anova": (("measure", "F", "df_between", "df_within", "p"), anova_rows, ()),
        "pairwise": (("measure", "group_a", "group_b", "p_adjusted"), pair_rows, ()),
    }
    return None, tables, f"anova_rows={len(anova_rows)} pairwise_rows={len(pair_rows)}"


def _report_stage(mat, assign, k: int, roles, ct, overlap_min: float, in_degree_min: int):
    """The report text and its group tables; `ct` is the crosstab of the capitalists."""
    group_rows = group_summary_rows(np.bincount(assign, minlength=k), roles)
    mean_rows = np.column_stack([group_moments(col, assign, k)[1] for col in mat.T])  # 0 for an empty group
    text = render_report(group_rows, mean_rows, MEASURE_COLUMNS, ct, k,
                         overlap_min=overlap_min, in_degree_min=in_degree_min)
    tables = {
        "report": text,
        "groups": (("group", "size", "share_pct", "role"),
                   [(i, s, f"{share:.2f}", role) for i, s, share, role in group_rows], ()),
        "group_means": (("group", *MEASURE_COLUMNS),
                        [(i + 1, *(float(x) for x in mean_rows[i])) for i in range(k)], ()),
    }
    return None, tables, "written"


def _run_stage(name: str, stage, *args, chash: str, path_for):
    """Run one stage: call stage(*args), write each of its tables to
    path_for(stem) under a `# config_hash=` line, print its `[name] summary`
    line and return its result.  `run` and every subcommand run their stages
    through here."""
    result, tables, summary = stage(*args)
    for stem, table in tables.items():
        if isinstance(table, str):
            with open(path_for(stem), "w", encoding="utf-8") as fh:
                fh.write(f"# config_hash={chash}\n{table}")
        else:
            columns, rows, extra = table
            write_tsv(path_for(stem), columns, rows, chash, extra)
    print(f"[{name}] {summary}")
    return result


# file names `run` gives the stems whose name is not just stem + ".tsv"
_RUN_NAMES = {"crosstab": "capitalists_crosstab.tsv", "report": "report.txt",
              "groups": "report_groups.tsv", "group_means": "report_group_means.tsv"}


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage, write the artifacts plus manifest.json, return the manifest.

    A stage failure raises PipelineStageError naming the stage; artifacts
    written before the failure are left in place.
    """
    if not cfg.input:
        raise ConfigError("input is required")
    if not Path(cfg.input).exists():
        raise ConfigError(f"input not found: {cfg.input}")
    if not cfg.output_dir:
        raise ConfigError("output_dir is required")
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    artifacts: list[str] = []

    def artifact(stem):
        name = _RUN_NAMES.get(stem, f"{stem}.tsv")
        artifacts.append(name)
        return outdir / name

    def run(name, stage, *args):
        try:
            return _run_stage(name, stage, *args, chash=chash, path_for=artifact)
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    g = run("ingest", _ingest_stage, cfg)
    part = run("communities", _communities_stage, cfg, g)
    mat = run("measures", _measures_stage, g, part.assign)
    res, roles = run("cluster", _cluster_stage, cfg, g.node_ids, mat)
    ct = run("capitalists", _capitalists_stage, cfg, g, res.assign, res.k)
    run("stats", _stats_stage, mat, res.assign)
    run("report", _report_stage, mat, res.assign, res.k, roles, ct, cfg.overlap_min, cfg.in_degree_min)

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
# rows read at once while looking for the first bad row of a table
_SCAN_SLICE = 2048


def _loadtxt(rows, usecols, dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(rows, dtype=dtype, comments=None, delimiter="\t", usecols=usecols, ndmin=1)


def _read_rows(rows, usecols, dtype: np.dtype, finite: str | None) -> np.ndarray | str:
    """The records of `rows` if the node-table rule accepts each of them, else
    why it rejects them: for a single row, the fault of that row."""
    if "\n".join(rows).encode().translate(None, _ROW_BYTES):
        return "not printable ASCII"
    try:
        body = _loadtxt(rows, usecols, dtype)
    except (ValueError, Warning) as exc:
        width = min(row.count("\t") for row in rows) + 1
        if width <= max(usecols):
            return f"{width} field(s), the table needs {max(usecols) + 1}"
        # numpy counts rows from 0 within what it was given: a single row is row 0
        return str(exc).replace(" at row 0,", " at")
    if finite and not np.isfinite(body[finite]).all():
        return f"non-finite {finite}"
    return body


def _node_table(path, usecols, dtype: np.dtype, finite: str | None = None):
    """(header, body) of the node table at `path`: its header's fields, and
    its data rows' `usecols` parsed by np.loadtxt into records of `dtype`.

    A node table is a table file (`_table_lines`) with at least one data row,
    each of printable ASCII and tabs, whose fields np.loadtxt reads, with
    finite numbers in the array field of `dtype` named `finite`, if one is.
    Any other table raises RoleForgeError naming the file, and the line where
    there is one; with several bad rows the first in the file decides, as in
    `load_edge_list`.
    """
    lines, kept = _table_lines(path)
    if len(kept) < 2:
        raise RoleForgeError(f"empty table: {path}")
    header = lines[kept[0]].split("\t")
    rows = [lines[i] for i in kept[1:]]
    del lines
    # the bulk path: one byte scan, one parse and one finite check of every row
    body = _read_rows(rows, usecols, dtype, finite)
    if isinstance(body, str):  # rejected: the first slice that fails is read row by row
        for lo in range(0, len(rows), _SCAN_SLICE):
            if isinstance(_read_rows(rows[lo:lo + _SCAN_SLICE], usecols, dtype, finite), str):
                for j, row in enumerate(rows[lo:lo + _SCAN_SLICE], lo):
                    if isinstance(why := _read_rows([row], usecols, dtype, finite), str):
                        fields = row.split("\t")
                        raise RoleForgeError(f"{path}:{kept[j + 1] + 1}: cannot parse row {fields}: {why}")
        # not reached while np.loadtxt accepts the rows it accepts slice by slice
        raise RoleForgeError(f"{path}: cannot parse table: {body}")
    return header, body


def _check_once(path, sorted_ids: np.ndarray, what: str, name: str = "id") -> None:
    """Raise unless each id of a table, `sorted_ids` sorted, is listed once."""
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if repeated.size:
        raise RoleForgeError(f"{what} file {path} lists {name} {repeated[0]} more than once")


def _join(path, what: str, keys: np.ndarray, wanted: np.ndarray, names=("id", "node"), of: str = "") -> np.ndarray:
    """The index into `keys`, the ids the `what` file at `path` lists, of each
    of `wanted`; raises unless each id is listed once and every one of
    `wanted` is listed.  An error calls an id and a wanted one by `names`,
    and ends with `of` for one not listed."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    _check_once(path, sorted_keys, what, names[0])
    at = np.minimum(np.searchsorted(sorted_keys, wanted), sorted_keys.size - 1)
    missing = wanted[sorted_keys[at] != wanted]
    if missing.size:
        raise RoleForgeError(f"{what} file {path} does not cover {names[1]} {missing[0]}{of}")
    return order[at]


_LABELS_ROW = np.dtype([("id", np.int64), ("label", np.int64)])


def _labels_for(path, ids, what: str) -> np.ndarray:
    """Second column of the artifact at `path`, joined on original id, in the order of `ids`."""
    _, body = _node_table(path, (0, 1), _LABELS_ROW)
    return body["label"][_join(path, what, body["id"], ids)]


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
    data = parse_config_file(args.config) if getattr(args, "config", None) else {}
    data.update((key, value) for key in _CONFIG_KEYS if (value := getattr(args, key, None)) is not None)
    return config_from_mapping(data)


def _subcommand(args, path_for):
    """A subcommand's config, and its stage runner writing table `stem` to path_for(stem)."""
    cfg = _make_config(args)
    return cfg, functools.partial(_run_stage, chash=config_hash(cfg), path_for=path_for)


def _prefixed(args):
    """The file of each stem under the `--output` prefix: `<prefix>_<stem>.tsv`,
    and `<prefix>_report.txt` for the report text."""
    return lambda stem: f"{args.output}_{stem}.{'txt' if stem == 'report' else 'tsv'}"


def cmd_communities(args) -> int:
    paths = {"partition": args.output, "id_map": Path(args.output).with_suffix(".id_map.tsv")}
    cfg, run = _subcommand(args, paths.get)
    g = run("ingest", _ingest_stage, cfg)
    run("communities", _communities_stage, cfg, g)
    return 0


def cmd_measures(args) -> int:
    cfg, run = _subcommand(args, lambda stem: args.output)
    g = run("ingest", _ingest_stage, cfg)
    run("measures", _measures_stage, g, _labels_for(args.partition, g.node_ids, "partition"))
    return 0


def cmd_cluster(args) -> int:
    cfg, run = _subcommand(args, _prefixed(args))
    ids, mat = _load_measures(args.measures)
    run("cluster", _cluster_stage, cfg, ids, mat)
    return 0


def cmd_capitalists(args) -> int:
    cfg, run = _subcommand(args, _prefixed(args))
    g = run("ingest", _ingest_stage, cfg)
    assign, k = _load_groups(args.clusters, g.node_ids)
    run("capitalists", _capitalists_stage, cfg, g, assign, k)
    return 0


def cmd_stats(args) -> int:
    _, run = _subcommand(args, _prefixed(args))
    mids, mat = _load_measures(args.measures)
    assign, _ = _load_groups(args.clusters, mids)
    run("stats", _stats_stage, mat, assign)
    return 0


def cmd_report(args) -> int:
    cfg, run = _subcommand(args, _prefixed(args))
    mids, mat = _load_measures(args.measures)
    assign, _ = _load_groups(args.clusters, mids)
    # the role of group i is on the centroids row labelled i, for each i in 1..k
    _, centroids, _ = read_tsv(args.centroids, parse=lambda r: (np.int64(r[0]), r[2]))
    k = len(centroids)
    labels = np.array([label for label, _ in centroids], dtype=np.int64)
    at = _join(args.centroids, "centroids", labels, np.arange(1, k + 1), names=("group", "group"))
    roles = [centroids[i][1] for i in at.tolist()]
    # a record's node is its capitalist's measures row
    _, records, capmeta = read_tsv(args.capitalists, parse=lambda r: CapitalistRecord(
        np.int64(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]), r[5], r[6]))
    cap_ids = np.array([r.node for r in records], dtype=np.int64)
    _check_once(args.capitalists, np.sort(cap_ids), "capitalists")
    rows = _join(args.measures, "measures", mids, cap_ids, of=f" of {args.capitalists}")
    records = [replace(r, node=row) for r, row in zip(records, rows.tolist())]
    try:
        ct = crosstab(records, assign, k)
    except ValueError:  # from crosstab: a group label above the centroids' k
        raise RoleForgeError(f"clusters file {args.clusters} has group labels above k={k} "
                             f"of {args.centroids}") from None
    try:  # the thresholds the capitalists were detected with, as their keys take them
        cfg = config_from_mapping({key: capmeta[key] for key in ("overlap_min", "in_degree_min")
                                   if key in capmeta}, cfg)
    except ConfigError as exc:
        raise RoleForgeError(f"{args.capitalists}: bad header {capmeta}: {exc}") from None
    run("report", _report_stage, mat, assign, k, roles, ct, cfg.overlap_min, cfg.in_degree_min)
    return 0


def cmd_run(args) -> int:
    run_pipeline(_make_config(args))
    return 0


# ---------------------------------------------------------------------------

def _add_override_args(p: argparse.ArgumentParser, keys) -> None:
    # one flag per key, its text typed and checked by PipelineConfig, as a
    # config-file line is
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key)


# each subcommand but `run`: its function, its help, the files it reads, whether
# its --output is a path prefix, and the config keys it takes as flags
_SUBCOMMANDS = {
    "communities": (cmd_communities, "detect communities by directed modularity",
                    ("input",), False, ("direction", "min_gain", "seed", "order")),
    "measures": (cmd_measures, "compute the 8 role measures, embeddedness, participation",
                 ("input", "partition"), False, ("direction",)),
    "cluster": (cmd_cluster, "standardize, k-means over a k range, Davies-Bouldin selection",
                ("measures",), True, ("k_min", "k_max", "seed", "kmeans_restarts", "kmeans_max_iter", "kmeans_tol")),
    "capitalists": (cmd_capitalists, "detect and band reciprocal-follow accounts",
                    ("input", "clusters"), True, ("direction", "overlap_min", "in_degree_min")),
    "stats": (cmd_stats, "per-measure ANOVA and pairwise adjusted p-values over groups",
              ("measures", "clusters"), True, ()),
    "report": (cmd_report, "render the group, measure-mean, and capitalist tables",
               ("measures", "clusters", "centroids", "capitalists"), True, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="role-forge",
        description="Community structure, directional role measures, role groups, "
                    "and social-capitalist analysis for directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, reads, prefix, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in reads:
            p.add_argument(f"--{flag}", required=True)
        p.add_argument("--output", required=True, help="output path prefix" if prefix else None)
        p.add_argument("--config", default=None)
        _add_override_args(p, keys)
        p.set_defaults(func=func)

    p = sub.add_parser("run", help="run the whole pipeline into an output directory")
    p.add_argument("--config", default=None)
    _add_override_args(p, _CONFIG_KEYS)  # --input and --output-dir among them
    p.set_defaults(func=cmd_run)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`argv` with each `--key <value>` of a config key written `--key=<value>`
    where the value is a negative number.  argparse reads a value such as
    `-1e-9` or `-inf` as an option and rejects the flag for lacking one; so
    joined, the value reaches PipelineConfig as a config-file line does."""
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

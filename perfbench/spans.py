"""Outside-in tracing of the roleforge layers, and the per-layer metrics.

Every traced function is wrapped at the module attribute its caller looks up
at call time, so nothing under src/ changes:

* cli.py binds its stages with `from .x import y`, so the stage calls are
  wrapped in `roleforge.cli` (wrapping `roleforge.louvain.louvain_directed`
  would miss them);
* `select_k` looks up `kmeans` and `davies_bouldin` in `roleforge.clustering`;
* `louvain_directed` looks up `aggregate_graph` and `directed_modularity` in
  `roleforge.louvain`;
* `detect_capitalists` looks up `map_chunks` in `roleforge.capitalists`.

A site whose attribute no longer exists is skipped, and its metrics read 0.
Spans are kept in memory and handed back for writing when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM).

    Not `getrusage(RUSAGE_SELF).ru_maxrss`: Linux carries that value across
    exec, so a child launched by a large parent starts at the parent's RSS.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _candidates(args, kwargs) -> int:
    return int((args[0].in_degrees >= kwargs.get("in_degree_min", 500)).sum())


# Counts read from a traced call's arguments and result, after its span ends.
_NOTES = {
    "graph.load_edge_list": lambda a, k, r: {"arcs": int(r.m)},
    "louvain.louvain_directed": lambda a, k, r: {"passes": len(r[1].modularity),
                                                 "communities": int(r[0].n_comms)},
    "clustering.kmeans": lambda a, k, r: {"iters": len(r.inertia_trace) - 1},
    "clustering.select_k": lambda a, k, r: {"k": int(r.k)},
    "capitalists.detect_capitalists": lambda a, k, r: {"detected": len(r),
                                                       "candidates": _candidates(a, k)},
    "cli.write_tsv": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "cli.read_tsv": lambda a, k, r: {"rows": len(r[1])},
}

# (module the caller looks the name up in, attribute, span name)
WRAP_SITES = (
    ("roleforge.cli", "main", "cli.main"),
    ("roleforge.cli", "load_edge_list", "graph.load_edge_list"),
    ("roleforge.cli", "louvain_directed", "louvain.louvain_directed"),
    ("roleforge.louvain", "aggregate_graph", "louvain.aggregate_graph"),
    ("roleforge.louvain", "directed_modularity", "louvain.directed_modularity"),
    ("roleforge.cli", "community_profile", "measures.community_profile"),
    ("roleforge.cli", "measures_from_profile", "measures.measures_from_profile"),
    ("roleforge.cli", "embeddedness_values", "measures.embeddedness_values"),
    ("roleforge.cli", "participation_coefficients", "measures.participation_coefficients"),
    ("roleforge.cli", "standardize", "clustering.standardize"),
    ("roleforge.cli", "select_k", "clustering.select_k"),
    ("roleforge.clustering", "kmeans", "clustering.kmeans"),
    ("roleforge.clustering", "davies_bouldin", "clustering.davies_bouldin"),
    ("roleforge.cli", "renumber_by_size", "clustering.renumber_by_size"),
    ("roleforge.cli", "detect_capitalists", "capitalists.detect_capitalists"),
    ("roleforge.capitalists", "map_chunks", "parallel.map_chunks"),
    ("roleforge.cli", "crosstab", "capitalists.crosstab"),
    ("roleforge.cli", "one_way_anova", "stats.one_way_anova"),
    ("roleforge.cli", "pairwise_t_bonferroni", "stats.pairwise_t_bonferroni"),
    ("roleforge.cli", "group_summary_rows", "report.group_summary_rows"),
    ("roleforge.cli", "render_report", "report.render_report"),
    ("roleforge.cli", "write_tsv", "cli.write_tsv"),
    ("roleforge.cli", "read_tsv", "cli.read_tsv"),
)


class Tracer:
    """Records one span (name, start, end, parent index) per traced call.

    The parent is the innermost traced call still running, so every traced
    call must come from one thread; the worker threads of `map_chunks` call
    nothing that is traced.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _wrap(self, fn, name):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "rss0_kb": peak_rss_kb(), "start": time.monotonic()}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.monotonic()
                span["rss1_kb"] = peak_rss_kb()
                self._open.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name))


# Per-layer metrics of a traced job, in report order, with their units.
PER_LAYER = (
    ("clustering.select_k.s", "s"),
    ("clustering.kmeans.s", "s"),
    ("clustering.kmeans.calls", "count"),
    ("clustering.kmeans.max_s", "s"),
    ("clustering.davies_bouldin.s", "s"),
    ("clustering.lloyd_iters", "count"),
    ("clustering.k_valid_ratio", "ratio"),
    ("clustering.k_chosen", "count"),
    ("clustering.standardize.s", "s"),
    ("louvain.louvain_directed.s", "s"),
    ("louvain.local_move.self_s", "s"),
    ("louvain.aggregate_graph.s", "s"),
    ("louvain.directed_modularity.s", "s"),
    ("louvain.passes", "count"),
    ("louvain.communities", "count"),
    ("graph.load_edge_list.s", "s"),
    ("graph.load_edge_list.calls", "count"),
    ("graph.load_edge_list.rss_growth_mb", "MB"),
    ("graph.arcs_kept_ratio", "ratio"),
    ("cli.write_tsv.s", "s"),
    ("cli.write_tsv.bytes", "bytes"),
    ("cli.read_tsv.s", "s"),
    ("cli.read_tsv.rows", "count"),
    ("cli.self_s", "s"),
    ("measures.community_profile.s", "s"),
    ("measures.measures_from_profile.s", "s"),
    ("measures.participation_coefficients.s", "s"),
    ("capitalists.detect_capitalists.s", "s"),
    ("capitalists.candidates", "count"),
    ("capitalists.detected", "count"),
    ("capitalists.detect_ratio", "ratio"),
    ("capitalists.crosstab.s", "s"),
    ("parallel.map_chunks.s", "s"),
    ("stats.one_way_anova.s", "s"),
    ("stats.pairwise_t_bonferroni.s", "s"),
    ("report.render_report.s", "s"),
    ("process.outside_main_s", "s"),
    ("trace.overhead_s", "s"),
    # Output quality, read by the checks: 0 on workloads that do not produce it.
    ("clustering.db_index", "index"),
    ("clustering.connector_share", "ratio"),
    ("capitalists.precision", "ratio"),
    ("capitalists.recall", "ratio"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def job_layers(span_lists, job_wall_s: float, lines_per_load: int) -> tuple[dict, dict]:
    """(per-layer metrics, seconds per top-level span name) of one traced job.

    `span_lists` holds the spans of each invocation of the job.  A span's self
    time is its duration minus the durations of its direct children, which
    never overlap because every traced call runs on one thread.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    top_level: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        children = [0.0] * len(spans)
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                children[s["parent"]] += s["dur"]
        for s, child_s in zip(spans, children):
            s["self"] = s["dur"] - child_s
            by_name[s["name"]].append(s)
            if s["parent"] is not None and spans[s["parent"]]["name"] == "cli.main":
                top_level[s["name"]] += s["dur"]

    def total(name, key="dur"):
        return sum(s.get(key, 0) for s in by_name[name])

    m = {name: total(name[:-2]) for name, unit in PER_LAYER if name.endswith(".s")}
    kmeans = by_name["clustering.kmeans"]
    select = by_name["clustering.select_k"]
    loads = by_name["graph.load_edge_list"]
    valid_k = sum(1 for s in by_name["clustering.davies_bouldin"] if "error" not in s)
    m.update({
        "clustering.kmeans.calls": len(kmeans),
        "clustering.kmeans.max_s": max((s["dur"] for s in kmeans), default=0.0),
        "clustering.lloyd_iters": total("clustering.kmeans", "iters"),
        "clustering.k_valid_ratio": _ratio(valid_k, len(kmeans)),
        "clustering.k_chosen": select[-1]["k"] if select else 0,
        "louvain.local_move.self_s": total("louvain.louvain_directed", "self"),
        "louvain.passes": total("louvain.louvain_directed", "passes"),
        "louvain.communities": total("louvain.louvain_directed", "communities"),
        "graph.load_edge_list.calls": len(loads),
        "graph.load_edge_list.rss_growth_mb": max(((s["rss1_kb"] - s["rss0_kb"]) / 1024 for s in loads),
                                                  default=0.0),
        "graph.arcs_kept_ratio": _ratio(total("graph.load_edge_list", "arcs"), len(loads) * lines_per_load),
        "cli.write_tsv.bytes": total("cli.write_tsv", "bytes"),
        "cli.read_tsv.rows": total("cli.read_tsv", "rows"),
        "cli.self_s": total("cli.main", "self"),
        "capitalists.candidates": total("capitalists.detect_capitalists", "candidates"),
        "capitalists.detected": total("capitalists.detect_capitalists", "detected"),
        "process.outside_main_s": job_wall_s - total("cli.main"),
    })
    m["capitalists.detect_ratio"] = _ratio(m["capitalists.detected"], m["capitalists.candidates"])
    return m, dict(top_level)

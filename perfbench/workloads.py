"""The benchmark's workloads: seeded inputs, role-forge invocations, output checks.

Each workload fixes the generator call, so every seed runs the same graph
structure.  The seed draws the original node ids (sorted, so dense ids and
every computation stay the same) and the line order of the edge list.  The
graph draw is fixed because the work of natural-order Louvain depends on it:
on `planted_partition_graph(20, 2500)` one `communities` run took 9.5 s, 15.9 s
or 22 s for generator seeds 1 to 3, a spread no bound could absorb.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from roleforge import synth

CONNECTOR_FLOOR = 0.7
# The CLI prints Q with six decimals.
Q_PRINT_TOL = 5e-7 + 1e-12


@dataclass
class Inputs:
    """Files handed to the program, plus what the checks compare its outputs to."""

    edges: Path
    lines: int
    ids: np.ndarray       # dense id -> original id written to the edge list
    src: np.ndarray       # dense arc endpoints
    dst: np.ndarray
    planted_comm: np.ndarray  # dense id -> planted community
    planted_caps: set[int]    # original ids of the planted mass-followers
    files: dict[str, Path]
    record: dict


@dataclass
class Outcome:
    failures: list[tuple[str, str]] = field(default_factory=list)  # (invocation label, reason)
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def expect(self, ok: bool, label: str, reason: str) -> None:
        if not ok:
            self.failures.append((label, reason))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    full: dict
    toy: dict
    invocations: Callable[[Inputs, Path], list[tuple[str, list[str]]]]
    check: Callable[[Inputs, Path, dict[str, str]], Outcome]
    extra_files: Callable[[Inputs, Path], dict[str, Path]] = lambda inp, d: {}


def directed_q(src, dst, labels) -> float:
    """Leicht-Newman directed modularity of an unweighted simple digraph."""
    m = src.size
    internal = np.count_nonzero(labels[src] == labels[dst])
    k = int(labels.max()) + 1
    out_c = np.bincount(labels[src], minlength=k).astype(np.float64)
    in_c = np.bincount(labels[dst], minlength=k).astype(np.float64)
    return internal / m - float(out_c @ in_c) / (m * m)


def make_inputs(wl: Workload, seed: int, workdir: Path, toy: bool = False) -> Inputs:
    kwargs = wl.toy if toy else wl.full
    made = getattr(synth, wl.generator)(**kwargs)
    g, part = made[0], made[1]
    if np.any(g.out_degrees + g.in_degrees == 0):
        raise ValueError(f"{wl.generator}({kwargs}) leaves isolated nodes, which ingest would drop")
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * g.n, size=g.n, replace=False))
    src, dst = g.arc_src, g.out_indices
    order = rng.permutation(g.m)
    workdir.mkdir(parents=True, exist_ok=True)
    edges = workdir / "edges.txt"
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a} {b}\n" for a, b in zip(ids[src[order]].tolist(), ids[dst[order]].tolist())))
    caps = set(ids[made[2]].tolist()) if len(made) > 2 else set()
    call = ", ".join(f"{k}={v}" for k, v in kwargs.items())
    inp = Inputs(edges=edges, lines=g.m, ids=ids, src=src, dst=dst, planted_comm=part.assign,
                 planted_caps=caps, files={}, record={
                     "generator": f"roleforge.synth.{wl.generator}({call})",
                     "seed_draws": "original node ids (sorted sample of range(10 n)) and edge-list line order",
                     "seed": seed, "n": g.n, "m": g.m, "edge_list_bytes": edges.stat().st_size,
                     "planted_q": directed_q(src, dst, part.assign)})
    inp.files = wl.extra_files(inp, workdir)
    return inp


# ---------------------------------------------------------------------------
# reading artifacts

def _table(path) -> tuple[list[str], list[list[str]], dict[str, str]]:
    header, rows, meta = None, [], {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            s = raw.rstrip("\n")
            if s.startswith("#"):
                key, _, value = s.lstrip("# ").partition("=")
                meta[key] = value
            elif s:
                if header is None:
                    header = s.split("\t")
                else:
                    rows.append(s.split("\t"))
    if header is None:
        raise ValueError(f"{path} has no header")
    return header, rows, meta


def _dense_labels(inp: Inputs, rows, col: int) -> np.ndarray:
    """Per-dense-node labels from artifact rows keyed by original id (column 0)."""
    orig = np.array([int(r[0]) for r in rows], dtype=np.int64)
    dense = np.searchsorted(inp.ids, orig)
    if orig.size != inp.ids.size or not np.array_equal(np.sort(dense), np.arange(inp.ids.size)) \
            or not np.array_equal(inp.ids[dense], orig):
        raise ValueError("artifact rows do not cover every node exactly once")
    labels = np.empty(inp.ids.size, dtype=np.int64)
    labels[dense] = [int(r[col]) for r in rows]
    return labels


def _q_of_column(inp: Inputs, path, col: int) -> float:
    _, rows, _ = _table(path)
    labels = _dense_labels(inp, rows, col)
    return directed_q(inp.src, inp.dst, np.unique(labels, return_inverse=True)[1])


def _check_printed_q(out: Outcome, label: str, stdout: str, q: float) -> None:
    printed = [float(tok[2:]) for tok in stdout.split() if tok.startswith("Q=")]
    out.expect(len(printed) == 1 and abs(printed[0] - q) <= Q_PRINT_TOL, label,
               f"printed Q {printed} differs from Q {q:.9f} recomputed from the written partition")


def _check_capitalists(out: Outcome, inp: Inputs, label: str, path) -> None:
    _, rows, _ = _table(path)
    found = {int(r[0]) for r in rows}
    hit = len(found & inp.planted_caps)
    out.quality["capitalist_precision"] = hit / len(found) if found else 0.0
    out.quality["capitalist_recall"] = hit / len(inp.planted_caps) if inp.planted_caps else 0.0
    out.expect(found == inp.planted_caps, label,
               f"detected {len(found)} capitalists, {hit} of the {len(inp.planted_caps)} planted")


def _missing(out: Outcome, where: Path, expected: dict[str, str]) -> bool:
    for name, label in expected.items():
        out.expect((where / name).is_file(), label, f"did not write {name}")
    return bool(out.failures)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# roles: the whole `run` pipeline

ROLES_ARTIFACTS = ("partition.tsv", "id_map.tsv", "measures.tsv", "clusters.tsv", "centroids.tsv",
                   "capitalists.tsv", "capitalists_crosstab.tsv", "anova.tsv", "pairwise.tsv",
                   "report.txt", "report_groups.tsv", "report_group_means.tsv", "manifest.json")


def _roles_invocations(inp: Inputs, job: Path):
    return [("run", ["run", "--input", inp.edges, "--output-dir", job / "out", "--seed", "7"])]


def _roles_check(inp: Inputs, job: Path, stdout: dict[str, str]) -> Outcome:
    out = Outcome()
    res = job / "out"
    if _missing(out, res, {name: "run" for name in ROLES_ARTIFACTS}):
        return out
    q = _q_of_column(inp, res / "partition.tsv", 1)
    out.quality["modularity_q"] = q
    _check_printed_q(out, "run", stdout["run"], q)
    _check_capitalists(out, inp, "run", res / "capitalists.tsv")

    header, crows, cmeta = _table(res / "centroids.tsv")
    d_out, i_ext_out = header.index("D_out"), header.index("I_ext_out")
    good = {int(r[0]) for r in crows if float(r[d_out]) > 0 and float(r[i_ext_out]) > 0}
    _, clrows, _ = _table(res / "clusters.tsv")
    group_of = {int(r[0]): int(r[1]) for r in clrows}
    share = sum(1 for u in inp.planted_caps if group_of[u] in good) / len(inp.planted_caps)
    out.quality["connector_share"] = share
    out.expect(share >= CONNECTOR_FLOOR, "run",
               f"connector_share {share:.3f} below the paper's floor {CONNECTOR_FLOOR}")
    out.quality["db_index"] = float(cmeta["davies_bouldin"])
    out.digest = _digest([res / "manifest.json"])
    return out


# ---------------------------------------------------------------------------
# communities: Louvain alone

COMMUNITIES_ARTIFACTS = ("partition.tsv", "partition.id_map.tsv")


def _communities_invocations(inp: Inputs, job: Path):
    return [("communities", ["communities", "--input", inp.edges, "--output", job / "partition.tsv"])]


def _communities_check(inp: Inputs, job: Path, stdout: dict[str, str]) -> Outcome:
    out = Outcome()
    if _missing(out, job, {name: "communities" for name in COMMUNITIES_ARTIFACTS}):
        return out
    q = _q_of_column(inp, job / "partition.tsv", 1)
    out.quality["modularity_q"] = q
    _check_printed_q(out, "communities", stdout["communities"], q)
    out.digest = _digest([job / name for name in COMMUNITIES_ARTIFACTS])
    return out


# ---------------------------------------------------------------------------
# restage: measures, capitalists and stats over existing artifacts

RESTAGE_ARTIFACTS = {"measures.tsv": "measures", "cap_capitalists.tsv": "capitalists",
                     "cap_crosstab.tsv": "capitalists", "st_anova.tsv": "stats",
                     "st_pairwise.tsv": "stats"}
RESTAGE_GROUPS = 8


def _restage_files(inp: Inputs, workdir: Path) -> dict[str, Path]:
    """The planted partition, and clusters = planted community mod 8, + 1."""
    files = {"partition": workdir / "partition.tsv", "clusters": workdir / "clusters.tsv"}
    for (key, column), values in ((("partition", "community"), inp.planted_comm),
                                  (("clusters", "group"), inp.planted_comm % RESTAGE_GROUPS + 1)):
        with open(files[key], "w", encoding="utf-8") as fh:
            fh.write(f"original_id\t{column}\n")
            fh.write("".join(f"{u}\t{c}\n" for u, c in zip(inp.ids.tolist(), values.tolist())))
    return files


def _restage_invocations(inp: Inputs, job: Path):
    return [
        ("measures", ["measures", "--input", inp.edges, "--partition", inp.files["partition"],
                      "--output", job / "measures.tsv"]),
        ("capitalists", ["capitalists", "--input", inp.edges, "--clusters", inp.files["clusters"],
                         "--output", job / "cap"]),
        ("stats", ["stats", "--measures", job / "measures.tsv", "--clusters", inp.files["clusters"],
                   "--output", job / "st"]),
    ]


def _restage_check(inp: Inputs, job: Path, stdout: dict[str, str]) -> Outcome:
    out = Outcome()
    if _missing(out, job, RESTAGE_ARTIFACTS):
        return out
    # Q of the partition the measures were computed over: the planted one.
    q = _q_of_column(inp, job / "measures.tsv", 1)
    out.quality["modularity_q"] = q
    out.expect(abs(q - inp.record["planted_q"]) <= 1e-12, "measures",
               f"measures.tsv carries a partition with Q {q}, not the planted {inp.record['planted_q']}")
    _check_capitalists(out, inp, "capitalists", job / "cap_capitalists.tsv")
    _, caprows, _ = _table(job / "cap_capitalists.tsv")
    dense = np.searchsorted(inp.ids, [int(r[0]) for r in caprows])
    want = (inp.planted_comm[dense] % RESTAGE_GROUPS + 1).tolist()
    out.expect([int(r[-1]) for r in caprows] == want, "capitalists",
               "capitalist group column disagrees with the clusters file")
    _, anova, _ = _table(job / "st_anova.tsv")
    _, pairs, _ = _table(job / "st_pairwise.tsv")
    out.expect(len(anova) == 8 and len(pairs) == 8 * RESTAGE_GROUPS * (RESTAGE_GROUPS - 1) // 2, "stats",
               f"stats wrote {len(anova)} ANOVA rows and {len(pairs)} pairwise rows")
    out.digest = _digest([job / name for name in RESTAGE_ARTIFACTS])
    return out


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="roles-6k",
        why="Whole run pipeline on the acceptance generator: clustering (select_k) dominates, "
            "louvain is second; the only workload that runs report.",
        generator="capitalist_community_network",
        full=dict(comm_size=300, n_capitalists=60, seed=7),
        toy=dict(n_comms=10, comm_size=200, n_capitalists=20, cap_ext_out=900, seed=7),
        invocations=_roles_invocations,
        check=_roles_check,
    ),
    Workload(
        name="communities-30k",
        why="Natural-order Louvain alone on a planted graph where it stops below planted Q; "
            "louvain dominates and clustering never runs.",
        generator="planted_partition_graph",
        full=dict(n_comms=20, comm_size=1500, seed=1),
        toy=dict(n_comms=5, comm_size=200, seed=1),
        invocations=_communities_invocations,
        check=_communities_check,
    ),
    Workload(
        name="restage-50k",
        why="measures, capitalists, stats over existing artifacts: graph ingest dominates, "
            "cli artifact readers run, 600 candidates take the map_chunks thread pool.",
        generator="capitalist_community_network",
        full=dict(n_comms=50, comm_size=1000, n_capitalists=600, seed=3),
        toy=dict(n_comms=10, comm_size=200, n_capitalists=20, cap_ext_out=900, seed=3),
        invocations=_restage_invocations,
        check=_restage_check,
        extra_files=_restage_files,
    ),
)}

import random

import numpy as np
import pytest

from roleforge import graph, synth
from roleforge.errors import EdgeListParseError, RoleForgeError
from roleforge.graph import CONVENTIONS, load_edge_list, save_edge_list
from roleforge.louvain import Partition
from roleforge.measures import community_profile

from conftest import G1_EDGES, colliding_ids, graph_from_edges, random_assign, random_edges
from oracles import (oracle_degrees, oracle_load_edge_list, oracle_planted_partition_arcs,
                     oracle_profile)

GRAPH_ARRAYS = ("out_indptr", "out_indices", "out_weights", "in_indptr", "in_indices", "in_weights",
                "node_ids")


def write_lines(tmp_path, lines, name="edges.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def test_load_basic(tmp_path):
    g = load_edge_list(write_lines(tmp_path, ["0 1", "1 0", "1 2"]))
    assert g.n == 3
    assert g.m == 3
    assert g.out_neighbors(1).tolist() == [0, 2]


def test_load_self_loop_dropped(tmp_path):
    g = load_edge_list(write_lines(tmp_path, ["0 0"]))
    assert g.n == 1
    assert g.m == 0


def test_load_duplicate_dropped(tmp_path):
    g = load_edge_list(write_lines(tmp_path, ["0 1", "0 1"]))
    assert g.m == 1
    assert g.out_weights.tolist() == [1.0]


def test_load_comments_blanks_and_tabs(tmp_path):
    g = load_edge_list(write_lines(tmp_path, ["# comment", "% comment", "", "0\t1", "1   2"]))
    assert g.n == 3
    assert g.m == 2


def test_load_malformed_line_reports_number(tmp_path):
    # a fresh file per case: rewriting one file in place is slow on some file systems
    path = write_lines(tmp_path, ["0 1", "0 1 2"], "three_fields.txt")
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(path)
    path = write_lines(tmp_path, ["0 1", "", "x 1"], "not_a_number.txt")
    with pytest.raises(EdgeListParseError, match="line 3"):
        load_edge_list(path)
    with pytest.raises(EdgeListParseError, match="negative"):
        load_edge_list(write_lines(tmp_path, ["-1 2"], "negative.txt"))
    # ids must fit int64: 2**63 - 1 loads, 2**63 is a parse error with its line
    path = write_lines(tmp_path, ["9223372036854775807 0"], "max_id.txt")
    assert load_edge_list(path).node_ids.tolist() == [0, 2**63 - 1]
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(write_lines(tmp_path, ["0 1", "1 9223372036854775808"], "over_max_id.txt"))
    # bytes that are not UTF-8 name the file and the line
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n# caf\xe9\n")
    with pytest.raises(RoleForgeError, match=r"latin1.txt is not UTF-8 text \(line 2: "):
        load_edge_list(path)
    # the first bad line in file order decides, whichever its kind
    path = tmp_path / "latin1_after_bad.txt"
    path.write_bytes(b"x 1\n0 1\n# caf\xe9\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        load_edge_list(path)
    # "\r\n" and a lone "\r" end a line, as in text-mode reading
    for i, end in enumerate((b"\r\n", b"\r")):
        path = tmp_path / f"bad_line_end{i}.txt"
        path.write_bytes(end.join([b"0 1", b"1 2", b"", b"x 1", b""]))
        with pytest.raises(EdgeListParseError, match="line 4"):
            load_edge_list(path)
        path = tmp_path / f"line_end{i}.txt"
        path.write_bytes(end.join([b"0 1", b"1 2", b"2 0"]))
        assert load_edge_list(path).m == 3


def test_load_skips_a_byte_order_mark_only_at_the_start(tmp_path, monkeypatch, caplog):
    bodies = [b"", b"#\r\n", b"0 1", b"0 1\r", b"0 1\r\n", b"5 5\n0 1\r\n1 2\r2 0"]
    for chunk in (1, 2, 3, 64):
        monkeypatch.setattr(graph, "_CHUNK_BYTES", chunk)
        for i, body in enumerate(bodies):
            plain, marked = tmp_path / f"plain{i}.txt", tmp_path / f"marked{i}.txt"
            plain.write_bytes(body)
            marked.write_bytes(b"\xef\xbb\xbf" + body)
            want = _load_outcome(oracle_load_edge_list, plain, CONVENTIONS[0], caplog)
            assert _load_outcome(load_edge_list, marked, CONVENTIONS[0], caplog) == want, (body, chunk)
            assert _load_outcome(oracle_load_edge_list, marked, CONVENTIONS[0], caplog) == want, body
    # anywhere else the mark is part of its line
    path = tmp_path / "second_line.txt"
    path.write_bytes(b"0 1\n\xef\xbb\xbf1 2\n")
    with pytest.raises(EdgeListParseError, match="line 2: non-integer field"):
        load_edge_list(path)


@pytest.mark.parametrize("line", ["1_0 5", "\u0661 2", "3\u20034"], ids=["underscore", "arabic-indic digit", "em space"])
def test_load_rejects_lines_that_int_reads_beyond_ascii(tmp_path, monkeypatch, caplog, line):
    # int() and str.split() would read these as (10, 5), (1, 2) and (3, 4);
    # node tables reject the same text, and so does the line rule
    for chunk in (1, 2, 3, 7, 64):
        monkeypatch.setattr(graph, "_CHUNK_BYTES", chunk)
        for line_no, lines in ((1, [line]), (2, ["7 8", line])):
            path = tmp_path / f"edges{chunk}_{line_no}.txt"
            path.write_bytes("".join(f"{s}\n" for s in lines).encode())
            with pytest.raises(EdgeListParseError, match=f"line {line_no}: non-integer field"):
                load_edge_list(path)
            want = _load_outcome(oracle_load_edge_list, path, CONVENTIONS[0], caplog)
            assert _load_outcome(load_edge_list, path, CONVENTIONS[0], caplog) == want, (line, chunk)


def _odd_line(rng):
    """A line outside the plain form: one the line rule skips, accepts or rejects."""
    return rng.choice([
        "# comment 1 2", "% 3 4", "  #x", "", " \t ", "\ufeff1 2",
        "+5 3", "1_0 2", "\u0663 4", "1\x0c2", "3\xa04", "0000000000000000005 6",
        "1000000000000000000 7", "9223372036854775807 1", "9223372036854775808 1", "-1 2",
        "5", "1 2 3", "a b"])


def _random_edge_list(rng):
    lines = []
    for _ in range(rng.randrange(0, 30)):
        if rng.random() < 0.25:
            lines.append(_odd_line(rng))
        else:
            a, b = (rng.randrange(10 ** rng.randrange(1, 19)) for _ in range(2))
            pad = ["", " ", "\t", " \t  "]
            lead, sep, trail = rng.choice(pad), rng.choice(pad[1:]), rng.choice(pad)
            lines.append(f"{lead}{'0' * rng.randrange(3)}{a}{sep}{b}{trail}")
    end = rng.choice(["\n", "\r\n", "\r", None])
    text = "".join(line + (end or rng.choice(["\n", "\r\n", "\r"])) for line in lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no line end after the last line
    return text.encode("utf-8")


def _load_outcome(load, path, convention, caplog):
    caplog.clear()
    try:
        g = load(path, convention)
    except (RoleForgeError, ValueError) as exc:
        return type(exc), str(exc)
    # the logged records, without the file and line that logged them
    return (tuple((getattr(g, f).dtype, getattr(g, f).tobytes()) for f in GRAPH_ARRAYS),
            [(r.name, r.levelname, r.getMessage()) for r in caplog.records])


def test_load_matches_oracle(tmp_path, monkeypatch, caplog):
    rng = random.Random(5)
    caplog.set_level("WARNING", logger="roleforge.graph")
    kinds = set()
    for i in range(120):
        # a fresh file per case: rewriting one file in place is slow on some file systems
        path = tmp_path / f"fuzz{i}.txt"
        path.write_bytes(_random_edge_list(rng))
        expected = {conv: _load_outcome(oracle_load_edge_list, path, conv, caplog) for conv in CONVENTIONS}
        first = expected[CONVENTIONS[0]][0]
        kinds.add(first if isinstance(first, type) else "loaded")
        for chunk in (1, 2, 3, 7, 64):
            monkeypatch.setattr(graph, "_CHUNK_BYTES", chunk)
            for conv in CONVENTIONS:
                assert _load_outcome(load_edge_list, path, conv, caplog) == expected[conv], \
                    (path.read_bytes(), chunk, conv)
    assert {"loaded", EdgeListParseError} <= kinds


def test_load_equals_oracle_array_for_array(tmp_path):
    cases = {
        "repeated ids, self-loops, duplicates": ["5 7", "7 5", "5 5", "5 7", "9 5", "7 9", "9 9", "5 7"],
        "comments and blanks": ["# a comment", "% 1 2", "", "3 1", "  ", "1\t3", "2 3"],
        "ids near 2**63 - 1": ["9223372036854775807 9223372036854775806", "0 9223372036854775807",
                               "9223372036854775806 0", "9223372036854775807 9223372036854775807"],
        "19-digit ids": ["8999999999999999999 1000000000000000000", "0999999999999999999 8999999999999999999",
                         "9223372036854775807 1000000000000000000"],
        "empty": [],
    }
    for i, (name, lines) in enumerate(cases.items()):
        for end in ("\n", "\r\n"):
            path = tmp_path / f"edges{i}{len(end)}.txt"
            path.write_bytes("".join(line + end for line in lines).encode())
            for conv in CONVENTIONS:
                got, want = load_edge_list(path, conv), oracle_load_edge_list(path, conv)
                assert (got.n, got.m) == (want.n, want.m)
                for f in GRAPH_ARRAYS:
                    a, b = getattr(got, f), getattr(want, f)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, end, conv, f)
                # the aggregation path builds the same arrays from the distinct
                # non-loop arcs, densified here in Python
                pairs = [tuple(map(int, line.split())) for line in lines
                         if line.strip() and line.strip()[0] not in "#%"]
                if conv == "dst-follows-src":
                    pairs = [(b, a) for a, b in pairs]
                ids = sorted({x for pair in pairs for x in pair})
                rank = {x: i for i, x in enumerate(ids)}
                arcs = sorted({(rank[a], rank[b]) for a, b in pairs if a != b})
                src = np.array([u for u, _ in arcs], dtype=np.int64)
                dst = np.array([v for _, v in arcs], dtype=np.int64)
                agg = graph.DirectedGraph.from_arcs(src, dst, len(ids), simple=False,
                                                    node_ids=np.array(ids, dtype=np.int64))
                for f in GRAPH_ARRAYS:
                    a, b = getattr(got, f), getattr(agg, f)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, conv, f)


def test_densify_chunk_boundaries_match_oracle(tmp_path, monkeypatch, caplog):
    rng = random.Random(11)
    cases = {"empty": [], "one arc": ["3 8"], "self-loops only": ["4 4", "9 9", "4 4"],
             "duplicates only": ["1 2"] * 5,
             "19-digit ids": ["8999999999999999999 1000000000000000000", "1000000000000000000 5",
                              "5 8999999999999999999", "1000000000000000000 1000000000000000000"]}
    for t in range(6):
        # a few ids over many arcs: one id's run of endpoints spans several chunks
        pool = [rng.randrange(rng.choice([10**2, 10**10, 2**63])) for _ in range(rng.randrange(2, 8))]
        lines = [f"{pool[0] if rng.random() < 0.7 else rng.choice(pool)} {rng.choice(pool)}"
                 for _ in range(rng.randrange(40, 80))]
        ends = [x for line in lines for x in line.split()]
        assert max(map(ends.count, set(ends))) > 3 * 7
        cases[f"seeded {t}"] = lines
    # ids that all share one rank-table slot: every endpoint takes the binary search
    crafted = colliding_ids(6)
    for bits in range(1, 33):
        assert (graph._slots(np.array(crafted, dtype=np.int64), bits) == 0).all()
    cases["one shared slot"] = [f"{rng.choice(crafted)} {rng.choice(crafted)}" for _ in range(60)]
    # a matching, each id on one arc: the table's byte cap binds and slots are shared
    cases["matching"] = [f"{2 * a} {2 * a + 1}" for a in rng.sample(range(2**62), 40)]

    caplog.set_level("WARNING", logger="roleforge.graph")
    for i, (name, lines) in enumerate(cases.items()):
        path = write_lines(tmp_path, lines, f"chunks{i}.txt")
        expected = {conv: _load_outcome(oracle_load_edge_list, path, conv, caplog) for conv in CONVENTIONS}
        for chunk in (1, 2, 3, 7, graph._DENSIFY_CHUNK):
            with monkeypatch.context() as patch:
                patch.setattr(graph, "_DENSIFY_CHUNK", chunk)
                for conv in CONVENTIONS:
                    got = _load_outcome(load_edge_list, path, conv, caplog)
                    assert got == expected[conv], (name, chunk, conv)


def test_load_reads_19_digit_ids_in_bulk(tmp_path, monkeypatch):
    # a 19-digit id from 0-8 is below 2**63 - 1, so no line goes to the line rule
    lines = ["8999999999999999999 1000000000000000000", "1234567890123456789 0999999999999999999"]

    def line_rule(*args):
        raise AssertionError(f"line rule called with {args}")

    with monkeypatch.context() as patch:
        patch.setattr(graph, "_parse_line", line_rule)
        g = load_edge_list(write_lines(tmp_path, lines))
    assert g.node_ids.tolist() == [999999999999999999, 10**18, 1234567890123456789, 8999999999999999999]
    # a run of 19 digits from 9 takes the line rule, which rejects 2**63 with its line
    g = load_edge_list(write_lines(tmp_path, lines + ["9223372036854775807 0"]))
    assert g.node_ids.tolist()[-1] == 2**63 - 1
    with pytest.raises(EdgeListParseError, match="line 3: node id above 2"):
        load_edge_list(write_lines(tmp_path, lines + ["9223372036854775808 0"]))


def test_load_counts_dropped_arcs(tmp_path, caplog):
    with caplog.at_level("WARNING", logger="roleforge.graph"):
        g = load_edge_list(write_lines(tmp_path, ["0 1", "2 2", "1 0", "0 1"]))
    assert (g.n, g.m) == (3, 2)
    assert "dropped 1 self-loop(s) and 1 duplicate arc(s)" in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="roleforge.graph"):
        load_edge_list(write_lines(tmp_path, ["0 1", "1 0"]))
    assert caplog.text == ""


def test_graph_weights_are_float64_with_no_arc():
    e = np.empty(0, dtype=np.int64)
    for simple in (True, False):
        g = graph.DirectedGraph.from_arcs(e, e, 3, simple=simple)
        assert g.m == 0
        assert g.out_weights.dtype == g.in_weights.dtype == np.float64, simple


def test_weights_of_a_simple_graph_are_rejected():
    with pytest.raises(ValueError, match="simple=False"):
        graph.DirectedGraph.from_arcs([0, 1], [1, 0], 2, weights=[5.0, 7.0])
    g = graph.DirectedGraph.from_arcs([0, 1], [1, 0], 2, weights=[5.0, 7.0], simple=False)
    assert g.out_weights.tolist() == [5.0, 7.0]


def test_graph_arrays_are_read_only(tmp_path):
    ids = np.array([10, 20, 30], dtype=np.int64)
    simple = graph.DirectedGraph.from_arcs([0, 1, 2], [1, 2, 0], 3, node_ids=ids)
    weighted = graph.DirectedGraph.from_arcs([0, 1, 1], [1, 2, 2], 3, node_ids=ids, simple=False)
    loaded = load_edge_list(write_lines(tmp_path, ["10 20", "20 30", "30 10"]))
    cached = ("out_degrees", "in_degrees", "out_strengths", "in_strengths", "arc_src")
    for name, g in (("simple", simple), ("weighted", weighted), ("loaded", loaded),
                    ("reversed", graph.DirectedGraph.from_arcs([1, 2, 0], [0, 1, 2], 3, node_ids=ids))):
        for f in GRAPH_ARRAYS + cached:
            a = getattr(g, f)
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0
            with pytest.raises(ValueError, match="read-only"):
                a.sort()
            assert a.size and not a.flags.writeable, (name, f)
    # the graph freezes a view of the caller's node ids, not the caller's array
    assert ids.flags.writeable
    ids[0] = 11
    assert ids.tolist() == [11, 20, 30]


@pytest.mark.parametrize("args,kwargs", [
    ((20, 1500), dict(seed=1)),  # the communities-30k benchmark graph
    ((5, 200), dict(seed=1)),  # its toy size
    ((10, 20), dict(intra_out=3, seed=4)),
])
def test_planted_partition_graph_matches_its_draw(args, kwargs):
    g, truth = synth.planted_partition_graph(*args, **kwargs)
    src, dst, labels = oracle_planted_partition_arcs(*args, **kwargs)
    want = graph.DirectedGraph.from_arcs(src, dst, labels.size)
    for name in ("out_indptr", "out_indices", "out_weights", "in_indptr", "in_indices", "in_weights",
                 "node_ids"):
        a, b = getattr(g, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert truth.assign.dtype == labels.dtype and truth.assign.tobytes() == labels.tobytes()


def test_synth_graphs_log_nothing(caplog):
    # the generator draws self-loops and duplicate arcs, and drops them quietly
    with caplog.at_level("WARNING", logger="roleforge"):
        g, _, _ = synth.capitalist_community_network(n_comms=4, comm_size=100, n_capitalists=10,
                                                     cap_ext_out=150, seed=7)
    assert g.m > 0
    assert caplog.records == []


def test_load_empty_file(tmp_path):
    g = load_edge_list(write_lines(tmp_path, []))
    assert g.n == 0
    assert g.m == 0


def test_load_direction_convention(tmp_path):
    path = write_lines(tmp_path, ["0 1"])
    g = load_edge_list(path, convention="dst-follows-src")
    assert g.out_neighbors(1).tolist() == [0]
    assert g.out_neighbors(0).tolist() == []
    with pytest.raises(ValueError):
        load_edge_list(path, convention="bogus")


def test_load_remaps_sparse_ids(tmp_path):
    g = load_edge_list(write_lines(tmp_path, ["10 20", "20 30"]))
    assert g.n == 3
    assert g.node_ids.tolist() == [10, 20, 30]
    assert g.out_neighbors(0).tolist() == [1]


def test_degrees_g1(g1):
    assert (g1.in_degrees[1], g1.out_degrees[1]) == (1, 2)
    for u in range(6):
        k_in, k_out = int(g1.in_degrees[u]), int(g1.out_degrees[u])
        assert (k_in, k_out, k_in + k_out) == oracle_degrees(G1_EDGES, 6, u)


def test_degrees_edge_cases(tmp_path):
    g = load_edge_list(write_lines(tmp_path, ["0 1", "2 2"]))
    assert g.in_degrees.tolist() == [0, 1, 0]  # node 2 isolated after self-loop drop
    assert g.out_degrees.tolist() == [1, 0, 0]


def test_dual_csr_consistency(g1):
    assert int(g1.out_degrees.sum()) == g1.m
    assert int(g1.in_degrees.sum()) == g1.m
    # arc u->v in out_adj[u] iff in in_adj[v]
    out_arcs = {(u, int(v)) for u in range(g1.n) for v in g1.out_neighbors(u)}
    in_arcs = {(int(v), u) for u in range(g1.n) for v in g1.in_neighbors(u)}
    assert out_arcs == in_arcs
    for u in range(g1.n):
        nbrs = g1.out_neighbors(u)
        assert (np.diff(nbrs) > 0).all()  # sorted, no duplicates


def test_link_counts_cases():
    # all neighbors in own community
    g = graph_from_edges([(0, 1), (0, 2)], 4)
    p = Partition.from_labels([0, 0, 0, 1])
    prof = community_profile(g, p)
    assert (prof.k_int_out[0], prof.k_ext_out[0], prof.eps_out[0]) == (2, 0, 0)
    # isolated node
    assert (prof.k_int_out[3], prof.k_ext_out[3], prof.eps_out[3]) == (0, 0, 0)
    assert (prof.k_int_in[3], prof.k_ext_in[3], prof.eps_in[3]) == (0, 0, 0)


def test_link_counts_sum_to_degree():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(3, 40))
        edges = random_edges(rng, n, min(3 * n, n * (n - 1) // 2))
        g = graph_from_edges(edges, n)
        p = Partition.from_labels(random_assign(rng, n, int(rng.integers(1, 6))))
        prof = community_profile(g, p)
        assert np.array_equal(prof.k_int_out + prof.k_ext_out, g.out_degrees)
        assert np.array_equal(prof.k_int_in + prof.k_ext_in, g.in_degrees)
        oracle = oracle_profile(edges, n, p.assign.tolist())
        for d, k_int, eps in (("out", prof.k_int_out, prof.eps_out), ("in", prof.k_int_in, prof.eps_in)):
            assert k_int.tolist() == [oracle[u][d]["k_int"] for u in range(n)]
            assert eps.tolist() == [oracle[u][d]["eps"] for u in range(n)]


def test_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    edges = random_edges(rng, 30, 80)
    lines = [f"{3 * u + 100} {3 * v + 100}" for u, v in edges]  # sparse original ids
    g = load_edge_list(write_lines(tmp_path, lines))
    out = tmp_path / "canon.txt"
    save_edge_list(g, out)
    assert "arc_src" not in vars(g)  # the save leaves no per-arc array cached on the graph
    ids = g.node_ids
    assert out.read_bytes() == "".join(f"{ids[u]} {ids[v]}\n" for u, v in
                                       zip(g.arc_src.tolist(), g.out_indices.tolist())).encode()
    g2 = load_edge_list(out)
    assert g2.n == g.n and g2.m == g.m
    assert g2.node_ids.tolist() == g.node_ids.tolist()
    assert g2.out_indptr.tolist() == g.out_indptr.tolist()
    assert g2.out_indices.tolist() == g.out_indices.tolist()
    assert g2.in_indices.tolist() == g.in_indices.tolist()


def test_save_edge_list_slices_skip_nodes_without_arcs(tmp_path, monkeypatch):
    # sources without out-arcs, and slices that start inside and between their runs
    g = graph_from_edges([(1, 0), (1, 4), (1, 5), (4, 2), (7, 1), (7, 3), (7, 4), (7, 6), (9, 8)], 11)
    want = "".join(f"{u} {int(v)}\n" for u in range(g.n) for v in g.out_neighbors(u)).encode()
    for arcs in (1, 2, 3, 4, graph._SAVE_ARCS):
        monkeypatch.setattr(graph, "_SAVE_ARCS", arcs)
        out = tmp_path / f"canon{arcs}.txt"
        save_edge_list(g, out)
        assert out.read_bytes() == want, arcs
    assert "arc_src" not in vars(g)

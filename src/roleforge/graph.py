"""Immutable directed graphs stored as dual (out and in) CSR adjacency."""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, EdgeListParseError, RoleForgeError

log = logging.getLogger(__name__)

CONVENTIONS = ("src-follows-dst", "dst-follows-src")


def check_direction(direction: str) -> None:
    """The rule of the `direction` key, the `convention` of `load_edge_list`."""
    if direction not in CONVENTIONS:
        raise ConfigError(f"direction must be one of {', '.join(CONVENTIONS)}, got {direction!r}")


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted array that differ from the one before."""
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _simple_keys(src: np.ndarray, dst: np.ndarray, span: int) -> np.ndarray:
    """Sorted distinct keys src * span + dst of the arcs that are not self-loops."""
    keys = src * span
    keys += dst
    if not (keep := src != dst).all():
        keys = keys[keep]
    del keep
    # sorted in place, with no inverse: the simple path never needs one
    keys.sort()
    return keys[_run_starts(keys)]


def _summed_keys(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the summed `weights` of each; self-loop keys are kept.

    `keys` is sorted in place.  One argsort carries the weights, so beside
    its inputs this holds the order and the sorted weights, 16 bytes per
    key.  Each run of equal keys is summed by np.add.reduceat, exactly for
    integer-valued weights with a total of at most 2^53, as on every graph
    the pipeline builds.
    """
    order = np.argsort(keys)
    weights = weights[order]
    del order
    keys.sort()
    first = _run_starts(keys)
    return keys[first], np.add.reduceat(weights, np.flatnonzero(first))


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`; `a` itself stays as writable as it was."""
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph with per-node sorted neighbor lists in both directions.

    Arc u->v means u follows v: v is an out-neighbor (followee) of u and u is
    an in-neighbor (follower) of v.  Instances are immutable after
    construction: every array a graph holds is a read-only view, so an
    in-place write raises ValueError.

    Ingested graphs are simple: no self-loops, no duplicate arcs, unit
    weights.  A unit-weight graph holds its weights as one zero-stride
    float64 view of a single 1.0, shared by both sides, so they take no
    memory per arc: a graph holds its two index arrays, 16 bytes per arc,
    beside its per-node arrays.  Weighted arcs and self-loops occur only in
    graphs produced by community aggregation or `from_arcs(simple=False)`,
    which hold real weight arrays.
    """

    n: int
    m: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray
    node_ids: np.ndarray  # dense id -> original id

    @classmethod
    def from_arcs(cls, src, dst, n, *, weights=None, node_ids=None, simple=True) -> "DirectedGraph":
        """Build a graph from parallel arc endpoint arrays.

        With simple=True (the ingest and synth path) self-loops and duplicate
        arcs are dropped and every kept arc gets weight 1, so passing
        `weights` is a ValueError.
        With simple=False (weighted test and example graphs; aggregation
        builds its graphs with `_from_keys`) self-loops are kept and the
        weights of coincident arcs are summed.
        """
        if simple and weights is not None:
            raise ValueError("weights need simple=False: a simple graph has unit weights")
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        n = int(n)
        if n < 0:
            raise ValueError("n must be non-negative")
        if src.size:
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
                raise ValueError("arc endpoint outside [0, n)")
        span = max(n, 1)
        ids = np.arange(n, dtype=np.int64) if node_ids is None else np.asarray(node_ids, dtype=np.int64)
        if ids.shape[0] != n:
            raise ValueError("node_ids must have length n")
        if simple:
            return cls._from_keys(_simple_keys(src, dst, span), span, ids)
        w = np.ones(src.size) if weights is None else np.asarray(weights, dtype=np.float64).ravel()
        if w.shape != src.shape:
            raise ValueError("weights must hold one value per arc")
        keys = src * span
        keys += dst
        keys, w = _summed_keys(keys, w)
        return cls._from_keys(keys, span, ids, w)

    @classmethod
    def _from_keys(cls, keys, span, node_ids, weights=None) -> "DirectedGraph":
        """Build the graph of the arcs whose sorted distinct keys are src * span + dst.

        `weights` holds one weight per key; with None every arc gets weight 1,
        held as one read-only zero-stride view that both sides share.  The key
        buffer is overwritten: it is reused for the in-CSR keys, so the build
        holds no more than the key buffer, the arc endpoints and the weights.
        The graph's arrays are read-only views; `node_ids` itself is not
        frozen, so a caller's array stays writable.
        """
        n = len(node_ids)
        src, dst = np.divmod(keys, span)
        # the keys are sorted by (src, dst), so this is a valid sorted out-CSR.
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=out_indptr[1:])
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=in_indptr[1:])
        # the (dst, src) keys are distinct, so any sort of them gives the in-CSR order
        in_keys = np.multiply(dst, span, out=keys)
        in_keys += src
        if weights is None:
            # unit weights need no permutation, so the keys are sorted in place
            del src
            in_keys.sort()
            in_indices = np.remainder(in_keys, span, out=in_keys)
            w = in_w = np.broadcast_to(np.float64(1.0), dst.shape)
        else:
            order = np.argsort(in_keys)
            in_indices, w, in_w = src[order], _frozen(weights), _frozen(weights[order])
        return cls(
            n=n,
            m=int(dst.size),
            out_indptr=_frozen(out_indptr),
            out_indices=_frozen(dst),
            out_weights=w,
            in_indptr=_frozen(in_indptr),
            in_indices=_frozen(in_indices),
            in_weights=in_w,
            node_ids=_frozen(node_ids),
        )

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.out_indptr))

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.in_indptr))

    @cached_property
    def arc_src(self) -> np.ndarray:
        """Source node of every arc, in out-CSR order.

        Once read it stays cached, 8 bytes per arc for the life of the graph,
        so the package itself builds sources as temporaries instead:
        `np.repeat(x, g.out_degrees)` is x of every arc's source.
        """
        return _frozen(np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees))

    @cached_property
    def out_strengths(self) -> np.ndarray:
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees)
        return _frozen(np.bincount(src, weights=self.out_weights, minlength=self.n))

    @cached_property
    def in_strengths(self) -> np.ndarray:
        return _frozen(np.bincount(self.out_indices, weights=self.out_weights, minlength=self.n))

    @cached_property
    def total_weight(self) -> float:
        return float(self.out_weights.sum())


# Edge lists are read in chunks of this many bytes: large enough that the
# per-chunk numpy calls cost little, small enough that a chunk's temporaries
# are negligible beside the arc arrays of a large file.
_CHUNK_BYTES = 1 << 16
# A plain line's ids have at most 19 digits, and a 19-digit id starts with
# 0-8, which keeps it below 9 * 10**18 < 2**63 - 1.  A longer run, or one of
# 19 digits from 9, goes to the line rule: np.fromstring would saturate an id
# of 2**63 or more to 2**63 - 1 instead of rejecting it.
_PLAIN_DIGITS = 19
# Ids are densified in chunks of this many endpoints, or of distinct ids while
# the rank table is filled, so slots and ranks are never held whole.
_DENSIFY_CHUNK = 1 << 14
# Knuth's multiplicative hash: odd 2**64 / golden ratio, a bijection mod 2**64
_FIB = np.uint64(0x9E3779B97F4A7C15)
# Edge lists are written in slices of this many arcs, one join each, so the
# text of the whole file is never held at once.
_SAVE_ARCS = 1 << 16


def _blocks(fh):
    """Yield a binary file as blocks of whole lines, each ending in b"\\n".

    Line ends are translated as text-mode reading translates them: "\\r\\n"
    and a lone "\\r" become "\\n", and a last line without one gets one.
    """
    carry, size = b"", _CHUNK_BYTES
    while chunk := fh.read(size):
        buf = carry + chunk
        # a trailing "\r" may be the first half of "\r\n": settle it with the next chunk
        held = b"\r" if buf.endswith(b"\r") else b""
        buf = buf[:len(buf) - len(held)].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = buf.rfind(b"\n") + 1
        carry = buf[cut:] + held
        if cut:
            yield buf[:cut]
        # a line longer than the chunk: double the read, so its bytes are copied O(1) times
        size = _CHUNK_BYTES if cut else 2 * size
    carry = carry.replace(b"\r", b"\n")
    if carry:
        yield carry if carry.endswith(b"\n") else carry + b"\n"


def _plain_arcs(buf: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the plain lines of a block of whole lines, and the other lines.

    A plain line holds only ASCII digits, spaces and tabs, in exactly two
    digit runs of at most 19 digits each, a run of 19 starting with 0-8.  The
    line rule accepts such a line with the same two values and never rejects
    it, so the plain lines are converted in bulk.  Returns an (k, 2) int64
    array with the ids of the k plain lines in file order, and the 0-based
    indices of the other lines that hold anything but spaces and tabs, for
    `_parse_line`.
    """
    a = np.frombuffer(buf, dtype=np.uint8)
    digit = (a - 48) < 10  # uint8 arithmetic wraps every byte below "0" above 9
    ends = np.flatnonzero(a == 10)
    toggles = np.flatnonzero(np.diff(digit, prepend=False))
    starts, stops = toggles[0::2], toggles[1::2]
    runs = np.diff(np.searchsorted(starts, ends), prepend=0)
    plain, other = runs == 2, runs > 0
    odd = np.searchsorted(ends, np.flatnonzero(~digit & (a != 32) & (a != 9) & (a != 10)))
    plain[odd] = False
    other[odd] = True
    width = stops - starts
    too_long = (width > _PLAIN_DIGITS) | ((width == _PLAIN_DIGITS) & (a[starts] == ord("9")))
    plain[np.searchsorted(ends, starts[too_long])] = False
    other &= ~plain
    if not plain.any():  # np.fromstring reads a text of whitespace alone as [0]
        return np.empty((0, 2), dtype=np.int64), np.flatnonzero(other)
    if other.any():
        buf = a[np.repeat(plain, np.diff(ends, prepend=-1))].tobytes()
    return np.fromstring(buf, dtype=np.int64, sep=" ").reshape(-1, 2), np.flatnonzero(other)


def _parse_line(path, line_no: int, raw: bytes) -> tuple[int, int] | None:
    """The line rule: the two ids of one edge-list line, or None for a blank or comment line."""
    try:
        s = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise RoleForgeError(f"{path} is not UTF-8 text (line {line_no}: {exc.reason})") from None
    if not s or s[0] in "#%":
        return None
    parts = s.split()
    if len(parts) != 2:
        raise EdgeListParseError(line_no, f"expected two integers, got {len(parts)} field(s)")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(line_no, f"non-integer field in {s!r}") from None
    if a < 0 or b < 0:
        raise EdgeListParseError(line_no, "negative node id")
    if max(a, b) >= 2**63:
        raise EdgeListParseError(line_no, "node id above 2**63 - 1")
    return a, b


def _slots(ids: np.ndarray, bits: int) -> np.ndarray:
    """Rank-table slot of each int64 id: the top `bits` bits of id * _FIB mod 2**64."""
    h = ids.view(np.uint64) * _FIB
    h >>= np.uint64(64 - bits)
    return h.view(np.int64)


def _densify(ends: np.ndarray) -> np.ndarray:
    """Replace each id in `ends` by its rank among the distinct ids, in place.

    Returns the distinct ids in ascending order, the run starts of a sorted
    copy of `ends`, which is freed first.  A direct-mapped table indexed by
    `_slots` holds each id's rank, or -1 in a slot two ids share; a chunk of
    endpoints at a time reads its ranks there, and only endpoints on shared
    slots binary-search `ids`.  The table has 16 to 32 slots per id (int32
    ranks below 2**31 ids) but never more bytes than the sorted copy, 8 per
    endpoint.  On a sparse graph, with one or two arcs per node, that cap
    binds, many slots are shared and the search dominates the time.
    """
    s = np.sort(ends)
    ids = s[_run_starts(s)]
    del s
    n = ids.size
    rank_type = np.dtype(np.int32 if n < 2**31 else np.int64)
    bits = max(1, min((16 * n - 1).bit_length(), (8 * ends.size // rank_type.itemsize).bit_length() - 1))
    table = np.empty(1 << bits, dtype=rank_type)
    for a in range(0, n, _DENSIFY_CHUNK):
        table[_slots(ids[a:a + _DENSIFY_CHUNK], bits)] = np.arange(a, min(a + _DENSIFY_CHUNK, n))
    for a in range(0, n, _DENSIFY_CHUNK):
        slot = _slots(ids[a:a + _DENSIFY_CHUNK], bits)
        table[slot[table[slot] != np.arange(a, min(a + _DENSIFY_CHUNK, n))]] = -1
    for a in range(0, ends.size, _DENSIFY_CHUNK):
        e = ends[a:a + _DENSIFY_CHUNK]
        r = table[_slots(e, bits)]
        if (shared := r < 0).any():
            r[shared] = np.searchsorted(ids, e[shared])
        e[:] = r
    return ids


def load_edge_list(path, convention: str = "src-follows-dst") -> DirectedGraph:
    """Read a directed graph from a two-integers-per-line text file.

    Lines starting with '#' or '%' and blank lines are skipped.  Lines end
    in "\\n", "\\r\\n" or "\\r".  Under the default convention a line "a b"
    yields the arc a->b (a follows b); "dst-follows-src" reverses this.  Node
    ids may be arbitrary non-negative integers; they are remapped to dense
    ids [0, n) in ascending order and the original ids are kept on the graph
    for reporting.  Self-loops and duplicate arcs are dropped with one
    counted warning.

    Raises ConfigError on a convention outside CONVENTIONS, EdgeListParseError
    (with the line number) on malformed lines and RoleForgeError (with the
    line number) on a line that is not UTF-8 text; the first bad line in
    file order decides.  An empty file yields the empty graph, not an error.
    """
    check_direction(convention)
    srcs, dsts = array("q"), array("q")
    line_no = 0
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            arcs, other = _plain_arcs(block)
            srcs.frombytes(arcs[:, 0].tobytes())
            dsts.frombytes(arcs[:, 1].tobytes())
            if other.size:
                lines = block.split(b"\n")
                for i in other.tolist():
                    if arc := _parse_line(path, line_no + i + 1, lines[i] + b"\n"):
                        srcs.append(arc[0])
                        dsts.append(arc[1])
            line_no += block.count(b"\n")
    if convention == "dst-follows-src":
        srcs, dsts = dsts, srcs
    m = len(srcs)
    ends = np.concatenate([np.frombuffer(srcs, dtype=np.int64), np.frombuffer(dsts, dtype=np.int64)])
    del srcs, dsts
    ids = _densify(ends)
    span = max(ids.size, 1)
    loops = int(np.count_nonzero(ends[:m] == ends[m:]))
    keys = _simple_keys(ends[:m], ends[m:], span)
    # the endpoints are freed before the CSR arrays are made
    del ends
    g = DirectedGraph._from_keys(keys, span, ids)
    dups = m - loops - g.m
    if loops or dups:
        log.warning("ingest dropped %d self-loop(s) and %d duplicate arc(s)", loops, dups)
    return g


def save_edge_list(g: DirectedGraph, path) -> None:
    """Write the canonical edge list: arcs sorted by endpoints, original ids."""
    ids = g.node_ids
    with open(path, "w", encoding="utf-8") as fh:
        for a in range(0, g.m, _SAVE_ARCS):
            # the source of arc i is the last node whose arcs start at or before i;
            # the slice's own sources keep the graph's arc_src uncached
            arcs = np.arange(a, min(a + _SAVE_ARCS, g.m))
            src = ids[np.searchsorted(g.out_indptr, arcs, side="right") - 1].tolist()
            dst = ids[g.out_indices[a:a + _SAVE_ARCS]].tolist()
            fh.write("".join(f"{u} {v}\n" for u, v in zip(src, dst)))

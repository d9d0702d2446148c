"""Base communication topology and the graph analytics scheduling relies on."""

from __future__ import annotations

import operator
from functools import cached_property
from pathlib import Path

import numpy as np

# (source, node) entries per block of sources in betweenness_centrality; the
# block's temporaries stay within a small multiple of this whatever n is.
_BFS_BLOCK_ELEMENTS = 2**15
# Incident pairs per block of rows in _pair_cells.
_PAIR_BLOCK = 2**15


class Topology:
    """Immutable undirected graph on nodes 0..n-1, no self-loops, no multi-edges.

    The graph is its read-only ``(m, 2)`` ``edge_array``: one row (i, j) with
    i < j per edge, rows in lexicographic order. The CSR half-edges, the
    betweenness and the matching decomposition are derived read-only on
    first access (threads that race there build equal copies), so instances
    can be shared freely across threads.
    """

    def __init__(self, n, edges=()):
        if not _is_int(n) or n < 1:
            raise ValueError(f"node count must be a positive integer, got {n!r}")
        n = operator.index(n)
        i, j = _endpoints(n, edges).T
        keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
        # Deduplicated by hand: np.unique is many times slower than a sort here.
        keys = keys[np.flatnonzero(np.diff(keys, prepend=-1))]
        self.n = n
        self.edge_array = np.column_stack([keys // n, keys % n])
        self.edge_array.setflags(write=False)

    @cached_property
    def _half_edges(self):
        """CSR view of the 2m half-edges k -> a, sorted by (k, a): node k's
        run is ``indptr[k]:indptr[k + 1]``, with heads ``head`` and rows of
        ``edge_array`` ``edge`` (all read-only)."""
        i, j = self.edge_array.T
        tail, head = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((head, tail))
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(tail, minlength=self.n), out=indptr[1:])
        arrays = (indptr, head[order], np.tile(np.arange(i.size), 2)[order])
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    @cached_property
    def betweenness(self) -> np.ndarray:
        """``betweenness_centrality(self)``, computed on first access (read-only)."""
        return betweenness_centrality(self)

    @cached_property
    def matching_decomposition(self):
        """``baselines.matching_decomposition(self)``, built on first access."""
        from .baselines import matching_decomposition

        return matching_decomposition(self)

    def laplacian(self, weights=None) -> np.ndarray:
        """Weighted-edge Laplacian sum_e w_e (u_i - u_j)(u_i - u_j)^T, one
        weight per row of ``edge_array`` (a boolean mask keeps the masked
        edges); ``None`` weighs every edge 1, giving degree minus adjacency.
        It is written into one zeroed n x n array: -w_e at (i, j) and (j, i),
        the weighted degree on the diagonal, +0.0 off the edges."""
        n, (i, j) = self.n, self.edge_array.T
        w = None if weights is None else np.asarray(weights, dtype=float)
        out = np.zeros((n, n))
        out[i, j] = out[j, i] = -(1.0 if w is None else w)
        out.flat[:: n + 1] = np.bincount(i, w, n) + np.bincount(j, w, n)
        return out

    def is_connected(self) -> bool:
        return _connected(self.n, self.edge_array)

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.n == other.n
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self):
        return f"Topology(n={self.n}, edges={len(self.edge_array)})"


def _is_int(value) -> bool:
    """Whether ``value`` is an index (an int or numpy integer), not a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _endpoints(n, edges) -> np.ndarray:
    """The edges as an (m, 2) integer array in input order.

    One vectorized test accepts valid input. Otherwise the rows are scanned
    in input order, and ValueError names the first that is not a pair of
    integers, is a self-loop or leaves 0..n-1.
    """
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        arr = np.asarray(rows, dtype=float).reshape(len(rows), 2)
        if ((arr == np.round(arr)) & (arr >= 0) & (arr < n)).all() and (arr[:, 0] != arr[:, 1]).all():
            return arr.astype(np.intp)
    except (TypeError, ValueError):
        pass
    for row in rows:
        try:
            i, j = (float(v) for v in row)
        except (TypeError, ValueError):
            raise ValueError(f"edge {row!r} is not a pair of node indices") from None
        if not (i.is_integer() and j.is_integer()):
            raise ValueError(f"edge ({i}, {j}) has a non-integer endpoint")
        if i == j:
            raise ValueError(f"self-loop at node {int(i)}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({int(i)}, {int(j)}) out of range for n={n}")
    raise ValueError("edges must be pairs of node indices")


def _connected(n, edges) -> bool:
    """True iff the (m, 2) ``edges`` join nodes 0..n-1 into one component.

    Min-label propagation with pointer jumping: each node's label is a node
    of its component with an index no larger than its own, and the labels
    stop changing only once both ends of every edge agree.
    """
    i, j = edges.T
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        new = new[new]
        if np.array_equal(new, labels):
            return not labels.any()
        labels = new


def _incident_pairs(topology: Topology):
    """Every ordered pair of edges e = (k, a), f = (k, b) meeting at a node k,
    a = b included, node-major: arrays k, a, b, e, f (e, f index rows of
    ``edge_array``) with sum_k deg_k^2 entries each."""
    indptr, head, _ = topology._half_edges
    tail = np.repeat(np.arange(topology.n), np.diff(indptr))
    return _pairs_at(topology, np.arange(head.size), tail, head)


def _pairs_at(topology: Topology, h, center, other):
    """The incident pairs (k, a, b, e, f) whose edge e is that of half-edge
    ``h``, k its endpoint ``center`` and a its endpoint ``other``: each
    half-edge in turn, crossed with k's run of half-edges (b ascending)."""
    indptr, head, edge = topology._half_edges
    count = np.diff(indptr)[center]
    rep = np.repeat(np.arange(h.size), count)
    second = np.repeat(indptr[center] - np.cumsum(count) + count, count) + np.arange(rep.size)
    return center[rep], other[rep], head[second], edge[h][rep], edge[second]


def _conflicts(topology: Topology):
    """CSR neighbor arrays (indptr, nbr) of the conflict graph, each run
    sorted: base edges plus every pair of distinct nodes with a common
    neighbor, whose packets would collide there if both broadcast in one
    slot."""
    n = topology.n
    indptr, head, _ = topology._half_edges
    _, a, b, _, _ = _incident_pairs(topology)
    tail = np.repeat(np.arange(n), np.diff(indptr))
    shared = np.flatnonzero(a != b)
    keys = np.sort(np.concatenate([tail * n + head, a[shared] * n + b[shared]]))
    # Deduplicated by hand: np.unique is many times slower than a sort here.
    keys = keys[np.flatnonzero(np.diff(keys, prepend=-1))]
    out = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys // n, minlength=n), out=out[1:])
    return out, keys % n


def _greedy_colors(groups, n) -> list:
    """Greedy coloring of ``groups`` (node sequences) in order: each takes
    the smallest color not yet taken at any of its nodes, so groups that
    share a node never share a color; the colors in use are 0..c-1."""
    used = [0] * n  # bit c of used[v]: color c is taken at node v
    colors = []
    for group in groups:
        taken = 0
        for v in group:
            taken |= used[v]
        bit = ~taken & (taken + 1)  # lowest clear bit
        colors.append(bit.bit_length() - 1)
        for v in group:
            used[v] |= bit
    return colors


def _pair_cells(topology: Topology, weight):
    """sum_p w_p (u_k - u_a)(u_k - u_b)^T over the incident pairs p of
    ``_incident_pairs``, w_p = weight(e, f) of the pairs' edge arrays, as its
    cells (the sorted flat indices i * n + j it scatters to) and its values
    there: L_(k,a) L_(k,b) for a != b, and L_e^2 = 2 L_e from both ends of
    e. The cells are the diagonal of every node with an edge, the edges and
    the pairs two hops apart.

    Pair p adds -w_p at (k, b), then -w_p at (a, k) and +w_p at (a, b),
    the three terms in that order over all pairs, and each diagonal cell
    (k, k) then adds the sum of w_p over the pairs at k. Rows are taken in
    blocks of at most _PAIR_BLOCK pairs and _PAIR_BLOCK row entries (or one
    row): the pairs at the block's nodes k for the first term, and those
    whose a is one of them for the others, each a's in the order of its k.
    So each cell sums its terms from +0.0 in the order one np.bincount onto
    the n x n array does, and no temporary grows with the graph beyond one
    block.
    """
    n = topology.n
    indptr, head, _ = topology._half_edges
    deg = np.diff(indptr)
    tail = np.repeat(np.arange(n), deg)
    load = deg * deg + np.bincount(tail, deg[head], n).astype(np.intp)
    ends = np.cumsum(load)
    rows = max(1, _PAIR_BLOCK // n)
    cells, values = [], []
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(ends, ends[lo] - load[lo] + _PAIR_BLOCK, "right"))
        hi = min(max(lo + 1, hi), lo + rows, n)
        h = np.arange(indptr[lo], indptr[hi])
        k, a, b, e, f = _pairs_at(topology, h, tail[h], head[h])
        w = weight(e, f)
        if hi - lo < n:
            rk, ra, rb, re, rf = _pairs_at(topology, h, head[h], tail[h])
            rw = weight(re, rf)
        else:
            # One block of every row: the pairs whose a is in it are all the
            # pairs, and each cell meets its terms among them in this order.
            rk, ra, rb, rw = k, a, b, w
        # Each key's offset in the block's rows, and its cell's rank there.
        at = np.concatenate([k * n + b, ra * n + rk, ra * n + rb]) - lo * n
        seen = np.zeros((hi - lo) * n, dtype=bool)
        seen[at] = True
        block = np.flatnonzero(seen)
        rank = np.empty(seen.size, dtype=np.intp)
        rank[block] = np.arange(block.size)
        sums = np.bincount(rank[at], np.concatenate([-w, -rw, rw]), block.size)
        # The diagonal cells (i, i) of the block's nodes with an edge.
        diagonal = np.arange(hi - lo) * (n + 1) + lo
        present = seen[diagonal]
        sums[rank[diagonal[present]]] += np.bincount(k - lo, w, hi - lo)[present]
        cells.append(block + lo * n)
        values.append(sums)
        lo = hi
    return np.concatenate(cells), np.concatenate(values)


def _pair_gram(topology: Topology, weight) -> np.ndarray:
    """The n x n array of ``_pair_cells``, +0.0 off its cells."""
    n = topology.n
    cells, values = _pair_cells(topology, weight)
    flat = np.zeros(n * n)
    flat[cells] = values
    return flat.reshape(n, n)


def _row_slots(tail, dim) -> np.ndarray:
    """The flat positions tail * dim + c, c < dim, of the rows ``tail`` of an
    (n, dim) array, on a new last axis."""
    return tail[..., None] * dim + np.arange(dim)


def _edge_product(x, diagonal, slots, head, weight) -> np.ndarray:
    """diagonal_i * x_i + sum_j w_ij * x_j for every row i of the float
    (n, d) ``x``, the sum over half-edges i -> j: ``slots`` holds each one's
    tail row as ``_row_slots(tail, d)``, ``head`` its head and ``weight``
    its weight (a scalar, or one per half-edge broadcast against the rows).

    Each row's terms w_ij * x_j are summed from +0.0 in half-edge order by
    one np.bincount, then added to diagonal_i * x_i; a weight absent from the
    half-edges multiplies nothing."""
    terms = x.take(head, 0)
    terms *= weight
    out = diagonal[:, None] * x
    # (with no half-edges np.bincount returns integer zeros)
    out += np.bincount(slots.ravel(), terms.ravel(), x.size).reshape(x.shape)
    return out


def betweenness_centrality(t: Topology) -> np.ndarray:
    """Shortest-path betweenness, normalized so the entries sum to one.

    Exact Brandes accumulation over BFS shortest-path DAGs; endpoints do not
    count toward their own paths, and multiple shortest paths split credit
    fractionally. When every raw score is zero (complete graphs), the uniform
    vector is returned instead, since an all-zero importance vector cannot
    seed scheduling probabilities. The result is read-only.

    The searches run level-synchronously over blocks of sources: a BFS level
    expands only its frontier's half-edges, path counts sigma gather onto the
    next level by ``np.bincount``, and dependencies delta flow back level by
    level over the stored DAG edges the same way.
    """
    n = t.n
    indptr, head, _ = t._half_edges
    deg = np.diff(indptr)
    raw = np.zeros(n)
    block = max(1, _BFS_BLOCK_ELEMENTS // (n + head.size))
    for lo in range(0, n, block):
        sources = np.arange(lo, min(n, lo + block))
        size = sources.size * n
        # A frontier holds flat keys b * n + v (node v of the b-th source's
        # search); slot[key] is a key's position in the level being built.
        frontier = np.arange(sources.size) * n + sources
        seen = np.zeros(size, dtype=bool)
        seen[frontier] = True
        slot = np.empty(size, dtype=np.intp)
        sigma = np.ones(sources.size)
        levels = []
        while True:
            node = frontier % n
            cnt = deg[node]
            parent = np.repeat(np.arange(frontier.size), cnt)
            # Built in place, so that at most three arrays the size of the
            # frontier's half-edges are alive at once.
            pos = (indptr[node] + cnt - np.cumsum(cnt))[parent]
            pos += np.arange(pos.size)
            child_key = head[pos]
            del pos
            child_key += (frontier - node)[parent]
            fresh = np.flatnonzero(~seen[child_key])
            parent, child_key = parent[fresh], child_key[fresh]
            if not child_key.size:
                break
            # Whichever write to a repeated key lands, exactly one rank per
            # distinct key reads back as its own.
            rank = np.arange(child_key.size)
            slot[child_key] = rank
            nxt = child_key[np.flatnonzero(slot[child_key] == rank)]
            slot[nxt] = np.arange(nxt.size)
            child = slot[child_key]
            seen[nxt] = True
            levels.append((node, sigma, parent, child))
            sigma = np.bincount(child, sigma[parent], nxt.size)
            frontier = nxt
        if not seen.all():
            raise ValueError("betweenness centrality requires a connected topology")
        # Each pass credits the level below, then computes this level's
        # delta; the last pass computes the sources' own, which is dropped.
        below, sigma_below, delta = frontier % n, sigma, np.zeros(frontier.size)
        for node, sig, parent, child in reversed(levels):
            raw += np.bincount(below, delta, n)
            share = sig[parent] / sigma_below[child] * (1.0 + delta[child])
            delta = np.bincount(parent, share, node.size)
            below, sigma_below = node, sig
    total = raw.sum()
    out = np.full(n, 1.0 / n) if total <= 0.0 else raw / total
    out.setflags(write=False)
    return out


def load_topology(path) -> Topology:
    """Read a topology file: first line ``n``, then one ``i j`` edge per line.

    Lines starting with ``#`` and blank lines are ignored. A line that does
    not parse is reported with the file name and its line number.
    """
    values = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append([int(v) for v in line.split()])
        except ValueError:
            raise ValueError(f"{path}:{number}: non-integer token in line {line!r}") from None
        if len(values[-1]) != (2 if len(values) > 1 else 1):
            raise ValueError(f"{path}:{number}: malformed line {line!r}")
    if not values:
        raise ValueError(f"no content in topology file {path}")
    return Topology(values[0][0], np.array(values[1:], dtype=np.intp).reshape(-1, 2))

"""Collision-free broadcast subsets via greedy coloring of the conflict graph."""

from __future__ import annotations

import numpy as np

from .graph import Topology, _greedy_colors


class CollisionFreePartition:
    """Disjoint node subsets covering 0..n-1, numbered 0..q-1, none empty.

    The partition is its read-only ``owner_array``: entry i is the index of
    the subset that holds node i. ``subsets[k]``, the ascending nodes that
    broadcast together in slot k, is derived on demand.
    """

    def __init__(self, owner):
        owner = np.asarray(owner)
        if owner.ndim != 1 or owner.size == 0 or owner.dtype.kind not in "iu":
            raise ValueError("a partition is a nonempty 1-D array of subset indices, one per node")
        self.n, self.q = owner.size, int(owner.max()) + 1
        if owner.min() < 0 or self.q > self.n or not np.bincount(owner).all():
            raise ValueError("subsets must be numbered 0..q-1 with none empty")
        self.owner_array = owner.astype(np.intp)
        self.owner_array.setflags(write=False)

    @property
    def subsets(self) -> tuple:
        """Node tuples of the subsets in subset order, each ascending."""
        return tuple(tuple(np.flatnonzero(self.owner_array == k).tolist()) for k in range(self.q))

    def __eq__(self, other):
        return isinstance(other, CollisionFreePartition) and np.array_equal(
            self.owner_array, other.owner_array
        )

    def __hash__(self):
        return hash(self.owner_array.tobytes())

    def __repr__(self):
        return f"CollisionFreePartition(q={self.q}, n={self.n})"


def greedy_partition(t: Topology) -> CollisionFreePartition:
    """Group nodes by greedy coloring of the conflict graph.

    Nodes are processed by descending conflict degree, ties broken by
    ascending index: the count of a node's cells in the topology's two-hop
    pattern (``Topology._two_hop_cells``, the one array that is both the
    conflict graph and the cells of the moments), its conflict degree plus
    its diagonal. Each takes the smallest color absent among its
    already-colored conflict neighbors, the nodes whose closed neighborhoods
    meet its own (``_greedy_colors`` of the closed neighborhoods). So the
    colors in use are 0..q-1, the color array is the partition's owner
    array, and nodes sharing a color are neither adjacent nor sharing a
    common neighbor: they can all broadcast in the same slot. No minimality
    claim: optimal partitioning is NP-hard and the order is fixed purely for
    reproducibility.
    """
    if not t.is_connected():
        raise ValueError("greedy_partition requires a connected topology")
    rows = np.searchsorted(t._two_hop_cells, np.arange(t.n + 1) * t.n)
    order = np.argsort(-np.diff(rows), kind="stable")
    indptr, head, _ = t._half_edges
    ptr, head = indptr.tolist(), head.tolist()
    closed = ([v, *head[ptr[v] : ptr[v + 1]]] for v in order.tolist())
    color = np.empty(t.n, dtype=np.intp)
    color[order] = _greedy_colors(closed, t.n)
    return CollisionFreePartition(color)


def dump_partition(partition: CollisionFreePartition) -> str:
    """One line per subset, space-separated node indices."""
    return "\n".join(" ".join(map(str, s)) for s in partition.subsets) + "\n"

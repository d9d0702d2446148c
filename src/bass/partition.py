"""Collision-free broadcast subsets via greedy coloring of the conflict graph."""

from __future__ import annotations

import numpy as np

from .graph import Topology


class CollisionFreePartition:
    """Ordered disjoint node subsets covering 0..n-1.

    ``subsets[k]`` holds the nodes that broadcast together in one slot;
    ``subset_of[i]`` is the index of the subset containing node i.
    """

    def __init__(self, subsets):
        subs = tuple(tuple(sorted(int(v) for v in s)) for s in subsets)
        if any(len(s) == 0 for s in subs):
            raise ValueError("partition contains an empty subset")
        flat = [v for s in subs for v in s]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError("subsets must be disjoint and cover nodes 0..n-1")
        owner = [0] * n
        for k, s in enumerate(subs):
            for v in s:
                owner[v] = k
        self.n = n
        self.subsets = subs
        self.subset_of = tuple(owner)
        arr = np.array(owner, dtype=np.intp)
        arr.setflags(write=False)
        self._owner_array = arr

    @property
    def q(self) -> int:
        return len(self.subsets)

    @property
    def owner_array(self) -> np.ndarray:
        """subset_of as a read-only numpy index array."""
        return self._owner_array

    def __eq__(self, other):
        return (
            isinstance(other, CollisionFreePartition)
            and self.subsets == other.subsets
        )

    def __hash__(self):
        return hash(self.subsets)

    def __repr__(self):
        return f"CollisionFreePartition(q={self.q}, n={self.n})"


def greedy_partition(t: Topology) -> CollisionFreePartition:
    """Group nodes by greedy coloring of the conflict graph.

    Nodes are processed by descending conflict degree, ties broken by
    ascending index; each takes the smallest color absent among its
    already-colored conflict neighbors. Nodes sharing a color are neither
    adjacent nor sharing a common neighbor in the base topology, so they can
    all broadcast in the same slot. No minimality claim: optimal partitioning
    is NP-hard and the order is fixed purely for reproducibility.
    """
    if not t.is_connected():
        raise ValueError("greedy_partition requires a connected topology")
    aux = t.auxiliary_graph()
    order = sorted(range(t.n), key=lambda v: (-len(aux.neighbors[v]), v))
    color = [-1] * t.n
    for v in order:
        used = {color[w] for w in aux.neighbors[v] if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    subsets = [[] for _ in range(max(color) + 1)]
    for v in range(t.n):
        subsets[color[v]].append(v)
    return CollisionFreePartition(subsets)


def validate_partition(t: Topology, partition) -> bool:
    """Brute-force validity check over all node pairs.

    Accepts a :class:`CollisionFreePartition` or a raw list of node sets, so
    deliberately broken inputs (missing nodes, overlapping subsets, colliding
    pairs) can be probed. True iff the subsets disjointly cover all nodes and
    no two nodes in the same subset are adjacent or share a common neighbor.
    """
    if isinstance(partition, CollisionFreePartition):
        subsets = partition.subsets
    else:
        subsets = [tuple(int(v) for v in s) for s in partition]
    flat = sorted(v for s in subsets for v in s)
    if flat != list(range(t.n)):
        return False
    adj = t.adjacency
    common = adj @ adj
    for s in subsets:
        for a in range(len(s)):
            for b in range(a + 1, len(s)):
                i, j = s[a], s[b]
                if adj[i, j] != 0 or common[i, j] != 0:
                    return False
    return True


def dump_partition(partition: CollisionFreePartition) -> str:
    """One line per subset, space-separated node indices."""
    return "\n".join(" ".join(str(v) for v in s) for s in partition.subsets) + "\n"


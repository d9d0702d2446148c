"""Helpers that only the tests read: random connected graphs, dense and
tuple views of a ``Topology``, the dense sum over its incident pairs, its
conflict degrees, a topology file writer, a collision-free partition
checker and a slots-to-target reader of a training log.

The library keeps a graph as its ``edge_array``; these views rebuild the
forms a hand-written oracle compares against.
"""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from bass.graph import Topology, _pair_cells
from bass.partition import CollisionFreePartition
from bass.topologies import er_topology

# Random connected Erdos-Renyi graphs with 2 to 10 nodes.
graphs = st.builds(
    er_topology,
    n=st.integers(2, 10),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
)


def random_connected(rng, n, extra_edges=2):
    """Random tree plus a few extra edges; connected by construction."""
    nodes = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = int(nodes[i]), int(nodes[j])
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra_edges):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Topology(n, edges)


def edge_pairs(t) -> tuple:
    """The rows of ``t.edge_array`` as a tuple of (i, j) pairs."""
    return tuple(map(tuple, t.edge_array.tolist()))


def adjacency(t) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix with zero diagonal."""
    adj = np.zeros((t.n, t.n))
    i, j = t.edge_array.T
    adj[i, j] = adj[j, i] = 1.0
    return adj


def degrees(t) -> np.ndarray:
    """Node degrees as floats."""
    return np.bincount(t.edge_array.ravel(), minlength=t.n).astype(float)


def pair_gram(t, weight) -> np.ndarray:
    """The n x n array of ``_pair_cells``, +0.0 off its cells."""
    cells, values = _pair_cells(t, weight)
    flat = np.zeros(t.n * t.n)
    flat[cells] = values
    return flat.reshape(t.n, t.n)


def conflict_degrees(t) -> np.ndarray:
    """Each node's conflict degree: its off-diagonal cells in the topology's
    two-hop pattern."""
    i, j = np.divmod(t._two_hop_cells, t.n)
    return np.bincount(i[i != j], minlength=t.n)


def save_topology(t, path) -> None:
    """Write the plain-text format understood by ``bass.load_topology``."""
    lines = [str(t.n)]
    lines.extend(f"{i} {j}" for i, j in t.edge_array.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def validate_partition(t, partition) -> bool:
    """True iff the subsets disjointly cover all nodes and no conflict edge
    (two nodes adjacent or sharing a common neighbor) lies inside a subset.

    Accepts a :class:`CollisionFreePartition` or a raw list of node sets, so
    deliberately broken inputs (missing nodes, overlapping subsets, colliding
    pairs) can be probed.
    """
    if isinstance(partition, CollisionFreePartition):
        owner = partition.owner_array
        if owner.size != t.n:
            return False
    else:
        subsets = [list(s) for s in partition]
        nodes = np.array([v for s in subsets for v in s], dtype=np.intp)
        if not np.array_equal(np.sort(nodes), np.arange(t.n)):
            return False
        owner = np.empty(t.n, dtype=np.intp)
        owner[nodes] = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    i, j = np.divmod(t._two_hop_cells, t.n)
    return not np.any((owner[i] == owner[j]) & (i != j))


def slots_to_reach(log, target_loss: float):
    """Cumulative slots at the first round whose train loss <= target, else None."""
    for rec in log.records:
        if rec.train_loss <= target_loss:
            return rec.cum_slots
    return None

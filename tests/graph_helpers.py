"""Dense and tuple views of a ``Topology`` that only the tests read.

The library keeps a graph as its ``edge_array``; these views rebuild the
forms a hand-written oracle compares against.
"""

import numpy as np


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

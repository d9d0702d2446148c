"""The two activation moments of the effective Laplacian, E[L~] and E[L~^2].

They are all the epsilon search reads (``mixing.optimize_epsilon``), and
each of the three routes below returns them as one, for any policy stated as
its ``scheduling.Units``: independent Bernoulli units, and for each base
edge e the two units it needs, u0(e) and u1(e) (the subsets of its
endpoints, or its matching twice).

A round keeps edge e iff x_e = 1, x_e being the product of the on
indicators of its units, so E[L~] = sum_e E[x_e] L_e, and since L_e L_f
vanishes unless e and f share a node, E[L~^2] = sum E[x_e x_f] L_e L_f runs
over the O(sum_k deg_k^2) incident edge pairs e = (k, a), f = (k, b) of
``graph._incident_pairs``, which ``graph._pair_cells`` sums onto the cells
they touch: the diagonal, the edges and the pairs two hops apart. Those
cells are the topology's two-hop pattern (``Topology._two_hop_cells``),
derived once per topology: the same array is the conflict graph that
``partition.greedy_partition`` colors. The routes differ in their weights
and in the form they return:

- ``closed_form_moments``, used in production, takes E[x_e] as the product
  of p over the distinct units of e, and E[x_e x_f] as the product over the
  distinct units of e and f.
- ``monte_carlo_moments`` counts the sampled rounds in which each edge and
  each incident pair survives. It is the one estimator, behind the test
  oracle, ``moments-check`` and matcha's epsilon in
  ``experiment.build_policy``.
- ``enumerated_moments``, an exact test oracle independent of both, sums
  w L~ and w L~^2 over the 2^units activation patterns as n x n arrays.

The first two return the ``mixing.CompactObjective`` of those cells, 0.07
n^2 of them at er(400,0.012,1), whose dense views are bit for bit the
matrices a scatter onto n x n arrays gives; the third returns its arrays as
a ``mixing.SpectralObjective``.

``expected_laplacian_gram`` is the closed form of a subset policy given by
per-node probabilities.
"""

from __future__ import annotations

import numpy as np

from .graph import Topology, _is_int, _pair_cells
from .mixing import CompactObjective, SpectralObjective
from .partition import CollisionFreePartition
from .scheduling import SchedulingPolicy, Units, _unit_probs

# Monte Carlo rounds per block are capped so that one block x max(units,
# edge classes) array stays under this many elements.
_MC_BLOCK_ELEMENTS = 1 << 14


def closed_form_moments(topology: Topology, units: Units) -> CompactObjective:
    """Closed-form E[L~] and E[L~^T L~] of a policy's units.

    E[x_e] is p[u0(e)], times p[u1(e)] if that is another unit. The weight
    E[x_e x_f] of an incident pair multiplies E[x_e] by p of each unit of f
    that is not already a unit of e.
    """
    p, (u0, u1) = units.probs, units.edge_units
    x = p[u0] * np.where(u1 != u0, p[u1], 1.0)

    def weight(e, f):
        e0, e1, f0, f1 = u0[e], u1[e], u0[f], u1[f]
        w = x[e] * np.where((f0 != e0) & (f0 != e1), p[f0], 1.0)
        w *= np.where((f1 != e0) & (f1 != e1) & (f1 != f0), p[f1], 1.0)
        return w

    return _edge_moments(topology, x, weight)


def _edge_moments(topology: Topology, x, weight, scale=1) -> CompactObjective:
    """sum_e x_e L_e and the ``graph._pair_cells`` sum of ``weight``, both
    divided by ``scale``. The first is ``topology.laplacian(x)`` on cells of
    the second: every edge (i, j) of a node's incident pair (i, j, j), and
    every non-isolated node's diagonal."""
    # x as floats, as topology.laplacian takes it: a weight of 0 gives -0.0.
    n, x = topology.n, np.asarray(x, dtype=float)
    cells, e_gram = _pair_cells(topology, weight)
    i, j = topology.edge_array.T
    e_lap = np.zeros(cells.size)
    e_lap[np.searchsorted(cells, i * n + j)] = e_lap[np.searchsorted(cells, j * n + i)] = -x
    nodes = np.flatnonzero(np.diff(topology._half_edges[0]))
    degree = np.bincount(i, x, n) + np.bincount(j, x, n)
    e_lap[np.searchsorted(cells, nodes * (n + 1))] = degree[nodes]
    e_lap /= scale
    # (with no incident pairs, e_gram is integer zeros)
    return CompactObjective(n, cells, e_lap, e_gram / scale)


def _checked_probs(partition: CollisionFreePartition, node_probs) -> np.ndarray:
    """The per-subset probabilities behind per-node ones, which must agree
    (to 1e-12) on the nodes of each subset."""
    p = _unit_probs(node_probs, "node probabilities")
    if p.shape != (partition.n,):
        raise ValueError(f"expected {partition.n} node probabilities, got {p.shape}")
    owner, q = partition.owner_array, partition.q
    hi, lo = np.full(q, -np.inf), np.full(q, np.inf)
    np.maximum.at(hi, owner, p)
    np.minimum.at(lo, owner, p)
    spread = np.flatnonzero(hi - lo > 1e-12)
    if spread.size:
        raise ValueError(f"nodes of subset {partition.subsets[spread[0]]} carry different probabilities")
    return hi


def expected_laplacian_gram(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> CompactObjective:
    """``closed_form_moments`` of the subset policy whose nodes broadcast
    with probabilities ``node_probs``."""
    probs = _checked_probs(partition, node_probs)
    return closed_form_moments(topology, SchedulingPolicy(probs, probs.sum()).units(partition, topology))


def monte_carlo_moments(
    topology: Topology, units: Units, samples: int, rng: np.random.Generator
) -> CompactObjective:
    """Empirical moments over ``samples`` i.i.d. rounds.

    Draws what ``scheduling.RoundSampler`` draws, one uniform per unit per
    round in unit order (blocks of rounds fill row-major, so the stream is
    the same value for value). The edges of a class, the unordered pair of
    units they need, survive together, so the counts are C_cd, the rounds
    in which classes c and d both survive: C_cc for an edge of class c, and
    C of their classes for an incident pair. Each block adds the float
    product x^T x of its 0/1 class columns to int64 C; its entries are
    integers of at most the block's rounds, hence exact in any BLAS order.
    """
    if not _is_int(samples) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    p, (u0, u1) = units.probs, units.edge_units
    keys, cls = np.unique(np.minimum(u0, u1) * p.size + np.maximum(u0, u1), return_inverse=True)
    first, second = np.divmod(keys, p.size)
    # When the classes are the units in order, each needed twice (as a
    # matching is), a class's column is its unit's: x is the block itself.
    x_is_on = np.array_equal(keys, np.arange(p.size) * (p.size + 1))
    rows = max(1, _MC_BLOCK_ELEMENTS // max(1, p.size, keys.size))
    block = np.empty((min(rows, samples), p.size))
    co = np.zeros((keys.size, keys.size), dtype=np.int64)
    for done in range(0, samples, rows):
        on = block[: samples - done]
        rng.random(out=on)
        np.less(on, p, out=on)
        x = on if x_is_on else on[:, first] * on[:, second]
        co += (x.T @ x).astype(np.int64)
    return _edge_moments(topology, co.diagonal()[cls], lambda e, f: co[cls[e], cls[f]], samples)


def enumerated_moments(topology: Topology, units: Units) -> SpectralObjective:
    """Exact moments by exhaustive enumeration of all 2^units activation
    patterns.

    Straight-line oracle, deliberately independent of both the closed-form
    code path and the sampling path: each pattern's probability is the plain
    Bernoulli product and the effective Laplacian is rebuilt inline from the
    edges the pattern keeps.
    """
    p, (u0, u1) = units.probs, units.edge_units
    count = p.size
    if count > 20:
        raise ValueError(f"2^{count} activation patterns is too many to enumerate")
    n = topology.n
    i, j = topology.edge_array.T
    s_lap = np.zeros((n, n))
    s_gram = np.zeros((n, n))
    for pattern in range(1 << count):
        weight = 1.0
        for u in range(count):
            weight *= p[u] if pattern >> u & 1 else 1.0 - p[u]
        if weight == 0.0:
            continue
        on = pattern >> np.arange(count) & 1
        a_t = np.zeros((n, n))
        a_t[i, j] = a_t[j, i] = on[u0] & on[u1]
        lap = np.diag(a_t.sum(axis=1)) - a_t
        s_lap += weight * lap
        s_gram += weight * (lap @ lap)
    return SpectralObjective(s_lap, s_gram)

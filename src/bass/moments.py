"""The two activation moments of the effective Laplacian, E[L~] and E[L~^2],
and the one form the epsilon search (``mixing.optimize_epsilon``) reads.

That form is ``_Moments``: both moments as their values on one sorted array
of flat cells i * n + j, outside which both are +0.0, with their checks, the
fill of M(eps) = E[W^2] - J into a given buffer, each moment written into
one, and the trace ratio. ``CompactObjective`` is the form as given;
``SpectralObjective`` builds it from two dense n x n matrices, which it
holds. Each of the three routes below returns the moments of any policy
stated as its ``scheduling.Units``: independent Bernoulli units, and for
each base edge e the two units it needs, u0(e) and u1(e) (the subsets of
its endpoints, or its matching twice).

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

The first two return the ``CompactObjective`` of those cells, 0.07 n^2 of
them at er(400,0.012,1), whose dense views are bit for bit the matrices a
scatter onto n x n arrays gives; the third returns its arrays as a
``SpectralObjective``.

``expected_laplacian_gram`` is the closed form of a subset policy given by
per-node probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Topology, _is_int, _pair_cells
from .partition import CollisionFreePartition
from .scheduling import SchedulingPolicy, Units, _unit_probs

# Monte Carlo rounds per block are capped so that one block x max(units,
# edge classes) array stays under this many elements.
_MC_BLOCK_ELEMENTS = 1 << 14


class _Moments:
    """E[L~] and E[L~^T L~] as their values on one set of cells, the flat
    indices i * n + j of the n x n matrices, sorted, outside which both are
    +0.0; and all the epsilon search reads of them: the fill
    ``contraction_matrix``, ``moment`` written into a given buffer, and the
    ``trace_ratio``.

    The cells must be a symmetric pattern, as those of a graph's moments are
    (its diagonal, its edges and its pairs of nodes two hops apart), and the
    values finite, each within 1e-9 of its mirror cell's.
    """

    def _set_cells(self, n, cells, laplacian_values, gram_values):
        """Check the cells and values as the class states, and set them."""
        cells = np.asarray(cells)
        if not _is_int(n) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if cells.ndim != 1 or cells.dtype.kind not in "iu":
            raise ValueError("cells must be a 1-D integer array")
        if cells.size and (cells[0] < 0 or cells[-1] >= n * n or (np.diff(cells) <= 0).any()):
            raise ValueError(f"cells must be increasing flat indices below n^2 = {n * n}")
        cells = cells.astype(np.intp, copy=False)
        # The mirrors j * n + i of the cells, in increasing order, are the
        # cells themselves: the value at cell order[k] is checked against
        # the value at cell k, its mirror. The cells are sorted by row, so a
        # stable sort by column puts their mirrors in increasing order; on
        # the smallest unsigned type that holds a column (16 bits up to
        # 65536 nodes) numpy makes it a radix sort.
        row = cells // n
        col = cells - row * n
        order = np.argsort(col.astype(np.min_scalar_type(n - 1)), kind="stable")
        mirror = col * n + row
        if not np.array_equal(mirror[order], cells):
            raise ValueError("cells must be a symmetric pattern")
        for name, field, values in (
            ("e_laplacian", "laplacian_values", laplacian_values),
            ("e_gram", "gram_values", gram_values),
        ):
            values = np.asarray(values, dtype=float)
            if values.shape != cells.shape:
                raise ValueError(f"{name} needs one value per cell, got shape {values.shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has non-finite entries")
            if np.abs(values[order] - values).max(initial=0.0) > 1e-9:
                raise ValueError(f"{name} is not symmetric")
            object.__setattr__(self, field, values)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "cells", cells)

    def value(self, eps: float) -> float:
        """Largest eigenvalue of E[W^2] - J at the given step size."""
        return float(np.linalg.eigvalsh(self.contraction_matrix(eps))[-1])

    def contraction_matrix(self, eps: float, out: np.ndarray | None = None) -> np.ndarray:
        """E[W^2] - J at the given step size, written into ``out`` if given.

        The cells take 2 eps (eps/2 E[L~^2] - E[L~]) - 1/n, every other
        entry what that gives for two +0.0 moments, -1/n (every entry of J
        is 1/n), and 1 is added on the diagonal.
        """
        eps = float(eps)
        if not 0.0 <= eps < math.inf:
            raise ValueError("eps must be nonnegative and finite")
        n = self.n
        if out is None:
            out = np.empty((n, n))
        values = np.multiply(self.gram_values, 0.5 * eps)
        values -= self.laplacian_values
        values *= 2.0 * eps
        values -= 1.0 / n
        out.fill(-1.0 / n)
        out.reshape(-1)[self.cells] = values
        out.reshape(-1)[:: n + 1] += 1.0
        return out

    def moment(self, power: int, out: np.ndarray) -> np.ndarray:
        """E[L~] (``power`` 1) or E[L~^2] (2), written into ``out``."""
        out.fill(0.0)
        out.reshape(-1)[self.cells] = self.laplacian_values if power == 1 else self.gram_values
        return out

    def trace_ratio(self) -> float:
        """trace(E[L~]) / trace(E[L~^2]), each summed over the whole
        diagonal as ``np.trace`` sums it."""
        diagonal = np.arange(self.n) * (self.n + 1)  # i * n + i
        at = np.searchsorted(self.cells, diagonal)
        # A diagonal cell is present iff its insertion points differ (by
        # one: the cells are distinct); no cells at all give 0 / 0 = nan,
        # as np.trace does on two zero matrices.
        on = np.searchsorted(self.cells, diagonal, side="right") > at
        traces = np.zeros((2, self.n))
        traces[0, on] = self.laplacian_values[at[on]]
        traces[1, on] = self.gram_values[at[on]]
        return float(traces[0].sum() / traces[1].sum())


@dataclass(frozen=True, eq=False)
class CompactObjective(_Moments):
    """The moments as their cells and values: the form production searches.
    ``closed_form_moments`` and ``monte_carlo_moments`` return it, and
    ``e_laplacian`` and ``e_gram`` are its dense matrices, made on each
    access.
    """

    n: int
    cells: np.ndarray
    laplacian_values: np.ndarray
    gram_values: np.ndarray

    def __post_init__(self):
        self._set_cells(self.n, self.cells, self.laplacian_values, self.gram_values)

    @property
    def e_laplacian(self) -> np.ndarray:
        """E[L~] as a new dense n x n array."""
        return self.moment(1, np.empty((self.n, self.n)))

    @property
    def e_gram(self) -> np.ndarray:
        """E[L~^2] as a new dense n x n array."""
        return self.moment(2, np.empty((self.n, self.n)))


@dataclass(frozen=True, eq=False)
class SpectralObjective(_Moments):
    """The moments given as dense n x n arrays, which it holds: the
    constructor of the enumeration oracle and of any moments given as
    matrices.

    It searches on the cells where either matrix, or its mirror, has any
    bit set, so an entry of -0.0 is a cell and ``moment`` writes the
    matrices' own bits.
    """

    e_laplacian: np.ndarray
    e_gram: np.ndarray

    def __post_init__(self):
        lap, gram = (np.asarray(m, dtype=float) for m in (self.e_laplacian, self.e_gram))
        for name, mat in (("e_laplacian", lap), ("e_gram", gram)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
        if lap.shape != gram.shape:
            raise ValueError("moment matrices must share a shape")
        on = (lap != 0) | np.signbit(lap) | (gram != 0) | np.signbit(gram)
        cells = np.flatnonzero(on | on.T)
        self._set_cells(lap.shape[0], cells, lap.take(cells), gram.take(cells))
        object.__setattr__(self, "e_laplacian", lap)
        object.__setattr__(self, "e_gram", gram)


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

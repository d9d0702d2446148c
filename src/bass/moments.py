"""The two activation moments of the effective Laplacian, E[L~] and E[L~^2].

They are all the epsilon search reads (``mixing.SpectralObjective``), and
each of the three routes below returns them as one.

Node activations are Bernoulli variables, perfectly correlated inside a
subset and independent across subsets. A round keeps edge e = (i, j) iff
x_e = n_i n_j = 1, so E[L~] = sum_e E[x_e] L_e, and since L_e L_f vanishes
unless e and f share a node, E[L~^2] = sum E[x_e x_f] L_e L_f runs over the
O(sum_k deg_k^2) incident edge pairs e = (k, a), f = (k, b) of
``graph._incident_pairs``, which ``graph._pair_gram`` scatters into one
n x n array. The routes differ only in their weights:

- ``expected_laplacian_gram``, the closed form used in production, takes
  E[x_e x_f] = E[n_k n_a n_b], the product of p over the distinct subsets
  of k, a and b.
- ``monte_carlo_moments`` counts the sampled rounds in which each edge and
  each incident pair survives.
- ``enumerated_moments``, an exact test oracle independent of both, sums
  w L~ and w L~^2 over the 2^q activation patterns.
"""

from __future__ import annotations

import numpy as np

from .graph import Topology, _incident_pairs, _pair_gram
from .mixing import SpectralObjective
from .partition import CollisionFreePartition
from .scheduling import SchedulingPolicy

# Monte Carlo rounds per vectorized block are capped so that one block x
# max(n, incident pairs) array stays under this many elements.
_MC_BLOCK_ELEMENTS = 1 << 20


def _checked_probs(partition: CollisionFreePartition, node_probs) -> np.ndarray:
    p = np.asarray(node_probs, dtype=float)
    if p.shape != (partition.n,):
        raise ValueError(f"expected {partition.n} node probabilities, got {p.shape}")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError("node probabilities must lie in [0, 1]")
    owner, q = partition.owner_array, partition.q
    hi, lo = np.full(q, -np.inf), np.full(q, np.inf)
    np.maximum.at(hi, owner, p)
    np.minimum.at(lo, owner, p)
    spread = np.flatnonzero(hi - lo > 1e-12)
    if spread.size:
        raise ValueError(f"nodes of subset {partition.subsets[spread[0]]} carry different probabilities")
    return np.clip(p, 0.0, 1.0)


def subset_probs_from_node_probs(partition: CollisionFreePartition, node_probs) -> np.ndarray:
    """Recover per-subset probabilities, validating within-subset consistency:
    each subset takes the probability of its lowest-numbered node."""
    p = _checked_probs(partition, node_probs)
    return p[np.unique(partition.owner_array, return_index=True)[1]]


def expected_laplacian_gram(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> SpectralObjective:
    """Closed-form E[L~] and E[L~^T L~].

    E[L~] weighs edge (i, j) by its survival E[x_e], p_i times p_j if i and
    j lie in different subsets, and each incident pair (k, a), (k, b) has
    weight E[n_k n_a n_b], one factor per distinct subset of k, a and b.
    """
    p = _checked_probs(partition, node_probs)
    owner = partition.owner_array
    k, a, b, _, _ = _incident_pairs(topology)
    w = p[k] * np.where(owner[a] != owner[k], p[a], 1.0)
    w *= np.where((owner[b] != owner[k]) & (owner[b] != owner[a]), p[b], 1.0)
    # E[L~^2] first, so E[L~] is not held while the scatter's n x n terms are.
    e_gram = _pair_gram(topology.n, k, a, b, w)
    i, j = topology.edge_array.T
    e_lap = topology.laplacian(p[i] * np.where(owner[i] != owner[j], p[j], 1.0))
    return SpectralObjective(e_lap, e_gram)


def monte_carlo_moments(
    topology: Topology,
    partition: CollisionFreePartition,
    node_probs,
    samples: int,
    rng: np.random.Generator,
    chunk: int = 8192,
) -> SpectralObjective:
    """Empirical moments over i.i.d. sampled rounds.

    Consumes the generator exactly like ``scheduling.sample_round``: q
    uniforms per round in subset order (chunked draws fill row-major, so the
    stream is identical value-for-value). Blocks of at most ``chunk`` rounds,
    capped by ``_MC_BLOCK_ELEMENTS``, count the surviving edges and incident
    pairs, assembled once at the end; ``chunk=1`` instead sums L~ and L~^2 of
    the edges that the policy's ``round_sampler``, the production sampler,
    keeps.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    subset_probs = subset_probs_from_node_probs(partition, node_probs)
    policy = SchedulingPolicy(subset_probs, subset_probs.sum(), epsilon=0.0)
    sample = policy.round_sampler(partition, topology)
    owner = partition.owner_array
    n = topology.n
    i, j = topology.edge_array.T
    k, a, b, e, f = _incident_pairs(topology)
    chunk = min(chunk, max(1, _MC_BLOCK_ELEMENTS // max(n, k.size)))
    edge_counts = np.zeros(i.size, dtype=np.int64)
    pair_counts = np.zeros(k.size, dtype=np.int64)
    s_lap = np.zeros((n, n))
    s_gram = np.zeros((n, n))
    done = 0
    while done < samples:
        block = min(chunk, samples - done)
        if block == 1:
            round_ = sample(rng)
            lap = topology.laplacian(round_.active_edges)
            s_lap += lap
            s_gram += lap @ lap
        else:
            draws = rng.random((block, subset_probs.size))
            on = (draws < subset_probs[None, :])[:, owner]
            kept = on[:, i] & on[:, j]  # (block, m): edge survives the round
            edge_counts += kept.sum(axis=0)
            pair_counts += (kept[:, e] & kept[:, f]).sum(axis=0)
        done += block
    s_lap += topology.laplacian(edge_counts)
    s_gram += _pair_gram(n, k, a, b, pair_counts)
    return SpectralObjective(s_lap / samples, s_gram / samples)


def enumerated_moments(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> SpectralObjective:
    """Exact moments by exhaustive enumeration of all 2^q activation patterns.

    Straight-line oracle, deliberately independent of both the closed-form
    code path and the sampling path: each pattern's probability is the plain
    Bernoulli product and the effective Laplacian is rebuilt inline.
    """
    subset_probs = subset_probs_from_node_probs(partition, node_probs)
    q = subset_probs.size
    if q > 20:
        raise ValueError(f"2^{q} activation patterns is too many to enumerate")
    adj = topology.adjacency
    n = topology.n
    s_lap = np.zeros((n, n))
    s_gram = np.zeros((n, n))
    for pattern in range(1 << q):
        weight = 1.0
        for k in range(q):
            weight *= subset_probs[k] if pattern >> k & 1 else 1.0 - subset_probs[k]
        if weight == 0.0:
            continue
        mask = (pattern >> partition.owner_array & 1).astype(float)
        a_t = adj * np.outer(mask, mask)
        lap = np.diag(a_t.sum(axis=1)) - a_t
        s_lap += weight * lap
        s_gram += weight * (lap @ lap)
    return SpectralObjective(s_lap, s_gram)

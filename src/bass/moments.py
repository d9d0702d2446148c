"""The two activation moments of the effective Laplacian, E[L~] and E[L~^2].

They are all the epsilon search reads (``mixing.SpectralObjective``), and
each of the three routes below returns them as one.

Under subset sampling, node activations are Bernoulli variables that are
perfectly correlated inside a subset and independent across subsets, so a
joint moment E[n_u n_v ...] is the product of the activation probabilities
of the distinct subsets the nodes touch. A round's effective adjacency is
A~_ka = A_ka n_k n_a, its degree d_k = sum_a A~_ka, and since L~ is
symmetric, L~^T L~ = L~^2 = diag(d^2) - diag(d) A~ - A~ diag(d) + A~^2.

- ``expected_laplacian_gram`` is the closed form used in production. Every
  entry of E[A~], E[d^2], E[diag(d) A~] and E[A~^2] is a sum of
  neighbour-triple weights w_k(a, b) = E[n_k n_a n_b] over a node k and two
  of its neighbours a, b (a = b allowed). One pass over those triples costs
  O(sum_k deg_k^2) time and O(n^2) memory, and the two moments are then
  assembled in place over the E[A~] and E[diag(d) A~] buffers.
- ``enumerated_moments`` is an exact test oracle: it rebuilds L~ for each
  of the 2^q activation patterns and sums w L~ and w L~^2.
- ``monte_carlo_moments`` averages sampled rounds: L~ and L~^2 of the edges
  that survive the production ``scheduling.sample_round``, or the same
  sums from vectorized blocks of rounds drawn from the identical stream.
"""

from __future__ import annotations

import numpy as np

from .graph import Topology
from .mixing import SpectralObjective
from .partition import CollisionFreePartition
from .scheduling import SchedulingPolicy, sample_round

# Monte Carlo rounds per vectorized block are capped so that one block x n
# array stays under this many elements (8 MB of float64).
_MC_BLOCK_ELEMENTS = 1 << 20


def _checked_probs(partition: CollisionFreePartition, node_probs) -> np.ndarray:
    p = np.asarray(node_probs, dtype=float)
    if p.shape != (partition.n,):
        raise ValueError(f"expected {partition.n} node probabilities, got {p.shape}")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError("node probabilities must lie in [0, 1]")
    for s in partition.subsets:
        if np.ptp(p[list(s)]) > 1e-12:
            raise ValueError(f"nodes of subset {s} carry different probabilities")
    return np.clip(p, 0.0, 1.0)


def subset_probs_from_node_probs(
    partition: CollisionFreePartition, node_probs
) -> np.ndarray:
    """Recover per-subset probabilities, validating within-subset consistency."""
    p = _checked_probs(partition, node_probs)
    return np.array([p[s[0]] for s in partition.subsets])


def _joint(p: np.ndarray, owner: np.ndarray, *nodes) -> np.ndarray:
    """E[n_u n_v ...] for broadcastable node-index arrays.

    Each node contributes its probability unless an earlier node lies in the
    same subset, whose indicator it then repeats.
    """
    out = np.ones(np.broadcast_shapes(*(np.shape(v) for v in nodes)))
    for i, v in enumerate(nodes):
        fresh = np.ones(out.shape, dtype=bool)
        for u in nodes[:i]:
            fresh &= owner[u] != owner[v]
        out = out * np.where(fresh, p[v], 1.0)
    return out


def expected_laplacian_gram(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> SpectralObjective:
    """Closed-form E[L~] and E[L~^T L~].

    For each node k with neighbours a, b the weight w[a, b] = E[n_k n_a n_b]
    gives E[A~_ka] = w[a, a], E[d_k^2] = sum w, E[d_k A~_kb] = sum_a w[a, b]
    and k's contribution w[a, b] to E[(A~^2)_ab].
    """
    p = _checked_probs(partition, node_probs)
    owner = partition.owner_array
    n = topology.n
    e_adj, e_deg_adj, e_adj2 = (np.zeros((n, n)) for _ in range(3))
    e_deg2 = np.zeros(n)
    for k, nbrs in enumerate(topology.neighbors):
        a = np.array(nbrs, dtype=int)
        w = _joint(p, owner, k, a[:, None], a[None, :])
        e_adj[k, a] = w.diagonal()
        e_deg2[k] = w.sum()
        e_deg_adj[k, a] = w.sum(axis=0)
        e_adj2[np.ix_(a, a)] += w
    e_deg = e_adj.sum(axis=1)
    # E[L~] = diag(E d) - E[A~] and E[L~^2] = ((diag(E d^2) - E[DA~]) -
    # E[DA~]^T) + E[A~^2], evaluated in place in that order. E[A~] and E[DA~]
    # vanish on the diagonal, so an off-diagonal entry is 0 - x (a zero keeps
    # its positive sign), (0 - x_ab) + (0 - x_ba) equals (0 - x_ab) - x_ba
    # bit for bit, and the diagonals are written separately.
    e_lap = np.subtract(0.0, e_adj, out=e_adj)
    np.fill_diagonal(e_lap, e_deg)
    e_gram = np.subtract(0.0, e_deg_adj, out=e_deg_adj)
    e_gram += e_gram.T
    np.fill_diagonal(e_gram, e_deg2)
    e_gram += e_adj2
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
    stream is identical value-for-value). Accumulation is vectorized over
    round blocks of at most ``chunk`` rounds, capped so one block x n array
    stays under ``_MC_BLOCK_ELEMENTS``; ``chunk=1`` sums L~ and L~^2 of the
    edges that survive ``scheduling.sample_round``, the production sampler,
    which the tests pin the vectorized path against.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    subset_probs = subset_probs_from_node_probs(partition, node_probs)
    policy = SchedulingPolicy(subset_probs, subset_probs.sum(), epsilon=0.0)
    owner = partition.owner_array
    adj = topology.adjacency
    n = topology.n
    chunk = min(chunk, max(1, _MC_BLOCK_ELEMENTS // n))
    s_lap = np.zeros((n, n))
    s_gram = np.zeros((n, n))
    done = 0
    while done < samples:
        block = min(chunk, samples - done)
        if block == 1:
            round_ = sample_round(policy, partition, topology, rng)
            lap = topology.laplacian(round_.active_edges)
            s_lap += lap
            s_gram += lap @ lap
        else:
            draws = rng.random((block, subset_probs.size))
            masks = (draws < subset_probs[None, :])[:, owner].astype(float)
            degs = masks * (masks @ adj)  # row s = effective degrees of round s
            s_adj = adj * (masks.T @ masks)
            s_deg_adj = adj * (degs.T @ masks)
            # (A~^2)_ab counts the middle nodes k adjacent to both a and b
            # that are active together with them
            s_adj2 = np.zeros((n, n))
            for k, nbrs in enumerate(topology.neighbors):
                a = list(nbrs)
                s_adj2[np.ix_(a, a)] += (masks[:, a] * masks[:, [k]]).T @ masks[:, a]
            s_lap += np.diag(degs.sum(axis=0)) - s_adj
            s_gram += np.diag((degs * degs).sum(axis=0)) - s_deg_adj - s_deg_adj.T + s_adj2
        done += block
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
        mask = np.array(
            [float(pattern >> partition.subset_of[v] & 1) for v in range(n)]
        )
        a_t = adj * np.outer(mask, mask)
        lap = np.diag(a_t.sum(axis=1)) - a_t
        s_lap += weight * lap
        s_gram += weight * (lap @ lap)
    return SpectralObjective(s_lap, s_gram)

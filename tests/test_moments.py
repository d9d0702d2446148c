import tracemalloc

import numpy as np
import pytest

from bass import (
    CollisionFreePartition,
    MatchaPolicy,
    SchedulingPolicy,
    Topology,
    closed_form_moments,
    enumerated_moments,
    expected_laplacian_gram,
    greedy_partition,
    make_topology,
    matching_decomposition,
    monte_carlo_moments,
    node_probabilities,
    path_topology,
    ring_topology,
    two_stars_topology,
)

from .graph_helpers import adjacency, random_connected


def k2_split():
    return CollisionFreePartition([0, 1])


def ring6_setup():
    t = ring_topology(6)
    return t, greedy_partition(t)


def subset_units(t, part, subset_probs):
    subset_probs = np.asarray(subset_probs, float)
    return SchedulingPolicy(subset_probs, subset_probs.sum()).units(part, t)


def random_fixture(rng, n_lo=3, n_hi=10):
    t = random_connected(rng, int(rng.integers(n_lo, n_hi)), extra_edges=2)
    part = greedy_partition(t)
    subset_probs = rng.uniform(0.1, 0.9, part.q)
    return t, part, node_probabilities(subset_probs, part), subset_units(t, part, subset_probs)


MOMENT_FIELDS = ("e_laplacian", "e_gram")


def traced_peak_mb(fn, *args):
    """(result, peak traced allocation in MB) of one call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def reduced_product_moments(t, part, node_probs):
    """Oracle for valid collision-free partitions.

    Any set of distinct nodes appearing in one contributing term lies in
    pairwise-distinct subsets (adjacent nodes conflict directly; co-neighbors
    conflict through the shared neighbor), so activation indicators are
    independent and the joint moment is the plain product over the distinct
    nodes involved. Straight-line triple loops, no max terms.
    """
    p = np.asarray(node_probs, float)
    adj = adjacency(t)
    n = t.n

    def prob(*nodes):
        out = 1.0
        for v in set(nodes):
            out *= p[v]
        return out

    e_lap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                e_lap[i, j] = -prob(i, j) * adj[i, j]
        e_lap[i, i] = sum(prob(i, m) * adj[i, m] for m in range(n))

    deg2 = np.zeros((n, n))
    deg_adj = np.zeros((n, n))
    adj_deg = np.zeros((n, n))
    adj2 = np.zeros((n, n))
    for i in range(n):
        for m in range(n):
            for kk in range(n):
                deg2[i, i] += prob(i, m, kk) * adj[i, m] * adj[i, kk]
        for j in range(n):
            if i == j:
                adj2[i, i] = sum(prob(i, m) * adj[i, m] for m in range(n))
                continue
            for m in range(n):
                deg_adj[i, j] += prob(i, j, m) * adj[i, j] * adj[i, m]
                adj_deg[i, j] += prob(i, j, m) * adj[i, j] * adj[j, m]
                adj2[i, j] += prob(i, j, m) * adj[i, m] * adj[m, j]
    return e_lap, deg2 - deg_adj - adj_deg + adj2


class TestExpectedLaplacian:
    def test_full_activation_is_exact_laplacian(self):
        t, part = ring6_setup()
        ones = np.ones(t.n)
        assert np.array_equal(
            expected_laplacian_gram(t, part, ones).e_laplacian, t.laplacian()
        )

    def test_k2_half_activation(self):
        e_lap = expected_laplacian_gram(path_topology(2), k2_split(), [0.5, 0.5]).e_laplacian
        assert np.allclose(e_lap, 0.25 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_k2_same_subset(self):
        part = CollisionFreePartition([0, 0])  # invalid physically, legal input
        e_lap = expected_laplacian_gram(path_topology(2), part, [0.5, 0.5]).e_laplacian
        # perfectly correlated endpoints: the link is on iff the subset is
        assert np.allclose(e_lap, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_silent_node_zeroes_row_and_column(self):
        t = path_topology(3)
        part = greedy_partition(t)
        node_p = node_probabilities([0.7, 0.0, 0.5], part)
        e_lap = expected_laplacian_gram(t, part, node_p).e_laplacian
        silent = np.flatnonzero(node_p == 0.0)[0]
        assert np.all(e_lap[silent] == 0)
        assert np.all(e_lap[:, silent] == 0)

    def test_zero_row_sums_and_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            t, part, node_p, _ = random_fixture(rng)
            e_lap = expected_laplacian_gram(t, part, node_p).e_laplacian
            assert np.abs(e_lap - e_lap.T).max() < 1e-14
            assert np.abs(e_lap @ np.ones(t.n)).max() < 1e-12

    def test_inconsistent_subset_probs_rejected(self):
        t, part = ring6_setup()
        bad = np.array([0.5, 0.5, 0.5, 0.6, 0.5, 0.5])  # node 3 differs from 0
        with pytest.raises(ValueError, match=r"nodes of subset \(0, 3\) carry different probabilities"):
            expected_laplacian_gram(t, part, bad)


class TestExpectedGram:
    def test_full_activation_is_squared_laplacian(self):
        t, part = ring6_setup()
        ms = expected_laplacian_gram(t, part, np.ones(t.n))
        lap = t.laplacian()
        assert np.allclose(ms.e_gram, lap @ lap, atol=1e-12)

    def test_k2_half_activation_frozen(self):
        # enumeration over the 4 outcomes: only both-on contributes, w.p. 0.25
        ms = expected_laplacian_gram(path_topology(2), k2_split(), [0.5, 0.5])
        assert np.allclose(ms.e_gram, 0.25 * np.array([[2, -2], [-2, 2]]), atol=1e-15)

    def test_single_node_all_zero(self):
        t = Topology(1)
        part = CollisionFreePartition([0])
        ms = expected_laplacian_gram(t, part, [0.7])
        for mat in (ms.e_laplacian, ms.e_gram):
            assert np.array_equal(mat, np.zeros((1, 1)))

    def test_decomposition_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            t, part, node_p, _ = random_fixture(rng)
            # the (k, b) and (a, k) terms of the pair scatter mirror each
            # other: the reversed pair (k, b), (k, a) carries the same weight
            ms = expected_laplacian_gram(t, part, node_p)
            assert np.abs(ms.e_gram - ms.e_gram.T).max() < 1e-12

    def test_gram_is_psd_and_annihilates_ones(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            t, part, node_p, _ = random_fixture(rng)
            ms = expected_laplacian_gram(t, part, node_p)
            eigs = np.linalg.eigvalsh(ms.e_gram)
            assert eigs.min() >= -1e-10
            assert np.abs(ms.e_gram @ np.ones(t.n)).max() < 1e-10

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            t, part, node_p, units = random_fixture(rng, n_hi=9)
            ms = expected_laplacian_gram(t, part, node_p)
            exact = enumerated_moments(t, units)
            assert np.abs(ms.e_laplacian - exact.e_laplacian).max() < 1e-12
            assert np.abs(ms.e_gram - exact.e_gram).max() < 1e-12

    def test_matches_independent_product_oracle_on_valid_partitions(self):
        # under a valid partition the correlation terms must reduce to plain
        # probability products; catches mishandled same-subset indicators
        rng = np.random.default_rng(71)
        for _ in range(10):
            t, part, node_p, _ = random_fixture(rng, n_hi=9)
            ms = expected_laplacian_gram(t, part, node_p)
            oracle_lap, oracle_gram = reduced_product_moments(t, part, node_p)
            assert np.abs(ms.e_laplacian - oracle_lap).max() < 1e-12
            assert np.abs(ms.e_gram - oracle_gram).max() < 1e-12


    def test_ring200_matches_enumeration_in_quadratic_memory(self):
        # a dense n x n x n intermediate alone would take 64 MB here
        t = make_topology("ring(200)")
        part = greedy_partition(t)
        assert part.q <= 20
        probs = np.random.default_rng(83).uniform(0.1, 0.9, part.q)
        ms, peak_mb = traced_peak_mb(expected_laplacian_gram, t, part, node_probabilities(probs, part))
        assert peak_mb < 16
        exact = enumerated_moments(t, subset_units(t, part, probs))
        for name in MOMENT_FIELDS:
            assert np.abs(getattr(ms, name) - getattr(exact, name)).max() < 1e-12, name

    def test_er400_peak_memory_below_five_and_a_half_matrices(self):
        # the cells' terms grow as sum_k deg_k^2, with no n x n array
        t = make_topology("er(400,0.012,1)")
        part = greedy_partition(t)
        node_p = node_probabilities(np.random.default_rng(89).uniform(0.1, 0.9, part.q), part)
        _, peak_mb = traced_peak_mb(expected_laplacian_gram, t, part, node_p)
        assert peak_mb * 2**20 < 5.5 * t.n**2 * 8

    def test_er400_symmetry_check_adds_no_matrix(self):
        # The check gathers each cell's mirror among the cells (7 % of n^2
        # here), so neither it nor the cell sums before it make an n x n
        # array: 0.78 of one at the peak (3.5 when both moments were dense).
        t = make_topology("er(400,0.012,1)")
        part = greedy_partition(t)
        node_p = node_probabilities(np.random.default_rng(89).uniform(0.1, 0.9, part.q), part)
        _, peak_mb = traced_peak_mb(expected_laplacian_gram, t, part, node_p)
        assert peak_mb * 2**20 < 1.0 * t.n**2 * 8


class TestClosedFormOverUnits:
    def test_subset_units_are_the_node_probability_form_bit_for_bit(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            t, part, node_p, units = random_fixture(rng)
            by_nodes = expected_laplacian_gram(t, part, node_p)
            by_units = closed_form_moments(t, units)
            for name in MOMENT_FIELDS:
                got, expected = getattr(by_units, name), getattr(by_nodes, name)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_matching_units_give_the_linear_form(self):
        # one matching per edge, at most one per node: E[L~^2] is
        # E[L~]^2 + sum_k p_k (1 - p_k) L_k^2 with L_k the matching's Laplacian
        t = two_stars_topology(4, 5)
        md = matching_decomposition(t)
        probs = np.random.default_rng(103).uniform(0.0, 1.0, md.r)
        units = MatchaPolicy(t, md.edge_matching, probs, 2 * probs.sum()).units()
        ms = closed_form_moments(t, units)
        laps = [t.laplacian(md.edge_matching == k) for k in range(md.r)]
        e_lap = sum(p * lap for p, lap in zip(probs, laps))
        e_gram = e_lap @ e_lap + sum(p * (1 - p) * lap @ lap for p, lap in zip(probs, laps))
        assert np.abs(ms.e_laplacian - e_lap).max() < 1e-14
        assert np.abs(ms.e_gram - e_gram).max() < 1e-13
        exact = enumerated_moments(t, units)
        for name in MOMENT_FIELDS:
            assert np.abs(getattr(ms, name) - getattr(exact, name)).max() < 1e-12


class TestEnumeratedMoments:
    def test_k2_by_hand(self):
        ms = enumerated_moments(path_topology(2), subset_units(path_topology(2), k2_split(), [0.5, 0.5]))
        assert np.allclose(ms.e_laplacian, 0.25 * np.array([[1, -1], [-1, 1]]))
        assert np.allclose(ms.e_gram, 0.25 * np.array([[2, -2], [-2, 2]]))

    def test_too_many_subsets_rejected(self):
        t = Topology(30, [(i, i + 1) for i in range(29)])
        part = CollisionFreePartition(np.arange(30))
        with pytest.raises(ValueError):
            enumerated_moments(t, subset_units(t, part, np.full(30, 0.5)))


class TestMonteCarloMoments:
    def test_deterministic_when_all_on(self):
        t, part = ring6_setup()
        ms = monte_carlo_moments(t, subset_units(t, part, np.ones(part.q)), 10, np.random.default_rng(0))
        lap = t.laplacian()
        assert np.array_equal(ms.e_laplacian, lap)
        assert np.allclose(ms.e_gram, lap @ lap, atol=1e-12)

    def test_zero_probabilities_give_zero(self):
        t, part = ring6_setup()
        ms = monte_carlo_moments(t, subset_units(t, part, np.zeros(part.q)), 10, np.random.default_rng(0))
        assert np.array_equal(ms.e_laplacian, np.zeros((6, 6)))
        assert np.array_equal(ms.e_gram, np.zeros((6, 6)))

    def test_reproducible_given_seed(self):
        t, part = ring6_setup()
        units = subset_units(t, part, [0.3, 0.6, 0.9])
        a = monte_carlo_moments(t, units, 500, np.random.default_rng(5))
        b = monte_carlo_moments(t, units, 500, np.random.default_rng(5))
        assert np.array_equal(a.e_gram, b.e_gram)

    def test_block_memory_is_bounded(self):
        t = make_topology("ring(60)")
        part = greedy_partition(t)
        _, peak_mb = traced_peak_mb(
            monte_carlo_moments, t, subset_units(t, part, [0.3, 0.6, 0.9]), 8192,
            np.random.default_rng(0),
        )
        assert peak_mb < 64

    def test_close_to_closed_form(self):
        rng = np.random.default_rng(73)
        t, part, node_p, units = random_fixture(rng, n_lo=6, n_hi=10)
        ms = expected_laplacian_gram(t, part, node_p)
        mc = monte_carlo_moments(t, units, 40000, np.random.default_rng(99))
        assert np.abs(ms.e_laplacian - mc.e_laplacian).max() < 0.05
        assert np.abs(ms.e_gram - mc.e_gram).max() < 0.15

    def test_requires_positive_samples(self):
        t, part = ring6_setup()
        units = subset_units(t, part, np.ones(part.q))
        for samples in (0, -3, 2.5, True, "10"):
            with pytest.raises(ValueError, match="samples must be a positive integer"):
                monte_carlo_moments(t, units, samples, np.random.default_rng(0))

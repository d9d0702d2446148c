from unittest import mock

import numpy as np
import pytest

from bass import moments
from bass import (
    MatchaPolicy,
    SpectralObjective,
    Topology,
    closed_form_moments,
    dump_matchings,
    full_comm_policy,
    greedy_partition,
    make_topology,
    matcha_policy,
    matcha_spectral_moments,
    matching_decomposition,
    optimize_epsilon,
    path_topology,
    ring_topology,
    sample_round,
    star_topology,
    two_stars_topology,
)
from bass.graph import _pair_gram

from .graph_helpers import adjacency, degrees, edge_pairs, random_connected


def assert_valid_decomposition(t, md):
    seen = []
    for m in md.matchings:
        endpoints = [v for e in m for v in e]
        assert len(endpoints) == len(set(endpoints)), "shared endpoint in matching"
        seen.extend(m)
    assert sorted(seen) == sorted(edge_pairs(t)), "matchings must cover each edge once"


def set_greedy_coloring(t):
    """Oracle: the greedy edge coloring over Python sets of the colors taken
    at each node, edges in lexicographic order."""
    colors_at = [set() for _ in range(t.n)]
    colors = []
    for i, j in edge_pairs(t):
        c = 0
        while c in colors_at[i] or c in colors_at[j]:
            c += 1
        colors.append(c)
        colors_at[i].add(c)
        colors_at[j].add(c)
    return colors


class TestMatchingDecomposition:
    def test_matches_set_based_coloring(self):
        rng = np.random.default_rng(61)
        graphs = [
            random_connected(rng, int(rng.integers(1, 40)), extra_edges=int(rng.integers(0, 80)))
            for _ in range(40)
        ]
        graphs += [make_topology(spec) for spec in (
            "two-stars(6,6)", "er(100,0.05,3)", "er(400,0.012,1)", "er(2000,0.006,1)"
        )]
        for t in graphs:
            md = matching_decomposition(t)
            assert md.edge_matching.tolist() == set_greedy_coloring(t)
            assert md.r == max(set_greedy_coloring(t), default=-1) + 1

    def test_p3_two_matchings(self):
        md = matching_decomposition(path_topology(3))
        assert md.r == 2
        assert md.matchings == (((0, 1),), ((1, 2),))

    def test_ring6_two_matchings_of_three(self):
        md = matching_decomposition(ring_topology(6))
        assert_valid_decomposition(ring_topology(6), md)
        assert md.r == 2
        assert sorted(len(m) for m in md.matchings) == [3, 3]

    def test_star_singletons(self):
        md = matching_decomposition(star_topology(5))
        assert md.r == 4
        assert all(len(m) == 1 for m in md.matchings)

    def test_random_graphs_valid_and_bounded(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            t = random_connected(rng, int(rng.integers(3, 16)), extra_edges=4)
            md = matching_decomposition(t)
            assert_valid_decomposition(t, md)
            max_degree = int(degrees(t).max())
            assert md.r <= 2 * max_degree - 1

    def test_dump_format(self):
        text = dump_matchings(matching_decomposition(path_topology(3)))
        assert text == "0-1\n1-2\n"


class TestMatchaPolicy:
    def test_full_budget_always_active(self):
        md = matching_decomposition(path_topology(3))
        policy = matcha_policy(md, 4.0, path_topology(3)).with_epsilon(0.3)
        assert np.allclose(policy.match_probs, 1.0)
        act = policy.sample_round(np.random.default_rng(0))
        assert act.active_edges.all()
        assert np.array_equal(act.mixing_matrix, np.eye(3) - 0.3 * path_topology(3).laplacian())
        assert act.slots_used == 4

    def test_half_budget_probabilities(self):
        md = matching_decomposition(path_topology(3))
        policy = matcha_policy(md, 2.0, path_topology(3))
        assert np.allclose(policy.match_probs, 0.5)
        assert policy.expected_slots == pytest.approx(2.0)

    def test_star_quarter_probabilities(self):
        md = matching_decomposition(star_topology(5))
        policy = matcha_policy(md, 2.0, star_topology(5))
        assert np.allclose(policy.match_probs, 0.25)

    def test_star_slot_efficiency_regime(self):
        # same 2-slot budget on the star: matching spreads 0.25 over four
        # single-edge matchings, while broadcast scheduling puts the hub at
        # probability 1 (and leaves at 0: their centrality is zero) - the
        # qualitative regime where broadcasting buys more links per slot
        import warnings

        from bass import (
            betweenness_centrality,
            greedy_partition,
            solve_probabilities,
            subset_betweenness,
        )

        t = star_topology(5)
        md = matching_decomposition(t)
        link_policy = matcha_policy(md, 2.0, t)
        assert np.allclose(link_policy.match_probs, 0.25)
        part = greedy_partition(t)
        scores = subset_betweenness(betweenness_centrality(t), part)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            probs = solve_probabilities(scores, 2.0)
        hub_subset = part.owner_array[0]
        assert probs[hub_subset] == 1.0
        assert probs.sum() == pytest.approx(1.0)  # leaves stay silent

    def test_infeasible_budget(self):
        md = matching_decomposition(path_topology(3))
        with pytest.raises(ValueError):
            matcha_policy(md, 5.0, path_topology(3))
        with pytest.raises(ValueError):
            matcha_policy(md, 0.0, path_topology(3))

    def test_non_finite_budget_rejected(self):
        md = matching_decomposition(path_topology(3))
        with pytest.raises(ValueError, match="budget nan infeasible"):
            matcha_policy(md, np.nan, path_topology(3))

    @pytest.mark.parametrize("probs", [[2.0, -1.0, 0.5, 0.5, 0.5, 0.5], np.full((6, 1), 0.5),
                                       np.full(6, np.nan)], ids=["out-of-range", "2-D", "nan"])
    def test_bad_matching_probabilities_rejected(self, probs):
        t = two_stars_topology(6, 6)
        md = matching_decomposition(t)
        assert md.r == 6
        with pytest.raises(ValueError, match="matching probabilities must"):
            MatchaPolicy(t, md.edge_matching, probs, 3.0)

    def test_requires_epsilon_to_sample(self):
        md = matching_decomposition(path_topology(3))
        policy = matcha_policy(md, 2.0, path_topology(3))
        with pytest.raises(ValueError):
            policy.sample_round(np.random.default_rng(0))

    def test_round_invariants(self):
        rng = np.random.default_rng(89)
        t = random_connected(rng, 10, extra_edges=4)
        md = matching_decomposition(t)
        policy = matcha_policy(md, md.r * 0.8, t).with_epsilon(0.2)
        ones = np.ones(t.n)
        i, j = t.edge_array.T
        for _ in range(200):
            act = policy.sample_round(rng)
            w = act.mixing_matrix
            assert np.abs(w - w.T).max() == 0.0
            assert np.abs(w @ ones - ones).max() <= 1e-12
            assert act.slots_used == 2 * act.active_subsets.sum()
            # the round's graph is the union of its active matchings
            adj_t = np.zeros((t.n, t.n))
            for k in np.flatnonzero(act.active_subsets):
                for a, b in md.matchings[k]:
                    adj_t[a, b] = adj_t[b, a] = 1.0
            # active graph is a subgraph of the base topology
            assert np.all(adj_t <= adjacency(t))
            assert np.array_equal(act.active_edges, adj_t[i, j] == 1.0)
            assert np.array_equal(
                w, np.eye(t.n) - 0.2 * (np.diag(adj_t.sum(axis=1)) - adj_t)
            )

    def test_mean_slots_tracks_budget(self):
        rng = np.random.default_rng(97)
        t = ring_topology(6)
        md = matching_decomposition(t)
        budget = 2.4
        policy = matcha_policy(md, budget, t).with_epsilon(0.2)
        slots = np.array(
            [policy.sample_round(rng).slots_used for _ in range(20000)]
        )
        sem = slots.std(ddof=1) / np.sqrt(len(slots))
        assert abs(slots.mean() - budget) <= 3 * sem + 1e-12

    def test_consumes_r_uniforms_in_matching_order(self):
        t = ring_topology(6)
        md = matching_decomposition(t)
        policy = matcha_policy(md, 2.0, t).with_epsilon(0.2)
        seed = 31
        act = policy.sample_round(np.random.default_rng(seed))
        draws = np.random.default_rng(seed).random(md.r)
        assert np.array_equal(act.active_subsets, draws < policy.match_probs)

    def test_spectral_moments_match_independent_edges(self):
        # single-edge matchings on the star are independent Bernoullis, so
        # E[L~] has a closed form to compare against
        t = star_topology(5)
        md = matching_decomposition(t)
        policy = matcha_policy(md, 2.0, t)
        e_lap, e_gram = matcha_spectral_moments(
            policy, 40000, np.random.default_rng(3)
        )
        expected = np.zeros((5, 5))
        for (i, j) in edge_pairs(t):
            lap = np.zeros((5, 5))
            lap[i, i] = lap[j, j] = 1.0
            lap[i, j] = lap[j, i] = -1.0
            expected += 0.25 * lap
        assert np.abs(e_lap - expected).max() < 0.05
        search = optimize_epsilon(SpectralObjective(e_lap, e_gram))
        assert 0.0 < search.epsilon
        assert search.value < 1.0

    # er(30,0.2,1) has nodes of degree above 8.
    @pytest.mark.parametrize("t", [Topology(7, [(i, (i + 1) % 7) for i in range(7)]),
                                   two_stars_topology(4, 5), make_topology("er(30,0.2,1)")])
    def test_spectral_moments_equal_a_loop_over_rounds(self, t):
        # Sample counts on both sides of each block edge: the moments and the
        # generator's end state are the per-round loop's after that many rounds.
        # The r matchings are r edge classes, so a block holds `block` rounds.
        md = matching_decomposition(t)
        assert md.r >= 3 and np.unique(md.edge_matching).size == md.r
        policy = matcha_policy(md, 0.8 * md.r, t).with_epsilon(0.1)
        block = 1024
        checks = (1, block - 1, block, block + 1, 3 * block + 75)
        rng = np.random.default_rng(13)
        s_lap = np.zeros((t.n, t.n))
        s_gram = np.zeros((t.n, t.n))
        for done in range(1, checks[-1] + 1):
            edges = t.edge_array[policy.sample_round(rng).active_edges]
            adj = np.zeros((t.n, t.n))
            adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = 1.0
            lap = np.diag(adj.sum(axis=1)) - adj
            s_lap += lap
            s_gram += lap @ lap
            if done in checks:
                mc_rng = np.random.default_rng(13)
                with mock.patch.object(moments, "_MC_BLOCK_ELEMENTS", block * md.r):
                    e_lap, e_gram = matcha_spectral_moments(policy, done, mc_rng)
                assert np.array_equal(e_lap, s_lap / done), done
                assert np.array_equal(e_gram, s_gram / done), done
                assert mc_rng.bit_generator.state == rng.bit_generator.state, done

    @pytest.mark.parametrize("budget_frac", [0.3, 1.0])
    def test_spectral_moments_equal_an_int64_counter(self, budget_frac):
        # The co-activation counts of a product of 0/1 int64 arrays per block,
        # over r = 12 matchings and six blocks; at budget_frac 1 every
        # matching is active every round, so each block adds its full size.
        t = make_topology("er(30,0.2,1)")
        md = matching_decomposition(t)
        assert md.r >= 12 and np.unique(md.edge_matching).size == md.r
        policy = matcha_policy(md, budget_frac * 2 * md.r, t)
        block = 1024
        samples = 5 * block + 300
        rng = np.random.default_rng(5)
        p = policy.match_probs
        counts = np.zeros(p.size, dtype=np.int64)
        co_counts = np.zeros((p.size, p.size), dtype=np.int64)
        for done in range(0, samples, block):
            active = (rng.random((min(block, samples - done), p.size)) < p).astype(np.int64)
            counts += active.sum(axis=0)
            co_counts += active.T @ active
        m = policy.edge_matching
        expected = (t.laplacian(counts[m]) / samples,
                    _pair_gram(t, lambda e, f: co_counts[m[e], m[f]]) / samples)
        mc_rng = np.random.default_rng(5)
        with mock.patch.object(moments, "_MC_BLOCK_ELEMENTS", block * md.r):
            estimate = matcha_spectral_moments(policy, samples, mc_rng)
        for got, want in zip(estimate, expected):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert mc_rng.bit_generator.state == rng.bit_generator.state
        if budget_frac == 1.0:
            assert np.all(co_counts == samples)

    def test_expected_laplacian_sums_matching_laplacians(self):
        t = two_stars_topology(4, 5)
        md = matching_decomposition(t)
        policy = matcha_policy(md, 2.0, t)
        expected = sum(
            p * Topology(t.n, m).laplacian() for p, m in zip(policy.match_probs, md.matchings)
        )
        e_lap = closed_form_moments(t, policy.units()).e_laplacian
        assert np.allclose(e_lap, expected, rtol=0.0, atol=1e-15)

    def test_matchings_must_cover_the_base_edges_once(self):
        # one matching in 0..r-1 per row of edge_array
        t = path_topology(3)
        MatchaPolicy(t, [0, 1], np.full(2, 0.5), 1.0)
        for edge_matching in ([0], [0, 1, 0], [0, 2], [-1, 0], [[0, 1]]):
            with pytest.raises(ValueError, match="edge_matching must give each of the 2"):
                MatchaPolicy(t, edge_matching, np.full(2, 0.5), 1.0)


class TestFullCommPolicy:
    def test_p3_three_slots_every_round(self):
        t = path_topology(3)
        part = greedy_partition(t)
        policy = full_comm_policy(part).with_epsilon(0.25)
        rng = np.random.default_rng(0)
        for _ in range(5):
            act = sample_round(policy, part, t, rng)
            assert act.slots_used == 3
            assert np.array_equal(
                act.mixing_matrix, np.eye(3) - 0.25 * t.laplacian()
            )

    def test_ring6_three_slots(self):
        part = greedy_partition(ring_topology(6))
        assert full_comm_policy(part).budget == 3.0

    def test_star_five_slots(self):
        part = greedy_partition(star_topology(5))
        assert full_comm_policy(part).budget == 5.0

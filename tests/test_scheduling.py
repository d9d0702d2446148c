import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import (
    CollisionFreePartition,
    SchedulingPolicy,
    betweenness_centrality,
    er_topology,
    greedy_partition,
    node_probabilities,
    path_topology,
    ring_topology,
    sample_round,
    solve_probabilities,
    subset_betweenness,
)
from bass.scheduling import BUDGET_TOL

from .graph_helpers import adjacency, random_connected


def cap_aware_probabilities(values, budget):
    """Reference for a zero floor: p = min(1, gamma * v) by cap-aware
    iteration. A subset whose uncapped share reaches 1 is pinned there and
    the rest of the budget is re-spread; gamma never decreases, so the loop
    runs at most q times."""
    q = values.size
    capped = np.zeros(q, dtype=bool)
    probs = np.zeros(q)
    while True:
        remaining = budget - capped.sum()
        mass = values[~capped].sum()
        if mass <= 0.0:
            if remaining > BUDGET_TOL:
                warnings.warn(
                    f"budget {budget} unattainable: zero-score subsets cannot "
                    f"absorb the remaining {remaining:.6f} slots"
                )
            break
        gamma = remaining / mass
        newly = (~capped) & (gamma * values >= 1.0)
        if not newly.any():
            probs[~capped] = gamma * values[~capped]
            break
        capped |= newly
    probs[capped] = 1.0
    return probs


def bisection_probabilities(values, budget, min_prob):
    """Reference for a positive floor: p = min(1, max(floor, gamma * v)) by
    200 halvings of gamma. Past saturation (every positive score at 1) the
    zero-score subsets are lifted evenly, water-filling against the cap.
    Both branches meet the budget exactly, as the knot solve does: neither
    stops at saturation within BUDGET_TOL short of it."""
    probs_at = lambda g: np.minimum(1.0, np.maximum(min_prob, g * values))
    probs = np.where(values > 0, 1.0, min_prob)
    if budget >= probs.sum():
        while True:
            shortfall = budget - probs.sum()
            open_mask = probs < 1.0 - 1e-15
            if shortfall <= 0.0 or not open_mask.any():
                return probs
            delta = shortfall / open_mask.sum()
            headroom = (1.0 - probs[open_mask]).min()
            if delta <= headroom:
                probs[open_mask] += delta
                return probs
            probs[open_mask] += headroom
    lo, hi = 0.0, 1.0
    while probs_at(hi).sum() < budget:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if probs_at(mid).sum() < budget:
            lo = mid
        else:
            hi = mid
    return probs_at(hi)


def reference_probabilities(values, budget, min_prob):
    """The checks of ``solve_probabilities``, then one of the two references."""
    values = np.asarray(values, dtype=float)
    q = values.size
    budget = float(budget)
    if np.any(values < 0):
        raise ValueError("subset scores must be nonnegative")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if budget > q + BUDGET_TOL:
        raise ValueError(f"budget {budget} infeasible for {q} subsets")
    budget = min(budget, float(q))
    if min_prob < 0 or min_prob > 1:
        raise ValueError("min_prob must lie in [0, 1]")
    if min_prob == 0:
        return cap_aware_probabilities(values, budget)
    if q * min_prob > budget + BUDGET_TOL:
        raise ValueError(
            f"floor {min_prob} needs at least {q * min_prob} budget, got {budget}"
        )
    return bisection_probabilities(values, budget, min_prob)


def outcome(solve, *args):
    """(probabilities or error message, warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve(*args)
        except ValueError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


# Scores mix zeros, repeated values and a wide spread of magnitudes; budgets
# include whole numbers, a fraction of q and the saturation point itself.
@st.composite
def probability_problems(draw):
    pool = draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 1 / 3, 0.5, 1.0]),
                  st.floats(1e-12, 1e3)),
        min_size=1, max_size=6,
    ))
    scores = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)))
    q = scores.size
    floor = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0 / q)))
    saturation = (scores > 0).sum() + floor * (scores == 0).sum()
    budget = draw(st.one_of(
        st.integers(1, q).map(float),
        st.floats(0.0, 1.0).map(lambda f: f * q),
        st.sampled_from([0.5, 1.0 - 1e-15, 1.0 + 1e-15]).map(lambda f: f * saturation),
        st.floats(-1.0, q + 1.0),
    ))
    return scores, budget, floor


class TestSubsetBetweenness:
    def test_p3_mass_on_middle(self):
        part = CollisionFreePartition([1, 0, 2])
        b = betweenness_centrality(path_topology(3))
        assert np.allclose(subset_betweenness(b, part), [1.0, 0.0, 0.0])

    def test_ring_uniform_pairs(self):
        ring = ring_topology(6)
        part = greedy_partition(ring)
        b = betweenness_centrality(ring)
        assert np.allclose(subset_betweenness(b, part), [1 / 3, 1 / 3, 1 / 3])

    def test_single_subset_total_mass(self):
        part = CollisionFreePartition([0])
        assert np.allclose(subset_betweenness(np.array([1.0]), part), [1.0])

    def test_always_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = random_connected(rng, int(rng.integers(3, 15)), extra_edges=2)
            part = greedy_partition(t)
            scores = subset_betweenness(betweenness_centrality(t), part)
            assert abs(scores.sum() - 1.0) < 1e-12


class TestSolveProbabilities:
    def test_single_pass(self):
        probs = solve_probabilities([0.5, 0.3, 0.2], 1.5)
        assert np.allclose(probs, [0.75, 0.45, 0.30], atol=1e-12)
        assert abs(probs.sum() - 1.5) < 1e-9

    def test_cap_aware_resolve(self):
        probs = solve_probabilities([0.5, 0.3, 0.2], 2.4)
        assert np.allclose(probs, [1.0, 0.84, 0.56], atol=1e-12)
        assert abs(probs.sum() - 2.4) < 1e-9

    def test_budget_equals_subset_count(self):
        probs = solve_probabilities([1 / 3, 1 / 3, 1 / 3], 3.0)
        assert np.allclose(probs, 1.0)

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            solve_probabilities([0.5, 0.5], 2.5)

    def test_score_without_finite_reciprocal(self):
        with pytest.raises(ValueError, match="finite reciprocal"):
            solve_probabilities([1.0, 1e-310], 1.5)

    @pytest.mark.parametrize("args, message", [
        (([np.nan, 1.0, 1.0], 1.0), "subset scores must be finite"),
        (([1.0, 2.0], np.nan), "budget must be finite, got nan"),
        (([1.0, 2.0], 1.0, np.nan), r"min_prob must lie in \[0, 1\]"),
    ], ids=["score", "budget", "floor"])
    def test_non_finite_input_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            solve_probabilities(*args)

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError):
            solve_probabilities([0.5, 0.5], 0.0)

    def test_zero_scores_get_zero(self):
        probs = solve_probabilities([0.7, 0.3, 0.0], 1.0)
        assert probs[2] == 0.0
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_unattainable_budget_warns_and_caps(self):
        with pytest.warns(UserWarning):
            probs = solve_probabilities([1.0, 0.0, 0.0], 2.0)
        assert np.allclose(probs, [1.0, 0.0, 0.0])

    def test_min_capped_form_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = int(rng.integers(2, 9))
            scores = rng.uniform(0.05, 1.0, q)
            scores /= scores.sum()
            budget = float(rng.uniform(0.2, q))
            probs = solve_probabilities(scores, budget)
            assert abs(probs.sum() - budget) < 1e-9
            uncapped = probs < 1.0 - 1e-12
            if uncapped.any():
                gammas = probs[uncapped] / scores[uncapped]
                gamma = gammas[0]
                assert np.allclose(gammas, gamma, rtol=1e-9)
                assert np.allclose(probs, np.minimum(1.0, gamma * scores), atol=1e-9)

    def test_floor_keeps_every_subset_alive(self):
        probs = solve_probabilities([0.8, 0.2, 0.0, 0.0], 2.0, min_prob=0.25)
        assert probs.min() >= 0.25 - 1e-12
        assert abs(probs.sum() - 2.0) < 1e-9

    def test_floor_infeasible(self):
        with pytest.raises(ValueError):
            solve_probabilities([0.5, 0.5], 0.5, min_prob=0.4)

    def test_equal_scores_take_the_budget_share(self):
        # bit-identical to min(1, B / q) whenever the share meets the floor
        rng = np.random.default_rng(23)
        for _ in range(200):
            q = int(rng.integers(1, 40))
            budget = float(rng.uniform(0.0, q)) or 1.0
            floor = float(rng.uniform(0.0, budget / q)) if rng.random() < 0.5 else 0.0
            probs = solve_probabilities(np.ones(q), budget, floor)
            assert np.array_equal(probs, np.full(q, min(1.0, budget / q)))

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(probability_problems())
    def test_matches_the_reference_solvers(self, problem):
        scores, budget, floor = problem
        probs, warned = outcome(solve_probabilities, scores, budget, floor)
        expected, expected_warned = outcome(reference_probabilities, scores, budget, floor)
        assert warned == expected_warned
        if isinstance(expected, str):
            assert probs == expected
            return
        if floor == 0:
            assert np.array_equal(probs, expected)
        else:
            assert np.abs(probs - expected).max() <= 1e-13
        budget = min(budget, scores.size)
        assert warned or abs(probs.sum() - budget) <= BUDGET_TOL
        assert np.all((floor <= probs) & (probs <= 1.0))
        order = np.argsort(scores, kind="stable")
        assert np.all(np.diff(probs[order]) >= 0.0)


class TestUniformProbabilities:
    """The uniform policy is the one rule with equal subset scores."""

    def test_spread(self):
        assert np.array_equal(solve_probabilities(np.ones(4), 2.0), np.full(4, 0.5))

    def test_infeasible(self):
        with pytest.raises(ValueError, match="infeasible for 3 subsets"):
            solve_probabilities(np.ones(3), 4.0)


class TestNodeProbabilities:
    def test_inherit_subset_probability(self):
        part = CollisionFreePartition([0, 1, 2, 0, 1, 2])
        node_p = node_probabilities([0.1, 0.5, 0.9], part)
        assert np.allclose(node_p, [0.1, 0.5, 0.9, 0.1, 0.5, 0.9])


class TestSampleRound:
    def policy_for(self, part, probs, eps=0.5):
        return SchedulingPolicy(np.asarray(probs, float), float(np.sum(probs)), eps)

    def test_both_subsets_active(self):
        t = path_topology(2)
        part = greedy_partition(t)
        policy = self.policy_for(part, [1.0, 1.0], eps=0.25)
        act = sample_round(policy, part, t, np.random.default_rng(0))
        assert act.active_edges.tolist() == [True]
        expected_w = np.eye(2) - 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(act.mixing_matrix, expected_w)
        assert act.slots_used == 2

    def test_one_sided_broadcast_drops_link(self):
        t = path_topology(2)
        part = CollisionFreePartition([0, 1])
        policy = self.policy_for(part, [1.0, 0.0])
        act = sample_round(policy, part, t, np.random.default_rng(0))
        assert act.active_edges.tolist() == [False]
        assert np.array_equal(act.mixing_matrix, np.eye(2))
        assert act.slots_used == 1
        assert act.active_subsets[part.owner_array].tolist() == [True, False]

    def test_full_activation_recovers_base_graph(self):
        rng = np.random.default_rng(11)
        t = random_connected(rng, 8, extra_edges=3)
        part = greedy_partition(t)
        policy = self.policy_for(part, np.ones(part.q))
        for _ in range(5):
            act = sample_round(policy, part, t, rng)
            assert act.active_edges.all()
            assert np.array_equal(act.mixing_matrix, np.eye(t.n) - 0.5 * t.laplacian())
            assert act.slots_used == part.q

    def test_requires_epsilon(self):
        t = path_topology(2)
        part = greedy_partition(t)
        policy = SchedulingPolicy(np.ones(2), 2.0)
        with pytest.raises(ValueError):
            sample_round(policy, part, t, np.random.default_rng(0))

    def test_mixing_matrix_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            t = random_connected(rng, int(rng.integers(4, 12)), extra_edges=3)
            part = greedy_partition(t)
            probs = rng.uniform(0.1, 0.9, part.q)
            policy = self.policy_for(part, probs, eps=0.3)
            ones = np.ones(t.n)
            for _ in range(200):
                act = sample_round(policy, part, t, rng)
                w = act.mixing_matrix
                assert np.abs(w - w.T).max() == 0.0
                assert np.abs(w @ ones - ones).max() <= 1e-12
                assert np.abs(ones @ w - ones).max() <= 1e-12
                mask = act.active_subsets[part.owner_array]
                adj_t = adjacency(t) * np.outer(mask, mask)
                i, j = t.edge_array.T
                assert np.array_equal(act.active_edges, mask[i] & mask[j])
                assert np.array_equal(
                    w, np.eye(t.n) - 0.3 * (np.diag(adj_t.sum(axis=1)) - adj_t)
                )

    def test_coactivated_nodes_never_adjacent(self):
        rng = np.random.default_rng(17)
        t = random_connected(rng, 12, extra_edges=5)
        part = greedy_partition(t)
        policy = self.policy_for(part, np.full(part.q, 0.6))
        adj = adjacency(t)
        walks2 = adj @ adj
        for _ in range(100):
            act = sample_round(policy, part, t, rng)
            on = np.flatnonzero(act.active_subsets[part.owner_array])
            for a in range(len(on)):
                for b in range(a + 1, len(on)):
                    i, j = on[a], on[b]
                    if part.owner_array[i] == part.owner_array[j]:
                        assert adj[i, j] == 0 and walks2[i, j] == 0

    def test_consumes_q_uniforms_in_subset_order(self):
        t = ring_topology(6)
        part = greedy_partition(t)
        probs = np.array([0.2, 0.5, 0.8])
        policy = self.policy_for(part, probs)
        seed = 99
        act = sample_round(policy, part, t, np.random.default_rng(seed))
        draws = np.random.default_rng(seed).random(part.q)
        assert np.array_equal(act.active_subsets, draws < probs)

    def test_mean_slots_tracks_budget(self):
        rng = np.random.default_rng(19)
        t = random_connected(rng, 9, extra_edges=3)
        part = greedy_partition(t)
        probs = rng.uniform(0.2, 0.9, part.q)
        policy = self.policy_for(part, probs)
        budget = probs.sum()
        slots = np.array(
            [sample_round(policy, part, t, rng).slots_used for _ in range(20000)]
        )
        sem = slots.std(ddof=1) / np.sqrt(len(slots))
        assert abs(slots.mean() - budget) <= 3 * sem + 1e-12

    def test_round_holds_one_dense_matrix_at_its_peak(self):
        t = er_topology(400, 0.012, 1)
        part = greedy_partition(t)
        policy = self.policy_for(part, np.full(part.q, 0.5))
        rng = np.random.default_rng(0)
        sample_round(policy, part, t, rng)  # warm-up
        tracemalloc.start()
        try:
            sample_round(policy, part, t, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # W itself is n^2 floats; building it through temporaries took 2n^2
        assert peak < 1.5 * t.n**2 * 8


class TestSchedulingPolicy:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            SchedulingPolicy(np.array([0.5, 1.2]), 1.7)

    def test_non_finite_probabilities_rejected(self):
        with pytest.raises(ValueError, match=r"subset probabilities must lie in \[0, 1\]"):
            SchedulingPolicy(np.full(3, np.nan), 1.0)

    def test_achieved_budget(self):
        policy = SchedulingPolicy(np.array([0.5, 0.25]), 0.75)
        assert policy.achieved_budget == pytest.approx(0.75)

    def test_with_epsilon_is_functional(self):
        policy = SchedulingPolicy(np.array([0.5]), 0.5)
        updated = policy.with_epsilon(0.3)
        assert policy.epsilon is None
        assert updated.epsilon == 0.3

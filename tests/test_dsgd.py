import tracemalloc

import numpy as np
import pytest

from bass import (
    QuadraticObjective,
    SchedulingPolicy,
    Topology,
    TrainConfig,
    betweenness_centrality,
    consensus_error,
    consensus_step,
    dsgd,
    expected_laplacian_gram,
    global_train_loss,
    gradient_step,
    greedy_partition,
    node_probabilities,
    optimize_epsilon,
    path_topology,
    ring_topology,
    run_training,
    sample_round,
    solve_probabilities,
    subset_betweenness,
)

from .test_properties import LogCoshObjective


def bass_policy(t, part, budget):
    scores = subset_betweenness(betweenness_centrality(t), part)
    probs = solve_probabilities(scores, budget)
    policy = SchedulingPolicy(probs, budget)
    node_p = node_probabilities(policy.subset_probs, part)
    moments = expected_laplacian_gram(t, part, node_p)
    search = optimize_epsilon(moments)
    return policy.with_epsilon(search.epsilon), search


class FailingObjective(QuadraticObjective):
    def gradients(self, state, batch_size, rng):
        return np.full_like(state, np.nan)


class TestGradientStep:
    def test_quadratic_analytic_update(self):
        obj = QuadraticObjective([[0.0], [4.0]])
        state = np.array([[1.0], [1.0]])
        rng = np.random.default_rng(0)
        out = gradient_step(state, obj, 0.5, 1, rng)
        assert np.allclose(out, [[0.5], [2.5]])

    def test_zero_lr_is_identity(self):
        obj = QuadraticObjective([[0.0], [4.0]])
        state = np.array([[1.0], [2.0]])
        out = gradient_step(state, obj, 0.0, 1, np.random.default_rng(0))
        assert np.array_equal(out, state)

    def test_stationary_point_unchanged(self):
        centers = np.array([[2.0], [-1.0]])
        obj = QuadraticObjective(centers)
        out = gradient_step(centers.copy(), obj, 0.3, 1, np.random.default_rng(0))
        assert np.array_equal(out, centers)

    def test_non_finite_gradient_aborts(self):
        obj = FailingObjective([[0.0], [1.0]])
        with pytest.raises(RuntimeError, match="non-finite"):
            gradient_step(np.zeros((2, 1)), obj, 0.1, 1, np.random.default_rng(0))

    def test_non_finite_gradient_names_the_first_bad_node(self):
        class PartlyFailing(QuadraticObjective):
            def gradients(self, state, batch_size, rng):
                grads = super().gradients(state, batch_size, rng)
                grads[[2, 4], 0] = [np.inf, np.nan]
                return grads

        obj = PartlyFailing(np.zeros((5, 2)))
        with pytest.raises(RuntimeError, match="non-finite gradient at node 2;"):
            gradient_step(np.ones((5, 2)), obj, 0.1, 1, np.random.default_rng(0))


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [
        ("lr", float("nan")), ("lr", float("inf")),
        ("lr_decay", -1.0), ("lr_decay", float("nan")),
    ])
    def test_bad_step_size_rejected_at_construction(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            TrainConfig(**{"rounds": 5, "lr": 0.1, key: value})

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            TrainConfig(rounds=5, lr=0.1, seed=-1)
        assert TrainConfig(rounds=5, lr=0.1, seed=np.int64(0)).seed == 0


class TestGlobalTrainLoss:
    def state(self):
        return np.random.default_rng(13).normal(size=(4, 3))

    def test_reads_the_objectives_train_loss(self):
        class Shifted(QuadraticObjective):
            def metrics(self, means):
                losses, tests = super().metrics(means)
                return [loss + 1.0 for loss in losses], tests

        obj = Shifted(np.random.default_rng(14).normal(size=(4, 3)))
        state = self.state()
        closed = QuadraticObjective.metrics(obj, state.mean(axis=0)[None])[0][0]
        assert global_train_loss(obj, state) == closed + 1.0
        assert global_train_loss(QuadraticObjective(obj.centers), state) == closed

    def test_without_an_override_the_mean_of_the_local_losses(self):
        obj = LogCoshObjective(np.random.default_rng(15).normal(size=(4, 3)))
        state = self.state()
        want = float(np.mean(obj.local_losses(state.mean(axis=0))))
        assert global_train_loss(obj, state) == want


class TestConsensusStep:
    def test_exact_averaging(self):
        w = np.full((2, 2), 0.5)
        out = consensus_step(np.array([[0.0], [2.0]]), w)
        assert np.array_equal(out, [[1.0], [1.0]])

    def test_identity_is_noop(self):
        state = np.array([[1.0], [5.0]])
        assert np.array_equal(consensus_step(state, np.eye(2)), state)

    def test_single_active_link_averages_block(self):
        # only link (0, 1) active on a path of three nodes
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        lap = np.diag(adj.sum(axis=1)) - adj
        w = np.eye(3) - 0.5 * lap
        out = consensus_step(np.array([[0.0], [2.0], [5.0]]), w)
        assert np.array_equal(out, [[1.0], [1.0], [5.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            consensus_step(np.zeros((3, 1)), np.eye(2))

    def test_average_preserved_by_sampled_rounds(self):
        t = ring_topology(6)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.5)
        rng = np.random.default_rng(3)
        state = rng.normal(size=(6, 4))
        mean = state.mean(axis=0)
        for _ in range(50):
            act = sample_round(policy, part, t, rng)
            state = consensus_step(state, act.mixing_matrix)
            assert np.abs(state.mean(axis=0) - mean).max() < 1e-12


class TestRunTraining:
    def test_fixed_point_stays_fixed(self):
        t = path_topology(3)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.0)
        obj = QuadraticObjective(np.zeros((3, 2)))
        cfg = TrainConfig(rounds=20, lr=0.2, seed=0)
        log = run_training(t, policy, part, obj, cfg)
        assert np.allclose(log.final_state, 0.0)
        assert all(r.consensus_error < 1e-12 for r in log.records)

    def test_full_communication_quadratic_converges(self):
        t = path_topology(3)
        part = greedy_partition(t)
        policy = SchedulingPolicy(np.ones(part.q), float(part.q))
        ms = expected_laplacian_gram(t, part, np.ones(3))
        policy = policy.with_epsilon(optimize_epsilon(ms).epsilon)
        obj = QuadraticObjective(np.array([[0.0], [3.0], [6.0]]))
        # lr 1.0 puts the mean model on the optimum after one full-batch
        # step; the decay then shrinks the dispersion floor below 1e-2
        cfg = TrainConfig(rounds=500, lr=1.0, lr_decay=2.0, seed=1)
        log = run_training(t, policy, part, obj, cfg)
        assert np.abs(log.final_state - 3.0).max() < 1e-2

    def test_zero_budget_decouples_nodes(self):
        t = path_topology(3)
        part = greedy_partition(t)
        policy = SchedulingPolicy(np.zeros(part.q), 1e-12, epsilon=0.5)
        centers = np.array([[0.0], [3.0], [6.0]])
        obj = QuadraticObjective(centers)
        cfg = TrainConfig(rounds=400, lr=0.3, lr_decay=0.0, seed=2)
        log = run_training(t, policy, part, obj, cfg)
        assert np.abs(log.final_state - centers).max() < 1e-10
        spread = np.linalg.norm(centers - centers.mean(axis=0), axis=1).mean()
        assert log.records[-1].consensus_error == pytest.approx(spread, rel=1e-6)

    def test_metrics_log_shape(self):
        t = ring_topology(6)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 2.0)
        obj = QuadraticObjective(np.zeros((6, 1)))
        log = run_training(t, policy, part, obj, TrainConfig(rounds=7, lr=0.1, seed=0))
        assert [r.round for r in log.records] == list(range(1, 8))
        slots = [r.cum_slots for r in log.records]
        assert all(b >= a for a, b in zip(slots, slots[1:]))
        assert log.records[-1].test_metric is not None

    def test_deterministic_given_seed(self):
        t = ring_topology(6)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.5)
        obj = QuadraticObjective(np.arange(6, dtype=float)[:, None])
        cfg = TrainConfig(rounds=30, lr=0.2, lr_decay=0.1, seed=42)
        a = run_training(t, policy, part, obj, cfg)
        b = run_training(t, policy, part, obj, cfg)
        assert a.to_csv() == b.to_csv()
        assert np.array_equal(a.final_state, b.final_state)

    def test_node_count_mismatch_rejected(self):
        t = ring_topology(6)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.5)
        obj = QuadraticObjective(np.zeros((4, 1)))
        with pytest.raises(ValueError):
            run_training(t, policy, part, obj, TrainConfig(rounds=1, lr=0.1))

    def test_single_node_network(self):
        # degenerate but legal: one node, no edges, one subset
        t = Topology(1)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.0)
        obj = QuadraticObjective(np.array([[4.0]]))
        log = run_training(t, policy, part, obj, TrainConfig(rounds=100, lr=0.3, seed=0))
        assert abs(log.final_state[0, 0] - 4.0) < 1e-9
        assert log.records[-1].consensus_error == 0.0

    def test_rounds_hold_no_dense_mixing_matrix(self):
        # a 3000 x 3000 W alone is 69 MB; the rounds mix over the kept edges
        n = 3000
        t = Topology(n, [(i, (i + 1) % n) for i in range(n)])
        part = greedy_partition(t)
        policy = SchedulingPolicy(np.full(part.q, 0.5), 0.5 * part.q, epsilon=0.3)
        obj = QuadraticObjective(np.random.default_rng(0).normal(size=(n, 2)))
        tracemalloc.start()
        try:
            run_training(t, policy, part, obj, TrainConfig(rounds=3, lr=0.1, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("dim", range(1, 12))
@pytest.mark.parametrize("n", [1, 5, 400])
def test_block_consensus_errors_are_the_per_call_errors(n, dim):
    """Below 8 coordinates the block sums them column by column, from 8 up
    with np.add.reduce; either way each error is consensus_error's, to the
    bit, with magnitudes spread so that the summation order shows.
    CI runs this on both numpy versions of its matrix."""
    rng = np.random.default_rng(dim)
    states = rng.normal(size=(6, n, dim)) * 10.0 ** rng.integers(-4, 5, size=(6, n, dim))
    obj = QuadraticObjective(np.zeros((n, dim)))
    errors = dsgd._block_metrics(obj, states.copy())[2]
    assert errors == [consensus_error(state) for state in states]


class TestConsensusContraction:
    def test_zero_gradient_contraction_tracks_s_star(self):
        # sharpest check: deviation along the top eigenvector of E[W^2] - J
        t = ring_topology(6)
        part = greedy_partition(t)
        policy, search = bass_policy(t, part, 1.5)
        assert search.value < 1.0
        node_p = node_probabilities(policy.subset_probs, part)
        ms = expected_laplacian_gram(t, part, node_p)
        contraction = (
            np.eye(6)
            - 2 * search.epsilon * ms.e_laplacian
            + search.epsilon**2 * ms.e_gram
            - np.full((6, 6), 1 / 6)
        )
        eigval, eigvec = np.linalg.eigh(contraction)
        deviation = eigvec[:, -1][:, None]  # top eigendirection, mean-free
        assert abs(deviation.sum()) < 1e-9
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(1000):
            act = sample_round(policy, part, t, rng)
            mixed = act.mixing_matrix @ deviation
            mixed -= mixed.mean(axis=0, keepdims=True)
            ratios.append(float((mixed**2).sum() / (deviation**2).sum()))
        ratios = np.array(ratios)
        sem = ratios.std(ddof=1) / np.sqrt(len(ratios))
        assert ratios.mean() <= search.value + 3 * sem
        # and the bound is tight along this direction: mean is close to s*
        assert ratios.mean() >= search.value - 5 * sem


class TestCsv:
    def test_header_and_rows(self):
        t = path_topology(3)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.0)
        obj = QuadraticObjective(np.zeros((3, 1)))
        log = run_training(t, policy, part, obj, TrainConfig(rounds=2, lr=0.1, seed=0))
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == "round,cum_slots,active_subsets,train_loss,test_metric,consensus_error"
        assert len(lines) == 3

    def test_zero_rounds_header_only(self):
        t = path_topology(3)
        part = greedy_partition(t)
        policy, _ = bass_policy(t, part, 1.0)
        obj = QuadraticObjective(np.zeros((3, 1)))
        log = run_training(t, policy, part, obj, TrainConfig(rounds=0, lr=0.1, seed=0))
        assert log.to_csv().strip().split("\n") == [
            "round,cum_slots,active_subsets,train_loss,test_metric,consensus_error"
        ]

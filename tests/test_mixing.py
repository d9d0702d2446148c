import numpy as np
import pytest

from bass import (
    SpectralObjective,
    Topology,
    expected_laplacian_gram,
    full_comm_policy,
    greedy_partition,
    node_probabilities,
    optimize_epsilon,
    sample_round,
)

from .test_graph import p3, random_connected


def full_comm_objective(t):
    part = greedy_partition(t)
    ms = expected_laplacian_gram(t, part, np.ones(t.n))
    return SpectralObjective.from_moments(ms)


def random_objective(rng, n_lo=4, n_hi=12):
    t = random_connected(rng, int(rng.integers(n_lo, n_hi)), extra_edges=3)
    part = greedy_partition(t)
    node_p = node_probabilities(rng.uniform(0.15, 0.95, part.q), part)
    ms = expected_laplacian_gram(t, part, node_p)
    return SpectralObjective.from_moments(ms), t


def grid_minimum(obj, hi, points=10_001):
    values = [obj.value(e) for e in np.linspace(0.0, hi, points)]
    return min(values)


class TestObjectiveValue:
    def test_eps_zero_is_one(self):
        obj = full_comm_objective(p3())
        assert obj.value(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_p3_full_comm_at_half(self):
        # Laplacian eigenvalues {0, 1, 3}: max((1-.5)^2, (1-1.5)^2) = 0.25
        obj = full_comm_objective(p3())
        assert obj.value(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_k2_full_comm_at_one(self):
        obj = full_comm_objective(Topology(2, [(0, 1)]))
        assert obj.value(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eps_rejected(self):
        obj = full_comm_objective(p3())
        with pytest.raises(ValueError):
            obj.value(-0.1)

    def test_asymmetric_input_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            SpectralObjective(bad, np.eye(2))

    def test_value_is_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            obj, _ = random_objective(rng)
            for eps in np.linspace(0.0, 1.0, 7):
                assert obj.value(eps) >= -1e-10

    def test_contraction_matrix_is_psd(self):
        # E[W^2] - J averages (W - J)^2 over realizations, so its smallest
        # eigenvalue must be nonnegative at any eps
        rng = np.random.default_rng(31)
        for _ in range(6):
            obj, _ = random_objective(rng)
            for eps in (0.0, 0.2, 0.7):
                mat = (
                    np.eye(obj.n)
                    - 2 * eps * obj.e_laplacian
                    + eps * eps * obj.e_gram
                    - obj.averaging_matrix
                )
                assert np.linalg.eigvalsh(mat)[0] >= -1e-10

    def test_convexity_witness(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            obj, _ = random_objective(rng)
            e1, e2 = sorted(rng.uniform(0.0, 1.5, 2))
            mid = obj.value(0.5 * (e1 + e2))
            assert mid <= 0.5 * (obj.value(e1) + obj.value(e2)) + 1e-9


class TestOptimizeEpsilon:
    def test_p3_full_comm(self):
        res = optimize_epsilon(full_comm_objective(p3()), tol=1e-6)
        assert res.epsilon == pytest.approx(0.5, abs=1e-4)
        assert res.value == pytest.approx(0.25, abs=1e-6)
        assert not res.degenerate

    def test_k2_exact_averaging(self):
        res = optimize_epsilon(full_comm_objective(Topology(2, [(0, 1)])))
        assert res.epsilon == pytest.approx(0.5, abs=1e-4)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_degenerate_no_communication(self):
        obj = SpectralObjective(np.zeros((3, 3)), np.zeros((3, 3)))
        res = optimize_epsilon(obj)
        assert res.degenerate
        assert res.epsilon == 0.0
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_case_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            t = random_connected(rng, int(rng.integers(4, 12)), extra_edges=3)
            res = optimize_epsilon(full_comm_objective(t), tol=1e-6)
            eigs = np.linalg.eigvalsh(t.laplacian())
            expected = 2.0 / (eigs[1] + eigs[-1])
            assert res.epsilon == pytest.approx(expected, abs=1e-4)

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            obj, _ = random_objective(rng)
            res = optimize_epsilon(obj, tol=1e-6)
            assert res.value <= grid_minimum(obj, res.bracket_hi, points=2001) + 1e-5

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            optimize_epsilon(full_comm_objective(p3()), tol=0.0)

    def test_probability_monotonicity_flag(self):
        # raising every activation probability should not hurt the optimum;
        # not guaranteed in general, so this only reports, never fails
        rng = np.random.default_rng(13)
        t = random_connected(rng, 8, extra_edges=3)
        part = greedy_partition(t)
        values = []
        for scale in (0.4, 0.7, 1.0):
            node_p = node_probabilities(np.full(part.q, scale), part)
            ms = expected_laplacian_gram(t, part, node_p)
            values.append(optimize_epsilon(SpectralObjective.from_moments(ms)).value)
        if not all(a >= b - 1e-9 for a, b in zip(values, values[1:])):
            print(f"note: contraction factor not monotone in activation: {values}")


def fixed_weight_matrix(t, eps):
    """A full-communication round: the fixed equal-weight matrix I - eps * L."""
    part = greedy_partition(t)
    policy = full_comm_policy(part, epsilon=eps)
    return sample_round(policy, part, t, np.random.default_rng(0)).mixing_matrix


class TestFixedWeightMatrix:
    def test_k2_half_is_exact_averaging(self):
        w = fixed_weight_matrix(Topology(2, [(0, 1)]), 0.5)
        assert np.allclose(w, np.full((2, 2), 0.5))

    def test_p3_half(self):
        w = fixed_weight_matrix(p3(), 0.5)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.allclose(w, expected)

    def test_eps_zero_is_identity(self):
        assert np.array_equal(fixed_weight_matrix(p3(), 0.0), np.eye(3))

    def test_row_sums_and_support(self):
        rng = np.random.default_rng(17)
        t = random_connected(rng, 9, extra_edges=3)
        w = fixed_weight_matrix(t, 0.13)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        off_support = (t.adjacency == 0) & ~np.eye(t.n, dtype=bool)
        assert np.all(w[off_support] == 0.0)

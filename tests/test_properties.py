"""Property tests over random connected Erdos-Renyi graphs with n <= 12."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import dsgd, moments, objectives
from bass import (
    CollisionFreePartition,
    LocalObjective,
    LogisticObjective,
    MatchaPolicy,
    QuadraticObjective,
    RoundActivation,
    RoundRecord,
    SchedulingPolicy,
    SpectralObjective,
    TrainConfig,
    Units,
    betweenness_centrality,
    closed_form_moments,
    consensus_error,
    consensus_step,
    enumerated_moments,
    er_topology,
    full_comm_policy,
    global_train_loss,
    gradient_step,
    greedy_partition,
    make_blobs,
    matcha_policy,
    matcha_spectral_moments,
    matching_decomposition,
    monte_carlo_moments,
    optimize_epsilon,
    run_training,
    sample_round,
    shard_data,
    solve_probabilities,
    subset_betweenness,
)
from bass.scheduling import RoundSampler

from .graph_helpers import adjacency, degrees, validate_partition
from .test_baselines import set_greedy_coloring
from .test_partition import set_greedy_partition

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)

graphs = st.builds(
    er_topology,
    n=st.integers(2, 10),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
)


@PROPERTY
@given(graphs)
def test_greedy_partition_is_valid(t):
    partition = greedy_partition(t)
    assert validate_partition(t, partition)
    assert [list(s) for s in partition.subsets] == set_greedy_partition(t)


@PROPERTY
@given(graphs)
def test_matching_decomposition_is_the_set_based_coloring(t):
    assert matching_decomposition(t).edge_matching.tolist() == set_greedy_coloring(t)


@PROPERTY
@given(graphs, st.floats(0.05, 1.0), st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
def test_probabilities_bounded_and_on_budget(t, frac, floor_share):
    part = greedy_partition(t)
    scores = subset_betweenness(betweenness_centrality(t), part)
    budget = frac * part.q
    # floor_share of the per-subset budget keeps the floor feasible
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        probs = solve_probabilities(scores, budget, min_prob=floor_share * frac)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    if not caught:
        assert probs.sum() == pytest.approx(budget, abs=1e-9)


@st.composite
def arbitrary_partitions(draw, n):
    """Any partition of 0..n-1, including ones that put neighbours together."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return CollisionFreePartition(np.unique(labels, return_inverse=True)[1])


# --- the three moment routes over a policy's units ---------------------------


@st.composite
def unit_policies(draw, maps=("subsets", "matchings")):
    """(topology, partition, policy) on a random connected graph with n <= 9,
    the policy's units being subsets of any partition or the matchings, with
    probabilities that include 0 and 1."""
    t = draw(st.builds(er_topology, n=st.integers(2, 9), p=st.floats(0.3, 1.0),
                       seed=st.integers(0, 2**16)))
    part = draw(st.one_of(st.just(greedy_partition(t)), arbitrary_partitions(t.n)))
    kind = draw(st.sampled_from(maps))
    count = part.q if kind == "subsets" else matching_decomposition(t).r
    probs = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                   min_size=count, max_size=count)))
    if kind == "subsets":
        return t, part, SchedulingPolicy(probs, probs.sum())
    return t, part, MatchaPolicy(t, matching_decomposition(t).edge_matching, probs, 2 * probs.sum())


@PROPERTY
@given(unit_policies())
def test_closed_form_moments_match_enumeration(case):
    t, part, policy = case
    units = policy.units(part, t)
    closed = closed_form_moments(t, units)
    exact = enumerated_moments(t, units)
    for name in ("e_laplacian", "e_gram"):
        assert np.abs(getattr(closed, name) - getattr(exact, name)).max() <= 1e-12, name


@PROPERTY
@given(unit_policies(), st.floats(0.0, 2.0))
def test_compact_moments_search_as_the_dense_moments(case, eps):
    # the same bits in the buffer at any eps, so the same search
    t, part, policy = case
    compact = closed_form_moments(t, policy.units(part, t))
    dense = SpectralObjective(compact.e_laplacian, compact.e_gram)
    for at in (0.0, eps):
        got, want = compact.contraction_matrix(at), dense.contraction_matrix(at)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # policies with probability-0 units do not contract
        assert optimize_epsilon(compact) == optimize_epsilon(dense)


@PROPERTY
@given(unit_policies(maps=("matchings",)), st.integers(1, 2500), st.integers(0, 2**16))
def test_monte_carlo_oracle_on_matchings_is_matcha_spectral_moments(case, samples, seed):
    t, part, policy = case
    oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    oracle = monte_carlo_moments(t, policy.units(part, t), samples, oracle_rng)
    estimate = matcha_spectral_moments(policy, samples, rng)
    for got, expected in zip((oracle.e_laplacian, oracle.e_gram), estimate):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert oracle_rng.bit_generator.state == rng.bit_generator.state


def summed_rounds(t, sample, samples, rng):
    """The sums of L~ and L~^2 over ``samples`` rounds of the sampler
    ``sample``."""
    s_lap, s_gram = np.zeros((t.n, t.n)), np.zeros((t.n, t.n))
    for _ in range(samples):
        lap = t.laplacian(sample(rng).active_edges)
        s_lap += lap
        s_gram += lap @ lap
    return s_lap, s_gram


@PROPERTY
@given(unit_policies(), st.integers(1, 300), st.integers(0, 2**16))
def test_monte_carlo_oracle_counts_the_round_samplers_rounds(case, samples, seed):
    """The oracle draws the production sampler's uniform stream, in blocks
    (made small here so that a run spans several), and its moments are the
    sums of L~ and L~^2 over the sampler's rounds, divided by the sample
    count; the generator ends in the same state."""
    t, part, policy = case
    rng = np.random.default_rng(seed)
    sample = policy.with_epsilon(0.0).round_sampler(part, t)
    s_lap, s_gram = summed_rounds(t, sample, samples, rng)
    oracle_rng = np.random.default_rng(seed)
    with mock.patch.object(moments, "_MC_BLOCK_ELEMENTS", 1000):
        oracle = monte_carlo_moments(t, policy.units(part, t), samples, oracle_rng)
    # Sums of integer matrices, hence exact.
    assert np.array_equal(oracle.e_laplacian, s_lap / samples)
    assert np.array_equal(oracle.e_gram, s_gram / samples)
    assert oracle_rng.bit_generator.state == rng.bit_generator.state


@st.composite
def shared_class_units(draw):
    """(topology, units) on a random connected graph with 4 <= n <= 9, each
    edge needing two of 2..5 units drawn at random, so that edges share
    classes (unordered unit pairs). Edge 0 needs one unit twice, edge 1 two
    distinct units, and edge 2 edge 1's units in the other order."""
    t = draw(st.builds(er_topology, n=st.integers(4, 9), p=st.floats(0.5, 1.0),
                       seed=st.integers(0, 2**16)))
    count, m = draw(st.integers(2, 5)), len(t.edge_array)
    u0, u1 = (draw(st.lists(st.integers(0, count - 1), min_size=m, max_size=m)) for _ in range(2))
    u1[0] = u0[0]
    if u1[1] == u0[1]:
        u1[1] = (u0[1] + 1) % count
    u0[2], u1[2] = u1[1], u0[1]
    probs = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                   min_size=count, max_size=count)))
    return t, Units(probs, np.array([u0, u1], dtype=np.intp), 1)


@PROPERTY
@given(shared_class_units(), st.sampled_from([None, -1, 0, 1]), st.integers(0, 2**16))
def test_monte_carlo_oracle_counts_shared_edge_classes(case, offset, seed):
    """Edges of one class survive together: over a map mixing u0 = u1 with
    u0 != u1, at 1 sample and at a block's rounds - 1, + 0 and + 1, the
    oracle's moments are the round sampler's sums and the generator ends in
    the same state."""
    t, units = case
    classes = {tuple(sorted(pair)) for pair in units.edge_units.T.tolist()}
    block = 1000 // max(units.probs.size, len(classes))
    samples = 1 if offset is None else block + offset
    rng = np.random.default_rng(seed)
    sample = RoundSampler(t, units, 0.0)
    s_lap, s_gram = summed_rounds(t, sample, samples, rng)
    oracle_rng = np.random.default_rng(seed)
    with mock.patch.object(moments, "_MC_BLOCK_ELEMENTS", 1000):
        oracle = monte_carlo_moments(t, units, samples, oracle_rng)
    assert np.array_equal(oracle.e_laplacian, s_lap / samples)
    assert np.array_equal(oracle.e_gram, s_gram / samples)
    assert oracle_rng.bit_generator.state == rng.bit_generator.state


@PROPERTY
@given(graphs, st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_sampled_rounds_keep_the_mixing_invariants(t, eps_share, seed):
    part = greedy_partition(t)
    rng = np.random.default_rng(seed)
    epsilon = eps_share / max(1.0, degrees(t).max())
    probs = rng.uniform(0.0, 1.0, part.q)
    policy = SchedulingPolicy(probs, probs.sum(), epsilon)
    adj = adjacency(t)
    i, j = t.edge_array.T
    ones = np.ones(t.n)
    for _ in range(5):
        round_ = sample_round(policy, part, t, rng)
        w = round_.mixing_matrix
        # an edge survives iff both endpoint subsets broadcast, and W is
        # I - eps * L~ of the surviving graph A~ = A * m m^T
        mask = round_.active_subsets[part.owner_array]
        assert np.array_equal(round_.active_edges, mask[i] & mask[j])
        adj_t = adj * np.outer(mask, mask)
        assert np.array_equal(w, np.eye(t.n) - epsilon * (np.diag(adj_t.sum(axis=1)) - adj_t))
        assert np.array_equal(w, w.T)
        assert np.abs(w @ ones - 1.0).max() <= 1e-12
        assert np.abs(ones @ w - 1.0).max() <= 1e-12
        for k in np.flatnonzero(round_.active_subsets):
            # nodes broadcasting in one slot are neither adjacent nor share a
            # neighbour
            members = list(part.subsets[k])
            assert not adj[np.ix_(members, members)].any()
            common = adj[members] @ adj[:, members]
            np.fill_diagonal(common, 0.0)
            assert not common.any()


def assert_dense_mixing(t, epsilon, round_):
    """W equals I - eps * L~ of the surviving edges to the bit, signs of zero
    included."""
    expected = np.eye(t.n) - epsilon * t.laplacian(round_.active_edges)
    w = round_.mixing_matrix
    assert np.array_equal(w, expected)
    assert np.array_equal(np.signbit(w), np.signbit(expected))


@PROPERTY
@given(
    st.builds(er_topology, n=st.integers(2, 12), p=st.floats(0.3, 1.0), seed=st.integers(0, 2**16)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.integers(0, 2**16),
    st.data(),
)
def test_mixing_matrix_is_written_bit_identically_from_the_surviving_edges(t, epsilon, seed, data):
    rng = np.random.default_rng(seed)
    mask = rng.random(len(t.edge_array)) < rng.random()
    part = data.draw(st.one_of(st.just(greedy_partition(t)), arbitrary_partitions(t.n)))
    probs = rng.uniform(0.0, 1.0, part.q)
    policy = SchedulingPolicy(probs, probs.sum(), epsilon)
    w = policy.round_sampler(part, t).mixing(mask)
    assert_dense_mixing(t, epsilon, RoundActivation(None, mask, w, 0))
    md = matching_decomposition(t)
    match_probs = rng.uniform(0.0, 1.0, md.r)
    matcha = MatchaPolicy(t, md.edge_matching, match_probs, 2 * match_probs.sum(), epsilon)
    for _ in range(5):
        round_ = sample_round(policy, part, t, rng)
        # the 2-D gather the two 1-D gathers replace
        owners = part.owner_array[t.edge_array]
        assert np.array_equal(round_.active_edges, round_.active_subsets[owners].all(axis=1))
        assert_dense_mixing(t, epsilon, round_)
        round_ = matcha.sample_round(rng)
        assert np.array_equal(round_.active_edges, round_.active_subsets[matcha.edge_matching])
        assert_dense_mixing(t, epsilon, round_)


@PROPERTY
@given(
    graphs,
    st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(0.0, 1.0, exclude_min=True)),
    st.integers(1, 10),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_mix_is_consensus_step_with_the_dense_mixing_matrix_bit_for_bit(t, epsilon, dim, blown, seed):
    """``mix(kept, state)`` has the bytes of ``consensus_step(state,
    mixing(kept))``, signs of zero included, for subset and matching units
    and all, no, random and sampled masks. The states hold zeros of both
    signs and, if ``blown``, one infinite coordinate: at epsilon +-0.0
    neither side has an off-diagonal term, so 0 * inf never arises."""
    rng = np.random.default_rng(seed)
    part = greedy_partition(t)
    md = matching_decomposition(t)
    probs, match_probs = rng.uniform(0.0, 1.0, part.q), rng.uniform(0.0, 1.0, md.r)
    m = len(t.edge_array)
    for policy in (
        SchedulingPolicy(probs, probs.sum(), epsilon),
        MatchaPolicy(t, md.edge_matching, match_probs, 2 * match_probs.sum(), epsilon),
    ):
        sampler = policy.round_sampler(part, t)
        state = rng.normal(0.0, 1.0, (t.n, dim))
        state[rng.random(state.shape) < 0.2] = 0.0
        state[rng.random(state.shape) < 0.2] = -0.0
        if blown:
            state[rng.integers(t.n), rng.integers(dim)] = np.inf
        masks = [np.ones(m, bool), np.zeros(m, bool), rng.random(m) < rng.random()]
        for kept in masks + [sampler.draw(rng)[1] for _ in range(3)]:
            with np.errstate(invalid="ignore"):
                mixed = sampler.mix(kept, state)
                expected = consensus_step(state, sampler.mixing(kept))
            assert mixed.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(mixed), np.signbit(expected))
            state = mixed


@PROPERTY
@given(
    st.integers(1, 12),
    st.integers(1, 6),
    st.floats(0.0, 1.0),
    st.integers(0, 2**16),
)
def test_consensus_step_is_within_rounding_of_the_dense_product(n, dim, density, seed):
    """Each entry of ``consensus_step(state, w)`` and of ``w @ state`` sums
    at most n products, so both lie within gamma_n = n u / (1 - n u) of the
    exact sum, relative to |w| @ |state| (u = eps / 2, in any order and with
    or without FMA): they differ by at most (n + 1) eps of it. Zero weights,
    on the diagonal too, are skipped off the diagonal: an infinite
    coordinate x_jc reaches column c of node j and of the rows that weigh
    j, and no other entry moves."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    state = rng.normal(0.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    out = consensus_step(state, w)
    bound = (n + 1) * np.finfo(float).eps * (np.abs(w) @ np.abs(state))
    assert (np.abs(out - w @ state) <= bound).all()
    j, c = rng.integers(n), rng.integers(dim)
    blown = state.copy()
    blown[j, c] = np.inf
    reach = w[:, j] != 0.0
    reach[j] = True  # w_jj * inf is inf, or NaN at w_jj = 0
    with np.errstate(invalid="ignore"):
        moved = consensus_step(blown, w)
    assert not np.isfinite(moved[reach, c]).any()
    moved[reach, c] = out[reach, c]
    assert moved.tobytes() == out.tobytes()


# --- block metrics against the per-call metrics ------------------------------


def same(a, b):
    """== for metrics, with NaN equal to NaN and None to None."""
    return a == b or (a is not None and b is not None and math.isnan(a) and math.isnan(b))


class LogCoshObjective(LocalObjective):
    """An objective from outside the package, with no ``metrics`` of its
    own: its block metrics are the base-class default, the mean of its local
    losses and no test metric. Its gradients draw from the generator."""

    def __init__(self, centers):
        self.centers = centers
        self.num_nodes, self.dim = centers.shape

    def gradients(self, state, batch_size, rng):
        return np.tanh(state - self.centers) + rng.normal(0.0, 0.1, state.shape) / batch_size

    def local_losses(self, x):
        return np.log(np.cosh(x - self.centers)).sum(axis=1)


class HeldOutObjective(LogCoshObjective):
    """An objective from outside the package whose ``metrics`` adds a
    held-out metric: the largest coordinate magnitude of each network
    average."""

    def metrics(self, means):
        return super().metrics(means)[0], np.abs(means).max(axis=1).tolist()


OUTSIDE = {"log-cosh": LogCoshObjective, "held-out": HeldOutObjective}
OBJECTIVES = ["quadratic", "equal", "unequal", "no-test", *OUTSIDE]


@PROPERTY
@given(
    st.sampled_from(OBJECTIVES),
    st.integers(0, 2**16),
    st.data(),
)
def test_block_metrics_are_the_per_call_metrics(objective, seed, data):
    """Each round's train loss, test metric and consensus error from one
    block equal, with ==, global_train_loss, obj.test_metric and
    consensus_error of that round; the quadratic dimension spans both sides
    of the 8-coordinate rule of the consensus errors, and the logistic
    softmax is taken over chunks of 1 to 4 rounds. A NaN model row makes its
    round's softmax all NaN, and its accuracy is that of predicting class 0;
    the quadratic and outside objectives also take a NaN or ±inf in one
    coordinate or in the whole row of a node."""
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(2 if objective == "unequal" else 1, 8))
    if objective == "quadratic":
        obj = QuadraticObjective(rng.normal(0.0, 1.0, (n, data.draw(st.integers(1, 10)))))
    elif objective in OUTSIDE:
        obj = OUTSIDE[objective](rng.normal(0.0, 1.0, (n, data.draw(st.integers(1, 10)))))
    else:
        classes, per = data.draw(st.integers(2, 7)), data.draw(st.integers(1, 4))
        extra = data.draw(st.integers(1, n - 1)) if objective == "unequal" else 0
        train = 2 * n * per + extra
        features = data.draw(st.integers(1, 4))
        x, y = make_blobs(train + data.draw(st.integers(1, 30)), classes, features, rng)
        shards = shard_data(train, y[:train], n, rng)
        assert (len({s.size for s in shards}) == 1) == (objective != "unequal")
        test_x, test_y = (None, None) if objective == "no-test" else (x[train:], y[train:])
        obj = LogisticObjective(x[:train], y[:train], shards, classes, test_x, test_y)
    rounds = data.draw(st.integers(1, 9))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
    states = rng.normal(0.0, scale, (rounds, n, obj.dim))
    nan_round = data.draw(st.one_of(st.none(), st.integers(0, rounds - 1)))
    if nan_round is not None:
        row = states[nan_round, data.draw(st.integers(0, n - 1))]
        if objective == "quadratic" or objective in OUTSIDE:
            coords = data.draw(st.one_of(st.just(slice(None)), st.integers(0, obj.dim - 1)))
            row[coords] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:
            row[:] = np.nan
    chunk = objectives._EVAL_CHUNK
    if isinstance(obj, LogisticObjective):
        chunk = data.draw(st.integers(1, 4)) * obj.n_classes * obj._eval_rows.shape[0]
    with np.errstate(invalid="ignore", over="ignore"), \
            mock.patch.object(objectives, "_EVAL_CHUNK", chunk):
        losses, tests, errors = dsgd._block_metrics(obj, states.copy())
        expected = [
            (global_train_loss(obj, s), obj.test_metric(s), consensus_error(s)) for s in states
        ]
    assert len(losses) == len(tests) == len(errors) == rounds
    for got, want in zip(zip(losses, tests, errors), expected):
        assert all(same(a, b) for a, b in zip(got, want)), (got, want)
    if nan_round is not None and objective in ("equal", "unequal"):
        assert tests[nan_round] == float(np.mean(obj._test_labels == 0))


# --- run_training against the per-call loop ----------------------------------


def per_call_run(t, part, policy, obj, cfg):
    """D-SGD round by round through the public per-call functions; returns
    the records, the final state and the generator."""
    rng = np.random.default_rng(cfg.seed)
    state = np.zeros((t.n, obj.dim))
    records, cum_slots = [], 0
    for r in range(cfg.rounds):
        if isinstance(policy, SchedulingPolicy):
            act = sample_round(policy, part, t, rng)
        else:
            act = policy.sample_round(rng)
        state = gradient_step(state, obj, cfg.lr_at(r), cfg.batch_size, rng)
        state = consensus_step(state, act.mixing_matrix)
        cum_slots += act.slots_used
        records.append(RoundRecord(
            round=r + 1,
            cum_slots=cum_slots,
            active_subsets=int(act.active_subsets.sum()),
            train_loss=global_train_loss(obj, state),
            test_metric=obj.test_metric(state),
            consensus_error=consensus_error(state),
        ))
    return records, state, rng


def run_training_with_generator(*args):
    """``run_training`` plus the generator it drew from, caught as it is made."""
    made, default_rng = [], np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        log = run_training(*args)
    return log, made[0]


@st.composite
def training_cases(draw, kind, objective):
    t = draw(graphs)
    part = greedy_partition(t)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    epsilon = draw(st.floats(0.0, 1.0)) / max(1.0, degrees(t).max())
    frac = draw(st.floats(0.1, 1.0))
    if kind == "bass":
        scores = subset_betweenness(betweenness_centrality(t), part)
        probs = solve_probabilities(scores, frac * part.q, min_prob=0.1 * frac)
        policy = SchedulingPolicy(probs, frac * part.q, epsilon)
    elif kind == "full":
        policy = full_comm_policy(part).with_epsilon(epsilon)
    else:
        md = matching_decomposition(t)
        policy = matcha_policy(md, frac * 2 * md.r, t).with_epsilon(epsilon)
    if objective == "quadratic":
        obj = QuadraticObjective(rng.normal(0.0, 1.0, (t.n, draw(st.integers(1, 10)))))
    elif objective in OUTSIDE:
        obj = OUTSIDE[objective](rng.normal(0.0, 1.0, (t.n, draw(st.integers(1, 10)))))
    else:
        # 2n * per + extra rows in 2n shards, two per node: equal shards when
        # extra = 0, and unequal when n does not divide extra.
        per, extra = draw(st.integers(1, 4)), 0
        if objective == "unequal":
            extra = draw(st.integers(1, t.n - 1))
        classes = draw(st.integers(2, 4))
        x, y = make_blobs(2 * t.n * per + extra + 20, classes, 3, rng)
        train = 2 * t.n * per + extra
        shards = shard_data(train, y[:train], t.n, rng)
        test_x, test_y = (None, None) if objective == "no-test" else (x[train:], y[train:])
        obj = LogisticObjective(x[:train], y[:train], shards, classes, test_x, test_y)
        assert (len({s.size for s in shards}) == 1) == (objective != "unequal")
    cfg = TrainConfig(
        rounds=draw(st.integers(1, 6)),
        lr=draw(st.floats(0.01, 1.0)),
        lr_decay=draw(st.floats(0.0, 2.0)),
        batch_size=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)),
    )
    return t, part, policy, obj, cfg


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("kind", ["bass", "full", "matcha"])
@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(data=st.data())
def test_run_training_is_the_per_call_loop_bit_for_bit(kind, objective, data):
    """Records compared with ==, the final state and the generator's state
    bit for bit; quadratic objectives of dimension 1 to 10, logistic
    objectives with equal shards, unequal shards and no test set, and two
    objectives from outside the package, one with the base-class metrics and
    one with its own held-out metric. The metric blocks are
    cut to 1 to 3 states, and the runs take 0 rounds, 1, one block, one
    block + 1 and the drawn count; with a cap below one state every block
    holds one round."""
    t, part, policy, obj, cfg = data.draw(training_cases(kind, objective))
    size = t.n * obj.dim
    per_block = data.draw(st.integers(1, 3))
    runs = [(per_block * size, per_block, r) for r in (0, 1, per_block, per_block + 1, cfg.rounds)]
    runs.append((data.draw(st.integers(0, size - 1)), 1, 3))
    for cap, held, rounds in runs:
        run_cfg = dataclasses.replace(cfg, rounds=rounds)
        with mock.patch.object(dsgd, "_METRIC_BLOCK_FLOATS", cap), \
                mock.patch.object(dsgd, "_block_metrics", wraps=dsgd._block_metrics) as blocks:
            log, log_rng = run_training_with_generator(t, policy, part, obj, run_cfg)
        assert blocks.call_count == -(-rounds // held)
        records, state, rng = per_call_run(t, part, policy, obj, run_cfg)
        assert log.records == records
        assert log.final_state.tobytes() == state.tobytes()
        assert log_rng.bit_generator.state == rng.bit_generator.state

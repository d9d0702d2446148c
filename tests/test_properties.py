"""Property tests over random connected Erdos-Renyi graphs with n <= 10."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import (
    betweenness_centrality,
    enumerated_moments,
    er_topology,
    expected_laplacian_gram,
    greedy_partition,
    node_probabilities,
    solve_probabilities,
    subset_betweenness,
    validate_partition,
)

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
    assert validate_partition(t, greedy_partition(t))


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
def graphs_with_probs(draw):
    t = draw(graphs)
    part = greedy_partition(t)
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=part.q, max_size=part.q))
    return t, part, node_probabilities(probs, part)


@PROPERTY
@given(graphs_with_probs())
def test_closed_form_moments_match_enumeration(case):
    t, part, node_p = case
    closed = expected_laplacian_gram(t, part, node_p)
    exact = enumerated_moments(t, part, node_p)
    for name in ("e_laplacian", "e_gram", "e_deg2", "e_deg_adj", "e_adj_deg", "e_adj2"):
        assert np.abs(getattr(closed, name) - getattr(exact, name)).max() <= 1e-12, name

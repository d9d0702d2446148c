"""Broadcast-based probabilistic subgraph sampling for decentralized SGD.

The pipeline: partition a wireless topology into collision-free broadcast
subsets, schedule the subsets randomly under a slot budget with importance-
weighted probabilities, build each round's symmetric mixing matrix from the
base links that survive it in both directions, optimize the constant mixing
step size against the closed-form activation moments, and train by
decentralized SGD, benchmarked per transmission slot against link-matching
and full-communication baselines.
"""

from .baselines import (
    MatchaPolicy,
    MatchingDecomposition,
    dump_matchings,
    full_comm_policy,
    matcha_policy,
    matcha_spectral_moments,
    matching_decomposition,
)
from .dsgd import (
    CSV_HEADER,
    MetricsLog,
    RoundRecord,
    TrainConfig,
    consensus_error,
    consensus_step,
    global_train_loss,
    gradient_step,
    run_training,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    PolicySpec,
    build_policy,
    load_config,
    parse_config_text,
    run_experiment,
    summarize,
)
from .graph import (
    Topology,
    betweenness_centrality,
    load_topology,
)
from .mixing import (
    EpsilonSearch,
    optimize_epsilon,
)
from .moments import (
    CompactObjective,
    SpectralObjective,
    closed_form_moments,
    enumerated_moments,
    expected_laplacian_gram,
    monte_carlo_moments,
)
from .objectives import (
    LocalObjective,
    LogisticObjective,
    QuadraticObjective,
    make_blobs,
    shard_data,
)
from .partition import (
    CollisionFreePartition,
    dump_partition,
    greedy_partition,
)
from .scheduling import (
    RoundActivation,
    SchedulingPolicy,
    Units,
    node_probabilities,
    sample_round,
    solve_probabilities,
    subset_betweenness,
)
from .topologies import (
    er_topology,
    make_topology,
    path_topology,
    ring_topology,
    star_topology,
    two_stars_topology,
)

__version__ = "0.1.0"

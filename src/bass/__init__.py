"""Broadcast-based probabilistic subgraph sampling for decentralized SGD.

The pipeline: partition a wireless topology into collision-free broadcast
subsets, schedule the subsets randomly under a slot budget with importance-
weighted probabilities, build each round's symmetric effective mixing matrix
from the bidirectionally activated links, optimize the constant mixing step
size against the closed-form activation moments, and train by decentralized
SGD, benchmarked per transmission slot against link-matching and
full-communication baselines.
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
    slots_to_reach,
    summarize,
)
from .graph import (
    Topology,
    betweenness_centrality,
    load_topology,
    save_topology,
)
from .mixing import (
    EpsilonSearch,
    SpectralObjective,
    optimize_epsilon,
)
from .moments import (
    MomentSet,
    enumerated_moments,
    expected_laplacian,
    expected_laplacian_gram,
    monte_carlo_gram_from_sampler,
    monte_carlo_moments,
    subset_probs_from_node_probs,
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
    validate_partition,
)
from .scheduling import (
    RoundActivation,
    SchedulingPolicy,
    effective_topology,
    node_probabilities,
    sample_round,
    solve_probabilities,
    subset_betweenness,
    uniform_probabilities,
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

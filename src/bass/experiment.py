"""Experiment orchestration: policy construction, seed sweeps, CSV emission.

Budgets are primarily expressed as an activation fraction: for subset
policies a fraction f targets f * q expected slots per round; for the
matching baseline it activates each matching with probability f, i.e.
f * 2r expected slots. Absolute slot budgets are supported too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import (
    full_comm_policy,
    matcha_policy,
    matcha_spectral_moments,
    matching_decomposition,
)
from .dsgd import MetricsLog, TrainConfig, run_training
from .graph import Topology, betweenness_centrality
from .mixing import SpectralObjective, optimize_epsilon
from .moments import expected_laplacian_gram
from .objectives import LogisticObjective, QuadraticObjective, make_blobs, shard_data
from .partition import CollisionFreePartition, greedy_partition
from .scheduling import (
    SchedulingPolicy,
    node_probabilities,
    solve_probabilities,
    subset_betweenness,
    uniform_probabilities,
)
from .topologies import make_topology

# Stream tags deriving the per-seed generators; training itself uses the raw
# seed so library runs and experiment runs agree.
_DATA_STREAM = 1
# Seed of the Monte Carlo moment estimate behind the matching baseline's
# epsilon (one fixed draw per policy, shared by every seed of a sweep).
_EPS_MC_SEED = 0xBA55

POLICY_KINDS = ("bass", "uniform", "full", "matcha")


@dataclass
class ExperimentConfig:
    """Flat experiment description, mirroring the CLI flags."""

    topology: str = "two-stars(4,4)"
    policies: tuple[str, ...] = ("bass",)
    budget: float | None = None
    budget_frac: float | None = None
    budget_sweep: tuple[float, ...] | None = None
    rounds: int = 200
    seeds: tuple[int, ...] = (0,)
    objective: str = "quadratic"
    lr: float = 0.1
    lr_decay: float = 0.01
    batch_size: int = 10
    dim: int = 2
    epsilon: float | str = "auto"
    min_subset_prob: float = 0.0
    out_dir: str = "runs"
    n_samples: int = 600
    n_classes: int = 3
    n_features: int = 4
    test_samples: int = 300
    center_spread: float = 1.0
    eps_mc_samples: int = 100_000

    def __post_init__(self):
        if not self.policies:
            raise ValueError("give at least one policy")
        if not self.seeds:
            raise ValueError("give at least one seed")
        if self.rounds < 0:
            raise ValueError(f"rounds must be nonnegative, got {self.rounds}")
        for kind in self.policies:
            if kind not in POLICY_KINDS:
                raise ValueError(f"unknown policy {kind!r}; choose from {POLICY_KINDS}")
        if self.objective not in ("quadratic", "logistic"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.budget is not None and self.budget_frac is not None:
            raise ValueError("give either budget or budget_frac, not both")


_CONFIG_TYPES = {
    "topology": str,
    "policies": "strlist",
    "budget": float,
    "budget_frac": float,
    "budget_sweep": "floatlist",
    "rounds": int,
    "seeds": "intlist",
    "objective": str,
    "lr": float,
    "lr_decay": float,
    "batch_size": int,
    "dim": int,
    "epsilon": "epsilon",
    "min_subset_prob": float,
    "out_dir": str,
    "n_samples": int,
    "n_classes": int,
    "n_features": int,
    "test_samples": int,
    "center_spread": float,
    "eps_mc_samples": int,
}


def _convert(key: str, raw: str):
    kind = _CONFIG_TYPES[key]
    if kind == "strlist":
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if kind == "floatlist":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if kind == "intlist":
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    if kind == "epsilon":
        return "auto" if raw.strip() == "auto" else float(raw)
    return kind(raw)


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config format ('#' starts a comment)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "policy":
            key = "policies"
        if key not in _CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _convert(key, raw)
    return values


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Config file plus CLI overrides (overrides win)."""
    values = parse_config_text(Path(path).read_text())
    if overrides:
        values.update(overrides)
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class PolicySpec:
    """One resolved (policy kind, budget) curve of an experiment."""

    label: str
    kind: str
    budget_slots: float
    frac: float | None


def _policy_specs(cfg: ExperimentConfig, partition, md) -> list[PolicySpec]:
    fracs = cfg.budget_sweep if cfg.budget_sweep else (None,)
    specs = []
    for kind in cfg.policies:
        for frac in fracs:
            use_frac = frac
            if use_frac is None:
                use_frac = cfg.budget_frac
                if use_frac is None and cfg.budget is None:
                    use_frac = 0.5
            if kind == "full":
                slots = float(partition.q)
                label = "full"
            elif kind == "matcha":
                slots = 2.0 * md.r * use_frac if use_frac is not None else float(cfg.budget)
                label = f"matcha@{use_frac:g}" if use_frac is not None else f"matcha@B{slots:g}"
            else:
                slots = partition.q * use_frac if use_frac is not None else float(cfg.budget)
                label = f"{kind}@{use_frac:g}" if use_frac is not None else f"{kind}@B{slots:g}"
            specs.append(PolicySpec(label=label, kind=kind, budget_slots=slots, frac=use_frac))
    # A sweep would otherwise duplicate the full-comm curve per fraction.
    seen = set()
    unique = []
    for spec in specs:
        if spec.label not in seen:
            seen.add(spec.label)
            unique.append(spec)
    return unique


def build_policy(
    spec: PolicySpec,
    topology: Topology,
    partition: CollisionFreePartition,
    cfg: ExperimentConfig,
):
    """Instantiate a policy with its epsilon resolved (returns the policy)."""
    if spec.kind == "matcha":
        md = matching_decomposition(topology)
        policy = matcha_policy(md, spec.budget_slots, topology)
        if cfg.epsilon == "auto":
            rng = np.random.default_rng(_EPS_MC_SEED)
            e_lap, e_gram = matcha_spectral_moments(policy, cfg.eps_mc_samples, rng)
            search = optimize_epsilon(SpectralObjective(e_lap, e_gram))
            return policy.with_epsilon(search.epsilon), search
        return policy.with_epsilon(float(cfg.epsilon)), None

    if spec.kind == "full":
        policy = full_comm_policy(partition)
    elif spec.kind == "uniform":
        policy = SchedulingPolicy(
            uniform_probabilities(partition.q, spec.budget_slots), spec.budget_slots
        )
    elif spec.kind == "bass":
        centrality = betweenness_centrality(topology)
        scores = subset_betweenness(centrality, partition)
        probs = solve_probabilities(scores, spec.budget_slots, cfg.min_subset_prob)
        policy = SchedulingPolicy(probs, spec.budget_slots)
    else:
        raise ValueError(f"unknown policy kind {spec.kind!r}")

    if cfg.epsilon == "auto":
        node_p = node_probabilities(policy.subset_probs, partition)
        moments = expected_laplacian_gram(topology, partition, node_p)
        search = optimize_epsilon(SpectralObjective.from_moments(moments))
        return policy.with_epsilon(search.epsilon), search
    return policy.with_epsilon(float(cfg.epsilon)), None


def _build_objective(cfg: ExperimentConfig, n_nodes: int, seed: int):
    data_rng = np.random.default_rng(np.random.SeedSequence([seed, _DATA_STREAM]))
    if cfg.objective == "quadratic":
        centers = data_rng.normal(0.0, cfg.center_spread, size=(n_nodes, cfg.dim))
        return QuadraticObjective(centers)
    features, labels = make_blobs(
        cfg.n_samples + cfg.test_samples, cfg.n_classes, cfg.n_features, data_rng
    )
    train_x, test_x = features[: cfg.n_samples], features[cfg.n_samples :]
    train_y, test_y = labels[: cfg.n_samples], labels[cfg.n_samples :]
    shards = shard_data(cfg.n_samples, train_y, n_nodes, data_rng)
    return LogisticObjective(train_x, train_y, shards, cfg.n_classes, test_x, test_y)


@dataclass
class ExperimentResult:
    run_files: dict = field(default_factory=dict)  # label -> {seed: path}
    logs: dict = field(default_factory=dict)  # label -> {seed: MetricsLog}
    summary_file: Path | None = None
    report: list[str] = field(default_factory=list)


def _safe_name(label: str) -> str:
    return label.replace("@", "-")


def summarize(logs_by_seed: dict[int, MetricsLog]):
    """Median metric curves across seeds, aligned on cumulative slots.

    Metrics are treated as step functions of cumulative slots. The grid is
    the union of observed slot counts, clipped to the range where every seed
    has records, so medians never extrapolate.
    """
    per_seed = []
    for log in logs_by_seed.values():
        slots = np.array([r.cum_slots for r in log.records])
        loss = np.array([r.train_loss for r in log.records])
        test = np.array(
            [np.nan if r.test_metric is None else r.test_metric for r in log.records]
        )
        cons = np.array([r.consensus_error for r in log.records])
        per_seed.append((slots, loss, test, cons))
    if not per_seed or any(len(s[0]) == 0 for s in per_seed):
        return []
    lo = max(s[0][0] for s in per_seed)
    hi = min(s[0][-1] for s in per_seed)
    grid = sorted({v for s in per_seed for v in s[0] if lo <= v <= hi})
    rows = []
    for g in grid:
        losses, tests, conss = [], [], []
        for slots, loss, test, cons in per_seed:
            idx = np.searchsorted(slots, g, side="right") - 1
            losses.append(loss[idx])
            tests.append(test[idx])
            conss.append(cons[idx])
        rows.append(
            (
                g,
                float(np.median(losses)),
                float(np.median(tests)) if not np.isnan(tests).any() else None,
                float(np.median(conss)),
            )
        )
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (policy, seed) combination and write per-run plus summary CSVs."""
    topology = make_topology(cfg.topology)
    partition = greedy_partition(topology)
    md = matching_decomposition(topology)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = ExperimentResult()
    specs = _policy_specs(cfg, partition, md)
    for spec in specs:
        policy, search = build_policy(spec, topology, partition, cfg)
        eps_note = f"epsilon={policy.epsilon:.6g}"
        if search is not None:
            eps_note += f" (objective {search.value:.6g}"
            if search.degenerate:
                eps_note += ", degenerate: no expected communication"
            eps_note += ")"
        result.report.append(f"{spec.label}: budget {spec.budget_slots:g} slots, {eps_note}")
        result.run_files[spec.label] = {}
        result.logs[spec.label] = {}
        for seed in cfg.seeds:
            obj = _build_objective(cfg, topology.n, seed)
            train_cfg = TrainConfig(
                rounds=cfg.rounds,
                lr=cfg.lr,
                lr_decay=cfg.lr_decay,
                batch_size=cfg.batch_size,
                seed=seed,
            )
            log = run_training(topology, policy, partition, obj, train_cfg)
            path = out_dir / f"{_safe_name(spec.label)}_seed{seed}.csv"
            log.write_csv(path)
            result.run_files[spec.label][seed] = path
            result.logs[spec.label][seed] = log

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="\n") as fh:
        fh.write("policy,cum_slots,train_loss,test_metric,consensus_error\n")
        for spec in specs:
            for slots, loss, test, cons in summarize(result.logs[spec.label]):
                test_str = "" if test is None else f"{test:.12g}"
                fh.write(f"{spec.label},{slots},{loss:.12g},{test_str},{cons:.12g}\n")
    result.summary_file = summary_path

    if cfg.budget_sweep:
        result.report.extend(_sweep_report(result, specs))
    return result


def slots_to_reach(log: MetricsLog, target_loss: float):
    """Cumulative slots at the first round whose train loss <= target, else None."""
    for rec in log.records:
        if rec.train_loss <= target_loss:
            return rec.cum_slots
    return None


def _sweep_report(result: ExperimentResult, specs) -> list[str]:
    """Per-slot efficiency observation across budget fractions.

    Efficiency is measured as the median final train loss at the largest
    slot horizon shared by all sweep curves; the best fraction being strictly
    interior is reported, not asserted.
    """
    sweep_specs = [s for s in specs if s.frac is not None and "@" in s.label]
    rows = {}
    for spec in sweep_specs:
        curve = summarize(result.logs[spec.label])
        if curve:
            rows[spec.frac] = curve
    if len(rows) < 2:
        return ["budget-sweep: not enough curves to compare"]
    horizon = min(curve[-1][0] for curve in rows.values())
    losses = {}
    for frac, curve in rows.items():
        eligible = [row for row in curve if row[0] <= horizon]
        losses[frac] = eligible[-1][1] if eligible else float("inf")
    fracs = sorted(losses)
    best = min(fracs, key=lambda f: losses[f])
    interior = fracs[0] < best < fracs[-1]
    lines = [
        "budget-sweep: median train loss at horizon "
        + f"{horizon} slots: "
        + ", ".join(f"{f:g}->{losses[f]:.6g}" for f in fracs),
        f"budget-sweep: best fraction {best:g} "
        + ("(strictly interior)" if interior else "(boundary: partial communication "
           "did not beat the extremes on this run)"),
    ]
    return lines

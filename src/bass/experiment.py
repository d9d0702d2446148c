"""Experiment orchestration: policy construction, seed sweeps, CSV emission.

Budgets are primarily expressed as an activation fraction: for subset
policies a fraction f targets f * q expected slots per round; for the
matching baseline it activates each matching with probability f, i.e.
f * 2r expected slots. Absolute slot budgets are supported too.

Run seed s trains from ``default_rng(s)``, and its data (the quadratic
targets, or the logistic blobs and their shards) come from
``SeedSequence([s, 1])``, so every policy sees the same data at one seed.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .baselines import MatchaPolicy, full_comm_policy, matcha_policy
from .dsgd import _NUMBER_TYPES, MetricsLog, TrainConfig, _check_types, _is_real, run_training
from .graph import Topology
from .mixing import contracts, optimize_epsilon
from .moments import closed_form_moments, monte_carlo_moments
from .objectives import LogisticObjective, QuadraticObjective, make_blobs, shard_data
from .partition import CollisionFreePartition, greedy_partition
from .scheduling import (
    BUDGET_TOL,
    SchedulingPolicy,
    Units,
    solve_probabilities,
    subset_betweenness,
)
from .topologies import make_topology

# Stream tags deriving the per-seed generators; training itself uses the raw
# seed so library runs and experiment runs agree.
_DATA_STREAM = 1
# Seed of the Monte Carlo moment estimate behind the matching baseline's
# epsilon (one fixed draw per policy, shared by every seed of a sweep).
_EPS_MC_SEED = 0xBA55

POLICY_KINDS = ("bass", "uniform", "full", "matcha")

# Least value of each integer data key; test_samples = 0 means no held-out set.
_LOWER_BOUNDS = {"dim": 1, "n_classes": 2, "n_features": 1, "eps_mc_samples": 1, "test_samples": 0}


@dataclass
class ExperimentConfig:
    """Flat experiment description, mirroring the CLI flags. Each field's
    type is checked from its annotation (see ``_PARSERS``), then its range:
    the training keys' by ``TrainConfig``, the others' here.
    ``center_spread`` spreads only the quadratic targets; the logistic
    blobs keep class-mean spread 3 whatever it is."""

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
    out_dir: str | os.PathLike = "runs"
    n_samples: int = 600
    n_classes: int = 3
    n_features: int = 4
    test_samples: int = 300
    center_spread: float = 1.0
    eps_mc_samples: int = 100_000

    def __post_init__(self):
        _check_types(self, _CONFIG_PARSERS)
        TrainConfig(self.rounds, self.lr, self.lr_decay, self.batch_size)
        if not self.policies:
            raise ValueError("give at least one policy")
        if self.budget_sweep is not None and not self.budget_sweep:
            raise ValueError(f"budget_sweep must be one or more fractions, got {self.budget_sweep}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be one or more nonnegative integers, got {self.seeds}")
        for key in ("policies", "budget_sweep", "seeds"):
            values = getattr(self, key) or ()
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat, got {values}")
        eps = self.epsilon
        if eps != "auto" and not 0 <= eps < float("inf"):
            raise ValueError(f"epsilon must be 'auto' or a finite number >= 0, got {eps!r}")
        for kind in self.policies:
            if kind not in POLICY_KINDS:
                raise ValueError(f"unknown policy {kind!r}; choose from {POLICY_KINDS}")
        if self.objective not in ("quadratic", "logistic"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if sum(v is not None for v in (self.budget, self.budget_frac, self.budget_sweep)) > 1:
            raise ValueError("give at most one of budget, budget_frac and budget_sweep")
        if self.budget is not None and not 0 < self.budget < float("inf"):
            raise ValueError(f"budget must be positive and finite, got {self.budget}")
        for frac in (self.budget_frac, *(self.budget_sweep or ())):
            if frac is not None and not 0 < frac <= 1:
                raise ValueError(f"budget fractions must lie in (0, 1], got {frac}")
        if not 0 <= self.min_subset_prob <= 1:
            raise ValueError(f"min_subset_prob must lie in [0, 1], got {self.min_subset_prob}")
        if not 0 <= self.center_spread < float("inf"):
            raise ValueError(
                f"center_spread must be finite and nonnegative, got {self.center_spread}"
            )
        for key, least in _LOWER_BOUNDS.items():
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")


def _list_of(convert):
    """Parser of a comma list, ``convert`` applied to each nonblank item."""
    return lambda raw: tuple(convert(tok) for tok in raw.split(",") if tok.strip())


def _seq_of(item):
    """Check of a tuple or list whose every item passes the check of type ``item``."""
    return lambda value: isinstance(value, (tuple, list)) and all(map(_PARSERS[item][2], value))


# Per ExperimentConfig field type: its text parser, what a value must be and
# its check; a field of any other type fails here, at import.
_PARSERS = {
    **_NUMBER_TYPES,
    str: (str, "a string", lambda v: isinstance(v, str)),
    str | os.PathLike: (str, "a string or path", lambda v: isinstance(v, (str, os.PathLike))),
    float | None: (float, "a real number or None", lambda v: v is None or _is_real(v)),
    float | str: (
        lambda raw: "auto" if raw.strip() == "auto" else float(raw),
        "'auto' or a real number",
        lambda v: v == "auto" if isinstance(v, str) else _is_real(v),
    ),
    tuple[str, ...]: (_list_of(str.strip), "a tuple or list of strings", _seq_of(str)),
    tuple[int, ...]: (_list_of(int), "a tuple or list of integers", _seq_of(int)),
    tuple[float, ...] | None: (_list_of(float), "None or a tuple or list of real numbers",
                               lambda v: v is None or _seq_of(float)(v)),
}
_CONFIG_PARSERS = {key: _PARSERS[hint] for key, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config format ('#' starts a comment).
    The keys are the ExperimentConfig fields, each given at most once; each
    value is parsed by its field's type."""
    values, set_on = {}, {}
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
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _CONFIG_PARSERS[key][0](raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
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
    """The curves of a config in policy order: one per budget (the sweep's
    fractions, else budget or budget_frac, else 0.5) of each policy but full,
    whose one curve has frac None. Curves that share a label are rejected."""
    # budget_sweep, budget and budget_frac exclude one another.
    fracs = cfg.budget_sweep or ((None,) if cfg.budget is not None else (cfg.budget_frac or 0.5,))
    specs = []
    for kind in cfg.policies:
        # Every unit on: q subsets of one slot each, or r matchings of two.
        all_slots = 2.0 * md.r if kind == "matcha" else 1.0 * partition.q
        if kind == "full":
            specs.append(PolicySpec("full", kind, all_slots, None))
            continue
        for frac in fracs:
            slots = float(cfg.budget) if frac is None else all_slots * frac
            label = f"{kind}@B{slots:g}" if frac is None else f"{kind}@{frac:g}"
            specs.append(PolicySpec(label, kind, slots, frac))
    labels = [spec.label for spec in specs]
    clash = sorted({spec.frac for spec in specs if labels.count(spec.label) > 1})
    if clash:
        raise ValueError(f"budget_sweep must label each curve apart; {clash} share a label")
    return specs


def _setup(cfg: ExperimentConfig):
    """The topology, its partition and the policy specs of a config: the one
    set-up of ``run_experiment`` and the CLI. The matching decomposition is
    built only when a matcha curve is requested."""
    topology = make_topology(cfg.topology)
    if cfg.objective == "logistic" and cfg.n_samples < 2 * topology.n:
        raise ValueError(
            f"n_samples must be at least {2 * topology.n} (two shards for each of "
            f"{topology.n} nodes), got {cfg.n_samples}"
        )
    partition = greedy_partition(topology)
    md = topology.matching_decomposition if "matcha" in cfg.policies else None
    return topology, partition, _policy_specs(cfg, partition, md)


def _unresolved_policy(spec: PolicySpec, topology, partition, cfg: ExperimentConfig):
    """The policy of one spec, its probabilities set and its epsilon not.

    bass and uniform are one rule with different subset scores; the
    probability floor ``min_subset_prob`` applies to both, not to matcha or
    full.
    """
    if spec.kind == "matcha":
        return matcha_policy(topology.matching_decomposition, spec.budget_slots, topology)
    if spec.kind == "full":
        return full_comm_policy(partition)
    if spec.kind == "bass":
        scores = subset_betweenness(topology.betweenness, partition)
    elif spec.kind == "uniform":
        scores = np.ones(partition.q)
    else:
        raise ValueError(f"unknown policy kind {spec.kind!r}")
    probs = solve_probabilities(scores, spec.budget_slots, cfg.min_subset_prob)
    return SchedulingPolicy(probs, spec.budget_slots)


def _budget_note(spec: PolicySpec, units: Units) -> str | None:
    """``budget B slots, achieved A slots`` when the policy's expected slots
    per round A miss the requested B, else None."""
    achieved = units.expected_slots
    if abs(achieved - spec.budget_slots) > BUDGET_TOL:
        return f"budget {spec.budget_slots:g} slots, achieved {achieved:g} slots"
    return None


def build_policy(
    spec: PolicySpec,
    topology: Topology,
    partition: CollisionFreePartition,
    cfg: ExperimentConfig,
):
    """Instantiate a policy with its epsilon resolved; returns (policy, search).

    ``search`` is None for a fixed epsilon, which warns when its expected
    contraction s(epsilon) is not below one.
    """
    policy = _unresolved_policy(spec, topology, partition, cfg)
    # The moments E[L~] and E[L~^2] that epsilon reads: the closed form over
    # the policy's units, except matcha's fixed-seed Monte Carlo estimate.
    units = policy.units(partition, topology)
    if isinstance(policy, MatchaPolicy):
        rng = np.random.default_rng(_EPS_MC_SEED)
        objective = monte_carlo_moments(topology, units, cfg.eps_mc_samples, rng)
    else:
        objective = closed_form_moments(topology, units)
    if cfg.epsilon == "auto":
        search = optimize_epsilon(objective)
        return policy.with_epsilon(search.epsilon), search
    epsilon = float(cfg.epsilon)
    value = objective.value(epsilon)
    if not contracts(value):
        warnings.warn(
            f"{spec.label}: epsilon = {epsilon:g} gives s(epsilon) = {value:.6g} >= 1, "
            "so the expected consensus error does not contract; use epsilon = auto"
        )
    return policy.with_epsilon(epsilon), None


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
    if cfg.test_samples == 0:
        test_x = test_y = None
    return LogisticObjective(train_x, train_y, shards, cfg.n_classes, test_x, test_y)


@dataclass
class ExperimentResult:
    run_files: dict = field(default_factory=dict)  # label -> {seed: path}
    logs: dict = field(default_factory=dict)  # label -> {seed: MetricsLog}
    summary_file: Path | None = None
    report: list[str] = field(default_factory=list)


def summarize(logs_by_seed: dict[int, MetricsLog]):
    """Median metric curves across seeds, aligned on cumulative slots.

    Metrics are treated as step functions of cumulative slots. The grid is
    the union of observed slot counts, clipped to the range where every seed
    has records, so medians never extrapolate.
    """
    per_seed = []
    for log in logs_by_seed.values():
        slots = np.array([r.cum_slots for r in log.records])
        metrics = np.array(
            [
                (r.train_loss, np.nan if r.test_metric is None else r.test_metric,
                 r.consensus_error)
                for r in log.records
            ]
        ).reshape(-1, 3)
        per_seed.append((slots, metrics))
    if not per_seed or any(slots.size == 0 for slots, _ in per_seed):
        return []
    lo = max(slots[0] for slots, _ in per_seed)
    hi = min(slots[-1] for slots, _ in per_seed)
    grid = np.unique(np.concatenate([slots for slots, _ in per_seed]))
    grid = grid[(lo <= grid) & (grid <= hi)]
    # (seeds, grid, 3): each seed's metrics at its last record at or before
    # each grid point.
    at_grid = np.stack(
        [metrics[np.searchsorted(slots, grid, side="right") - 1] for slots, metrics in per_seed]
    )
    medians = np.median(at_grid, axis=0)
    test_known = ~np.isnan(at_grid[:, :, 1]).any(axis=0)
    return [
        (int(g), float(loss), float(test) if known else None, float(cons))
        for g, (loss, test, cons), known in zip(grid, medians, test_known)
    ]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (policy, seed) combination and write per-run plus summary CSVs."""
    topology, partition, specs = _setup(cfg)
    # Every policy is built before any output, so an infeasible budget fails
    # without leaving partial results behind.
    built = [build_policy(spec, topology, partition, cfg) for spec in specs]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = ExperimentResult()
    for spec, (policy, search) in zip(specs, built):
        eps_note = f"epsilon={policy.epsilon:.6g}"
        if search is not None:
            eps_note += f" (objective {search.value:.6g}"
            if search.degenerate:
                eps_note += ", degenerate: no expected communication"
            eps_note += ")"
        budget_note = _budget_note(spec, policy.units(partition, topology))
        budget_note = budget_note or f"budget {spec.budget_slots:g} slots"
        result.report.append(f"{spec.label}: {budget_note}, {eps_note}")
        result.run_files[spec.label] = {}
        result.logs[spec.label] = {}
        for seed in cfg.seeds:
            obj = _build_objective(cfg, topology.n, seed)
            train_cfg = TrainConfig(cfg.rounds, cfg.lr, cfg.lr_decay, cfg.batch_size, seed)
            log = run_training(topology, policy, partition, obj, train_cfg)
            path = out_dir / f"{spec.label.replace('@', '-')}_seed{seed}.csv"
            log.write_csv(path)
            result.run_files[spec.label][seed] = path
            result.logs[spec.label][seed] = log

    curves = {spec.label: summarize(result.logs[spec.label]) for spec in specs}
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="\n") as fh:
        fh.write("policy,cum_slots,train_loss,test_metric,consensus_error\n")
        for spec in specs:
            for slots, loss, test, cons in curves[spec.label]:
                test_str = "" if test is None else f"{test:.12g}"
                fh.write(f"{spec.label},{slots},{loss:.12g},{test_str},{cons:.12g}\n")
    result.summary_file = summary_path

    if cfg.budget_sweep:
        result.report.extend(_sweep_report(curves, specs))
    return result


def _sweep_report(curves: dict, specs) -> list[str]:
    """Per-slot efficiency observation across budget fractions, one
    comparison per policy kind but full, whose one curve spends every slot
    whatever the fraction, from the label -> ``summarize`` curve map that
    ``summary.csv`` was written from.

    Efficiency is measured as the median final train loss at the largest
    slot horizon shared by all of a kind's sweep curves; the best fraction
    being strictly interior is reported, not asserted.
    """
    by_kind = {}
    for spec in specs:
        if spec.kind != "full":
            rows = by_kind.setdefault(spec.kind, {})
            if curves[spec.label]:
                rows[spec.frac] = curves[spec.label]
    if not by_kind:
        return ["budget-sweep: not enough curves to compare"]
    lines = []
    for kind, rows in by_kind.items():
        if len(rows) < 2:
            lines.append(f"budget-sweep {kind}: not enough curves to compare")
            continue
        horizon = min(curve[-1][0] for curve in rows.values())
        losses = {}
        for frac, curve in rows.items():
            eligible = [row for row in curve if row[0] <= horizon]
            losses[frac] = eligible[-1][1] if eligible else float("inf")
        fracs = sorted(losses)
        best = min(fracs, key=lambda f: losses[f])
        interior = fracs[0] < best < fracs[-1]
        lines += [
            f"budget-sweep {kind}: median train loss at horizon {horizon} slots: "
            + ", ".join(f"{f:g}->{losses[f]:.6g}" for f in fracs),
            f"budget-sweep {kind}: best fraction {best:g} "
            + ("(strictly interior)" if interior else "(boundary: partial communication "
               "did not beat the extremes on this run)"),
        ]
    return lines

"""Workloads, output checks and measurements of the bass-sim benchmark.

The benchmark drives the library only through its public calls, in one
process, one experiment at a time (a closed loop with a single client). An
untraced repetition re-sequences ``run_experiment`` into a set-up phase (every
policy built, epsilon resolved) and a training phase, separated by plain clock
reads; it must write the same bytes as ``run_experiment``. A traced
repetition additionally drives each build step and each training round
itself, recording a span around every public call, and must reproduce
``build_policy`` and ``run_training`` exactly.

Import this module only after ``run.prepare()``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bass
from bass import experiment
from bass.baselines import (
    MatchaPolicy,
    full_comm_policy,
    matcha_policy,
    matcha_spectral_moments,
    matching_decomposition,
)
from bass.dsgd import (
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
from bass.experiment import ExperimentConfig, build_policy, run_experiment, summarize
from bass.graph import betweenness_centrality
from bass.mixing import SpectralObjective, optimize_epsilon
from bass.moments import expected_laplacian_gram
from bass.partition import greedy_partition
from bass.scheduling import (
    BUDGET_TOL,
    SchedulingPolicy,
    node_probabilities,
    sample_round,
    solve_probabilities,
    subset_betweenness,
)
from bass.topologies import make_topology

ROOT = Path(__file__).resolve().parent.parent
SUMMARY_HEADER = "policy,cum_slots,train_loss,test_metric,consensus_error"


@dataclass(frozen=True)
class Workload:
    """One experiment configuration; the workload seed shifts its run seeds.

    Why each workload exists is recorded in BENCHMARK.json.
    """

    name: str
    config: dict
    n_seeds: int

    def experiment_config(self, seed: int, out_dir: Path, rounds: int | None = None):
        fields = dict(self.config)
        if rounds is not None:
            fields["rounds"] = rounds
        seeds = tuple(seed * self.n_seeds + k for k in range(self.n_seeds))
        return ExperimentConfig(seeds=seeds, out_dir=str(out_dir), **fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "headline",
            dict(
                topology="two-stars(6,6)",
                objective="logistic",
                policies=("bass", "matcha", "full"),
                budget_frac=0.5,
                min_subset_prob=0.1,
                rounds=300,
            ),
            n_seeds=3,
        ),
        Workload(
            "large-er",
            dict(
                topology="er(400,0.012,1)",
                objective="quadratic",
                policies=("bass",),
                budget_frac=0.5,
                min_subset_prob=0.01,
                rounds=200,
            ),
            n_seeds=1,
        ),
        Workload(
            "sweep",
            dict(
                topology="er(100,0.05,3)",
                objective="logistic",
                n_samples=2000,
                policies=("bass",),
                budget_sweep=(0.2, 0.4, 0.6, 0.8, 1.0),
                min_subset_prob=0.01,
                rounds=150,
            ),
            n_seeds=1,
        ),
    )
}


# --- output checks ---------------------------------------------------------


@dataclass
class Ops:
    """Operations attempted and failed; an operation is one (policy, seed) run
    plus its output checks. Problems outside any operation also make the
    result incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label, seed, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label} seed {seed}: {p}" for p in problems)

    def run_problem(self, message):
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Built:
    spec: experiment.PolicySpec
    policy: object
    search: object
    warned: list


def build_checked(spec, topology, partition, cfg, build=build_policy) -> Built:
    """Build one policy, capturing the warnings it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        policy, search = build(spec, topology, partition, cfg)
    return Built(spec, policy, search, [str(w.message) for w in caught])


def achieved_slots(policy) -> float:
    if isinstance(policy, MatchaPolicy):
        return policy.expected_slots
    return policy.achieved_budget


def budget_fidelity(built: Built) -> float:
    """Achieved over requested expected slots per round."""
    return achieved_slots(built.policy) / built.spec.budget_slots


def policy_problems(built: Built) -> list:
    problems = []
    search = built.search
    if search.degenerate or not search.value < 1.0:
        problems.append(f"epsilon search {search} is degenerate or has s* >= 1")
    fidelity = budget_fidelity(built)
    if abs(fidelity - 1.0) > BUDGET_TOL and not built.warned:
        problems.append(f"budget fidelity {fidelity!r} without a shortfall warning")
    return problems


def log_problems(csv_text: str, log: MetricsLog, expected_csv: str | None) -> list:
    problems = []
    if csv_text.split("\n", 1)[0] != CSV_HEADER:
        problems.append("CSV header differs from dsgd.CSV_HEADER")
    values = [v for r in log.records for v in (r.train_loss, r.consensus_error)]
    if not np.isfinite(values).all():
        problems.append("non-finite train_loss or consensus_error")
    if expected_csv is not None and csv_text != expected_csv:
        problems.append("CSV is not byte-identical to the reference run")
    return problems


def train_config(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        rounds=cfg.rounds,
        lr=cfg.lr,
        lr_decay=cfg.lr_decay,
        batch_size=cfg.batch_size,
        seed=seed,
    )


def summary_text(rows_by_label: dict) -> str:
    lines = [SUMMARY_HEADER]
    for label, rows in rows_by_label.items():
        for slots, loss, test, cons in rows:
            test_str = "" if test is None else f"{test:.12g}"
            lines.append(f"{label},{slots},{loss:.12g},{test_str},{cons:.12g}")
    return "\n".join(lines) + "\n"


@dataclass
class Reference:
    """What ``run_experiment`` wrote: run CSVs by (label, seed), file names and
    the summary."""

    csv: dict
    names: dict
    summary: str
    logs: list

    @classmethod
    def from_run(cls, cfg: ExperimentConfig) -> "Reference":
        result = run_experiment(cfg)
        csv, names, logs = {}, {}, []
        for label, paths in result.run_files.items():
            for seed, path in paths.items():
                csv[label, seed] = Path(path).read_text()
                names[label, seed] = Path(path).name
                logs.append(result.logs[label][seed])
        return cls(csv, names, Path(result.summary_file).read_text(), logs)


# --- untraced end-to-end repetition ----------------------------------------


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    train_s: dict  # (label, seed) -> seconds in run_training


def untraced_rep(cfg: ExperimentConfig, ref: Reference, ops: Ops) -> Rep:
    """One whole experiment, from config to summary CSV written."""
    out_dir = Path(cfg.out_dir)
    start = time.perf_counter()
    topology = make_topology(cfg.topology)
    partition = greedy_partition(topology)
    md = matching_decomposition(topology)
    specs = experiment._policy_specs(cfg, partition, md)
    built = [build_checked(spec, topology, partition, cfg) for spec in specs]
    setup_done = time.perf_counter()

    out_dir.mkdir(parents=True, exist_ok=True)
    train_s, logs, written = {}, {}, []
    for b in built:
        logs[b.spec.label] = {}
        for seed in cfg.seeds:
            obj = experiment._build_objective(cfg, topology.n, seed)
            tc = train_config(cfg, seed)
            t0 = time.perf_counter()
            try:
                log = run_training(topology, b.policy, partition, obj, tc)
            except Exception:  # a failed run is counted, the rest still run
                ops.record(b.spec.label, seed, [traceback.format_exc()])
                continue
            train_s[b.spec.label, seed] = time.perf_counter() - t0
            path = out_dir / ref.names[b.spec.label, seed]
            log.write_csv(path)
            logs[b.spec.label][seed] = log
            written.append((b, seed, log, path))
    summary_path = out_dir / "summary.csv"
    rows = {label: summarize(by_seed) for label, by_seed in logs.items()}
    summary_path.write_text(summary_text(rows))
    wall_s = time.perf_counter() - start

    for b, seed, log, path in written:
        expected = ref.csv[b.spec.label, seed]
        ops.record(
            b.spec.label, seed, policy_problems(b) + log_problems(path.read_text(), log, expected)
        )
    if summary_path.read_text() != ref.summary:
        ops.run_problem("summary.csv differs from run_experiment's")
    return Rep(setup_done - start, wall_s, train_s)


def repeat_for(seconds: float, step) -> list:
    """Call ``step`` until one more call would likely end past ``seconds``;
    always at least once."""
    results, start = [], time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(workload, seed, seconds, rounds, work: Path):
    """Metrics with tracing off: medians over repeated whole experiments."""
    ops = Ops()
    ref = Reference.from_run(workload.experiment_config(seed, work / "reference", rounds))
    cfg = workload.experiment_config(seed, work / "rep", rounds)
    reps = repeat_for(seconds, lambda: untraced_rep(cfg, ref, ops))
    # Each (policy, seed) run takes its median time over the repetitions, so
    # a burst of machine noise in one run of one repetition drops out.
    run_s = [
        statistics.median(r.train_s[key] for r in reps if key in r.train_s)
        for key in ref.csv
        if any(key in r.train_s for r in reps)
    ]
    last = [log.records[-1] for log in ref.logs if log.records]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "train_rounds_per_s": (len(run_s) * cfg.rounds / sum(run_s), "rounds/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Quality guardrails: exact at a fixed RNG stream, but their spread across
    # workload seeds exceeds any bound the comparison allows, so they are
    # reported beside the bounded metrics rather than among them.
    quality = {
        "final_train_loss": (statistics.median(r.train_loss for r in last), "loss"),
        "final_consensus_error": (
            statistics.median(r.consensus_error for r in last),
            "distance",
        ),
    }
    return metrics, quality, ops, len(reps)


# --- traced per-layer repetition -------------------------------------------


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, run id).

    A parent index of -1 marks a root span. Repetitions are contiguous runs
    of spans; ``rep_starts`` holds the index where each one begins.
    """

    def __init__(self):
        self.spans = []
        self.rep_starts = []
        self.run_id = ""
        self._open = []

    def begin_rep(self):
        self.rep_starts.append(len(self.spans))

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.run_id)
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def durations(self, name) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def per_rep(self, name, reduce=sum) -> list:
        """``reduce`` over each repetition's durations of ``name``."""
        bounds = self.rep_starts + [len(self.spans)]
        return [
            reduce([e - s for n, s, e, _, _ in self.spans[lo:hi] if n == name])
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")


@dataclass(frozen=True, eq=False)
class TracedObjective(SpectralObjective):
    """The spectral objective with a span around each evaluation."""

    tracer: Tracer | None = None

    def value(self, eps):
        return self.tracer.call("mixing.objective_eval", super().value, eps)


@dataclass
class LayerStats:
    """Per-layer observations that are values, not durations."""

    q: int = 0
    fidelity: list = field(default_factory=list)
    rss_growth_mb: list = field(default_factory=list)
    slots: list = field(default_factory=list)
    traced_train_s: float = 0.0
    untraced_train_s: float = 0.0


def traced_build(tr: Tracer, stats: LayerStats, spec, topology, partition, cfg):
    """``build_policy`` step by step, with a span around each public call."""
    if spec.kind == "matcha":
        md = tr.call("baselines.matching_decomposition", matching_decomposition, topology)
        policy = matcha_policy(md, spec.budget_slots, topology)
        rng = np.random.default_rng(experiment._EPS_MC_SEED)
        e_lap, e_gram = tr.call(
            "baselines.matcha_spectral_moments",
            matcha_spectral_moments,
            policy,
            cfg.eps_mc_samples,
            rng,
        )
    else:
        if spec.kind == "full":
            policy = full_comm_policy(partition)
        elif spec.kind == "bass":
            centrality = tr.call("graph.betweenness_centrality", betweenness_centrality, topology)
            scores = subset_betweenness(centrality, partition)
            probs = tr.call(
                "scheduling.solve_probabilities",
                solve_probabilities,
                scores,
                spec.budget_slots,
                cfg.min_subset_prob,
            )
            policy = SchedulingPolicy(probs, spec.budget_slots)
        else:
            raise ValueError(f"the benchmark does not trace policy kind {spec.kind!r}")
        node_p = node_probabilities(policy.subset_probs, partition)
        rss_before = current_rss_mb()
        moments = tr.call(
            "moments.expected_laplacian_gram", expected_laplacian_gram, topology, partition, node_p
        )
        # Peak after minus resident before: exact when the call sets the
        # process peak (the n^3 tensor at large n), an upper bound otherwise.
        # The two kernel counters update lazily, so clamp tiny negatives.
        stats.rss_growth_mb.append(max(0.0, peak_rss_mb() - rss_before))
        e_lap, e_gram = moments.e_laplacian, moments.e_gram
    objective = TracedObjective(e_lap, e_gram, tracer=tr)
    search = tr.call("mixing.optimize_epsilon", optimize_epsilon, objective)
    return policy.with_epsilon(search.epsilon), search


def traced_training(tr: Tracer, stats: LayerStats, topology, policy, partition, obj, tc):
    """``run_training`` round by round, with a span around each public call."""
    rng = np.random.default_rng(tc.seed)
    state = np.zeros((topology.n, obj.dim))
    if isinstance(policy, SchedulingPolicy):
        name = "scheduling.sample_round"

        def sampler(rng):
            return sample_round(policy, partition, topology, rng)

    else:
        name, sampler = "baselines.sample_round", policy.sample_round
    log = MetricsLog()
    cum_slots = 0
    for t in range(tc.rounds):
        with tr.span("dsgd.round"):
            act = tr.call(name, sampler, rng)
            state = tr.call(
                "dsgd.gradient_step", gradient_step, state, obj, tc.lr_at(t), tc.batch_size, rng
            )
            state = tr.call("dsgd.consensus_step", consensus_step, state, act.mixing_matrix)
            cum_slots += act.slots_used
            log.records.append(
                RoundRecord(
                    round=t + 1,
                    cum_slots=cum_slots,
                    active_subsets=int(act.active_subsets.sum()),
                    train_loss=tr.call("dsgd.global_train_loss", global_train_loss, obj, state),
                    test_metric=tr.call("objectives.test_metric", obj.test_metric, state),
                    consensus_error=tr.call("dsgd.consensus_error", consensus_error, state),
                )
            )
        if name == "scheduling.sample_round":
            stats.slots.append(act.slots_used)
    log.final_state = state
    return log


def _probabilities(policy) -> np.ndarray:
    return policy.match_probs if isinstance(policy, MatchaPolicy) else policy.subset_probs


def traced_rep(tr: Tracer, stats: LayerStats, cfg, first: dict, ops: Ops):
    """One traced experiment. ``first`` collects the first repetition's CSVs,
    which later repetitions must repeat byte for byte."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tr.begin_rep()
    rep = len(tr.rep_starts) - 1
    tr.run_id = f"rep{rep}/setup"
    topology = tr.call("topologies.make_topology", make_topology, cfg.topology)
    partition = tr.call("partition.greedy_partition", greedy_partition, topology)
    md = tr.call("baselines.matching_decomposition", matching_decomposition, topology)
    stats.q = partition.q
    pairs = []
    for spec in experiment._policy_specs(cfg, partition, md):
        replica, search = traced_build(tr, stats, spec, topology, partition, cfg)

        def timed_build(*args, _name=f"experiment.build_policy.{spec.kind}"):
            return tr.call(_name, build_policy, *args)

        built = build_checked(spec, topology, partition, cfg, build=timed_build)
        if search != built.search or not np.array_equal(
            _probabilities(replica), _probabilities(built.policy)
        ):
            ops.run_problem(f"{spec.label}: traced set-up differs from build_policy")
        stats.fidelity.append(budget_fidelity(built))
        pairs.append((built, replica))

    logs = {}
    for built, replica in pairs:
        label = built.spec.label
        logs[label] = {}
        for seed in cfg.seeds:
            tr.run_id = f"rep{rep}/{label}/seed{seed}"
            obj = experiment._build_objective(cfg, topology.n, seed)
            tc = train_config(cfg, seed)
            try:
                t0 = time.perf_counter()
                expected = run_training(topology, built.policy, partition, obj, tc)
                t1 = time.perf_counter()
                log = traced_training(tr, stats, topology, replica, partition, obj, tc)
                t2 = time.perf_counter()
            except Exception:  # a failed run is counted, the rest still run
                ops.record(label, seed, [traceback.format_exc()])
                continue
            stats.untraced_train_s += t1 - t0
            stats.traced_train_s += t2 - t1
            path = out_dir / f"{label}_seed{seed}.csv"
            tr.call("experiment.write_csv", log.write_csv, path)
            logs[label][seed] = log
            text = path.read_text()
            problems = policy_problems(built) + log_problems(text, log, first.get((label, seed)))
            if text != expected.to_csv():
                problems.append("traced replica CSV differs from run_training's")
            first.setdefault((label, seed), text)
            ops.record(label, seed, problems)

    tr.run_id = f"rep{rep}/summary"
    rows = {label: tr.call("experiment.summarize", summarize, by_seed) for label, by_seed in logs.items()}
    text = summary_text(rows)
    tr.call("experiment.write_csv", (out_dir / "summary.csv").write_text, text)
    if first.setdefault("summary", text) != text:
        ops.run_problem("summary.csv is not byte-identical across repetitions")


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(workload, seed, seconds, rounds, work: Path):
    """Metrics from traced repetitions; spans are written out at the end."""
    tr, stats, ops, first = Tracer(), LayerStats(), Ops(), {}
    cfg = workload.experiment_config(seed, work / "traced", rounds)
    repeat_for(seconds, lambda: traced_rep(tr, stats, cfg, first, ops))
    tr.write(ROOT / ".bench_traces" / f"{workload.name}-seed{seed}.jsonl")

    med = statistics.median
    ms = 1e3

    def total_s(name):
        return med(tr.per_rep(name))

    def pct_ms(name, q):
        return _percentile(tr.durations(name), q) * ms

    metrics = {
        "baselines.matcha_spectral_moments_s": (total_s("baselines.matcha_spectral_moments"), "s"),
        "baselines.matching_decomposition_s": (total_s("baselines.matching_decomposition"), "s"),
        "baselines.sample_round_ms.p50": (pct_ms("baselines.sample_round", 50), "ms"),
        "baselines.sample_round_ms.p99": (pct_ms("baselines.sample_round", 99), "ms"),
        "topologies.make_topology_s": (total_s("topologies.make_topology"), "s"),
        "partition.greedy_partition_s": (total_s("partition.greedy_partition"), "s"),
        "partition.q": (stats.q, "count"),
        "graph.betweenness_centrality_s": (total_s("graph.betweenness_centrality"), "s"),
        "moments.expected_laplacian_gram_s": (total_s("moments.expected_laplacian_gram"), "s"),
        "moments.rss_growth_mb": (med(stats.rss_growth_mb) if stats.rss_growth_mb else 0.0, "MB"),
        "mixing.optimize_epsilon_s": (total_s("mixing.optimize_epsilon"), "s"),
        "mixing.objective_evals": (med(tr.per_rep("mixing.objective_eval", len)), "count"),
        "mixing.objective_eval_ms": (pct_ms("mixing.objective_eval", 50), "ms"),
        "scheduling.solve_probabilities_ms": (total_s("scheduling.solve_probabilities") * ms, "ms"),
        "scheduling.budget_fidelity": (min(stats.fidelity), "ratio"),
        "scheduling.sample_round_ms.p50": (pct_ms("scheduling.sample_round", 50), "ms"),
        "scheduling.sample_round_ms.p99": (pct_ms("scheduling.sample_round", 99), "ms"),
        "scheduling.slots_per_round": (float(np.mean(stats.slots)) if stats.slots else 0.0, "slots"),
        "dsgd.gradient_step_ms.p50": (pct_ms("dsgd.gradient_step", 50), "ms"),
        "dsgd.gradient_step_ms.p99": (pct_ms("dsgd.gradient_step", 99), "ms"),
        "dsgd.global_train_loss_ms.p50": (pct_ms("dsgd.global_train_loss", 50), "ms"),
        "objectives.test_metric_ms.p50": (pct_ms("objectives.test_metric", 50), "ms"),
        "dsgd.consensus_step_ms.p50": (pct_ms("dsgd.consensus_step", 50), "ms"),
        "dsgd.consensus_error_ms.p50": (pct_ms("dsgd.consensus_error", 50), "ms"),
        "dsgd.round_ms.p50": (pct_ms("dsgd.round", 50), "ms"),
        "dsgd.round_ms.p99": (pct_ms("dsgd.round", 99), "ms"),
        "experiment.build_policy_s.bass": (total_s("experiment.build_policy.bass"), "s"),
        "experiment.build_policy_s.matcha": (total_s("experiment.build_policy.matcha"), "s"),
        "experiment.build_policy_s.full": (total_s("experiment.build_policy.full"), "s"),
        "experiment.write_csv_s": (total_s("experiment.write_csv"), "s"),
        "experiment.summarize_s": (total_s("experiment.summarize"), "s"),
        "trace.overhead_frac": (stats.traced_train_s / stats.untraced_train_s - 1.0, "ratio"),
    }
    # A percentile is trustworthy only with enough samples beyond it.
    samples = {
        f"samples.{name}": (len(tr.durations(name)), "count")
        for name in (
            "baselines.sample_round",
            "scheduling.sample_round",
            "dsgd.gradient_step",
            "dsgd.round",
            "mixing.objective_eval",
        )
    }
    return metrics, samples, ops, len(tr.rep_starts)


# --- environment and result ------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def git_commit() -> str:
    """HEAD of the checkout read from ``.git``, or "unknown" outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


@dataclass
class Result:
    """Bounded metrics for the last output line; ``report`` holds the
    unbounded ones, printed with the environment and operation counts."""

    metrics: dict
    report: dict
    ops: Ops
    env: dict

    def final_line(self) -> dict:
        return {
            "correct": self.ops.correct,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def report_line(self) -> dict:
        failed_frac = self.ops.failed / max(self.ops.attempted, 1)
        metrics = {**self.report, "ops_failed_frac": (failed_frac, "fraction")}
        return {
            "env": self.env,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "problems": self.ops.problems,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }


def run_benchmark(workload, seed, seconds, trace, blas_threads, rounds=None) -> Result:
    """Run one workload for ``seconds`` seconds; ``rounds`` shortens training."""
    work = ROOT / ".bench_runs" / f"{workload.name}-{os.getpid()}"
    measure = per_layer if trace else end_to_end
    try:
        metrics, report, ops, reps = measure(workload, seed, seconds, rounds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in ops.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    env = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "repetitions": reps,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas": blas_vendor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bass": bass.__version__,
        "commit": git_commit(),
    }
    return Result(metrics, report, ops, env)

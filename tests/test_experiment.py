import dataclasses
import os
import types
import typing
import warnings

import numpy as np
import pytest

import bass.baselines
import bass.graph
from bass import (
    ExperimentConfig,
    MetricsLog,
    PolicySpec,
    RoundRecord,
    TrainConfig,
    betweenness_centrality,
    build_policy,
    greedy_partition,
    load_config,
    matching_decomposition,
    parse_config_text,
    ring_topology,
    run_experiment,
    summarize,
)
from bass.cli import main
from bass.experiment import _CONFIG_PARSERS, _setup

from .graph_helpers import slots_to_reach


def quick_config(tmp_path, **overrides):
    defaults = dict(
        topology="two-stars(4,4)",
        policies=("bass", "matcha", "full"),
        budget_frac=0.5,
        rounds=20,
        seeds=(0, 1, 2),
        objective="quadratic",
        lr=0.3,
        lr_decay=0.1,
        dim=1,
        out_dir=str(tmp_path / "out"),
        eps_mc_samples=2000,
        # plain bass leaves two-stars(4,4)'s zero-betweenness subset silent,
        # which cannot contract (s* = 1)
        min_subset_prob=0.1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_without_warnings(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return run_experiment(cfg)


class TestConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(policies=("gossip",))

    def test_budget_and_frac_conflict(self):
        with pytest.raises(ValueError):
            ExperimentConfig(budget=2.0, budget_frac=0.5)

    @pytest.mark.parametrize("bad", [dict(seeds=()), dict(policies=()), dict(rounds=-1)])
    def test_empty_or_negative_rejected(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_repeated_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds must not repeat"):
            ExperimentConfig(seeds=(0, 1, 0))

    @pytest.mark.parametrize("bad", [
        dict(budget_frac=0.0), dict(budget_frac=1.5), dict(budget_sweep=(0.5, 1.5)),
        dict(budget=0.0), dict(budget=-2.0),
        dict(min_subset_prob=-0.1), dict(min_subset_prob=1.1), dict(budget=float("nan")),
    ])
    def test_out_of_range_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="budget|min_subset_prob"):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("extra", [dict(budget=2.0), dict(budget_frac=0.5)])
    def test_budget_sweep_with_a_budget_rejected(self, extra):
        with pytest.raises(ValueError, match="budget_sweep"):
            ExperimentConfig(budget_sweep=(0.5, 1.0), **extra)

    @pytest.mark.parametrize("key,value", [
        ("lr", 0.0), ("lr", -0.1), ("lr", float("nan")), ("lr_decay", -20.0),
        ("lr_decay", float("nan")), ("batch_size", 0), ("dim", 0),
        ("n_classes", 1), ("n_features", 0), ("eps_mc_samples", 0), ("test_samples", -1),
        ("center_spread", -1.0), ("center_spread", float("nan")),
        ("center_spread", float("inf")), ("epsilon", float("nan")), ("epsilon", -0.5),
        ("epsilon", float("inf")), ("epsilon", "fast"), ("seeds", (0, -1)),
        ("lr", float("inf")), ("lr_decay", float("inf")), ("budget_sweep", ()),
        ("budget_sweep", (0.4, 0.8, 0.4)), ("policies", ("bass", "full", "bass")),
        ("rounds", 2.5), ("seeds", (0.5,)), ("seeds", (0, True)), ("batch_size", 2.5),
        ("dim", True), ("eps_mc_samples", "100"), ("policies", "bass"), ("seeds", "01"),
        ("budget_sweep", "0.4"),
    ])
    def test_out_of_range_training_key_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            ExperimentConfig(**{key: value})

    def test_smallest_training_keys_accepted(self):
        ExperimentConfig(
            lr=1e-9, lr_decay=0.0, batch_size=1, dim=1, n_classes=2, n_features=1,
            eps_mc_samples=1, test_samples=0,
        )

    def test_numpy_integers_and_lists_accepted(self):
        ExperimentConfig(rounds=np.int64(3), dim=np.int32(2), seeds=[np.int64(0), 1],
                         policies=["bass", "full"], budget_sweep=[0.5, 1.0])

    def test_parse_config_text(self):
        text = """
        # comment
        topology = ring(6)
        policy = bass, full
        budget-frac = 0.4
        seeds = 0, 1
        rounds = 10   # trailing comment
        epsilon = auto
        lr = 0.25
        """
        values = parse_config_text(text)
        assert values["topology"] == "ring(6)"
        assert values["policies"] == ("bass", "full")
        assert values["budget_frac"] == 0.4
        assert values["seeds"] == (0, 1)
        assert values["rounds"] == 10
        assert values["epsilon"] == "auto"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("rounds = 5\nbogus = 1\n")

    @pytest.mark.parametrize("text, message", [
        ("rounds = 5\nrounds = 7\n", "^line 2: rounds is already set on line 1$"),
        ("policy = bass\n# full only\npolicies = full\n",
         "^line 3: policies is already set on line 1$"),
        ("min-subset-prob = 0.1\nmin_subset_prob = 0.2\n",
         "^line 2: min_subset_prob is already set on line 1$"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    def test_unconvertible_value_names_line_and_key(self):
        with pytest.raises(ValueError, match="^line 2: rounds: invalid literal"):
            parse_config_text("lr = 0.5\nrounds = abc\n")

    def test_cli_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("topology = ring(6)\nrounds = 10\nlr = 0.5\n")
        cfg = load_config(cfg_file, {"rounds": 99})
        assert cfg.rounds == 99
        assert cfg.lr == 0.5
        assert cfg.topology == "ring(6)"


class TestBuildPolicy:
    def build_full_ring6(self, epsilon):
        t = ring_topology(6)
        spec = PolicySpec(label="full", kind="full", budget_slots=3.0, frac=None)
        return build_policy(spec, t, greedy_partition(t), ExperimentConfig(epsilon=epsilon))

    def test_fixed_epsilon_that_cannot_contract_warns(self):
        # W = I - L on ring(6): L has eigenvalue 4, so s(1) = (1 - 4)^2 = 9
        with pytest.warns(UserWarning, match=r"epsilon = 1 gives s\(epsilon\) = 9 >= 1"):
            policy, search = self.build_full_ring6(1.0)
        assert policy.epsilon == 1.0 and search is None

    def test_contracting_fixed_epsilon_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            policy, search = self.build_full_ring6(0.25)
        assert policy.epsilon == 0.25 and search is None


class TestSummarize:
    def make_log(self, slots, losses):
        records = [
            RoundRecord(i + 1, s, 1, loss, None, 0.0)
            for i, (s, loss) in enumerate(zip(slots, losses))
        ]
        return MetricsLog(records=records)

    def test_median_alignment_no_extrapolation(self):
        logs = {
            0: self.make_log([2, 4, 6], [3.0, 2.0, 1.0]),
            1: self.make_log([3, 6, 9], [3.5, 2.5, 1.5]),
        }
        rows = summarize(logs)
        grid = [r[0] for r in rows]
        # grid clipped to [max of first slots, min of last slots] = [3, 6]
        assert grid == [3, 4, 6]
        by_slot = {r[0]: r[1] for r in rows}
        # at slot 4: seed0 is at loss 2.0, seed1 still at 3.5 -> median 2.75
        assert by_slot[4] == pytest.approx((2.0 + 3.5) / 2)

    def test_empty_logs(self):
        assert summarize({0: MetricsLog()}) == []

    def test_matches_per_grid_point_loop(self):
        rng = np.random.default_rng(59)
        logs = {}
        for seed in range(3):
            slots = np.cumsum(rng.integers(0, 4, size=40))
            records = [
                RoundRecord(
                    i + 1,
                    int(s),
                    1,
                    float(rng.random()),
                    None if seed == 1 and i % 3 == 0 else float(rng.random()),
                    float(rng.random()),
                )
                for i, s in enumerate(slots)
            ]
            logs[seed] = MetricsLog(records=records)
        rows = summarize(logs)
        # the oracle: one searchsorted and one median per grid point
        lo = max(log.records[0].cum_slots for log in logs.values())
        hi = min(log.records[-1].cum_slots for log in logs.values())
        observed = {r.cum_slots for log in logs.values() for r in log.records}
        grid = sorted(g for g in observed if lo <= g <= hi)
        assert [r[0] for r in rows] == grid
        for g, row in zip(grid, rows):
            at = []
            for log in logs.values():
                slots = [r.cum_slots for r in log.records]
                at.append(log.records[np.searchsorted(slots, g, side="right") - 1])
            tests = [r.test_metric for r in at]
            assert row[1] == float(np.median([r.train_loss for r in at]))
            assert row[2] == (None if None in tests else float(np.median(tests)))
            assert row[3] == float(np.median([r.consensus_error for r in at]))
        assert any(row[2] is None for row in rows) and any(row[2] is not None for row in rows)

    def test_slots_to_reach(self):
        log = self.make_log([2, 4, 6], [3.0, 2.0, 1.0])
        assert slots_to_reach(log, 2.5) == 4
        assert slots_to_reach(log, 0.5) is None


class TestRunExperiment:
    def test_file_counting(self, tmp_path):
        cfg = quick_config(tmp_path)
        result = run_without_warnings(cfg)
        run_files = [p for files in result.run_files.values() for p in files.values()]
        assert len(run_files) == 9  # 3 policies x 3 seeds
        assert all(p.exists() for p in run_files)
        assert result.summary_file.exists()
        header = result.summary_file.read_text().splitlines()[0]
        assert header == "policy,cum_slots,train_loss,test_metric,consensus_error"

    def test_zero_rounds_header_only(self, tmp_path):
        cfg = quick_config(tmp_path, rounds=0, policies=("full",), seeds=(0,))
        result = run_experiment(cfg)
        path = result.run_files["full"][0]
        assert path.read_text().splitlines() == [
            "round,cum_slots,active_subsets,train_loss,test_metric,consensus_error"
        ]

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg_a = quick_config(tmp_path, out_dir=str(tmp_path / "a"), seeds=(0, 1))
        cfg_b = quick_config(tmp_path, out_dir=str(tmp_path / "b"), seeds=(0, 1))
        res_a = run_without_warnings(cfg_a)
        res_b = run_without_warnings(cfg_b)
        for label in res_a.run_files:
            for seed in res_a.run_files[label]:
                assert (
                    res_a.run_files[label][seed].read_bytes()
                    == res_b.run_files[label][seed].read_bytes()
                )
        assert res_a.summary_file.read_bytes() == res_b.summary_file.read_bytes()

    def test_budget_sweep_labels(self, tmp_path):
        cfg = quick_config(
            tmp_path,
            policies=("bass",),
            budget_frac=None,
            budget_sweep=(0.4, 0.8),
            seeds=(0,),
            min_subset_prob=0.2,
        )
        result = run_experiment(cfg)
        assert set(result.run_files) == {"bass@0.4", "bass@0.8"}
        assert any("budget-sweep" in line for line in result.report)

    def test_budget_sweep_runs_full_once_and_compares_only_the_fractions(self, tmp_path):
        cfg = quick_config(
            tmp_path, policies=("bass", "full"), budget_frac=None, budget_sweep=(0.4, 0.8),
            seeds=(0,), rounds=4,
        )
        result = run_experiment(cfg)
        assert list(result.run_files) == ["bass@0.4", "bass@0.8", "full"]
        sweep = [line for line in result.report if line.startswith("budget-sweep")]
        assert len(sweep) == 2
        assert all(line.startswith("budget-sweep bass: ") for line in sweep)

    def test_budget_sweep_computes_centrality_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return betweenness_centrality(t)

        monkeypatch.setattr(bass.graph, "betweenness_centrality", counted)
        cfg = quick_config(
            tmp_path, policies=("bass",), budget_frac=None, budget_sweep=(0.4, 0.6, 0.8),
            seeds=(0,), min_subset_prob=0.2, rounds=2,
        )
        assert len(run_experiment(cfg).run_files) == 3
        assert len(calls) == 1

    def test_budget_sweep_decomposes_matchings_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return matching_decomposition(t)

        monkeypatch.setattr(bass.baselines, "matching_decomposition", counted)
        cfg = quick_config(
            tmp_path, policies=("matcha",), budget_frac=None, budget_sweep=(0.4, 0.6, 0.8),
            seeds=(0,), rounds=2,
        )
        assert len(run_experiment(cfg).run_files) == 3
        assert len(calls) == 1

    def test_only_matcha_decomposes_matchings(self, tmp_path, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return matching_decomposition(t)

        monkeypatch.setattr(bass.baselines, "matching_decomposition", counted)
        run_experiment(quick_config(tmp_path, policies=("bass",), seeds=(0,), rounds=2))
        argv = ["optimize-eps", "--topology", "two-stars(4,4)", "--policy", "bass",
                "--min-subset-prob", "0.1"]
        assert main(argv) == 0
        assert calls == []
        run_experiment(quick_config(tmp_path, policies=("bass", "matcha"), seeds=(0,), rounds=2))
        assert len(calls) == 1

    def test_bad_budget_fails_before_any_output(self, tmp_path):
        # full is feasible and listed first, yet nothing may be written before
        # the bass build fails
        with pytest.raises(ValueError, match="infeasible"):
            run_experiment(quick_config(tmp_path, policies=("full", "bass"),
                                        budget_frac=None, budget=99.0))
        assert not (tmp_path / "out").exists()

    def test_report_states_achieved_budget_on_shortfall(self, tmp_path):
        # plain bass on two-stars(4,4) gives the zero-betweenness subset
        # nothing, so 0.5 of the requested 2.5 slots cannot be spent
        cfg = quick_config(tmp_path, policies=("bass", "matcha", "full"), seeds=(0,), rounds=1,
                           min_subset_prob=0.0)
        with pytest.warns(UserWarning, match="unattainable"):
            result = run_experiment(cfg)
        lines = {line.split(":")[0]: line for line in result.report}
        assert lines["bass@0.5"].startswith("bass@0.5: budget 2.5 slots, achieved 2 slots, ")
        assert "achieved" not in lines["matcha@0.5"]
        assert "achieved" not in lines["full"]

    def test_same_seed_same_data_across_policies(self, tmp_path):
        cfg = quick_config(tmp_path, policies=("bass", "full"), seeds=(5,), rounds=3)
        result = run_without_warnings(cfg)
        # both policies face the same objective: identical loss at round 0
        # is too strict (policies mix differently), but the logs must exist
        # and start from the same cumulative-slot origin of their own policy
        bass_log = result.logs["bass@0.5"][5]
        full_log = result.logs["full"][5]
        assert bass_log.records[0].round == full_log.records[0].round == 1

    def test_logistic_smoke(self, tmp_path):
        cfg = quick_config(
            tmp_path,
            objective="logistic",
            policies=("full",),
            seeds=(0,),
            rounds=5,
            n_samples=80,
            test_samples=40,
        )
        result = run_experiment(cfg)
        log = result.logs["full"][0]
        assert log.records[-1].test_metric is not None
        assert 0.0 <= log.records[-1].test_metric <= 1.0

    def test_logistic_without_test_samples_leaves_the_test_column_empty(self, tmp_path):
        cfg = quick_config(
            tmp_path, objective="logistic", policies=("full",), seeds=(0,), rounds=3,
            n_samples=80, test_samples=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(cfg)
        assert all(r.test_metric is None for r in result.logs["full"][0].records)
        rows = result.run_files["full"][0].read_text().splitlines()[1:]
        assert rows and all(row.split(",")[4] == "" for row in rows)
        summary = result.summary_file.read_text().splitlines()[1:]
        assert summary and all(row.split(",")[3] == "" for row in summary)

    def test_degenerate_policy_is_flagged(self, tmp_path):
        # plain proportional scheduling on a star silences the leaves, no
        # link is ever bidirectional, and the epsilon search degenerates
        cfg = quick_config(
            tmp_path, topology="star(6)", policies=("bass",), seeds=(0,), rounds=3,
            min_subset_prob=0.0,
        )
        with pytest.warns(UserWarning):
            result = run_experiment(cfg)
        assert any("degenerate" in line for line in result.report)
        # identity mixing: gradients pull the nodes apart and nothing mixes
        errs = [r.consensus_error for r in result.logs["bass@0.5"][0].records]
        assert errs == sorted(errs) and errs[-1] > 0


# Both config classes, with the least keyword arguments each one needs.
_CONFIG_CLASSES = [(ExperimentConfig, {}), (TrainConfig, {"rounds": 5, "lr": 0.1})]
_FIELDS = [
    pytest.param(cls, base, f.name, typing.get_type_hints(cls)[f.name], id=f"{cls.__name__}.{f.name}")
    for cls, base in _CONFIG_CLASSES
    for f in dataclasses.fields(cls)
]


def _united(hint):
    """The types a field of type ``hint`` unites."""
    return typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)


def _is_tuple(hint) -> bool:
    return any(typing.get_origin(m) is tuple for m in _united(hint))


def _members(hint):
    """The types a field of type ``hint`` unites, tuple item types unwrapped."""
    return {typing.get_args(m)[0] if typing.get_origin(m) is tuple else m for m in _united(hint)}


def _wrong_values(hint):
    """Values of the wrong kind for a field of type ``hint``: a bool for a
    numeric field, a float for an int field, an int for a str field, a str
    for a numeric field and None where None is not allowed; a tuple field
    gets each as its one item."""
    members = _members(hint)
    wrong = []
    if members & {int, float}:
        wrong += [True, "1"]
    if int in members:
        wrong.append(2.5)
    if str in members and not members & {int, float}:
        wrong.append(5)
    if _is_tuple(hint):
        wrong = [(value,) for value in wrong]
    if type(None) not in members:
        wrong.append(None)
    return wrong


def _numpy_value(value):
    """``value`` with numpy scalars for its numbers and lists for its tuples."""
    if isinstance(value, tuple):
        return [_numpy_value(item) for item in value]
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, float):
        return np.float32(value)
    return value


# A sample token of each key; a key not named here takes its type's token.
_TOKENS = {"policies": "bass, full", "objective": "logistic", "out_dir": "runs"}
_TYPE_TOKENS = {
    int: "3", float: "0.5", str: "ring(6)", float | None: "0.5", float | str: "0.25",
    tuple[int, ...]: "0, 1", tuple[float, ...] | None: "0.4, 0.8",
}


class TestFieldTypes:
    @pytest.mark.parametrize("cls,base,key,hint", _FIELDS)
    def test_a_value_of_the_wrong_kind_names_its_key(self, cls, base, key, hint):
        wrong = _wrong_values(hint)
        assert wrong
        for value in wrong:
            with pytest.raises(ValueError, match=f"^{key} must"):
                cls(**{**base, key: value})

    @pytest.mark.parametrize("key", list(_CONFIG_PARSERS))
    def test_parsed_tokens_numpy_scalars_and_lists_accepted(self, key):
        parse = _CONFIG_PARSERS[key][0]
        hint = typing.get_type_hints(ExperimentConfig)[key]
        value = parse(_TOKENS.get(key, _TYPE_TOKENS.get(hint, "")))
        for accepted in (value, _numpy_value(value)):
            assert getattr(ExperimentConfig(**{key: accepted}), key) is accepted

    @pytest.mark.parametrize(
        "cls,base,key,hint", [p for p in _FIELDS if _members(p.values[3]) & {int, float}]
    )
    def test_ints_and_numpy_numbers_accepted(self, cls, base, key, hint):
        if float in _members(hint):
            values = [1, np.int64(1), np.float64(1.0), np.float32(1.0)]
        else:
            values = [3, np.int32(3), np.uint16(3)]
        if _is_tuple(hint):
            values = [[v] for v in values] + [tuple(values[:1])]
        for value in values:
            cls(**{**base, key: value})

    def test_epsilon_auto_and_a_path_out_dir_accepted(self, tmp_path):
        assert ExperimentConfig(epsilon=_CONFIG_PARSERS["epsilon"][0](" auto ")).epsilon == "auto"
        cfg = quick_config(tmp_path, out_dir=tmp_path / "out", policies=("full",), seeds=(0,),
                           rounds=2)
        assert isinstance(cfg.out_dir, os.PathLike)
        assert run_without_warnings(cfg).run_files["full"][0] == tmp_path / "out" / "full_seed0.csv"

    @pytest.mark.parametrize("bad", [
        dict(epsilon=True), dict(lr=True), dict(min_subset_prob=False), dict(topology=5),
        dict(budget_frac=True), dict(budget_sweep=(True,)), dict(budget=float("inf")),
        dict(out_dir=b"runs"), dict(policies=("bass", 5)),
    ])
    def test_values_accepted_before_are_rejected(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=f"^{key} must"):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(rounds=2.5), dict(lr=True), dict(batch_size=2.5), dict(seed=1.0), dict(seed=True),
        dict(rounds=-1), dict(batch_size=0),
    ])
    def test_train_config_is_the_check_of_the_training_keys(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=f"^{key} must"):
            TrainConfig(**{"rounds": 5, "lr": 0.1, **bad})
        if key != "seed":
            with pytest.raises(ValueError, match=f"^{key} must"):
                ExperimentConfig(**bad)


def _specs(**fields):
    return [(s.label, s.kind, s.budget_slots, s.frac) for s in _setup(ExperimentConfig(**fields))[2]]


class TestPolicySpecs:
    @pytest.mark.parametrize("fields,expected", [
        # the headline, large-er and sweep benchmark workloads, then an
        # absolute budget: the labels, order and slots of the earlier rule
        (dict(topology="two-stars(6,6)", policies=("bass", "matcha", "full"), budget_frac=0.5),
         [("bass@0.5", 3.5), ("matcha@0.5", 6.0), ("full", 7.0)]),
        (dict(topology="er(400,0.012,1)", budget_frac=0.5), [("bass@0.5", 6.5)]),
        (dict(topology="er(100,0.05,3)", budget_sweep=(0.2, 0.4, 0.6, 0.8, 1.0)),
         [("bass@0.2", 3.0), ("bass@0.4", 6.0), ("bass@0.6", 9.0), ("bass@0.8", 12.0),
          ("bass@1", 15.0)]),
        (dict(topology="two-stars(6,6)", policies=("bass", "uniform", "matcha", "full"),
              budget=2.5),
         [("bass@B2.5", 2.5), ("uniform@B2.5", 2.5), ("matcha@B2.5", 2.5), ("full", 7.0)]),
        (dict(topology="two-stars(4,4)", policies=("full", "bass", "matcha"),
              budget_sweep=(0.3, 0.7)),
         [("full", 5.0), ("bass@0.3", 1.5), ("bass@0.7", 3.5), ("matcha@0.3", 2.4),
          ("matcha@0.7", 5.6)]),
    ])
    def test_labels_order_and_slots(self, fields, expected):
        assert [(label, slots) for label, _, slots, _ in _specs(**fields)] == expected

    def test_full_once_with_no_fraction_in_a_sweep(self):
        specs = _specs(policies=("bass", "full"), budget_sweep=(0.4, 0.8))
        assert specs == [("bass@0.4", "bass", 2.0, 0.4), ("bass@0.8", "bass", 4.0, 0.8),
                         ("full", "full", 5.0, None)]

    def test_default_fraction_is_a_half(self):
        assert _specs() == [("bass@0.5", "bass", 2.5, 0.5)]

    def test_colliding_labels_rejected_before_any_output(self, tmp_path):
        cfg = ExperimentConfig(
            policies=("bass", "full"), budget_sweep=(0.1, 0.1000001, 0.5),
            min_subset_prob=0.01, out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ValueError, match=r"^budget_sweep must.*\[0\.1, 0\.1000001\]"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_colliding_labels_fail_the_cli(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--rounds", "5", "--policy", "bass", "--budget-sweep", "0.1,0.1000001",
                "--min-subset-prob", "0.01", "--out-dir", str(out)]
        assert main(argv) == 1
        assert "budget_sweep must" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run", "--rounds", "5", "--policy", "full", "--budget", "inf",
                     "--out-dir", str(out)]) == 1
        assert "budget must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

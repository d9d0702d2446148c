import dataclasses
import shlex
from pathlib import Path

import numpy as np
import pytest

from bass import ExperimentConfig, build_policy, greedy_partition, load_config, make_topology
from bass.cli import _build_parser, _config, main
from bass.experiment import _CONFIG_PARSERS, POLICY_KINDS, _policy_specs

# Every ExperimentConfig key set to a value other than its default, written
# the same way in a config file and on the command line. budget, budget_frac
# and budget_sweep exclude one another, so a config takes one of them.
EVERY_KEY = {
    "topology": "ring(6)",
    "policies": "uniform, full",
    "budget": "2.5",
    "budget_frac": "0.4",
    "budget_sweep": "0.3, 0.6",
    "rounds": "7",
    "seeds": "3, 1",
    "objective": "logistic",
    "lr": "0.2",
    "lr_decay": "0.05",
    "batch_size": "4",
    "dim": "3",
    "epsilon": "0.25",
    "min_subset_prob": "0.05",
    "out_dir": "elsewhere",
    "n_samples": "120",
    "n_classes": "4",
    "n_features": "5",
    "test_samples": "50",
    "center_spread": "2.0",
    "eps_mc_samples": "500",
}
BUDGET_KEYS = ("budget", "budget_frac", "budget_sweep")
README = Path(__file__).resolve().parent.parent / "README.md"


def run_flags(values):
    flag = lambda key: "--policy" if key == "policies" else "--" + key.replace("_", "-")
    return [token for key, raw in values.items() for token in (flag(key), raw)]


class TestPartitionDump:
    def test_ring6(self, capsys):
        assert main(["partition-dump", "--topology", "ring(6)"]) == 0
        assert capsys.readouterr().out == "0 3\n1 4\n2 5\n"

    def test_matchings(self, capsys):
        assert main(["partition-dump", "--topology", "path(3)", "--matchings"]) == 0
        assert capsys.readouterr().out == "0-1\n1-2\n"

    def test_bad_topology_is_diagnosed(self, capsys):
        assert main(["partition-dump", "--topology", "blob(3)"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMomentsCheck:
    def test_small_deviations_reported(self, capsys):
        code = main([
            "moments-check", "--topology", "ring(6)", "--policy", "bass",
            "--budget-frac", "0.5", "--samples", "5000", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed - MC" in out
        assert out.count("closed - enum") == 2
        assert "enumeration skipped" not in out
        # parse the reported deviations and sanity-bound them
        devs = [float(line.rsplit(":", 1)[1]) for line in out.strip().splitlines()[1:]]
        assert max(devs[2:]) < 1e-12  # enumeration rows are exact
        assert max(devs[:2]) < 0.2

    def test_enumeration_skipped_when_too_costly(self, capsys):
        # q = 13 and n = 400: 2^13 dense 400 x 400 rounds is past the cost gate
        code = main(["moments-check", "--topology", "er(400,0.012,1)", "--samples", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "enumeration skipped: 2^units * n^3 = 2^13 * 400^3 exceeds 2^32" in out
        assert "closed - enum" not in out
        assert out.count("closed - MC") == 2

    def test_matcha_against_both_oracles(self, capsys):
        # two-stars(6,6) has r = 6 matchings: 2^6 patterns are enumerated
        code = main(["moments-check", "--topology", "two-stars(6,6)", "--policy", "matcha",
                     "--budget-frac", "0.5", "--samples", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("policy matcha@0.5 on two-stars(6,6): ")
        devs = [float(line.rsplit(":", 1)[1]) for line in out.strip().splitlines()[1:]]
        assert len(devs) == 4
        assert max(devs[2:]) <= 1e-12
        assert max(devs[:2]) < 0.2


class TestOptimizeEps:
    def test_full_comm_path3(self, capsys):
        code = main(["optimize-eps", "--topology", "path(3)", "--policy", "full"])
        assert code == 0
        out = capsys.readouterr().out
        eps = float([l for l in out.splitlines() if l.startswith("eps_star")][0].split("=")[1])
        s = float([l for l in out.splitlines() if l.startswith("s_star")][0].split("=")[1].split()[0])
        assert eps == pytest.approx(0.5, abs=1e-4)
        assert s == pytest.approx(0.25, abs=1e-6)
        # E[L~] = L has eigenvalues 0, 1, 3; the 0 belongs to the ones vector
        rho = float(out.split("rho(E[W] - J) =")[1].split()[0])
        assert rho == pytest.approx(max(abs(1.0 - eps * lam) for lam in (1.0, 3.0)), abs=1e-7)

    def test_prints_certificate(self, capsys):
        code = main(["optimize-eps", "--topology", "er(60,0.1,2)", "--policy", "bass",
                     "--budget-frac", "0.5", "--min-subset-prob", "0.01"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        value = lambda key: [l for l in lines if l.startswith(key)][0].split("=")[1].split()[0]
        s_star, s_lower = float(value("s_star")), float(value("s_lower"))
        assert s_lower <= s_star <= s_lower + 1e-8  # printed to 8 digits
        assert 1 <= int(value("evaluations")) <= 30

    def test_matcha_mean_is_exact_path3(self, capsys):
        # two single-edge matchings at p = 0.5: E[L~] = L / 2, and L of
        # path(3) has eigenvalues 0, 1, 3, so rho = max |1 - eps * lam / 2|
        code = main(["optimize-eps", "--topology", "path(3)", "--policy", "matcha",
                     "--budget-frac", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        value = lambda key: float(
            [l for l in out.splitlines() if l.startswith(key)][0].split("=")[-1].split()[0]
        )
        eps = value("eps_star")
        expected = max(abs(1.0 - eps * lam / 2.0) for lam in (1.0, 3.0))
        assert value("rho(E[W] - J)") == pytest.approx(expected, abs=1e-7)

    def test_no_contraction_warns(self, capsys):
        # plain bass on two stars gives the leaves probability 0
        with pytest.warns(UserWarning, match="min_subset_prob"):
            code = main(["optimize-eps", "--policy", "bass"])
        assert code == 0
        assert "s_star   = 1 " in capsys.readouterr().out

    def test_unmet_budget_reported(self, capsys):
        # the leaves' subsets score 0, so only the two hubs' subsets spend slots
        with pytest.warns(UserWarning, match="unattainable"):
            code = main(["optimize-eps", "--topology", "two-stars(6,6)", "--policy", "bass",
                         "--budget", "7"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["policy bass@B7 on two-stars(6,6)", "budget 7 slots, achieved 2 slots"]

    def test_uniform_floor_above_its_share_fails(self, capsys):
        code = main(["optimize-eps", "--topology", "two-stars(6,6)", "--policy", "uniform",
                     "--budget-frac", "0.05", "--min-subset-prob", "0.5"])
        assert code == 1
        assert "error: floor 0.5 needs at least 3.5 budget" in capsys.readouterr().err

    def test_uniform_share_meeting_the_floor_is_unchanged(self, capsys):
        # q = 7 subsets, budget 3.5: every subset at 0.5 whatever the floor below it
        common = ["--topology", "two-stars(6,6)", "--policy", "uniform", "--budget-frac", "0.5"]
        assert main(["optimize-eps"] + common) == 0
        plain = capsys.readouterr().out
        assert main(["optimize-eps", "--min-subset-prob", "0.1"] + common) == 0
        assert capsys.readouterr().out == plain

    def test_epsilon_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["optimize-eps", "--topology", "path(3)", "--epsilon", "0.3"])

    @pytest.mark.parametrize("topology", ["two-stars(6,6)", "er(30,0.2,1)"])
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_prints_the_search_of_build_policy(self, capsys, topology, kind):
        assert main(["optimize-eps", "--topology", topology, "--policy", kind,
                     "--budget-frac", "0.5", "--min-subset-prob", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = ExperimentConfig(topology=topology, policies=(kind,), budget_frac=0.5,
                               min_subset_prob=0.1)
        t = make_topology(topology)
        partition = greedy_partition(t)
        (spec,) = _policy_specs(cfg, partition, t.matching_decomposition)
        _, search = build_policy(spec, t, partition, cfg)
        assert f"eps_star = {search.epsilon:.8g}" in lines
        for printed in (f"s_star   = {search.value:.8g}  (", f"s_lower  = {search.lower:.8g}  (",
                        f"evaluations = {search.evaluations}  ("):
            assert sum(line.startswith(printed) for line in lines) == 1, printed

    def test_several_policies_rejected(self, capsys):
        code = main(["optimize-eps", "--topology", "path(3)", "--policy", "bass,full"])
        assert code == 1
        assert "exactly one policy" in capsys.readouterr().err


@pytest.mark.parametrize("flags, label", [
    (["--policy", "uniform", "--budget", "2"], "uniform@B2"),
    (["--policy", "bass", "--budget-frac", "0.4", "--min-subset-prob", "0.1"], "bass@0.4"),
    (["--policy", "full"], "full"),
    (["--policy", "matcha"], "matcha@0.5"),
])
def test_same_spec_label_in_every_command(tmp_path, capsys, flags, label):
    common = ["--topology", "ring(6)"] + flags
    assert main(["moments-check", "--samples", "10"] + common) == 0
    assert main(["optimize-eps"] + common) == 0
    assert main(["run", "--rounds", "1", "--out-dir", str(tmp_path)] + common) == 0
    out = capsys.readouterr().out
    assert out.count(f"policy {label} on ring(6)") == 2
    assert f"{label}: budget" in out


class TestRun:
    def test_quadratic_run_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main([
            "run", "--topology", "ring(6)", "--policy", "bass,full",
            "--budget-frac", "0.5", "--objective", "quadratic",
            "--rounds", "5", "--seeds", "0,1", "--lr", "0.2",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
        assert csvs == [
            "bass-0.5_seed0.csv",
            "bass-0.5_seed1.csv",
            "full_seed0.csv",
            "full_seed1.csv",
            "summary.csv",
        ]

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out_dir = tmp_path / "out"
        cfg.write_text(
            "topology = path(4)\npolicy = full\nobjective = quadratic\n"
            f"rounds = 8\nlr = 0.3\nseeds = 0\nout-dir = {out_dir}\n"
        )
        code = main(["run", "--config", str(cfg), "--rounds", "2"])
        assert code == 0
        run_csv = out_dir / "full_seed0.csv"
        assert len(run_csv.read_text().strip().splitlines()) == 3  # header + 2

    def test_infeasible_budget_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "run", "--topology", "ring(6)", "--policy", "bass",
            "--budget", "99", "--rounds", "1",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_training_key_fails_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code = main([
            "run", "--topology", "ring(6)", "--lr-decay", "-20", "--rounds", "30",
            "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "error: lr_decay must be nonnegative" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "o1"
        code = main(["run", "--seeds", "0,-1", "--rounds", "3", "--out-dir", str(out_dir)])
        assert code == 1
        assert "error: seeds must be one or more nonnegative integers" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_repeated_seed_fails_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "o1"
        code = main([
            "run", "--topology", "ring(6)", "--seeds", "0,0", "--rounds", "3",
            "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "error: seeds must not repeat" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_too_few_logistic_samples_fail_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code = main([
            "run", "--topology", "ring(6)", "--objective", "logistic",
            "--n-samples", "5", "--rounds", "3", "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "error: n_samples must be at least 12" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_every_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out_dir = tmp_path / "out"
        cfg.write_text(
            "topology = ring(6)\nseeds = 5\nmin_subset_prob = 0.2\nepsilon = 0.1\n"
            f"rounds = 2\nout-dir = {out_dir}\n"
        )
        with pytest.warns(UserWarning, match="min_subset_prob"):
            code = main([
                "run", "--config", str(cfg), "--topology", "two-stars(4,4)",
                "--seeds", "0", "--min-subset-prob", "0", "--epsilon", "auto",
            ])
        assert code == 0
        report = capsys.readouterr().out.splitlines()[0]
        assert report.startswith("bass@0.5: budget 2.5 slots")  # q = 5
        assert "objective" in report
        assert sorted(p.name for p in out_dir.glob("*.csv")) == [
            "bass-0.5_seed0.csv", "summary.csv",
        ]

    def test_budget_sweep_compares_each_policy_kind(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--topology", "two-stars(4,4)", "--policy", "bass,uniform",
            "--budget-sweep", "0.4,0.8", "--rounds", "20", "--min-subset-prob", "0.1",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # Each kind's comparison is built from its own summary.csv curves.
        curves = {}
        for row in (out_dir / "summary.csv").read_text().splitlines()[1:]:
            label, slots, loss = row.split(",")[:3]
            curves.setdefault(label, []).append((int(slots), float(loss)))
        for kind in ("bass", "uniform"):
            horizon = min(curves[f"{kind}@{f}"][-1][0] for f in ("0.4", "0.8"))
            losses = ", ".join(
                f"{f}->{[l for s, l in curves[f'{kind}@{f}'] if s <= horizon][-1]:.6g}"
                for f in ("0.4", "0.8")
            )
            expected = f"budget-sweep {kind}: median train loss at horizon {horizon} slots: {losses}"
            assert expected in lines
            assert sum(line.startswith(f"budget-sweep {kind}: best fraction") for line in lines) == 1

    def test_empty_budget_sweep_fails_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code = main(["run", "--budget-sweep", "", "--rounds", "3", "--out-dir", str(out_dir)])
        assert code == 1
        assert "error: budget_sweep must be one or more fractions" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_and_flags_parse_every_key_alike(self, tmp_path):
        assert set(EVERY_KEY) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        default = ExperimentConfig()
        for budget_key in BUDGET_KEYS:
            values = {key: raw for key, raw in EVERY_KEY.items()
                      if key not in BUDGET_KEYS or key == budget_key}
            path = tmp_path / f"{budget_key}.cfg"
            path.write_text("".join(f"{key} = {raw}\n" for key, raw in values.items()))
            from_file = load_config(path)
            assert from_file == _config(_build_parser().parse_args(["run", *run_flags(values)]))
            assert [key for key in values if getattr(from_file, key) == getattr(default, key)] == []

    def test_seed_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--seed", "3", "--out-dir", str(tmp_path)])


def readme_section(heading):
    """The lines of README.md under ``heading`` up to the next ``##`` or
    ``###`` heading."""
    lines = README.read_text().splitlines()
    start = lines.index(heading) + 1
    ends = [i for i in range(start, len(lines)) if lines[i].startswith(("## ", "### "))]
    return lines[start : ends[0] if ends else len(lines)]


class TestReadme:
    def test_quick_start_commands_exit_zero(self, tmp_path, monkeypatch):
        section = "\n".join(readme_section("## Quick start"))
        script = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line) for line in script.splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
        assert len(commands) == 5
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert argv[0] == "bass"
            assert main(argv[1:]) == 0, argv

    def test_config_table_lists_every_key_with_its_default(self):
        rows = [line.split("|")[1:3] for line in readme_section("## Configuration")
                if line.startswith("| `")]
        table = {key.strip().strip("`"): default.strip() for key, default in rows}
        fields = dataclasses.fields(ExperimentConfig)
        assert list(table) == [f.name for f in fields]
        for f in fields:
            cell = table[f.name]
            if f.default is None:
                assert cell == "unset", f.name
            else:
                assert cell[0] == cell[-1] == "`", f.name
                assert _CONFIG_PARSERS[f.name][0](cell[1:-1]) == f.default, f.name

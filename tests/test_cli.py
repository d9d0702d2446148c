import numpy as np
import pytest

from bass.cli import main


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
        assert "closed - enum" in out
        # parse the reported deviations and sanity-bound them
        devs = [float(line.rsplit(":", 1)[1]) for line in out.strip().splitlines()[1:]]
        assert max(devs[2:]) < 1e-12  # enumeration rows are exact
        assert max(devs[:2]) < 0.2

    def test_matcha_unsupported(self, capsys):
        code = main(["moments-check", "--topology", "ring(6)", "--policy", "matcha"])
        assert code == 2


class TestOptimizeEps:
    def test_full_comm_path3(self, capsys):
        code = main(["optimize-eps", "--topology", "path(3)", "--policy", "full"])
        assert code == 0
        out = capsys.readouterr().out
        eps = float([l for l in out.splitlines() if l.startswith("eps_star")][0].split("=")[1])
        s = float([l for l in out.splitlines() if l.startswith("s_star")][0].split("=")[1].split()[0])
        assert eps == pytest.approx(0.5, abs=1e-4)
        assert s == pytest.approx(0.25, abs=1e-6)
        assert "rho(E[W] - J)" in out

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

    def test_epsilon_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["optimize-eps", "--topology", "path(3)", "--epsilon", "0.3"])

    def test_several_policies_rejected(self, capsys):
        code = main(["optimize-eps", "--topology", "path(3)", "--policy", "bass,full"])
        assert code == 1
        assert "exactly one policy" in capsys.readouterr().err


@pytest.mark.parametrize("flags, label", [
    (["--policy", "uniform", "--budget", "2"], "uniform@B2"),
    (["--policy", "bass", "--budget-frac", "0.4", "--min-subset-prob", "0.1"], "bass@0.4"),
    (["--policy", "full"], "full"),
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

    def test_seed_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--seed", "3", "--out-dir", str(tmp_path)])

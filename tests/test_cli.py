"""Command-line entry points, driven through main() for exit codes."""
import numpy as np
import pytest

from dyntarget import load_dataset, load_dp_table, load_model, load_qtable
from dyntarget.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

TINY_CFG = """
datasets.length = 400
datasets.train_count = 1
datasets.test_count = 2
bc.keep_prob = 0.5
bc.max_epochs = 5
bc.patience = 2
qlearn.sweeps = 5
"""


@pytest.fixture
def cfg(tmp_path):
    def write(extra=""):
        path = tmp_path / "bench.cfg"
        path.write_text(TINY_CFG + extra, encoding="utf-8")
        return str(path)

    return write


def test_gen_writes_datasets(tmp_path, cfg, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--config", cfg(), "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "test00.dtg", "test00.dtg.manifest",
        "test01.dtg", "test01.dtg.manifest",
        "train00.dtg", "train00.dtg.manifest",
    ]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all("fractions" in line for line in lines)
    a = load_dataset(out / "test00.dtg")
    b = load_dataset(out / "test01.dtg")
    assert a.length == 400
    assert a.digest() != b.digest()  # consecutive seeds
    manifest = (out / "train00.dtg.manifest").read_text()
    assert "scenario=cloud_avoidance" in manifest
    assert "seed=100" in manifest


def test_dp_plans_a_dataset(tmp_path, cfg, capsys):
    data = tmp_path / "data"
    main(["gen", "--config", cfg(), "--out", str(data)])
    out = tmp_path / "plan"
    code = main(["dp", "--config", cfg(), "--data", str(data / "test00.dtg"),
                 "--out", str(out)])
    assert code == EXIT_OK
    table = load_dp_table(out / "test00.dpt")
    assert table.horizon == 400
    assert table.strip_digest == load_dataset(data / "test00.dtg").digest()
    assert "optimal reward from full charge" in capsys.readouterr().out


def test_dp_missing_dataset_is_a_data_error(tmp_path, cfg, capsys):
    code = main(["dp", "--config", cfg(), "--data", str(tmp_path / "nope.dtg"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_bad_config_is_a_config_error(tmp_path, cfg, capsys):
    code = main(["eval", "--config", cfg("turbo = on\n"), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_a_data_error(tmp_path):
    code = main(["gen", "--config", str(tmp_path / "ghost.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_train_q_writes_a_table(tmp_path, cfg, capsys):
    out = tmp_path / "out"
    assert main(["train-q", "--config", cfg(), "--out", str(out)]) == EXIT_OK
    table = load_qtable(out / "qtable.dtq")
    assert table.q.any()
    assert "trained on 1 strips" in capsys.readouterr().out
    manifest = (out / "qtable.dtq.manifest").read_text()
    assert "sweeps=5" in manifest


def test_train_bc_writes_a_model(tmp_path, cfg, capsys):
    out = tmp_path / "out"
    assert main(["train-bc", "--config", cfg(), "--out", str(out)]) == EXIT_OK
    model = load_model(out / "bc_model.dtm")
    assert model.layer_sizes == (13, 32, 16, 8, 4, 1)
    assert "13x32x16x8x4x1" in capsys.readouterr().out


def test_eval_writes_reports(tmp_path, cfg, capsys):
    out = tmp_path / "out"
    extra = "roster = random, greedy_radar, qlearn, dp\n"
    assert main(["eval", "--config", cfg(extra), "--out", str(out)]) == EXIT_OK
    assert (out / "report.csv").is_file()
    assert (out / "report.md").is_file()
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 2 + 4
    assert capsys.readouterr().out.count("wrote") == 2


def test_eval_rerun_with_new_rewards_replans(tmp_path, cfg):
    out = tmp_path / "out"
    for extra in ("roster = greedy_radar, dp\n", "roster = greedy_radar, dp\nrewards.high = 1000\n"):
        assert main(["eval", "--config", cfg(extra), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        dp_pcts = [float(row[3]) for row in rows if row[0] == "dp"]
        assert len(dp_pcts) == 3
        assert all(pct == 100.0 for pct in dp_pcts)
    # one table per strip and reward model
    assert len(list((out / "dp_cache").glob("*.dpt"))) == 4


def test_eval_seed_override_moves_the_random_policy(tmp_path, cfg):
    extra = "roster = random, dp\n"

    def random_rewards(seed, out):
        main(["eval", "--config", cfg(extra), "--seed", str(seed), "--out", str(out)])
        lines = (out / "report.csv").read_text().splitlines()[1:]
        return [line.split(",")[2] for line in lines if line.startswith("random,")]

    a = random_rewards(1, tmp_path / "a")
    b = random_rewards(2, tmp_path / "b")
    assert a != b


def test_curve_writes_points(tmp_path, cfg):
    out = tmp_path / "out"
    code = main(["curve", "--config", cfg(), "--fractions", "0.5,1.0",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "learner,fraction,mean_pct,min_pct,max_pct"
    assert len(lines) == 1 + 2 * 2


def test_latency_prints_per_policy_stats(tmp_path, cfg, capsys):
    extra = "roster = random, greedy_window, dp\n"
    code = main(["latency", "--config", cfg(extra), "--steps", "50",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "policy,mean_us,p50_us,p95_us,max_us"
    timed = [line.split(",")[0] for line in lines[1:]]
    assert timed == ["random", "greedy_window"]  # the planner is not timed
    for line in lines[1:]:
        assert all(float(f) > 0 for f in line.split(",")[1:])

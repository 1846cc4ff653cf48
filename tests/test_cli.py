"""Command-line entry points, driven through main() for exit codes."""
import dataclasses
import hashlib
import struct
import warnings

import numpy as np
import pytest

from dyntarget import (
    QTable,
    bench,
    dp,
    init_mlp,
    load_dataset,
    load_dp_table,
    load_model,
    load_qtable,
    save_model,
    save_qtable,
)
from dyntarget.bench import LatencyStats
from dyntarget.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RESOURCE, main
from dyntarget import world
from dyntarget.world import HEADER, MAGIC, UNKEYED

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


def test_gen_refuses_an_over_limit_strip(tmp_path, capsys):
    config = tmp_path / "big.cfg"
    config.write_text(TINY_CFG.replace("length = 400", "length = 100000000000"),
                      encoding="utf-8")
    out = tmp_path / "data"
    code = main(["gen", "--config", str(config), "--out", str(out)])
    assert code == EXIT_RESOURCE
    assert "resource error" in capsys.readouterr().err
    assert not list(out.glob("*.dtg"))


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


def test_malformed_dataset_header_is_a_data_error(tmp_path, cfg, capsys):
    data = tmp_path / "even.dtg"
    data.write_bytes(HEADER.pack(MAGIC, 2, 5, 7.0) + bytes(10))
    code = main(["dp", "--config", cfg(), "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_bad_config_is_a_config_error(tmp_path, cfg, capsys):
    code = main(["eval", "--config", cfg("turbo = on\n"), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_a_geometry_whose_reach_rounds_to_zero_is_a_config_error(tmp_path, cfg, capsys):
    # 3 km up, the 15 degree radar cone reaches 0.8 km: 0 px of 7 km, so
    # the footprint would be nadir alone and its features divide by zero
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--config", cfg("geometry.altitude_km = 3.0\n"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "radar reach rounds to 0 px" in capsys.readouterr().err
    assert not out.exists()  # no strip, table or report written


@pytest.mark.parametrize("key", ["qlearn.epsilon", "qlearn.seed"])
def test_keys_no_command_reads_are_refused(tmp_path, cfg, capsys, key):
    # QLearnParams had these fields for an epsilon-greedy trainer that no
    # command ran; both went with it, and the keys stay refused
    code = main(["train-q", "--config", cfg(f"{key} = 1\n"), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


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


def test_eval_never_opens_a_table_of_the_previous_format(tmp_path, cfg):
    # a DTD1 table (float32 (Off, Sample) values, strip digest only) at
    # the name the DTD1 cache gave this strip; its values, Sample always
    # worth 1, are wrong for the strip
    extra = "roster = dp\n"
    config = bench.load_config(cfg(extra))
    strip = next(config.strips("test"))
    r = config.rewards
    models = repr((config.geometry, config.energy, (r.reward_low, r.reward_mid, r.reward_high)))
    name = hashlib.sha256(f"{strip.digest()}|{models}".encode()).hexdigest()[:32]
    cache = tmp_path / "out" / "dp_cache"
    cache.mkdir(parents=True)
    header = struct.pack("<4sIII32s", b"DTD1", strip.length, 101, 2, bytes.fromhex(strip.digest()))
    values = np.tile(np.array([0.0, 1.0], dtype="<f4"), strip.length * 101)
    (cache / f"{name}.dpt").write_bytes(header + values.tobytes())
    assert main(["eval", "--config", cfg(extra), "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "out" / "report.csv").read_text().splitlines()]
    assert [float(row[3]) for row in rows if row[0] == "dp"] == [100.0] * 3


LEARNER_ROSTER = "roster = greedy_radar, qlearn, bc, dp\n"


def stable_report(out):
    """report.csv without its latency column, and report.md."""
    lines = [line.rsplit(",", 1)[0] for line in (out / "report.csv").read_text().splitlines()]
    return lines, (out / "report.md").read_bytes()


def test_a_second_eval_reuses_both_learners(tmp_path, cfg, bench_calls, capsys):
    out = tmp_path / "out"
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)]) == EXIT_OK
    first = stable_report(out)
    trained = capsys.readouterr().out
    assert "swept q table" in trained and "cloned planner" in trained
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)]) == EXIT_OK
    assert bench_calls == {"train_dp_sweep": 1, "train_bc": 1, "load_qtable": 1, "load_model": 1}
    rerun = capsys.readouterr().out
    assert f"reused {out / 'qtable.dtq'}" in rerun and f"reused {out / 'bc_model.dtm'}" in rerun
    assert "swept q table" not in rerun and "cloned planner" not in rerun
    assert rerun.count("wrote") == 2
    assert stable_report(out) == first
    fresh = tmp_path / "fresh"
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(fresh)]) == EXIT_OK
    assert stable_report(fresh) == first


def test_train_commands_save_what_eval_and_latency_reuse(tmp_path, cfg, bench_calls):
    out = str(tmp_path / "out")
    assert main(["train-bc", "--config", cfg(LEARNER_ROSTER), "--out", out]) == EXIT_OK
    assert main(["train-q", "--config", cfg(LEARNER_ROSTER), "--out", out]) == EXIT_OK
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", out]) == EXIT_OK
    assert main(["latency", "--config", cfg(LEARNER_ROSTER), "--steps", "20",
                 "--out", out]) == EXIT_OK
    assert (bench_calls["train_dp_sweep"], bench_calls["train_bc"]) == (1, 1)


def previous_format_learners(out):
    """DTQ1/DTM1 files, float32 payloads and no key, at the learner names;
    their values, Sample always worth more, are wrong for any training."""
    out.mkdir(parents=True)
    q = np.tile(np.array([0.0, 1.0], dtype="<f4"), 6464)
    (out / "qtable.dtq").write_bytes(struct.pack("<4sII", b"DTQ1", 6464, 2) + q.tobytes())
    layers = b"".join(
        struct.pack("<II", a, b) + np.ones(a * b + b, dtype="<f4").tobytes()
        for a, b in zip((13, 32, 16, 8, 4), (32, 16, 8, 4, 1))
    )
    (out / "bc_model.dtm").write_bytes(struct.pack("<4sI", b"DTM1", 5) + layers)


def other_key_learners(out):
    """DTQ2/DTM2 files that name no inputs, with the same wrong values."""
    out.mkdir(parents=True)
    table = QTable()
    table.q[:, 1] = 1.0
    save_qtable(table, out / "qtable.dtq")
    model = init_mlp(seed=3)
    for w in model.weights + model.biases:
        w[...] = 1.0
    save_model(model, out / "bc_model.dtm")


@pytest.mark.parametrize("stale", [previous_format_learners, other_key_learners],
                         ids=["previous_format", "other_key"])
def test_eval_retrains_over_a_stale_learner_file(tmp_path, cfg, bench_calls, stale):
    out = tmp_path / "out"
    stale(out)
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)]) == EXIT_OK
    # a file of the previous format is never parsed
    loads = 0 if stale is previous_format_learners else 1
    assert bench_calls == {"train_dp_sweep": 1, "train_bc": 1,
                           "load_qtable": loads, "load_model": loads}
    assert (out / "qtable.dtq").read_bytes()[:4] == b"DTQ2"
    assert load_qtable(out / "qtable.dtq").key != UNKEYED
    assert load_model(out / "bc_model.dtm").key != UNKEYED
    fresh = tmp_path / "fresh"
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(fresh)]) == EXIT_OK
    assert stable_report(out) == stable_report(fresh)


# each kind of file a run keeps: where it lies in the out dir and the byte
# offset of the first key digest in its header
KEPT_FILES = {
    "dts": ("strips/*.dts", 16),
    "dpt": ("dp_cache/*.dpt", 20),
    "dtq": ("qtable.dtq", 12),
    "dtm": ("bc_model.dtm", 8),
}


def damage(data, how, key_at):
    if how == "truncated":
        return data[:-8]
    if how == "magic":
        return b"ZZZZ" + data[4:]
    if how == "other_key":
        return data[:key_at] + bytes([data[key_at] ^ 1]) + data[key_at + 1:]
    # flipped_cell: still a valid class byte, so only the strip's digest sees it
    return data[:-1] + bytes([(data[-1] + 1) % 3])


@pytest.mark.parametrize("kind, how", [
    *((kind, how) for kind in KEPT_FILES for how in ("truncated", "magic", "other_key")),
    ("dts", "flipped_cell"),
])
def test_a_damaged_file_in_an_out_dir_is_rebuilt(tmp_path, cfg, kind, how):
    pattern, key_at = KEPT_FILES[kind]
    out = tmp_path / "out"
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)]) == EXIT_OK
    fresh = stable_report(out)
    paths = sorted(out.glob(pattern))
    good = [path.read_bytes() for path in paths]
    for path, data in zip(paths, good):
        path.write_bytes(damage(data, how, key_at))
    if kind == "dpt":  # the training strip's table is read only to clone the planner
        (out / "bc_model.dtm").unlink()
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)]) == EXIT_OK
    assert sorted(out.glob(pattern)) == paths
    assert [path.read_bytes() for path in paths] == good
    assert stable_report(out) == fresh


def test_a_second_train_q_reuses_its_table(tmp_path, cfg, bench_calls, capsys):
    out = tmp_path / "out"
    assert main(["train-q", "--config", cfg(), "--out", str(out)]) == EXIT_OK
    assert "swept q table over 1 strips" in capsys.readouterr().out
    assert main(["train-q", "--config", cfg(), "--out", str(out)]) == EXIT_OK
    rerun = capsys.readouterr().out
    assert f"reused {out / 'qtable.dtq'}" in rerun and "swept" not in rerun
    assert bench_calls["train_dp_sweep"] == 1


def test_totals_near_the_float_limit_score_dp_at_exactly_100(tmp_path):
    # 100 x a total overflows before the total does, and so does the sum
    # of three totals before their mean
    config = tmp_path / "big.cfg"
    config.write_text("datasets.length = 10\ndatasets.train_count = 0\n"
                      "datasets.test_count = 3\nroster = dp, greedy_radar\n"
                      "rewards.low = 1e305\nrewards.mid = 1e306\nrewards.high = 1e307\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["eval", "--config", str(config), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows if row[0] == "dp"] == ["test00", "test01", "test02", "mean"]
    assert all(float(row[3]) == 100.0 for row in rows if row[0] == "dp")
    means = [float(row[2]) for row in rows if row[1] == "mean"]
    assert len(means) == 2 and all(map(np.isfinite, means))
    assert "| dp | 100.00 |" in (out / "report.md").read_text()


def test_an_interrupted_table_write_leaves_nothing_at_its_name(tmp_path, cfg, monkeypatch):
    def interrupted(path, header, payload, manifest=None):
        # the header goes out, then writing the payload raises
        world.write_file(path, header, object(), manifest)

    out = tmp_path / "out"
    with monkeypatch.context() as m:
        m.setattr(dp, "write_file", interrupted)
        with pytest.raises(TypeError):
            main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)])
    assert list((out / "dp_cache").iterdir()) == []
    assert main(["eval", "--config", cfg(LEARNER_ROSTER), "--out", str(out)]) == EXIT_OK


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
    # the table is LatencyStats' fields behind the policy name
    assert lines[0] == ",".join(["policy"] + [f.name for f in dataclasses.fields(LatencyStats)])
    timed = [line.split(",")[0] for line in lines[1:]]
    assert timed == ["random", "greedy_window"]  # the planner is not timed
    for line in lines[1:]:
        *times, n = line.split(",")[1:]
        assert all(float(f) > 0 for f in times)
        assert n == "50"


@pytest.mark.parametrize("command", ["eval", "curve", "latency"])
@pytest.mark.parametrize("counts", ["test_count = 0", "train_count = -1"])
def test_scoring_commands_refuse_empty_or_negative_strip_counts(tmp_path, command,
                                                                 counts, capsys):
    config = tmp_path / "bench.cfg"
    key = counts.split(" = ")[0]
    text = "\n".join(line for line in TINY_CFG.splitlines() if key not in line)
    config.write_text(text + f"\ndatasets.{counts}\n", encoding="utf-8")
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"datasets.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, roster", [
    ("eval", ""),  # nothing to score
    ("curve", "dp"),  # no learner to train
    ("latency", "dp"),  # no policy to time
])
def test_commands_refuse_a_roster_that_leaves_them_nothing_to_do(tmp_path, monkeypatch, cfg,
                                                                 capsys, command, roster):
    calls = []
    for name in ("generate_synthetic", "build_dp_table"):
        def counted(*args, _name=name, _real=getattr(bench, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(bench, name, counted)
    out = tmp_path / "o"
    code = main([command, "--config", cfg(f"roster = {roster}\n"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "roster" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()  # no dp_cache/, report or curve


def test_curve_refuses_a_repeated_fraction(tmp_path, monkeypatch, cfg, capsys):
    calls = []

    def counted(config, role, *args, _real=bench.BenchConfig.strips):
        calls.append(role)
        return _real(config, role, *args)

    monkeypatch.setattr(bench.BenchConfig, "strips", counted)
    out = tmp_path / "o"
    code = main(["curve", "--config", cfg(), "--fractions", "0.5,0.5", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "repeated fraction" in capsys.readouterr().err
    assert calls == []  # no strip generated or read
    assert not out.exists()


@pytest.mark.parametrize("command, generated, planned", [
    (["train-q"], 1, 0),
    (["train-bc"], 1, 1),
    (["latency", "--steps", "20"], 2, 1),  # the train strip and test00, unplanned
], ids=["train-q", "train-bc", "latency"])
def test_commands_touch_only_the_strips_they_use(tmp_path, monkeypatch, command,
                                                 generated, planned):
    calls = {"generate_synthetic": 0, "build_dp_table": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(bench, name, counted)
    config = tmp_path / "bench.cfg"
    config.write_text(TINY_CFG.replace("test_count = 2", "test_count = 5"), encoding="utf-8")
    code = main(command + ["--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert calls == {"generate_synthetic": generated, "build_dp_table": planned}


def test_train_commands_still_need_both_paths_or_neither(tmp_path, cfg, capsys):
    data = tmp_path / "data"
    main(["gen", "--config", cfg(), "--out", str(data)])
    extra = f"datasets.train_paths = {data / 'train00.dtg'}\n"
    for command in ("train-q", "train-bc", "latency"):
        code = main([command, "--config", cfg(extra), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "both train and test paths" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "dp"])
def test_a_half_configured_path_pair_is_refused_by_every_command(tmp_path, cfg, capsys,
                                                                 command):
    data = tmp_path / "data"
    main(["gen", "--config", cfg(), "--out", str(data)])
    capsys.readouterr()
    extra = f"datasets.train_paths = {data / 'train00.dtg'}\n"
    args = ["--data", str(data / "test00.dtg")] if command == "dp" else []
    out = tmp_path / "o"
    code = main([command, "--config", cfg(extra), "--out", str(out), *args])
    assert code == EXIT_CONFIG
    assert "both train and test paths" in capsys.readouterr().err
    assert not out.exists()


def test_the_dataset_pixel_size_is_not_a_key(tmp_path, cfg, capsys):
    out = tmp_path / "data"
    code = main(["gen", "--config", cfg("datasets.pixel_size_km = 7.0\n"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "unknown config keys: ['datasets.pixel_size_km']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "dp"])
def test_strips_of_other_pixels_are_a_data_error(tmp_path, cfg, capsys, command):
    """3.5 km strips under the default 7 km geometry would be scored with
    a footprint of half the reach the pixels need."""
    data = tmp_path / "data"
    assert main(["gen", "--config", cfg("geometry.pixel_size_km = 3.5\n"),
                 "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    paths = (f"datasets.train_paths = {data / 'train00.dtg'}\n"
             f"datasets.test_paths = {data / 'test00.dtg'}\n")
    out = tmp_path / "o"
    args = ["--data", str(data / "test00.dtg")] if command == "dp" else []
    code = main([command, "--config", cfg(paths), "--out", str(out), *args])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "a strip of 3.5 km pixels under a geometry of 7.0 km pixels" in err
    assert not (out / "report.csv").exists()
    assert not list(out.glob("*.dpt"))


def test_a_geometry_of_other_pixels_runs_end_to_end(tmp_path, cfg, capsys):
    """gen writes the geometry's pixel size into every header, and eval
    on those files under that geometry succeeds."""
    data = tmp_path / "data"
    config = "geometry.pixel_size_km = 6.3\n"
    assert main(["gen", "--config", cfg(config), "--out", str(data)]) == EXIT_OK
    headers = [HEADER.unpack_from(path.read_bytes()) for path in sorted(data.glob("*.dtg"))]
    assert [px for *_, px in headers] == [float(np.float32(6.3))] * 3
    config += (f"datasets.train_paths = {data / 'train00.dtg'}\n"
               f"datasets.test_paths = {data / 'test00.dtg'}, {data / 'test01.dtg'}\n")
    assert main(["eval", "--config", cfg(config), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "report.csv").exists()


OVERFLOW_CFG = """
datasets.length = 40
datasets.train_count = 1
datasets.test_count = 1
roster = dp,greedy_radar
"""


@pytest.mark.parametrize("rewards", [
    "rewards.high = inf\n",
    "rewards.low = 1e306\nrewards.mid = 1e307\nrewards.high = 1e308\n",
])
def test_rewards_that_overflow_a_total_are_a_config_error(tmp_path, capsys, rewards):
    """An infinite reward, or finite ones whose total over the 40-step
    horizon overflows, used to write infinite totals and NaN percentages
    to the report."""
    config = tmp_path / "overflow.cfg"
    config.write_text(OVERFLOW_CFG + rewards, encoding="utf-8")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--config", str(config), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "dp"])
def test_loaded_strips_whose_totals_overflow_are_a_config_error(tmp_path, cfg, capsys, command):
    """Loaded strips fix the horizon only when they are read, so the planner
    and the sweep check the rewards against each strip's length: the
    100-odd samples a 400-step strip affords overflow at 1e307 apiece,
    though the configured rewards themselves are finite.  The sweep runs
    first, and used to save a Q table of infinities and NaNs."""
    data = tmp_path / "data"
    assert main(["gen", "--config", cfg(), "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    extra = ("rewards.low = 1e305\nrewards.mid = 1e306\nrewards.high = 1e307\n"
             "roster = qlearn,dp\n"
             f"datasets.train_paths = {data / 'train00.dtg'}\n"
             f"datasets.test_paths = {data / 'test00.dtg'}\n")
    out = tmp_path / "o"
    args = ["--data", str(data / "test00.dtg")] if command == "dp" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", cfg(extra), "--out", str(out), *args])
    assert code == EXIT_CONFIG
    assert "overflow a total over 400 steps" in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    assert not list(out.glob("*.dpt")) and not list(out.glob("*.dtq"))

"""Harness: config parsing, report plumbing, small end-to-end runs."""
import dataclasses
import gc
import math
import shutil
import weakref

import numpy as np
import pytest

from dyntarget import (
    BenchConfig,
    DatasetSpec,
    RewardClass,
    balance_dataset,
    build_dp_table,
    dp_policy,
    EnergyModel,
    RewardModel,
    SensorGeometry,
    emit_report,
    greedy_nadir,
    load_config,
    load_dp_table,
    QLearnParams,
    TrainParams,
    bc_policy,
    load_model,
    load_qtable,
    measure_latency,
    q_policy,
    run_benchmark,
    run_episode,
    save_dataset,
    train_bc,
    training_curve,
)
from dyntarget import bench
from dyntarget.bench import (
    CONFIG_KEYS,
    CSV_HEADER,
    MODEL_FILE,
    QTABLE_FILE,
    ReportRow,
    _build_policy,
    _demo_pool,
    curve_to_csv,
    train_learners,
)
from dyntarget.dp import models_digest
from dyntarget import world
from dyntarget.world import UNKEYED, GenParams, generate_synthetic, strip_key
from dyntarget.errors import ConfigError, ParameterError

TINY = dataclasses.replace(
    DatasetSpec(), length=300, train_count=1, test_count=2
)


def write_config(tmp_path, text):
    path = tmp_path / "bench.cfg"
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_empty_config_is_the_default(tmp_path):
    assert load_config(write_config(tmp_path, "")) == BenchConfig()
    assert load_config(write_config(tmp_path, "# nothing but comments\n\n")) == BenchConfig()


def test_config_round_trips_values(tmp_path):
    text = """
    # harness settings
    seed = 7
    soc0 = 80
    scenario = storm_hunting
    rewards.high = 250
    datasets.length = 500
    datasets.prevalence = 0.7, 0.2, 0.1
    datasets.test_count = 3
    qlearn.sweeps = 9
    bc.keep_prob = 0.05
    bc.mode = threshold
    roster = random, dp
    thresholds.need_mid = 40
    energy.recharge_per_step = 2
    geometry.radar_half_angle_deg = 10
    """
    config = load_config(write_config(tmp_path, text))
    assert config.seed == 7
    assert config.soc0 == 80
    assert config.scenario == "storm_hunting"
    assert config.rewards.reward_high == 250
    assert config.datasets.length == 500
    assert config.datasets.prevalence == (0.7, 0.2, 0.1)
    assert config.datasets.test_count == 3
    assert config.qlearn.sweeps == 9
    assert config.bc.keep_prob == 0.05
    assert config.bc_mode == "threshold"
    assert config.roster == ("random", "dp")
    assert config.thresholds.need_mid == 40
    assert config.energy.recharge_per_step == 2
    assert config.geometry.radar_half_angle_deg == 10.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("seed = 1\nseed = 2\n", "duplicate"),
        ("turbo = on\n", "unknown config keys"),
        ("seed\n", "expected"),
        ("seed = banana\n", "bad value"),
        ("roster = dp, psychic\n", "unknown policy"),
        ("scenario = mars\n", "unknown scenario"),
        ("soc0 = 150\n", "soc0"),
        ("bc.mode = fuzzy\n", "mode"),
    ],
)
def test_config_rejections(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, text))


# every public config key with the text of its default
DEFAULT_KEYS = {
    "scenario": "cloud_avoidance",
    "seed": "0",
    "soc0": "100",
    "geometry.altitude_km": "400.0",
    "geometry.radar_half_angle_deg": "15.0",
    "geometry.lookahead_half_angle_deg": "45.0",
    "geometry.pixel_size_km": "7.0",
    "energy.sample_discharge": "5",
    "energy.recharge_per_step": "1",
    "rewards.low": "1.0",
    "rewards.mid": "10.0",
    "rewards.high": "100.0",
    "datasets.height": "31",
    "datasets.length": "10000",
    "datasets.prevalence": "0.64, 0.26, 0.10",
    "datasets.blob_radius": "3.0, 4.0, 14.0",
    "datasets.train_count": "4",
    "datasets.test_count": "10",
    "datasets.train_seed0": "100",
    "datasets.test_seed0": "5000",
    "datasets.train_paths": "",
    "datasets.test_paths": "",
    "roster": "random, greedy_nadir, greedy_lateral, greedy_radar, greedy_window, bc, qlearn, dp",
    "random.p_sample": "0.2",
    "thresholds.need_high": "5",
    "thresholds.need_mid": "50",
    "thresholds.need_low": "100",
    "qlearn.alpha": "0.4",
    "qlearn.gamma": "0.99",
    "qlearn.sweeps": "5",
    "bc.keep_prob": "0.08",
    "bc.loss": "bce",
    "bc.learning_rate": "1e-3",
    "bc.batch_size": "64",
    "bc.max_epochs": "400",
    "bc.patience": "30",
    "bc.val_fraction": "0.1",
    "bc.seed": "0",
    "bc.mode": "stochastic",
}


def test_public_config_keys_are_pinned():
    assert len(DEFAULT_KEYS) == 39
    assert sorted(CONFIG_KEYS) == sorted(DEFAULT_KEYS)


@pytest.mark.parametrize("key", sorted(DEFAULT_KEYS))
def test_each_key_set_to_its_default_gives_the_default(tmp_path, key):
    text = f"{key} = {DEFAULT_KEYS[key]}\n"
    assert load_config(write_config(tmp_path, text)) == BenchConfig()


def test_all_keys_set_to_their_defaults_give_the_default(tmp_path):
    text = "".join(f"{key} = {value}\n" for key, value in DEFAULT_KEYS.items())
    assert load_config(write_config(tmp_path, text)) == BenchConfig()


@pytest.mark.parametrize(
    "key", ["rewards.off", "rewards.scenario", "rewards.reward_low", "p_sample", "bc.bc_mode"]
)
def test_hidden_and_aliased_field_names_are_not_keys(tmp_path, key):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(write_config(tmp_path, f"{key} = 1\n"))


def test_dataset_spec_guards_overlap(tmp_path):
    with pytest.raises(ConfigError):
        DatasetSpec(train_seed0=100, test_seed0=102, train_count=4, test_count=2)
    with pytest.raises(ConfigError):
        DatasetSpec(
            train_paths=(str(tmp_path / "a.dtg"),),
            test_paths=(str(tmp_path / "a.dtg"),),
        )


def test_dataset_spec_needs_both_paths_or_neither(tmp_path):
    with pytest.raises(ConfigError, match="both train and test paths"):
        DatasetSpec(train_paths=(str(tmp_path / "a.dtg"),))
    with pytest.raises(ConfigError, match="both train and test paths"):
        DatasetSpec(test_paths=(str(tmp_path / "a.dtg"),))


def test_config_rejects_duplicate_roster():
    with pytest.raises(ConfigError):
        BenchConfig(roster=("dp", "dp"))


# ---------------------------------------------------------------------------
# benchmark runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_report():
    config = BenchConfig(roster=("random", "greedy_nadir", "dp"), datasets=TINY)
    return run_benchmark(config)


def test_tiny_benchmark_report_shape(tiny_report):
    report = tiny_report
    assert {row.policy for row in report.rows} == {"random", "greedy_nadir", "dp"}
    for policy in ("random", "greedy_nadir", "dp"):
        rows = report.rows_for(policy)
        assert [row.dataset for row in rows] == ["test00", "test01"]
    for row in report.rows:
        assert row.violations == 0
        assert 0.0 <= row.pct_of_dp <= 100.0
        # class fractions are per step, so together they cover exactly
        # the sampling steps
        assert row.frac_low + row.frac_mid + row.frac_high == pytest.approx(
            1.0 - row.frac_off, abs=1e-9
        )
    for row in report.rows_for("dp"):
        assert row.pct_of_dp == 100.0
    assert report.mean_pct("dp") == 100.0
    assert report.mean_pct("random") < report.mean_pct("dp")


def test_with_means_appends_one_row_per_policy(tiny_report):
    expanded = tiny_report.with_means()
    assert len(expanded) == len(tiny_report.rows) + 3
    mean_rows = [row for row in expanded if row.dataset == "mean"]
    assert [row.policy for row in mean_rows] == ["random", "greedy_nadir", "dp"]
    dp_mean = next(row for row in mean_rows if row.policy == "dp")
    assert dp_mean.pct_of_dp == 100.0


def test_benchmark_is_reproducible():
    config = BenchConfig(roster=("random", "dp"), datasets=TINY)
    a = run_benchmark(config)
    b = run_benchmark(config)
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.policy == rb.policy and ra.dataset == rb.dataset
        assert ra.total_reward == rb.total_reward
        assert ra.frac_off == rb.frac_off


def test_benchmark_caches_planner_tables(tmp_path):
    config = BenchConfig(roster=("dp",), datasets=TINY)
    run_benchmark(config, outdir=tmp_path)
    cached = sorted(p.name for p in (tmp_path / "dp_cache").iterdir())
    # tables are keyed by strip digest, one per test strip
    assert len(cached) == 2
    assert all(len(name) == 36 and name.endswith(".dpt") for name in cached)
    # a second run hits the cache and agrees with the first
    again = run_benchmark(config, outdir=tmp_path)
    assert [row.total_reward for row in again.rows] == [
        row.total_reward for row in run_benchmark(config).rows
    ]
    # the scenario only renames classes, so it reuses the same tables
    run_benchmark(dataclasses.replace(config, scenario="storm_hunting"), outdir=tmp_path)
    assert sorted(p.name for p in (tmp_path / "dp_cache").iterdir()) == cached


def test_strip_major_scoring_matches_a_policy_major_loop():
    # every episode resets its policy, so scoring strip by strip gives the
    # rows a policy-by-policy loop over shared policy objects gives
    config = BenchConfig(
        roster=("random", "bc", "dp"),
        datasets=dataclasses.replace(TINY, test_count=3),
        bc=dataclasses.replace(BenchConfig().bc, max_epochs=3),
    )
    assert config.bc_mode == "stochastic"
    report = run_benchmark(config)
    _, model = train_learners(config, list(config.strips("train")))
    strips = list(config.strips("test"))
    tables = [build_dp_table(s, config.geometry, config.energy, config.rewards) for s in strips]
    expected = []
    for name in config.roster:
        policy = _build_policy(name, config, None, model)
        for i, (strip, table) in enumerate(zip(strips, tables)):
            log = run_episode(strip, config.geometry, config.energy, config.rewards,
                              policy or dp_policy(table, strip), soc0=config.soc0)
            expected.append(ReportRow(
                policy=name,
                dataset=f"test{i:02d}",
                total_reward=log.total_reward,
                pct_of_dp=100.0 * log.total_reward / table.root_value(config.soc0),
                frac_off=log.off_fraction,
                frac_low=log.class_fraction(RewardClass.LOW),
                frac_mid=log.class_fraction(RewardClass.MID),
                frac_high=log.class_fraction(RewardClass.HIGH),
                violations=log.violations,
                mean_decide_us=0.0,
            ))
    assert [dataclasses.replace(r, mean_decide_us=0.0) for r in report.rows] == expected


@pytest.mark.parametrize("run", [
    lambda config: run_benchmark(dataclasses.replace(config, roster=("random", "dp"))),
    lambda config: training_curve(dataclasses.replace(config, roster=("qlearn",)), [1.0]),
], ids=["run_benchmark", "training_curve"])
def test_one_test_table_is_alive_at_a_time(monkeypatch, run):
    """Neither an earlier test table nor an earlier test strip is alive
    when the next strip's table is requested."""
    config = BenchConfig(datasets=dataclasses.replace(TINY, test_count=3))
    tables = []
    strips = []
    alive_before = []
    real = bench._dp_for

    def tracked(strip, config, cache_dir):
        gc.collect()
        alive_before.append((sum(ref() is not None for ref in tables),
                             sum(ref() is not None for ref in strips)))
        table = real(strip, config, cache_dir)
        tables.append(weakref.ref(table))
        strips.append(weakref.ref(strip))
        return table

    monkeypatch.setattr(bench, "_dp_for", tracked)
    run(config)
    assert alive_before == [(0, 0), (0, 0), (0, 0)]


def test_fractional_rewards_score_dp_at_exactly_100():
    config = BenchConfig(
        rewards=RewardModel(reward_low=0.1, reward_mid=0.3, reward_high=1.7),
        roster=("dp",),
        datasets=dataclasses.replace(TINY, length=2000, train_count=0),
    )
    report = run_benchmark(config)
    assert [row.pct_of_dp for row in report.rows] == [100.0, 100.0]


def test_a_cached_table_for_other_rewards_is_rebuilt(tmp_path):
    ds = dataclasses.replace(TINY, test_count=1)
    config = BenchConfig(roster=("dp",), datasets=ds)
    other = dataclasses.replace(config, rewards=RewardModel(reward_high=1000.0))
    run_benchmark(config, outdir=tmp_path / "a")
    run_benchmark(other, outdir=tmp_path / "b")
    [built] = (tmp_path / "a" / "dp_cache").iterdir()
    [expected] = (tmp_path / "b" / "dp_cache").iterdir()
    # the default-reward table, under the name the other rewards look up
    shutil.copyfile(built, expected)
    report = run_benchmark(other, outdir=tmp_path / "b")
    assert [row.pct_of_dp for row in report.rows] == [100.0]
    assert [row.total_reward for row in report.rows] == [
        row.total_reward for row in run_benchmark(other).rows
    ]
    table = load_dp_table(expected)
    assert table.models_digest == models_digest(other.geometry, other.energy, other.rewards)


def test_the_cloner_trains_under_the_configured_energy_model():
    # demos below the configured floor carry forced-Off labels and must be
    # dropped before training, as they are for the default floor
    config = BenchConfig(
        energy=EnergyModel(sample_discharge=9, recharge_per_step=2),
        roster=("bc",),
        datasets=dataclasses.replace(TINY, train_count=1, test_count=1),
        bc=dataclasses.replace(BenchConfig().bc, max_epochs=3),
    )
    strips = list(config.strips("train"))
    _, model = train_learners(config, strips)
    demos = balance_dataset(_demo_pool(config, strips), seed=config.bc.seed)
    expected = train_bc(demos, config.bc, energy=config.energy)
    assert [w.tobytes() for w in model.weights] == [w.tobytes() for w in expected.weights]
    assert [b.tobytes() for b in model.biases] == [b.tobytes() for b in expected.biases]


# ---------------------------------------------------------------------------
# learner files
# ---------------------------------------------------------------------------

LEARNERS = BenchConfig(
    roster=("qlearn", "bc", "dp"),
    datasets=dataclasses.replace(TINY, length=200, train_count=2, test_count=1),
    qlearn=QLearnParams(sweeps=2),
    bc=TrainParams(keep_prob=0.5, max_epochs=2, patience=2),
)


def episodes(config, policy):
    strip = next(config.strips("test"))
    log = run_episode(strip, config.geometry, config.energy, config.rewards, policy)
    return log.steps, log.total_reward


def test_saved_learners_equal_the_trained_ones_bit_for_bit(tmp_path):
    qtable, model = train_learners(LEARNERS, list(LEARNERS.strips("train")), tmp_path)
    saved_q = load_qtable(tmp_path / QTABLE_FILE)
    saved_model = load_model(tmp_path / MODEL_FILE)
    assert np.array_equal(saved_q.q, qtable.q)
    assert saved_q.key == qtable.key != UNKEYED
    assert saved_model.key == model.key
    # same strips and models, other params
    assert model.key[:2] == qtable.key[:2] and model.key[2] != qtable.key[2]
    for got, want in zip(saved_model.weights + saved_model.biases, model.weights + model.biases):
        assert np.array_equal(got, want)
    assert episodes(LEARNERS, q_policy(saved_q)) == episodes(LEARNERS, q_policy(qtable))
    for mode in ("stochastic", "threshold"):
        got = episodes(LEARNERS, bc_policy(saved_model, mode=mode, seed=5))
        assert got == episodes(LEARNERS, bc_policy(model, mode=mode, seed=5))


def strip_files(tmp_path, seeds):
    paths = []
    for seed in seeds:
        path = tmp_path / f"strip{seed}.dtg"
        save_dataset(generate_synthetic(GenParams(length=200, seed=seed)), path)
        paths.append(str(path))
    return tuple(paths)


BC_CHANGES = dict(keep_prob=0.4, loss="mse", learning_rate=2e-3, batch_size=32, max_epochs=3,
                  patience=3, val_fraction=0.2, seed=1)
Q_CHANGES = dict(alpha=0.5, gamma=0.9, sweeps=3)


def test_every_learner_param_is_a_key_case():
    assert list(BC_CHANGES) == [f.name for f in dataclasses.fields(TrainParams)]
    assert list(Q_CHANGES) == [f.name for f in dataclasses.fields(QLearnParams)]


def changed(**fields):
    return lambda config, tmp_path: dataclasses.replace(config, **fields)


def changed_data(**fields):
    return lambda config, tmp_path: dataclasses.replace(
        config, datasets=dataclasses.replace(config.datasets, **fields))


def from_files(*train_seeds):
    return lambda config, tmp_path: dataclasses.replace(config, datasets=dataclasses.replace(
        config.datasets, train_paths=strip_files(tmp_path, train_seeds),
        test_paths=strip_files(tmp_path, (5000,))))


KEY_CASES = {
    "train_seed0": (changed_data(train_seed0=200), (1, 1)),
    "train_order": (from_files(101, 100), (1, 1)),
    "rewards.high": (changed(rewards=RewardModel(reward_high=1000.0)), (1, 1)),
    "energy": (changed(energy=EnergyModel(sample_discharge=9, recharge_per_step=2)), (1, 1)),
    "geometry": (changed(geometry=SensorGeometry(radar_half_angle_deg=10.0)), (1, 1)),
    **{f"bc.{k}": (changed(bc=dataclasses.replace(LEARNERS.bc, **{k: v})), (0, 1))
       for k, v in BC_CHANGES.items()},
    **{f"qlearn.{k}": (changed(qlearn=dataclasses.replace(LEARNERS.qlearn, **{k: v})), (1, 0))
       for k, v in Q_CHANGES.items()},
    "scenario": (changed(scenario="storm_hunting"), (0, 0)),
    "seed": (changed(seed=9), (0, 0)),
    "bc.mode": (changed(bc_mode="threshold"), (0, 0)),
    "roster": (changed(roster=("bc", "random", "qlearn")), (0, 0)),
    "test_strips": (changed_data(test_seed0=6000, test_count=2), (0, 0)),
}


@pytest.mark.parametrize("case", list(KEY_CASES))
def test_learners_are_retrained_exactly_when_their_inputs_change(tmp_path, bench_calls, case):
    change, expected = KEY_CASES[case]
    base = from_files(100, 101)(LEARNERS, tmp_path) if case == "train_order" else LEARNERS

    def trainings():
        return bench_calls["train_dp_sweep"], bench_calls["train_bc"]

    out = tmp_path / "out"
    run_benchmark(base, outdir=out)
    assert trainings() == (1, 1)
    run_benchmark(base, outdir=out)
    assert trainings() == (1, 1)
    report = run_benchmark(change(base, tmp_path), outdir=out)
    assert (trainings()[0] - 1, trainings()[1] - 1) == expected
    fresh = run_benchmark(change(base, tmp_path), outdir=tmp_path / "fresh")
    assert [dataclasses.replace(r, mean_decide_us=0.0) for r in report.rows] == [
        dataclasses.replace(r, mean_decide_us=0.0) for r in fresh.rows
    ]


# ---------------------------------------------------------------------------
# strip files
# ---------------------------------------------------------------------------

@pytest.fixture
def generated(monkeypatch):
    """The params of every strip the benchmark generates, in order."""
    calls = []

    def counted(params, _real=bench.generate_synthetic):
        calls.append(params)
        return _real(params)

    monkeypatch.setattr(bench, "generate_synthetic", counted)
    return calls


KEY_PARAMS = GenParams(height=5, length=40, seed=3)
KEY_CHANGES = dict(height=7, length=41, prevalence=(0.6, 0.3, 0.1),
                   blob_radius=(3.0, 4.0, 13.0), pixel_size_km=6.0, seed=4)


def test_every_gen_param_is_a_strip_key_case():
    assert list(KEY_CHANGES) == [f.name for f in dataclasses.fields(GenParams)]


@pytest.mark.parametrize("change", [*KEY_CHANGES, "numpy", "generator"])
def test_a_strip_file_misses_when_any_key_input_changes(tmp_path, monkeypatch, generated,
                                                        change):
    bench._strip_for(KEY_PARAMS, tmp_path)
    hit = bench._strip_for(KEY_PARAMS, tmp_path)
    assert generated == [KEY_PARAMS]
    assert hit.digest() == generate_synthetic(KEY_PARAMS).digest()
    params = KEY_PARAMS
    if change == "numpy":
        monkeypatch.setattr(np, "__version__", "0.0.0")
    elif change == "generator":
        monkeypatch.setattr(world, "GENERATOR_ID", "0" * 64)
    else:
        params = dataclasses.replace(KEY_PARAMS, **{change: KEY_CHANGES[change]})
    bench._strip_for(params, tmp_path)
    assert generated == [KEY_PARAMS, params]
    assert len(list(tmp_path.glob("*.dts"))) == 2


def stable_outputs(out):
    """What a run leaves in ``out`` that must not depend on the strip
    files: report.csv without its latency column, report.md, both
    learner files and the dp_cache/ names."""
    csv = [line.rsplit(",", 1)[0] for line in (out / "report.csv").read_text().splitlines()]
    files = [(out / name).read_bytes() for name in ("report.md", QTABLE_FILE, MODEL_FILE)]
    return csv, files, sorted(p.name for p in (out / "dp_cache").iterdir())


def test_strip_files_change_no_output(tmp_path, monkeypatch, generated):
    plain = tmp_path / "plain"
    with monkeypatch.context() as m:
        m.setattr(bench, "_strip_for", lambda params, strip_dir: generate_synthetic(params))
        emit_report(run_benchmark(LEARNERS, outdir=plain), plain)
    assert not (plain / "strips").exists()
    expected = stable_outputs(plain)
    ds = LEARNERS.datasets
    out = tmp_path / "out"
    emit_report(run_benchmark(LEARNERS, outdir=out), out)
    assert len(generated) == ds.train_count + ds.test_count
    assert len(list((out / "strips").glob("*.dts"))) == len(generated)
    assert stable_outputs(out) == expected
    generated.clear()
    emit_report(run_benchmark(LEARNERS, outdir=out), out)
    training_curve(LEARNERS, [1.0], outdir=out)
    assert generated == []  # every strip was read back
    assert stable_outputs(out) == expected


def test_generated_strips_take_the_geometry_pixel_size():
    config = BenchConfig(geometry=SensorGeometry(pixel_size_km=6.3), datasets=TINY)
    assert config.gen_params(7).pixel_size_km == 6.3
    pixels = [strip.pixel_size_km for role in ("train", "test") for strip in config.strips(role)]
    assert pixels == [float(np.float32(6.3))] * 3


def test_configured_paths_write_no_strip_files(tmp_path):
    datasets = dataclasses.replace(TINY, train_paths=strip_files(tmp_path, (100,)),
                                   test_paths=strip_files(tmp_path, (5000,)))
    run_benchmark(BenchConfig(roster=("greedy_radar", "dp"), datasets=datasets),
                  outdir=tmp_path / "out")
    assert (tmp_path / "out" / "dp_cache").is_dir()
    assert not (tmp_path / "out" / "strips").exists()


@pytest.mark.parametrize("how", ["truncated", "flipped_cell", "other_key"])
def test_a_damaged_strip_file_is_regenerated_not_scored(tmp_path, generated, how):
    config = BenchConfig(roster=("greedy_radar", "dp"), datasets=TINY)
    ds = config.datasets
    out = tmp_path / "out"

    def rows():
        report = run_benchmark(config, outdir=out)
        return [dataclasses.replace(r, mean_decide_us=0.0) for r in report.rows]

    def strip_file(seed):
        return out / "strips" / f"{strip_key(config.gen_params(seed))[:32]}.dts"

    first = rows()
    good = strip_file(ds.test_seed0).read_bytes()
    if how == "truncated":
        bad = good[:-1]
    elif how == "flipped_cell":  # a valid class, so only the digest tells
        bad = good[:-1] + bytes([(good[-1] + 1) % 3])
    else:  # test01's file, under its own key, at test00's name
        bad = strip_file(ds.test_seed0 + 1).read_bytes()
    strip_file(ds.test_seed0).write_bytes(bad)
    generated.clear()
    assert rows() == first
    assert generated == [config.gen_params(ds.test_seed0)]
    assert strip_file(ds.test_seed0).read_bytes() == good


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_report_formats(tmp_path, tiny_report):
    paths = emit_report(tiny_report, tmp_path)
    assert [p.name for p in paths] == ["report.csv", "report.md"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # one row per policy/dataset pair plus the means
    assert len(lines) == 1 + 3 * 2 + 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        float(fields[3])  # pct column parses back

    again = emit_report(tiny_report, tmp_path / "again")
    assert again[0].read_bytes() == paths[0].read_bytes()
    assert again[1].read_bytes() == paths[1].read_bytes()


def test_report_floats_survive_the_csv(tmp_path, tiny_report):
    (path, _) = emit_report(tiny_report, tmp_path)
    rows = {((f := line.split(","))[0], f[1]): f for line in path.read_text().splitlines()[1:]}
    for row in tiny_report.rows:
        fields = rows[(row.policy, row.dataset)]
        assert float(fields[2]) == row.total_reward
        assert float(fields[3]) == row.pct_of_dp
        assert float(fields[4]) == row.frac_off


# ---------------------------------------------------------------------------
# training curves
# ---------------------------------------------------------------------------

def test_curve_rejects_bad_fractions():
    config = BenchConfig(datasets=TINY)
    with pytest.raises(ParameterError):
        training_curve(config, [0.0])
    with pytest.raises(ParameterError):
        training_curve(config, [1.5])


def test_full_fraction_matches_the_plain_benchmark(tmp_path):
    config = BenchConfig(
        roster=("qlearn", "bc", "dp"),
        datasets=dataclasses.replace(TINY, length=400),
        bc=dataclasses.replace(BenchConfig().bc, max_epochs=5),
    )
    points = training_curve(config, [0.25, 1.0])
    by_frac = {(p.learner, p.fraction): p for p in points}
    assert set(by_frac) == {(learner, f) for learner in ("qlearn", "bc") for f in (0.25, 1.0)}
    report = run_benchmark(config)
    # one mean formula: the full-data point is the report's mean exactly
    for learner in ("qlearn", "bc"):
        assert by_frac[(learner, 1.0)].mean_pct == report.mean_pct(learner)
    for point in points:
        assert point.min_pct <= point.mean_pct <= point.max_pct

    out = tmp_path / "curve.csv"
    curve_to_csv(points, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "learner,fraction,mean_pct,min_pct,max_pct"
    assert len(lines) == 5


def test_zero_value_strips_score_by_the_sign_of_the_total():
    # with only losses on offer the planner never samples, so every test
    # strip is worth 0 to it; a policy that samples anyway has lost reward
    # and must rank below the planner, in the report and on the curve
    config = BenchConfig(
        rewards=RewardModel(reward_low=-5.0, reward_mid=-2.0, reward_high=-1.0),
        roster=("random", "qlearn", "bc", "dp"),
        datasets=dataclasses.replace(TINY, length=200),
        bc=dataclasses.replace(BenchConfig().bc, max_epochs=3),
    )
    report = run_benchmark(config)
    for policy in ("random", "bc"):
        rows = report.rows_for(policy)
        assert all(r.total_reward < 0 and r.pct_of_dp == -math.inf for r in rows)
    for policy in ("qlearn", "dp"):
        rows = report.rows_for(policy)
        assert all(r.total_reward == 0 and r.pct_of_dp == 100.0 for r in rows)

    points = {p.learner: p for p in training_curve(config, [1.0])}
    assert points["bc"].max_pct == -math.inf
    assert points["qlearn"].min_pct == 100.0


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def test_latency_stats_sanity():
    strip = generate_synthetic(GenParams(length=300, seed=50))
    stats = measure_latency(greedy_nadir(), strip, 500, SensorGeometry(), EnergyModel())
    assert stats.n == 500
    assert 0 < stats.mean_us
    assert stats.p50_us <= stats.p95_us <= stats.max_us
    with pytest.raises(ParameterError):
        measure_latency(greedy_nadir(), strip, 0, SensorGeometry(), EnergyModel())

"""Geometry, charge transitions, stepping, and episode bookkeeping."""
import gc
import math
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyntarget import (
    Action,
    EnergyModel,
    EnvStrip,
    Observation,
    Placement,
    Policy,
    RewardClass,
    RewardModel,
    SatState,
    SensorGeometry,
    GenParams,
    bc_policy,
    best_target,
    build_dp_table,
    dp_policy,
    generate_synthetic,
    init_mlp,
    measure_latency,
    observe,
    run_episode,
    soc_transition,
    step,
    train_dp_sweep,
)
from dyntarget.bench import BenchConfig, _build_policy
from dyntarget.errors import EpisodeError, InfeasibleActionError, ParameterError
from dyntarget.sim import SOC_MAX, StepRecord, disc_offsets, sampled_class, strip_index

ENERGY = EnergyModel()
REWARDS = RewardModel()


def uniform(height, length, cls):
    return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))


class AlwaysOff(Policy):
    name = "always_off"
    placement = Placement.NADIR

    def decide(self, obs):
        return Action.OFF


class SampleWhenFeasible(Policy):
    """Greedy drain: fire whenever the charge covers one sample."""

    name = "drain"

    def decide(self, obs):
        return Action.SAMPLE if obs.soc >= ENERGY.sample_discharge else Action.OFF


class SampleAlways(Policy):
    """Ignores feasibility on purpose, to exercise violation accounting."""

    name = "reckless"

    def decide(self, obs):
        return Action.SAMPLE


def drain_schedule(soc0, horizon):
    """Sample count of the greedy drain policy, by direct arithmetic."""
    soc = soc0
    samples = 0
    for _ in range(horizon):
        if soc >= 5:
            samples += 1
            soc = min(max(soc - 5 + 1, 0), 100)
        else:
            soc = min(soc + 1, 100)
    return samples


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_default_geometry_reach():
    geom = SensorGeometry()
    assert geom.radar_radius_px == round(400 * math.tan(math.radians(15)) / 7) == 15
    assert geom.lookahead_len_px == round(400 * math.tan(math.radians(45)) / 7) == 57


def test_from_pixels_round_trips():
    geom = SensorGeometry.from_pixels(2, 5)
    assert geom.radar_radius_px == 2
    assert geom.lookahead_len_px == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"radar_half_angle_deg": 0.0},
        {"radar_half_angle_deg": 50.0, "lookahead_half_angle_deg": 45.0},
        {"lookahead_half_angle_deg": 90.0},
        {"altitude_km": 0.0},
        {"pixel_size_km": -1.0},
    ],
)
def test_bad_geometry_rejected(kwargs):
    with pytest.raises(ParameterError):
        SensorGeometry(**kwargs)


def test_from_pixels_rejects_degenerate_reach():
    with pytest.raises(ParameterError):
        SensorGeometry.from_pixels(0, 5)
    with pytest.raises(ParameterError):
        SensorGeometry.from_pixels(5, 5)


def test_disc_offsets_enumerate_the_lattice():
    got = {(dr, dc) for _, dr, dc in disc_offsets(15)}
    want = {
        (dr, dc)
        for dr in range(-15, 16)
        for dc in range(-15, 16)
        if dr * dr + dc * dc <= 225
    }
    assert got == want
    assert len(want) == 709


def test_footprint_cell_count_with_defaults():
    strip = uniform(31, 80, RewardClass.LOW)
    obs = observe(strip, SensorGeometry(), SatState(40, 100))
    # 31 rows exactly cover the radius-15 disc, and column 40 keeps the
    # whole disc inside the strip
    assert len(obs.radar_cells) == 709


# ---------------------------------------------------------------------------
# charge transitions
# ---------------------------------------------------------------------------

def test_sample_costs_net_four():
    assert soc_transition(ENERGY, 50, Action.SAMPLE) == 46


def test_off_recharge_clamps_at_full():
    assert soc_transition(ENERGY, 100, Action.OFF) == 100
    assert soc_transition(ENERGY, 0, Action.OFF) == 1


def test_sample_at_the_floor():
    assert soc_transition(ENERGY, 5, Action.SAMPLE) == 1


def test_sample_below_floor_is_infeasible():
    with pytest.raises(InfeasibleActionError):
        soc_transition(ENERGY, 4, Action.SAMPLE)


@pytest.mark.parametrize("args", [(0, 50), (1, 101), (1, -1)])
def test_bad_state_rejected(args):
    with pytest.raises(ParameterError):
        SatState(*args)


@pytest.mark.parametrize("kwargs", [
    {"sample_discharge": 1, "recharge_per_step": 1},
    {"sample_discharge": 101},
    {"recharge_per_step": 0},
])
def test_bad_energy_model_rejected(kwargs):
    with pytest.raises(ParameterError):
        EnergyModel(**kwargs)


# ---------------------------------------------------------------------------
# target selection
# ---------------------------------------------------------------------------

def test_uniform_footprint_targets_nadir():
    strip = uniform(31, 40, RewardClass.LOW)
    pixel, cls = best_target(strip, SensorGeometry(), 20)
    assert pixel == (15, 19)
    assert cls == RewardClass.LOW


def test_reward_outranks_distance():
    cells = np.full((31, 40), int(RewardClass.MID), dtype=np.uint8)
    cells[25, 19] = int(RewardClass.HIGH)  # 10 px from nadir at t=20
    pixel, cls = best_target(EnvStrip(cells), SensorGeometry(), 20)
    assert pixel == (25, 19)
    assert cls == RewardClass.HIGH


def test_equal_distance_prefers_smaller_row():
    cells = np.full((31, 40), int(RewardClass.LOW), dtype=np.uint8)
    cells[10, 19] = int(RewardClass.HIGH)
    cells[20, 19] = int(RewardClass.HIGH)
    pixel, cls = best_target(EnvStrip(cells), SensorGeometry(), 20)
    assert pixel == (10, 19)
    assert cls == RewardClass.HIGH


def test_best_target_bounds_check():
    strip = uniform(5, 8, RewardClass.LOW)
    with pytest.raises(IndexError):
        best_target(strip, SensorGeometry.from_pixels(2, 5), 9)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_off_step_pays_nothing():
    strip = uniform(31, 40, RewardClass.HIGH)
    state, reward, cls = step(
        strip, SensorGeometry(), ENERGY, REWARDS, SatState(3, 70), Action.OFF
    )
    assert (state.t, state.soc) == (4, 71)
    assert reward == 0.0
    assert cls is None


def test_sampling_high_pays_hundred():
    strip = uniform(31, 40, RewardClass.HIGH)
    state, reward, cls = step(
        strip, SensorGeometry(), ENERGY, REWARDS, SatState(3, 70), Action.SAMPLE
    )
    assert (state.t, state.soc) == (4, 66)
    assert reward == 100.0
    assert cls == RewardClass.HIGH


def test_sampling_mid_composes_reward_and_charge():
    strip = uniform(31, 40, RewardClass.MID)
    state, reward, cls = step(
        strip, SensorGeometry(), ENERGY, REWARDS, SatState(3, 30), Action.SAMPLE
    )
    assert state.soc == 26
    assert reward == 10.0
    assert cls == RewardClass.MID


def test_infeasible_step_raises():
    strip = uniform(31, 40, RewardClass.HIGH)
    with pytest.raises(InfeasibleActionError):
        step(strip, SensorGeometry(), ENERGY, REWARDS, SatState(3, 4), Action.SAMPLE)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def test_lookahead_truncates_at_horizon():
    strip = uniform(31, 60, RewardClass.LOW)
    geom = SensorGeometry()
    assert observe(strip, geom, SatState(60, 50)).lookahead_cells.shape == (31, 0)
    assert observe(strip, geom, SatState(57, 50)).lookahead_cells.shape == (31, 3)
    assert observe(strip, geom, SatState(1, 50)).lookahead_cells.shape == (31, 57)


def test_observation_validates_inputs():
    strip = uniform(5, 8, RewardClass.LOW)
    geom = SensorGeometry.from_pixels(2, 5)
    with pytest.raises(IndexError):
        Observation(strip, geom, 0, 50)
    with pytest.raises(IndexError):
        Observation(strip, geom, 9, 50)
    with pytest.raises(ParameterError):
        Observation(strip, geom, 1, 101)


@pytest.mark.parametrize("call", [
    lambda strip, geom, index: observe(strip, geom, SatState(1, 50), index=index),
    lambda strip, geom, index: Observation(strip, geom, 1, 50, index=index),
    lambda strip, geom, index: step(strip, geom, ENERGY, REWARDS, SatState(1, 50),
                                    Action.SAMPLE, index=index),
    lambda strip, geom, index: run_episode(strip, geom, ENERGY, REWARDS, AlwaysOff(),
                                           index=index),
    lambda strip, geom, index: best_target(strip, geom, 1, index=index),
    lambda strip, geom, index: build_dp_table(strip, geom, ENERGY, REWARDS, index=index),
], ids=["observe", "Observation", "step", "run_episode", "best_target", "build_dp_table"])
def test_another_strips_index_is_refused(call):
    """Every entry point reads the strip's own cached index; none takes
    one from the caller, so no table or episode can read another strip."""
    geom = SensorGeometry()
    strip = generate_synthetic(GenParams(length=60, seed=5))
    other = generate_synthetic(GenParams(length=60, seed=6))
    with pytest.raises(TypeError):
        call(strip, geom, strip_index(other, geom))


@given(seed=st.integers(0, 2**32 - 1), height=st.sampled_from([1, 3, 5, 9]),
       length=st.integers(1, 30))
@settings(max_examples=25)
def test_observation_queries_match_direct_recount(geom_small, seed, height, length):
    """Cross-check the cached per-column summaries against a literal
    rescan of the cells, including strips shorter than the footprint."""
    rng = np.random.default_rng(seed)
    strip = EnvStrip(rng.integers(0, 3, size=(height, length), dtype=np.uint8))
    cells = strip.cells
    center = strip.center_row
    r = geom_small.radar_radius_px
    look = geom_small.lookahead_len_px
    for t in range(1, length + 1):
        t0 = t - 1
        obs = observe(strip, geom_small, SatState(t, 50))
        in_disc = [
            cells[center + dr, t0 + dc]
            for dr in range(-r, r + 1)
            for dc in range(-r, r + 1)
            if dr * dr + dc * dc <= r * r
            and 0 <= center + dr < height
            and 0 <= t0 + dc < length
        ]
        window = cells[:, t0 + 1: min(t0 + 1 + look, length)]
        assert obs.nadir_class() == cells[center, t0]
        assert obs.radar_best_class() == max(in_disc)
        lateral = [
            cells[center + dr, t0]
            for dr in range(-r, r + 1)
            if 0 <= center + dr < height
        ]
        assert obs.lateral_best_class() == max(lateral)
        assert obs.radar_class_presence() == tuple(
            (np.array(in_disc) == c).any() for c in range(3)
        )
        assert obs.lookahead_class_presence() == tuple(
            (window == c).any() for c in range(3)
        )
        assert len(obs.radar_cells) == len(in_disc)


@pytest.mark.parametrize("geom, height, length, seed", [
    (SensorGeometry(), 9, 30, 1),  # a strip shorter than the 57 px lookahead
    (SensorGeometry(), 31, 400, 2),
    (SensorGeometry.from_pixels(2, 300), 9, 700, 3),  # window counts past one byte
], ids=["short", "default", "wide"])
def test_column_lists_mirror_the_index(geom, height, length, seed):
    """The per-step lists equal the arrays they mirror, as plain ints and
    RewardClass members, and each window count equals a count over the
    window's per-column best class."""
    cells = np.random.default_rng(seed).integers(0, 3, size=(height, length), dtype=np.uint8)
    index = strip_index(EnvStrip(cells), geom)
    columns = index.columns
    assert index.columns is columns  # built once and kept
    for placement, by_column in zip(Placement, columns.sampled):
        assert all(type(c) is RewardClass for c in by_column)
        assert by_column == [sampled_class(index, t, placement) for t in range(1, length + 1)]
    for name in ("qflag", "win_cols", "win_high", "win_mid"):
        values = getattr(columns, name)
        assert all(type(v) is int for v in values), name
        assert values == getattr(index, name).tolist(), name
    column_best = cells.max(axis=0)
    look = geom.lookahead_len_px
    for t0 in range(length):
        window = column_best[t0 + 1: min(t0 + 1 + look, length)]
        assert columns.win_cols[t0] == len(window)
        assert columns.win_high[t0] == np.count_nonzero(window == 2)
        assert columns.win_mid[t0] == np.count_nonzero(window == 1)
    if look > 255:
        assert max(columns.win_high) > 255


def test_strip_dies_without_a_collection_once_indexed(geom_small):
    """The index is cached on the strip, so a reference back would keep
    both alive until a full garbage collection."""
    cells = np.random.default_rng(8).integers(0, 3, size=(5, 30), dtype=np.uint8)
    strip = EnvStrip(cells)
    gc.disable()
    try:
        index = strip_index(strip, geom_small)
        gone = weakref.ref(strip)
        del strip
        assert gone() is None
    finally:
        gc.enable()
    # the lazy cloning features still build from what the index kept
    expected = strip_index(EnvStrip(cells), geom_small).bc_extras()
    for got, want in zip(index.bc_extras(), expected):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

def test_always_off_earns_nothing():
    strip = uniform(5, 30, RewardClass.HIGH)
    log = run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS,
                      AlwaysOff(), soc0=40)
    assert log.total_reward == 0.0
    assert log.off_count == 30
    # charge entering step k is soc0 + k - 1 until the full-charge clamp
    assert [rec.soc for rec in log.steps] == [min(100, 40 + k) for k in range(30)]


def test_greedy_drain_schedule_t100():
    strip = uniform(31, 100, RewardClass.HIGH)
    log = run_episode(strip, SensorGeometry(), ENERGY, REWARDS, SampleWhenFeasible())
    # from a full battery: 24 straight samples reach the floor, then the
    # recharge rate allows one sample per 5 steps
    assert drain_schedule(100, 100) == 39
    assert log.total_reward == 39 * 100.0
    assert log.off_fraction == pytest.approx(0.61)
    assert log.violations == 0
    assert min(rec.soc for rec in log.steps) >= 0


def test_greedy_drain_duty_cycle_at_scale():
    strip = uniform(31, 10000, RewardClass.HIGH)
    log = run_episode(strip, SensorGeometry(), ENERGY, REWARDS, SampleWhenFeasible())
    assert drain_schedule(100, 10000) == 2019
    assert log.off_fraction == pytest.approx(0.7981)
    assert log.sample_fraction <= 0.21


@pytest.mark.parametrize("soc0,horizon", [(100, 100), (100, 1000), (37, 500), (0, 200)])
def test_sample_fraction_is_energy_bounded(soc0, horizon):
    # 5 charge points per sample against soc0 banked plus 1 recharged
    # per step: samples <= (soc0 + horizon) / 5
    strip = uniform(5, horizon, RewardClass.HIGH)
    log = run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS,
                      SampleWhenFeasible(), soc0=soc0)
    bound = 0.2 + soc0 / (5.0 * horizon)
    assert log.sample_fraction <= bound + 1e-12
    assert log.sample_fraction == pytest.approx(drain_schedule(soc0, horizon) / horizon)


def test_violations_are_counted_and_coerced():
    strip = uniform(31, 100, RewardClass.HIGH)
    log = run_episode(strip, SensorGeometry(), ENERGY, REWARDS, SampleAlways())
    # the reckless policy asks to sample every step; the 61 refusals all
    # happen below the charge floor and execute as Off
    assert log.violations == 61
    assert log.off_count == 61
    assert log.total_reward == 39 * 100.0
    assert all(rec.soc >= 5 for rec in log.steps if rec.action == Action.SAMPLE)

    # the latency walk coerces the same way and restarts from full charge
    # each time it wraps past the strip's end
    seen = []

    class Recording(SampleAlways):
        def decide(self, obs):
            seen.append(obs.soc)
            return super().decide(obs)

    measure_latency(Recording(), strip, 250, SensorGeometry(), ENERGY)
    assert seen == ([rec.soc for rec in log.steps] * 3)[:250]


def test_reward_accounting_folds():
    strip = EnvStrip(
        np.random.default_rng(0).integers(0, 3, size=(9, 400), dtype=np.uint8)
    )
    log = run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS,
                      SampleWhenFeasible())
    low, mid, high = log.class_counts
    assert log.total_reward == low * 1.0 + mid * 10.0 + high * 100.0
    assert log.total_reward == sum(rec.reward for rec in log.steps)
    assert low + mid + high + log.off_count == log.n_steps


def test_soc0_out_of_range_rejected():
    strip = uniform(5, 10, RewardClass.LOW)
    with pytest.raises(ParameterError):
        run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS,
                    AlwaysOff(), soc0=101)


def test_policy_exception_names_the_step():
    class Broken(Policy):
        def decide(self, obs):
            if obs.t == 3:
                raise ValueError("boom")
            return Action.OFF

    strip = uniform(5, 10, RewardClass.LOW)
    with pytest.raises(EpisodeError) as err:
        run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS, Broken())
    assert err.value.step == 3
    with pytest.raises(EpisodeError) as err:
        measure_latency(Broken(), strip, 20, SensorGeometry.from_pixels(2, 5), ENERGY)
    assert err.value.step == 3


@pytest.mark.parametrize("runner", ["run_episode", "measure_latency"])
def test_bc_features_are_built_before_the_first_clock(monkeypatch, runner):
    """A bc policy's feature block is one-off index work: the rollout has
    the policy's prepare hook build it before it times the first decide."""
    strip = generate_synthetic(GenParams(length=40, seed=3))
    geom = SensorGeometry()
    index = strip_index(strip, geom)
    events = []
    features = index.bc_features

    def spy():
        events.append("features")
        return features()

    clock = time.perf_counter_ns

    def timed():
        events.append("clock")
        return clock()

    monkeypatch.setattr(index, "bc_features", spy)
    monkeypatch.setattr(time, "perf_counter_ns", timed)
    policy = bc_policy(init_mlp(seed=1), mode="threshold", energy=ENERGY)
    if runner == "run_episode":
        run_episode(strip, geom, ENERGY, REWARDS, policy)
    else:
        measure_latency(policy, strip, 30, geom, ENERGY)
    monkeypatch.undo()
    assert events[0] == "features"
    assert events.count("clock") == 2 * (40 if runner == "run_episode" else 30)


class Answer(Policy):
    """Answers Off until step 3, then ``value`` on every step."""

    def __init__(self, value):
        self.value = value

    def decide(self, obs):
        return self.value if obs.t >= 3 else Action.OFF


@pytest.mark.parametrize("value", [-1, 2, 1.5, None, np.int64(-1), "1"],
                         ids=["-1", "2", "1.5", "None", "np.int64(-1)", "str"])
def test_bad_policy_output_names_the_step(value):
    strip = uniform(5, 10, RewardClass.LOW)
    geom = SensorGeometry.from_pixels(2, 5)
    with pytest.raises(EpisodeError) as err:
        run_episode(strip, geom, ENERGY, REWARDS, Answer(value))
    assert err.value.step == 3
    with pytest.raises(EpisodeError) as err:
        measure_latency(Answer(value), strip, 20, geom, ENERGY)
    assert err.value.step == 3


@pytest.mark.parametrize("value", [
    Action.SAMPLE, True, False, 1, 0, np.int64(1), np.uint8(0), np.int32(1),
], ids=["Action.SAMPLE", "True", "False", "1", "0", "np.int64(1)", "np.uint8(0)",
        "np.int32(1)"])
def test_integer_answers_are_recorded_as_actions(value):
    strip = uniform(5, 10, RewardClass.MID)
    log = run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS, Answer(value))
    action = Action.SAMPLE if value else Action.OFF
    assert [rec.action for rec in log.steps[2:]] == [action] * 8
    assert all(type(rec.action) is Action for rec in log.steps)
    assert log.violations == 0


def test_episode_log_to_csv(tmp_path):
    class Script(Policy):
        def decide(self, obs):
            return Action.SAMPLE if obs.t == 2 else Action.OFF

    strip = uniform(5, 3, RewardClass.MID)
    log = run_episode(strip, SensorGeometry.from_pixels(2, 5), ENERGY, REWARDS,
                      Script(), soc0=50)
    path = tmp_path / "episode.csv"
    log.to_csv(path)
    assert path.read_text(encoding="utf-8") == (
        "t,soc,action,class,reward\n"
        "1,50,off,,0.0\n"
        "2,51,sample,mid,10.0\n"
        "3,47,off,,0.0\n"
    )


def reference_episode(strip, geom, energy, rewards, policy, soc0):
    """One episode through the public observe/step pair: an unaffordable
    sample runs as Off and counts as a violation."""
    policy.reset()
    state = SatState(1, soc0)
    records, sampled, counts, violations = [], [], [0, 0, 0], 0
    while state.t <= strip.length:
        action = Action(policy.decide(observe(strip, geom, state)))
        try:
            after, reward, cls = step(strip, geom, energy, rewards, state, action,
                                      policy.placement)
        except InfeasibleActionError:
            action, violations = Action.OFF, violations + 1
            after, reward, cls = step(strip, geom, energy, rewards, state, action,
                                      policy.placement)
        records.append(StepRecord(state.t, state.soc, action, cls, reward))
        if cls is not None:
            sampled.append(reward)
            counts[cls] += 1
        state = after
    total = 0.0
    for reward in reversed(sampled):  # last step first, as documented
        total = reward + total
    return records, total, tuple(counts), violations


def small_learners(config):
    """A Q table and a cloner with non-zero biases, small and seeded."""
    train = generate_synthetic(GenParams(length=120, seed=100))
    qtable = train_dp_sweep([train], config.qlearn, geom=config.geometry,
                            energy=config.energy, rewards=config.rewards)
    model = init_mlp(seed=5)
    for b in model.biases:
        b[:] = np.random.default_rng(6).normal(0.0, 0.3, size=b.shape)
    return qtable, model


def deployable_policies(config, qtable, model):
    """New objects for the roster's policies other than dp."""
    return [_build_policy(name, config, qtable, model) for name in config.roster
            if name != "dp"]


def test_episodes_match_the_public_step_loop():
    """The same policy objects alternate between two strips of different
    lengths; each of their episodes must equal one through the public
    pair by a new object of the same policy, deciding on a copy of the
    strip that nothing has indexed yet.  So no policy may carry what it
    read from one strip to the next, and a first decide on an untouched
    index must read what an episode reads."""
    config = BenchConfig(seed=4)
    geom, energy, rewards = config.geometry, config.energy, config.rewards
    learners = small_learners(config)
    strips = [generate_synthetic(GenParams(length=300, seed=9)),
              generate_synthetic(GenParams(length=170, seed=10))]
    tables = [build_dp_table(strip, geom, energy, rewards) for strip in strips]
    shared = deployable_policies(config, *learners) + [SampleAlways()]
    assert len(shared) == 8
    seen_violations = 0
    for soc0 in (SOC_MAX, 3):
        for strip, table in zip(strips, tables):
            fresh = deployable_policies(config, *learners) + [SampleAlways()]
            pairs = zip(shared + [dp_policy(table, strip)], fresh + [dp_policy(table, strip)])
            for policy, reference in pairs:
                untouched = EnvStrip(strip.cells, pixel_size_km=strip.pixel_size_km)
                records, total, counts, violations = reference_episode(
                    untouched, geom, energy, rewards, reference, soc0)
                log = run_episode(strip, geom, energy, rewards, policy, soc0=soc0)
                assert log.steps == records, policy.name
                for rec in log.steps:
                    assert type(rec) is StepRecord
                    assert type(rec.action) is Action
                    assert rec.sampled is None or type(rec.sampled) is RewardClass
                assert (log.total_reward, log.class_counts, log.violations) == (
                    total, counts, violations), policy.name
                assert log.off_count == len(records) - sum(counts)
                seen_violations += violations
    assert seen_violations > 0  # the reckless policy's coerced samples


def test_no_policy_keeps_a_strip_alive_after_its_episode():
    """Per-strip lists live on the strip's index, never on a policy: after
    every deployable policy has run on a strip, no policy holds one of
    its column lists, and dropping the strip frees its index at once,
    with the collector off.  A policy that kept the index, or any of its
    lists, would keep the last strip's summaries through the next
    episode."""
    config = BenchConfig(seed=4)
    geom, energy, rewards = config.geometry, config.energy, config.rewards
    policies = deployable_policies(config, *small_learners(config))
    strip = generate_synthetic(GenParams(length=200, seed=12))
    columns = strip_index(strip, geom).columns
    kept = [columns, columns.sampled, *columns.sampled, *columns[1:]]
    held = [sys.getrefcount(obj) for obj in kept]
    gc.disable()
    try:
        for policy in policies:
            run_episode(strip, geom, energy, rewards, policy, soc0=config.soc0)
        assert [sys.getrefcount(obj) for obj in kept] == held
        del columns, kept
        index = weakref.ref(strip_index(strip, geom))
        del strip
        assert index() is None
    finally:
        gc.enable()


@given(
    seed=st.integers(0, 2**32 - 1),
    soc0=st.integers(0, 100),
    p=st.floats(0.0, 1.0),
)
@settings(max_examples=30)
def test_soc_stays_in_bounds(geom_small, seed, soc0, p):
    from dyntarget import random_policy

    rng = np.random.default_rng(seed)
    strip = EnvStrip(rng.integers(0, 3, size=(5, 60), dtype=np.uint8))
    policy = random_policy(p_sample=p, seed=seed)
    log = run_episode(strip, geom_small, ENERGY, REWARDS, policy, soc0=soc0)
    assert log.violations == 0
    assert all(0 <= rec.soc <= SOC_MAX for rec in log.steps)
    assert all(rec.soc >= 5 for rec in log.steps if rec.action == Action.SAMPLE)


def test_episodes_are_reproducible(geom_small):
    from dyntarget import random_policy

    strip = EnvStrip(
        np.random.default_rng(3).integers(0, 3, size=(5, 80), dtype=np.uint8)
    )
    policy = random_policy(p_sample=0.4, seed=11)
    first = run_episode(strip, geom_small, ENERGY, REWARDS, policy)
    second = run_episode(strip, geom_small, ENERGY, REWARDS, policy)
    assert first.steps == second.steps
    assert first.total_reward == second.total_reward

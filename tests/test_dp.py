"""Exact planner: backward table, expert policy, brute-force verifier."""
import dataclasses
import struct

import numpy as np
import pytest

from dyntarget import (
    Action,
    EnergyModel,
    EnvStrip,
    GenParams,
    RewardClass,
    RewardModel,
    SensorGeometry,
    brute_force_optimal,
    build_dp_table,
    dp_policy,
    expert_action,
    generate_synthetic,
    greedy_lateral,
    greedy_nadir,
    greedy_radar,
    greedy_window,
    load_dp_table,
    random_policy,
    run_episode,
    save_dp_table,
)
from dyntarget.dp import DP_MAGIC, models_digest
from dyntarget.errors import (
    ConsistencyError,
    FormatError,
    ParameterError,
    ResourceError,
)
from dyntarget.sim import SOC_MAX, SatState, charge_rule, observe, strip_index

ENERGY = EnergyModel()
REWARDS = RewardModel()


def uniform(height, length, cls):
    return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))


def trap_strip():
    """Low everywhere except one High reachable only from the second
    column: spending at t=1 forfeits it."""
    cells = np.full((5, 2), int(RewardClass.LOW), dtype=np.uint8)
    cells[4, 1] = int(RewardClass.HIGH)
    return EnvStrip(cells)


def random_instance(rng, geom):
    height = int(rng.choice([1, 3, 5, 9]))
    length = int(rng.integers(1, 11))
    strip = EnvStrip(rng.integers(0, 3, size=(height, length), dtype=np.uint8))
    soc0 = int(rng.integers(0, 101))
    tiers = np.sort(rng.choice(np.arange(1, 60), size=3, replace=False))
    rewards = RewardModel(
        reward_low=float(tiers[0]), reward_mid=float(tiers[1]), reward_high=float(tiers[2])
    )
    return strip, soc0, rewards


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

def test_single_step_boundary(geom_small):
    strip = uniform(5, 1, RewardClass.HIGH)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    # past the horizon nothing is left to earn
    assert np.all(table.values[1] == 0.0)
    # sampling earns the High; Off earns nothing
    assert table.root_value(100) == 100.0
    assert expert_action(table, 1, 100) == Action.SAMPLE
    # a charge that cannot pay for the sample is worth only Off's 0
    assert table.root_value(ENERGY.sample_discharge - 1) == 0.0


def test_below_the_floor_the_expert_says_off(geom_small):
    strip = uniform(5, 3, RewardClass.MID)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    soc_off = charge_rule(ENERGY)[Action.OFF]
    for t in range(1, strip.length + 1):
        for soc in range(ENERGY.sample_discharge):
            assert expert_action(table, t, soc) == Action.OFF
            assert table.values[t - 1, soc] == table.values[t, soc_off[soc]]
    assert np.all(np.isfinite(table.values))


def test_two_step_trap(geom_small):
    table = build_dp_table(trap_strip(), geom_small, ENERGY, REWARDS)
    # sampling the Low at t=1 drops the charge to 1 and forfeits the High
    soc_off, soc_smp = charge_rule(ENERGY)[:, 5]
    assert 1.0 + table.values[1, soc_smp] == 1.0
    assert table.values[1, soc_off] == 100.0
    assert table.root_value(5) == 100.0
    assert expert_action(table, 1, 5) == Action.OFF
    assert expert_action(table, 2, 6) == Action.SAMPLE


def test_expert_action_bounds(geom_small):
    table = build_dp_table(trap_strip(), geom_small, ENERGY, REWARDS)
    with pytest.raises(IndexError):
        expert_action(table, 3, 50)
    with pytest.raises(IndexError):
        expert_action(table, 0, 50)
    with pytest.raises(ParameterError):
        expert_action(table, 1, 101)


def test_soc_zero_forces_off(geom_small):
    table = build_dp_table(trap_strip(), geom_small, ENERGY, REWARDS)
    assert expert_action(table, 1, 0) == Action.OFF


def test_memory_cap(geom_small):
    strip = uniform(5, 2000, RewardClass.LOW)
    with pytest.raises(ResourceError):
        build_dp_table(strip, geom_small, ENERGY, REWARDS, memory_cap_bytes=100_000)


def test_value_is_monotone_in_charge(geom_small):
    rng = np.random.default_rng(8)
    strip = EnvStrip(rng.integers(0, 3, size=(5, 40), dtype=np.uint8))
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    assert np.all(np.diff(table.values, axis=1) >= 0)


# ---------------------------------------------------------------------------
# optimality
# ---------------------------------------------------------------------------

# (discharge, recharge): the default, the cheapest sample, larger steps,
# and a sample that needs a full battery
ENERGY_MODELS = [(5, 1), (2, 1), (7, 2), (3, 2), (100, 99)]


@pytest.mark.parametrize("discharge, recharge", ENERGY_MODELS)
def test_matches_brute_force_on_random_instances(geom_small, discharge, recharge):
    energy = EnergyModel(sample_discharge=discharge, recharge_per_step=recharge)
    rng = np.random.default_rng(123)
    for _ in range(30):
        strip, soc0, rewards = random_instance(rng, geom_small)
        # sevenths round differently when a path's rewards are added in
        # another order than the table's
        sevenths = RewardModel(*(rewards.values() / 7))
        for tiers in (rewards, sevenths):
            table = build_dp_table(strip, geom_small, energy, tiers)
            value, actions = brute_force_optimal(strip, geom_small, energy, tiers, soc0=soc0)
            assert table.root_value(soc0) == value
            assert len(actions) == strip.length


@pytest.mark.parametrize("discharge, recharge", ENERGY_MODELS)
def test_expert_replay_achieves_the_table_value(geom_small, discharge, recharge):
    energy = EnergyModel(sample_discharge=discharge, recharge_per_step=recharge)
    rng = np.random.default_rng(5)
    for _ in range(5):
        strip = EnvStrip(rng.integers(0, 3, size=(5, 60), dtype=np.uint8))
        soc0 = int(rng.integers(0, 101))
        table = build_dp_table(strip, geom_small, energy, REWARDS)
        log = run_episode(strip, geom_small, energy, REWARDS,
                          dp_policy(table, strip), soc0=soc0)
        assert log.total_reward == table.root_value(soc0)
        assert log.violations == 0


REPLAY_REWARDS = [(0.1, 0.3, 1.7), (1 / 3, 2 / 3, 7 / 3), (-5.0, -2.0, -1.0)]


@pytest.fixture(scope="module")
def replay_strip():
    return generate_synthetic(GenParams(length=2000, seed=900))


@pytest.mark.parametrize("soc0", [0, 37, 100])
@pytest.mark.parametrize("discharge, recharge", [(5, 1), (7, 2), (100, 99)])
@pytest.mark.parametrize("tiers", REPLAY_REWARDS)
def test_replay_totals_exactly_the_root_value(replay_strip, tiers, discharge, recharge, soc0):
    # fractional rewards round differently when summed in another order,
    # so this pins the episode total to the planner's summation order
    geom = SensorGeometry()
    energy = EnergyModel(sample_discharge=discharge, recharge_per_step=recharge)
    rewards = RewardModel(*tiers)
    table = build_dp_table(replay_strip, geom, energy, rewards)
    log = run_episode(replay_strip, geom, energy, rewards,
                      dp_policy(table, replay_strip), soc0=soc0)
    assert log.total_reward == table.root_value(soc0)


@pytest.mark.parametrize("energy, rewards", [
    (ENERGY, REWARDS),
    (ENERGY, RewardModel(0.25, 0.5, 1.75)),  # fractional, with exact ties
    (EnergyModel(7, 3), REWARDS),
], ids=["default", "fractional_ties", "energy_7_3"])
def test_dp_decisions_are_the_expert_actions(energy, rewards):
    """The planner policy's decide equals ``expert_action`` at every
    (t, soc) of a strip, and an exact tie between Sample and Off goes
    to Off."""
    geom = SensorGeometry()
    strip = generate_synthetic(GenParams(length=150, seed=31))
    table = build_dp_table(strip, geom, energy, rewards)
    policy = dp_policy(table, strip)
    value = rewards.values()[strip_index(strip, geom).radar_best]
    off_next, smp_next = charge_rule(energy)
    ties = 0
    for t in range(1, strip.length + 1):
        for soc in range(SOC_MAX + 1):
            got = policy.decide(observe(strip, geom, SatState(t, soc)))
            assert type(got) is Action
            assert got == expert_action(table, t, soc), (t, soc)
            if soc >= energy.sample_discharge and (
                    value[t - 1] + table.values[t, smp_next[soc]]
                    == table.values[t, off_next[soc]]):
                ties += 1
                assert got == Action.OFF, (t, soc)
    assert ties > 0


def test_no_policy_beats_the_planner(geom_small):
    rng = np.random.default_rng(77)
    policies = [
        random_policy(p_sample=0.5, seed=1),
        greedy_nadir(),
        greedy_lateral(),
        greedy_radar(),
        greedy_window(),
    ]
    for seed in range(3):
        strip = EnvStrip(
            np.random.default_rng(seed).integers(0, 3, size=(9, 120), dtype=np.uint8)
        )
        table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
        ceiling = table.root_value(100)
        for policy in policies:
            log = run_episode(strip, geom_small, ENERGY, REWARDS, policy)
            assert log.total_reward <= ceiling


def test_all_low_value_counts_samples(geom_small):
    strip = uniform(5, 200, RewardClass.LOW)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    log = run_episode(strip, geom_small, ENERGY, REWARDS, dp_policy(table, strip))
    assert log.total_reward == log.class_counts[int(RewardClass.LOW)] * 1.0
    assert log.total_reward == table.root_value(100)


def test_policy_strip_must_match_table(geom_small):
    strip = trap_strip()
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    other = uniform(5, 2, RewardClass.LOW)
    with pytest.raises(ConsistencyError):
        dp_policy(table, other)
    stretched = dataclasses.replace(table, values=np.zeros((4, 101)))
    with pytest.raises(ConsistencyError):
        dp_policy(stretched, strip)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_single_high(geom_small):
    strip = uniform(5, 1, RewardClass.HIGH)
    assert brute_force_optimal(strip, geom_small, ENERGY, REWARDS, soc0=5) == (
        100.0,
        [Action.SAMPLE],
    )


def test_brute_force_trap(geom_small):
    value, actions = brute_force_optimal(trap_strip(), geom_small, ENERGY, REWARDS, soc0=5)
    assert value == 100.0
    assert actions == [Action.OFF, Action.SAMPLE]


def test_brute_force_tie_prefers_off_first(geom_small):
    # from charge 8 on a uniform strip either step can hold the one
    # affordable sample; the earliest Off-heavy sequence must win
    strip = uniform(5, 2, RewardClass.LOW)
    value, actions = brute_force_optimal(strip, geom_small, ENERGY, REWARDS, soc0=8)
    assert value == 1.0
    assert actions == [Action.OFF, Action.SAMPLE]


def test_brute_force_refuses_long_strips(geom_small):
    strip = uniform(5, 21, RewardClass.LOW)
    with pytest.raises(ParameterError):
        brute_force_optimal(strip, geom_small, ENERGY, REWARDS)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_table_round_trip(tmp_path, geom_small):
    strip = trap_strip()
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    path = tmp_path / "t.dpt"
    save_dp_table(table, path)
    back = load_dp_table(path)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, table.values)
    assert back.strip_digest == table.strip_digest
    assert back.energy == ENERGY
    assert back.models_digest == models_digest(geom_small, ENERGY, REWARDS)
    assert back.horizon == table.horizon
    # a reloaded table still drives the expert
    log = run_episode(strip, geom_small, ENERGY, REWARDS, dp_policy(back, strip), soc0=5)
    assert log.total_reward == 100.0


def test_table_format_errors(tmp_path, geom_small):
    table = build_dp_table(trap_strip(), geom_small, ENERGY, REWARDS)
    path = tmp_path / "t.dpt"
    save_dp_table(table, path)
    good = path.read_bytes()

    bad = tmp_path / "bad.dpt"
    bad.write_bytes(b"WHAT" + good[4:])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == 0

    bad.write_bytes(good[:20])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == 20

    bad.write_bytes(DP_MAGIC + struct.pack("<II", 0, 101) + good[12:])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == 4

    # a sample cheaper than the recharge is no energy model
    bad.write_bytes(good[:12] + struct.pack("<II", 1, 2) + good[20:])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == 12

    bad.write_bytes(good[:-8])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == len(good) - 8

    bad.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == len(good)

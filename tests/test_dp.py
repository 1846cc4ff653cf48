"""Exact planner: backward table, expert policy, brute-force verifier."""
import struct

import numpy as np
import pytest

from dyntarget import (
    Action,
    DPTable,
    EnergyModel,
    EnvStrip,
    RewardClass,
    RewardModel,
    SensorGeometry,
    brute_force_optimal,
    build_dp_table,
    dp_policy,
    expert_action,
    greedy_lateral,
    greedy_nadir,
    greedy_radar,
    greedy_window,
    load_dp_table,
    random_policy,
    run_episode,
    save_dp_table,
)
from dyntarget.dp import DP_MAGIC
from dyntarget.errors import (
    ConsistencyError,
    FormatError,
    ParameterError,
    ResourceError,
)

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
    assert table.values[0, 100, int(Action.SAMPLE)] == 100.0
    assert table.values[0, 100, int(Action.OFF)] == 0.0
    assert table.root_value(100) == 100.0
    assert expert_action(table, 1, 100) == Action.SAMPLE


def test_infeasible_cells_hold_sentinel(geom_small):
    strip = uniform(5, 3, RewardClass.MID)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    assert np.all(np.isneginf(table.values[:, :5, int(Action.SAMPLE)]))
    assert np.all(np.isfinite(table.values[:, :, int(Action.OFF)]))


def test_two_step_trap(geom_small):
    table = build_dp_table(trap_strip(), geom_small, ENERGY, REWARDS)
    # sampling the Low at t=1 drops the charge to 1 and forfeits the High
    assert table.values[0, 5, int(Action.SAMPLE)] == 1.0
    assert table.values[0, 5, int(Action.OFF)] == 100.0
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
    best = np.max(table.values, axis=2)  # feasible Off masks the sentinel
    assert np.all(np.diff(best, axis=1) >= 0)


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
        table = build_dp_table(strip, geom_small, energy, rewards)
        value, actions = brute_force_optimal(strip, geom_small, energy, rewards, soc0=soc0)
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
    stretched = DPTable(values=np.zeros((3, 101, 2), dtype=np.float32),
                        strip_digest=strip.digest())
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
    assert np.array_equal(back.values, table.values)
    assert back.strip_digest == table.strip_digest
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

    bad.write_bytes(DP_MAGIC + struct.pack("<III", 0, 101, 2) + good[16:])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == 4

    bad.write_bytes(good[:-4])
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == len(good) - 4

    bad.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as err:
        load_dp_table(bad)
    assert err.value.offset == len(good)

"""Tabular learner: state codec, sweep trainer, greedy policy."""
import hashlib
import struct

import numpy as np
import pytest

from dyntarget import (
    Action,
    EnergyModel,
    EnvStrip,
    QLearnParams,
    QState,
    QTable,
    RewardClass,
    RewardModel,
    SensorGeometry,
    build_dp_table,
    featurize_q,
    load_qtable,
    observe,
    q_policy,
    q_state_from_index,
    q_state_index,
    random_policy,
    run_episode,
    save_qtable,
    train_dp_sweep,
)
from dyntarget.qlearn import N_Q_STATES, Q_HEADER, Q_MAGIC, _sweep
from dyntarget.sim import SatState, strip_index
from dyntarget.errors import FormatError, ParameterError
from dyntarget.world import UNKEYED

ENERGY = EnergyModel()
REWARDS = RewardModel()


def uniform(height, length, cls):
    return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))


def trap_strip():
    cells = np.full((5, 2), int(RewardClass.LOW), dtype=np.uint8)
    cells[4, 1] = int(RewardClass.HIGH)
    return EnvStrip(cells)


# ---------------------------------------------------------------------------
# state codec
# ---------------------------------------------------------------------------

def test_state_index_examples():
    low_both = QState(soc=75, flags=(True, False, False, True, False, False))
    assert q_state_index(low_both) == 4809
    assert q_state_index(QState(soc=0, flags=(False,) * 6)) == 0
    assert q_state_index(QState(soc=100, flags=(True,) * 6)) == 6463


def test_state_codec_is_a_bijection():
    seen = set()
    for idx in range(N_Q_STATES):
        state = q_state_from_index(idx)
        assert q_state_index(state) == idx
        seen.add((state.soc, state.flags))
    assert len(seen) == N_Q_STATES


@pytest.mark.parametrize("idx", [-1, N_Q_STATES])
def test_state_from_index_rejects_out_of_range(idx):
    with pytest.raises(ParameterError):
        q_state_from_index(idx)


def test_state_validation():
    with pytest.raises(ParameterError):
        QState(soc=101, flags=(False,) * 6)
    with pytest.raises(ParameterError):
        QState(soc=50, flags=(False,) * 5)


def test_featurize_low_strip(geom_small):
    strip = uniform(5, 30, RewardClass.LOW)
    state = featurize_q(observe(strip, geom_small, SatState(t=10, soc=75)))
    assert state == QState(soc=75, flags=(True, False, False, True, False, False))
    assert q_state_index(state) == 4809


def test_featurize_last_column_has_empty_window(geom_small):
    strip = uniform(5, 30, RewardClass.MID)
    state = featurize_q(observe(strip, geom_small, SatState(t=30, soc=40)))
    assert state.flags == (False, True, False, False, False, False)


def test_params_validation():
    with pytest.raises(ParameterError):
        QLearnParams(alpha=0.0)
    with pytest.raises(ParameterError):
        QLearnParams(gamma=-0.1)
    with pytest.raises(ParameterError):
        QLearnParams(sweeps=-1)


# ---------------------------------------------------------------------------
# sweep trainer
# ---------------------------------------------------------------------------

def test_sweep_zero_passes_leaves_the_table_cold(geom_small):
    table = train_dp_sweep([trap_strip()], QLearnParams(sweeps=0), geom=geom_small)
    assert not table.q.any()
    policy = q_policy(table, ENERGY)
    log = run_episode(trap_strip(), geom_small, ENERGY, REWARDS, policy, soc0=100)
    assert log.off_count == 2


def test_sweep_trainer_rejects_empty_input(geom_small):
    with pytest.raises(ParameterError):
        train_dp_sweep([], geom=geom_small)


def test_sweep_trainer_solves_the_trap(geom_small):
    strip = trap_strip()
    table = train_dp_sweep([strip], QLearnParams(sweeps=50), geom=geom_small)
    log = run_episode(strip, geom_small, ENERGY, REWARDS,
                      q_policy(table, ENERGY), soc0=5)
    # waiting one step keeps the charge for the High in the second column
    assert [s.action for s in log.steps] == [Action.OFF, Action.SAMPLE]
    assert log.total_reward == 100.0


def test_sweep_trainer_is_deterministic(geom_small):
    rng = np.random.default_rng(31)
    strips = [
        EnvStrip(rng.integers(0, 3, size=(5, 30), dtype=np.uint8)) for _ in range(2)
    ]
    a = train_dp_sweep(strips, QLearnParams(sweeps=20), geom=geom_small)
    b = train_dp_sweep(strips, QLearnParams(sweeps=20), geom=geom_small)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.visits, b.visits)


def test_sweep_trainer_beats_random_on_held_out(geom_small):
    rng = np.random.default_rng(40)
    train = [EnvStrip(rng.integers(0, 3, size=(9, 200), dtype=np.uint8)) for _ in range(3)]
    held = EnvStrip(rng.integers(0, 3, size=(9, 200), dtype=np.uint8))
    table = train_dp_sweep(train, QLearnParams(sweeps=50), geom=geom_small)
    ours = run_episode(held, geom_small, ENERGY, REWARDS, q_policy(table, ENERGY))
    base = run_episode(held, geom_small, ENERGY, REWARDS, random_policy(seed=2))
    ceiling = build_dp_table(held, geom_small, ENERGY, REWARDS).root_value(100)
    assert base.total_reward < ours.total_reward <= ceiling


def oracle_pass(q, visits, flags, r_sample, alpha, gamma, discharge, recharge):
    """One sweep pass one cell at a time, in its defining order: timestep
    T-1..0, charge 0..100, Off then Sample, each update reading the table
    as the previous update left it (Gauss-Seidel)."""
    horizon = len(flags)
    for t0 in range(horizon - 1, -1, -1):
        terminal = t0 == horizon - 1
        for soc in range(101):
            s = soc * 64 + flags[t0]
            follow = 0.0
            if not terminal:
                ns = min(soc + recharge, 100) * 64 + flags[t0 + 1]
                follow = max(q[ns, 0], q[ns, 1])
            q[s, 0] += alpha * (gamma * follow - q[s, 0])
            visits[s, 0] += 1
            if soc >= discharge:
                follow = 0.0
                if not terminal:
                    ns = min(max(soc - discharge + recharge, 0), 100) * 64 + flags[t0 + 1]
                    follow = max(q[ns, 0], q[ns, 1])
                q[s, 1] += alpha * (r_sample[t0] + gamma * follow - q[s, 1])
                visits[s, 1] += 1


def sweep_oracle(strips, params, geom, energy):
    """The sweep trainer rebuilt from observations and ``oracle_pass``."""
    columns = []
    for strip in strips:
        flags, r_sample = [], []
        for t0 in range(strip.length):
            obs = observe(strip, geom, SatState(t=t0 + 1, soc=100))
            flags.append(q_state_index(featurize_q(obs)) % 64)
            r_sample.append(REWARDS.value_of(obs.radar_best_class()))
        columns.append((flags, r_sample))
    table = QTable()
    for _ in range(params.sweeps):
        for flags, r_sample in columns:
            oracle_pass(table.q, table.visits, flags, r_sample, params.alpha, params.gamma,
                        energy.sample_discharge, energy.recharge_per_step)
    return table


def oracle_strips():
    """Under ``oracle_geom``, state bits that repeat, change every step, and mix."""
    steady = uniform(3, 30, RewardClass.MID)
    flicker = EnvStrip(np.tile(np.array([[0, 0, 1, 2]], dtype=np.uint8), 8))
    mixed = EnvStrip(np.random.default_rng(5).integers(0, 3, size=(5, 40), dtype=np.uint8))
    return [steady, flicker, mixed]


@pytest.fixture(scope="module")
def oracle_geom():
    return SensorGeometry.from_pixels(1, 2)


def test_oracle_strips_repeat_and_change_flags(oracle_geom):
    steady, flicker, mixed = (
        np.diff(strip_index(s, oracle_geom).qflag.astype(int)) == 0 for s in oracle_strips()
    )
    # the last column's lookahead window is empty, so its flags always differ
    assert steady[:-1].all() and not steady[-1]
    assert not flicker.any()
    assert 0.2 < mixed.mean() < 0.8


@pytest.mark.parametrize("alpha, gamma", [(0.4, 0.99), (1.0, 1.0), (0.13, 0.5)])
@pytest.mark.parametrize("discharge, recharge", [(5, 1), (7, 2), (3, 1), (2, 1), (100, 99)])
def test_sweep_trainer_matches_the_cell_by_cell_oracle(
    oracle_geom, discharge, recharge, alpha, gamma
):
    energy = EnergyModel(sample_discharge=discharge, recharge_per_step=recharge)
    params = QLearnParams(alpha=alpha, gamma=gamma, sweeps=3)
    strips = oracle_strips()
    table = train_dp_sweep(strips, params, geom=oracle_geom, energy=energy)
    mirror = sweep_oracle(strips, params, oracle_geom, energy)
    assert np.array_equal(table.q, mirror.q)
    assert np.array_equal(table.visits, mirror.visits)


@pytest.mark.parametrize("discharge, recharge", [(5, 1), (3, 1), (100, 99)])
def test_sweep_kernel_matches_the_oracle_on_constant_flags(discharge, recharge):
    # no strip keeps its flags into the last column, so feed the kernel directly
    flags = np.full(30, 41, dtype=np.int64)
    r_sample = np.linspace(0.0, 10.0, 30)
    table, mirror = QTable(), QTable()
    for _ in range(3):
        _sweep(table.q, table.visits, flags, r_sample, 0.4, 0.99, discharge, recharge)
        oracle_pass(mirror.q, mirror.visits, flags.tolist(), r_sample.tolist(),
                    0.4, 0.99, discharge, recharge)
    assert table.q.any()
    assert np.array_equal(table.q, mirror.q)
    assert np.array_equal(table.visits, mirror.visits)


# ---------------------------------------------------------------------------
# greedy policy
# ---------------------------------------------------------------------------

def test_policy_prefers_off_on_ties_and_respects_the_floor(geom_small):
    strip = uniform(5, 10, RewardClass.HIGH)
    table = QTable()
    policy = q_policy(table, ENERGY)
    policy.reset()
    obs = observe(strip, geom_small, SatState(t=1, soc=100))
    assert policy.decide(obs) == Action.OFF  # cold table ties to Off

    s = q_state_index(featurize_q(obs))
    table.q[s, int(Action.SAMPLE)] = 1.0
    assert policy.decide(obs) == Action.SAMPLE

    starved = observe(strip, geom_small, SatState(t=1, soc=4))
    s2 = q_state_index(featurize_q(starved))
    table.q[s2, int(Action.SAMPLE)] = 99.0
    assert policy.decide(starved) == Action.OFF


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_qtable_round_trip(tmp_path, geom_small):
    table = train_dp_sweep([trap_strip()], QLearnParams(sweeps=10), geom=geom_small)
    path = tmp_path / "q.dtq"
    save_qtable(table, path)
    back = load_qtable(path)
    assert back.q.dtype == np.float64
    assert np.array_equal(back.q, table.q)
    assert not back.visits.any()  # counts are training state, not payload
    save_qtable(back, tmp_path / "q2.dtq")
    assert (tmp_path / "q2.dtq").read_bytes() == path.read_bytes()


def test_qtable_header_round_trips_its_key(tmp_path):
    table = QTable()
    assert table.key == UNKEYED
    table.key = tuple(hashlib.sha256(part).hexdigest() for part in (b"strips", b"models", b"q"))
    path = tmp_path / "q.dtq"
    save_qtable(table, path)
    assert load_qtable(path).key == table.key
    assert path.read_bytes()[12:Q_HEADER.size] == b"".join(map(bytes.fromhex, table.key))


def test_qtable_format_errors(tmp_path):
    path = tmp_path / "q.dtq"
    save_qtable(QTable(), path)
    good = path.read_bytes()
    assert len(good) == Q_HEADER.size + N_Q_STATES * 2 * 8

    bad = tmp_path / "bad.dtq"
    bad.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(FormatError) as err:
        load_qtable(bad)
    assert err.value.offset == 0

    bad.write_bytes(Q_MAGIC + struct.pack("<II", 99, 2) + good[12:])
    with pytest.raises(FormatError) as err:
        load_qtable(bad)
    assert err.value.offset == 4

    bad.write_bytes(good[:200])
    with pytest.raises(FormatError) as err:
        load_qtable(bad)
    assert err.value.offset == 200

    bad.write_bytes(good + b"\x01\x02")
    with pytest.raises(FormatError) as err:
        load_qtable(bad)
    assert err.value.offset == len(good)

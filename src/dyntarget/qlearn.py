"""Tabular Q-learning over a compact (charge, visibility) state.

The state keeps the integer charge plus six presence bits: one per class
for the instrument footprint and one per class for the lookahead window.
That is 101 * 2^6 = 6464 rows of two actions, small enough to sweep
exhaustively.

The trainer walks the horizon backward and updates every (timestep,
charge, action) cell each pass, which reaches the planner's quality in
a handful of sweeps.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, ParameterError
from .sim import (
    _OFF,
    _SAMPLE,
    Action,
    EnergyModel,
    N_SOC,
    Observation,
    Placement,
    Policy,
    SensorGeometry,
    SOC_MAX,
    charge_rule,
    strip_index,
)
from .world import UNKEYED, EnvStrip, RewardModel, check_size, read_checked, write_file

N_FLAGS = 6
N_FLAG_COMBOS = 1 << N_FLAGS  # 64
N_Q_STATES = N_SOC * N_FLAG_COMBOS  # 6464

Q_MAGIC = b"DTQ2"
# magic, states, actions, then the key: training strips, models and params digests
Q_HEADER = struct.Struct("<4sII32s32s32s")


@dataclass(frozen=True)
class QLearnParams:
    """Sweep trainer hyperparameters."""

    alpha: float = 0.4
    gamma: float = 0.99
    sweeps: int = 5

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"alpha out of (0, 1]: {self.alpha}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ParameterError(f"gamma out of [0, 1]: {self.gamma}")
        if self.sweeps < 0:
            raise ParameterError(f"sweeps must be >= 0, got {self.sweeps}")


@dataclass(frozen=True)
class QState:
    """Charge plus the six visibility bits, in fixed bit order:
    footprint Low/Mid/High are bits 0..2, lookahead Low/Mid/High 3..5."""

    soc: int
    flags: Tuple[bool, bool, bool, bool, bool, bool]

    def __post_init__(self):
        if not (0 <= self.soc <= SOC_MAX):
            raise ParameterError(f"soc out of [0, {SOC_MAX}]: {self.soc}")
        if len(self.flags) != N_FLAGS:
            raise ParameterError(f"expected {N_FLAGS} flags, got {len(self.flags)}")


def q_state_index(state: QState) -> int:
    bits = 0
    for i, flag in enumerate(state.flags):
        bits |= int(bool(flag)) << i
    return state.soc * N_FLAG_COMBOS + bits


def q_state_from_index(idx: int) -> QState:
    if not (0 <= idx < N_Q_STATES):
        raise ParameterError(f"state index out of [0, {N_Q_STATES}): {idx}")
    soc, bits = divmod(idx, N_FLAG_COMBOS)
    flags = tuple(bool((bits >> i) & 1) for i in range(N_FLAGS))
    return QState(soc=soc, flags=flags)


def featurize_q(obs: Observation) -> QState:
    """Collapse an observation to its tabular state."""
    return QState(soc=obs.soc, flags=obs.radar_class_presence() + obs.lookahead_class_presence())


class QTable:
    """Action values plus per-cell visit counts, both zero-initialized.

    ``key`` names what the values were trained on (see ``world.UNKEYED``);
    the trainer leaves it unkeyed and whoever knows the inputs sets it.
    """

    def __init__(self):
        self.q = np.zeros((N_Q_STATES, 2), dtype=np.float64)
        self.visits = np.zeros((N_Q_STATES, 2), dtype=np.int64)
        self.key = UNKEYED


# ---------------------------------------------------------------------------
# sweep trainer
# ---------------------------------------------------------------------------

def _sweep(q, visits, flags, r_sample, alpha, gamma, discharge, recharge):
    """One backward pass: timestep T-1..0, charge 0..100, Off then Sample.

    ``flags`` and ``r_sample`` are per-column state bits and sample
    rewards; updates beyond the horizon bootstrap from zero.  Updates are
    in place (Gauss-Seidel): a later cell reads what an earlier one wrote.
    The row each cell reads next comes from ``charge_rule``.

    Within one timestep an Off update reads row min(soc + recharge, 100),
    never below ``soc``, so it always sees the value from before the
    timestep; a Sample update whose next column has other flags reads
    rows this timestep does not touch.  Both are whole-column numpy ops.
    A Sample whose next column has the same flags reads row
    soc - (discharge - recharge), already written this timestep, so that
    recurrence runs as a scalar loop over Python floats.  Python floats
    are IEEE doubles, so every value matches the cell-by-cell order bit
    for bit.
    """
    by_flag = q.reshape(N_SOC, N_FLAG_COMBOS, 2)
    counts = np.bincount(flags, minlength=N_FLAG_COMBOS)
    visits_by_flag = visits.reshape(N_SOC, N_FLAG_COMBOS, 2)
    visits_by_flag[:, :, 0] += counts
    visits_by_flag[discharge:, :, 1] += counts

    off_next, smp_next = charge_rule(EnergyModel(discharge, recharge))
    smp_next = smp_next[discharge:]
    smp_rows = list(zip(range(discharge, N_SOC), smp_next.tolist()))
    follow = np.zeros(N_SOC)  # past the horizon
    flag_list = flags.tolist()
    r_list = r_sample.tolist()
    ft1 = -1
    for t0 in range(len(flag_list) - 1, -1, -1):
        ft = flag_list[t0]
        r_t = r_list[t0]
        if ft1 >= 0:
            nxt_off, nxt_smp = by_flag[:, ft1, 0], by_flag[:, ft1, 1]
            follow = np.where(nxt_smp > nxt_off, nxt_smp, nxt_off)  # as max(off, smp)
        rows = by_flag[:, ft]
        q_off = rows[:, 0]
        q_off += alpha * (gamma * follow[off_next] - q_off)
        if ft != ft1:
            q_smp = rows[discharge:, 1]
            q_smp += alpha * (r_t + gamma * follow[smp_next] - q_smp)
        else:
            off = q_off.tolist()
            smp = rows[:, 1].tolist()
            for soc, nxt in smp_rows:
                a = off[nxt]
                b = smp[nxt]
                v = smp[soc]
                smp[soc] = v + alpha * (r_t + gamma * (b if b > a else a) - v)
            rows[discharge:, 1] = smp[discharge:]
        ft1 = ft


def train_dp_sweep(
    strips: Sequence[EnvStrip],
    params: QLearnParams = QLearnParams(),
    geom: SensorGeometry = SensorGeometry(),
    energy: EnergyModel = EnergyModel(),
    rewards: RewardModel = RewardModel(),
) -> QTable:
    """Exhaustive backward sweeps over every (timestep, charge, action).

    Each sweep visits each training strip in the given order.  Zero
    sweeps returns the zero table.  Deterministic: no randomness is
    involved at all.  Rewards that could overflow a total over a
    strip's horizon raise ConfigError, before any sweep.
    """
    strips = list(strips)
    if not strips:
        raise ParameterError("need at least one training strip")
    table = QTable()
    prepared = []
    for strip in strips:
        rewards.check_horizon(strip.length)
        idx = strip_index(strip, geom)
        r_sample = rewards.values()[idx.radar_best]
        prepared.append((idx.qflag, r_sample))
    for _ in range(params.sweeps):
        for flags, r_sample in prepared:
            _sweep(table.q, table.visits, flags, r_sample, params.alpha, params.gamma,
                   energy.sample_discharge, energy.recharge_per_step)
    return table


# ---------------------------------------------------------------------------
# policy and serialization
# ---------------------------------------------------------------------------

class _QPolicy(Policy):
    name = "qlearn"
    placement = Placement.DISC

    def __init__(self, table: QTable, energy: EnergyModel):
        self.table = table
        self.energy = energy

    def decide(self, obs: Observation) -> Action:
        if obs.soc < self.energy.sample_discharge:
            return _OFF
        s = obs.soc * N_FLAG_COMBOS + obs.index.columns.qflag[obs.t - 1]
        q = self.table.q
        return _SAMPLE if q.item(s, 1) > q.item(s, 0) else _OFF


def q_policy(table: QTable, energy: EnergyModel = EnergyModel()) -> Policy:
    """Greedy feasibility-masked readout; exact ties stay Off."""
    return _QPolicy(table, energy)


def save_qtable(table: QTable, path, manifest: Optional[dict] = None) -> None:
    """Write the values exactly, as float64, and the table's key; visit
    counts are training state and are not saved."""
    header = Q_HEADER.pack(Q_MAGIC, N_Q_STATES, 2, *map(bytes.fromhex, table.key))
    write_file(path, header, np.ascontiguousarray(table.q, dtype="<f8"), manifest)


def load_qtable(path) -> QTable:
    data, (n_states, n_actions, *key) = read_checked(path, Q_MAGIC, Q_HEADER)
    if n_states != N_Q_STATES or n_actions != 2:
        raise FormatError(f"unsupported table shape {n_states}x{n_actions}", offset=4)
    check_size(data, Q_HEADER.size + n_states * n_actions * 8)
    values = np.frombuffer(data, dtype="<f8", count=n_states * n_actions, offset=Q_HEADER.size)
    table = QTable()
    table.q = values.reshape((n_states, n_actions)).astype(np.float64)
    table.key = tuple(digest.hex() for digest in key)
    return table

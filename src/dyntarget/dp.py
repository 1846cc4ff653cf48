"""Exact backward-induction planner and its brute-force verifier.

With binary actions and integer charge the whole problem fits in a
(timestep, charge) value table.  ``build_dp_table`` fills it backward
from the horizon; reading an action off that table is the optimal
policy, and its root value upper-bounds every other policy on the same
strip.

``brute_force_optimal`` exists to distrust the table: it enumerates
every feasible action sequence outright, so it is capped at tiny
horizons and shares no recurrence with the table builder.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConsistencyError, FormatError, ParameterError, ResourceError
from .sim import (_OFF, _SAMPLE, Action, EnergyModel, N_SOC, Observation, Placement, Policy,
                  SensorGeometry, SOC_MAX, charge_rule, strip_index)
from .world import EnvStrip, RewardModel, check_size, read_checked, write_file

# Enumerating 2^T sequences past this horizon is pointless and slow.
BRUTE_FORCE_MAX_T = 20

DP_MAGIC = b"DTD2"
# magic, horizon, charge levels, discharge, recharge, strip digest, models digest
DP_HEADER = struct.Struct("<4sIIII32s32s")

DEFAULT_MEMORY_CAP = 512 * 1024 * 1024


def models_digest(geom: SensorGeometry, energy: EnergyModel, rewards: RewardModel) -> str:
    """Hash of every model a value table depends on besides the strip."""
    r = (rewards.reward_low, rewards.reward_mid, rewards.reward_high)
    return hashlib.sha256(repr((geom, energy, r)).encode()).hexdigest()


@dataclass
class DPTable:
    """values[t, soc] = best total reward from timestep t + 1 onward at
    charge ``soc``, float64, shape (horizon + 1, 101); the last row is 0.
    Valid only for the strip named by ``strip_digest`` under ``energy``
    and the models named by ``models_digest``."""

    values: np.ndarray
    strip_digest: str
    energy: EnergyModel
    models_digest: str

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def root_value(self, soc0: int) -> float:
        """Optimal episode reward from initial charge ``soc0``."""
        if not (0 <= soc0 <= SOC_MAX):
            raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc0}")
        return float(self.values[0, soc0])

    def check_strip(self, strip: EnvStrip) -> None:
        """Raise ConsistencyError unless the table was built for ``strip``."""
        if self.strip_digest != strip.digest() or self.horizon != strip.length:
            raise ConsistencyError("value table was built for a different strip")

    def samples(self, t0s, socs):
        """Whether Sample is optimal at 0-based columns ``t0s`` and charges
        ``socs`` (scalars or arrays): ``_sample_wins`` for each pair."""
        off_next = charge_rule(self.energy)[Action.OFF]
        return self.values[t0s, socs] > self.values[t0s + 1, off_next[socs]]


def _sample_wins(values: np.ndarray, off_next, t0: int, soc: int) -> bool:
    """Whether Sample is optimal at 0-based column ``t0`` and charge
    ``soc``, given the Off successor charges ``off_next`` (indexed by
    charge): a value exceeds its Off successor's only when sampling is
    strictly better, so exact ties go to Off."""
    return values.item(t0, soc) > values.item(t0 + 1, off_next[soc])


def build_dp_table(
    strip: EnvStrip,
    geom: SensorGeometry = SensorGeometry(),
    energy: EnergyModel = EnergyModel(),
    rewards: RewardModel = RewardModel(),
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP,
) -> DPTable:
    """Backward induction over (timestep, charge): each value adds one
    sampled reward to its successor's, so it sums its path last step
    first.  Rewards are read from the strip's cached index
    ``strip_index(strip, geom)``.  The size is checked against
    ``memory_cap_bytes`` up front, and rewards that could overflow a
    total over the horizon raise ConfigError."""
    horizon = strip.length
    rewards.check_horizon(horizon)
    estimate = (horizon + 1) * N_SOC * 8
    if estimate > memory_cap_bytes:
        raise ResourceError(f"value table needs {estimate} bytes, cap is {memory_cap_bytes}")

    r_sample = rewards.values()[strip_index(strip, geom).radar_best]
    off_next, smp_next = charge_rule(energy)
    d = energy.sample_discharge  # the lowest charge that affords a sample
    smp_next = smp_next[d:]

    values = np.zeros((horizon + 1, N_SOC))
    for t0 in range(horizon - 1, -1, -1):
        follow, row = values[t0 + 1], values[t0]
        np.take(follow, off_next, out=row)
        np.maximum(row[d:], r_sample[t0] + follow[smp_next], out=row[d:])
    return DPTable(values, strip.digest(), energy, models_digest(geom, energy, rewards))


def expert_action(table: DPTable, t: int, soc: int) -> Action:
    """Optimal action at (t, soc); exact value ties conserve energy."""
    if not (1 <= t <= table.horizon):
        raise IndexError(f"timestep {t} outside 1..{table.horizon}")
    if not (0 <= soc <= SOC_MAX):
        raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc}")
    off_next = charge_rule(table.energy)[Action.OFF]
    return _SAMPLE if _sample_wins(table.values, off_next, t - 1, soc) else _OFF


class _DPPolicy(Policy):
    """``expert_action`` less its checks, which a rollout's own bounds
    make redundant, reading the Off successors from a list."""

    name = "dp"
    placement = Placement.DISC

    def __init__(self, table: DPTable):
        self._values = table.values
        self._off_next = charge_rule(table.energy)[Action.OFF].tolist()

    def decide(self, obs: Observation) -> Action:
        if _sample_wins(self._values, self._off_next, obs.t - 1, obs.soc):
            return _SAMPLE
        return _OFF


def dp_policy(table: DPTable, strip: EnvStrip) -> Policy:
    """Greedy readout of ``table``; refuses a table built for another strip."""
    table.check_strip(strip)
    return _DPPolicy(table)


def brute_force_optimal(
    strip: EnvStrip,
    geom: SensorGeometry = SensorGeometry(),
    energy: EnergyModel = EnergyModel(),
    rewards: RewardModel = RewardModel(),
    soc0: int = SOC_MAX,
) -> Tuple[float, List[Action]]:
    """Best reward over every feasible action sequence, by enumeration.

    Returns (value, sequence); among optimal sequences the
    lexicographically first with Off < Sample.  Refuses horizons past
    BRUTE_FORCE_MAX_T.
    """
    horizon = strip.length
    if horizon > BRUTE_FORCE_MAX_T:
        raise ParameterError(f"brute force is capped at T = {BRUTE_FORCE_MAX_T}, got {horizon}")
    if not (0 <= soc0 <= SOC_MAX):
        raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc0}")
    index = strip_index(strip, geom)
    r_sample = rewards.values()[index.radar_best].tolist()
    d = energy.sample_discharge
    re = energy.recharge_per_step

    best_value = -1.0
    best_seq: List[Action] = []
    seq: List[Action] = []

    def walk(t0: int, soc: int) -> None:
        nonlocal best_value, best_seq
        if t0 == horizon:
            # the path's rewards added last step first, the order the table
            # adds them in, so fractional rewards round the same way
            total = 0.0
            for t in range(horizon - 1, -1, -1):
                if seq[t] == Action.SAMPLE:
                    total = r_sample[t] + total
            # strict improvement keeps the first (lexicographically
            # smallest) optimum, since Off branches are explored first
            if total > best_value:
                best_value = total
                best_seq = list(seq)
            return
        seq.append(Action.OFF)
        walk(t0 + 1, min(soc + re, SOC_MAX))
        seq.pop()
        if soc >= d:
            seq.append(Action.SAMPLE)
            walk(t0 + 1, min(max(soc - d + re, 0), SOC_MAX))
            seq.pop()

    walk(0, soc0)
    return best_value, best_seq


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_dp_table(table: DPTable, path) -> None:
    energy = table.energy
    header = DP_HEADER.pack(DP_MAGIC, table.horizon, N_SOC, energy.sample_discharge,
                            energy.recharge_per_step, bytes.fromhex(table.strip_digest),
                            bytes.fromhex(table.models_digest))
    write_file(path, header, np.ascontiguousarray(table.values, dtype="<f8"))


def load_dp_table(path) -> DPTable:
    data, (horizon, n_soc, d, re, strip, models) = read_checked(path, DP_MAGIC, DP_HEADER)
    if n_soc != N_SOC or horizon == 0:
        raise FormatError(f"unsupported dimensions {horizon}x{n_soc}", offset=4)
    try:
        energy = EnergyModel(d, re)
    except ParameterError as exc:
        raise FormatError(str(exc), offset=12) from exc
    count = (horizon + 1) * N_SOC
    check_size(data, DP_HEADER.size + count * 8)
    values = np.frombuffer(data, dtype="<f8", count=count, offset=DP_HEADER.size)
    return DPTable(values.reshape((horizon + 1, N_SOC)), strip.hex(), energy, models.hex())

"""Exact backward-induction planner and its brute-force verifier.

With binary actions and integer charge the whole problem fits in a
(timestep, charge, action) value table.  ``build_dp_table`` fills it
backward from the horizon; the greedy readout of that table is the
optimal policy and its root value upper-bounds every other policy on
the same strip.

``brute_force_optimal`` exists to distrust the table: it enumerates
every feasible action sequence outright, so it is capped at tiny
horizons and shares no recurrence with the table builder.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ConsistencyError,
    FormatError,
    ParameterError,
    ResourceError,
)
from .sim import (
    Action,
    EnergyModel,
    N_SOC,
    Observation,
    Placement,
    Policy,
    SensorGeometry,
    SOC_MAX,
    StripIndex,
    charge_rule,
    strip_index,
)
from .world import EnvStrip, RewardModel, check_size, read_checked

# Enumerating 2^T sequences past this horizon is pointless and slow.
BRUTE_FORCE_MAX_T = 20

DP_MAGIC = b"DTD1"
# magic, horizon, charge levels, actions, strip digest
DP_HEADER = struct.Struct("<4sIII32s")

DEFAULT_MEMORY_CAP = 512 * 1024 * 1024

NEG_INF = np.float32(-np.inf)


@dataclass
class DPTable:
    """values[t-1, soc, action] = best total reward from timestep t onward
    when taking ``action`` at charge ``soc``.  Infeasible samples hold
    -inf.  Valid only for the strip named by ``strip_digest``."""

    values: np.ndarray
    strip_digest: str

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    def root_value(self, soc0: int) -> float:
        """Optimal episode reward from initial charge ``soc0``."""
        if not (0 <= soc0 <= SOC_MAX):
            raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc0}")
        return float(self.values[0, soc0].max())


def build_dp_table(
    strip: EnvStrip,
    geom: SensorGeometry = SensorGeometry(),
    energy: EnergyModel = EnergyModel(),
    rewards: RewardModel = RewardModel(),
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP,
    index: Optional[StripIndex] = None,
) -> DPTable:
    """Backward induction over (timestep, charge, action).

    The estimated table size is checked against ``memory_cap_bytes``
    before anything is allocated.
    """
    horizon = strip.length
    estimate = horizon * N_SOC * 2 * 4
    if estimate > memory_cap_bytes:
        raise ResourceError(
            f"value table needs {estimate} bytes, cap is {memory_cap_bytes}"
        )
    if index is None:
        index = strip_index(strip, geom)

    r_sample = rewards.values()[index.radar_best]  # (T,) float32
    soc_off, soc_smp = charge_rule(energy)
    # an unaffordable sample's -1 reads the last row, which np.where drops
    feasible = soc_smp >= 0

    values = np.empty((horizon, N_SOC, 2), dtype=np.float32)
    values[horizon - 1, :, 0] = 0.0
    values[horizon - 1, :, 1] = np.where(feasible, r_sample[horizon - 1], NEG_INF)
    for t0 in range(horizon - 2, -1, -1):
        follow = np.maximum(values[t0 + 1, :, 0], values[t0 + 1, :, 1])
        values[t0, :, 0] = follow[soc_off]
        values[t0, :, 1] = np.where(feasible, r_sample[t0] + follow[soc_smp], NEG_INF)
    return DPTable(values=values, strip_digest=strip.digest())


def expert_action(table: DPTable, t: int, soc: int) -> Action:
    """Optimal action at (t, soc); exact value ties conserve energy."""
    if not (1 <= t <= table.horizon):
        raise IndexError(f"timestep {t} outside 1..{table.horizon}")
    if not (0 <= soc <= SOC_MAX):
        raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc}")
    off, smp = table.values[t - 1, soc]
    return Action.SAMPLE if smp > off else Action.OFF


class _DPPolicy(Policy):
    name = "dp"
    placement = Placement.DISC

    def __init__(self, table: DPTable):
        self.table = table

    def decide(self, obs: Observation) -> Action:
        return expert_action(self.table, obs.t, obs.soc)


def dp_policy(table: DPTable, strip: EnvStrip) -> Policy:
    """Greedy readout of ``table``; refuses a table built for another strip."""
    if table.strip_digest != strip.digest():
        raise ConsistencyError("value table was built for a different strip")
    if table.horizon != strip.length:
        raise ConsistencyError(
            f"table horizon {table.horizon} != strip length {strip.length}"
        )
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
        raise ParameterError(
            f"brute force is capped at T = {BRUTE_FORCE_MAX_T}, got {horizon}"
        )
    if not (0 <= soc0 <= SOC_MAX):
        raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc0}")
    index = strip_index(strip, geom)
    r_sample = [float(v) for v in rewards.values()[index.radar_best]]
    d = energy.sample_discharge
    re = energy.recharge_per_step

    best_value = -1.0
    best_seq: List[Action] = []
    seq: List[Action] = []

    def walk(t0: int, soc: int, acc: float) -> None:
        nonlocal best_value, best_seq
        if t0 == horizon:
            # strict improvement keeps the first (lexicographically
            # smallest) optimum, since Off branches are explored first
            if acc > best_value:
                best_value = acc
                best_seq = list(seq)
            return
        seq.append(Action.OFF)
        walk(t0 + 1, min(soc + re, SOC_MAX), acc)
        seq.pop()
        if soc >= d:
            seq.append(Action.SAMPLE)
            walk(t0 + 1, min(max(soc - d + re, 0), SOC_MAX), acc + r_sample[t0])
            seq.pop()

    walk(0, soc0, 0.0)
    return best_value, best_seq


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_dp_table(table: DPTable, path) -> None:
    with open(path, "wb") as fh:
        digest = bytes.fromhex(table.strip_digest)
        fh.write(DP_HEADER.pack(DP_MAGIC, table.horizon, N_SOC, 2, digest))
        fh.write(table.values.astype("<f4").tobytes())


def load_dp_table(path) -> DPTable:
    data, (horizon, n_soc, n_act, digest) = read_checked(path, DP_MAGIC, DP_HEADER)
    if n_soc != N_SOC or n_act != 2 or horizon == 0:
        raise FormatError(f"unsupported dimensions {horizon}x{n_soc}x{n_act}", offset=4)
    count = horizon * n_soc * n_act
    check_size(data, DP_HEADER.size + count * 4)
    values = np.frombuffer(data, dtype="<f4", count=count, offset=DP_HEADER.size)
    values = values.reshape((horizon, n_soc, n_act)).copy()
    return DPTable(values=values, strip_digest=digest.hex())

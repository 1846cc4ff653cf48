"""Rule-based sampling policies, from blind to lookahead-aware.

Every policy answers Off/Sample from the current observation alone and
never asks for a sample it cannot afford.  Placement tells the simulator
where the shot lands: the blind policies shoot straight down, the
lateral one stays on its cross-track line, the rest use the full disc.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sim import Action, EnergyModel, Observation, Placement, Policy
from .world import RewardClass

# Action's members as module globals, for decide: reading one off the
# enum class costs about 0.1 us
_OFF, _SAMPLE = Action.OFF, Action.SAMPLE


@dataclass(frozen=True)
class ThresholdRule:
    """Minimum charge required to spend a sample on each class.

    Cheap classes demand a full battery; the best class is worth
    sampling whenever a sample is affordable at all.
    """

    need_high: int = 5
    need_mid: int = 50
    need_low: int = 100

    def __post_init__(self):
        if not (0 <= self.need_high <= self.need_mid <= self.need_low <= 100):
            raise ParameterError(
                f"thresholds must be ordered high <= mid <= low within [0, 100], got "
                f"{self.need_high}, {self.need_mid}, {self.need_low}"
            )

    def need(self, cls: RewardClass) -> int:
        if cls == RewardClass.HIGH:
            return self.need_high
        if cls == RewardClass.MID:
            return self.need_mid
        return self.need_low


class _RandomPolicy(Policy):
    name = "random"
    placement = Placement.NADIR

    def __init__(self, p_sample: float, seed: int, energy: EnergyModel):
        if not (0.0 <= p_sample <= 1.0):
            raise ParameterError(f"p_sample out of [0, 1]: {p_sample}")
        self.p_sample = p_sample
        self.seed = seed
        self.energy = energy
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def decide(self, obs: Observation) -> Action:
        if obs.soc < self.energy.sample_discharge:
            return _OFF
        return _SAMPLE if self._rng.random() < self.p_sample else _OFF


class _GreedyThreshold(Policy):
    """Sample when the best class in view clears its charge threshold."""

    def __init__(self, name, placement, rule: ThresholdRule, energy: EnergyModel):
        self.name = name
        self.placement = placement
        # the charge a sample of each class needs, by class
        self._needs = tuple(max(energy.sample_discharge, rule.need(c)) for c in RewardClass)

    def decide(self, obs: Observation) -> Action:
        cls = obs.index.columns.sampled[self.placement][obs.t - 1]
        return _SAMPLE if obs.soc >= self._needs[cls] else _OFF


class _GreedyWindow(Policy):
    """Budget-ranked lookahead rule.

    Estimate how many samples the energy model supports over the visible
    window (charge on hand plus recharge underway), then sample now only
    if the current disc is at least as good as the budget-th best column
    in sight.  Ties favor sampling now.
    """

    name = "greedy_window"
    placement = Placement.DISC

    def __init__(self, energy: EnergyModel):
        self.energy = energy

    def decide(self, obs: Observation) -> Action:
        d = self.energy.sample_discharge
        r = self.energy.recharge_per_step
        if obs.soc < d:
            return _OFF
        columns = obs.index.columns
        t0 = obs.t - 1
        _, _, disc = columns.sampled
        r_now = disc[t0]
        window_cols = columns.win_cols[t0]

        budget = (obs.soc - d) // (d - r) + window_cols * r // d
        budget = min(budget, window_cols + 1)
        if budget < 1:
            return _OFF

        # counts of per-column best classes over the window, plus now
        n_high = columns.win_high[t0] + (r_now == 2)
        n_mid = columns.win_mid[t0] + (r_now == 1)
        if budget <= n_high:
            cutoff = 2
        elif budget <= n_high + n_mid:
            cutoff = 1
        else:
            cutoff = 0
        return _SAMPLE if r_now >= cutoff else _OFF


def random_policy(
    p_sample: float = 0.2, seed: int = 0, energy: EnergyModel = EnergyModel()
) -> Policy:
    """Coin-flip sampler pointed straight down."""
    return _RandomPolicy(p_sample, seed, energy)


def greedy_nadir(
    rule: ThresholdRule = ThresholdRule(), energy: EnergyModel = EnergyModel()
) -> Policy:
    """Considers only the pixel directly below."""
    return _GreedyThreshold("greedy_nadir", Placement.NADIR, rule, energy)


def greedy_lateral(
    rule: ThresholdRule = ThresholdRule(), energy: EnergyModel = EnergyModel()
) -> Policy:
    """Considers the current cross-track line."""
    return _GreedyThreshold("greedy_lateral", Placement.LATERAL, rule, energy)


def greedy_radar(
    rule: ThresholdRule = ThresholdRule(), energy: EnergyModel = EnergyModel()
) -> Policy:
    """Considers the whole reachable disc."""
    return _GreedyThreshold("greedy_radar", Placement.DISC, rule, energy)


def greedy_window(energy: EnergyModel = EnergyModel()) -> Policy:
    """Disc policy that also ranks the visible future before spending."""
    return _GreedyWindow(energy)

"""Satellite along-track simulator.

One timestep is one along-track column.  The platform either idles (Off,
recharging) or takes one sample (Sample, net discharge) placed by a fixed
rule inside the instrument footprint.  State is just (timestep, charge),
which is what makes exact dynamic programming tractable downstream.

Geometry is a nadir-centered pointing cone over a flat pixel grid: the
instrument can reach any pixel within ``radar_radius_px`` of nadir, and a
forward imager previews the next ``lookahead_len_px`` columns.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, EpisodeError, InfeasibleActionError, ParameterError
from .world import EnvStrip, N_CLASSES, RewardClass, RewardModel

SOC_MAX = 100
N_SOC = SOC_MAX + 1


class Action(IntEnum):
    OFF = 0
    SAMPLE = 1


# members by value: cheaper than calling the enum or reading a member off it
_ACTIONS = tuple(Action)
_OFF, _SAMPLE = _ACTIONS
_CLASSES = tuple(RewardClass)


class Placement(IntEnum):
    """Where a policy is allowed to place its sample.

    Simple heuristics are deliberately restricted: pointing straight down
    (NADIR), anywhere on the current cross-track line (LATERAL), or
    anywhere in the full reachable disc (DISC).
    """

    NADIR = 0
    LATERAL = 1
    DISC = 2


@dataclass(frozen=True)
class SensorGeometry:
    """Viewing geometry; pixel reach is derived from angles and altitude."""

    altitude_km: float = 400.0
    radar_half_angle_deg: float = 15.0
    lookahead_half_angle_deg: float = 45.0
    pixel_size_km: float = 7.0

    def __post_init__(self):
        if not (self.altitude_km > 0):
            raise ParameterError(f"altitude must be positive, got {self.altitude_km}")
        if not (self.pixel_size_km > 0):
            raise ParameterError(f"pixel size must be positive, got {self.pixel_size_km}")
        if not (0.0 < self.radar_half_angle_deg < 90.0):
            raise ParameterError(f"radar half-angle out of (0, 90): {self.radar_half_angle_deg}")
        if not (self.radar_half_angle_deg < self.lookahead_half_angle_deg < 90.0):
            raise ParameterError(
                "lookahead half-angle must exceed the radar half-angle and stay below 90"
            )
        # the angles can still round to a reach from_pixels would refuse
        if self.radar_radius_px < 1:
            raise ParameterError(
                f"radar reach rounds to {self.radar_radius_px} px; need at least 1"
            )
        if self.lookahead_len_px <= self.radar_radius_px:
            raise ParameterError(
                f"lookahead reach rounds to {self.lookahead_len_px} px, not past the "
                f"{self.radar_radius_px} px radar reach"
            )

    @property
    def radar_radius_px(self) -> int:
        """Reach of the instrument from nadir, in whole pixels."""
        reach = self.altitude_km * math.tan(math.radians(self.radar_half_angle_deg))
        return int(round(reach / self.pixel_size_km))

    @property
    def lookahead_len_px(self) -> int:
        """How many upcoming columns the forward imager previews."""
        reach = self.altitude_km * math.tan(math.radians(self.lookahead_half_angle_deg))
        return int(round(reach / self.pixel_size_km))

    @classmethod
    def from_pixels(
        cls,
        radar_radius_px: int,
        lookahead_len_px: int,
        altitude_km: float = 400.0,
        pixel_size_km: float = 7.0,
    ) -> "SensorGeometry":
        """Build a geometry whose derived pixel reach equals the arguments."""
        if radar_radius_px < 1:
            raise ParameterError(f"radar radius must be >= 1, got {radar_radius_px}")
        if lookahead_len_px <= radar_radius_px:
            raise ParameterError("lookahead length must exceed the radar radius")
        radar = math.degrees(math.atan(radar_radius_px * pixel_size_km / altitude_km))
        look = math.degrees(math.atan(lookahead_len_px * pixel_size_km / altitude_km))
        geom = cls(altitude_km, radar, look, pixel_size_km)
        assert geom.radar_radius_px == radar_radius_px
        assert geom.lookahead_len_px == lookahead_len_px
        return geom


@dataclass(frozen=True)
class EnergyModel:
    """Charge bookkeeping in integer percent of capacity.

    Every step adds ``recharge_per_step``; a sample first costs
    ``sample_discharge``.  A sample is feasible only when the current
    charge covers its full cost.
    """

    sample_discharge: int = 5
    recharge_per_step: int = 1

    def __post_init__(self):
        if not (0 < self.recharge_per_step < self.sample_discharge <= SOC_MAX):
            raise ParameterError(
                f"need 0 < recharge < discharge <= {SOC_MAX}, got "
                f"{self.recharge_per_step}, {self.sample_discharge}"
            )


@dataclass(frozen=True)
class SatState:
    """Platform state entering timestep ``t`` (1-based)."""

    t: int
    soc: int

    def __post_init__(self):
        if self.t < 1:
            raise ParameterError(f"timestep must be >= 1, got {self.t}")
        if not (0 <= self.soc <= SOC_MAX):
            raise ParameterError(f"soc out of [0, {SOC_MAX}]: {self.soc}")


@lru_cache(maxsize=32)
def charge_rule(energy: EnergyModel) -> np.ndarray:
    """EnergyModel's rule as a read-only table ``[action, soc]`` -> next
    charge, clamped to 0..SOC_MAX; -1 marks an unaffordable sample."""
    spend = np.array([[0], [energy.sample_discharge]])
    table = np.clip(np.arange(N_SOC) - spend + energy.recharge_per_step, 0, SOC_MAX)
    table[Action.SAMPLE, : energy.sample_discharge] = -1
    table.flags.writeable = False
    return table


def run_as(rule: List[List[int]], soc: int, action: Action) -> Tuple[Action, int]:
    """(action executed, next charge) under ``charge_rule(...).tolist()``:
    a sample the charge cannot cover runs as Off."""
    next_soc = rule[action][soc]
    if next_soc < 0:
        return Action.OFF, rule[Action.OFF][soc]
    return action, next_soc


@lru_cache(maxsize=32)
def _transitions(energy: EnergyModel) -> Tuple[Tuple[Tuple[Action, int], ...], ...]:
    """``run_as`` over every ``[action][soc]``, built once per EnergyModel,
    so a rollout step reads its (action executed, next charge) pair."""
    rule = charge_rule(energy).tolist()
    return tuple(tuple(run_as(rule, soc, action) for soc in range(N_SOC)) for action in Action)


def soc_transition(energy: EnergyModel, soc: int, action: Action) -> int:
    """Charge after one step; raises on an unaffordable sample."""
    if not (0 <= soc <= SOC_MAX):
        raise ParameterError(f"soc out of [0, {SOC_MAX}]: {soc}")
    next_soc = int(charge_rule(energy)[int(action), soc])
    if next_soc < 0:
        raise InfeasibleActionError(
            f"sample needs {energy.sample_discharge}% charge, have {soc}%"
        )
    return next_soc


@lru_cache(maxsize=32)
def disc_offsets(radius: int) -> Tuple[Tuple[int, int, int], ...]:
    """Footprint offsets (dist2, drow, dcol) sorted by the placement rule:
    distance first, then smaller row, then smaller column."""
    out = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            d2 = dr * dr + dc * dc
            if d2 <= radius * radius:
                out.append((d2, dr, dc))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# per-strip summaries
# ---------------------------------------------------------------------------

class StripColumns(NamedTuple):
    """Plain-Python lists of a StripIndex's per-column values, indexed by
    0-based column: a list index costs a fraction of a numpy scalar
    read, so per-step decisions read these."""

    # the class a sample takes, by Placement: NADIR, LATERAL, DISC
    sampled: Tuple[List[RewardClass], List[RewardClass], List[RewardClass]]
    qflag: List[int]
    win_cols: List[int]
    win_high: List[int]
    win_mid: List[int]


class StripIndex:
    """Column-wise views of one strip under one geometry.

    Everything a per-step decision needs is precomputed here as flat
    arrays indexed by 0-based column, so episode loops stay O(1) per
    step; ``columns`` holds the ones decisions read as Python lists.
    ``win_high`` and ``win_mid`` count the lookahead window's columns
    whose best class is High and Mid.  Instances are cached on the strip
    keyed by geometry, so an index keeps the strip's cells but not the
    strip itself: a reference back would make a cycle that only a full
    garbage collection frees.
    """

    def __init__(self, strip: EnvStrip, geom: SensorGeometry):
        self.geom = geom
        h, t = strip.height, strip.length
        center = strip.center_row
        r = geom.radar_radius_px
        look = geom.lookahead_len_px
        cells = strip.cells
        self._cells = cells
        self._center_row = center

        eq = np.stack([cells == c for c in range(N_CLASSES)])  # (3, H, T)
        colcnt = eq.sum(axis=1, dtype=np.int32)  # (3, T)

        rowcum = np.zeros((N_CLASSES, h + 1, t), dtype=np.int32)
        np.cumsum(eq, axis=1, dtype=np.int32, out=rowcum[:, 1:, :])

        def band(k: int) -> np.ndarray:
            a = max(0, center - k)
            b = min(h - 1, center + k)
            return rowcum[:, b + 1, :] - rowcum[:, a, :]

        def band_height(k: int) -> int:
            return min(h - 1, center + k) - max(0, center - k) + 1

        radar_cnt = np.zeros((N_CLASSES, t), dtype=np.int32)
        fp_size = np.zeros(t, dtype=np.int32)
        for dx in range(-r, r + 1):
            if abs(dx) >= t:  # whole shifted band falls off a short strip
                continue
            k = math.isqrt(r * r - dx * dx)
            bc = band(k)
            if dx >= 0:
                radar_cnt[:, : t - dx] += bc[:, dx:]
                fp_size[: t - dx] += band_height(k)
            else:
                radar_cnt[:, -dx:] += bc[:, : t + dx]
                fp_size[-dx:] += band_height(k)

        self.radar_count = radar_cnt
        self.footprint_size = fp_size
        radar_any = radar_cnt > 0
        self.radar_best = np.where(radar_any[2], 2, np.where(radar_any[1], 1, 0)).astype(np.uint8)

        lat_cnt = band(r)
        self.lateral_best = np.where(
            lat_cnt[2] > 0, 2, np.where(lat_cnt[1] > 0, 1, 0)
        ).astype(np.uint8)
        self.nadir_class = cells[center, :].copy()

        # lookahead windows: columns t0+1 .. min(t0 + look, T-1) inclusive
        ccum = np.zeros((N_CLASSES, t + 1), dtype=np.int64)
        np.cumsum(colcnt, axis=1, out=ccum[:, 1:])
        idx = np.arange(t)
        self.win_lo = np.minimum(idx + 1, t)
        self.win_hi1 = np.minimum(idx + look + 1, t)
        self.win_cols = self.win_hi1 - self.win_lo
        self.look_count = ccum[:, self.win_hi1] - ccum[:, self.win_lo]

        # bit c: class c in the footprint; bit 3 + c: class c in the window
        bits = radar_any.astype(np.uint8)
        lbits = (self.look_count > 0).astype(np.uint8)
        self.qflag = (
            bits[0] + 2 * bits[1] + 4 * bits[2] + 8 * lbits[0] + 16 * lbits[1] + 32 * lbits[2]
        ).astype(np.uint8)

        col_any = colcnt > 0
        # prefix counts of columns whose best class is High, then Mid
        best_cum = np.zeros((2, t + 1), dtype=np.int32)
        np.cumsum([col_any[2], col_any[1] & ~col_any[2]], axis=1, dtype=np.int32,
                  out=best_cum[:, 1:])
        self.win_high, self.win_mid = best_cum[:, self.win_hi1] - best_cum[:, self.win_lo]

        self._col_any = col_any

    @cached_property
    def columns(self) -> StripColumns:
        """The per-column lists a decision loop reads, built on first use
        and kept with the index, so that no policy holds per-strip state."""

        def classes(values: np.ndarray) -> List[RewardClass]:
            return list(map(_CLASSES.__getitem__, values.tolist()))

        return StripColumns(
            (classes(self.nadir_class), classes(self.lateral_best), classes(self.radar_best)),
            self.qflag.tolist(),
            self.win_cols.tolist(),
            self.win_high.tolist(),
            self.win_mid.tolist(),
        )

    # -- queries used by behavioral-cloning features ----------------------

    @cached_property
    def bc_features(self) -> np.ndarray:
        """Read-only (T, 13) float64 block: per column, the behavioral-
        cloning feature row laid out as ``dyntarget.cloning`` documents,
        with column 0 (the charge) left 0 for the caller to fill.  Built
        on first use and kept, so only the cloning path pays for it."""
        # allocated before bc_extras' temporaries, so that the kept
        # block does not end up above them on the heap (about 0.4 MB
        # of peak RSS on the ladder benchmark)
        t = len(self.win_lo)
        block = np.zeros((t, 1 + 4 * N_CLASSES))
        win_cells = (self.win_cols * self._cells.shape[0]).astype(np.float64)
        look = np.divide(
            self.look_count, win_cells, out=np.zeros((N_CLASSES, t)), where=win_cells > 0
        )
        parts = (self.radar_count / self.footprint_size, look) + self.bc_extras()
        for k, part in enumerate(parts):
            block[:, 1 + N_CLASSES * k: 1 + N_CLASSES * (k + 1)] = part.T
        block.flags.writeable = False
        return block

    def bc_extras(self) -> Tuple[np.ndarray, np.ndarray]:
        """(nearest_norm, earliest_norm), both (3, T) in [0, 1].

        nearest_norm: distance from nadir to the closest footprint pixel
        of each class, over the radar radius; 1.0 when the class is
        absent from the footprint.  earliest_norm: offset of the first
        lookahead column containing each class, over the lookahead
        length; 1.0 when absent from the window.  Built afresh on every
        call; ``bc_features`` keeps the result.
        """
        geom, cells = self.geom, self._cells
        t = cells.shape[1]
        center = self._center_row
        r = geom.radar_radius_px  # at least 1, as SensorGeometry checks
        look = geom.lookahead_len_px

        # per class and column, the least dr^2 of a cell of that class
        # within reach: row pairs center -/+ k from the farthest in to
        # nadir, so a nearer pair overwrites (rows past the strip's edge
        # would be past k = center, since the height is odd)
        missing = r * r + 1  # past the disc even at dc = 0
        small = np.min_scalar_type(missing + r * r)  # holds every sum below
        eq = np.stack([cells == c for c in range(N_CLASSES)])  # (3, H, T)
        col_d2 = np.full((N_CLASSES, t), missing, dtype=small)
        hit = np.empty((N_CLASSES, t), dtype=bool)
        for k in range(min(r, center), -1, -1):
            np.logical_or(eq[:, center - k], eq[:, center + k], out=hit)
            np.copyto(col_d2, k * k, where=hit)
        # a class's nearest d2 = dr^2 + dc^2, least over column offsets +/-dc
        d2 = col_d2.copy()
        shifted = np.empty_like(col_d2)
        for dc in range(1, min(r, t - 1) + 1):
            np.add(col_d2, dc * dc, out=shifted)
            np.minimum(d2[:, : t - dc], shifted[:, dc:], out=d2[:, : t - dc])
            np.minimum(d2[:, dc:], shifted[:, : t - dc], out=d2[:, dc:])
        near = np.sqrt(d2, dtype=np.float64)
        near /= r
        near[d2 == missing] = 1.0

        sentinel = t  # "no occurrence" marker past the last column
        pos = np.where(self._col_any, np.arange(t)[None, :], sentinel)
        nxt = np.full((N_CLASSES, t + 1), sentinel, dtype=np.int64)
        nxt[:, :t] = np.minimum.accumulate(pos[:, ::-1], axis=1)[:, ::-1]
        first = nxt[:, self.win_lo]  # (3, T)
        present = first < self.win_hi1[None, :]
        earliest = np.where(present, (first - self.win_lo[None, :]) / look, 1.0)
        return near, earliest


def strip_index(strip: EnvStrip, geom: SensorGeometry) -> StripIndex:
    """Summaries for (strip, geom), built once and cached on the strip; a
    strip whose pixels are not the geometry's raises ConsistencyError."""
    idx = strip._caches.get(geom)
    if idx is None:
        if strip.pixel_size_km != float(np.float32(geom.pixel_size_km)):
            raise ConsistencyError(f"a strip of {strip.pixel_size_km} km pixels under a "
                                   f"geometry of {geom.pixel_size_km} km pixels")
        idx = StripIndex(strip, geom)
        strip._caches[geom] = idx
    return idx


# ---------------------------------------------------------------------------
# observations and stepping
# ---------------------------------------------------------------------------

@dataclass
class Observation:
    """What a policy sees entering timestep ``t``: both sensor views plus
    its own charge.  Heavy views are materialized only on access; ``index``
    is always the strip's cached ``strip_index(strip, geom)``.  An episode
    reuses one Observation, setting ``t`` and ``soc`` before each
    decision, so it is valid only until ``decide`` returns."""

    strip: EnvStrip
    geom: SensorGeometry
    t: int
    soc: int
    index: StripIndex = field(init=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.t <= self.strip.length):
            raise IndexError(f"timestep {self.t} outside 1..{self.strip.length}")
        if not (0 <= self.soc <= SOC_MAX):
            raise ParameterError(f"soc out of [0, {SOC_MAX}]: {self.soc}")
        self.index = strip_index(self.strip, self.geom)

    @classmethod
    def _unchecked(cls, strip, geom, t, soc, index) -> "Observation":
        """An Observation built without ``__post_init__``: the caller
        guarantees 1 <= t <= strip.length, 0 <= soc <= SOC_MAX and that
        ``index`` is ``strip_index(strip, geom)``."""
        obs = object.__new__(cls)
        obs.strip = strip
        obs.geom = geom
        obs.t = t
        obs.soc = soc
        obs.index = index
        return obs

    @property
    def radar_cells(self) -> List[Tuple[Tuple[int, int], RewardClass]]:
        """In-bounds footprint cells as ((drow, dcol), class), placement order."""
        h, w = self.strip.height, self.strip.length
        center = self.strip.center_row
        t0 = self.t - 1
        cells = self.strip.cells
        out = []
        for _, dr, dc in disc_offsets(self.geom.radar_radius_px):
            row, col = center + dr, t0 + dc
            if 0 <= row < h and 0 <= col < w:
                out.append(((dr, dc), RewardClass(cells[row, col])))
        return out

    @property
    def lookahead_cells(self) -> np.ndarray:
        """Upcoming columns, all rows; shape (H, window), empty at the end."""
        t0 = self.t - 1
        return self.strip.cells[:, self.index.win_lo[t0]: self.index.win_hi1[t0]]

    # cheap scalar queries backed by the index
    def nadir_class(self) -> RewardClass:
        return RewardClass(self.index.nadir_class[self.t - 1])

    def lateral_best_class(self) -> RewardClass:
        return RewardClass(self.index.lateral_best[self.t - 1])

    def radar_best_class(self) -> RewardClass:
        return RewardClass(self.index.radar_best[self.t - 1])

    def radar_class_presence(self) -> Tuple[bool, bool, bool]:
        flags = int(self.index.qflag[self.t - 1])
        return (bool(flags & 1), bool(flags & 2), bool(flags & 4))

    def lookahead_class_presence(self) -> Tuple[bool, bool, bool]:
        flags = int(self.index.qflag[self.t - 1])
        return (bool(flags & 8), bool(flags & 16), bool(flags & 32))


def observe(strip: EnvStrip, geom: SensorGeometry, state: SatState) -> Observation:
    """Observation for ``state``, reading the strip's cached index
    ``strip_index(strip, geom)``; raises IndexError past the horizon."""
    return Observation(strip, geom, state.t, state.soc)


class Policy:
    """Base interface: ``decide`` maps an Observation to an Action.

    ``placement`` tells the simulator where this policy's samples land;
    ``reset`` restores any internal randomness to its seeded start so
    repeated episodes are identical; ``prepare`` builds, before the
    first decision is timed, whatever else the policy reads from the
    strip's index beyond ``index.columns``, which the episode loop
    builds itself.  Whatever it builds stays on the index: a policy
    holds no per-strip state, so it can decide on any strip's
    Observation and keeps no strip alive after its episode.  Nor may it
    keep the Observation past ``decide``: the episode loop changes that
    same object's ``t`` and ``soc`` for the next step.
    """

    name = "policy"
    placement = Placement.DISC

    def decide(self, obs: Observation) -> Action:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    def prepare(self, index: StripIndex) -> None:
        pass


def best_target(
    strip: EnvStrip, geom: SensorGeometry, t: int
) -> Tuple[Tuple[int, int], RewardClass]:
    """Pixel a DISC sampler would hit at timestep ``t``, read from the
    strip's cached index ``strip_index(strip, geom)``.

    Highest class present in the footprint wins; ties go to the pixel
    nearest nadir, then the smaller row, then the smaller column.
    """
    if not (1 <= t <= strip.length):
        raise IndexError(f"timestep {t} outside 1..{strip.length}")
    h, w = strip.height, strip.length
    center = strip.center_row
    t0 = t - 1
    cls = int(strip_index(strip, geom).radar_best[t0])
    for _, dr, dc in disc_offsets(geom.radar_radius_px):
        row, col = center + dr, t0 + dc
        if 0 <= row < h and 0 <= col < w and strip.cells[row, col] == cls:
            return ((row, col), RewardClass(cls))
    raise AssertionError("footprint scan missed its own best class")


def _placed(placement, nadir, lateral, disc):
    """Whichever of ``nadir``, ``lateral`` and ``disc`` ``placement``
    selects; a placement other than NADIR or LATERAL samples the disc."""
    if placement == Placement.NADIR:
        return nadir
    if placement == Placement.LATERAL:
        return lateral
    return disc


def sampled_class(index: StripIndex, t: int, placement: Placement) -> RewardClass:
    """Class actually sampled at timestep ``t`` under ``placement``."""
    by_column = _placed(placement, index.nadir_class, index.lateral_best, index.radar_best)
    return _CLASSES[by_column[t - 1]]


def step(
    strip: EnvStrip,
    geom: SensorGeometry,
    energy: EnergyModel,
    rewards: RewardModel,
    state: SatState,
    action: Action,
    placement: Placement = Placement.DISC,
) -> Tuple[SatState, float, Optional[RewardClass]]:
    """Advance one timestep; returns (next state, reward, sampled class).

    The class is read from the strip's cached index
    ``strip_index(strip, geom)``.  Raises InfeasibleActionError on an
    unaffordable sample and IndexError past the horizon.  The next
    state's ``t`` may be ``length + 1``, which marks the episode as
    finished.
    """
    if not (1 <= state.t <= strip.length):
        raise IndexError(f"timestep {state.t} outside 1..{strip.length}")
    next_soc = soc_transition(energy, state.soc, action)
    if action == Action.SAMPLE:
        cls = sampled_class(strip_index(strip, geom), state.t, placement)
        reward = rewards.value_of(cls)
    else:
        cls = None
        reward = 0.0
    return SatState(state.t + 1, next_soc), reward, cls


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

class StepRecord(NamedTuple):
    t: int
    soc: int            # charge entering the step
    action: Action
    sampled: Optional[RewardClass]
    reward: float


# a step's code in EpisodeLog.codes: the sampled RewardClass value, or this
# when the step ran as Off
OFF_CODE = 3


@dataclass
class EpisodeLog:
    """One episode: one code per step plus its totals.

    ``codes`` holds, per step, the sampled class's value when the step
    ran as Sample and ``OFF_CODE`` when it ran as Off; with ``soc0``,
    the strip's length, the energy model and the three reward values
    that fixes every step, so ``steps`` rebuilds the records on read.
    ``total_reward`` sums the sampled rewards last step first, the order
    in which the planner's backward induction adds them, so replaying
    the planner's actions totals exactly its table value.
    """

    codes: bytes = field(repr=False)
    soc0: int
    strip_length: int
    energy: EnergyModel
    reward_values: Tuple[float, float, float]
    total_reward: float
    class_counts: Tuple[int, int, int]
    off_count: int
    violations: int
    mean_decide_us: float

    @property
    def steps(self) -> List[StepRecord]:
        """Each step's record, rebuilt from ``codes`` along the
        episode's walk: from timestep 1 at ``soc0``, and back to both
        past the strip's end."""
        moves = _transitions(self.energy)
        values = self.reward_values
        records = []
        soc, t = self.soc0, 1
        for code in self.codes:
            if code == OFF_CODE:
                action, next_soc = moves[_OFF][soc]
                records.append(StepRecord(t, soc, action, None, 0.0))
            else:
                action, next_soc = moves[_SAMPLE][soc]
                records.append(StepRecord(t, soc, action, _CLASSES[code], values[code]))
            soc, t = next_soc, t + 1
            if t > self.strip_length:
                soc, t = self.soc0, 1
        return records

    @property
    def n_steps(self) -> int:
        return len(self.codes)

    @property
    def off_fraction(self) -> float:
        return self.off_count / max(self.n_steps, 1)

    @property
    def sample_fraction(self) -> float:
        return 1.0 - self.off_fraction

    def class_fraction(self, cls: RewardClass) -> float:
        """Fraction of steps spent sampling the given class."""
        return self.class_counts[int(cls)] / max(self.n_steps, 1)

    def to_csv(self, path) -> None:
        lines = ["t,soc,action,class,reward\n"]
        names = ("low", "mid", "high")
        for rec in self.steps:
            cname = names[int(rec.sampled)] if rec.sampled is not None else ""
            act = "sample" if rec.action == Action.SAMPLE else "off"
            lines.append(f"{rec.t},{rec.soc},{act},{cname},{rec.reward!r}\n")
        Path(path).write_text("".join(lines), encoding="utf-8")


def _as_action(wanted, t: int) -> Action:
    """The Action member equal to a policy's answer ``wanted``: an Action,
    a bool, or an integer equal to 0 or 1.  Anything else raises
    EpisodeError naming step ``t``."""
    try:
        code = operator.index(wanted)
    except TypeError:
        code = None
    if code not in (0, 1):
        raise EpisodeError(f"policy returned {wanted!r} at step {t}, not an Action", step=t)
    return _ACTIONS[code]


def _rollout(
    strip: EnvStrip,
    geom: SensorGeometry,
    energy: EnergyModel,
    rewards: RewardModel,
    policy,
    soc0: int,
    n_steps: int,
) -> Tuple[EpisodeLog, List[int]]:
    """``policy``'s log over ``n_steps`` decisions, and each ``decide``
    call's time in ns.  The index's column lists are built, and the
    policy reset and prepared, once before the first clock; past the
    strip's end the walk wraps to timestep 1 and charge ``soc0``.  Every
    step is the public ``observe``/``step`` pair's, less their checks,
    which the walk's own bounds make redundant: one Observation serves
    the whole episode, its ``t`` and ``soc`` set before each decision,
    and each step keeps only its code (see ``EpisodeLog``)."""
    if not (0 <= soc0 <= SOC_MAX):
        raise ParameterError(f"soc0 out of [0, {SOC_MAX}]: {soc0}")
    index = strip_index(strip, geom)
    columns = index.columns
    reset = getattr(policy, "reset", None)
    if reset is not None:
        reset()
    prepare = getattr(policy, "prepare", None)
    if prepare is not None:  # one-off index work, outside the decide clock
        prepare(index)
    classes = _placed(getattr(policy, "placement", Placement.DISC), *columns.sampled)
    moves = _transitions(energy)
    values = tuple(rewards.values().tolist())

    codes = bytearray()
    record = codes.append
    soc, t = soc0, 1
    violations = 0
    decide_ns: List[int] = []
    perf = time.perf_counter_ns
    OFF, SAMPLE = Action.OFF, Action.SAMPLE
    length = strip.length
    obs = Observation._unchecked(strip, geom, t, soc, index)
    for _ in range(n_steps):
        obs.t = t
        obs.soc = soc
        t0 = perf()
        try:
            wanted = policy.decide(obs)
        except Exception as exc:
            raise EpisodeError(f"policy failed at step {t}: {exc}", step=t) from exc
        decide_ns.append(perf() - t0)
        if wanted is not OFF and wanted is not SAMPLE:
            wanted = _as_action(wanted, t)
        action, soc = moves[wanted][soc]
        if action is SAMPLE:
            record(classes[t - 1])
        else:
            violations += wanted is SAMPLE
            record(OFF_CODE)
        t += 1
        if t > length:
            soc, t = soc0, 1
    total = 0.0
    for code in reversed(codes.replace(bytes((OFF_CODE,)), b"")):  # the planner's order
        total = values[code] + total

    log = EpisodeLog(
        codes=bytes(codes),
        soc0=soc0,
        strip_length=length,
        energy=energy,
        reward_values=values,
        total_reward=total,
        class_counts=(codes.count(0), codes.count(1), codes.count(2)),
        off_count=codes.count(OFF_CODE),
        violations=violations,
        mean_decide_us=sum(decide_ns) / max(n_steps, 1) / 1000.0,
    )
    return log, decide_ns


def run_episode(
    strip: EnvStrip,
    geom: SensorGeometry,
    energy: EnergyModel,
    rewards: RewardModel,
    policy,
    soc0: int = SOC_MAX,
) -> EpisodeLog:
    """Run ``policy`` over the whole strip from charge ``soc0``, reading
    the strip's cached index ``strip_index(strip, geom)``.

    Infeasible sample requests are executed as Off and counted as
    violations, so the trace always respects the energy model.  Policies
    with a ``reset()`` are reset first; with seeded policies this makes
    repeat runs identical.  A policy exception, or an answer other than
    an Action, a bool or an integer equal to 0 or 1, is raised as
    EpisodeError naming the step.
    """
    return _rollout(strip, geom, energy, rewards, policy, soc0, strip.length)[0]

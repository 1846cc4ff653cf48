"""End-to-end benchmark: data, training, evaluation, reports.

A benchmark run resolves its train and test strips (generated or loaded,
always disjoint), plans each test strip exactly once with the DP
builder, trains the two learners on the training strips, then scores
every rostered policy on every test strip as a percentage of the DP
value.  Reports are written as CSV and markdown with stable ordering and
float formatting, so identical configs produce byte-identical files
apart from measured latency.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cloning import (
    TrainParams,
    balance_dataset,
    bc_policy,
    collect_demonstrations,
    merge_demos,
    take_demos,
    train_bc,
)
from .dp import DPTable, build_dp_table, dp_policy, load_dp_table, save_dp_table
from .errors import ConfigError, ParameterError
from .heuristics import (
    Policy,
    ThresholdRule,
    greedy_lateral,
    greedy_nadir,
    greedy_radar,
    greedy_window,
    random_policy,
)
from .qlearn import QLearnParams, QTable, q_policy, train_dp_sweep
from .sim import (
    EnergyModel,
    Observation,
    SensorGeometry,
    SOC_MAX,
    run_episode,
    soc_transition,
    strip_index,
    Action,
)
from .world import EnvStrip, GenParams, RewardModel, generate_synthetic, load_dataset

KNOWN_POLICIES = (
    "random",
    "greedy_nadir",
    "greedy_lateral",
    "greedy_radar",
    "greedy_window",
    "bc",
    "qlearn",
    "dp",
)

DESK_SCALE_LENGTH = 10000
FULL_SCALE_LENGTH = 86400

SCENARIOS = ("cloud_avoidance", "storm_hunting")


@dataclass(frozen=True)
class DatasetSpec:
    """Where evaluation data comes from: explicit files, else synthetic."""

    height: int = 31
    length: int = DESK_SCALE_LENGTH
    prevalence: Tuple[float, float, float] = (0.64, 0.26, 0.10)
    blob_radius: Tuple[float, float, float] = (3.0, 4.0, 14.0)
    pixel_size_km: float = 7.0
    train_count: int = 4
    test_count: int = 10
    train_seed0: int = 100
    test_seed0: int = 5000
    train_paths: Tuple[str, ...] = ()
    test_paths: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.train_paths and self.test_paths:
            overlap = set(map(str, self.train_paths)) & set(map(str, self.test_paths))
            if overlap:
                raise ConfigError(f"train/test paths overlap: {sorted(overlap)}")
        if not self.train_paths and not self.test_paths:
            train = set(range(self.train_seed0, self.train_seed0 + self.train_count))
            test = set(range(self.test_seed0, self.test_seed0 + self.test_count))
            if train & test:
                raise ConfigError("train/test generator seed ranges overlap")


@dataclass(frozen=True)
class BenchConfig:
    scenario: str = "cloud_avoidance"
    seed: int = 0
    soc0: int = SOC_MAX
    geometry: SensorGeometry = SensorGeometry()
    energy: EnergyModel = EnergyModel()
    rewards: RewardModel = RewardModel()
    datasets: DatasetSpec = DatasetSpec()
    roster: Tuple[str, ...] = KNOWN_POLICIES
    p_sample: float = 0.2
    thresholds: ThresholdRule = ThresholdRule()
    qlearn: QLearnParams = QLearnParams()
    # denser grid sampling and a long patience: the cloner has to resolve
    # charge thresholds that shift with footprint content, which the
    # quick-look training defaults underfit
    bc: TrainParams = TrainParams(keep_prob=0.08, max_epochs=400, patience=30)
    bc_mode: str = "stochastic"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name in self.roster:
            if name not in KNOWN_POLICIES:
                raise ConfigError(f"unknown policy {name!r} in roster")
        if len(set(self.roster)) != len(self.roster):
            raise ConfigError("duplicate policy in roster")
        if not (0 <= self.soc0 <= SOC_MAX):
            raise ConfigError(f"soc0 out of [0, {SOC_MAX}]: {self.soc0}")
        if self.bc_mode not in ("stochastic", "threshold"):
            raise ConfigError(f"unknown bc mode {self.bc_mode!r}")
        if self.rewards.scenario != self.scenario:
            object.__setattr__(
                self, "rewards", dataclasses.replace(self.rewards, scenario=self.scenario)
            )


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _parse_scalar(key: str, raw: str, kind: type):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _parse_tuple(key: str, raw: str, kind: type) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(_parse_scalar(key, p, kind) for p in parts)


def load_config(path) -> BenchConfig:
    """Parse a UTF-8 ``section.key = value`` tree into a BenchConfig.

    Unknown keys are rejected rather than ignored so typos cannot
    silently fall back to defaults.
    """
    text = Path(path).read_text(encoding="utf-8")
    return build_config(parse_config_text(text))


def parse_config_text(text: str) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        entries[key] = value.strip()
    return entries


def build_config(entries: Dict[str, str]) -> BenchConfig:
    """Overlay parsed entries onto the defaults; reject unknown keys."""
    e = dict(entries)

    def pop(key, kind, default):
        if key not in e:
            return default
        raw = e.pop(key)
        if kind in (int, float, str, bool):
            return _parse_scalar(key, raw, kind)
        raise AssertionError(kind)

    def pop_tuple(key, kind, default):
        if key not in e:
            return default
        return _parse_tuple(key, e.pop(key), kind)

    try:
        geometry = SensorGeometry(
            altitude_km=pop("geometry.altitude_km", float, 400.0),
            radar_half_angle_deg=pop("geometry.radar_half_angle_deg", float, 15.0),
            lookahead_half_angle_deg=pop("geometry.lookahead_half_angle_deg", float, 45.0),
            pixel_size_km=pop("geometry.pixel_size_km", float, 7.0),
        )
        energy = EnergyModel(
            sample_discharge=pop("energy.sample_discharge", int, 5),
            recharge_per_step=pop("energy.recharge_per_step", int, 1),
        )
        scenario = pop("scenario", str, "cloud_avoidance")
        rewards = RewardModel(
            reward_low=pop("rewards.low", float, 1.0),
            reward_mid=pop("rewards.mid", float, 10.0),
            reward_high=pop("rewards.high", float, 100.0),
            scenario=scenario,
        )
        spec_defaults = DatasetSpec()
        datasets = DatasetSpec(
            height=pop("datasets.height", int, spec_defaults.height),
            length=pop("datasets.length", int, spec_defaults.length),
            prevalence=pop_tuple("datasets.prevalence", float, spec_defaults.prevalence),
            blob_radius=pop_tuple("datasets.blob_radius", float, spec_defaults.blob_radius),
            pixel_size_km=pop("datasets.pixel_size_km", float, spec_defaults.pixel_size_km),
            train_count=pop("datasets.train_count", int, spec_defaults.train_count),
            test_count=pop("datasets.test_count", int, spec_defaults.test_count),
            train_seed0=pop("datasets.train_seed0", int, spec_defaults.train_seed0),
            test_seed0=pop("datasets.test_seed0", int, spec_defaults.test_seed0),
            train_paths=pop_tuple("datasets.train_paths", str, ()),
            test_paths=pop_tuple("datasets.test_paths", str, ()),
        )
        q_defaults = QLearnParams()
        qparams = QLearnParams(
            alpha=pop("qlearn.alpha", float, q_defaults.alpha),
            gamma=pop("qlearn.gamma", float, q_defaults.gamma),
            epsilon=pop("qlearn.epsilon", float, q_defaults.epsilon),
            sweeps=pop("qlearn.sweeps", int, q_defaults.sweeps),
            seed=pop("qlearn.seed", int, q_defaults.seed),
        )
        bc_defaults = BenchConfig().bc
        bparams = TrainParams(
            keep_prob=pop("bc.keep_prob", float, bc_defaults.keep_prob),
            loss=pop("bc.loss", str, bc_defaults.loss),
            learning_rate=pop("bc.learning_rate", float, bc_defaults.learning_rate),
            batch_size=pop("bc.batch_size", int, bc_defaults.batch_size),
            max_epochs=pop("bc.max_epochs", int, bc_defaults.max_epochs),
            patience=pop("bc.patience", int, bc_defaults.patience),
            val_fraction=pop("bc.val_fraction", float, bc_defaults.val_fraction),
            seed=pop("bc.seed", int, bc_defaults.seed),
        )
        config = BenchConfig(
            scenario=scenario,
            seed=pop("seed", int, 0),
            soc0=pop("soc0", int, SOC_MAX),
            geometry=geometry,
            energy=energy,
            rewards=rewards,
            datasets=datasets,
            roster=pop_tuple("roster", str, KNOWN_POLICIES),
            p_sample=pop("random.p_sample", float, 0.2),
            thresholds=ThresholdRule(
                need_high=pop("thresholds.need_high", int, 5),
                need_mid=pop("thresholds.need_mid", int, 50),
                need_low=pop("thresholds.need_low", int, 100),
            ),
            qlearn=qparams,
            bc=bparams,
            bc_mode=pop("bc.mode", str, "stochastic"),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if e:
        raise ConfigError(f"unknown config keys: {sorted(e)}")
    return config


# ---------------------------------------------------------------------------
# data and model preparation
# ---------------------------------------------------------------------------

def resolve_strips(config: BenchConfig) -> Tuple[List[EnvStrip], List[EnvStrip]]:
    """(train, test) strips: loaded from the configured paths, else generated."""
    ds = config.datasets
    if ds.train_paths or ds.test_paths:
        if not (ds.train_paths and ds.test_paths):
            raise ConfigError("provide both train and test paths, or neither")
        train = [load_dataset(p) for p in ds.train_paths]
        test = [load_dataset(p) for p in ds.test_paths]
        return train, test

    def gen(seed):
        return generate_synthetic(
            GenParams(
                height=ds.height,
                length=ds.length,
                prevalence=ds.prevalence,
                blob_radius=ds.blob_radius,
                pixel_size_km=ds.pixel_size_km,
                seed=seed,
            )
        )

    train = [gen(ds.train_seed0 + i) for i in range(ds.train_count)]
    test = [gen(ds.test_seed0 + i) for i in range(ds.test_count)]
    return train, test


def _dp_for(
    strip: EnvStrip, config: BenchConfig, cache_dir: Optional[Path]
) -> DPTable:
    """Build the strip's value table, or reuse a cached one.

    The cache file is named by a hash of the strip digest and of every
    model the table depends on, so a changed reward or geometry misses.
    """
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        models = repr((config.geometry, config.energy, config.rewards))
        key = hashlib.sha256(f"{strip.digest()}|{models}".encode()).hexdigest()
        path = cache_dir / f"{key[:32]}.dpt"
        if path.exists():
            table = load_dp_table(path)
            if table.strip_digest == strip.digest():
                return table
        table = build_dp_table(
            strip, config.geometry, config.energy, config.rewards
        )
        save_dp_table(table, path)
        return table
    return build_dp_table(strip, config.geometry, config.energy, config.rewards)


@dataclass
class PreparedBench:
    config: BenchConfig
    train_strips: List[EnvStrip]
    test_strips: List[EnvStrip]
    test_tables: List[DPTable]
    train_tables: List[DPTable]


def prepare_bench(config: BenchConfig, outdir=None, progress: bool = False) -> PreparedBench:
    cache_dir = Path(outdir) / "dp_cache" if outdir is not None else None
    train, test = resolve_strips(config)
    if progress:
        print(f"resolved {len(train)} train / {len(test)} test strips")
    need_train_tables = "bc" in config.roster
    test_tables = []
    for i, strip in enumerate(test):
        test_tables.append(_dp_for(strip, config, cache_dir))
        if progress:
            print(f"planned test strip {i}")
    train_tables = []
    if need_train_tables:
        for strip in train:
            train_tables.append(_dp_for(strip, config, cache_dir))
    return PreparedBench(config, train, test, test_tables, train_tables)


def train_learners(prep: PreparedBench, progress: bool = False):
    """Train whatever the roster needs; returns (qtable, bc model)."""
    config = prep.config
    qtable = None
    model = None
    if "qlearn" in config.roster:
        qtable = train_dp_sweep(
            prep.train_strips,
            config.qlearn,
            geom=config.geometry,
            energy=config.energy,
            rewards=config.rewards,
        )
        if progress:
            print(f"swept q table over {len(prep.train_strips)} strips")
    if "bc" in config.roster:
        parts = [
            collect_demonstrations(
                table,
                strip,
                keep_prob=config.bc.keep_prob,
                seed=config.bc.seed + i,
                geom=config.geometry,
            )
            for i, (strip, table) in enumerate(zip(prep.train_strips, prep.train_tables))
        ]
        demos = balance_dataset(merge_demos(parts), seed=config.bc.seed)
        model = train_bc(demos, config.bc)
        if progress:
            print(f"cloned planner from {len(demos)} balanced demos")
    return qtable, model


def _build_policy(name: str, config: BenchConfig, qtable, model) -> Optional[Policy]:
    if name == "random":
        return random_policy(config.p_sample, seed=config.seed + 17, energy=config.energy)
    if name == "greedy_nadir":
        return greedy_nadir(config.thresholds, energy=config.energy)
    if name == "greedy_lateral":
        return greedy_lateral(config.thresholds, energy=config.energy)
    if name == "greedy_radar":
        return greedy_radar(config.thresholds, energy=config.energy)
    if name == "greedy_window":
        return greedy_window(energy=config.energy)
    if name == "qlearn":
        return q_policy(qtable, energy=config.energy)
    if name == "bc":
        return bc_policy(model, mode=config.bc_mode, seed=config.seed + 29, energy=config.energy)
    return None  # dp is built per strip


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    policy: str
    dataset: str
    total_reward: float
    pct_of_dp: float
    frac_off: float
    frac_low: float
    frac_mid: float
    frac_high: float
    violations: int
    mean_decide_us: float


@dataclass
class BenchReport:
    scenario: str
    rows: List[ReportRow]
    roster: Tuple[str, ...]
    dataset_labels: Tuple[str, ...]

    def rows_for(self, policy: str) -> List[ReportRow]:
        return [r for r in self.rows if r.policy == policy and r.dataset != "mean"]

    def mean_pct(self, policy: str) -> float:
        rows = self.rows_for(policy)
        return sum(r.pct_of_dp for r in rows) / len(rows)

    def mean_frac_off(self, policy: str) -> float:
        rows = self.rows_for(policy)
        return sum(r.frac_off for r in rows) / len(rows)

    def with_means(self) -> List[ReportRow]:
        """Detail rows followed by one synthetic mean row per policy."""
        out = list(self.rows)
        for policy in self.roster:
            rows = self.rows_for(policy)
            if not rows:
                continue
            n = len(rows)
            out.append(
                ReportRow(
                    policy=policy,
                    dataset="mean",
                    total_reward=sum(r.total_reward for r in rows) / n,
                    pct_of_dp=sum(r.pct_of_dp for r in rows) / n,
                    frac_off=sum(r.frac_off for r in rows) / n,
                    frac_low=sum(r.frac_low for r in rows) / n,
                    frac_mid=sum(r.frac_mid for r in rows) / n,
                    frac_high=sum(r.frac_high for r in rows) / n,
                    violations=sum(r.violations for r in rows),
                    mean_decide_us=sum(r.mean_decide_us for r in rows) / n,
                )
            )
        return out


CSV_HEADER = (
    "policy,dataset,total_reward,pct_of_dp,frac_off,frac_low,frac_mid,frac_high,"
    "violations,mean_decide_us"
)


def run_benchmark(config: BenchConfig, outdir=None, progress: bool = False) -> BenchReport:
    """Score the whole roster on every test strip."""
    prep = prepare_bench(config, outdir=outdir, progress=progress)
    qtable, model = train_learners(prep, progress=progress)
    labels = tuple(f"test{i:02d}" for i in range(len(prep.test_strips)))
    rows: List[ReportRow] = []
    for name in config.roster:
        policy = _build_policy(name, config, qtable, model)
        for label, strip, table in zip(labels, prep.test_strips, prep.test_tables):
            if name == "dp":
                policy = dp_policy(table, strip)
            log = run_episode(
                strip,
                config.geometry,
                config.energy,
                config.rewards,
                policy,
                soc0=config.soc0,
            )
            dp_value = table.root_value(config.soc0)
            if dp_value > 0:
                pct = 100.0 * log.total_reward / dp_value
            else:
                pct = 100.0 if log.total_reward == 0 else float("inf")
            n = log.n_steps
            rows.append(
                ReportRow(
                    policy=name,
                    dataset=label,
                    total_reward=log.total_reward,
                    pct_of_dp=pct,
                    frac_off=log.off_fraction,
                    frac_low=log.class_counts[0] / n,
                    frac_mid=log.class_counts[1] / n,
                    frac_high=log.class_counts[2] / n,
                    violations=log.violations,
                    mean_decide_us=log.mean_decide_us,
                )
            )
        if progress:
            mean = sum(r.pct_of_dp for r in rows[-len(labels):]) / max(len(labels), 1)
            print(f"{name}: mean {mean:.2f}% of dp")
    return BenchReport(
        scenario=config.scenario, rows=rows, roster=config.roster, dataset_labels=labels
    )


def _fmt(value: float) -> str:
    # repr round-trips exactly, keeping reports byte-stable
    return repr(float(value))


def emit_report(report: BenchReport, outdir, formats: Sequence[str] = ("csv", "md")) -> List[Path]:
    """Write report files into ``outdir``; returns the paths written.

    The CSV keeps measured latency in its final column so consumers can
    drop it when comparing runs byte for byte.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    rows = report.with_means()
    if "csv" in formats:
        lines = [CSV_HEADER + "\n"]
        for r in rows:
            lines.append(
                f"{r.policy},{r.dataset},{_fmt(r.total_reward)},{_fmt(r.pct_of_dp)},"
                f"{_fmt(r.frac_off)},{_fmt(r.frac_low)},{_fmt(r.frac_mid)},"
                f"{_fmt(r.frac_high)},{r.violations},{_fmt(r.mean_decide_us)}\n"
            )
        path = outdir / "report.csv"
        path.write_text("".join(lines), encoding="utf-8")
        written.append(path)
    if "md" in formats:
        written.append(_emit_markdown(report, outdir))
    return written


def _emit_markdown(report: BenchReport, outdir: Path) -> Path:
    names = {
        "cloud_avoidance": ("cloud", "mid_cloud", "clear"),
        "storm_hunting": ("no_storm", "rainy_anvil", "convective_core"),
    }[report.scenario]
    lines = [f"# Benchmark report ({report.scenario})\n\n"]
    lines.append("## Time split per policy (mean over test strips, % of steps)\n\n")
    lines.append(f"| policy | off | {names[0]} | {names[1]} | {names[2]} |\n")
    lines.append("|---|---|---|---|---|\n")
    means = [r for r in report.with_means() if r.dataset == "mean"]
    for r in means:
        lines.append(
            f"| {r.policy} | {100 * r.frac_off:.2f} | {100 * r.frac_low:.2f} "
            f"| {100 * r.frac_mid:.2f} | {100 * r.frac_high:.2f} |\n"
        )
    lines.append("\n## Reward as a percentage of the exact planner\n\n")
    lines.append("| policy | mean % of dp |\n|---|---|\n")
    for r in means:
        lines.append(f"| {r.policy} | {r.pct_of_dp:.2f} |\n")
    path = outdir / "report.md"
    path.write_text("".join(lines), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# training-size curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    learner: str
    fraction: float
    mean_pct: float
    min_pct: float
    max_pct: float


def _prefix_strip(strip: EnvStrip, fraction: float) -> EnvStrip:
    n = max(1, int(np.ceil(strip.length * fraction)))
    return EnvStrip(strip.cells[:, :n].copy(), pixel_size_km=strip.pixel_size_km)


def training_curve(
    config: BenchConfig,
    fractions: Sequence[float],
    outdir=None,
    progress: bool = False,
) -> List[CurvePoint]:
    """Percent-of-DP for each learner at increasing training-data shares.

    The sweep learner sees a prefix of each training strip; the cloner
    sees a seeded random subset of one demonstration pool collected at
    the configured rate, so smaller fractions are nested inside larger
    ones.  A fraction of exactly 1.0 reuses the pool untouched and so
    matches a plain benchmark run.  Test strips and their value tables
    stay fixed across fractions.
    """
    fractions = [float(f) for f in fractions]
    for f in fractions:
        if not (0.0 < f <= 1.0):
            raise ParameterError(f"fractions must lie in (0, 1]: {f}")
    prep = prepare_bench(config, outdir=outdir, progress=progress)
    config = prep.config
    pool = None
    pool_order = None
    if "bc" in config.roster:
        parts = [
            collect_demonstrations(
                table,
                strip,
                keep_prob=config.bc.keep_prob,
                seed=config.bc.seed + i,
                geom=config.geometry,
            )
            for i, (strip, table) in enumerate(zip(prep.train_strips, prep.train_tables))
        ]
        pool = merge_demos(parts)
        pool_order = np.random.default_rng(config.bc.seed).permutation(len(pool))
    points: List[CurvePoint] = []
    for f in fractions:
        if "qlearn" in config.roster:
            prefixes = [_prefix_strip(s, f) for s in prep.train_strips]
            qtable = train_dp_sweep(
                prefixes,
                config.qlearn,
                geom=config.geometry,
                energy=config.energy,
                rewards=config.rewards,
            )
            points.append(_curve_point("qlearn", f, q_policy(qtable, config.energy), prep))
        if "bc" in config.roster:
            if f >= 1.0:
                sub = pool
            else:
                n_f = max(1, int(np.ceil(f * len(pool))))
                sub = take_demos(pool, pool_order[:n_f])
            demos = balance_dataset(sub, seed=config.bc.seed)
            model = train_bc(demos, config.bc)
            points.append(
                _curve_point(
                    "bc",
                    f,
                    bc_policy(model, config.bc_mode, seed=config.seed + 29, energy=config.energy),
                    prep,
                )
            )
        if progress:
            got = [p for p in points if abs(p.fraction - f) < 1e-12]
            print(f"fraction {f}: " + ", ".join(f"{p.learner} {p.mean_pct:.2f}%" for p in got))
    return points


def _curve_point(learner, fraction, policy, prep: PreparedBench) -> CurvePoint:
    config = prep.config
    pcts = []
    for strip, table in zip(prep.test_strips, prep.test_tables):
        log = run_episode(
            strip, config.geometry, config.energy, config.rewards, policy, soc0=config.soc0
        )
        dp_value = table.root_value(config.soc0)
        pcts.append(100.0 * log.total_reward / dp_value if dp_value > 0 else 100.0)
    return CurvePoint(
        learner=learner,
        fraction=fraction,
        mean_pct=float(np.mean(pcts)),
        min_pct=float(np.min(pcts)),
        max_pct=float(np.max(pcts)),
    )


def curve_to_csv(points: Sequence[CurvePoint], path) -> None:
    lines = ["learner,fraction,mean_pct,min_pct,max_pct\n"]
    for p in points:
        lines.append(
            f"{p.learner},{_fmt(p.fraction)},{_fmt(p.mean_pct)},{_fmt(p.min_pct)},"
            f"{_fmt(p.max_pct)}\n"
        )
    Path(path).write_text("".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyStats:
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float
    n: int


def measure_latency(
    policy: Policy,
    strip: EnvStrip,
    n_steps: int,
    geom: SensorGeometry = SensorGeometry(),
    energy: EnergyModel = EnergyModel(),
    soc0: int = SOC_MAX,
) -> LatencyStats:
    """Wall-clock per-decision cost over a replayed trajectory.

    Only ``decide`` is timed; observation bookkeeping runs outside the
    clock.  The trajectory wraps around the strip if ``n_steps`` exceeds
    its length, resetting charge at each wrap.
    """
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    index = strip_index(strip, geom)
    reset = getattr(policy, "reset", None)
    if reset is not None:
        reset()
    samples = np.empty(n_steps)
    soc = soc0
    t = 1
    perf = time.perf_counter_ns
    for i in range(n_steps):
        obs = Observation(strip, geom, t, soc, index)
        start = perf()
        action = policy.decide(obs)
        samples[i] = perf() - start
        if action == Action.SAMPLE and soc < energy.sample_discharge:
            action = Action.OFF
        soc = soc_transition(energy, soc, action)
        t += 1
        if t > strip.length:
            t = 1
            soc = soc0
    us = samples / 1000.0
    return LatencyStats(
        mean_us=float(us.mean()),
        p50_us=float(np.percentile(us, 50)),
        p95_us=float(np.percentile(us, 95)),
        max_us=float(us.max()),
        n=n_steps,
    )

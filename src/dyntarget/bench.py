"""End-to-end benchmark: data, training, evaluation, reports.

A benchmark run trains the two learners on the training strips, then
walks the test strips (generated, or loaded from the configured paths;
always disjoint from the training strips) one at a time: it plans each
exactly once with the DP builder and scores every rostered policy on it
as a percentage of the DP value.  Reports are written as CSV and markdown with stable ordering
and float formatting, so identical configs produce byte-identical files
apart from measured latency.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cloning import (
    MODEL_MAGIC,
    DemoSet,
    TrainParams,
    balance_dataset,
    bc_policy,
    collect_demonstrations,
    load_model,
    merge_demos,
    save_model,
    take_demos,
    train_bc,
)
from .dp import (
    DP_MAGIC,
    DPTable,
    build_dp_table,
    dp_policy,
    load_dp_table,
    models_digest,
    save_dp_table,
)
from .errors import ConfigError, FormatError, ParameterError
from .heuristics import (
    Policy,
    ThresholdRule,
    greedy_lateral,
    greedy_nadir,
    greedy_radar,
    greedy_window,
    random_policy,
)
from .qlearn import (
    Q_MAGIC,
    QLearnParams,
    QTable,
    load_qtable,
    q_policy,
    save_qtable,
    train_dp_sweep,
)
from .sim import (
    EnergyModel,
    EpisodeLog,
    SensorGeometry,
    SOC_MAX,
    _rollout,
    run_episode,
)
from .world import (
    STRIP_MAGIC,
    EnvStrip,
    GenParams,
    RewardClass,
    RewardModel,
    generate_synthetic,
    load_dataset,
    load_keyed_strip,
    save_keyed_strip,
    strip_key,
)

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

FULL_SCALE_LENGTH = 86400

# the report's names for the three reward tiers under each scenario; the
# scenario changes nothing else
CLASS_NAMES = {
    "cloud_avoidance": ("cloud", "mid_cloud", "clear"),
    "storm_hunting": ("no_storm", "rainy_anvil", "convective_core"),
}


@dataclass(frozen=True)
class DatasetSpec:
    """Where evaluation data comes from: explicit files, else synthetic."""

    height: int = GenParams.height
    length: int = GenParams.length
    prevalence: Tuple[float, float, float] = GenParams.prevalence
    blob_radius: Tuple[float, float, float] = GenParams.blob_radius
    train_count: int = 4
    test_count: int = 10
    train_seed0: int = 100
    test_seed0: int = 5000
    train_paths: Tuple[str, ...] = ()
    test_paths: Tuple[str, ...] = ()

    def __post_init__(self):
        if bool(self.train_paths) != bool(self.test_paths):
            raise ConfigError("provide both train and test paths, or neither")
        if self.train_paths:
            overlap = set(map(str, self.train_paths)) & set(map(str, self.test_paths))
            if overlap:
                raise ConfigError(f"train/test paths overlap: {sorted(overlap)}")
        else:
            # every command that scores or times a policy reads test00
            if self.test_count < 1 or self.train_count < 0:
                raise ConfigError(
                    "need datasets.test_count >= 1 and datasets.train_count >= 0, got "
                    f"{self.test_count} and {self.train_count}"
                )
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
        if self.scenario not in CLASS_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not self.roster:
            raise ConfigError("empty roster")
        for name in self.roster:
            if name not in KNOWN_POLICIES:
                raise ConfigError(f"unknown policy {name!r} in roster")
        if len(set(self.roster)) != len(self.roster):
            raise ConfigError("duplicate policy in roster")
        if not (0 <= self.soc0 <= SOC_MAX):
            raise ConfigError(f"soc0 out of [0, {SOC_MAX}]: {self.soc0}")
        if self.bc_mode not in ("stochastic", "threshold"):
            raise ConfigError(f"unknown bc mode {self.bc_mode!r}")
        if not self.datasets.train_paths:  # loaded strips are checked when planned or swept
            self.rewards.check_horizon(self.datasets.length)

    def gen_params(self, seed: int) -> GenParams:
        """Generator knobs for the synthetic strip with this seed; its
        pixels are the geometry's."""
        ds = self.datasets
        return GenParams(
            height=ds.height,
            length=ds.length,
            prevalence=ds.prevalence,
            blob_radius=ds.blob_radius,
            pixel_size_km=self.geometry.pixel_size_km,
            seed=seed,
        )

    def strips(self, role: str, outdir=None) -> Iterator[EnvStrip]:
        """The ``"train"`` or ``"test"`` strips, one at a time: loaded from
        the configured paths, else generated, or with an ``outdir`` read
        back from ``<outdir>/strips/`` (see ``_strip_for``)."""
        ds = self.datasets
        if ds.train_paths:
            return map(load_dataset, getattr(ds, f"{role}_paths"))
        seed0 = getattr(ds, f"{role}_seed0")
        count = getattr(ds, f"{role}_count")
        strip_dir = Path(outdir) / "strips" if outdir is not None else None
        return (_strip_for(self.gen_params(seed0 + i), strip_dir) for i in range(count))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _parse_value(key: str, raw: str, kind):
    """``raw`` as a value of type ``kind``; a tuple is a comma list."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(_parse_value(key, p.strip(), item) for p in raw.split(",") if p.strip())
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


# Config keys are ``<field>`` for a top-level BenchConfig field and
# ``<section>.<field>`` for a field of a nested dataclass, except for
# these renamed fields.
_KEY_ALIASES = {
    "random.p_sample": "p_sample",
    "bc.mode": "bc_mode",
    "rewards.low": "rewards.reward_low",
    "rewards.mid": "rewards.reward_mid",
    "rewards.high": "rewards.reward_high",
}


def _field_types(cls) -> Dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _config_keys() -> Dict[str, Tuple[str, object]]:
    """Config key -> (field path, annotated type), in field order."""
    fields: Dict[str, object] = {}
    for name, kind in _field_types(BenchConfig).items():
        if dataclasses.is_dataclass(kind):
            for sub, sub_kind in _field_types(kind).items():
                fields[f"{name}.{sub}"] = sub_kind
        else:
            fields[name] = kind
    keys = {path: key for key, path in _KEY_ALIASES.items()}
    return {keys.get(path, path): (path, kind) for path, kind in fields.items()}


CONFIG_KEYS = _config_keys()


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
    sections: Dict[str, Dict[str, object]] = {"": {}}
    for key, (path, kind) in CONFIG_KEYS.items():
        if key in entries:
            section, _, name = path.rpartition(".")
            sections.setdefault(section, {})[name] = _parse_value(key, entries[key], kind)
    top = sections.pop("")
    base = BenchConfig()
    try:
        for section, values in sections.items():
            top[section] = dataclasses.replace(getattr(base, section), **values)
        config = dataclasses.replace(base, **top)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    unknown = sorted(entries.keys() - CONFIG_KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return config


# ---------------------------------------------------------------------------
# data and model preparation
# ---------------------------------------------------------------------------

def _cache_dir(outdir) -> Optional[Path]:
    return Path(outdir) / "dp_cache" if outdir is not None else None


def _get_or_build(directory, name: str, magic: bytes, load, key_of, key, build, save,
                  progress: bool = False):
    """The reuse rule for every file a run keeps: what ``load`` parses from
    the file ``name`` in ``directory`` if ``key_of`` it is ``key``, else
    ``build()``, saved over the file by ``save(built, path)``.

    A missing file, one with another magic (never read past it), one
    that fails to parse (``load`` raises FormatError) and one that names
    another key are misses.  Each file is a deterministic function of its
    key, so a rebuild writes what a fresh run would.  Without a
    ``directory`` nothing is read or written.
    """
    if directory is None:
        return build()
    path = Path(directory) / name
    try:
        with open(path, "rb") as fh:
            same_format = fh.read(len(magic)) == magic
        if same_format:
            found = load(path)
            if key_of(found) == key:
                if progress:
                    print(f"reused {path}")
                return found
    except (FileNotFoundError, FormatError):
        pass
    built = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    save(built, path)
    return built


def _strip_for(params: GenParams, strip_dir: Optional[Path]) -> EnvStrip:
    """Generate the strip ``params`` describe, or read back a copy saved in
    ``strip_dir``, named and keyed by ``world.strip_key(params)``."""
    key = strip_key(params)
    _, strip = _get_or_build(
        strip_dir, f"{key[:32]}.dts", STRIP_MAGIC, load_keyed_strip,
        lambda keyed: keyed[0], key,
        lambda: (key, generate_synthetic(params)),
        lambda keyed, path: save_keyed_strip(keyed[1], key, path),
    )
    return strip


def _dp_for(
    strip: EnvStrip, config: BenchConfig, cache_dir: Optional[Path]
) -> DPTable:
    """Build the strip's value table, or reuse one cached in ``cache_dir``,
    keyed by the strip and models digests.

    The file is named by a hash of the table format and the key, so a
    changed reward or geometry misses and a file of an older format is
    never opened.
    """
    key = (strip.digest(), models_digest(config.geometry, config.energy, config.rewards))
    name = hashlib.sha256(DP_MAGIC + b"".join(map(bytes.fromhex, key))).hexdigest()
    return _get_or_build(
        cache_dir, f"{name[:32]}.dpt", DP_MAGIC, load_dp_table,
        lambda table: (table.strip_digest, table.models_digest), key,
        lambda: build_dp_table(strip, config.geometry, config.energy, config.rewards),
        save_dp_table,
    )


def _demo_pool(
    config: BenchConfig, strips: Sequence[EnvStrip], cache_dir: Optional[Path] = None
) -> DemoSet:
    """Planner demonstrations from every training strip, unbalanced; each
    strip is planned, or its table read from ``cache_dir``, in turn."""
    parts = [
        collect_demonstrations(
            _dp_for(strip, config, cache_dir),
            strip,
            keep_prob=config.bc.keep_prob,
            seed=config.bc.seed + i,
            geom=config.geometry,
        )
        for i, strip in enumerate(strips)
    ]
    return merge_demos(parts)


def _sweep(strips: Sequence[EnvStrip], config: BenchConfig) -> QTable:
    """The sweep learner trained on ``strips`` under the configured models."""
    return train_dp_sweep(
        strips, config.qlearn, geom=config.geometry, energy=config.energy, rewards=config.rewards
    )


QTABLE_FILE = "qtable.dtq"
MODEL_FILE = "bc_model.dtm"


def _learner_key(config: BenchConfig, strips: Sequence[EnvStrip], params) -> Tuple[str, str, str]:
    """The key of a learner trained on ``strips`` with ``params``: the
    three digests ``world.UNKEYED`` describes."""
    digests = b"".join(bytes.fromhex(strip.digest()) for strip in strips)
    return (
        hashlib.sha256(digests).hexdigest(),
        models_digest(config.geometry, config.energy, config.rewards),
        hashlib.sha256(repr(params).encode()).hexdigest(),
    )


def train_learners(
    config: BenchConfig, strips: Sequence[EnvStrip], outdir=None, progress: bool = False
):
    """Train whatever the roster needs on the training ``strips``; returns
    (qtable, bc model).

    With an ``outdir``, a learner saved there by a run on the same
    training strips, models and learner params is reused instead, and a
    trained one is saved there.
    """

    def learner(name, magic, load, save, params, manifest, train):
        key = _learner_key(config, strips, params)
        return _get_or_build(outdir, name, magic, load, lambda found: found.key, key,
                             lambda: train(key),
                             lambda trained, path: save(trained, path, manifest), progress)

    def sweep(key):
        qtable = _sweep(strips, config)
        qtable.key = key
        if progress:
            print(f"swept q table over {len(strips)} strips")
        return qtable

    def clone(key):
        demos = balance_dataset(_demo_pool(config, strips, _cache_dir(outdir)),
                                seed=config.bc.seed)
        model = train_bc(demos, config.bc, energy=config.energy)
        model.key = key
        if progress:
            print(f"cloned planner from {len(demos)} balanced demos")
        return model

    qtable = model = None
    if "qlearn" in config.roster:
        q = config.qlearn
        qtable = learner(QTABLE_FILE, Q_MAGIC, load_qtable, save_qtable, q,
                         {"alpha": q.alpha, "gamma": q.gamma, "sweeps": q.sweeps}, sweep)
    if "bc" in config.roster:
        bc = config.bc
        model = learner(MODEL_FILE, MODEL_MAGIC, load_model, save_model, bc,
                        {"keep_prob": bc.keep_prob, "loss": bc.loss,
                         "learning_rate": bc.learning_rate}, clone)
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


def prepare_bench(
    config: BenchConfig, outdir=None, progress: bool = False
) -> List[Tuple[str, Optional[Policy]]]:
    """Each roster name with its policy, in roster order, the learners
    trained by ``train_learners`` on the training strips; ``dp`` maps to
    None, because the planner is built per test strip."""
    qtable, model = train_learners(
        config, list(config.strips("train", outdir)), outdir, progress=progress
    )
    return [(name, _build_policy(name, config, qtable, model)) for name in config.roster]


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


def _mean(values: Sequence[float]) -> float:
    """The per-strip mean every report and curve uses: the values summed in
    strip order, then divided by their count.  Finite values whose sum
    overflows are each divided by the count first."""
    total = sum(values)
    if math.isinf(total) and all(map(math.isfinite, values)):
        return sum(v / len(values) for v in values)
    return total / len(values)


@dataclass
class BenchReport:
    scenario: str
    rows: List[ReportRow]
    roster: Tuple[str, ...]

    def rows_for(self, policy: str) -> List[ReportRow]:
        return [r for r in self.rows if r.policy == policy and r.dataset != "mean"]

    def mean_pct(self, policy: str) -> float:
        return _mean([r.pct_of_dp for r in self.rows_for(policy)])

    def with_means(self) -> List[ReportRow]:
        """Detail rows followed by one synthetic mean row per policy: the
        mean of every float column and the total of the violation count."""
        out = list(self.rows)
        for policy in self.roster:
            rows = self.rows_for(policy)
            if not rows:
                continue
            means = {}
            for name, kind in _field_types(ReportRow).items():
                column = [getattr(r, name) for r in rows]
                if kind is float:
                    means[name] = _mean(column)
                elif kind is int:
                    means[name] = sum(column)
            out.append(ReportRow(policy=policy, dataset="mean", **means))
        return out


def _csv_line(row, kinds: Dict[str, object]) -> str:
    """The fields ``kinds`` (``_field_types`` of its class) of dataclass
    ``row`` as one CSV line.  A float field prints as ``repr(float(v))``,
    which round-trips exactly and keeps files byte-stable; any other with
    ``str``."""
    return ",".join(
        repr(float(getattr(row, name))) if kind is float else str(getattr(row, name))
        for name, kind in kinds.items()
    )


def _write_csv(path, cls, rows) -> None:
    """Write ``rows`` of dataclass ``cls`` as CSV: the field names, then
    one ``_csv_line`` per row."""
    kinds = _field_types(cls)
    lines = [",".join(kinds)] + [_csv_line(row, kinds) for row in rows]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


CSV_HEADER = ",".join(_field_types(ReportRow))


def _pct_of_dp(total: float, dp_value: float) -> float:
    """``total`` as a percentage of the planner's value.

    A strip worth nothing to the planner reads 100 for a zero total and
    an infinity with the total's sign otherwise.  A finite total too
    large to scale by 100 is divided by the planner's value first.
    """
    if dp_value > 0:
        scaled = 100.0 * total
        return scaled / dp_value if math.isfinite(scaled) else total / dp_value * 100.0
    return 100.0 if total == 0 else math.copysign(math.inf, total)


def _episode(
    config: BenchConfig, strip: EnvStrip, policy: Policy, dp_value: float
) -> Tuple[EpisodeLog, float]:
    """``policy``'s episode on ``strip`` and its total as a percentage of
    the planner's value ``dp_value``."""
    log = run_episode(
        strip, config.geometry, config.energy, config.rewards, policy, soc0=config.soc0
    )
    return log, _pct_of_dp(log.total_reward, dp_value)


def _score(
    config: BenchConfig,
    policies: Sequence[Tuple[str, Optional[Policy]]],
    outdir,
) -> List[List[ReportRow]]:
    """Each ``(name, policy)`` pair's rows, one per test strip; a None
    policy stands for the strip's planner.

    The test strips are walked one at a time: each is planned, or its
    table read from ``<outdir>/dp_cache/``, every policy is scored on it,
    and strip and table are dropped before the next, so at most one test
    strip and one test table are alive.  Every episode resets its policy
    first, so this order changes no episode.
    """
    cache_dir = _cache_dir(outdir)
    rows: List[List[ReportRow]] = [[] for _ in policies]
    for i, strip in enumerate(config.strips("test", outdir)):
        table = _dp_for(strip, config, cache_dir)
        dp_value = table.root_value(config.soc0)
        for out, (name, policy) in zip(rows, policies):
            log, pct = _episode(config, strip, policy or dp_policy(table, strip), dp_value)
            out.append(
                ReportRow(
                    policy=name,
                    dataset=f"test{i:02d}",
                    total_reward=log.total_reward,
                    pct_of_dp=pct,
                    frac_off=log.off_fraction,
                    frac_low=log.class_fraction(RewardClass.LOW),
                    frac_mid=log.class_fraction(RewardClass.MID),
                    frac_high=log.class_fraction(RewardClass.HIGH),
                    violations=log.violations,
                    mean_decide_us=log.mean_decide_us,
                )
            )
        del strip, table
    return rows


def run_benchmark(config: BenchConfig, outdir=None, progress: bool = False) -> BenchReport:
    """Score the whole roster on every test strip, in one ``_score`` walk;
    the rows are listed policy by policy."""
    scored = _score(config, prepare_bench(config, outdir, progress=progress), outdir)
    if progress:
        for name, rows in zip(config.roster, scored):
            print(f"{name}: mean {_mean([r.pct_of_dp for r in rows]):.2f}% of dp")
    ordered = [row for rows in scored for row in rows]
    return BenchReport(scenario=config.scenario, rows=ordered, roster=config.roster)


def emit_report(report: BenchReport, outdir) -> List[Path]:
    """Write ``report.csv`` and ``report.md`` into ``outdir``; returns
    their paths.

    The CSV keeps measured latency in its final column so consumers can
    drop it when comparing runs byte for byte.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.csv"
    _write_csv(path, ReportRow, report.with_means())
    return [path, _emit_markdown(report, outdir)]


def _emit_markdown(report: BenchReport, outdir: Path) -> Path:
    names = CLASS_NAMES[report.scenario]
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
    matches a plain benchmark run.  Every learner is trained first, for
    every fraction; then one ``_score`` walk, as in ``run_benchmark``,
    scores them all on the test strips.  A repeated fraction is refused
    with ConfigError before any strip is generated or read.
    """
    fractions = [float(f) for f in fractions]
    for f in fractions:
        if not (0.0 < f <= 1.0):
            raise ParameterError(f"fractions must lie in (0, 1]: {f}")
    if len(set(fractions)) != len(fractions):
        raise ConfigError(f"repeated fraction in {fractions}")
    if not {"bc", "qlearn"} & set(config.roster):
        raise ConfigError("a curve needs bc or qlearn in the roster")
    train = list(config.strips("train", outdir))
    pool = None
    pool_order = None
    if "bc" in config.roster:
        pool = _demo_pool(config, train, _cache_dir(outdir))
        pool_order = np.random.default_rng(config.bc.seed).permutation(len(pool))
    learners: List[Tuple[str, float, Policy]] = []
    for f in fractions:
        if "qlearn" in config.roster:
            prefixes = [_prefix_strip(s, f) for s in train]
            qtable = _sweep(prefixes, config)
            learners.append(("qlearn", f, _build_policy("qlearn", config, qtable, None)))
        if "bc" in config.roster:
            if f >= 1.0:
                sub = pool
            else:
                n_f = max(1, int(np.ceil(f * len(pool))))
                sub = take_demos(pool, pool_order[:n_f])
            demos = balance_dataset(sub, seed=config.bc.seed)
            model = train_bc(demos, config.bc, energy=config.energy)
            learners.append(("bc", f, _build_policy("bc", config, None, model)))
    scored = _score(config, [(name, policy) for name, _, policy in learners], outdir)
    points: List[CurvePoint] = []
    for (name, f, _), rows in zip(learners, scored):
        pcts = [r.pct_of_dp for r in rows]
        points.append(CurvePoint(name, f, _mean(pcts), min(pcts), max(pcts)))
    if progress:
        for f in fractions:
            got = [p for p in points if p.fraction == f]
            print(f"fraction {f}: " + ", ".join(f"{p.learner} {p.mean_pct:.2f}%" for p in got))
    return points


def curve_to_csv(points: Sequence[CurvePoint], path) -> None:
    _write_csv(path, CurvePoint, points)


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
    its length, resetting charge at each wrap.  Otherwise it runs as
    ``run_episode`` does, violations and policy errors included.
    """
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    _, decide_ns = _rollout(strip, geom, energy, RewardModel(), policy, soc0, n_steps)
    us = np.array(decide_ns, dtype=np.float64) / 1000.0
    return LatencyStats(
        mean_us=float(us.mean()),
        p50_us=float(np.percentile(us, 50)),
        p95_us=float(np.percentile(us, 95)),
        max_us=float(us.max()),
        n=n_steps,
    )

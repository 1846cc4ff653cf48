"""End-to-end acceptance run: one printed verdict line per check.

Each test here exercises a shipping-level claim about the package on
realistic scales and prints a PASS/FAIL line even under pytest's
capture, so the suite doubles as a checklist when run in full.
"""
import dataclasses
import time
import warnings

import numpy as np
import pytest

from dyntarget import (
    Action,
    BenchConfig,
    DatasetSpec,
    EnergyModel,
    EnvStrip,
    QLearnParams,
    QTable,
    RewardModel,
    SensorGeometry,
    TrainParams,
    balance_dataset,
    bc_policy,
    brute_force_optimal,
    build_dp_table,
    collect_demonstrations,
    expert_agreement,
    generate_synthetic,
    greedy_lateral,
    greedy_nadir,
    greedy_radar,
    greedy_window,
    init_mlp,
    measure_latency,
    mlp_grad,
    q_policy,
    q_state_from_index,
    q_state_index,
    random_policy,
    run_benchmark,
    run_episode,
    train_dp_sweep,
    training_curve,
)
from dyntarget.bench import train_learners
from dyntarget.cli import main
from dyntarget.qlearn import N_Q_STATES
from dyntarget.world import GenParams

ENERGY = EnergyModel()
REWARDS = RewardModel()


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="session")
def desk_benchmark():
    """One full-roster benchmark at desk scale, shared by the ordering
    and duty-cycle checks."""
    config = BenchConfig()
    start = time.perf_counter()
    report = run_benchmark(config)
    return report, time.perf_counter() - start


def test_planner_is_exactly_optimal(capsys, geom_small):
    rng = np.random.default_rng(2026)
    mismatches = 0
    start = time.perf_counter()
    for _ in range(200):
        length = int(rng.integers(1, 13))
        strip = EnvStrip(rng.integers(0, 3, size=(9, length), dtype=np.uint8))
        soc0 = int(rng.integers(0, 101))
        table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
        value, _ = brute_force_optimal(strip, geom_small, ENERGY, REWARDS, soc0=soc0)
        if table.root_value(soc0) != value:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(capsys, "planner exactness", ok,
             f"200 instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_sweep_learner_reaches_the_planner(capsys, geom_small):
    strip = EnvStrip(np.random.default_rng(0).integers(0, 3, size=(9, 12), dtype=np.uint8))
    table = train_dp_sweep([strip], QLearnParams(sweeps=200), geom=geom_small)
    dp = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    policy = q_policy(table, ENERGY)
    gaps = []
    for soc0 in (12, 100):
        log = run_episode(strip, geom_small, ENERGY, REWARDS, policy, soc0=soc0)
        gaps.append((soc0, log.total_reward, dp.root_value(soc0)))
    ok = all(got == want for _, got, want in gaps)
    _verdict(capsys, "sweep learner convergence", ok,
             "; ".join(f"soc0={s}: {g}=={w}" for s, g, w in gaps))
    for _, got, want in gaps:
        assert got == want


@pytest.mark.slow
def test_policy_ladder_is_ordered(capsys, desk_benchmark):
    report, elapsed = desk_benchmark
    names = ("random", "greedy_nadir", "greedy_lateral", "greedy_radar",
             "greedy_window", "bc", "qlearn")
    means = {name: report.mean_pct(name) for name in names}
    means["dp"] = report.mean_pct("dp")
    chain = [means[n] for n in names]
    strict = all(a < b for a, b in zip(chain[:5], chain[1:6]))
    bc_le_ql = means["bc"] <= means["qlearn"]
    below_dp = means["qlearn"] < 100.0
    margin = means["qlearn"] - means["greedy_window"]
    ok = (strict and bc_le_ql and below_dp and margin >= 3.0
          and means["dp"] == 100.0 and elapsed < 900.0)
    detail = " < ".join(f"{n}={means[n]:.2f}" for n in names)
    _verdict(capsys, "policy ladder", ok,
             f"{detail}; learner margin {margin:+.2f}; {elapsed:.0f}s")
    assert strict
    assert bc_le_ql
    assert below_dp
    assert margin >= 3.0
    assert means["dp"] == 100.0
    assert elapsed < 900.0


@pytest.mark.slow
def test_duty_cycle_band(capsys, desk_benchmark):
    report, _ = desk_benchmark
    fracs = [(row.policy, row.dataset, row.frac_off) for row in report.rows]
    lo = min(f for _, _, f in fracs)
    hi = max(f for _, _, f in fracs)
    ok = 0.79 <= lo and hi <= 0.90
    _verdict(capsys, "duty cycle", ok,
             f"off fraction across {len(fracs)} runs in [{lo:.4f}, {hi:.4f}]")
    assert lo >= 0.79
    assert hi <= 0.90


def test_energy_invariants_hold(capsys, geom_small):
    rng = np.random.default_rng(7)
    bad_soc = bad_sample = total_violations = 0
    for k in range(1000):
        height = int(rng.choice([1, 3, 5, 9]))
        length = int(rng.integers(50, 201))
        strip = EnvStrip(rng.integers(0, 3, size=(height, length), dtype=np.uint8))
        policy = random_policy(p_sample=float(rng.uniform(0.05, 1.0)), seed=k)
        soc0 = int(rng.integers(0, 101))
        log = run_episode(strip, geom_small, ENERGY, REWARDS, policy, soc0=soc0)
        for step in log.steps:
            if not (0 <= step.soc <= 100):
                bad_soc += 1
            if step.action == Action.SAMPLE and step.soc < ENERGY.sample_discharge:
                bad_sample += 1
        total_violations += log.violations
    ok = bad_soc == 0 and bad_sample == 0 and total_violations == 0
    _verdict(capsys, "energy invariants", ok,
             f"1000 episodes: {bad_soc} charge excursions, "
             f"{bad_sample} infeasible samples, {total_violations} violations")
    assert bad_soc == 0
    assert bad_sample == 0
    assert total_violations == 0


def test_state_codec_round_trips(capsys):
    failures = sum(
        1 for idx in range(N_Q_STATES) if q_state_index(q_state_from_index(idx)) != idx
    )
    ok = failures == 0
    _verdict(capsys, "state codec", ok,
             f"{N_Q_STATES} indices round-tripped, {failures} failures")
    assert failures == 0


def _numeric_grads(model, x, y, loss, h=1e-6):
    """Central differences; h stays small so the rectifier kinks are
    crossed as rarely as possible."""
    def value():
        return mlp_grad(model, x, y, loss=loss)[0]

    out = []
    for params in (model.weights, model.biases):
        grads = [np.zeros_like(p) for p in params]
        for g, p in zip(grads, params):
            flat_g, flat_p = g.ravel(), p.ravel()
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + h
                hi = value()
                flat_p[j] = keep - h
                lo = value()
                flat_p[j] = keep
                flat_g[j] = (hi - lo) / (2 * h)
        out.append(grads)
    return out


def test_gradients_are_exact(capsys):
    rng = np.random.default_rng(31)
    worst = 0.0
    for pair in range(20):
        loss = "bce" if pair % 2 == 0 else "mse"
        model = init_mlp(seed=int(rng.integers(0, 10_000)))
        x = rng.random((int(rng.integers(4, 17)), 13))
        y = rng.integers(0, 2, len(x)).astype(np.float64)
        _, gw, gb = mlp_grad(model, x, y, loss=loss)
        nw, nb = _numeric_grads(model, x, y, loss)
        for analytic, numeric in zip(gw + gb, nw + nb):
            # floor the denominator so coordinates at the finite-difference
            # noise scale are judged by absolute error instead
            err = np.abs(analytic - numeric) / np.maximum(
                np.abs(analytic) + np.abs(numeric), 1e-4
            )
            worst = max(worst, float(err.max()))
    ok = worst < 1e-4
    _verdict(capsys, "gradient check", ok,
             f"20 model/batch pairs, max relative error {worst:.2e}")
    assert worst < 1e-4


@pytest.mark.slow
def test_cloned_policy_agrees_with_the_expert(capsys):
    config = BenchConfig(
        roster=("bc",),
        datasets=dataclasses.replace(DatasetSpec(), length=3000, test_count=2),
    )
    _, model = train_learners(config, list(config.strips("train")))
    scores = []
    for strip in config.strips("test"):
        table = build_dp_table(strip, config.geometry, config.energy, config.rewards)
        demos = collect_demonstrations(table, strip, keep_prob=0.1, seed=1,
                                       geom=config.geometry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            balanced = balance_dataset(demos, seed=2)
        scores.append(expert_agreement(model, balanced))
    ok = all(s >= 0.85 for s in scores)
    _verdict(capsys, "imitation agreement", ok,
             "held-out balanced agreement " + ", ".join(f"{s:.3f}" for s in scores))
    for s in scores:
        assert s >= 0.85


@pytest.mark.slow
def test_learning_scales_with_data(capsys):
    config = BenchConfig(
        datasets=dataclasses.replace(DatasetSpec(), length=3000, test_count=5),
        bc=TrainParams(keep_prob=0.16, max_epochs=800, patience=60),
    )
    fractions = [0.003, 0.01, 0.03, 0.1, 0.3, 1.0]
    points = training_curve(config, fractions)
    curves = {}
    for learner in ("qlearn", "bc"):
        curve = [p.mean_pct for p in points if p.learner == learner]
        assert len(curve) == len(fractions)
        curves[learner] = curve
    sags = {
        learner: min(b - a for a, b in zip(curve, curve[1:]))
        for learner, curve in curves.items()
    }
    plateaus = {learner: abs(curve[-1] - curve[-2]) for learner, curve in curves.items()}
    ok = all(s >= -2.0 for s in sags.values()) and all(
        p <= 2.0 for p in plateaus.values()
    )
    detail = "; ".join(
        f"{learner} " + "->".join(f"{v:.1f}" for v in curve)
        for learner, curve in curves.items()
    )
    _verdict(capsys, "data scaling", ok, detail)
    for learner in curves:
        assert sags[learner] >= -2.0, f"{learner} curve sags beyond noise"
        assert plateaus[learner] <= 2.0, f"{learner} curve has not plateaued"


def test_decisions_are_fast(capsys):
    strip = generate_synthetic(GenParams(length=4000, seed=77))
    geom = SensorGeometry()
    policies = [
        random_policy(seed=1),
        greedy_nadir(),
        greedy_lateral(),
        greedy_radar(),
        greedy_window(),
        bc_policy(init_mlp(seed=0)),
        q_policy(QTable(), ENERGY),
    ]
    stats = {p.name: measure_latency(p, strip, 2000, geom, ENERGY) for p in policies}
    worst = max(s.mean_us for s in stats.values())
    ok = worst < 100.0
    detail = ", ".join(f"{name} {s.mean_us:.1f}us" for name, s in stats.items())
    _verdict(capsys, "decision latency", ok, detail)
    for name, s in stats.items():
        assert s.mean_us < 100.0, f"{name} mean {s.mean_us:.1f}us"


def test_reports_are_reproducible(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "datasets.length = 400\n"
        "datasets.train_count = 1\n"
        "datasets.test_count = 2\n"
        "bc.keep_prob = 0.5\n"
        "bc.max_epochs = 5\n"
        "bc.patience = 2\n"
        "qlearn.sweeps = 5\n",
        encoding="utf-8",
    )

    def run(out):
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        return ["\x1f".join(line.split(",")[:-1]) for line in lines]

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    ok = first == second and len(first) > 1
    _verdict(capsys, "report reproducibility", ok,
             f"{len(first)} CSV rows identical after dropping the timing column")
    assert first == second

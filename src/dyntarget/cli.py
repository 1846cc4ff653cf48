"""Command-line front end.

Subcommands cover the whole pipeline: generate datasets, plan one
exactly, train either learner, evaluate the full roster, sweep training
sizes, and measure decision latency.  Exit codes: 0 on success, 2 for
configuration problems, 3 for data problems, 4 for resource limits.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import (
    BenchConfig,
    FULL_SCALE_LENGTH,
    curve_to_csv,
    emit_report,
    load_config,
    measure_latency,
    prepare_bench,
    resolve_strips,
    run_benchmark,
    train_learners,
    training_curve,
    _build_policy,
)
from .cloning import save_model
from .dp import build_dp_table, save_dp_table
from .errors import (
    ConfigError,
    ConsistencyError,
    FormatError,
    ParameterError,
    ResourceError,
)
from .qlearn import save_qtable, train_dp_sweep
from .world import GenParams, class_fractions, generate_synthetic, load_dataset, save_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4


def _load_base_config(args) -> BenchConfig:
    config = load_config(args.config) if args.config else BenchConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "full_scale", False):
        config = dataclasses.replace(
            config,
            datasets=dataclasses.replace(config.datasets, length=FULL_SCALE_LENGTH),
        )
    return config


def _cmd_gen(args) -> int:
    config = _load_base_config(args)
    ds = config.datasets
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for role, count, seed0 in (
        ("train", ds.train_count, ds.train_seed0),
        ("test", ds.test_count, ds.test_seed0),
    ):
        for i in range(count):
            seed = seed0 + i
            params = GenParams(
                height=ds.height,
                length=ds.length,
                prevalence=ds.prevalence,
                blob_radius=ds.blob_radius,
                pixel_size_km=ds.pixel_size_km,
                seed=seed,
            )
            strip = generate_synthetic(params)
            path = outdir / f"{role}{i:02d}.dtg"
            save_dataset(
                strip,
                path,
                manifest={
                    "scenario": config.scenario,
                    "seed": seed,
                    "prevalence": ",".join(str(p) for p in ds.prevalence),
                },
            )
            frac = class_fractions(strip)
            print(f"{path}  fractions {frac[0]:.3f}/{frac[1]:.3f}/{frac[2]:.3f}")
    return EXIT_OK


def _cmd_dp(args) -> int:
    config = _load_base_config(args)
    strip = load_dataset(args.data)
    table = build_dp_table(strip, config.geometry, config.energy, config.rewards)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / (Path(args.data).stem + ".dpt")
    save_dp_table(table, path)
    print(f"{path}  optimal reward from full charge: {table.root_value(config.soc0)}")
    return EXIT_OK


def _cmd_train_q(args) -> int:
    config = _load_base_config(args)
    prep = prepare_bench_no_tables(config)
    table = train_dp_sweep(
        prep,
        config.qlearn,
        geom=config.geometry,
        energy=config.energy,
        rewards=config.rewards,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "qtable.dtq"
    save_qtable(
        table,
        path,
        manifest={
            "alpha": config.qlearn.alpha,
            "gamma": config.qlearn.gamma,
            "sweeps": config.qlearn.sweeps,
        },
    )
    print(f"{path}  trained on {len(prep)} strips")
    return EXIT_OK


def prepare_bench_no_tables(config: BenchConfig):
    """Training strips only; avoids planning test strips needlessly."""
    train, _ = resolve_strips(config)
    return train


def _cmd_train_bc(args) -> int:
    config = _load_base_config(args)
    config = dataclasses.replace(config, roster=("bc",))
    prep = prepare_bench(config, outdir=args.out)
    _, model = train_learners(prep, progress=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bc_model.dtm"
    save_model(
        model,
        path,
        manifest={
            "keep_prob": config.bc.keep_prob,
            "loss": config.bc.loss,
            "learning_rate": config.bc.learning_rate,
        },
    )
    print(f"{path}  layers {'x'.join(str(s) for s in model.layer_sizes)}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = _load_base_config(args)
    report = run_benchmark(config, outdir=args.out, progress=True)
    written = emit_report(report, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_curve(args) -> int:
    config = _load_base_config(args)
    fractions = [float(f) for f in args.fractions.split(",")]
    points = training_curve(config, fractions, outdir=args.out, progress=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "curve.csv"
    curve_to_csv(points, path)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_latency(args) -> int:
    config = _load_base_config(args)
    prep = prepare_bench(config, outdir=args.out)
    qtable, model = train_learners(prep)
    strip = prep.test_strips[0]
    print("policy,mean_us,p50_us,p95_us,max_us")
    for name in config.roster:
        if name == "dp":
            continue  # planner lookups are not a flight-software path here
        policy = _build_policy(name, config, qtable, model)
        stats = measure_latency(
            policy, strip, args.steps, geom=config.geometry, energy=config.energy,
            soc0=config.soc0,
        )
        print(
            f"{name},{stats.mean_us:.2f},{stats.p50_us:.2f},{stats.p95_us:.2f},"
            f"{stats.max_us:.2f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyntarget",
        description="Simulate, plan, train and benchmark on-orbit dynamic targeting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--full-scale", action="store_true", help="use full-length strips")
        if needs_out:
            p.add_argument("--out", type=str, default="out", help="output directory")

    p = sub.add_parser("gen", help="generate synthetic datasets")
    common(p)
    p = sub.add_parser("dp", help="plan one dataset exactly")
    common(p)
    p.add_argument("--data", type=str, required=True, help="dataset file")
    p = sub.add_parser("train-q", help="train the sweep learner")
    common(p)
    p = sub.add_parser("train-bc", help="train the cloned policy")
    common(p)
    p = sub.add_parser("eval", help="run the full benchmark and write reports")
    common(p)
    p = sub.add_parser("curve", help="sweep training-data fractions")
    common(p)
    p.add_argument(
        "--fractions",
        type=str,
        default="0.003,0.01,0.03,0.1,0.3,1.0",
        help="comma-separated fractions of the training data",
    )
    p = sub.add_parser("latency", help="measure per-decision latency")
    common(p)
    p.add_argument("--steps", type=int, default=2000, help="decisions to time")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "dp": _cmd_dp,
    "train-q": _cmd_train_q,
    "train-bc": _cmd_train_bc,
    "eval": _cmd_eval,
    "curve": _cmd_curve,
    "latency": _cmd_latency,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, ConsistencyError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

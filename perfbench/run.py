"""Benchmark runner: one dyntarget workload, measured in this process.

    python3 perfbench/run.py --workload ladder --seed 3 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing outside the checkout is read or written.  Scratch
output goes to ``.perfbench_out/``: every repetition gets a fresh out
dir that is deleted afterwards, and a traced run leaves its spans there.

Workloads (inputs derived from ``--seed``; see perfbench/README.md):

* ``ladder``  ``dyntarget eval`` with the full roster on short desk strips.
* ``rollout`` ``run_episode`` for the seven deployable policies on one
  10,000-step strip, learners trained small during set-up.

``pct_of_dp`` is the mean score of the two learned policies, ``qlearn``
and ``bc``, as % of the DP optimum.

Each repetition runs the timed work twice: a cold pass into a fresh out
dir (or, for ``rollout``, on a strip object the simulator has not seen)
and a warm pass into the same dir (the same strip object).  Outputs of
both passes, and of every repetition, are checked against each other.
Times are wall times scaled to reference seconds by a speed probe; see
``REF_PROBE_S``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the benchmark's own module, beside this file)

# set up at least this often, and until this long has gone into set-up:
# ladder's set-up is an import of about 0.1 s, so it takes a few dozen
# samples, and their median is less at the mercy of one slow moment
SETUP_MIN_REPS, SETUP_MIN_S = 5, 5.0

# Timings are reported in reference seconds.  The shared host's speed drifts
# by a fifth or more from one half-minute to the next, and a fixed
# pure-Python loop, the probe, slows by nearly the same share as the
# measured work.  So while work is timed, a timer signal interrupts it every
# PROBE_EVERY_S for PROBE_CALLS probe calls; the work's time leaves out
# those pauses and is scaled by REF_PROBE_S over the calls' median: the time
# the work would have taken with the probe running at its reference speed.
PROBE_LOOPS = 20_000
REF_PROBE_S = 1.5e-3  # the probe's median on the reference machine
PROBE_EVERY_S, PROBE_CALLS = 0.1, 2  # about 3 % of the timed work
PROBE_MIN = 20  # calls per scale; short work is topped up right after it

# Training data is fixed per workload and only the evaluated strips and the
# policies' decision seeds follow --seed: early stopping makes the cloner's
# epoch count, and with it the run time, swing 2-3x between training sets.
LADDER = {"length": 400, "train_count": 2, "test_count": 8, "train_seed0": 100}
# One rollout pass is short (under a second on the reference machine), so a
# run holds a few dozen of them: the machine's speed jumps by a third within
# a second, and a median over many episodes of each policy rides that out
# where the median of a handful of long passes did not.
ROLLOUT = {"length": 10_000, "train_length": 200, "train_seed": 100}
LEARNERS = ("qlearn", "bc")
SEED_BASE = 1_000_000  # evaluated strips never share a generator seed with training

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dyntarget; "
                "print(time.perf_counter() - t)")


def import_program():
    """Import dyntarget from this checkout's source tree, or exit."""
    if not (SRC / "dyntarget" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import dyntarget
    if Path(dyntarget.__file__).resolve().parent != (SRC / "dyntarget").resolve():
        raise SystemExit(f"perfbench: imported dyntarget from {dyntarget.__file__}")
    import dyntarget.cli
    return dyntarget


def time_import() -> float:
    """Import time of the package in a fresh interpreter, in seconds."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def probe() -> float:
    """Seconds one probe call takes."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Probe calls made during timed work, and the scale they give.

    A disabled probe (traced runs, which report raw span times) makes no
    calls and scales by 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.calls = []
        self._batch = []
        self._paused = 0.0

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in probe calls."""
        return time.perf_counter() - self._paused

    def _tick(self, signum, frame):
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            self._batch.append(probe())
        self._paused += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S while the block runs."""
        self._batch = []
        if not self.enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """REF_PROBE_S over the median call of the last ``sampling`` block."""
        if not self.enabled:
            return 1.0
        batch = self._batch
        while len(batch) < PROBE_MIN:
            batch.append(probe())
        self.calls.extend(batch)
        return REF_PROBE_S / statistics.median(batch)


class Checks:
    """Output checks; each one counts as attempted, failures by name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# ladder workload
# ---------------------------------------------------------------------------

def write_config(path: Path, entries: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    return path


def ladder_entries(seed: int) -> dict:
    return {
        "seed": seed,
        "datasets.length": LADDER["length"],
        "datasets.train_count": LADDER["train_count"],
        "datasets.test_count": LADDER["test_count"],
        "datasets.train_seed0": LADDER["train_seed0"],
        "datasets.test_seed0": SEED_BASE + 64 * seed,
    }


def read_report(outdir: Path):
    """(csv rows as dicts, csv text without mean_decide_us, markdown bytes)."""
    lines = (outdir / "report.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    keep = [i for i, col in enumerate(header) if col != "mean_decide_us"]
    stable = "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)
    return rows, stable, (outdir / "report.md").read_bytes()


def cache_state(outdir: Path) -> dict:
    cache = outdir / "dp_cache"
    if not cache.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in sorted(cache.iterdir())}


class EvalWorkload:
    """``dyntarget eval`` through ``cli.main``, cold then warm."""

    def __init__(self, dt, entries, speed):
        self.dt = dt
        self.entries = entries
        self.speed = speed
        self.first = None

    def setup(self, workdir: Path):
        self.config = write_config(workdir / "bench.cfg", self.entries)

    def _eval(self, outdir: Path):
        """Seconds of one eval, as a one-part pass, and their scale."""
        argv = ["eval", "--config", str(self.config), "--out", str(outdir)]
        sink = io.StringIO()
        with self.speed.sampling(), contextlib.redirect_stdout(sink):
            start = self.speed.clock()
            code = self.dt.cli.main(argv)
            elapsed = self.speed.clock() - start
        if code != 0:
            raise RuntimeError(f"dyntarget {' '.join(argv)} exited {code}")
        return [elapsed], self.speed.scale()

    def rep(self, outdir: Path, checks: Checks, tracer):
        tracer_phase(tracer, "cold")
        cold_s, cold_k = self._eval(outdir)
        rows, stable, md = read_report(outdir)
        cache = cache_state(outdir)
        tracer_phase(tracer, "warm")
        warm_s, warm_k = self._eval(outdir)
        warm_rows, warm_stable, warm_md = read_report(outdir)

        for label, rs in (("cold", rows), ("warm", warm_rows)):
            dp_rows = [r for r in rs if r["policy"] == "dp" and r["dataset"] != "mean"]
            checks.expect(bool(dp_rows) and all(float(r["pct_of_dp"]) == 100.0 for r in dp_rows),
                          f"{label}: dp scores exactly 100.0 on every test strip")
            checks.expect(all(int(r["violations"]) == 0 for r in rs),
                          f"{label}: no energy violations in any row")
        checks.expect(warm_stable == stable, "warm report.csv matches cold (latency dropped)")
        checks.expect(warm_md == md, "warm report.md matches cold byte for byte")
        checks.expect(bool(cache) and cache_state(outdir) == cache,
                      "warm pass reuses the cached DP tables and builds none")
        if tracer is not None:
            built = [s for s in tracer.spans
                     if s["phase"] == tracer.phase and s["name"] == "dp.build_dp_table"]
            checks.expect(not built, "traced warm pass has dp.cache_misses == 0")
        if self.first is None:
            self.first = (stable, md)
        checks.expect(self.first == (stable, md), "report repeats across repetitions")

        pct = {}
        for r in rows:
            if r["dataset"] == "mean" and r["policy"] != "dp":
                pct[r["policy"]] = float(r["pct_of_dp"])
        return (cold_s, cold_k), (warm_s, warm_k), pct


# ---------------------------------------------------------------------------
# rollout workload
# ---------------------------------------------------------------------------

class RolloutWorkload:
    """``run_episode`` for every deployable policy on one generated strip."""

    def __init__(self, dt, seed: int, speed):
        self.dt = dt
        self.seed = seed
        self.speed = speed
        self.first = None

    def setup(self, workdir: Path):
        dt = self.dt
        config = dt.BenchConfig(seed=self.seed)
        self.config = config
        geom, energy, rewards = config.geometry, config.energy, config.rewards
        train = dt.generate_synthetic(dt.GenParams(length=ROLLOUT["train_length"],
                                                   seed=ROLLOUT["train_seed"]))
        self.strip = dt.generate_synthetic(dt.GenParams(length=ROLLOUT["length"],
                                                        seed=SEED_BASE + 64 * self.seed))
        self.dp_value = dt.build_dp_table(self.strip, geom, energy, rewards).root_value(config.soc0)
        qtable = dt.train_dp_sweep([train], config.qlearn, geom=geom, energy=energy,
                                   rewards=rewards)
        table = dt.build_dp_table(train, geom, energy, rewards)
        demos = dt.collect_demonstrations(table, train, keep_prob=config.bc.keep_prob,
                                          seed=config.bc.seed, geom=geom)
        model = dt.train_bc(dt.balance_dataset(demos, seed=config.bc.seed), config.bc)
        self.policies = [
            dt.random_policy(config.p_sample, seed=self.seed + 17, energy=energy),
            dt.greedy_nadir(config.thresholds, energy=energy),
            dt.greedy_lateral(config.thresholds, energy=energy),
            dt.greedy_radar(config.thresholds, energy=energy),
            dt.greedy_window(energy=energy),
            dt.q_policy(qtable, energy=energy),
            dt.bc_policy(model, mode=config.bc_mode, seed=self.seed + 29, energy=energy),
        ]

    def _episodes(self, strip):
        """Seconds per policy's episode, their scale, and each episode's totals."""
        c, clock = self.config, self.speed.clock
        elapsed, totals = [], []
        with self.speed.sampling():
            for p in self.policies:
                start = clock()
                log = self.dt.run_episode(strip, c.geometry, c.energy, c.rewards, p, soc0=c.soc0)
                elapsed.append(clock() - start)
                totals.append((log.total_reward, log.class_counts, log.off_count, log.violations))
        return elapsed, self.speed.scale(), totals

    def rep(self, outdir: Path, checks: Checks, tracer):
        # a strip object the simulator has not indexed yet: the cold pass
        # pays for the per-strip summaries, the warm pass reuses them
        strip = self.dt.EnvStrip(self.strip.cells, pixel_size_km=self.strip.pixel_size_km)
        tracer_phase(tracer, "cold")
        cold_s, cold_k, cold = self._episodes(strip)
        tracer_phase(tracer, "warm")
        warm_s, warm_k, warm = self._episodes(strip)
        for policy, (total, _, _, violations) in zip(self.policies, cold):
            checks.expect(violations == 0, f"{policy.name}: no energy violations")
            checks.expect(total <= self.dp_value, f"{policy.name}: reward within the DP optimum")
        checks.expect(warm == cold, "warm episodes repeat the cold ones exactly")
        if self.first is None:
            self.first = cold
        checks.expect(cold == self.first, "episodes repeat across repetitions")
        pct = {p.name: 100.0 * total / self.dp_value
               for p, (total, _, _, _) in zip(self.policies, cold)}
        return (cold_s, cold_k), (warm_s, warm_k), pct


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

def tracer_phase(tracer, name):
    if tracer is not None:
        tracer.phase = f"{tracer.rep_label}.{name}"


def make_workload(dt, name: str, seed: int, speed):
    if name == "ladder":
        return EvalWorkload(dt, ladder_entries(seed), speed)
    return RolloutWorkload(dt, seed, speed)


def run(workload: str, seed: int, seconds: int, trace: bool):
    dt = import_program()  # also writes the bytecode cache, so no set-up pays for compiling
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    tracer = spans.Tracer() if trace else None
    checks = Checks()
    speed = SpeedProbe(enabled=not trace)
    try:
        setup_s, setup_wall = [], []
        setup_begin = time.perf_counter()
        while len(setup_s) < SETUP_MIN_REPS or time.perf_counter() - setup_begin < SETUP_MIN_S:
            i = len(setup_s)
            import_s = time_import()
            w = make_workload(dt, workload, seed, speed)
            if tracer is not None:
                tracer.rep_label = tracer.phase = f"setup{i}"
                tracer.install()
            start = speed.clock()
            try:
                with speed.sampling():
                    w.setup(workdir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setup_wall.append(import_s + speed.clock() - start)
            setup_s.append(setup_wall[-1] * speed.scale())

        passes, walls = [], []
        begin = time.perf_counter()
        while True:
            outdir = Path(tempfile.mkdtemp(prefix="rep-", dir=workdir))
            if tracer is not None:
                tracer.rep_label = f"rep{len(passes)}"
                tracer.install()
            try:
                (cold_s, cold_k), (warm_s, warm_k), quality = w.rep(outdir, checks, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                shutil.rmtree(outdir)
            walls.append((cold_s, warm_s))
            passes.append(([t * cold_k for t in cold_s], [t * warm_k for t in warm_s]))
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = trace_metrics(tracer, workload, seed, walls, quality)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": pass_s([cold for cold, _ in passes]),
            "rerun_s": pass_s([warm for _, warm in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pct_of_dp": statistics.fmean(quality[k] for k in LEARNERS),
        }
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    for what in checks.failures:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    probed = (f" probe median {statistics.median(speed.calls) * 1e6:.0f} us"
              f" over {len(speed.calls)} calls;" if speed.calls else "")
    print(f"perfbench: {workload} seed {seed}: {checks.attempted} checks;{probed}"
          f" wall seconds of {len(setup_s)} set-ups {[round(t, 3) for t in setup_wall]};"
          f" cold/warm wall seconds of {len(walls)} repetitions"
          f" {[(round(sum(c), 3), round(sum(w), 3)) for c, w in walls]}", file=sys.stderr)
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def pass_s(reps) -> float:
    """Seconds of a typical pass: each part's median over the repetitions, summed.

    A part is one policy's episode for ``rollout`` and the whole eval for
    ``ladder``.
    """
    return sum(statistics.median(part) for part in zip(*reps))


def trace_metrics(tracer, workload, seed, passes, quality):
    groups = {}
    for s in tracer.spans:
        groups.setdefault(s["phase"].split(".")[0], []).append(s)
    setups = [g for k, g in groups.items() if k.startswith("setup")]
    reps = [g for k, g in groups.items() if k.startswith("rep")]
    # on a shared machine, traced minus untraced run_s is mostly timing
    # noise, so the overhead is what the wrappers add: calls times cost per call
    wrapper_s = spans.wrapper_cost_s()
    cold_spans = [s for s in reps[0] if s["phase"].endswith(".cold")]
    overhead = len(cold_spans) * wrapper_s
    metrics = spans.per_layer_metrics(setups, reps, overhead)
    metrics["qlearn.pct_of_dp"] = quality["qlearn"]
    metrics["cloning.pct_of_dp"] = quality["bc"]

    cold_s = sum(passes[0][0])
    covered = spans.totals(cold_spans)["trace.covered_s"]
    split = spans.layer_split(cold_spans)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "traced_run_s": [sum(c) for c, _ in passes],
        "wrapper_cost_s": wrapper_s,
        "trace_overhead_s": overhead,
        "cold_pass": {
            "run_s": cold_s,
            "covered_pct": 100.0 * covered / cold_s,
            "self_pct_by_layer": {k: 100.0 * v / cold_s for k, v in split.items()},
        },
        "pct_of_dp_by_policy": quality,
        "missing_spans": sorted(set(tracer.missing)),
        "metrics": metrics,
        "spans": tracer.spans,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"perfbench: spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "rollout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # one thread of control: numpy's BLAS, loaded with the program, would
    # otherwise start a thread per core and compete with the measured work
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

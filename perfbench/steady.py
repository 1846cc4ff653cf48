"""Steadiness check: run workloads repeatedly and summarise every metric.

    python3 perfbench/steady.py --workload all --seed 1 --runs 10
    python3 perfbench/steady.py --workload all --seed 101 --runs 10 --against A.json

Runs ``perfbench/run.py`` with tracing off, one process at a time, with
seeds ``seed``, ``seed + 1`` ... and BENCHMARK.json's ``run_seconds``, and
prints for each workload and end-to-end metric the sample count, median,
quartiles and the spread (quartile distance over the median) next to the
metric's bound.  A spread at or below a third of the bound is "steady".
``--against`` compares each median with the one in an earlier saved
summary and flags a change for the worse by more than the bound.  Every
summary is saved under ``.perfbench_out/``.  The exit code is 1 when a
spread is beyond its bound or a median is worse than before by more than it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def run_once(spec, workload, seed):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--against", type=Path, help="earlier summary to compare medians with")
    args = parser.parse_args(argv)

    declared = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    summary = {}
    failed = 0
    for workload in names if args.workload == "all" else [args.workload]:
        results = []
        for i in range(args.runs):
            seed = args.seed + i
            start = time.perf_counter()
            results.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s wall, "
                  f"correct={results[-1]['correct']}", file=sys.stderr)
        checks = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results)}
        print(f"\n{workload}: {args.runs} runs from seed {args.seed}, checks {checks}")
        print(f"  {'metric':28} {'unit':6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>7} {'bound':>6}  verdict")
        summary[workload] = {"checks": checks, "metrics": {}}
        for name, meta in declared.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = meta["unit"]
            summary[workload]["metrics"][name] = s
            bound = meta["bound"]
            verdict = ("steady" if s["spread"] <= bound / 3 else
                       "within bound" if s["spread"] <= bound else "TOO WIDE")
            failed += s["spread"] > bound
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = (s["median"] - before["median"]) / before["median"]
                if meta["better"] == "higher":
                    change = -change
                flag = change > bound
                failed += flag
                verdict += f"; median {change:+.1%} worse vs earlier" + (" FAIL" if flag else "")
            print(f"  {name:28} {meta['unit']:6} {s['n']:>3} {s['median']:>14.6g} {s['q1']:>14.6g}"
                  f" {s['q3']:>14.6g} {s['spread']:>7.3f} {bound:>6}  {verdict}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nsummary saved to {path.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

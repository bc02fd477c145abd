"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads acsa-long,...]

Runs are sequential, alternating workloads within each seed. For every
metric the table shows the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound from ``BENCHMARK.json``. ``--out`` keeps every
run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds) -> tuple[dict, float]:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    result["info"] = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, wall


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads.split(",")}
    for seed in parse_seeds(args.seeds):
        for w in runs:
            result, wall = run_once(bench["command"], w, seed, args.seconds)
            result["seed"], result["wall_s"] = seed, wall
            runs[w].append(result)
            print(f"{w:18s} seed {seed:5d} correct {result['correct']} "
                  f"attempted {result['attempted']:4d} failed {result['failed']} "
                  f"wall {wall:5.1f}s", file=sys.stderr, flush=True)

    summary = {}
    for w, results in runs.items():
        summary[w] = {}
        print(f"\n{w}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed share: "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}")
        print(f"  {'metric':32s}{'median':>14s}{'q1':>14s}{'q3':>14s}{'spread':>9s}{'bound':>7s}")
        for name in results[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in results])
            summary[w][name] = s
            bound = bounds.get(name)
            shown = "" if bound is None else f"{bound:7.2f}"
            print(f"  {name:32s}{s['median']:14.5g}{s['q1']:14.5g}{s['q3']:14.5g}"
                  f"{s['spread']:9.4f}{shown}")
        print("  unscaled (host speed not divided out):")
        for name in results[0]["info"]["unscaled"]:
            s = summarise([r["info"]["unscaled"][name] for r in results])
            summary[w]["unscaled." + name] = s
            print(f"  {name:32s}{s['median']:14.5g}{s['q1']:14.5g}{s['q3']:14.5g}"
                  f"{s['spread']:9.4f}")
        for kind in results[0]["info"]["host_probe_ms"]:
            s = summarise([r["info"]["host_probe_ms"][kind] for r in results])
            summary[w][f"host.{kind}_probe_ms"] = s
            print(f"  {'host ' + kind + ' probe ms':32s}{s['median']:14.5g}{s['q1']:14.5g}"
                  f"{s['q3']:14.5g}{s['spread']:9.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

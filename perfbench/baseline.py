"""Run every workload on several seeds and write a BENCH_*.json summary.

    python3 perfbench/baseline.py --out perfbench/BENCH_seed.json

Each workload of BENCHMARK.json runs once on each of the seeds 1-10, one
``run.py`` invocation per seed.  For every end-to-end metric the summary holds the
values, their median and quartiles, and the spread (interquartile distance
over the median) that the bounds in BENCHMARK.json are checked against.  One
traced run per workload, on the first seed, adds the per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = json.loads(lines[-2][len("env: "):])
    return json.loads(lines[-1]), env


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values, units, failed, env = {}, {}, 0, None
        for seed in SEEDS:
            result, env = one_run(workload, seed, bench["run_seconds"], 0)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        env.pop("seed")
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  (bound {bound}, {spread / bound:.2f} of it)"
            print(f"  {workload} {name}: median {med:.4g} {units[name]}, "
                  f"spread {spread:.3f}{flag}", flush=True)
        traced, _ = one_run(workload, SEEDS[0], bench["run_seconds"], 1)
        failed += traced["failed"]
        print(f"  {workload} traced run: {len(traced['metrics'])} per-layer metrics, "
              f"overhead {traced['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
        summary["workloads"][workload] = {
            "failed": failed, "env": env, "metrics": stats,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()}}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

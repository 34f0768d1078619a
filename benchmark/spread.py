#!/usr/bin/env python3
"""Same-code steadiness of the benchmark, measured the way it is gated.

Runs the command of /BENCHMARK.json once per seed on every workload and
prints, per workload and end-to-end metric, the median over the seeds and the
spread (third minus first quartile of `statistics.quantiles(values, n=4)`, as
a share of the median) next to the metric's bound. Exits non-zero if a spread
other than that of setup_s exceeds its bound or a run is not correct.

    python3 benchmark/spread.py [--seeds 10] [--first-seed 1] [--seconds S]
                                [--workload NAME] [--trace]

Run it from the repository root. `--trace` sweeps the traced run instead and
prints the per-layer medians (no bounds).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
            ]
            run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            result = json.loads(run.stdout.strip().splitlines()[-1]) if run.returncode == 0 else None
            if not result or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed (exit {run.returncode})")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, seen in values.items():
            median = statistics.median(seen)
            line = f"{workload:<20} {name:<32} median {median:>14.4f}"
            if len(seen) >= 2 and median:
                q1, _, q3 = statistics.quantiles(seen, n=4)
                spread = (q3 - q1) / median
                line += f"  spread {100 * spread:6.2f}%"
                if name in bounds:
                    line += f"  bound {100 * bounds[name]:5.1f}%"
                    if name != "setup_s" and spread > bounds[name]:
                        line += "  EXCEEDS"
                        ok = False
                    elif spread > bounds[name] / 3:
                        line += "  (over a third of the bound)"
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train_1gpu serve_foldin --seeds 1-10

It runs ``run.py --trace 0`` once per workload and seed. For every
workload and end-to-end metric it prints the median, minimum and
maximum of the per-seed values and their spread: (Q3 − Q1) / median,
with the quartiles of ``statistics.quantiles(values, n=4)``. BENCHMARK.json bounds each
end-to-end metric; a steady benchmark keeps every spread but that of
``setup_s`` below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=900,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            for name, m in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.4f})"
            print(f"{workload:13s} {name:20s} median {statistics.median(vals):.6g} "
                  f"min {min(vals):.6g} max {max(vals):.6g} spread {spread:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

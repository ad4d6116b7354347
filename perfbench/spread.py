"""Run workloads over several seeds and report each metric's median and quartiles.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workload W ...] [--trace 0|1]

Runs are made one after another, each through `run.py`. For every metric
it prints the median, the first and third quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
distance between the quartiles as a share of the median. With `--trace 0`
it marks each end-to-end metric whose spread exceeds a third of its bound
in BENCHMARK.json. The per-run results are kept as JSON lines in `--log`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", type=Path, default=HERE / "runs" / "spread.jsonl")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.log.parent.mkdir(parents=True, exist_ok=True)

    steady = True
    for workload in args.workload or names:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     **result}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            mid = median(values)
            spread = (q3 - q1) / mid if mid else 0.0
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f" (over {bounds[name] / 3:.3f})"
                steady = False
            print(f"| {name} | {first['unit']} | {mid:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f}{flag} |")
    return 0 if steady else 3


if __name__ == "__main__":
    raise SystemExit(main())

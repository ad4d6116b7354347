"""Run one benchmark workload of `disents` and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 25 --trace 0

The workload runs in a fresh Python process with OPENBLAS_NUM_THREADS=1
and DISENTS_THREADS=2, against the package sources under `src/`. For
serve-large a separate process first makes the CSV and the checkpoint the
measured process serves. The measured process's standard output is passed
through; its last line is the JSON result. Inputs the run made are removed
when it ends; a traced run (`--trace 1`) leaves its spans in `--out`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0  # every process this run starts ends within this, or is killed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", DISENTS_THREADS="2")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(script: str, args: list[str], deadline: float) -> str:
    """Run a benchmark script to completion; its standard output, or exit on failure."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=child_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {script} did not finish within {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"error: {script} exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec_path = ROOT / "BENCHMARK.json"
    workloads = [w["name"] for w in json.loads(spec_path.read_text())["workloads"]]
    parser = argparse.ArgumentParser(description="Run one benchmark workload of disents.")
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=HERE / "runs",
                        help="where traces and the run's scratch inputs go")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "disents" / "__init__.py").is_file():
        print(f"error: no disents sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = args.out.resolve()
    work = out / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--seed", str(args.seed), "--size", args.size]
    try:
        if args.workload.startswith("serve"):
            run_child("generate.py", [*common, "--out", str(work / "inputs")], deadline)
        else:
            work.mkdir(parents=True)
        stdout = run_child("measure.py", [*common, "--workload", args.workload,
                                          "--seconds", str(args.seconds),
                                          "--trace", str(args.trace), "--work", str(work),
                                          "--out", str(out)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

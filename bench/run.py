"""specbound benchmark: one workload per call, measured in its own
single-threaded worker process.

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics of a traced run (spans are written to bench/out/).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-catalog", "spectrum-radial", "spectrum-wells")
#: setup-only worker starts per run; setup_s is the median over these and
#: the measuring worker's own start
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    for name in SINGLE_THREAD:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_worker(args, env, extra):
    """Start a worker; return it with the seconds from its start until it
    reported its first case ready."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready_s


def finish(proc) -> str:
    """Wait for a worker and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "specbound" / "__init__.py").is_file():
        print("bench: run from the root of a specbound checkout (no src/specbound)",
              file=sys.stderr)
        return 2
    env = worker_env(src)

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready_s = start_worker(args, env, ["--setup-only"])
                finish(proc)
                setup.append(ready_s)
        proc, ready_s = start_worker(args, env, [])
        setup.append(ready_s)
        raw = json.loads(finish(proc).strip().splitlines()[-1])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = raw["layers"]
        print("layer self-time shares: " + json.dumps(
            {k: round(v, 4) for k, v in raw["shares"].items()}))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "levels_per_s": {"value": raw["levels_per_s"], "unit": "1/s"},
            "case_s.p50": {"value": raw["case_s.p50"], "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    print(f"rounds: {raw['rounds']}, levels: {raw['levels']}, timed: {raw['timed_s']:.3f} s, "
          f"at the yardstick's reference speed: {raw['scaled_s']:.3f} s")
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

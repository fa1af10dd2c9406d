"""Steadiness check: run every workload in two sets of ten runs on one
commit and compare each end-to-end metric's spread and median with its
bound.

    python3 bench/steady.py

Run from the root of the checkout.  Each run uses its own seed, from 1 up;
runs of different workloads alternate so that slow drift of the machine
spreads over all of them.  For each set it prints the median and quartiles
of every metric and the quartile spread as a share of the median; the
spread passes when it stays within the metric's bound, and the target is a
third of the bound.  The second set's median must not be worse than the
first set's by more than the bound, and the share of failed cases must be
the same in every run.  All raw results are written to bench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, first, later) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return -change if metric["better"] == "higher" else change


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {name: [[] for _ in range(SETS)] for name in names}
    seed = 1
    for s in range(SETS):
        for _ in range(RUNS):
            for name in names:
                t0 = time.perf_counter()
                res = run_once(bench["command"], name, seed, bench["run_seconds"])
                res["seed"] = seed
                results[name][s].append(res)
                print(f"set {s + 1} {name} seed {seed}: {time.perf_counter() - t0:.1f} s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
                seed += 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(results, indent=1))

    ok = True
    for name in names:
        sets = results[name]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{name}: failed share {sorted(shares)}, correct {correct}")
        ok &= len(shares) == 1 and correct
        for m in metrics:
            row = []
            first_median = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                spread_ok = spread <= m["bound"]
                ok &= spread_ok
                cell = (f"set {s + 1}: median {med:.6g} [{q1:.6g}, {q3:.6g}] "
                        f"spread {spread:.3f}{'' if spread_ok else ' OVER'}")
                if first_median is None:
                    first_median = med
                else:
                    drift = worse_by(m, first_median, med)
                    drift_ok = drift <= m["bound"]
                    ok &= drift_ok
                    cell += f" worse by {drift:+.3f}{'' if drift_ok else ' OVER'}"
                row.append(cell)
            print(f"  {m['name']:<14} bound {m['bound']:<5} target {m['bound'] / 3:.3f}  "
                  + " | ".join(row))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

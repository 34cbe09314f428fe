#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

Run from the repository root:

    python3 perfbench/steady.py

Each set runs every workload once per seed (set 1 uses seeds 1-10, set 2
seeds 11-20), as the command in BENCHMARK.json with its run_seconds. For
every workload and end-to-end metric it prints each set's median and
quartiles and the spread (Q3 - Q1) / median. It flags a failed run, a
spread above the metric's bound and a second-set median that differs from
the first, either way, by more than the bound, and warns of a spread above
a third of the bound. Every run's JSON result is appended to
.perfbench_out/steady-runs.jsonl as it finishes. Exits 1 when anything is
flagged.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = 10  # runs per workload and set


def run_once(spec, workload, seed, seconds):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result, elapsed


def spread(values):
    """Median, quartiles and (Q3 - Q1) / median, quartiles as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    log = ROOT / ".perfbench_out" / "steady-runs.jsonl"
    log.parent.mkdir(exist_ok=True)

    values = {}  # (set, workload, metric) -> [value]
    flags, warnings = [], []
    for s in range(SETS):
        for i in range(SEEDS):
            seed = 1 + s * SEEDS + i
            for workload in workloads:
                result, elapsed = run_once(spec, workload, seed, spec["run_seconds"])
                with open(log, "a", encoding="utf-8") as f:
                    f.write(json.dumps({"set": s + 1, "workload": workload, "seed": seed,
                                        "wall_s": elapsed, "result": result}) + "\n")
                print(f"set {s + 1} {workload} seed {seed}: {elapsed:.1f} s, "
                      f"{'correct' if result and result['correct'] else 'FAILED'}", flush=True)
                if not (result and result["correct"]):
                    flags.append(f"{workload} seed {seed}: run failed or incorrect")
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault((s, workload, name), []).append(m["value"])

    print()
    for workload in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                vals = values.get((s, workload, name), [])
                if len(vals) < 2:
                    continue
                median, q1, q3, sp = spread(vals)
                medians.append(median)
                note = ""
                if sp > bound:
                    note = "  SPREAD ABOVE BOUND"
                    flags.append(f"{workload} {name} set {s + 1}: spread {sp:.3f} > {bound}")
                elif sp > bound / 3:
                    note = "  spread above bound/3"
                    warnings.append(f"{workload} {name} set {s + 1}: spread {sp:.3f} > {bound / 3:.3f}")
                print(f"{workload:8s} {name:15s} set {s + 1}: median {median:.6g} "
                      f"[Q1 {q1:.6g}, Q3 {q3:.6g}] spread {sp:.3f} (bound {bound}){note}")
            if len(medians) == SETS:
                drift = (medians[1] - medians[0]) / medians[0]
                note = "  SECOND SET DIFFERS BY MORE THAN BOUND" if abs(drift) > bound else ""
                if note:
                    flags.append(f"{workload} {name}: second median differs by {drift:+.3f}")
                print(f"{workload:8s} {name:15s} second vs first median: {drift:+.3f}{note}")
    print()
    for warning in warnings:
        print(f"WARN {warning}")
    for flag in flags:
        print(f"FLAG {flag}")
    print("steady" if not flags else f"{len(flags)} flags")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

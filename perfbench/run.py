#!/usr/bin/env python3
"""Benchmark of the waterline package: serve, train and offline workloads.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The package is imported from ./src, never from an installed copy. The run
builds its inputs from --seed, measures for about --seconds, checks every
output, prints a human-readable report and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
its per-layer metrics, taken from a traced run whose spans are written to
.perfbench_out/trace-<workload>.jsonl, one JSON array
[name, start, end, parent index, request id] per line.
"""

import os
import sys

# Pin BLAS/OpenMP before numpy loads: with a free thread count the run would
# measure the scheduler (OpenBLAS spinning beside other busy processes).
THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-ups timed per run: one before measuring, the rest spread over the run
# (the host's speed drifts over seconds to minutes), topped up after it. Each
# is normalized to host speed by reference-kernel readings on either side.
SETUP_REPEATS = 7
OVERHEAD_PAIRS = 3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_package():
    if not (SRC / "waterline" / "__init__.py").is_file():
        fail(f"no waterline package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import waterline

    if Path(waterline.__file__).resolve().parent != SRC / "waterline":
        fail(f"imported waterline from {waterline.__file__}, not from {SRC}")
    return waterline


def header(args, waterline) -> list:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"waterline {waterline.__version__} benchmark: workload={args.workload} "
        f"seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"threads: BLAS/OpenMP pinned to {THREADS} (nproc {os.cpu_count()})",
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
        f"python {sys.version.split()[0]}",
    ]


def untraced(workload, args, workdir, spec):
    from hostspeed import reference, scale

    workload.prepare()
    setups = []  # (normalized, raw seconds)
    last = 0.0

    def set_up():
        nonlocal last
        before = reference()
        t0 = time.perf_counter()
        state = workload.setup(args.seed, workdir)
        raw = time.perf_counter() - t0
        setups.append((raw * scale(before, reference()), raw))
        last = time.perf_counter()
        return state

    def between():
        due = time.perf_counter() - last >= args.seconds / SETUP_REPEATS
        if due and len(setups) < SETUP_REPEATS:
            set_up()

    result = workload.measure(set_up(), args.seconds, between=between)
    during = len(setups)
    while len(setups) < SETUP_REPEATS:
        set_up()
    result.metrics["setup_s"] = (statistics.median(n for n, _ in setups), "s")
    result.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    result.lines.append(
        f"setup: median of {SETUP_REPEATS} setups, {during} of them before or during measuring, "
        f"normalized to host speed; raw median {statistics.median(r for _, r in setups):.4f} s"
    )
    return result, result.metrics


def traced(workload, args, workdir, spec):
    from tracing import Tracer, instrument, layer_metrics

    workload.prepare()
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("harness.run"):
            with tracer.span("harness.setup"):
                state = workload.setup(args.seed, workdir)
            result = workload.measure(state, args.seconds, tracer)
    metrics = layer_metrics(tracer)
    metrics.update(result.queue)
    for m in spec["per_layer"]:  # a layer the workload bypasses reads 0
        metrics.setdefault(m["name"], (0.0, m["unit"]))

    # Tracing cost: the same fixed unit of work, alternately plain and traced.
    plain, spanned = [], []
    for _ in range(OVERHEAD_PAIRS):
        t0 = time.perf_counter()
        workload.unit(state)
        plain.append(time.perf_counter() - t0)
        with instrument(Tracer()):
            t0 = time.perf_counter()
            workload.unit(state)
            spanned.append(time.perf_counter() - t0)
    metrics["trace.overhead_frac"] = (statistics.median(spanned) / statistics.median(plain), "ratio")

    wall = tracer.spans[0][2] - tracer.spans[0][1]
    accounted = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    metrics["trace.wall_s"] = (wall, "s")
    path = OUT / f"trace-{args.workload}.jsonl"
    tracer.write(path)
    result.lines += [
        f"traced wall {wall:.4f} s; layer self times sum to {accounted:.4f} s",
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}",
        "network.macs and network.weight_bytes are computed from tensor sizes "
        "(affine multiply-adds x rows; bytes of all tensors per forward call)",
    ]
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    waterline = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    for line in header(args, waterline):
        print(line, flush=True)

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, measured = (traced if args.trace else untraced)(workload, args, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = result.failed / result.attempted if result.attempted else 1.0
    measured.setdefault("failed_frac", (failed_frac, "fraction"))
    for line in result.lines:
        print(line)
    print(f"operations attempted {result.attempted}, failed {result.failed}")
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name} = {value:.6g} {unit}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], (None,))[0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    missing = [name for name, v in metrics.items() if v["value"] is None]
    correct = result.failed == 0 and result.attempted > 0 and not missing
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

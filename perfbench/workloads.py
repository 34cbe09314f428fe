"""The benchmark's three workloads, run against the package's public functions.

Every workload reports the end-to-end metrics of BENCHMARK.json, read in its
own unit of work:

  serve    a camera frame with 1-3 chart queries. latency_* is frame latency
           at the reference arrival rate, timed from the frame's due time;
           queries_per_s is the closed-loop saturating pass. The report adds
           latency at higher fixed rates and max_rate_fps, the highest rate
           whose p90 meets the limit with no growing backlog.
  train    one optimizer step (batch of 256). latency_* is the time between
           consecutive steps (the p99, printed only, holds the epoch-end
           validation); queries_per_s is training samples (visible chart
           queries) per second.
  offline  one job: gen --verify, predict, eval and calibrate through the
           CLI. latency_* is job latency; queries_per_s is the chart queries
           a job processes per second.

val_median_px and val_p90_px are the pixel errors of the model the workload
serves, trains or evaluates, on held-out frames.

Every gated timing is normalized to host speed, round by round (see
hostspeed.py); the report prints the raw figures beside them.

measure(state, seconds, tracer, between) calls between() at the start of each
round or job, outside every timed region; the untraced run times its
set-ups there, so that they sample the whole run."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import waterline.cli as wl_cli
import waterline.data as wl_data
import waterline.features as wl_features
import waterline.metrics as wl_metrics
import waterline.network as wl_network
import waterline.training as wl_training
from waterline.geometry import CameraModel

import checks
import hostspeed
import tracing

CAMERA = CameraModel.default()

# The served model: a short fixed-seed training run, so every workload seed
# serves the same weights and only the frames vary with the seed.
CHECKPOINT_FRAMES = 2000
CHECKPOINT_EPOCHS = 8
CHECKPOINT_SEED = 7


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # end-to-end name -> (value, unit)
    queue: dict = field(default_factory=dict)  # serve harness numbers, per-layer
    lines: list = field(default_factory=list)  # human-readable report


def ms(seconds) -> float:
    return float(seconds) * 1e3


def pixel_error_stats(params, features, targets) -> wl_metrics.ErrorStats:
    pred, _ = wl_network.forward(params, features, training=False)
    return wl_metrics.error_stats([
        wl_metrics.pixel_error(p, t, CAMERA.image_w, CAMERA.image_h)
        for p, t in zip(pred, targets)
    ])


@functools.cache
def served_params():
    """The served model, trained once per process. Workloads that serve it
    call this from prepare(), before their timed set-ups and outside the
    traced run, so that neither setup_s nor the per-layer numbers hold it."""
    records = wl_data.generate(
        CAMERA, wl_data.GenConfig(n_samples=CHECKPOINT_FRAMES, seed=CHECKPOINT_SEED)
    )
    examples = wl_data.visible_examples(records)
    config = wl_training.TrainConfig(
        max_epochs=CHECKPOINT_EPOCHS, patience=CHECKPOINT_EPOCHS, seed=CHECKPOINT_SEED
    )
    params, _ = wl_training.train(examples, examples, config)
    return params


def serve_frame(params, record):
    """The online per-frame path: features -> eval forward -> decoder queries."""
    feats = np.stack([wl_features.build_features(q, record.imu) for q in record.queries])
    pred, _ = wl_network.forward(params, feats, training=False)
    decoder_queries = [
        wl_features.build_decoder_query(q, (float(pred[i, 0]), float(pred[i, 1])))
        for i, q in enumerate(record.queries)
    ]
    return pred, decoder_queries


class Serve:
    """Open-loop Poisson frame arrivals at fixed rates and closed-loop
    saturating chunks; a single worker in the benchmark process."""

    name = "serve"
    POOL_FRAMES = 2000
    # Reference arrival rate for latency_*, in frames/s. It is an assumption:
    # neither the paper nor the package states an arrival rate or a latency
    # budget. A frame costs about 0.1 ms on one core (2-vCPU VM, one BLAS
    # thread), so this rate keeps the worker about 10 % busy and latency_*
    # reads the per-frame cost plus light queueing.
    REF_RATE = 1000.0
    # Frame latency limit on the p90, for max_rate_fps; also an assumption,
    # about ten times the per-frame cost. The tail is read at p90 because
    # host CPU steal on a shared machine stalls the worker for 1-6 ms several
    # times a second: at 2000 frames/s, p99 ranged 1.2-3.1 ms over six runs
    # of the same code on a 2-vCPU VM, p90 0.27-0.31 ms.
    LIMIT_S = 1e-3
    SWEEP_STEP = 2000.0  # frames/s: the rates above the reference are its multiples
    CHUNK = 250  # closed-loop frames per round
    BLOCK = 100  # reference-rate frames per round
    ROUND_SHARE = 0.85  # of the run; the rate sweep takes the rest
    POINT_FRAMES = 3000  # frames per rate above the reference
    WARMUP = 200

    def prepare(self) -> None:
        served_params()

    def setup(self, seed: int, workdir: Path):
        frames = wl_data.generate(CAMERA, wl_data.GenConfig(n_samples=self.POOL_FRAMES, seed=seed))
        checkpoint = workdir / "checkpoint.json"
        wl_network.save_checkpoint(served_params(), checkpoint)
        params = wl_network.load_checkpoint(checkpoint)
        return {"seed": seed, "frames": frames, "params": params, "served": 0}

    def _serve(self, state, tracer, outputs) -> None:
        frames = state["frames"]
        k = state["served"] % len(frames)
        state["served"] += 1
        if tracer is not None:
            tracer.request = f"frame{state['served']}"
        try:
            pred, decoder_queries = serve_frame(state["params"], frames[k])
        except Exception as exc:  # a failed frame is counted, the run goes on
            print(f"serve: frame {k} raised {exc!r}", file=sys.stderr)
            outputs.append((k, None, []))
            return
        outputs.append((k, pred, decoder_queries))

    def _closed_loop(self, state, tracer, settle):
        """Serve a chunk of CHUNK frames back to back and check its outputs.
        Returns (frames, queries, busy seconds)."""
        frames = state["frames"]
        first = state["served"]
        n_queries = sum(len(frames[(first + i) % len(frames)].queries) for i in range(self.CHUNK))
        outputs = []
        t0 = time.perf_counter()
        for _ in range(self.CHUNK):
            self._serve(state, tracer, outputs)
        busy = time.perf_counter() - t0
        settle(outputs)
        return self.CHUNK, n_queries, busy

    def _open_loop(self, state, rate, n, rng, tracer, settle):
        """Frames due at seeded Poisson times; the worker takes each at
        max(due, previous done) and spins while idle. Returns the due, start
        and done times, the generator's lateness and whether the backlog grew."""
        due = np.cumsum(rng.exponential(1.0 / rate, n)) + time.perf_counter() + 2e-3
        start = np.empty(n)
        done = np.empty(n)
        outputs = []
        gen_late = 0.0
        perf_counter = time.perf_counter
        for i in range(n):
            d = due[i]
            now = perf_counter()
            if now < d:
                while now < d:
                    now = perf_counter()
                gen_late = max(gen_late, now - d)
            start[i] = now
            self._serve(state, tracer, outputs)
            done[i] = perf_counter()
        settle(outputs)
        # Frames due but not started when each frame starts, while frames still
        # arrive. A queue that keeps up empties again after every stall; one
        # that does not never does.
        backlog = np.searchsorted(due, start, side="right") - np.arange(n) - 1
        tail = slice(n - max(n // 4, 1), n)
        arriving = backlog[tail][start[tail] <= due[-1]]
        growing = arriving.size == 0 or arriving.min() > 0
        return due, start, done, gen_late, growing

    def _rate_point(self, rate, runs) -> dict:
        """Latency percentiles over the frames of one or more open-loop runs."""
        due, start, done = (np.concatenate(a) for a in zip(*(r[:3] for r in runs)))
        p50, p90, p95, p99 = np.percentile(done - due, (50, 90, 95, 99))
        growing = any(r[4] for r in runs)
        return {
            "rate": rate,
            "n": len(due),
            "p50_s": p50,
            "p90_s": p90,
            "p95_s": p95,
            "p99_s": p99,
            "wait_p99_s": float(np.percentile(start - due, 99)),
            "service_p50_s": float(np.percentile(done - start, 50)),
            "gen_late_s": max(r[3] for r in runs),
            "growing": growing,
            "ok": p90 <= self.LIMIT_S and not growing,
        }

    def max_rate(self, points) -> float:
        """The last rate meeting the limit, interpolated toward the failing
        rate after it; below the reference rate, scaled down by its p90."""
        *passed, failing = points
        if not passed:
            return failing["rate"] * min(1.0, self.LIMIT_S / failing["p90_s"])
        lo = passed[-1]
        if failing["p90_s"] <= self.LIMIT_S:  # failed on backlog growth alone
            return lo["rate"]
        frac = (self.LIMIT_S - lo["p90_s"]) / (failing["p90_s"] - lo["p90_s"])
        return lo["rate"] + (failing["rate"] - lo["rate"]) * frac

    def _check(self, state, outputs, reference) -> int:
        frames = state["frames"]
        return sum(
            not checks.serve_frame_ok(frames[k].queries, pred, dqs, reference[k])
            for k, pred, dqs in outputs
        )

    def _reference(self, state):
        """Whole-set eval-mode forward over every query of the pool."""
        frames = state["frames"]
        feats = np.stack([
            wl_features.build_features(q, r.imu) for r in frames for q in r.queries
        ])
        pred, _ = wl_network.forward(state["params"], feats, training=False)
        reference, row = [], 0
        for record in frames:
            reference.append(pred[row : row + len(record.queries)])
            row += len(record.queries)
        return reference

    def measure(self, state, seconds: float, tracer=None, between=lambda: None) -> Result:
        rng = np.random.default_rng((state["seed"], 1))
        reference = self._reference(state)
        attempted = failed = 0

        def settle(outputs):
            nonlocal attempted, failed
            attempted += len(outputs)
            failed += self._check(state, outputs, reference)
            outputs.clear()

        outputs = []
        for _ in range(self.WARMUP):
            self._serve(state, tracer, outputs)
        settle(outputs)

        # Rounds of one closed-loop chunk and one reference-rate block, each
        # short beside the host's fast and slow spells and normalized by the
        # reference kernel timed on either side of it.
        chunks, ref_runs = [], []  # (frames, queries, busy, scale); (run, scale)
        deadline = time.perf_counter() + self.ROUND_SHARE * seconds
        while len(ref_runs) < 5 or time.perf_counter() < deadline:
            between()
            r0 = hostspeed.reference()
            chunk = self._closed_loop(state, tracer, settle)
            r1 = hostspeed.reference()
            run = self._open_loop(state, self.REF_RATE, self.BLOCK, rng, tracer, settle)
            r2 = hostspeed.reference()
            chunks.append((*chunk, hostspeed.scale(r0, r1)))
            ref_runs.append((run, hostspeed.scale(r1, r2)))
        chunks = np.array(chunks)
        busy = chunks[:, 2].sum()
        frames_per_s = chunks[:, 0].sum() / busy
        queries_per_s = chunks[:, 1].sum() / (chunks[:, 2] * chunks[:, 3]).sum()
        latency = np.concatenate([(r[2] - r[0]) * k for r, k in ref_runs])
        p50, p90 = np.percentile(latency, (50, 90))

        points = [self._rate_point(self.REF_RATE, [r for r, _ in ref_runs])]
        while points[-1]["ok"]:
            rate = self.SWEEP_STEP * len(points)
            run = self._open_loop(state, rate, self.POINT_FRAMES, rng, tracer, settle)
            if not self._rate_point(rate, [run])["ok"]:  # a rate fails if a second try fails too
                run = self._open_loop(state, rate, self.POINT_FRAMES, rng, tracer, settle)
            points.append(self._rate_point(rate, [run]))

        frames = state["frames"]
        visible = [
            (q, r.imu, lb) for r in frames for q, lb in zip(r.queries, r.labels) if lb.visible
        ]
        val = pixel_error_stats(
            state["params"],
            np.stack([wl_features.build_features(q, imu) for q, imu, _ in visible]),
            [wl_features.waterline_target(lb) for _, _, lb in visible],
        )
        ref = points[0]
        max_rate = self.max_rate(points)
        lines = [
            f"checks: decoder query = [d/1000, bearing/180, pred], pred within "
            f"{checks.PREDICTION_TOL:g} of a whole-set eval forward",
            f"latency from the due time; max_rate_fps limit: p90 <= {ms(self.LIMIT_S):g} ms",
            f"{len(ref_runs)} rounds of {self.CHUNK} closed-loop frames and {self.BLOCK} frames "
            f"at {self.REF_RATE:.0f} frames/s; normalized to host speed: latency p50 "
            f"{ms(p50):.4f} p90 {ms(p90):.4f} ms (n={latency.size}), {queries_per_s:.1f} "
            f"queries/s; raw: {chunks[:, 1].sum() / busy:.1f} queries/s and the "
            f"{self.REF_RATE:.0f} frames/s row below",
        ]
        for p in points:
            lines.append(
                f"rate {p['rate']:8.0f} frames/s  n={p['n']:6d}  p50={ms(p['p50_s']):.4f}"
                f"  p90={ms(p['p90_s']):.4f}  p95={ms(p['p95_s']):.4f}  p99={ms(p['p99_s']):.4f} ms"
                f"  backlog_growing={p['growing']}  {'meets' if p['ok'] else 'misses'} the limit"
            )
        lines.append(f"closed loop: {int(chunks[:, 0].sum())} frames, {int(chunks[:, 1].sum())} queries in {busy:.3f} s")
        return Result(
            attempted=attempted,
            failed=failed,
            metrics={
                "latency_p50_ms": (ms(p50), "ms"),
                "latency_p90_ms": (ms(p90), "ms"),
                "latency_p99_ms": (ms(ref["p99_s"]), "ms"),
                "max_rate_fps": (max_rate, "frames/s"),
                "queries_per_s": (queries_per_s, "queries/s"),
                "val_median_px": (val.median_px, "px"),
                "val_p90_px": (val.p90_px, "px"),
                "frames_per_s": (frames_per_s, "frames/s"),
            },
            queue={
                "queue.wait_ms_p99": (ms(ref["wait_p99_s"]), "ms"),
                "queue.service_ms_p50": (ms(ref["service_p50_s"]), "ms"),
                "queue.gen_late_ms_max": (ms(max(p["gen_late_s"] for p in points)), "ms"),
            },
            lines=lines,
        )

    def unit(self, state) -> None:
        outputs = []
        for _ in range(1000):
            self._serve(state, None, outputs)


class StepTimer:
    """Hook run as each AdamW step returns. A step is timed from the end of
    the previous one, so the first step of an epoch holds the previous
    epoch's validation. After every `every` steps the reference kernel is
    ("arrays") read, outside the step times, and the steps between two readings are
    normalized by them. A job's first step and its last steps after the last
    reading are not kept. steps holds (raw seconds, scale, step index in the
    job)."""

    def __init__(self, every: int):
        self.every = every
        self.steps = []

    def start(self) -> None:
        """Called before each job."""
        self.index = -1
        self.last = None
        self.reading = None
        self.group = []

    def __call__(self) -> None:
        now = time.perf_counter()
        self.index += 1
        if self.last is not None:
            self.group.append((now - self.last, self.index))
        if self.last is None or len(self.group) == self.every:
            reading = hostspeed.reference("arrays")
            if self.reading is not None:
                scale = hostspeed.scale(self.reading, reading)
                self.steps += [(t, scale, i) for t, i in self.group]
            self.reading = reading
            self.group = []
        self.last = time.perf_counter()


class Train:
    """The full recipe (batch 256, dropout 0.2, AdamW, cosine) for a fixed
    number of epochs, repeated as independent jobs."""

    name = "train"
    FRAMES = 8000
    EPOCHS = 10  # per job; patience equals it, so every job stops on max-epochs
    VAL_JOBS = 3  # val_* is the median over the first jobs (init seeds 0, 1, 2)
    REF_EVERY = 4  # optimizer steps between two reference-kernel readings

    def prepare(self) -> None:
        pass

    def setup(self, seed: int, workdir: Path):
        records = wl_data.generate(CAMERA, wl_data.GenConfig(n_samples=self.FRAMES, seed=seed))
        parts = wl_data.split(records, wl_cli.DEFAULT_VAL_RATIO, seed)
        return {
            "train": wl_data.visible_examples(parts.train),
            "val": wl_data.visible_examples(parts.val),
            "train_frames": len(parts.train),
        }

    def _job(self, state, job: int, epochs: int, tracer, on_step=None):
        config = wl_training.TrainConfig(max_epochs=epochs, patience=epochs, seed=job)
        if tracer is not None:
            tracer.request = f"job{job}"
        with tracing.after_calls("waterline.training", "adamw_step", on_step):
            params, history = wl_training.train(state["train"], state["val"], config)
        return params, history

    def measure(self, state, seconds: float, tracer=None, between=lambda: None) -> Result:
        n_train = len(state["train"][0])
        batch = wl_training.TrainConfig().batch_size
        sizes = [min(batch, n_train - i) for i in range(0, n_train, batch)]
        if sizes[-1] < 2:  # train() drops a trailing singleton batch
            sizes.pop()
        timer = StepTimer(self.REF_EVERY) if tracer is None else None
        medians, p90s = [], []
        samples, busy = 0, 0.0
        failed = 0
        deadline = time.perf_counter() + seconds
        job = 0
        while job < self.VAL_JOBS or time.perf_counter() < deadline:
            between()
            t0 = time.perf_counter()
            try:
                if timer is not None:
                    timer.start()
                params, history = self._job(state, job, self.EPOCHS, tracer, timer)
            except Exception as exc:  # a failed job is counted, the run goes on
                print(f"train: job {job} raised {exc!r}", file=sys.stderr)
                failed += 1
                job += 1
                continue
            elapsed = time.perf_counter() - t0
            failed += not checks.train_job_ok(history, self.EPOCHS)
            samples += n_train * self.EPOCHS
            busy += elapsed
            if job < self.VAL_JOBS:
                val = pixel_error_stats(params, *state["val"])
                medians.append(val.median_px)
                p90s.append(val.p90_px)
            job += 1
        samples_per_s = samples / busy if busy else math.nan
        metrics = {
            "val_median_px": (statistics.median(medians) if medians else math.nan, "px"),
            "val_p90_px": (statistics.median(p90s) if p90s else math.nan, "px"),
            "train_samples_per_s": (samples_per_s, "samples/s"),
        }
        lines = [
            f"{job} jobs of {self.EPOCHS} epochs on {n_train} training samples "
            f"({state['train_frames']} frames), {len(state['val'][0])} validation samples; "
            f"val_* is the median over the first {self.VAL_JOBS} jobs",
            f"train_samples_per_s over whole jobs (raw): {samples_per_s:.1f}",
        ]
        if timer is not None and timer.steps:
            raw, scale, index = np.array(timer.steps).T
            steps = raw * scale
            step_samples = np.array(sizes)[index.astype(int) % len(sizes)].sum()
            metrics["queries_per_s"] = (step_samples / steps.sum(), "queries/s")
            metrics["latency_p50_ms"] = (ms(np.percentile(steps, 50)), "ms")
            metrics["latency_p90_ms"] = (ms(np.percentile(steps, 90)), "ms")
            metrics["latency_p99_ms"] = (ms(np.percentile(steps, 99)), "ms")
            lines.append(
                f"{steps.size} optimizer steps timed, normalized to host speed: p50 "
                f"{ms(np.percentile(steps, 50)):.4f} p90 {ms(np.percentile(steps, 90)):.4f} ms, "
                f"{step_samples / steps.sum():.1f} samples/s; raw: p50 "
                f"{ms(np.percentile(raw, 50)):.4f} p90 {ms(np.percentile(raw, 90)):.4f} ms, "
                f"{step_samples / raw.sum():.1f} samples/s"
            )
        return Result(attempted=job, failed=failed, metrics=metrics, lines=lines)

    def unit(self, state) -> None:
        self._job(state, 0, 2, None)


def detector_predictions(path: Path, n: int, shift: float, seed: int) -> None:
    """A mock detector's per-query output with logits inflated by `shift`,
    built like scripts/calibration_demo.py."""
    rng = np.random.default_rng(seed)
    center = math.log(0.9 / 0.1)  # logit of the 0.90 visibility threshold
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            visible = bool(rng.random() < 0.55)
            if visible:
                gt_box = {"c_x": float(rng.uniform(0.25, 0.75)),
                          "c_y": float(rng.uniform(0.25, 0.75)), "w": 0.2, "h": 0.2}
                box = {"c_x": gt_box["c_x"] + float(rng.normal(0, 0.02)),
                       "c_y": gt_box["c_y"] + float(rng.normal(0, 0.02)), "w": 0.2, "h": 0.2}
                logit = center + 2.5 + float(rng.normal(0, 1.2))
            else:
                gt_box = None
                box = {"c_x": float(rng.uniform(0.25, 0.75)),
                       "c_y": float(rng.uniform(0.25, 0.75)), "w": 0.2, "h": 0.2}
                logit = center - 2.5 + float(rng.normal(0, 1.2))
            row = {"schema": 1, "sample_id": f"{i:05d}", "query_index": 0,
                   "logit": logit + shift, "box": box, "gt_visible": visible, "gt_box": gt_box}
            f.write(json.dumps(row) + "\n")


class Offline:
    """In-process CLI jobs: gen --verify -> predict --emit-features -> eval ->
    calibrate, the last on a detector file with an injected logit shift."""

    name = "offline"
    FRAMES = 500
    DETECTOR_ROWS = 1250
    SHIFT = 0.5
    STEP = 0.25  # the calibrate default grid step
    MIN_JOBS = 5

    def prepare(self) -> None:
        served_params()

    def setup(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        gen_config = workdir / "gen.json"
        gen_config.write_text(json.dumps({
            "n_samples": self.FRAMES, "queries_per_sample": [1, 3],
            "distance_range_m": [5.0, 1000.0], "seed": seed,
        }))
        checkpoint = workdir / "checkpoint.json"
        wl_network.save_checkpoint(served_params(), checkpoint)
        detector = workdir / "detector.jsonl"
        detector_predictions(detector, self.DETECTOR_ROWS, self.SHIFT, seed)
        return {"dir": workdir, "gen": gen_config, "checkpoint": checkpoint, "detector": detector}

    def job(self, state):
        """One offline job. Returns the stdout of each command (None when a
        command exits with another code than 0) and the job's raw and
        normalized seconds: each command is timed alone and scaled by
        reference-kernel readings on either side of it."""
        d = state["dir"]
        dataset = d / "dataset.jsonl"
        runs = [
            ["gen", "--config", str(state["gen"]), "--out", str(dataset), "--verify"],
            ["predict", "--dataset", str(dataset), "--checkpoint", str(state["checkpoint"]),
             "--out", str(d / "predictions.jsonl"), "--emit-features"],
            ["eval", "--dataset", str(dataset), "--checkpoint", str(state["checkpoint"]),
             "--out", str(d / "eval")],
            ["calibrate", "--dataset", str(state["detector"]), "--out", str(d / "calibration")],
        ]
        outputs = []
        raw = normalized = 0.0
        before = hostspeed.reference()
        for argv in runs:
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = wl_cli.main(argv)
            elapsed = time.perf_counter() - t0
            if code != 0:
                print(f"offline: {argv[0]} exited {code}", file=sys.stderr)
                return None, raw, normalized
            outputs.append(out.getvalue())
            after = hostspeed.reference()
            raw += elapsed
            normalized += elapsed * hostspeed.scale(before, after)
            before = after
        return outputs, raw, normalized

    def _verify(self, state, outputs):
        """Checks of one finished job, outside its timing."""
        d = state["dir"]
        n_queries = checks.gen_counts(outputs[0])
        if n_queries is None:
            return False, 0, None
        with open(d / "predictions.jsonl", encoding="utf-8") as f:
            rows = sum(1 for _ in f)
        best = json.loads((d / "calibration" / "best_bias.json").read_text())
        stats = json.loads((d / "eval" / "error_stats.json").read_text())
        ok = checks.predict_ok(outputs[1], rows, n_queries) and checks.calibration_ok(
            best["best_bias"], self.SHIFT, self.STEP
        )
        return ok, n_queries, stats

    def measure(self, state, seconds: float, tracer=None, between=lambda: None) -> Result:
        jobs = []  # (normalized, raw seconds, chart queries) of each job that passed its checks
        failed = attempted = 0
        stats = None
        deadline = time.perf_counter() + seconds
        while attempted < self.MIN_JOBS or time.perf_counter() < deadline:
            between()
            attempted += 1
            if tracer is not None:
                tracer.request = f"job{attempted}"
            outputs, raw, normalized = self.job(state)
            ok, n_queries, job_stats = (
                self._verify(state, outputs) if outputs is not None else (False, 0, None)
            )
            if not ok:
                failed += 1
                continue
            stats = job_stats
            jobs.append((normalized, raw, n_queries))
        lines = [f"{attempted} jobs of {self.FRAMES} frames and {self.DETECTOR_ROWS} detector rows"]
        metrics = {}
        if jobs:
            normalized, raw, queries = np.array(jobs).T
            metrics = {
                "latency_p50_ms": (ms(np.percentile(normalized, 50)), "ms"),
                "latency_p90_ms": (ms(np.percentile(normalized, 90)), "ms"),
                "latency_p99_ms": (ms(np.percentile(normalized, 99)), "ms"),
                "queries_per_s": (queries.sum() / normalized.sum(), "queries/s"),
                "val_median_px": (stats["median_px"], "px"),
                "val_p90_px": (stats["p90_px"], "px"),
            }
            lines.append(
                f"chart queries per job: {n_queries}; {len(jobs)} jobs normalized to host speed: "
                f"p50 {ms(np.percentile(normalized, 50)):.2f} p90 {ms(np.percentile(normalized, 90)):.2f} ms, "
                f"{queries.sum() / normalized.sum():.1f} queries/s; raw: p50 "
                f"{ms(np.percentile(raw, 50)):.2f} p90 {ms(np.percentile(raw, 90)):.2f} ms, "
                f"{queries.sum() / raw.sum():.1f} queries/s"
            )
        return Result(attempted=attempted, failed=failed, metrics=metrics, lines=lines)

    def unit(self, state) -> None:
        self.job(state)


WORKLOADS = {w.name: w for w in (Serve, Train, Offline)}

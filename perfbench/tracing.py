"""Span tracing of the waterline layers, done from outside the package.

`instrument(tracer)` replaces the public functions of each layer module, in
every `waterline` namespace that imported them, with wrappers that record a
span (name, start, end, parent, request id) and the layer's counters. The
originals are restored when the context exits, so nothing under `src/`
changes. `after_calls` uses the same replacement to run a hook as each call
of one function returns; the untraced train run times its AdamW steps with
it, and is otherwise, like every untraced run, the package unmodified.

A layer is the part of a span name before the first dot. Its self time is
the summed duration of its spans minus the time their child spans cover;
the self times of all layers, the harness included, add up to the wall time
of the root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("geometry", "features", "network", "training", "metrics", "data", "cli", "harness")


class Tracer:
    """In-memory span and counter store; written out once, when a run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.stack = []
        self.counts = defaultdict(float)
        self.request = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def totals(self) -> tuple[dict, dict]:
        """Per span name: (summed duration, summed self time), in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        duration = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            duration[name] += end - start
            self_time[name] += end - start - child[i]
        return duration, self_time

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps([name, start, end, parent, request]))
                f.write("\n")


def _network_forward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(params, x, training=False, *args, **kwargs):
        if training:
            # train() seeds dropout with (seed, epoch, batch): the step's request id
            seed = kwargs.get("dropout_seed", args[1] if len(args) > 1 else None)
            if isinstance(seed, tuple) and len(seed) == 3:
                tracer.request = f"epoch{seed[1]}/batch{seed[2]}"
            name = "network.forward_train"
        else:
            name = "network.forward_eval"
        index = tracer.begin(name)
        try:
            return fn(params, x, training, *args, **kwargs)
        finally:
            tracer.end(index)
            rows = len(x)
            counts = tracer.counts
            counts[name + "_calls"] += 1
            counts[name + "_rows"] += rows
            # Affine multiply-adds and tensor bytes read, from the tensor shapes.
            counts["network.macs"] += rows * sum(w.shape[0] * w.shape[1] for w in params.w)
            counts["network.weight_bytes"] += sum(
                a.nbytes
                for group in (params.w, params.b, params.bn_gain, params.bn_bias,
                              params.bn_mean, params.bn_var)
                for a in group
            )

    return wrapper


def _spanned(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            tracer.counts[name + "_calls"] += 1
            if after is not None:
                after(args, kwargs)

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + "_calls"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _snapshot(directory: Path) -> dict:
    """(size, mtime) of every file under `directory`."""
    out = {}
    for path in directory.rglob("*"):
        if path.is_file():
            stat = path.stat()
            out[path] = (stat.st_size, stat.st_mtime_ns)
    return out


def _cli_main(tracer: Tracer, fn):
    """Span per CLI command; bytes the command wrote outside save_dataset."""

    @functools.wraps(fn)
    def wrapper(argv=None):
        argv = list(argv or [])
        command = argv[0] if argv else "?"
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        watch = out.parent if out is not None else None
        before = _snapshot(watch) if watch is not None else {}
        dataset_bytes = tracer.counts["data.bytes_written"]
        previous = tracer.request
        tracer.request = f"cli.{command}"
        index = tracer.begin(f"cli.{command}")
        try:
            return fn(argv)
        finally:
            tracer.end(index)
            tracer.request = previous
            if watch is not None:
                after = _snapshot(watch)
                written = sum(size for p, (size, mt) in after.items() if before.get(p) != (size, mt))
                tracer.counts["cli.bytes_written"] += written - (
                    tracer.counts["data.bytes_written"] - dataset_bytes
                )

    return wrapper


def _targets(tracer: Tracer):
    """(module, attribute, wrapper factory) for every function traced."""
    counts = tracer.counts

    def add_written(args, kwargs):
        counts["data.bytes_written"] += _file_size(kwargs["path"] if "path" in kwargs else args[1])

    def add_read(args, kwargs):
        counts["data.bytes_read"] += _file_size(kwargs["path"] if "path" in kwargs else args[0])

    spans = {
        ("waterline.network", "backward"): "network.backward",
        ("waterline.network", "load_checkpoint"): "network.load_checkpoint",
        ("waterline.network", "save_checkpoint"): "network.save_checkpoint",
        ("waterline.training", "adamw_step"): "training.adamw",
        ("waterline.training", "train"): "training.train",
        ("waterline.features", "build_features"): "features.build",
        ("waterline.features", "build_decoder_query"): "features.decoder_query",
        ("waterline.geometry", "project"): "geometry.project",
        ("waterline.data", "generate"): "data.generate",
        ("waterline.data", "split"): "data.split",
        ("waterline.data", "visible_examples"): "data.visible_examples",
        ("waterline.metrics", "error_stats"): "metrics.error_stats",
        ("waterline.metrics", "calibrate_bias"): "metrics.calibrate",
    }
    yield "waterline.network", "forward", lambda fn: _network_forward(tracer, fn)
    yield "waterline.cli", "main", lambda fn: _cli_main(tracer, fn)
    yield "waterline.data", "save_dataset", lambda fn: _spanned(tracer, fn, "data.save", add_written)
    yield "waterline.data", "load_dataset", lambda fn: _spanned(tracer, fn, "data.load", add_read)
    for (module, attr), name in spans.items():
        yield module, attr, functools.partial(_spanned, tracer, name=name)
    # Called once per query, grid point or epoch: counted, not spanned.
    yield "waterline.training", "cosine_lr", lambda fn: _counted(tracer, fn, "training.epoch")
    yield "waterline.metrics", "pixel_error", lambda fn: _counted(tracer, fn, "metrics.pixel_error")
    yield "waterline.metrics", "detection_report", lambda fn: _counted(
        tracer, fn, "metrics.detection_report"
    )


@contextlib.contextmanager
def _replaced(targets):
    """Wrap each (module, attribute, wrapper factory) function wherever a
    waterline module refers to it; restore the originals on exit."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "waterline"]
    patched = []  # (namespace, attribute, original)
    try:
        for module_name, attr, factory in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = factory(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every function of _targets while the context is open."""
    with _replaced(_targets(tracer)):
        yield tracer


def after_calls(module_name: str, attr: str, hook):
    """Call hook() as each call of the function returns; a no-op context for
    None."""
    if hook is None:
        return contextlib.nullcontext()

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook()
            return result

        return wrapper

    return _replaced([(module_name, attr, factory)])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers named as in BENCHMARK.json's per_layer list."""
    duration, self_time = tracer.totals()
    counts = tracer.counts
    layer_self = defaultdict(float)
    for name, seconds in self_time.items():
        layer_self[name.split(".")[0]] += seconds
    eval_calls = counts["network.forward_eval_calls"]
    out = {
        "network.forward_eval_s": (duration["network.forward_eval"], "s"),
        "network.forward_eval_calls": (eval_calls, "count"),
        "network.rows_per_eval_call": (
            counts["network.forward_eval_rows"] / eval_calls if eval_calls else 0.0, "rows"),
        "network.forward_train_s": (duration["network.forward_train"], "s"),
        "network.backward_s": (duration["network.backward"], "s"),
        "network.macs": (counts["network.macs"], "count"),
        "network.weight_bytes": (counts["network.weight_bytes"], "B"),
        "training.adamw_s": (duration["training.adamw"], "s"),
        "training.adamw_calls": (counts["training.adamw_calls"], "count"),
        "training.epochs": (counts["training.epoch_calls"], "count"),
        "training.batches": (counts["network.forward_train_calls"], "count"),
        "features.build_calls": (counts["features.build_calls"], "count"),
        "features.build_s": (duration["features.build"], "s"),
        "features.decoder_query_s": (duration["features.decoder_query"], "s"),
        "geometry.project_calls": (counts["geometry.project_calls"], "count"),
        "geometry.project_s": (duration["geometry.project"], "s"),
        "data.generate_s": (duration["data.generate"], "s"),
        "data.save_s": (duration["data.save"], "s"),
        "data.load_s": (duration["data.load"], "s"),
        "data.bytes_written": (counts["data.bytes_written"], "B"),
        "data.bytes_read": (counts["data.bytes_read"], "B"),
        "data.split_s": (duration["data.split"], "s"),
        "data.visible_examples_s": (duration["data.visible_examples"], "s"),
        "metrics.error_stats_s": (duration["metrics.error_stats"], "s"),
        "metrics.pixel_error_calls": (counts["metrics.pixel_error_calls"], "count"),
        "metrics.calibrate_s": (duration["metrics.calibrate"], "s"),
        "metrics.detection_report_calls": (counts["metrics.detection_report_calls"], "count"),
        "cli.bytes_written": (counts["cli.bytes_written"], "B"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    return out

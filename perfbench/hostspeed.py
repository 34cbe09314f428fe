"""Host-speed normalization of the benchmark's gated timings.

On a shared machine the same single-threaded code runs up to about 1.8 times
slower when neighbours load the host. The slowdown changes every 0.1-1 s and
drifts over minutes, and it is a slower execution, not a stall: process CPU
time grows with wall time. A whole-run median of raw times therefore spread
by about 30 % between runs of the same code.

A fixed reference kernel, the benchmark's own code, is timed right before and
right after each short round of work (a closed-loop chunk, a block of frames,
a few optimizer steps, one CLI command, one set-up). The round's times are
multiplied by NOMINAL_S over the mean of those two readings, so they read as
on a host where the kernel takes NOMINAL_S. Contention slows interpreted
Python more than array arithmetic, so there are two kernels, each like the
work it normalizes: "calls" mixes interpreted Python with numpy calls on
32-element vectors, as serving, the CLI and set-up do; "arrays" does the
batch-sized matmul, batch-norm and ReLU of a training step. On a 2-vCPU VM
with one BLAS thread each takes about NOMINAL_S in a quiet spell. Measured
there over 80-90 s, the median per-round ratio of serve frame time to
"calls", and of train step time to "arrays", stayed within 4 % across
10-second windows while the raw medians moved by 30-35 %; train step time
over "calls" moved by 25 %.

The normalization cancels a uniform slowdown of the host; it does not hide a
change of the program, which moves the numerator alone. Raw times are
printed beside the normalized ones in the report.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 1e-3

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((32, 32)) / 8.0
_X = _rng.standard_normal((256, 128))
_M = _rng.standard_normal((128, 128)) / 12.0


def _calls() -> None:
    x = np.ones(32)
    acc = 0.0
    for _ in range(400):
        x = np.tanh(_W @ x)
        acc += float(x[0]) + sum(range(10))


def _arrays() -> None:
    for _ in range(2):
        h = _X @ _M
        y = np.maximum((h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5), 0.0)
        float((y * 0.5).sum())


KERNELS = {"calls": _calls, "arrays": _arrays}


def reference(kernel: str = "calls") -> float:
    """Seconds the reference kernel takes now."""
    t0 = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two reference readings to
    nominal seconds."""
    return 2.0 * NOMINAL_S / (before + after)

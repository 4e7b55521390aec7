"""Reference operations: fixed work that reads the machine's current speed.

This guest changes speed from second to second, so a raw time says as much
about the host as about the program.  Each workload runs a reference slice
before and after every timed step of an operation.  The slice lives here,
shares no code with ``selfsync`` and is shaped like the work it sits
beside: small-array numpy steps like the simulation kernel, per-object
Python churn like the per-edge loops, dense single-threaded linear algebra
like the Laplacian work, a large gather like the kernel at E ~ 400k, and
float formatting like the CSV and JSON writers.

A step's rescaled time is ``raw * NOMINAL_MS[workload] / ref_ms``, with
``ref_ms`` the median of the four slices around it (``run.py``): its time
on a machine that runs the slice in exactly ``NOMINAL_MS``.  The nominal
figures are fixed constants (about the slices' median on the host named
in the README), never re-measured, so rescaled figures from different
runs and days compare directly.
"""
from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["NOMINAL_MS", "RECIPES", "Reference"]


@dataclass(frozen=True)
class _Link:
    dst: int
    src: int
    gain: float
    delay_s: float


def _small_steps(state: dict, steps: int) -> float:
    """Delayed-coupling steps on a 40-node, 1.5k-link network."""
    n, lags, srcs, dsts, gains = state["small"]
    m_max = int(lags.max())
    x = np.zeros((m_max + steps + 1, n))
    stats = np.linspace(-1.0, 1.0, n)
    rate = np.full(n, 0.5)
    for k in range(steps):
        row = m_max + k
        now = x[row]
        delayed = x[row - lags, srcs]
        agg = np.bincount(dsts, weights=gains * (delayed - now[dsts]), minlength=n)
        xdot = stats + rate * agg
        if not np.all(np.isfinite(xdot)):
            raise FloatingPointError("reference diverged")
        x[row + 1] = now + 1e-3 * xdot
    return float(x[-1, 0])


def _object_churn(state: dict, count: int) -> float:
    """Build, validate and scan small frozen records one at a time."""
    n = 640
    vals = state["churn"]
    seen: set[tuple[int, int, int]] = set()
    links = []
    for i in range(count):
        dst = i % n
        src = (i * 7 + 1) % n
        link = _Link(dst, src, float(vals[i % vals.shape[0]]), 1e-3 * (i % 50))
        key = (link.dst, link.src, i // n)
        if key in seen or not np.isfinite(link.gain) or link.delay_s < 0.0:
            raise ValueError("reference record rejected")
        seen.add(key)
        links.append(link)
    total = 0.0
    for link in links:
        total += link.gain * link.delay_s
    return total


def _dense_la(state: dict, rounds: int) -> float:
    """Pinned dense solve plus matvec sweeps on a 640 x 640 matrix."""
    mat = state["dense"]
    rhs = np.zeros(mat.shape[0])
    rhs[0] = 1.0
    acc = 0.0
    for _ in range(rounds):
        x = np.linalg.solve(mat, rhs)
        for _ in range(20):
            x = mat @ x
            x /= np.linalg.norm(x)
        acc += float(x[0])
    return acc


def _matvec_loop(state: dict, iters: int) -> float:
    """Many small dense matvecs, like a power iteration on a 400-block."""
    mat = state["block"]
    vec = np.full(mat.shape[0], 1.0 / math.sqrt(mat.shape[0]))
    for _ in range(iters):
        nxt = mat @ vec
        nxt /= np.linalg.norm(nxt)
        # Never true: kept so each pass also does the convergence test.
        if np.max(np.abs(nxt - vec)) < 0.0:
            break
        vec = nxt
    return float(vec[0])


def _big_gather(state: dict, steps: int) -> float:
    """Memory-bound gather and scatter-add over 400k links."""
    n, lags, srcs, dsts, gains, x = state["big"]
    acc = 0.0
    for k in range(steps):
        row = 60 + k
        delayed = x[row - lags, srcs]
        agg = np.bincount(dsts, weights=gains * (delayed - x[row][dsts]), minlength=n)
        acc += float(agg[0])
    return acc


def _text_churn(state: dict, rows: int) -> int:
    """Format float rows as CSV text and round-trip a JSON document."""
    data = state["text"]
    lines = []
    for k in range(rows):
        cells = [repr(float(k * 1e-3))]
        cells.extend(repr(float(v)) for v in data[k % data.shape[0]])
        lines.append(",".join(cells))
    text = "\n".join(lines)
    doc = {"rows": [{"k": k, "v": [float(v) for v in data[k % 8, :10]]} for k in range(rows // 20)]}
    back = json.loads(json.dumps(doc, indent=2))
    return len(text) + len(back["rows"])


_COMPONENTS = {
    "small_steps": _small_steps,
    "object_churn": _object_churn,
    "dense_la": _dense_la,
    "matvec_loop": _matvec_loop,
    "big_gather": _big_gather,
    "text_churn": _text_churn,
}

# Component amounts of one reference slice, weighted like the workload's profile.
RECIPES: dict[str, tuple[tuple[str, int], ...]] = {
    # ~93% simulate at n=40, a little network generation.
    "mc-study": (("small_steps", 4500), ("object_churn", 4000)),
    # per-edge Python loops, dense n x n work, the big kernel, power iteration.
    "large-network": (
        ("small_steps", 2000),
        ("object_churn", 12_000),
        ("dense_la", 1),
        ("big_gather", 2),
        ("matvec_loop", 500),
    ),
    # simulate at small n, CSV/JSON formatting, file parsing.
    "cli-session": (("small_steps", 2400), ("text_churn", 500), ("object_churn", 1000)),
}

# Slice time, in ms, that rescaled figures are normalized to.
NOMINAL_MS: dict[str, float] = {
    "mc-study": 185.0,
    "large-network": 185.0,
    "cli-session": 155.0,
}


def _build_state() -> dict:
    rng = np.random.default_rng(20070208)
    n_small = 40
    dsts = np.repeat(np.arange(n_small), n_small - 1)
    srcs = np.array([s for d in range(n_small) for s in range(n_small) if s != d])
    keep = rng.random(dsts.shape[0]) < 0.95
    small = (
        n_small,
        rng.integers(0, 101, size=int(keep.sum())),
        srcs[keep],
        dsts[keep],
        rng.uniform(0.1, 0.9, size=int(keep.sum())),
    )
    n_big, e_big = 640, 400_000
    big = (
        n_big,
        rng.integers(0, 51, size=e_big),
        rng.integers(0, n_big, size=e_big),
        np.sort(rng.integers(0, n_big, size=e_big)),
        rng.uniform(0.1, 0.9, size=e_big),
        rng.normal(size=(60 + 64, n_big)),
    )
    dense = rng.normal(size=(640, 640)) / 640.0 + np.eye(640)
    block = rng.uniform(0.0, 1.0, size=(400, 400)) / 400.0 + 0.5 * np.eye(400)
    return {
        "small": small,
        "big": big,
        "dense": dense,
        "block": block,
        "churn": rng.uniform(0.1, 2.0, size=4096),
        "text": rng.normal(size=(64, 80)),
    }


class Reference:
    """The reference slice of one workload; ``run()`` returns its ms."""

    def __init__(self, workload: str):
        self.recipe = RECIPES[workload]
        self.nominal_ms = NOMINAL_MS[workload]
        self._state = _build_state()

    def run(self) -> float:
        # The collector is off during a slice: a full collection scans every
        # object the program holds (400k edges on large-network), which
        # measures the program's heap, not the machine's speed.
        gc.disable()
        try:
            start = time.perf_counter()
            for name, amount in self.recipe:
                _COMPONENTS[name](self._state, amount)
            return (time.perf_counter() - start) * 1e3
        finally:
            gc.enable()

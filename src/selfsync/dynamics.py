"""Fixed-step simulation of delay-coupled integrator networks.

Each node integrates its local statistic while a coupling term pulls its
state toward delayed neighbor states::

    xdot_i(t) = u_i + (K / c_i) * sum_j a_ij * (x_j(t - tau_ij) - x_i(t))

Integration is explicit Euler on a fixed grid.  Per-link delays are
quantized to integer step lags (round half to even) and realized through
history buffers, so the recorded trajectory satisfies
``x[n+1] == x[n] + step_s * xdot[n]`` bit for bit.  The synchronized-state
math consuming these trajectories lives in :mod:`selfsync.consensus`.
"""
from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .digraph import Digraph

__all__ = [
    "NodeParams",
    "InitialCondition",
    "SimConfig",
    "DelayQuantization",
    "Trajectory",
    "VerdictKind",
    "DerivativeGroup",
    "ConsensusVerdict",
    "SimulationDiverged",
    "StepSizeWarning",
    "quantize_delays",
    "simulate",
    "detect_consensus",
    "write_trajectory_csv",
]

# Warn when step_s * K/c_i * (received gain sum) exceeds this; one order
# of magnitude under the explicit-Euler monotonicity bound of 1.
STIFFNESS_GUARD = 0.1

# The fixed settle rule of detect_consensus.
WINDOW = 200
DRIFT_TOL = 1e-8
SYNC_TOL = 1e-6

# Rows formatted per block when writing CSV.
_CSV_BLOCK_ROWS = 1024


class SimulationDiverged(RuntimeError):
    """A non-finite state appeared; ``step`` is the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class StepSizeWarning(UserWarning):
    """The step size is large for the realized coupling strengths."""


@dataclass(frozen=True)
class NodeParams:
    """Per-node consensus weights (positive) and local statistics."""

    weights: np.ndarray
    stats: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.stats, dtype=float)
        if w.ndim != 1 or s.shape != w.shape:
            raise ValueError("weights and stats must be 1-d arrays of equal length")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        if not np.all(np.isfinite(s)):
            raise ValueError("stats must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stats", s)

    @property
    def n(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class InitialCondition:
    """Node state history on the delay window ``[-tau_max, 0]``.

    ``zero`` and ``constant`` hold the history flat; ``samples`` supplies
    explicit rows on the step grid, oldest first, of which the trailing
    ``m_max + 1`` rows are used.
    """

    kind: str
    values: "np.ndarray | None" = None

    @staticmethod
    def zero() -> "InitialCondition":
        return InitialCondition("zero")

    @staticmethod
    def constant(values: "float | np.ndarray") -> "InitialCondition":
        return InitialCondition("constant", np.atleast_1d(np.asarray(values, dtype=float)))

    @staticmethod
    def samples(history: np.ndarray) -> "InitialCondition":
        arr = np.asarray(history, dtype=float)
        if arr.ndim != 2:
            raise ValueError("sampled history must be a (steps, nodes) array")
        return InitialCondition("samples", arr)

    def fill(self, rows: int, n: int) -> np.ndarray:
        """Materialize the history block of shape ``(rows, n)``."""
        if self.kind == "zero":
            return np.zeros((rows, n))
        v = self.values
        if self.kind == "constant":
            if v.shape not in ((1,), (n,)):
                raise ValueError(f"constant initial condition needs 1 or {n} values")
            return np.broadcast_to(v, (rows, n)).copy()
        if self.kind == "samples":
            if v.shape[1] != n:
                raise ValueError(f"sampled history has {v.shape[1]} columns, expected {n}")
            if v.shape[0] < rows:
                raise ValueError(f"sampled history needs at least {rows} rows, got {v.shape[0]}")
            return v[-rows:].copy()
        raise ValueError(f"unknown initial condition kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """Coupling gain, step size, horizon (steps), and initial history."""

    coupling: float
    step_s: float
    horizon: int
    init: InitialCondition = field(default_factory=InitialCondition.zero)

    def __post_init__(self) -> None:
        if not np.isfinite(self.coupling) or self.coupling <= 0:
            raise ValueError("coupling must be finite and positive")
        if not np.isfinite(self.step_s) or self.step_s <= 0:
            raise ValueError("step_s must be finite and positive")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ValueError("horizon must be a positive integer number of steps")


@dataclass(frozen=True)
class DelayQuantization:
    """Integer step lag of every link, in the graph's edge order."""

    lags: np.ndarray
    m_max: int


def quantize_delays(g: Digraph, step_s: float) -> DelayQuantization:
    """Round each link delay to an integer number of steps.

    Ties round half to even (so 2.5 steps becomes 2, 3.5 becomes 4).  The
    same quantization feeds both the simulator and any prediction that
    must agree with it exactly.
    """
    if step_s <= 0 or not np.isfinite(step_s):
        raise ValueError("step_s must be finite and positive")
    with np.errstate(over="ignore"):
        steps = np.rint(g.delay_s / step_s)
    if not np.all(steps < 2.0**63):
        raise ValueError(f"delays up to {g.delay_s.max()} s exceed 2**63 steps of {step_s} s")
    lags = steps.astype(np.int64)
    return DelayQuantization(lags=lags, m_max=int(lags.max(initial=0)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: ``states[k]`` and ``derivs[k]`` at time ``times[k]``."""

    step_s: float
    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray

    @property
    def n(self) -> int:
        return int(self.states.shape[1])

    @property
    def horizon(self) -> int:
        return int(self.states.shape[0])

    def write_csv(self, path: "str | Path") -> None:
        write_trajectory_csv(self, path)


def simulate(g: Digraph, params: NodeParams, cfg: SimConfig) -> Trajectory:
    """Run the delay-coupled integrator network for ``cfg.horizon`` steps.

    The state at step 0 is the initial history's final row; earlier rows
    feed the delayed coupling terms.  Warns with :class:`StepSizeWarning`
    when the per-node coupling rate is large for the step size.  After the
    run, raises :class:`SimulationDiverged` naming the first step whose
    derivative is non-finite.
    """
    if params.n != g.n:
        raise ValueError(f"params are for {params.n} nodes, graph has {g.n}")
    n = g.n
    quant = quantize_delays(g, cfg.step_s)
    m_max = quant.m_max
    horizon = cfg.horizon

    # Links sorted by listener (stably, so each listener keeps its edge
    # order): heard node heard[j] owns the slice first[j] .. first[j + 1].
    order = np.argsort(g.dst, kind="stable")
    dsts, gains, stats = g.dst[order], g.gain[order], params.stats
    # At step k, link e reads x[m_max + k - lag_e, src_e]: flat index k * n + taps[e].
    taps = ((m_max - quant.lags) * n + g.src)[order]
    first = np.flatnonzero(np.diff(dsts, prepend=-1))
    heard = dsts[first]

    rate = cfg.coupling / params.weights
    inflow = np.zeros(n)
    inflow[heard] = np.add.reduceat(gains, first)
    stiffness = float(np.max(cfg.step_s * rate * inflow)) if n else 0.0
    if stiffness > STIFFNESS_GUARD:
        warnings.warn(
            f"step_s * coupling rate reaches {stiffness:.3g} (guard {STIFFNESS_GUARD}); "
            "expect a stiff, possibly inaccurate integration",
            StepSizeWarning,
            stacklevel=2,
        )

    # Rows 0 .. m_max hold the history at steps -m_max .. 0; row m_max + k
    # is the state at step k; the final step writes a spare last row.
    x = np.empty((m_max + horizon + 1, n))
    x[: m_max + 1] = cfg.init.fill(m_max + 1, n)
    flat = x.reshape(-1)
    derivs = np.empty((horizon, n))
    pull = np.zeros(n)

    # Overflow is reported through SimulationDiverged, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            now = x[m_max + k]
            pull[heard] = np.add.reduceat(gains * flat[k * n :].take(taps), first)
            derivs[k] = xdot = stats + rate * (pull - inflow * now)
            x[m_max + k + 1] = now + cfg.step_s * xdot

    bad = np.flatnonzero(~np.isfinite(derivs).all(axis=1))
    if bad.size:
        raise SimulationDiverged(f"non-finite derivative at step {bad[0]}", step=int(bad[0]))
    states = x[m_max : m_max + horizon]
    times = np.arange(horizon) * cfg.step_s
    return Trajectory(step_s=cfg.step_s, times=times, states=states, derivs=derivs)


class VerdictKind(str, Enum):
    GLOBAL = "GLOBAL"
    CLUSTERED = "CLUSTERED"
    NONE = "NONE"


@dataclass(frozen=True)
class DerivativeGroup:
    """Nodes whose terminal derivatives agree, and their common value."""

    members: tuple[int, ...]
    omega: float


@dataclass(frozen=True)
class ConsensusVerdict:
    kind: VerdictKind
    omega: "float | None"
    groups: tuple[DerivativeGroup, ...]
    unsettled: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.kind.value,
            "omega": self.omega,
            "groups": [
                {"members": list(grp.members), "omega": grp.omega} for grp in self.groups
            ],
            "unsettled": list(self.unsettled),
        }


def detect_consensus(traj: Trajectory) -> ConsensusVerdict:
    """Classify the terminal derivative behavior of a trajectory.

    Over the final ``WINDOW`` samples, a node is settled when its
    derivative range is below ``DRIFT_TOL`` and settled nodes are grouped
    when their means sit within ``SYNC_TOL``; both tolerances are relative
    to the largest derivative magnitude over the whole run, so a network
    that settles at rate 0 reads as settled.  GLOBAL means every node
    settled into one group (``omega`` is the mean terminal derivative);
    two or more groups give CLUSTERED; anything else NONE.  Nodes fed by
    several groups may settle to intermediate values and then show up as
    extra groups; no convergence claim is made for them.
    """
    if traj.horizon <= WINDOW:
        raise ValueError(f"trajectory ({traj.horizon} steps) must be longer than window {WINDOW}")
    derivs = traj.derivs
    scale = max(float(derivs.max()), -float(derivs.min()), 1e-300)
    tail = derivs[-WINDOW:]
    means = tail.mean(axis=0)
    settled = np.ptp(tail, axis=0) < DRIFT_TOL * scale

    order = np.flatnonzero(settled)[np.argsort(means[settled], kind="stable")]
    vals = means[order]
    cuts = np.flatnonzero(np.diff(vals) > SYNC_TOL * scale) + 1
    groups = tuple(
        DerivativeGroup(members=tuple(sorted(members.tolist())), omega=float(part.mean()))
        for members, part in zip(np.split(order, cuts), np.split(vals, cuts))
        if members.size
    )
    unsettled = tuple(np.flatnonzero(~settled).tolist())

    if len(groups) == 1 and not unsettled:
        kind, omega = VerdictKind.GLOBAL, float(means.mean())
    elif len(groups) >= 2:
        kind, omega = VerdictKind.CLUSTERED, None
    else:
        kind, omega = VerdictKind.NONE, None
    return ConsensusVerdict(kind=kind, omega=omega, groups=groups, unsettled=unsettled)


def _csv_block(columns: "tuple[np.ndarray, ...]", start: int) -> str:
    """CSV text of rows ``start .. start + _CSV_BLOCK_ROWS`` of the side-by-side columns.

    Every value is written at full precision, as its ``repr``.
    """
    block = np.column_stack([col[start : start + _CSV_BLOCK_ROWS] for col in columns])
    return "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()])


# The columns a pool worker formats, inherited from the writer at fork.
_worker_columns: "tuple[np.ndarray, ...]" = ()


def _adopt_columns(columns: "tuple[np.ndarray, ...]") -> None:
    global _worker_columns
    _worker_columns = columns


def _worker_block(start: int) -> str:
    return _csv_block(_worker_columns, start)


def _csv_workers(blocks: int) -> int:
    """Worker processes for ``blocks`` row blocks; below 2 the writer formats in-process.

    Workers are forked, so that they inherit the columns; forking a process
    that runs other threads is unsafe, so such a process gets none.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, blocks)
    if workers < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _write_csv(path: "str | Path", header: str, columns: "tuple[np.ndarray, ...]") -> None:
    """Write ``header`` and the rows of the side-by-side columns at full precision.

    Row blocks are formatted by up to one forked worker process per usable
    CPU and written in order as they arrive, so the bytes do not depend on
    the worker count and the whole text is never held in memory. A worker
    that dies is reported as an ``OSError``, like any failed write.
    """
    starts = range(0, len(columns[0]), _CSV_BLOCK_ROWS)
    workers = _csv_workers(len(starts))
    with open(path, "w") as f:
        f.write(header + "\n")
        if workers < 2:
            for start in starts:
                f.write(_csv_block(columns, start))
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        f.flush()  # leave no buffered text for a forked worker to copy
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_adopt_columns, initargs=(columns,))
        try:
            for text in pool.map(_worker_block, starts):
                f.write(text)
        except BrokenProcessPool as exc:
            raise OSError(f"a CSV worker process died: {exc}") from exc
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def write_trajectory_csv(traj: Trajectory, path: "str | Path") -> None:
    """Write ``t,x_0..x_{n-1},xdot_0..xdot_{n-1}`` rows at full precision."""
    n = traj.n
    header = "t," + ",".join(f"x_{i}" for i in range(n)) + "," + ",".join(
        f"xdot_{i}" for i in range(n)
    )
    _write_csv(path, header, (traj.times, traj.states, traj.derivs))

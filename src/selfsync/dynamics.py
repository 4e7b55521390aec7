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

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .digraph import Digraph

__all__ = [
    "NodeParams",
    "SimConfig",
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

# Warn when the stiffness step_s * K/c_i * (received gain sum) exceeds this
# accuracy guard.  The second threshold is 1: below it each Euler step keeps
# a positive self-weight, so any bounded lag keeps consensus on a QSC graph.
STIFFNESS_GUARD = 0.1

# The fixed settle rule of detect_consensus.
WINDOW = 200
DRIFT_TOL = 1e-8
SYNC_TOL = 1e-6

# Values formatted per block when writing CSV, whatever the table's width.
_CSV_BLOCK_VALUES = 2**15

# Bytes per value of a CSV block: the longest float text,
# "-1.7976931348623157e+308", and the separator after it.
_CSV_WIDTH = 25
# Row L keeps the first L + 1 bytes of a value's row: its text and separator.
_CSV_PREFIX = np.tri(_CSV_WIDTH, dtype=bool)

# 10**0 .. 10**22, each exact in a double, and its Veltkamp split at 2**27 + 1.
_POW10 = 10.0 ** np.arange(23)
_POW10_HEAD = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_TAIL = _POW10 - _POW10_HEAD
_POW10_INT = 10 ** np.arange(17)

# (link, step) pairs gathered, weighted and summed per tile of the step
# kernel; a tile's buffers then stay in cache.
_BLOCK_LINKS = 2**15
# Steps of the step loop per list of row views.
_ROW_VIEWS = 256


class SimulationDiverged(RuntimeError):
    """A non-finite state appeared; ``step`` is the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):
        return type(self), (self.args[0], self.step)


class StepSizeWarning(UserWarning):
    """The step size is large for the realized coupling strengths.

    It fires past ``STIFFNESS_GUARD``, an accuracy guard, and its message
    says whether the stiffness also reached 1, where consensus for any lag
    is no longer guaranteed.
    """


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
class SimConfig:
    """Coupling gain, step size, horizon (steps), and initial history.

    ``init`` is the node states on the delay window ``[-tau_max, 0]``.  A
    scalar, or one value per node, holds the history flat; a ``(steps, n)``
    array gives rows on the step grid, oldest first, of which the trailing
    ``m_max + 1`` are used.
    """

    coupling: float
    step_s: float
    horizon: int
    init: "float | np.ndarray" = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.coupling) or self.coupling <= 0:
            raise ValueError("coupling must be finite and positive")
        if not np.isfinite(self.step_s) or self.step_s <= 0:
            raise ValueError("step_s must be finite and positive")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ValueError("horizon must be a positive integer number of steps")
        init = np.asarray(self.init, dtype=float)
        if init.ndim > 2 or not np.all(np.isfinite(init)):
            raise ValueError("init must be finite: a scalar, one value per node, "
                             "or a (steps, nodes) array")
        object.__setattr__(self, "init", init)


def _history(init: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The ``(rows, n)`` history block that a :class:`SimConfig` ``init`` describes."""
    if init.ndim < 2:
        if init.size not in (1, n):
            raise ValueError(f"a flat initial history needs 1 or {n} values, got {init.size}")
        return np.broadcast_to(init, (rows, n))
    if init.shape[1] != n or init.shape[0] < rows:
        raise ValueError(f"initial history of shape {init.shape} needs at least {rows} rows "
                         f"of {n} columns")
    return init[-rows:]


def quantize_delays(g: Digraph, step_s: float) -> np.ndarray:
    """Integer step lag (int64) of every link, in the graph's edge order.

    Delays are rounded to a whole number of steps, ties half to even (so
    2.5 steps becomes 2, 3.5 becomes 4).  The same quantization feeds both
    the simulator and any prediction that must agree with it exactly.
    """
    if step_s <= 0 or not np.isfinite(step_s):
        raise ValueError("step_s must be finite and positive")
    with np.errstate(over="ignore"):
        steps = np.rint(g.delay_s / step_s)
    if not np.all(steps < 2.0**63):
        raise ValueError(f"delays up to {g.delay_s.max()} s exceed 2**63 steps of {step_s} s")
    return steps.astype(np.int64)


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


def simulate(g: Digraph, params: NodeParams, cfg: SimConfig) -> Trajectory:
    """Run the delay-coupled integrator network for ``cfg.horizon`` steps.

    The state at step 0 is the initial history's final row; earlier rows
    feed the delayed coupling terms.  Warns with :class:`StepSizeWarning`
    when the per-node coupling rate is large for the step size.  After the
    run, raises :class:`SimulationDiverged` naming the first step whose
    derivative is non-finite.
    """
    ((_, states, derivs),) = _integrate(g, params, cfg, cfg.horizon)
    times = np.arange(cfg.horizon) * cfg.step_s
    return Trajectory(step_s=cfg.step_s, times=times, states=states, derivs=derivs)


def _integrate(g: Digraph, params: NodeParams, cfg: SimConfig, window: int):
    """Step the network, yielding ``(start, states, derivs)`` per block of steps.

    Each block holds steps ``start .. start + window`` (the last may be
    shorter) as views of two buffers that the next block overwrites;
    between blocks the last ``m_max + 1`` states move to the front as the
    next block's history.  The arithmetic and its order do not depend on
    ``window``, so the blocks of any window are the same bits as one block
    over the whole horizon.  A block with a non-finite derivative raises
    :class:`SimulationDiverged` naming the first such step.
    """
    if params.n != g.n:
        raise ValueError(f"params are for {params.n} nodes, graph has {g.n}")
    n = g.n
    lags = quantize_delays(g, cfg.step_s)
    m_max = int(lags.max(initial=0))
    horizon = cfg.horizon
    window = min(window, horizon)

    # Links sorted by listener (stably, so each listener keeps its edge
    # order): heard node heard[j] owns the segment first[j] .. first[j + 1].
    # At block step k, link e reads x[m_max + k - lag_e, src_e]: flat index k * n + taps[e].
    dsts, gains, taps = g.dst, g.gain, (m_max - lags) * n + g.src
    if np.any(dsts[1:] < dsts[:-1]):  # generated graphs come sorted already
        order = np.argsort(dsts, kind="stable")
        dsts, gains, taps = dsts[order], gains[order], taps[order]
    first = np.flatnonzero(np.diff(dsts, prepend=-1))
    heard = dsts[first]
    links, segs = gains.size, first.size

    rate, stats, step_s = cfg.coupling / params.weights, params.stats, cfg.step_s
    inflow = np.zeros(n)
    inflow[heard] = np.add.reduceat(gains, first)
    stiffness = float(np.max(step_s * rate * inflow)) if n else 0.0
    if stiffness > STIFFNESS_GUARD:
        any_lag = (", and at 1 or more consensus under any lag is no longer guaranteed"
                   if stiffness >= 1.0 else " (consensus under any lag is still guaranteed below 1)")
        warnings.warn(
            f"step_s * coupling rate reaches {stiffness:.3g}, over the accuracy guard "
            f"{STIFFNESS_GUARD}: expect a stiff, possibly inaccurate integration{any_lag}",
            StepSizeWarning,
            stacklevel=3,  # past this generator and the function stepping it
        )

    # The kernel works in tiles of at most _BLOCK_LINKS (link, step) pairs.
    # Every lag is at least lag_min, so steps k .. k + lag_min read only
    # states that exist at step k, and one tile may gather all links for
    # `span` such steps, step-major; a graph with more links splits each
    # step into tiles of whole listener segments (a longer segment alone).
    # Each segment sums the same products in the same order as one step's
    # np.add.reduceat over every link, so the tiling does not move a bit.
    lag_min = int(lags.min(initial=m_max))
    span = max(1, min(lag_min + 1, _BLOCK_LINKS // max(links, 1)))
    if span > 1:
        ahead = np.arange(span)[:, None]
        taps = (taps + n * ahead).ravel()
        gains = np.tile(gains, span)
        first = (first + links * ahead).ravel()
    # The gathers take mode="clip", which would hide an index past the
    # states that exist when a tile starts; check the furthest one once.
    if links and not (0 <= taps.min() and taps.max() < (m_max + 1) * n):
        raise ValueError("a tile would gather a state that does not exist yet")
    bounds = np.append(first[:segs], links)
    cuts = [0]
    while cuts[-1] < segs:
        fits = int(np.searchsorted(bounds, bounds[cuts[-1]] + _BLOCK_LINKS, "right")) - 1
        cuts.append(max(fits, cuts[-1] + 1))
    widest = max((int(bounds[b] - bounds[a]) for a, b in zip(cuts, cuts[1:])), default=0)
    gathered = np.empty(span * widest)
    sums = np.zeros((span, segs))
    # With every node heard, segment j is node j and the sums are the pulls.
    pull = sums if segs == n else np.zeros((span, n))
    flat_sums = sums.reshape(-1)

    def tiles(steps: int) -> list:
        """(taps, gains, buffer, segment starts, sums) of each tile of ``steps`` steps."""
        views = []
        for a, b in zip(cuts, cuts[1:]):
            lo, width, count = int(bounds[a]), steps * int(bounds[b] - bounds[a]), steps * (b - a)
            views.append((taps[lo : lo + width], gains[lo : lo + width], gathered[:width],
                          first[a : a + count] - lo, flat_sums[a : a + count]))
        return views

    whole = tiles(span)
    # Rows 0 .. m_max hold the history at block steps -m_max .. 0; row
    # m_max + k is the state at block step k; the block's final step
    # writes a spare last row.
    x = np.empty((m_max + window + 1, n))
    x[: m_max + 1] = _history(cfg.init, m_max + 1, n)
    flat = x.reshape(-1)
    derivs = np.empty((window, n))
    tmp = np.empty(n)
    # The step size once per node: numpy would convert a Python float on every call.
    steps_s = np.full(n, step_s)

    # Row views are made by the list, a chunk of whole tiles (about
    # _ROW_VIEWS steps) at a time: indexing a row each step costs about
    # what a step's arithmetic does on a small network, and a list over
    # the whole horizon would grow with it.
    chunk = span * -(-_ROW_VIEWS // span)
    pull_rows = list(pull)
    # The ufuncs take their outputs positionally: keyword parsing would
    # cost more than the arithmetic on a small network.
    mul, sub, add, segment_sums = np.multiply, np.subtract, np.add, np.add.reduceat
    for start in range(0, horizon, window):
        if start:
            x[: m_max + 1] = x[window:]
        steps = min(window, horizon - start)
        # Overflow is reported through SimulationDiverged, not numpy
        # warnings; the loop divides nothing, and with every error ignored
        # numpy skips its floating-point status check after each call.
        with np.errstate(all="ignore"):
            for c in range(0, steps, chunk):
                stop = min(c + chunk, steps)
                rows, deriv_rows = list(x[m_max + c : m_max + stop + 1]), list(derivs[c:stop])
                for k in range(c, stop, span):  # one tile: pull for steps k .. end
                    end = min(k + span, stop)
                    plan = whole if end - k == span else tiles(end - k)
                    states = flat[k * n :]
                    for tap, gain, buf, starts, out in plan:
                        states.take(tap, None, buf, "clip")
                        mul(gain, buf, buf)
                        segment_sums(buf, starts, 0, None, out)
                    if pull is not sums:
                        pull[: end - k, heard] = sums[: end - k]
                    for j, pulled in zip(range(k - c, end - c), pull_rows):
                        now = rows[j]
                        mul(inflow, now, tmp)
                        sub(pulled, tmp, tmp)
                        mul(rate, tmp, tmp)
                        xdot = add(stats, tmp, deriv_rows[j])
                        mul(steps_s, xdot, tmp)
                        add(now, tmp, rows[j + 1])
        bad = np.flatnonzero(~np.isfinite(derivs[:steps]).all(axis=1))
        if bad.size:
            step = start + int(bad[0])
            raise SimulationDiverged(f"non-finite derivative at step {step}", step=step)
        yield start, x[m_max : m_max + steps], derivs[:steps]


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


def detect_consensus(derivs: np.ndarray) -> ConsensusVerdict:
    """Classify the terminal behavior of a run's ``(steps, n)`` derivatives.

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
    if len(derivs) <= WINDOW:
        raise ValueError(f"trajectory ({len(derivs)} steps) must be longer than window {WINDOW}")
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


@functools.cache
def _digits4() -> np.ndarray:
    """The ASCII digits of 0000 .. 9999, four bytes to a uint32."""
    quads = 48 + np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    return quads.astype(np.uint8).view(np.uint32).ravel()


def _scaled(a: np.ndarray, k: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``a * 10**k`` exactly, as the rounded product and its error (Dekker's TwoProduct)."""
    hi = a * _POW10.take(k)
    c = 134217729.0 * a  # Veltkamp's split at 2**27 + 1
    ah = c - (c - a)
    al = a - ah
    bh, bl = _POW10_HEAD.take(k), _POW10_TAIL.take(k)
    return hi, (((ah * bh - hi) + ah * bl) + al * bh) + al * bl


def _nearest(unit, whole, top, lo, h, up) -> "tuple[np.ndarray, ...]":
    """The multiple of ``unit`` nearest ``y = top + lo``, whether it reads back, and
    whether that is unsure (within ``2**-40 * h`` of the interval's edge)."""
    q = whole // unit
    cand = q * unit
    rest = whole - cand
    half = unit // 2
    # y exactly halfway rounds to the even multiple.
    cand += unit * ((rest > half) | ((rest == half) & (up | (q & 1 == 1))))
    miss = np.abs((cand - top).astype(np.float64) - lo)
    return cand, miss < h, np.abs(miss - h) <= h * 2.0**-40


def _shortest(values: np.ndarray) -> "tuple[np.ndarray, ...]":
    """``repr``'s digits of each float64 of ``values``, where the kernel is sure of them.

    Returns a mask of the sure values and, for those, the seventeen digits
    (the text's, then ``zeros`` zeros) and the decimal point's position.

    A value with ``1e-4 <= |x| < 1e16`` (where ``repr`` is positional) and
    a nonzero mantissa field is scaled exactly, ``y = |x| * 10**k = hi + lo``
    in ``[1e16, 1e17)``; every decimal within ``h``, half its spacing times
    ``10**k``, reads back as ``x``.  The interval is symmetric, so it holds
    a multiple of ``10**j`` exactly when it holds the closest one, and the
    last such candidate is the shortest, closest text: ``repr``'s.  A tie
    between two candidates goes to the even one, as in ``repr``.  Values
    within ``2**-40 * h`` of the edge, zeros, non-finite, subnormal and
    power-of-two values (asymmetric intervals), and values outside the
    range are not sure.
    """
    bits, mag = values.view(np.int64), np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e16) & (bits & (2**52 - 1) != 0)
    a = np.where(fast, mag, 1.5)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    below, above = (hi < 1e16) | ((hi == 1e16) & (lo < 0)), (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if below.any() or above.any():
        k += below.astype(np.intp) - above
        hi, lo = _scaled(a, k)
    # h: half the spacing of a, 2**(e - 53) for its exponent e, times 10**k.
    h = ((a.view(np.int64) & (0x7FF << 52)) - (53 << 52)).view(np.float64) * _POW10.take(k)
    top, frac = hi.astype(np.int64), np.floor(lo)
    whole, up, mid = top + frac.astype(np.int64), lo != frac, frac + 0.5
    # Seventeen digits always fit (h > 0.55): y rounded half to even.
    digits = whole + ((lo > mid) | ((lo == mid) & (whole & 1 == 1)))
    # A multiple of 10**j that reads back is one of 10**(j - 1) too, so the
    # kept j run from 1 to the last one.  j = 1 runs over the block, j = 2
    # over its keepers, and their keepers bisect j in [2, 17).  A bisection
    # tests the last kept j and the first dropped one, which decide the text.
    cand, keep, unsure = _nearest(10, whole, top, lo, h, up)
    np.copyto(digits, cand, where=keep)
    zeros, live = keep.astype(np.int64), np.flatnonzero(keep)
    whole, top, lo, h, up = whole[live], top[live], lo[live], h[live], up[live]
    cand, keep, edge = _nearest(100, whole, top, lo, h, up)
    unsure[live[edge]] = True
    pos = np.flatnonzero(keep)
    live = live[pos]
    if live.size:
        whole, top, lo, h, up, best = whole[pos], top[pos], lo[pos], h[pos], up[pos], cand[pos]
        low, high = np.full(live.size, 2), np.full(live.size, 17)
        for _ in range(4):  # halves the gap of 17 - 2 down to 1
            j = (low + high) >> 1
            cand, keep, edge = _nearest(_POW10_INT.take(j), whole, top, lo, h, up)
            unsure[live[edge]] = True
            np.copyto(best, cand, where=keep)
            np.copyto(low, j, where=keep)
            np.copyto(high, j, where=~keep)
        digits[live], zeros[live] = best, low
    # No kept candidate is 10**17: no power of ten in range has its nearest double below it.
    return fast & ~unsure, digits, zeros, 17 - k


def _repr_text(values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``repr`` of each float64 of ``values``: ``(len, _CSV_WIDTH)`` uint8 rows and lengths.

    The digits come from :func:`_shortest`, whose temporaries are freed
    before the layout's arrays are made; the values it is not sure of take
    ``repr``, once per distinct bit pattern.
    """
    sure, digits, zeros, point = _shortest(values)
    n, bits = values.size, values.view(np.int64)
    neg = bits < 0
    length = neg + np.maximum(point, 1) + 1 + np.maximum(17 - zeros - point, 1)

    # Sort the values into runs of one (sign, decimal point) layout; key 0 falls back.
    key = np.where(sure, neg * 32 + point + 4, 0).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    counts, digits = np.bincount(key), digits.take(order)
    # The ASCII digits from a lead digit ("000d") and four groups of four.
    head = digits // 10**8
    lead = head // 10**8
    quads, table = np.empty((n, 5), np.uint32), _digits4()
    quads[:, 0] = table.take(lead)
    for col, part in ((1, head - lead * 10**8), (3, digits - head * 10**8)):
        upper = part // 10**4
        quads[:, col], quads[:, col + 1] = table.take(upper), table.take(part - upper * 10**4)
    ascii, text = quads.view(np.uint8)[:, 3:], np.empty((n, _CSV_WIDTH), np.uint8)
    text[:, 0] = 45  # "-", overwritten when positive
    ends = np.cumsum(counts).tolist()
    for run in np.flatnonzero(counts[1:]).tolist():
        out, d = text[ends[run] : ends[run + 1]], ascii[ends[run] : ends[run + 1]]
        s, p = divmod(run + 1, 32)
        p -= 4
        if p > 0:
            out[:, s : s + p], out[:, s + p], out[:, s + p + 1 : s + 18] = d[:, :p], 46, d[:, p:]
        else:
            out[:, s : s + 2 - p] = np.frombuffer(b"0.000", np.uint8)[: 2 - p]
            out[:, s + 2 - p : s + 19 - p] = d

    slow = order[: counts[0]]
    if slow.size:
        distinct, which = np.unique(bits[slow], return_inverse=True)
        reprs = list(map(repr, distinct.view(np.float64).tolist()))
        padded = "".join(r.ljust(_CSV_WIDTH) for r in reprs).encode()
        text[: slow.size] = np.frombuffer(padded, np.uint8).reshape(-1, _CSV_WIDTH)[which]
        length[slow] = np.fromiter(map(len, reprs), np.int64, len(reprs))[which]
    back = np.empty(n, np.intp)
    back[order] = np.arange(n)
    return text.take(back, axis=0), length


def _csv_block(columns: "list[np.ndarray]") -> np.ndarray:
    """CSV bytes of the rows of the side-by-side columns.

    The bytes come back as a uint8 array, which a binary file writes as it
    is.  Every value is written as its ``repr``; integer columns (exact as
    floats below 2**53) drop the ``.0``.
    """
    ints = np.concatenate([np.full(c[0].size, c.dtype.kind in "iu") for c in columns])
    block = np.column_stack(columns).astype(np.float64, copy=False)
    if np.any(np.abs(block[:, ints]) >= 2.0**53):
        raise ValueError("integer CSV columns must stay below 2**53 in magnitude")
    text, length = _repr_text(block.ravel())
    length = length.reshape(block.shape) - 2 * ints
    text = text.reshape(*block.shape, _CSV_WIDTH)
    ends = np.full((block.shape[1], 1), ord(","), np.uint8)
    ends[-1] = ord("\n")
    np.put_along_axis(text, length[..., None], ends, axis=2)
    return text[_CSV_PREFIX.take(length, axis=0)]


def _csv_blocks(columns: "tuple[np.ndarray, ...]"):
    """Yield the CSV bytes of the side-by-side columns, ``_CSV_BLOCK_VALUES`` at a time.

    Blocks are formatted independently, so the bytes do not depend on the
    block size, and a block's temporaries do not grow with the table.
    """
    width = sum(math.prod(col.shape[1:]) for col in columns)
    rows = max(1, _CSV_BLOCK_VALUES // width)
    for start in range(0, len(columns[0]), rows):
        yield _csv_block([col[start : start + rows] for col in columns])


def _write_csv(path: "str | Path", header: str, columns: "tuple[np.ndarray, ...]") -> None:
    """Write ``header`` and the rows of the side-by-side columns at full precision.

    Rows are formatted and written one block at a time, so the whole text
    is never held in memory.
    """
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for block in _csv_blocks(columns):
            f.write(block)


def write_trajectory_csv(traj: Trajectory, path: "str | Path") -> None:
    """Write ``t,x_0..x_{n-1},xdot_0..xdot_{n-1}`` rows at full precision."""
    n = traj.n
    header = "t," + ",".join(f"x_{i}" for i in range(n)) + "," + ",".join(
        f"xdot_{i}" for i in range(n)
    )
    _write_csv(path, header, (traj.times, traj.states, traj.derivs))

"""Random geometric sensor networks with radio-channel link gains.

Nodes are dropped uniformly in a square.  The gain of the directed link
``dst <- src`` follows the received-amplitude model
``sqrt(P_src * |h|^2 / d^eta)`` with ``|h| = 1`` when fading is disabled;
with Rayleigh fading the amplitude is drawn so that its mean square equals
``P_src / (1 + d^2)``.  A link exists when its amplitude clears the hearing
threshold.  Link delays are ``delay_offset_s + d / wave_speed``.

All draws derive from ``RadioConfig.seed``; a fixed config reproduces the
same network bit for bit.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .digraph import ConnectivityClass, Digraph, classify

__all__ = [
    "Fading",
    "RadioConfig",
    "GeneratedNetwork",
    "GenerationBudgetError",
    "place_nodes",
    "build_channel",
    "ensure_connectivity",
]

# Seed-stream tags, one per kind of draw: stream (seed, tag, *index) is SeedSequence of them.
_PLACEMENT_TAG = 0  # a network's node positions
_FADING_TAG = 1  # its Rayleigh amplitudes
_ATTEMPT_TAG = 2  # the seed of each connectivity attempt
_RUN_TAG = 7  # the seed of each estimation-study run's network
_NOISE_TAG = 8  # each estimation-study run's observation noise
_INIT_TAG = 9  # the CLI's random initial history
_TRUTH_TAG = 10  # the CLI's observations drawn around a params file's truth


class Fading(str, Enum):
    NONE = "NONE"
    RAYLEIGH = "RAYLEIGH"


class GenerationBudgetError(RuntimeError):
    """Connectivity target not reached within the attempt budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):
        return type(self), (self.args[0], self.attempts)


@dataclass(frozen=True)
class RadioConfig:
    """Geometry, channel, and determinism knobs for network generation.

    ``tx_power`` is a scalar or a per-node tuple.  ``delay_span_s``, when
    set, overrides ``wave_speed`` per draw so the largest pairwise
    propagation delay equals exactly that many seconds (the square's size
    then only fixes the geometry's shape, not the delay scale).
    """

    n: int
    area_side: float = 1.0
    tx_power: "float | tuple[float, ...]" = 1.0
    path_loss_exponent: float = 2.0
    hear_threshold: float = 0.0
    fading: Fading = Fading.NONE
    wave_speed: float = 299_792_458.0
    delay_offset_s: float = 0.0
    delay_span_s: "float | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.area_side < 0 or not np.isfinite(self.area_side):
            raise ValueError("area_side must be finite and nonnegative")
        # Negated comparisons, so NaN fails them; an infinite wave speed
        # (zero delays) passes.
        if not self.hear_threshold >= 0:
            raise ValueError("hear_threshold must be nonnegative")
        if not self.path_loss_exponent >= 0:
            raise ValueError("path_loss_exponent must be nonnegative")
        if not self.wave_speed > 0:
            raise ValueError("wave_speed must be positive")
        if not self.delay_offset_s >= 0:
            raise ValueError("delay_offset_s must be nonnegative")
        if self.delay_span_s is not None and not self.delay_span_s >= 0:
            raise ValueError("delay_span_s must be nonnegative")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        powers = self.power_vector()
        if powers.shape != (self.n,) or np.any(powers <= 0) or not np.all(np.isfinite(powers)):
            raise ValueError("tx_power must be positive and scalar or one value per node")

    def power_vector(self) -> np.ndarray:
        if np.isscalar(self.tx_power):
            return np.full(self.n, float(self.tx_power))
        return np.asarray(self.tx_power, dtype=float)


@dataclass(frozen=True)
class GeneratedNetwork:
    """One accepted draw from :func:`ensure_connectivity`."""

    graph: Digraph
    positions: np.ndarray
    hear_threshold: float
    attempts: int
    seed: int


def _rng(*entropy: int) -> np.random.Generator:
    """The generator of seed stream ``entropy``: a seed, its tag and any index."""
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _child_seed(*entropy: int) -> int:
    """One seed drawn from stream ``entropy``, for a draw that splits its own streams."""
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def place_nodes(cfg: RadioConfig) -> np.ndarray:
    """Uniform node positions in ``[0, area_side]^2``, shape ``(n, 2)``."""
    rng = _rng(cfg.seed, _PLACEMENT_TAG)
    return rng.uniform(0.0, cfg.area_side, size=(cfg.n, 2))


def _distances(positions: np.ndarray) -> np.ndarray:
    """Pairwise distances, in place: the same bits as summing the squared differences."""
    x, y = np.asarray(positions, dtype=float).T
    dist, dy = x[:, None] - x, y[:, None] - y
    dist *= dist
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _wave_speed(cfg: RadioConfig, dist: np.ndarray) -> float:
    """Wave speed used for the geometry of pairwise distances ``dist`` (see ``delay_span_s``)."""
    if cfg.delay_span_s is None:
        return cfg.wave_speed
    d_max = float(dist.max())
    # A lone node has no links, so no delay for the span to set.
    if cfg.delay_span_s == 0.0 or cfg.n == 1:
        return float("inf")
    if d_max == 0.0:
        raise ValueError("cannot solve wave speed: all nodes are coincident")
    return d_max / cfg.delay_span_s


def build_channel(cfg: RadioConfig, positions: np.ndarray) -> Digraph:
    """Realize link gains and delays for fixed node positions.

    Directed pairs are gated independently: ``a[dst, src]`` and
    ``a[src, dst]`` are separate draws under Rayleigh fading.  Edges are
    emitted in row-major ``(dst, src)`` order, deterministically in
    ``cfg.seed``.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (cfg.n, 2):
        raise ValueError(f"positions must have shape ({cfg.n}, 2)")
    dist = _distances(positions)
    powers = cfg.power_vector()

    # Each n x n array is built in place: at n = 640 one costs 3.3 MB.
    if cfg.fading is Fading.NONE:
        eta = cfg.path_loss_exponent
        # The diagonal of dist is exactly 0, so a further 0 is a coincident pair.
        if eta > 0 and np.count_nonzero(dist == 0.0) > cfg.n:
            raise ValueError("coincident nodes give infinite gain under pure path loss")
        amp = dist.copy()
        np.fill_diagonal(amp, 1.0)
        amp **= eta
        np.divide(powers, amp, out=amp)
        np.sqrt(amp, out=amp)
    else:
        # Mean-square amplitude P_src / (1 + d^2); Rayleigh scale follows.
        scale = np.square(dist)
        scale += 1.0
        scale *= 2.0
        np.divide(powers, scale, out=scale)
        np.sqrt(scale, out=scale)
        amp = _rng(cfg.seed, _FADING_TAG).rayleigh(scale=1.0, size=(cfg.n, cfg.n))
        amp *= scale
        del scale

    wave = _wave_speed(cfg, dist)
    heard = amp >= cfg.hear_threshold
    heard &= amp > 0.0
    np.fill_diagonal(heard, False)
    # Boolean indexing and np.nonzero both walk the matrix in row-major
    # order.  The n x n arrays go before the per-link ones are made.
    gain = amp[heard]
    del amp
    delay = dist[heard]
    del dist
    delay /= wave  # an infinite wave speed gives zero delays
    delay += cfg.delay_offset_s
    dst, src = np.nonzero(heard)
    return Digraph.from_arrays(cfg.n, dst, src, gain, delay)


def ensure_connectivity(
    cfg: RadioConfig,
    target: str = "SC",
    *,
    max_attempts: int = 32,
    threshold_decay: float = 0.7,
) -> GeneratedNetwork:
    """Draw networks until the requested connectivity class holds.

    ``target`` is ``"SC"`` (strongly connected) or ``"QSC"`` (a single
    root component influences everything; SC qualifies).  Each failed
    attempt switches to a fresh seed stream and lowers the hearing
    threshold by ``threshold_decay``.  Raises
    :class:`GenerationBudgetError` after ``max_attempts`` failures.
    """
    if target not in ("SC", "QSC"):
        raise ValueError(f'target must be "SC" or "QSC", got {target!r}')
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if not (0.0 < threshold_decay <= 1.0):
        raise ValueError("threshold_decay must be in (0, 1]")

    accepted = (
        (ConnectivityClass.SC,)
        if target == "SC"
        else (ConnectivityClass.SC, ConnectivityClass.QSC_NOT_SC)
    )
    threshold = cfg.hear_threshold
    for attempt in range(1, max_attempts + 1):
        child = _child_seed(cfg.seed, _ATTEMPT_TAG, attempt)
        trial = dataclasses.replace(cfg, seed=child, hear_threshold=threshold)
        positions = place_nodes(trial)
        graph = build_channel(trial, positions)
        if classify(graph).kind in accepted:
            return GeneratedNetwork(
                graph=graph,
                positions=positions,
                hear_threshold=threshold,
                attempts=attempt,
                seed=child,
            )
        threshold *= threshold_decay
    raise GenerationBudgetError(
        f"no {target} draw within {max_attempts} attempts (last threshold {threshold:.3g})",
        attempts=max_attempts,
    )

"""Reference experiments: preset topology studies and the estimation study.

Two fixed topologies exercise the qualitative regimes: ``chain`` is a
quasi-strongly connected digraph of three cycle components in a line, so
every derivative locks to the root component's rate; ``forest`` has two
independent root trees feeding a shared middle cycle, so the trees settle
to different rates and the middle nodes drift to intermediate mixtures.

The Monte Carlo estimation study drops random sensor networks, runs the
delay-coupled estimator, and compares four estimates of a common scalar:
(a) centralized optimal, (b) network with delays removed, (c) network with
delays, (d) the two-step debiased network estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import centralized_ml, ml_setup, predict, ConsensusPrediction
from .digraph import Digraph, disjoint_union
from .dynamics import (
    ConsensusVerdict,
    NodeParams,
    SimConfig,
    SimulationDiverged,
    Trajectory,
    _integrate,
    _write_csv,
    detect_consensus,
    simulate,
)
from .netgen import (
    _NOISE_TAG,
    _RUN_TAG,
    Fading,
    GenerationBudgetError,
    RadioConfig,
    _child_seed,
    _rng,
    ensure_connectivity,
)

__all__ = [
    "PRESETS",
    "preset_network",
    "TopologyStudyResult",
    "run_topology_study",
    "EstimationConfig",
    "McSummary",
    "run_estimation_study",
]

_CURVES = "abcd"  # the estimate curves, lettered as in McSummary

# The estimation study simulates consecutive runs as one disjoint union of
# at most this many links, about 7 default runs (40 nodes, 3 copies of
# about 1.5k links each).  The default 100-run study took 8.9 s of CPU one
# run at a time, and 8.7, 6.6, 6.6, 7.7 and 7.2 s at budgets of 2**13 to
# 2**17 links (medians of 3 on a noisy 2-core host): past 2**15 a step is
# bound by its links, not by call overhead, and peak RSS grows (64 → 117 MB).
_PASS_LINKS = 2**15
# Steps per block of an estimation pass; only the node means of a block are
# kept, so a pass holds one window of states, not the whole horizon.  On the
# same 100-run study the whole 3000-step horizon in one block reached a peak
# RSS of 91 MB against 64 MB with 1024-step blocks, at no gain in time.
_PASS_WINDOW = 1024


# Each preset's (nodes, listeners, sources, stats): unit-gain links, link k
# carrying sources[k] to listeners[k], all with the preset's uniform delay.
_PRESET_LINKS = {
    # Three 3-cycles in a line, 0 -> 1 -> 2, 3 -> 4 -> 5 and 6 -> 7 -> 8;
    # 3 hears the first cycle and 6 the second, so only the first
    # influences all.
    "chain": (9, (1, 2, 0, 4, 5, 3, 7, 8, 6, 3, 6), (0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3),
              (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)),
    # Two root trees 0 -> {1, 2} and 3 -> {4, 5}, and a middle 2-cycle
    # {6, 7} in which 6 hears leaf 1 and 7 hears leaf 4.
    "forest": (8, (1, 2, 4, 5, 6, 7, 6, 7), (0, 0, 3, 3, 7, 6, 1, 4),
               (2.0, 0.5, 1.0, 4.0, 3.5, 3.0, 1.5, 2.5)),
}
PRESETS = tuple(_PRESET_LINKS)


def preset_network(name: str, *, delay_s: float) -> tuple[Digraph, NodeParams]:
    """Build a preset topology with a uniform link delay (seconds)."""
    if name not in _PRESET_LINKS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    n, dst, src, stats = _PRESET_LINKS[name]
    g = Digraph.from_arrays(n, dst, src, np.ones(len(dst)), np.full(len(dst), delay_s))
    return g, NodeParams(weights=np.ones(n), stats=stats)


@dataclass(frozen=True)
class TopologyStudyResult:
    graph: Digraph
    params: NodeParams
    trajectory: Trajectory
    verdict: ConsensusVerdict
    prediction: ConsensusPrediction

    def report_json_dict(self) -> dict:
        """Prediction report with the detected behavior overlaid."""
        doc = self.prediction.to_json_dict()
        doc["detected"] = self.verdict.to_json_dict()
        return doc


def run_topology_study(
    preset: "str | None" = "chain",
    *,
    graph: "Digraph | None" = None,
    params: "NodeParams | None" = None,
    coupling: float = 30.0,
    step_s: float = 1e-3,
    lag_steps: int = 50,
    horizon: int = 10000,
) -> TopologyStudyResult:
    """Simulate one topology and pair the run with its closed-form rates.

    Either ``preset`` names a built-in topology (its uniform delay is
    ``lag_steps * step_s``) or an explicit ``graph`` and ``params`` pair is
    supplied; mixing the two is an error.
    """
    if (graph is None) != (params is None):
        raise ValueError("graph and params must be given together")
    if graph is not None and preset is not None:
        raise ValueError("give either a preset or an explicit graph, not both")
    if graph is None:
        if preset is None:
            raise ValueError("no preset and no graph given")
        if lag_steps < 0:
            raise ValueError("lag_steps must be nonnegative")
        graph, params = preset_network(preset, delay_s=lag_steps * step_s)

    cfg = SimConfig(coupling=coupling, step_s=step_s, horizon=horizon)
    traj = simulate(graph, params, cfg)
    verdict = detect_consensus(traj.derivs)
    prediction = predict(graph, params, coupling, quantize_step=step_s)
    return TopologyStudyResult(
        graph=graph, params=params, trajectory=traj, verdict=verdict, prediction=prediction
    )


@dataclass(frozen=True)
class EstimationConfig:
    """Knobs for the Monte Carlo estimation study.

    Defaults follow the reference setup: 40 nodes in a unit square,
    Rayleigh link amplitudes with unit transmit power, wave speed solved
    per draw so the largest propagation delay spans ``delay_span_steps``
    integration steps, every node observing the same scalar with unit
    amplitude and unit noise variance.  The coupling gain default keeps
    the step-size guard quiet at these powers.
    """

    nodes: int = 40
    runs: int = 100
    coupling: float = 1.0
    step_s: float = 1e-3
    horizon: int = 3000
    delay_span_steps: int = 100
    hear_threshold: float = 0.1
    tx_power: float = 1.0
    amplitude: float = 1.0
    noise_var: float = 1.0
    truth: float = 1.0
    seed: int = 0
    max_attempts: int = 64

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("nodes must be at least 2")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 steps")
        if self.delay_span_steps < 0:
            raise ValueError("delay_span_steps must be nonnegative")
        if self.amplitude == 0:
            raise ValueError("amplitude must be nonzero")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")


@dataclass(frozen=True)
class McSummary:
    """Per-step Monte Carlo statistics for the four estimate curves.

    Curve letters: a = centralized optimal, b = no-delay network,
    c = delayed network, d = two-step debiased.  ``mean_*``/``std_*`` hold
    per-step statistics over runs (population std); ``finals_*`` hold the
    last-step value of every run.  ``ml_variance`` is the closed-form
    variance of the centralized estimate.
    """

    steps: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    mean_c: np.ndarray
    mean_d: np.ndarray
    std_a: np.ndarray
    std_b: np.ndarray
    std_c: np.ndarray
    std_d: np.ndarray
    finals_a: np.ndarray
    finals_b: np.ndarray
    finals_c: np.ndarray
    finals_d: np.ndarray
    runs: int
    truth: float
    ml_variance: float

    def write_csv(self, path: "str | Path") -> None:
        names = [f"{stat}_{c}" for stat in ("mean", "std") for c in _CURVES]
        _write_csv(path, ",".join(["step", *names]),
                   (self.steps, *(getattr(self, name) for name in names)))

    def summary_dict(self) -> dict:
        doc = {"runs": self.runs, "truth": self.truth, "ml_variance": self.ml_variance}
        for stat in ("mean", "std"):
            doc.update({f"final_{stat}_{c}": float(getattr(self, f"{stat}_{c}")[-1])
                        for c in _CURVES})
        se = self.runs**0.5
        doc.update({f"final_se_{c}": float(getattr(self, f"std_{c}")[-1] / se) for c in _CURVES})
        return doc


def _estimation_pass(runs: "list[tuple[int, Digraph, NodeParams]]", sim_cfg: SimConfig,
                     curves: "dict[str, np.ndarray]") -> None:
    """Simulate consecutive runs as one union and fill their curves b, c and d.

    Each run contributes three copies of its network: no delay (b), delayed
    (c) and the delayed all-ones reference that debiases c into d.  Nodes
    never mix across copies, so each copy's derivatives equal a separate
    run's bit for bit; only each copy's node mean is kept, block by block.
    """
    graphs, weights, stats = [], [], []
    for _, g, params in runs:
        graphs += [g.with_delays(0.0), g, g]
        weights += [params.weights] * 3
        stats += [params.stats, params.stats, np.ones(g.n)]
    union = disjoint_union(graphs)
    copies = NodeParams(weights=np.concatenate(weights), stats=np.concatenate(stats))
    first, last, n = runs[0][0], runs[-1][0], runs[0][1].n
    rows = slice(first, last + 1)
    try:
        for start, _, derivs in _integrate(union, copies, sim_cfg, _PASS_WINDOW):
            cols = slice(start, start + len(derivs))
            means = derivs.reshape(len(derivs), len(runs), 3, n).mean(axis=3).T
            curves["b"][rows, cols] = means[0]
            curves["c"][rows, cols] = means[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                curves["d"][rows, cols] = means[1] / means[2]
    except SimulationDiverged as exc:
        which = f"run {first}" if first == last else f"runs {first}-{last}"
        raise SimulationDiverged(f"{which}: {exc}", step=exc.step) from exc


def run_estimation_study(cfg: EstimationConfig = EstimationConfig()) -> McSummary:
    """Monte Carlo over random sensor networks; returns per-step statistics.

    Each run draws a strongly connected Rayleigh network, observes
    ``y_i = amplitude * truth + noise``, and tracks the node-mean state
    derivative over time for the no-delay network (b), the delayed network
    (c), and the two-step debiased ratio (d) against the centralized
    estimate (a).  A run that cannot reach strong connectivity within the
    attempt budget aborts with its run index; a pass that diverges raises
    :class:`SimulationDiverged` naming its runs and the first non-finite step.
    """
    horizon = cfg.horizon
    sim_cfg = SimConfig(coupling=cfg.coupling, step_s=cfg.step_s, horizon=horizon)
    amps = np.full(cfg.nodes, float(cfg.amplitude))
    variances = np.full(cfg.nodes, float(cfg.noise_var))

    curves = {key: np.empty((cfg.runs, horizon)) for key in _CURVES}
    ml_variance = float(cfg.noise_var / (cfg.nodes * cfg.amplitude**2))

    pending: "list[tuple[int, Digraph, NodeParams]]" = []  # runs of the open pass
    links = 0
    for run in range(cfg.runs):
        radio = RadioConfig(
            n=cfg.nodes,
            area_side=1.0,
            tx_power=cfg.tx_power,
            hear_threshold=cfg.hear_threshold,
            fading=Fading.RAYLEIGH,
            delay_span_s=cfg.delay_span_steps * cfg.step_s,
            seed=_child_seed(cfg.seed, _RUN_TAG, run),
        )
        try:
            net = ensure_connectivity(radio, "SC", max_attempts=cfg.max_attempts)
        except GenerationBudgetError as exc:
            raise GenerationBudgetError(
                f"run {run}: {exc}", attempts=exc.attempts
            ) from exc

        noise = _rng(cfg.seed, _NOISE_TAG, run).normal(0.0, np.sqrt(variances))
        obs = amps * cfg.truth + noise
        params = ml_setup(amps, variances, obs)

        central, _ = centralized_ml(amps, variances, obs)
        curves["a"][run] = central

        if pending and links + 3 * net.graph.dst.size > _PASS_LINKS:
            _estimation_pass(pending, sim_cfg, curves)
            pending, links = [], 0
        pending.append((run, net.graph, params))
        links += 3 * net.graph.dst.size
    _estimation_pass(pending, sim_cfg, curves)

    steps = np.arange(horizon)
    stats = {}
    for key, mat in curves.items():
        stats[f"mean_{key}"] = mat.mean(axis=0)
        stats[f"std_{key}"] = mat.std(axis=0, ddof=0)
        stats[f"finals_{key}"] = mat[:, -1].copy()
    return McSummary(
        steps=steps,
        runs=cfg.runs,
        truth=cfg.truth,
        ml_variance=ml_variance,
        **stats,
    )

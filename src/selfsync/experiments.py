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
from .digraph import Digraph, Edge
from .dynamics import (
    ConsensusVerdict,
    NodeParams,
    SimConfig,
    Trajectory,
    _write_csv,
    detect_consensus,
    simulate,
)
from .netgen import (
    Fading,
    GenerationBudgetError,
    RadioConfig,
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

_RUN_TAG = 7
_NOISE_TAG = 8


def _cycle_edges(nodes: "tuple[int, ...]", gain: float, delay: float) -> list[Edge]:
    k = len(nodes)
    return [Edge(nodes[(i + 1) % k], nodes[i], gain, delay) for i in range(k)]


def _chain_network(delay_s: float) -> tuple[Digraph, NodeParams]:
    """Three unit-gain 3-cycles in a line; only the first influences all."""
    edges = []
    edges += _cycle_edges((0, 1, 2), 1.0, delay_s)
    edges += _cycle_edges((3, 4, 5), 1.0, delay_s)
    edges += _cycle_edges((6, 7, 8), 1.0, delay_s)
    edges.append(Edge(3, 0, 1.0, delay_s))  # second component hears the first
    edges.append(Edge(6, 3, 1.0, delay_s))  # third hears the second
    g = Digraph(9, tuple(edges))
    params = NodeParams(weights=np.ones(9), stats=np.arange(1.0, 10.0))
    return g, params


def _forest_network(delay_s: float) -> tuple[Digraph, NodeParams]:
    """Two root trees plus a middle 2-cycle hearing one leaf of each tree."""
    edges = [
        Edge(1, 0, 1.0, delay_s),  # tree one: root 0 -> children 1, 2
        Edge(2, 0, 1.0, delay_s),
        Edge(4, 3, 1.0, delay_s),  # tree two: root 3 -> children 4, 5
        Edge(5, 3, 1.0, delay_s),
        Edge(6, 7, 1.0, delay_s),  # middle 2-cycle {6, 7}
        Edge(7, 6, 1.0, delay_s),
        Edge(6, 1, 1.0, delay_s),  # middle hears both trees
        Edge(7, 4, 1.0, delay_s),
    ]
    g = Digraph(8, tuple(edges))
    stats = np.array([2.0, 0.5, 1.0, 4.0, 3.5, 3.0, 1.5, 2.5])
    params = NodeParams(weights=np.ones(8), stats=stats)
    return g, params


PRESETS = ("chain", "forest")


def preset_network(name: str, *, delay_s: float) -> tuple[Digraph, NodeParams]:
    """Build a preset topology with a uniform link delay (seconds)."""
    if name == "chain":
        return _chain_network(delay_s)
    if name == "forest":
        return _forest_network(delay_s)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")


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
    verdict = detect_consensus(traj)
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
        header = "step,mean_a,mean_b,mean_c,mean_d,std_a,std_b,std_c,std_d"
        # As objects, the steps stay integers when stacked with the floats.
        cols = (
            self.steps.astype(object),
            self.mean_a, self.mean_b, self.mean_c, self.mean_d,
            self.std_a, self.std_b, self.std_c, self.std_d,
        )
        _write_csv(path, header, cols)

    def summary_dict(self) -> dict:
        se = self.runs**0.5
        return {
            "runs": self.runs,
            "truth": self.truth,
            "ml_variance": self.ml_variance,
            "final_mean_a": float(self.mean_a[-1]),
            "final_mean_b": float(self.mean_b[-1]),
            "final_mean_c": float(self.mean_c[-1]),
            "final_mean_d": float(self.mean_d[-1]),
            "final_std_a": float(self.std_a[-1]),
            "final_std_b": float(self.std_b[-1]),
            "final_std_c": float(self.std_c[-1]),
            "final_std_d": float(self.std_d[-1]),
            "final_se_a": float(self.std_a[-1] / se),
            "final_se_b": float(self.std_b[-1] / se),
            "final_se_c": float(self.std_c[-1] / se),
            "final_se_d": float(self.std_d[-1] / se),
        }


def _run_seed(seed: int, tag: int, run: int) -> int:
    return int(np.random.SeedSequence([seed, tag, run]).generate_state(1)[0])


def run_estimation_study(cfg: EstimationConfig = EstimationConfig()) -> McSummary:
    """Monte Carlo over random sensor networks; returns per-step statistics.

    Each run draws a strongly connected Rayleigh network, observes
    ``y_i = amplitude * truth + noise``, and tracks the node-mean state
    derivative over time for the no-delay network (b), the delayed network
    (c), and the two-step debiased ratio (d) against the centralized
    estimate (a).  A run that cannot reach strong connectivity within the
    attempt budget aborts with its run index.
    """
    horizon = cfg.horizon
    sim_cfg = SimConfig(coupling=cfg.coupling, step_s=cfg.step_s, horizon=horizon)
    amps = np.full(cfg.nodes, float(cfg.amplitude))
    variances = np.full(cfg.nodes, float(cfg.noise_var))
    ones = np.ones(cfg.nodes)

    curves = {key: np.empty((cfg.runs, horizon)) for key in ("a", "b", "c", "d")}
    ml_variance = float(cfg.noise_var / (cfg.nodes * cfg.amplitude**2))

    for run in range(cfg.runs):
        radio = RadioConfig(
            n=cfg.nodes,
            area_side=1.0,
            tx_power=cfg.tx_power,
            hear_threshold=cfg.hear_threshold,
            fading=Fading.RAYLEIGH,
            delay_span_s=cfg.delay_span_steps * cfg.step_s,
            seed=_run_seed(cfg.seed, _RUN_TAG, run),
        )
        try:
            net = ensure_connectivity(radio, "SC", max_attempts=cfg.max_attempts)
        except GenerationBudgetError as exc:
            raise GenerationBudgetError(
                f"run {run}: {exc}", attempts=exc.attempts
            ) from exc

        noise_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _NOISE_TAG, run])
        )
        obs = amps * cfg.truth + noise_rng.normal(0.0, np.sqrt(variances))
        params = ml_setup(amps, variances, obs)

        central, _ = centralized_ml(amps, variances, obs)
        curves["a"][run] = central

        # One pass over three disjoint copies: no-delay (b), delayed (c) and
        # the delayed all-ones reference that debiases c into d.  Nodes
        # never mix across copies, so each copy's states equal a separate
        # run's bit for bit.
        g, n = net.graph, cfg.nodes
        union = Digraph.from_arrays(
            3 * n,
            np.concatenate([g.dst, g.dst + n, g.dst + 2 * n]),
            np.concatenate([g.src, g.src + n, g.src + 2 * n]),
            np.tile(g.gain, 3),
            np.concatenate([np.zeros_like(g.delay_s), g.delay_s, g.delay_s]),
        )
        copies = NodeParams(
            weights=np.tile(params.weights, 3),
            stats=np.concatenate([params.stats, params.stats, ones]),
        )
        means = simulate(union, copies, sim_cfg).derivs.reshape(horizon, 3, n).mean(axis=2)
        curves["b"][run] = means[:, 0]
        curves["c"][run] = means[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            curves["d"][run] = means[:, 1] / means[:, 2]

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

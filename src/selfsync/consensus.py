"""Closed-form synchronized-rate prediction, debiasing, and decision stages.

A quasi-strongly connected network of delay-coupled integrators settles to
a common state derivative.  That rate has a closed form built from the
Laplacian's left null vector ``gamma``, the node weights ``c``, statistics
``u``, coupling gain ``K``, and link delays ``tau``::

    omega = sum_i gamma_i c_i u_i
            / (sum_i gamma_i c_i + K * sum_i gamma_i sum_j a_ij tau_ij)

With several root components the same form applies per component, and only
nodes influenced by exactly one root inherit that component's rate.  The
delay term inflates the denominator, biasing the rate toward zero; running
the network a second time with all statistics set to one and dividing the
two rates cancels the inflation exactly, which is the two-step debias.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .digraph import ConnectivityClass, Digraph, classify, disjoint_union
from .dynamics import (
    NodeParams,
    SimConfig,
    VerdictKind,
    _history,
    _listeners,
    detect_consensus,
    quantize_delays,
    simulate,
)

__all__ = [
    "ClusterPrediction",
    "ConsensusPrediction",
    "DebiasMode",
    "DebiasResult",
    "DebiasError",
    "DegenerateDebiasError",
    "DecisionRule",
    "predict",
    "debias_two_step",
    "ml_setup",
    "centralized_ml",
]

# Reference rates smaller than this are too close to zero to divide by.
DEGENERATE_REFERENCE = 1e-12


@dataclass(frozen=True)
class ClusterPrediction:
    """Nodes driven by exactly one root component and their predicted rate."""

    members: tuple[int, ...]
    root: tuple[int, ...]
    omega: float


@dataclass(frozen=True)
class ConsensusPrediction:
    kind: ConnectivityClass
    clusters: tuple[ClusterPrediction, ...]
    global_omega: "float | None"
    unresolved: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "class": self.kind.value,
            "clusters": [
                {"members": list(c.members), "root": list(c.root), "omega": c.omega}
                for c in self.clusters
            ],
            "global_omega": self.global_omega,
            "unresolved": list(self.unresolved),
        }


def predict(
    g: Digraph,
    params: NodeParams,
    coupling: float,
    *,
    quantize_step: "float | None" = None,
) -> ConsensusPrediction:
    """Predict terminal derivative values per root-component cluster.

    ``quantize_step`` rounds delays to that step grid first (pass the
    simulator's ``step_s`` to predict exactly what a simulation converges
    to); ``None`` uses the nominal delays.  ``global_omega`` is set only
    when a single root component drives the whole network.  The prediction
    is invariant to how the influence vector is normalized.
    """
    report, delay_load = _closed_form_inputs(g, params, coupling, quantize_step)
    rates = _root_rates(report, params, coupling, delay_load)
    reach = report.reach
    owners = reach.sum(axis=0)

    clusters = []
    for k, (root_idx, omega) in enumerate(zip(report.root_sccs, rates)):
        members = tuple(np.flatnonzero(reach[k] & (owners == 1)).tolist())
        clusters.append(
            ClusterPrediction(members=members, root=tuple(report.sccs[root_idx]), omega=omega)
        )

    unresolved = tuple(np.flatnonzero(owners > 1).tolist())
    global_omega = clusters[0].omega if len(clusters) == 1 else None
    return ConsensusPrediction(
        kind=report.kind,
        clusters=tuple(clusters),
        global_omega=global_omega,
        unresolved=unresolved,
    )


def _closed_form_inputs(g: Digraph, params: NodeParams, coupling: float,
                        quantize_step: "float | None"):
    """Validate, then the report and each listener's gain-weighted delay sum.

    Like the report, the delay sum is computed once per ``quantize_step``
    and stored on the immutable graph, read-only, for every later call.
    """
    if params.n != g.n:
        raise ValueError(f"params are for {params.n} nodes, graph has {g.n}")
    if not np.isfinite(coupling) or coupling < 0:
        raise ValueError("coupling must be finite and nonnegative")
    report = classify(g)
    loads = vars(g).setdefault("_delay_loads", {})
    if quantize_step not in loads:
        if quantize_step is None:
            delays = g.delay_s
        else:
            delays = quantize_delays(g, quantize_step) * quantize_step
        load = np.bincount(g.dst, weights=g.gain * delays, minlength=g.n)
        load.flags.writeable = False
        loads[quantize_step] = load
    return report, loads[quantize_step]


def _root_rates(report, params: NodeParams, coupling: float, delay_load: np.ndarray) -> list:
    """The closed-form rate of each root component, in ``root_sccs`` order."""
    rates = []
    for root_idx in report.root_sccs:
        nodes = np.asarray(report.sccs[root_idx], dtype=int)
        block = report.influence[nodes]
        num = float(np.sum(block * params.weights[nodes] * params.stats[nodes]))
        den = float(
            np.sum(block * params.weights[nodes])
            + coupling * np.sum(block * delay_load[nodes])
        )
        rates.append(num / den)
    return rates


class DebiasMode(str, Enum):
    SIMULATED = "SIMULATED"
    ANALYTIC = "ANALYTIC"


class DebiasError(RuntimeError):
    """Two-step debias could not produce an estimate."""


class DegenerateDebiasError(DebiasError):
    """The all-ones reference rate is too close to zero to divide by."""


@dataclass(frozen=True)
class DebiasResult:
    estimate: float
    omega_stat: float
    omega_reference: float
    mode: DebiasMode

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "omega_stat": self.omega_stat,
            "omega_reference": self.omega_reference,
            "mode": self.mode.value,
        }


def debias_two_step(
    g: Digraph,
    params: NodeParams,
    cfg: SimConfig,
    mode: DebiasMode = DebiasMode.SIMULATED,
) -> DebiasResult:
    """Cancel the delay bias by normalizing against an all-ones run.

    SIMULATED runs the network twice (actual statistics, then all-ones
    statistics with the same weights, as one two-copy disjoint union) and
    divides the detected terminal rates; ANALYTIC divides the closed-form
    rates instead.  The result is independent of the delays.  Requires a
    single root component driving the network, and a reference rate above
    ``1e-12`` in magnitude.
    """
    ones = NodeParams(weights=params.weights, stats=np.ones(params.n))
    if mode is DebiasMode.SIMULATED:
        # Both runs as one 2-copy union, each copy starting from the given
        # history; detect_consensus scales by the whole run, so each copy is
        # detected on its own columns.  Past stiffness 1 a run may never
        # settle, so a longer horizon is no cure.
        settles = _listeners(g, params, cfg, g.src)[-1] < 1.0
        m_max = int(quantize_delays(g, cfg.step_s).max(initial=0))
        history = _history(cfg.init, m_max + 1, g.n)
        pair = NodeParams(weights=np.tile(params.weights, 2),
                          stats=np.concatenate([params.stats, ones.stats]))
        both = simulate(disjoint_union([g, g]), pair, dataclasses.replace(
            cfg, init=np.hstack([history, history]))).derivs
        omega_stat = _global_rate(both[:, : g.n], "statistic run", settles)
        omega_ref = _global_rate(both[:, g.n :], "all-ones run", settles)
    else:
        # Both closed forms share the report and the delay load.
        report, delay_load = _closed_form_inputs(g, params, cfg.coupling, cfg.step_s)
        if len(report.root_sccs) != 1:
            raise DebiasError("two-step debias needs a single root component")
        (omega_stat,) = _root_rates(report, params, cfg.coupling, delay_load)
        (omega_ref,) = _root_rates(report, ones, cfg.coupling, delay_load)
    if abs(omega_ref) < DEGENERATE_REFERENCE:
        raise DegenerateDebiasError(
            f"all-ones reference rate {omega_ref:.3e} is numerically zero"
        )
    return DebiasResult(
        estimate=omega_stat / omega_ref,
        omega_stat=omega_stat,
        omega_reference=omega_ref,
        mode=mode,
    )


def _global_rate(derivs: np.ndarray, label: str, settles: bool) -> float:
    verdict = detect_consensus(derivs)
    if verdict.kind is not VerdictKind.GLOBAL:
        hint = (f" in {len(derivs)} steps; a longer horizon (--horizon) may let it settle"
                if verdict.kind is VerdictKind.NONE and settles else "")
        raise DebiasError(f"{label} did not reach global sync (verdict {verdict.kind.value}){hint}")
    return verdict.omega


@dataclass(frozen=True)
class DecisionRule:
    """Final decision map applied to the debiased network average.

    Presets: ``identity``; ``exp`` (use when statistics are log-domain);
    ``threshold`` with a finite level, mapping to 1.0/0.0.  Any other kind,
    a threshold without a finite level, or a level on another kind raises
    ``ValueError`` at construction.
    """

    kind: str
    level: "float | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "exp", "threshold"):
            raise ValueError(f"unknown kind {self.kind!r}; use identity, exp, or threshold:<level>")
        if self.kind != "threshold" and self.level is not None:
            raise ValueError(f"{self.kind} rule takes no level, got {self.level!r}")
        if self.kind == "threshold" and (self.level is None or not math.isfinite(self.level)):
            raise ValueError(f"threshold rule needs a finite level, got {self.level!r}")

    @staticmethod
    def parse(text: str) -> "DecisionRule":
        """The rule ``identity``, ``exp`` or ``threshold:<level>`` names."""
        kind, colon, level = text.partition(":")
        try:
            return DecisionRule(kind, float(level) if colon else None)
        except ValueError as exc:
            raise ValueError(f"bad decision rule {text!r}: {exc}") from None

    def __call__(self, value: float) -> float:
        """The decision for one estimate; ``OverflowError`` when ``exp`` overflows."""
        if self.kind == "exp":
            try:
                return math.exp(value)
            except OverflowError:
                raise OverflowError(f"decision exp overflows at estimate {value}") from None
        if self.kind == "threshold":
            return 1.0 if value >= self.level else 0.0
        return float(value)


def ml_setup(
    amplitudes: np.ndarray,
    noise_vars: np.ndarray,
    observations: np.ndarray,
) -> NodeParams:
    """Node parameters for estimating a common scalar from scaled noisy reads.

    Node ``i`` observes ``y_i = A_i * xi + w_i`` with noise variance
    ``sigma_i^2``.  Normalizing each observation (``u_i = y_i / A_i``) and
    weighting by ``c_i = A_i^2 / sigma_i^2`` makes the weighted network
    average coincide with the optimal centralized estimate of ``xi``.
    """
    amps = np.asarray(amplitudes, dtype=float)
    variances = np.asarray(noise_vars, dtype=float)
    obs = np.asarray(observations, dtype=float)
    if amps.ndim != 1 or amps.shape != variances.shape or amps.shape != obs.shape:
        raise ValueError("amplitudes, noise_vars, observations must be 1-d and equally long")
    if np.any(amps == 0) or not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be nonzero and finite")
    if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
        raise ValueError("noise variances must be positive and finite")
    return NodeParams(weights=amps**2 / variances, stats=obs / amps)


def centralized_ml(
    amplitudes: np.ndarray,
    noise_vars: np.ndarray,
    observations: np.ndarray,
) -> tuple[float, float]:
    """Optimal centralized estimate and its variance for the same model."""
    amps = np.asarray(amplitudes, dtype=float)
    variances = np.asarray(noise_vars, dtype=float)
    obs = np.asarray(observations, dtype=float)
    info = float(np.sum(amps**2 / variances))
    estimate = float(np.sum(amps * obs / variances)) / info
    return estimate, 1.0 / info

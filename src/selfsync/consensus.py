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

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .digraph import ConnectivityClass, ConnectivityReport, Digraph, classify
from .dynamics import (
    NodeParams,
    SimConfig,
    VerdictKind,
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
    "DecisionStatistic",
    "PREDICTION_SCHEMA",
    "predict",
    "debias_two_step",
    "apply_decision",
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

    def write_json(self, path: "str | Path") -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


PREDICTION_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["class", "clusters", "global_omega", "unresolved"],
    "properties": {
        "class": {"enum": [k.value for k in ConnectivityClass]},
        "clusters": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["members", "root", "omega"],
                "properties": {
                    "members": {"type": "array", "items": {"type": "integer"}},
                    "root": {"type": "array", "items": {"type": "integer"}},
                    "omega": {"type": "number"},
                },
            },
        },
        "global_omega": {"type": ["number", "null"]},
        "unresolved": {"type": "array", "items": {"type": "integer"}},
    },
}


def _component_reach(report: ConnectivityReport) -> list[set[int]]:
    """For each root component, the set of condensation nodes it influences."""
    succ: dict[int, list[int]] = {}
    for a, b in report.condensation:
        succ.setdefault(a, []).append(b)
    reach_sets = []
    for root in report.root_sccs:
        seen = {root}
        frontier = [root]
        while frontier:
            comp = frontier.pop()
            for nxt in succ.get(comp, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach_sets.append(seen)
    return reach_sets


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
    if params.n != g.n:
        raise ValueError(f"params are for {params.n} nodes, graph has {g.n}")
    if not np.isfinite(coupling) or coupling < 0:
        raise ValueError("coupling must be finite and nonnegative")
    report = classify(g)

    if quantize_step is None:
        delays = g.delay_s
    else:
        delays = quantize_delays(g, quantize_step).lags * quantize_step
    delay_load = np.bincount(g.dst, weights=g.gain * delays, minlength=g.n)

    gamma = report.influence
    comp_of = np.empty(g.n, dtype=int)
    for idx, comp in enumerate(report.sccs):
        comp_of[list(comp)] = idx

    # reaches[k, q]: root component k influences node q.
    reaches = np.array([np.isin(comp_of, list(reach)) for reach in _component_reach(report)])
    owners = reaches.sum(axis=0)

    clusters = []
    for k, root_idx in enumerate(report.root_sccs):
        nodes = np.asarray(report.sccs[root_idx], dtype=int)
        block = gamma[nodes]
        num = float(np.sum(block * params.weights[nodes] * params.stats[nodes]))
        den = float(
            np.sum(block * params.weights[nodes])
            + coupling * np.sum(block * delay_load[nodes])
        )
        omega = num / den
        members = tuple(np.flatnonzero(reaches[k] & (owners == 1)).tolist())
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
    statistics with the same weights) and divides the detected terminal
    rates; ANALYTIC divides the closed-form rates instead.  The result is
    independent of the delays.  Requires a single root component driving
    the network, and a reference rate above ``1e-12`` in magnitude.
    """
    ones = NodeParams(weights=params.weights, stats=np.ones(params.n))
    if mode is DebiasMode.SIMULATED:
        omega_stat = _global_rate(simulate(g, params, cfg), "statistic run")
        omega_ref = _global_rate(simulate(g, ones, cfg), "all-ones run")
    else:
        pred_stat = predict(g, params, cfg.coupling, quantize_step=cfg.step_s)
        pred_ref = predict(g, ones, cfg.coupling, quantize_step=cfg.step_s)
        if pred_stat.global_omega is None:
            raise DebiasError("two-step debias needs a single root component")
        omega_stat = pred_stat.global_omega
        omega_ref = pred_ref.global_omega
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


def _global_rate(traj, label: str) -> float:
    verdict = detect_consensus(traj)
    if verdict.kind is not VerdictKind.GLOBAL:
        raise DebiasError(f"{label} did not reach global sync (verdict {verdict.kind.value})")
    return verdict.omega


@dataclass(frozen=True)
class DecisionRule:
    """Final decision map applied to the debiased network average.

    Presets: ``identity``; ``exp`` (use when statistics are log-domain);
    ``threshold`` with a level, mapping to 1.0/0.0.
    """

    kind: str
    level: "float | None" = None

    @staticmethod
    def parse(text: str) -> "DecisionRule":
        if text == "identity":
            return DecisionRule("identity")
        if text == "exp":
            return DecisionRule("exp")
        if text.startswith("threshold:"):
            try:
                return DecisionRule("threshold", float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad threshold level in {text!r}") from exc
        raise ValueError(f"unknown decision rule {text!r}; use identity, exp, or threshold:<level>")

    def __call__(self, value: float) -> float:
        if self.kind == "identity":
            return float(value)
        if self.kind == "exp":
            return math.exp(value)
        if self.kind == "threshold":
            if self.level is None:
                raise ValueError("threshold rule needs a level")
            return 1.0 if value >= self.level else 0.0
        raise ValueError(f"unknown decision rule kind {self.kind!r}")


@dataclass(frozen=True)
class DecisionStatistic:
    value: float
    rule: DecisionRule
    raw: float


def apply_decision(rule: DecisionRule, weighted_average: float) -> DecisionStatistic:
    """Apply the decision map to a (debiased) weighted network average."""
    return DecisionStatistic(value=rule(weighted_average), rule=rule, raw=float(weighted_average))


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

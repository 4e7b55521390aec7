"""Correctness checks computed apart from the program.

Every check takes plain arrays (or files) produced by ``selfsync`` and the
inputs the benchmark gave it, recomputes the expected value by another
route -- ``scipy.sparse.csgraph`` for connectivity, ``scipy.linalg.null_space``
for the influence vector, ``networkx`` for the CLI's report, closed forms
from the paper, parsed CSV text -- and raises :class:`CheckFailure` on any
mismatch.  None of them compares against a stored copy of an earlier
output.
"""
from __future__ import annotations

from pathlib import Path

import networkx as nx
import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "CheckFailure",
    "connectivity_class",
    "influence",
    "closed_form_omega",
    "check_close",
    "check_class",
    "check_debias",
    "check_ring_influence",
    "check_euler",
    "check_rhs",
    "check_mc_batch",
    "check_mc_pooled",
    "check_csv",
    "check_report_class",
    "check_chain",
    "check_forest",
]


class CheckFailure(AssertionError):
    """A program output disagrees with its independent computation."""


def check_close(label: str, got: float, want: float, rtol: float, atol: float = 0.0) -> None:
    if got is None or not np.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        raise CheckFailure(f"{label}: got {got!r}, expected {want!r} (rtol {rtol:g}, atol {atol:g})")


def _adjacency(n: int, dst: np.ndarray, src: np.ndarray) -> csr_matrix:
    """Sparse ``adj[src, dst]``: an arc in the direction information flows."""
    return csr_matrix((np.ones(dst.shape[0]), (src, dst)), shape=(n, n))


def connectivity_class(n: int, dst: np.ndarray, src: np.ndarray) -> str:
    """SC / QSC_NOT_SC / WC_NOT_QSC / DISCONNECTED from csgraph components."""
    adj = _adjacency(n, dst, src)
    count, label = connected_components(adj, directed=True, connection="strong")
    if count == 1:
        return "SC"
    heard = np.zeros(count, dtype=bool)
    cross = label[src] != label[dst]
    heard[label[dst][cross]] = True
    if int((~heard).sum()) == 1:
        return "QSC_NOT_SC"
    weak, _ = connected_components(adj, directed=True, connection="weak")
    return "WC_NOT_QSC" if weak == 1 else "DISCONNECTED"


def influence(gain: np.ndarray) -> np.ndarray:
    """Left null vector of ``L = diag(A 1) - A`` for a strongly connected ``A``.

    Taken from the SVD null space of ``L^T``, signed positive, unit 2-norm.
    """
    lap = np.diag(gain.sum(axis=1)) - gain
    basis = null_space(lap.T, rcond=1e-10)
    if basis.shape[1] != 1:
        raise CheckFailure(f"Laplacian null space has dimension {basis.shape[1]}, expected 1")
    gamma = basis[:, 0] * np.sign(basis[:, 0].sum())
    if np.min(gamma) <= 0.0:
        raise CheckFailure("influence vector of a strongly connected graph is not positive")
    return gamma / np.linalg.norm(gamma)


def closed_form_omega(
    gamma: np.ndarray,
    gain: np.ndarray,
    delay: np.ndarray,
    weights: np.ndarray,
    stats: np.ndarray,
    coupling: float,
) -> float:
    """omega* = sum g c u / (sum g c + K sum_i g_i sum_j a_ij tau_ij)."""
    load = (gain * delay).sum(axis=1)
    num = float(np.sum(gamma * weights * stats))
    return num / float(np.sum(gamma * weights) + coupling * np.sum(gamma * load))


def check_class(label: str, got: str, n: int, dst: np.ndarray, src: np.ndarray) -> None:
    want = connectivity_class(n, dst, src)
    if got != want:
        raise CheckFailure(f"{label}: class {got}, csgraph says {want}")


def check_debias(label: str, got: float, gamma: np.ndarray, weights: np.ndarray,
                 stats: np.ndarray, rtol: float) -> None:
    want = float(np.sum(gamma * weights * stats) / np.sum(gamma * weights))
    check_close(f"{label} debias estimate", got, want, rtol)


def check_ring_influence(got: np.ndarray, heard_gain: np.ndarray) -> None:
    """On a directed ring, gamma_i is proportional to 1 / (gain node i hears on)."""
    want = 1.0 / heard_gain
    want = want / np.linalg.norm(want)
    got = np.asarray(got, dtype=float)
    got = got / np.linalg.norm(got)
    err = float(np.max(np.abs(got - want) / want))
    if not err <= 1e-9:
        raise CheckFailure(f"ring influence off its exact form by {err:.3e} relative")


def check_euler(states: np.ndarray, derivs: np.ndarray, step_s: float) -> None:
    """x[k+1] == x[k] + h * xdot[k] on every recorded step."""
    if states.shape != derivs.shape or states.shape[0] < 2:
        raise CheckFailure(f"trajectory shapes {states.shape} / {derivs.shape}")
    want = states[:-1] + step_s * derivs[:-1]
    scale = np.maximum(np.abs(states[1:]), 1.0)
    err = float(np.max(np.abs(states[1:] - want) / scale))
    if not err <= 1e-12:
        raise CheckFailure(f"Euler identity broken by {err:.3e}")


def check_rhs(
    states: np.ndarray,
    derivs: np.ndarray,
    steps: "list[int]",
    gain: np.ndarray,
    lags: np.ndarray,
    weights: np.ndarray,
    stats: np.ndarray,
    coupling: float,
) -> None:
    """xdot[k] against u + (K/c) sum_j a_ij (x_j[k - lag_ij] - x_i[k]), zero history."""
    n = states.shape[1]
    rows, cols = np.nonzero(gain)
    for k in steps:
        back = k - lags[rows, cols]
        hist = np.where(back >= 0, states[np.maximum(back, 0), cols], 0.0)
        pull = np.zeros(n)
        np.add.at(pull, rows, gain[rows, cols] * (hist - states[k, rows]))
        want = stats + coupling / weights * pull
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = float(np.max(np.abs(derivs[k] - want))) / scale
        if not err <= 1e-9:
            raise CheckFailure(f"derivative at step {k} off the right-hand side by {err:.3e}")


def check_mc_batch(finals: "dict[str, np.ndarray]") -> None:
    """Per Monte Carlo run: d equals b to 1e-9 relative, and 0 < c/b < 1."""
    b, c, d = finals["b"], finals["c"], finals["d"]
    err = np.abs(d - b) / np.abs(b)
    if not np.all(err <= 1e-9):
        raise CheckFailure(f"debiased estimate off the delay-free one by {float(np.max(err)):.3e}")
    ratio = c / b
    if not np.all((ratio > 0.0) & (ratio < 1.0)):
        raise CheckFailure(f"delayed-to-delay-free ratio outside (0, 1): {ratio}")


def check_mc_pooled(finals: "dict[str, np.ndarray]", truth: float) -> None:
    """The acceptance-8 statistics on pooled Monte Carlo runs.

    (i) b matches a within 3 standard errors of their paired difference;
    (ii) c is biased toward zero by more than 3 standard errors;
    (iii) d lies within 3 standard errors of the truth;
    (iv) d's spread is within 25% of a's.
    """
    a, b, c, d = (finals[k] for k in "abcd")
    runs = a.shape[0]
    diff = b - a
    if not abs(float(diff.mean())) <= 3.0 * float(diff.std()) / np.sqrt(runs):
        raise CheckFailure("(i) delay-free network mean differs from the centralized mean")
    bias_c = float(c.mean()) - truth
    if not (bias_c < 0.0 and abs(bias_c) > 3.0 * float(c.std()) / np.sqrt(runs)):
        raise CheckFailure(f"(ii) delayed estimate not biased toward zero (bias {bias_c:.3g})")
    bias_d = float(d.mean()) - truth
    if not abs(bias_d) <= 3.0 * float(d.std()) / np.sqrt(runs):
        raise CheckFailure(f"(iii) debiased estimate biased by {bias_d:.3g}")
    ratio = float(d.std()) / float(a.std())
    if not abs(ratio - 1.0) <= 0.25:
        raise CheckFailure(f"(iv) debiased spread is {ratio:.3f} of the centralized spread")


def check_csv(path: "str | Path", n: int, horizon: int, step_s: float) -> None:
    """Header, row count and the Euler identity on a trajectory CSV."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        want = ["t"] + [f"x_{i}" for i in range(n)] + [f"xdot_{i}" for i in range(n)]
        if header != want:
            raise CheckFailure(f"CSV header {header[:3]}... is not t,x_*,xdot_*")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailure(f"CSV rows do not parse: {exc}") from exc
    if data.shape != (horizon, 2 * n + 1):
        raise CheckFailure(f"CSV holds {data.shape}, expected {horizon} rows of {2 * n + 1} cells")
    if not np.array_equal(data[:, 0], np.arange(horizon) * step_s):
        raise CheckFailure("CSV time column is not k * step_s")
    check_euler(data[:, 1 : n + 1], data[:, n + 1 :], step_s)


def check_report_class(report: dict, n: int, edges: "list[tuple[int, int]]") -> None:
    """The analyze report's class and components against networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((src, dst) for dst, src in edges)
    comps = sorted(sorted(c) for c in nx.strongly_connected_components(g))
    cond = nx.condensation(g)
    roots = [v for v in cond.nodes if cond.in_degree(v) == 0]
    if len(comps) == 1:
        want = "SC"
    elif len(roots) == 1:
        want = "QSC_NOT_SC"
    elif nx.is_weakly_connected(g):
        want = "WC_NOT_QSC"
    else:
        want = "DISCONNECTED"
    if report.get("class") != want:
        raise CheckFailure(f"analyze class {report.get('class')}, networkx says {want}")
    if sorted(report.get("sccs", [])) != comps:
        raise CheckFailure("analyze components differ from networkx")


def check_chain(report: dict, coupling: float, delay_s: float) -> None:
    """Chain preset: GLOBAL at the root 3-cycle's closed-form rate.

    The root cycle has unit gains and weights, statistics 1, 2, 3 and a
    uniform delay, so omega* = 6 / (3 + K * 3 * delay).
    """
    want = 6.0 / (3.0 + coupling * 3.0 * delay_s)
    detected = report.get("detected", {})
    if detected.get("verdict") != "GLOBAL":
        raise CheckFailure(f"chain verdict {detected.get('verdict')}, expected GLOBAL")
    check_close("chain detected omega", detected.get("omega"), want, 1e-6)
    check_close("chain predicted omega", report.get("global_omega"), want, 1e-12)


def check_forest(report: dict) -> None:
    """Forest preset: exactly the two root trees' clusters, at their roots' statistics.

    Each tree root hears nobody, so its rate is its own statistic: 2.0 for
    tree {0, 1, 2} and 4.0 for tree {3, 4, 5}; the middle nodes 6 and 7
    hear both trees and stay unresolved.
    """
    want = [([0, 1, 2], 2.0), ([3, 4, 5], 4.0)]
    clusters = sorted((c["members"], c["omega"]) for c in report.get("clusters", []))
    if [m for m, _ in clusters] != [m for m, _ in want]:
        raise CheckFailure(f"forest clusters {[m for m, _ in clusters]}, expected two trees")
    for (_, got), (members, omega) in zip(clusters, want):
        check_close(f"forest cluster {members} predicted", got, omega, 1e-12)
    if report.get("unresolved") != [6, 7]:
        raise CheckFailure(f"forest unresolved {report.get('unresolved')}, expected [6, 7]")
    groups = {tuple(g["members"]): g["omega"] for g in report.get("detected", {}).get("groups", [])}
    for members, omega in want:
        if tuple(members) not in groups:
            raise CheckFailure(f"forest tree {members} did not settle as one group")
        check_close(f"forest tree {members} detected", groups[tuple(members)], omega, 1e-9)

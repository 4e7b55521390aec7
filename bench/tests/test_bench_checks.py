"""The benchmark's correctness checks accept real output and reject perturbed output.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
Small inputs only; no timing.
"""
import json

import numpy as np
import pytest

import checks
from checks import CheckFailure
from selfsync import cli, consensus, digraph, dynamics, experiments
from workloads import _dense, _edge_arrays


def _random_sc_graph(n: int, seed: int) -> digraph.Digraph:
    rng = np.random.default_rng(seed)
    pairs = {((i + 1) % n, i) for i in range(n)}
    pairs |= {(int(d), int(s)) for d, s in rng.integers(0, n, size=(3 * n, 2)) if d != s}
    return digraph.Digraph(n, tuple(
        digraph.Edge(d, s, float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 0.02)))
        for d, s in sorted(pairs)
    ))


def _params(n: int, seed: int) -> dynamics.NodeParams:
    rng = np.random.default_rng(seed)
    return dynamics.NodeParams(weights=rng.uniform(1.0, 2.0, n), stats=rng.normal(1.0, 1.0, n))


@pytest.fixture(scope="module")
def mc_finals():
    cfg = experiments.EstimationConfig(runs=4, seed=3)
    summary = experiments.run_estimation_study(cfg)
    return {k: getattr(summary, f"finals_{k}").copy() for k in "abcd"}


def test_class_accepts_real_and_rejects_wrong():
    qsc = digraph.Digraph(4, (digraph.Edge(1, 0, 1.0, 0.0), digraph.Edge(2, 1, 1.0, 0.0),
                              digraph.Edge(1, 2, 1.0, 0.0), digraph.Edge(3, 2, 1.0, 0.0)))
    split = digraph.Digraph(4, (digraph.Edge(1, 0, 1.0, 0.0), digraph.Edge(3, 2, 1.0, 0.0)))
    for g in (_random_sc_graph(12, 0), qsc, split):
        dst, src, _, _ = _edge_arrays(g)
        kind = digraph.classify(g).kind.value
        checks.check_class("real", kind, g.n, dst, src)
        wrong = "SC" if kind != "SC" else "QSC_NOT_SC"
        with pytest.raises(CheckFailure):
            checks.check_class("perturbed", wrong, g.n, dst, src)


def test_omega_and_debias_accept_real_and_reject_wrong():
    g, params, k, h = _random_sc_graph(12, 1), _params(12, 1), 2.0, 1e-3
    dst, src, gain_e, delay_e = _edge_arrays(g)
    gain = _dense(g.n, dst, src, gain_e)
    delay = _dense(g.n, dst, src, np.rint(delay_e / h) * h)
    gamma = checks.influence(gain)
    want = checks.closed_form_omega(gamma, gain, delay, params.weights, params.stats, k)
    omega = consensus.predict(g, params, k, quantize_step=h).global_omega
    checks.check_close("real omega*", omega, want, 1e-9)
    with pytest.raises(CheckFailure):
        checks.check_close("perturbed omega*", omega * (1.0 + 1e-6), want, 1e-9)
    est = consensus.debias_two_step(g, params, dynamics.SimConfig(k, h, 300),
                                    consensus.DebiasMode.ANALYTIC).estimate
    checks.check_debias("real", est, gamma, params.weights, params.stats, 1e-9)
    with pytest.raises(CheckFailure):
        checks.check_debias("perturbed", est + 1e-6, gamma, params.weights, params.stats, 1e-9)


def test_ring_influence_accepts_real_and_rejects_wrong():
    heard = np.random.default_rng(2).uniform(0.5, 2.0, 30)
    ring = digraph.Digraph(30, tuple(digraph.Edge((i + 1) % 30, i, float(heard[(i + 1) % 30]), 0.01)
                                     for i in range(30)))
    gamma = digraph.classify(ring).influence
    checks.check_ring_influence(gamma, heard)
    bent = gamma.copy()
    bent[4] *= 1.0 + 1e-6
    with pytest.raises(CheckFailure):
        checks.check_ring_influence(bent, heard)


def test_trajectory_checks_accept_real_and_reject_wrong():
    g, params, k, h = _random_sc_graph(10, 3), _params(10, 3), 2.0, 1e-3
    traj = dynamics.simulate(g, params, dynamics.SimConfig(k, h, 60))
    dst, src, gain_e, delay_e = _edge_arrays(g)
    gain = _dense(g.n, dst, src, gain_e)
    lags = _dense(g.n, dst, src, np.rint(delay_e / h)).astype(np.int64)
    steps = [0, int(lags.max()), 59]
    checks.check_euler(traj.states, traj.derivs, h)
    checks.check_rhs(traj.states, traj.derivs, steps, gain, lags, params.weights, params.stats, k)
    derivs = traj.derivs.copy()
    derivs[59, 2] += 1e-3
    with pytest.raises(CheckFailure):
        checks.check_rhs(traj.states, derivs, steps, gain, lags, params.weights, params.stats, k)
    states = traj.states.copy()
    states[30, 1] += 1e-9
    with pytest.raises(CheckFailure):
        checks.check_euler(states, traj.derivs, h)


def test_csv_accepts_real_and_rejects_truncated(tmp_path):
    graph = tmp_path / "g.json"
    params = tmp_path / "p.json"
    out = tmp_path / "t.csv"
    graph.write_text(json.dumps({"n": 3, "edges": [
        {"dst": (i + 1) % 3, "src": i, "gain": 1.0, "delay_s": 0.01} for i in range(3)]}))
    params.write_text(json.dumps({"c": [1.0, 2.0, 1.5], "u": [0.5, 1.5, -0.25]}))
    argv = ["simulate", "--graph", str(graph), "--params", str(params), "--horizon", "300",
            "--init", "random", "--out", str(out)]
    assert cli.main(argv) == 0
    checks.check_csv(out, 3, 300, 1e-3)
    lines = out.read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:-1]))
    with pytest.raises(CheckFailure):
        checks.check_csv(short, 3, 300, 1e-3)
    cut = tmp_path / "cut.csv"
    cut.write_text("".join(lines)[:-25])
    with pytest.raises(CheckFailure):
        checks.check_csv(cut, 3, 300, 1e-3)


def test_mc_checks_accept_real_and_reject_d_not_b(mc_finals):
    checks.check_mc_batch(mc_finals)
    checks.check_mc_pooled(mc_finals, 1.0)
    shifted = dict(mc_finals, d=mc_finals["d"] * (1.0 + 1e-6))
    with pytest.raises(CheckFailure):
        checks.check_mc_batch(shifted)
    swapped = dict(mc_finals, c=mc_finals["b"] * 1.5)
    with pytest.raises(CheckFailure):
        checks.check_mc_batch(swapped)
    biased = dict(mc_finals, d=mc_finals["d"] + 1.0)
    with pytest.raises(CheckFailure):
        checks.check_mc_pooled(biased, 1.0)


def test_cli_reports_accept_real_and_reject_wrong(tmp_path):
    for preset in ("chain", "forest"):
        assert cli.main(["study", "--preset", preset, "--outdir", str(tmp_path / preset)]) == 0
    chain = json.loads((tmp_path / "chain" / "prediction.json").read_text())
    forest = json.loads((tmp_path / "forest" / "prediction.json").read_text())
    checks.check_chain(chain, 30.0, 0.05)
    checks.check_forest(forest)
    with pytest.raises(CheckFailure):
        checks.check_chain(dict(chain, global_omega=chain["global_omega"] * 1.001), 30.0, 0.05)
    with pytest.raises(CheckFailure):
        checks.check_chain(chain, 30.0, 0.04)
    merged = dict(forest, clusters=forest["clusters"][:1])
    with pytest.raises(CheckFailure):
        checks.check_forest(merged)

    g = _random_sc_graph(9, 4)
    edges = [(e.dst, e.src) for e in g.edges]
    report = digraph.classify(g).to_json_dict()
    checks.check_report_class(report, g.n, edges)
    with pytest.raises(CheckFailure):
        checks.check_report_class(dict(report, **{"class": "WC_NOT_QSC"}), g.n, edges)
    with pytest.raises(CheckFailure):
        checks.check_report_class(dict(report, sccs=[[0], list(range(1, g.n))]), g.n, edges)

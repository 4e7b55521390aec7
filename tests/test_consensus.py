"""Closed-form rate prediction, two-step debias, decision maps, ML weights.

The prediction oracle here computes the influence vector independently via
an SVD null space of the Laplacian transpose (restricted per root
component), so agreement is between two different algorithms.
"""
import numpy as np
import pytest

from selfsync import (
    ConnectivityClass,
    DebiasError,
    DebiasMode,
    DecisionRule,
    DegenerateDebiasError,
    Digraph,
    Edge,
    NodeParams,
    SimConfig,
    centralized_ml,
    classify,
    debias_two_step,
    detect_consensus,
    laplacian,
    ml_setup,
    predict,
    preset_network,
    simulate,
)

from _oracles import PREDICTION_SCHEMA, delay_matrix, with_delay_matrix


def random_qsc_graph(rng: np.random.Generator, n: int) -> Digraph:
    """Random graph where node 0 reaches everyone: a random tree plus extras."""
    edges = {}
    for dst in range(1, n):
        src = int(rng.integers(0, dst))
        edges[(dst, src)] = Edge(dst, src, float(rng.uniform(0.5, 1.5)), 0.0)
    extra = rng.integers(0, 2 * n)
    for _ in range(int(extra)):
        dst, src = int(rng.integers(0, n)), int(rng.integers(0, n))
        if dst != src and (dst, src) not in edges:
            edges[(dst, src)] = Edge(dst, src, float(rng.uniform(0.5, 1.5)), 0.0)
    return Digraph(n, tuple(edges.values()))


def svd_gamma(g: Digraph) -> np.ndarray:
    """Independent influence vector: SVD null space per root block."""
    rep = classify(g)
    lap = laplacian(g)
    gamma = np.zeros(g.n)
    for ri in rep.root_sccs:
        nodes = np.asarray(rep.sccs[ri], dtype=int)
        block = lap[np.ix_(nodes, nodes)]
        _, _, vt = np.linalg.svd(block.T)
        vec = vt[-1]
        if vec.sum() < 0:
            vec = -vec
        gamma[nodes] = vec / np.linalg.norm(vec)
    return gamma


def closed_form_rate(g: Digraph, params: NodeParams, coupling: float) -> float:
    """Direct evaluation with the SVD influence vector (single root)."""
    gamma = svd_gamma(g)
    delay_load = (g.gain_matrix() * delay_matrix(g)).sum(axis=1)
    num = float(np.sum(gamma * params.weights * params.stats))
    den = float(np.sum(gamma * params.weights) + coupling * np.sum(gamma * delay_load))
    return num / den


# === predict: hand values and independent oracle ===

def test_predict_two_node_chain_gives_root_statistic():
    g = Digraph(2, (Edge(1, 0, 1.0, 0.07),))
    params = NodeParams(weights=[2.0, 5.0], stats=[4.0, -1.0])
    pred = predict(g, params, 30.0)
    # Root {0} has no in-edges, so delays never enter: omega = u_0.
    assert pred.global_omega == 4.0
    assert pred.clusters[0].members == (0, 1)
    assert pred.clusters[0].root == (0,)


def test_predict_mutual_pair_hand_value():
    g = Digraph(2, (Edge(0, 1, 1.0, 0.5), Edge(1, 0, 1.0, 0.5)))
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 1.0])
    assert predict(g, params, 1.0).global_omega == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_predict_matches_svd_oracle_on_random_qsc():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        g = random_qsc_graph(rng, n)
        delays = rng.uniform(0.0, 0.1, size=(n, n))
        g = with_delay_matrix(g, delays)
        params = NodeParams(
            weights=rng.uniform(0.5, 2.0, n), stats=rng.uniform(-1.0, 2.0, n)
        )
        pred = predict(g, params, 30.0)
        assert pred.global_omega == pytest.approx(
            closed_form_rate(g, params, 30.0), rel=1e-10
        )


def test_predict_balanced_cycle_equals_uniform_gamma_form():
    rng = np.random.default_rng(8)
    for n in (3, 5, 8):
        delays = rng.uniform(0.0, 0.1, size=n)
        edges = tuple(
            Edge((i + 1) % n, i, 1.0, float(delays[i])) for i in range(n)
        )
        g = Digraph(n, edges)
        c = rng.uniform(0.5, 2.0, n)
        u = rng.uniform(-1.0, 1.0, n)
        params = NodeParams(weights=c, stats=u)
        coupling = 30.0
        direct = float(c @ u) / (float(c.sum()) + coupling * float(delays.sum()))
        got = predict(g, params, coupling).global_omega
        assert got == pytest.approx(direct, rel=1e-12)


def test_predict_delay_monotone_bias():
    # All-positive statistics: growing delays inflate the denominator and
    # shrink the synchronized rate.
    g0 = Digraph(2, (Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0)))
    params = NodeParams(weights=[1.0, 1.0], stats=[2.0, 3.0])
    rates = [
        predict(g0.with_delays(tau), params, 30.0).global_omega
        for tau in (0.0, 0.01, 0.05, 0.1)
    ]
    assert all(a > b > 0 for a, b in zip(rates, rates[1:]))


def test_predict_quantize_step_matches_prequantized_graph():
    from selfsync import quantize_delays

    g = Digraph(2, (Edge(0, 1, 1.0, 0.0314), Edge(1, 0, 1.0, 0.0718),))
    params = NodeParams(weights=[1.0, 2.0], stats=[1.0, 2.0])
    lags = quantize_delays(g, 1e-3)
    prequantized = Digraph.from_arrays(g.n, g.dst, g.src, g.gain, lags * 1e-3)
    direct = predict(prequantized, params, 30.0).global_omega
    assert predict(g, params, 30.0, quantize_step=1e-3).global_omega == direct


def test_predict_multi_root_clusters_and_unresolved():
    # Two singleton roots feeding a shared sink.
    g = Digraph(3, (Edge(2, 0, 1.0, 0.0), Edge(2, 1, 1.0, 0.0)))
    params = NodeParams(weights=[1.0, 1.0, 1.0], stats=[1.0, 5.0, 9.0])
    pred = predict(g, params, 30.0)
    assert pred.kind is ConnectivityClass.WC_NOT_QSC
    assert pred.global_omega is None
    assert len(pred.clusters) == 2
    by_root = {c.root: c for c in pred.clusters}
    assert by_root[(0,)].omega == 1.0 and by_root[(0,)].members == (0,)
    assert by_root[(1,)].omega == 5.0 and by_root[(1,)].members == (1,)
    assert pred.unresolved == (2,)


def test_predict_zero_coupling_drops_delay_term():
    g = Digraph(2, (Edge(0, 1, 1.0, 3.0), Edge(1, 0, 1.0, 3.0)))
    params = NodeParams(weights=[1.0, 3.0], stats=[2.0, 2.0])
    assert predict(g, params, 0.0).global_omega == pytest.approx(2.0, rel=1e-14)


def test_prediction_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    g = Digraph(3, (Edge(2, 0, 1.0, 0.0), Edge(2, 1, 1.0, 0.0)))
    params = NodeParams(weights=np.ones(3), stats=[1.0, 2.0, 3.0])
    doc = predict(g, params, 30.0).to_json_dict()
    jsonschema.validate(doc, PREDICTION_SCHEMA)


# === Two-step debias ===

def test_debias_recovers_weighted_mean_analytic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        g = with_delay_matrix(random_qsc_graph(rng, n), rng.uniform(0.0, 0.1, size=(n, n)))
        params = NodeParams(
            weights=rng.uniform(0.5, 2.0, n), stats=rng.uniform(-1.0, 2.0, n)
        )
        cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=2)
        result = debias_two_step(g, params, cfg, DebiasMode.ANALYTIC)
        gamma = classify(g).influence
        target = float(gamma @ (params.weights * params.stats)) / float(
            gamma @ params.weights
        )
        assert result.estimate == pytest.approx(target, rel=1e-12)


def test_delay_load_is_computed_once_per_step_and_read_only(monkeypatch):
    from selfsync import consensus

    g, params = preset_network("chain", delay_s=0.0123)
    steps = []
    quantize = consensus.quantize_delays
    monkeypatch.setattr(consensus, "quantize_delays", lambda g, h: steps.append(h) or quantize(g, h))
    first = predict(g, params, 30.0, quantize_step=1e-3)
    debias_two_step(g, params, SimConfig(30.0, 1e-3, 2), DebiasMode.ANALYTIC)
    assert predict(g, params, 30.0, quantize_step=1e-3) == first
    assert steps == [1e-3]

    def load(step):
        return consensus._closed_form_inputs(g, params, 30.0, step)[1]

    assert load(1e-3) is load(1e-3) and not load(1e-3).flags.writeable
    with pytest.raises(ValueError):
        load(1e-3)[0] = 1.0
    lags = np.rint(g.delay_s / 1e-3)
    want = np.bincount(g.dst, weights=g.gain * (lags * 1e-3), minlength=g.n)
    assert np.array_equal(load(1e-3), want)
    # Another grid, or the nominal delays, take their own load.
    predict(g, params, 30.0, quantize_step=2e-3)
    predict(g, params, 30.0)
    assert steps == [1e-3, 2e-3]
    nominal = np.bincount(g.dst, weights=g.gain * g.delay_s, minlength=g.n)
    assert np.array_equal(load(None), nominal)


def test_one_scc_pass_per_generated_graph(monkeypatch):
    # Every classification assembles its root blocks once, whether or not
    # Tarjan ran, so counting that step counts the classifications.
    from selfsync import digraph
    from selfsync.netgen import Fading, RadioConfig, ensure_connectivity

    calls = []
    root_blocks = digraph._root_blocks

    def counting_blocks(g, roots):
        calls.append(g)
        return root_blocks(g, roots)

    monkeypatch.setattr(digraph, "_root_blocks", counting_blocks)
    radio = RadioConfig(n=12, fading=Fading.RAYLEIGH, hear_threshold=3.0,
                        delay_span_s=0.02, seed=0)
    net = ensure_connectivity(radio, "SC")
    g = net.graph
    params = NodeParams(weights=np.ones(g.n), stats=np.arange(float(g.n)))
    report = classify(g)
    predict(g, params, 30.0, quantize_step=1e-3)
    debias_two_step(g, params, SimConfig(30.0, 1e-3, 2), DebiasMode.ANALYTIC)
    assert net.attempts > 1
    assert len(calls) == net.attempts
    assert len({id(h) for h in calls}) == net.attempts
    assert calls[-1] is g and classify(g) is report


def test_debias_constant_statistic_returns_it():
    g = Digraph(3, (
        Edge(1, 0, 1.0, 0.04), Edge(2, 1, 0.8, 0.02), Edge(0, 2, 1.2, 0.07),
    ))
    params = NodeParams(weights=[1.0, 2.0, 3.0], stats=[0.7, 0.7, 0.7])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=6000)
    for mode in (DebiasMode.ANALYTIC, DebiasMode.SIMULATED):
        result = debias_two_step(g, params, cfg, mode)
        assert result.estimate == pytest.approx(0.7, rel=1e-9)


def test_debias_simulated_matches_analytic():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        g = with_delay_matrix(random_qsc_graph(rng, n), rng.uniform(0.0, 0.08, size=(n, n)))
        params = NodeParams(
            weights=rng.uniform(1.0, 2.0, n), stats=rng.uniform(0.5, 2.0, n)
        )
        cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=8000)
        sim = debias_two_step(g, params, cfg, DebiasMode.SIMULATED)
        ana = debias_two_step(g, params, cfg, DebiasMode.ANALYTIC)
        assert sim.estimate == pytest.approx(ana.estimate, rel=1e-7)


def test_debias_simulated_equals_two_separate_runs():
    # The two runs share one union; each must read as its own run, bit for
    # bit, from zero, constant and sampled initial histories.
    rng = np.random.default_rng(29)
    n = 5
    g = with_delay_matrix(random_qsc_graph(rng, n), rng.uniform(0.0, 0.03, size=(n, n)))
    params = NodeParams(weights=rng.uniform(1.0, 2.0, n), stats=rng.uniform(0.5, 2.0, n))
    ones = NodeParams(weights=params.weights, stats=np.ones(n))
    for init in (0.0, 0.4, rng.normal(size=n), rng.normal(size=(40, n))):
        cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=6000, init=init)
        result = debias_two_step(g, params, cfg, DebiasMode.SIMULATED)
        stat = detect_consensus(simulate(g, params, cfg).derivs).omega
        ref = detect_consensus(simulate(g, ones, cfg).derivs).omega
        assert (result.omega_stat, result.omega_reference) == (stat, ref)
        assert result.estimate == stat / ref


def test_debias_simulated_zero_rate_ring():
    g = Digraph(3, [Edge((i + 1) % 3, i, 1.0, 0.02) for i in range(3)])
    params = NodeParams(weights=np.ones(3), stats=[1.0, -1.0, 0.0])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=6000)
    result = debias_two_step(g, params, cfg, DebiasMode.SIMULATED)
    assert abs(result.estimate) < 1e-9


def test_debias_invariant_to_delays_and_coupling():
    rng = np.random.default_rng(23)
    g0 = random_qsc_graph(rng, 5)
    params = NodeParams(weights=rng.uniform(1.0, 2.0, 5), stats=rng.uniform(0.5, 2.0, 5))
    estimates = []
    for tau, coupling in ((0.0, 30.0), (0.05, 30.0), (0.1, 12.0)):
        cfg = SimConfig(coupling=coupling, step_s=1e-3, horizon=8000)
        estimates.append(
            debias_two_step(g0.with_delays(tau), params, cfg, DebiasMode.SIMULATED).estimate
        )
    spread = max(estimates) - min(estimates)
    assert spread < 1e-6 * abs(np.mean(estimates))


def test_debias_needs_single_root():
    g = Digraph(4, (
        Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0),
        Edge(2, 3, 1.0, 0.0), Edge(3, 2, 1.0, 0.0),
    ))
    params = NodeParams(weights=np.ones(4), stats=[1.0, 1.0, 2.0, 2.0])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=1000)
    with pytest.raises(DebiasError):
        debias_two_step(g, params, cfg, DebiasMode.SIMULATED)
    with pytest.raises(DebiasError):
        debias_two_step(g, params, cfg, DebiasMode.ANALYTIC)
    # Two roots heard by one node: weakly connected, still not one root.
    fork = Digraph(3, (Edge(2, 0, 1.0, 0.0), Edge(2, 1, 1.0, 0.0)))
    with pytest.raises(DebiasError, match="single root component"):
        debias_two_step(fork, NodeParams(weights=np.ones(3), stats=np.ones(3)), cfg,
                        DebiasMode.ANALYTIC)
    # Mismatched params are a ValueError, checked before the root count.
    for mode in DebiasMode:
        with pytest.raises(ValueError, match="params are for 3 nodes, graph has 4"):
            debias_two_step(g, NodeParams(weights=np.ones(3), stats=np.ones(3)), cfg, mode)


def test_debias_degenerate_reference():
    # Absurd delays make the all-ones reference rate numerically zero.
    g = Digraph(2, (Edge(0, 1, 1.0, 1e12), Edge(1, 0, 1.0, 1e12)))
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 2.0])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=2)
    with pytest.raises(DegenerateDebiasError):
        debias_two_step(g, params, cfg, DebiasMode.ANALYTIC)


# === Decision rules ===

def test_decision_rule_parse_and_apply():
    assert DecisionRule.parse("identity")(1.5) == 1.5
    assert DecisionRule.parse("exp")(0.0) == 1.0
    rule = DecisionRule.parse("threshold:0.5")
    assert rule(0.5) == 1.0 and rule(0.49) == 0.0

    assert DecisionRule.parse("threshold:0")(-0.2) == 0.0
    assert DecisionRule.parse("threshold:0")(0.3) == 1.0

    with pytest.raises(ValueError):
        DecisionRule.parse("median")
    with pytest.raises(ValueError):
        DecisionRule.parse("threshold:abc")
    for level in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(ValueError, match="finite"):
            DecisionRule.parse(f"threshold:{level}")

    # Built directly, a rule gets the same checks as through parse.
    for kind, level in (("median", None), ("threshold", None), ("threshold", float("nan")),
                        ("threshold", float("inf")), ("threshold", -float("inf"))):
        with pytest.raises(ValueError):
            DecisionRule(kind, level)
    assert DecisionRule("threshold", 0.5)(0.7) == 1.0
    with pytest.raises(OverflowError, match=r"decision exp overflows at estimate 800\.0"):
        DecisionRule("exp")(800.0)


def test_exp_decision_yields_geometric_mean():
    # Log-domain statistics: the debiased average of logs, exponentiated,
    # is the geometric mean. Balanced pair with values 1 and 4 -> 2.
    g = Digraph(2, (Edge(0, 1, 1.0, 0.03), Edge(1, 0, 1.0, 0.03)))
    params = NodeParams(weights=[1.0, 1.0], stats=np.log([1.0, 4.0]))
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=6000)
    result = debias_two_step(g, params, cfg, DebiasMode.SIMULATED)
    assert DecisionRule.parse("exp")(result.estimate) == pytest.approx(2.0, rel=1e-9)


# === ML weighting ===

def test_ml_setup_hand_values():
    params = ml_setup(
        amplitudes=[1.0, 2.0], noise_vars=[1.0, 1.0], observations=[1.0, 4.0]
    )
    assert np.array_equal(params.weights, [1.0, 4.0])
    assert np.array_equal(params.stats, [1.0, 2.0])
    est, var = centralized_ml([1.0, 2.0], [1.0, 1.0], [1.0, 4.0])
    assert est == pytest.approx(9.0 / 5.0, rel=1e-15)
    assert var == pytest.approx(1.0 / 5.0, rel=1e-15)
    # The weighted mean of the normalized statistics is the same estimate.
    assert float(params.weights @ params.stats / params.weights.sum()) == pytest.approx(
        est, rel=1e-15
    )


def test_ml_setup_validation():
    with pytest.raises(ValueError):
        ml_setup([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ml_setup([1.0, 1.0], [1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ml_setup([1.0], [1.0, 1.0], [1.0, 1.0])


def test_debiased_network_equals_centralized_ml_on_balanced_graph():
    # A balanced ring with ML weights: the network's debiased average is
    # exactly the centralized estimate because gamma is uniform.
    rng = np.random.default_rng(41)
    n = 6
    edges = tuple(Edge((i + 1) % n, i, 1.0, 0.02) for i in range(n))
    g = Digraph(n, edges)
    amps = rng.uniform(0.5, 2.0, n)
    variances = rng.uniform(0.5, 1.5, n)
    obs = amps * 1.7 + rng.normal(0.0, np.sqrt(variances))
    params = ml_setup(amps, variances, obs)
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=6000)
    result = debias_two_step(g, params, cfg, DebiasMode.SIMULATED)
    est, _ = centralized_ml(amps, variances, obs)
    assert result.estimate == pytest.approx(est, rel=1e-9)

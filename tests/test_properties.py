"""Property tests over random graphs: construction, validation, simulation,
influence, prediction and debias.

Graphs are drawn by hypothesis as a node count and a set of distinct
off-diagonal ``(dst, src)`` pairs with random gains and delays.  The
influence-vector support is checked against the brute-force reachability
oracle shared with the other test modules.
"""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsync import (
    DebiasError,
    DebiasMode,
    Digraph,
    Edge,
    GraphFormatError,
    InitialCondition,
    NodeParams,
    SimConfig,
    StepSizeWarning,
    classify,
    debias_two_step,
    laplacian,
    predict,
    simulate,
)
from selfsync import consensus

from _oracles import brute_root_union, euler_reference

props = settings(deadline=None, max_examples=60)

gains = st.floats(0.1, 3.0)
delays = st.floats(0.0, 0.02)


@st.composite
def graphs(draw, max_n=7, min_edges=0):
    n = draw(st.integers(2 if min_edges else 1, max_n))
    pairs = [(d, s) for d in range(n) for s in range(n) if d != s]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges)
                  if pairs else st.just([]))
    return Digraph(n, [Edge(d, s, draw(gains), draw(delays)) for d, s in chosen])


@st.composite
def rooted_graphs(draw, max_n=7):
    """Graphs with one root component: each node i > 0 hears some node below i."""
    n = draw(st.integers(1, max_n))
    tree = {(i, draw(st.integers(0, i - 1))) for i in range(1, n)}
    pairs = [(d, s) for d in range(n) for s in range(n) if d != s]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    links = sorted(tree | set(extra))
    return Digraph(n, [Edge(d, s, draw(gains), draw(st.floats(0.0, 0.2))) for d, s in links])


def _rejects(build) -> bool:
    try:
        build()
    except GraphFormatError:
        return True
    return False


@props
@given(graphs())
def test_edge_records_round_trip(g):
    assert Digraph(g.n, g.edges) == g
    assert Digraph.from_arrays(g.n, g.dst, g.src, g.gain, g.delay_s) == g


FAULTS = ["none", "dst out of range", "negative src", "self-loop", "repeat", "zero gain",
          "bad gain", "bad delay"]


@props
@given(graphs(min_edges=1), st.sampled_from(FAULTS), st.sampled_from([-1.0, np.nan, np.inf]),
       st.data())
def test_both_constructors_reject_the_same_inputs(g, fault, bad, data):
    edges = list(g.edges)
    k = data.draw(st.integers(0, len(edges) - 1))
    e = edges[k]
    edges[k] = {
        "none": e,
        "dst out of range": e._replace(dst=g.n),
        "negative src": e._replace(src=-1),
        "self-loop": e._replace(src=e.dst),
        "repeat": e,
        "zero gain": e._replace(gain=0.0),
        "bad gain": e._replace(gain=bad),
        "bad delay": e._replace(delay_s=bad),
    }[fault]
    if fault == "repeat":
        edges.insert(data.draw(st.integers(0, len(edges))), e._replace(gain=2.0))
    by_records = _rejects(lambda: Digraph(g.n, edges))
    by_arrays = _rejects(lambda: Digraph.from_arrays(g.n, *zip(*edges)))
    assert by_records == by_arrays == (fault != "none")


@pytest.mark.parametrize("column, bad", [
    (0, [0.5, 1]), (1, [True, True]), (1, [False, 0]), (0, [np.True_, 1]), (2, ["x", 1.0]),
    (2, ["1.0", "2.0"]), (3, [0.0, True]), (3, [None, 0.0]), (3, [[0.0], [0.0]]),
])
def test_both_constructors_reject_mistyped_columns(column, bad):
    cols = [[1, 2], [0, 0], [1.0, 1.0], [0.0, 0.0]]
    cols[column] = bad
    with pytest.raises(GraphFormatError):
        Digraph.from_arrays(3, *cols)
    with pytest.raises(GraphFormatError):
        Digraph(3, [Edge(*row) for row in zip(*cols)])
    for n in (0, True, 2.0):
        with pytest.raises(GraphFormatError):
            Digraph(n, ())
        with pytest.raises(GraphFormatError):
            Digraph.from_arrays(n, [], [], [], [])


@pytest.mark.parametrize("column, bad", [
    (0, np.array([0.0, 1.0])), (1, np.array([True, False])), (2, np.array(["1.0", "2.0"])),
    (3, np.array([False, False])), (3, np.array([0.0, None])),
])
def test_from_arrays_rejects_mistyped_array_columns(column, bad):
    cols = [np.array([1, 2]), np.array([0, 0]), np.ones(2), np.zeros(2)]
    cols[column] = bad
    with pytest.raises(GraphFormatError):
        Digraph.from_arrays(3, *cols)


def _node_data(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(1.0, 2.0, n), rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n)


@props
@given(graphs(max_n=5), graphs(max_n=5), st.integers(0, 2**32 - 1))
def test_disjoint_union_simulates_like_separate_runs(g1, g2, seed):
    weights, stats, start = _node_data(g1.n + g2.n, seed)
    union = Digraph.from_arrays(
        g1.n + g2.n,
        np.concatenate([g1.dst, g2.dst + g1.n]),
        np.concatenate([g1.src, g2.src + g1.n]),
        np.concatenate([g1.gain, g2.gain]),
        np.concatenate([g1.delay_s, g2.delay_s]),
    )

    def run(g, part):
        params = NodeParams(weights=weights[part], stats=stats[part])
        cfg = SimConfig(2.0, 1e-3, 60, InitialCondition.constant(start[part]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return simulate(g, params, cfg)

    whole = run(union, slice(None))
    for g, part in ((g1, slice(0, g1.n)), (g2, slice(g1.n, None))):
        alone = run(g, part)
        assert np.array_equal(whole.states[:, part], alone.states)
        assert np.array_equal(whole.derivs[:, part], alone.derivs)


@props
@given(graphs(min_edges=2), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_simulate_equals_plain_euler_oracle_bitwise(g, m_max, seed, data):
    step_s, horizon = 1e-3, 40
    lags = data.draw(st.lists(st.integers(0, m_max), min_size=g.dst.size, max_size=g.dst.size))
    lags[0], lags[1] = 0, m_max
    g = Digraph.from_arrays(g.n, g.dst, g.src, g.gain, np.array(lags) * step_s)
    weights, stats, _ = _node_data(g.n, seed)
    history = np.random.default_rng(seed).normal(0.0, 1.0, (m_max + 3, g.n))
    cfg = SimConfig(2.0, step_s, horizon, InitialCondition.samples(history))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate(g, NodeParams(weights=weights, stats=stats), cfg)
    states, derivs = euler_reference(g, weights, stats, 2.0, step_s, horizon, history)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


@props
@given(graphs(), st.randoms(use_true_random=False))
def test_influence_is_a_left_null_vector_on_the_roots(g, rnd):
    order = list(range(g.dst.size))
    rnd.shuffle(order)
    shuffled = Digraph.from_arrays(g.n, g.dst[order], g.src[order], g.gain[order], g.delay_s[order])
    adj = g.gain_matrix() > 0
    for graph in (g, shuffled):
        gamma = classify(graph).influence
        lap = laplacian(graph)
        scale = max(float(np.max(np.abs(lap).sum(axis=1))), 1e-300)
        assert np.max(np.abs(gamma @ lap)) <= 1e-10 * scale
        assert np.all(gamma >= 0.0)
        assert set(np.flatnonzero(gamma > 0.0)) == brute_root_union(g.n, adj)


@props
@given(graphs(), st.integers(0, 2**32 - 1), st.data())
def test_predict_keeps_cluster_rates_when_root_blocks_are_rescaled(g, seed, data):
    report = classify(g)
    influence = report.influence.copy()
    for nodes in report.root_nodes():
        influence[list(nodes)] *= data.draw(st.floats(0.01, 100.0))
    scaled = dataclasses.replace(report, influence=influence)
    weights, stats, _ = _node_data(g.n, seed)
    params = NodeParams(weights=weights, stats=stats)
    base = predict(g, params, 30.0, quantize_step=1e-3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "classify", lambda _g: scaled)
        got = predict(g, params, 30.0, quantize_step=1e-3)
    assert [c.members for c in got.clusters] == [c.members for c in base.clusters]
    assert got.unresolved == base.unresolved
    tol = 1e-13 * float(np.abs(stats).max())
    for mine, theirs in zip(got.clusters, base.clusters):
        assert mine.omega == pytest.approx(theirs.omega, rel=1e-12, abs=tol)


@props
@given(rooted_graphs(), st.floats(0.01, 100.0), st.sampled_from([1e-4, 1e-3, 1e-2]),
       st.integers(0, 2**32 - 1))
def test_analytic_debias_is_the_influence_weighted_mean(g, coupling, step_s, seed):
    rng = np.random.default_rng(seed)
    weights, stats = rng.uniform(0.5, 2.0, g.n), rng.uniform(0.5, 2.0, g.n)
    cfg = SimConfig(coupling, step_s, 2)
    result = debias_two_step(g, NodeParams(weights=weights, stats=stats), cfg, DebiasMode.ANALYTIC)
    gamma = classify(g).influence
    want = float(gamma @ (weights * stats)) / float(gamma @ weights)
    assert result.estimate == pytest.approx(want, rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(rooted_graphs(), st.integers(0, 2**32 - 1), st.booleans())
def test_simulated_debias_agrees_with_analytic(g, seed, zero_mean):
    rng = np.random.default_rng(seed)
    weights, stats = rng.uniform(0.5, 2.0, g.n), rng.normal(0.0, 1.0, g.n)
    if zero_mean:
        gc = classify(g).influence * weights
        stats -= float(gc @ stats) / float(gc.sum())
    params = NodeParams(weights=weights, stats=stats)
    cfg = SimConfig(5.0, 1e-3, 15000)
    analytic = debias_two_step(g, params, cfg, DebiasMode.ANALYTIC).estimate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        try:
            simulated = debias_two_step(g, params, cfg, DebiasMode.SIMULATED).estimate
        except DebiasError:
            assume(False)
    assert abs(simulated - analytic) <= 1e-6 * max(1.0, abs(analytic))

"""Property tests over random graphs: construction, validation, simulation, influence.

Graphs are drawn by hypothesis as a node count and a set of distinct
off-diagonal ``(dst, src)`` pairs with random gains and delays.  The
influence-vector support is checked against the brute-force reachability
oracle shared with the other test modules.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import (
    Digraph,
    Edge,
    GraphFormatError,
    InitialCondition,
    NodeParams,
    SimConfig,
    classify,
    laplacian,
    simulate,
)

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

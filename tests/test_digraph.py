"""Structure tests: Laplacian, SCC/condensation, classes, influence vector.

The classification and influence-support claims are checked against a
brute-force oracle built from boolean reachability matrices, with no shared
code with the implementation: exhaustively for every unit-gain digraph on
2..4 nodes, then on a seeded random corpus at n = 5.
"""
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from selfsync import (
    ConnectivityClass,
    Digraph,
    Edge,
    GraphFormatError,
    NullSpaceError,
    classify,
    laplacian,
    left_null_vector,
    load_graph,
    preset_network,
    save_graph,
    scc_decompose,
)
from selfsync.digraph import _root_block_null_vector, _root_blocks


from _oracles import brute_class, brute_root_union, graph_from_adj


# === Construction and validation ===

def test_edge_validation():
    with pytest.raises(GraphFormatError):
        Digraph(2, (Edge(0, 0, 1.0, 0.0),))  # self-loop
    with pytest.raises(GraphFormatError):
        Digraph(2, (Edge(0, 2, 1.0, 0.0),))  # out of range
    with pytest.raises(GraphFormatError):
        Digraph(2, (Edge(0, 1, -1.0, 0.0),))  # negative gain
    with pytest.raises(GraphFormatError):
        Digraph(2, (Edge(0, 1, 1.0, -0.5),))  # negative delay
    with pytest.raises(GraphFormatError):
        Digraph(2, (Edge(0, 1, 1.0, 0.0), Edge(0, 1, 2.0, 0.0)))  # duplicate
    with pytest.raises(GraphFormatError):
        Digraph(0, ())


def test_matrices_and_with_delays():
    g = Digraph(3, (Edge(1, 0, 2.0, 0.25), Edge(2, 1, 0.5, 0.75)))
    a = g.gain_matrix()
    assert a[1, 0] == 2.0 and a[2, 1] == 0.5 and a.sum() == 2.5
    d = g.delay_matrix()
    assert d[1, 0] == 0.25 and d[2, 1] == 0.75

    flat = g.with_delays(0.1)
    assert all(e.delay_s == 0.1 for e in flat.edges)
    mat = np.zeros((3, 3))
    mat[1, 0] = 0.4
    mat[2, 1] = 0.6
    custom = g.with_delays(mat)
    assert custom.delay_matrix()[1, 0] == 0.4
    assert custom.delay_matrix()[2, 1] == 0.6


def test_laplacian_hand_derived():
    # 0 hears 1 (gain 2) and 2 (gain 3); 1 hears 2 (gain 5).
    g = Digraph(3, (Edge(0, 1, 2.0, 0.0), Edge(0, 2, 3.0, 0.0), Edge(1, 2, 5.0, 0.0)))
    expected = np.array([
        [5.0, -2.0, -3.0],
        [0.0, 5.0, -5.0],
        [0.0, 0.0, 0.0],
    ])
    assert np.array_equal(laplacian(g), expected)
    assert np.allclose(laplacian(g).sum(axis=1), 0.0)


# === SCC decomposition ===

def test_scc_two_cycles_bridge():
    # Cycle {0,1} feeds cycle {2,3} through edge (2 hears 1).
    g = Digraph(4, (
        Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0),
        Edge(2, 3, 1.0, 0.0), Edge(3, 2, 1.0, 0.0),
        Edge(2, 1, 1.0, 0.0),
    ))
    sccs, cond = scc_decompose(g)
    assert sccs == ((0, 1), (2, 3))
    assert cond == ((0, 1),)  # information flows component 0 -> 1


def test_scc_singletons_in_dag():
    g = Digraph(3, (Edge(1, 0, 1.0, 0.0), Edge(2, 1, 1.0, 0.0)))
    sccs, cond = scc_decompose(g)
    assert sccs == ((0,), (1,), (2,))
    assert cond == ((0, 1), (1, 2))


def test_classify_hand_cases():
    cyc = Digraph(3, tuple(Edge((i + 1) % 3, i, 1.0, 0.0) for i in range(3)))
    assert classify(cyc).kind is ConnectivityClass.SC
    assert classify(cyc).balanced

    chain = Digraph(2, (Edge(1, 0, 1.0, 0.0),))
    rep = classify(chain)
    assert rep.kind is ConnectivityClass.QSC_NOT_SC
    assert rep.root_nodes() == ((0,),)
    assert not rep.balanced
    assert np.array_equal(rep.influence, [1.0, 0.0])

    vee = Digraph(3, (Edge(2, 0, 1.0, 0.0), Edge(2, 1, 1.0, 0.0)))
    assert classify(vee).kind is ConnectivityClass.WC_NOT_QSC

    iso = Digraph(3, (Edge(1, 0, 1.0, 0.0),))
    assert classify(iso).kind is ConnectivityClass.DISCONNECTED


def test_classify_exhaustive_small_n():
    """Every unit-gain digraph on 2..4 nodes matches the brute-force class."""
    for n in (2, 3, 4):
        pairs = [(dst, src) for dst in range(n) for src in range(n) if dst != src]
        for mask in itertools.product((0, 1), repeat=len(pairs)):
            adj = np.zeros((n, n))
            for bit, (dst, src) in zip(mask, pairs):
                if bit:
                    adj[dst, src] = 1.0
            g = graph_from_adj(adj)
            assert classify(g).kind is brute_class(n, adj), f"n={n} mask={mask}"


def test_classify_random_n5():
    rng = np.random.default_rng(20260815)
    for trial in range(20000):
        n = 5
        density = rng.choice([0.1, 0.25, 0.5, 0.8])
        adj = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
        g = graph_from_adj(adj)
        assert classify(g).kind is brute_class(n, adj), f"trial={trial}"


def test_balanced_flag_weighted():
    # Received sums equal transmitted sums even with unequal gains.
    g = Digraph(3, (
        Edge(1, 0, 2.0, 0.0), Edge(2, 1, 2.0, 0.0), Edge(0, 2, 2.0, 0.0),
    ))
    assert classify(g).balanced
    g2 = Digraph(3, (
        Edge(1, 0, 2.0, 0.0), Edge(2, 1, 1.0, 0.0), Edge(0, 2, 2.0, 0.0),
    ))
    assert not classify(g2).balanced


# === Influence vector (left null vector) ===

def test_influence_uniform_on_balanced_cycle():
    for n in (3, 5, 8):
        g = Digraph(n, tuple(Edge((i + 1) % n, i, 1.0, 0.0) for i in range(n)))
        gamma = left_null_vector(g)
        assert np.allclose(gamma, 1.0 / np.sqrt(n), rtol=0, atol=1e-12)


def test_influence_two_node_asymmetric():
    # Mutual pair with gains 1 and 3: gamma solves gamma^T L = 0 with
    # L = [[1, -1], [-3, 3]], so gamma is proportional to [3, 1].
    g = Digraph(2, (Edge(0, 1, 1.0, 0.0), Edge(1, 0, 3.0, 0.0)))
    gamma = left_null_vector(g)
    expected = np.array([3.0, 1.0]) / np.sqrt(10.0)
    assert np.allclose(gamma, expected, rtol=0, atol=1e-12)


def test_influence_on_biased_chain_spanning_eleven_decades():
    # Node i hears i+1 with gain 1 and i-1 with gain 0.1, so influence
    # grows tenfold per hop and node 0 has the least: gamma_i ∝ 10**i.
    n = 12
    g = Digraph(n, [Edge(i, i + 1, 1.0, 0.0) for i in range(n - 1)]
                + [Edge(i + 1, i, 0.1, 0.0) for i in range(n - 1)])
    gamma = classify(g).influence
    lap = laplacian(g)
    assert np.max(np.abs(gamma @ lap)) <= 1e-10 * np.max(np.abs(lap).sum(axis=1))
    assert np.allclose(gamma[1:] / gamma[:-1], 10.0, rtol=1e-12, atol=0)


def test_influence_residual_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        adj = (rng.random((n, n)) < 0.4) & ~np.eye(n, dtype=bool)
        gains = rng.uniform(0.1, 3.0, size=(n, n))
        g = graph_from_adj(adj, gains)
        gamma = left_null_vector(g)
        lap = laplacian(g)
        lap_norm = np.max(np.abs(lap).sum(axis=1))
        assert np.max(np.abs(gamma @ lap)) <= 1e-10 * max(lap_norm, 1e-300)
        assert np.all(gamma >= 0.0)


def test_influence_support_matches_roots():
    rng = np.random.default_rng(99)
    for _ in range(400):
        n = int(rng.integers(2, 8))
        adj = (rng.random((n, n)) < rng.choice([0.2, 0.5])) & ~np.eye(n, dtype=bool)
        g = graph_from_adj(adj)
        gamma = left_null_vector(g)
        support = set(np.flatnonzero(gamma > 0.0))
        assert support == brute_root_union(n, adj)


def test_influence_root_blocks_unit_norm():
    # Two separate 2-cycles: each root block carries unit 2-norm.
    g = Digraph(4, (
        Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0),
        Edge(2, 3, 1.0, 0.0), Edge(3, 2, 1.0, 0.0),
    ))
    rep = classify(g)
    assert rep.kind is ConnectivityClass.DISCONNECTED
    gamma = rep.influence
    assert np.isclose(np.linalg.norm(gamma[[0, 1]]), 1.0, rtol=0, atol=1e-12)
    assert np.isclose(np.linalg.norm(gamma[[2, 3]]), 1.0, rtol=0, atol=1e-12)


def test_root_blocks_are_the_laplacian_cut_to_each_root():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        adj = (rng.random((n, n)) < rng.choice([0.2, 0.5])) & ~np.eye(n, dtype=bool)
        g = graph_from_adj(adj, rng.uniform(0.1, 3.0, size=(n, n)))
        rep = classify(g)
        lap = laplacian(g)
        roots = [rep.sccs[i] for i in rep.root_sccs]
        for nodes, block in _root_blocks(g, roots):
            want = lap[np.ix_(nodes, nodes)]
            if rep.kind is ConnectivityClass.SC:
                assert np.array_equal(block, want)
            assert np.allclose(block, want, rtol=1e-15, atol=0)


def test_wide_out_star_needs_no_dense_laplacian():
    # One root node heard by 3000 leaves: a dense Laplacian alone is 72 MB.
    leaves = np.arange(1, 3001)
    g = Digraph.from_arrays(3001, leaves, np.zeros_like(leaves), np.ones(3000), np.zeros(3000))
    tracemalloc.start()
    try:
        classify(g)
        gamma = left_null_vector(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert gamma[0] == 1.0 and not gamma[1:].any()


def test_null_space_error_on_defective_block():
    # An identity block has no left null vector at all.
    with pytest.raises(NullSpaceError):
        _root_block_null_vector(np.eye(2))
    # A zero diagonal cannot be a root component's coupling block.
    with pytest.raises(NullSpaceError):
        _root_block_null_vector(np.zeros((2, 2)))


def test_left_null_vector_rejects_tampered_report(monkeypatch):
    import dataclasses

    from selfsync import digraph

    g = Digraph(2, (Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0)))
    bad = dataclasses.replace(classify(g), influence=np.array([1.0, 0.0]))
    monkeypatch.setattr(digraph, "classify", lambda _g: bad)
    with pytest.raises(NullSpaceError):
        left_null_vector(g)


def test_classify_report_is_shared_and_read_only():
    g = Digraph(3, (Edge(1, 0, 1.0, 0.0), Edge(0, 1, 2.0, 0.0), Edge(2, 1, 1.0, 0.0)))
    report = classify(g)
    assert classify(g) is report
    with pytest.raises(ValueError):
        report.influence[0] = 5.0
    with pytest.raises(ValueError):
        report.reach[0, 2] = False
    gamma = left_null_vector(g)
    gamma[0] = 5.0
    assert classify(g).influence[0] != 5.0


def test_reports_compare_by_value():
    def ring(gains):
        return Digraph(3, [Edge((i + 1) % 3, i, gain, 0.0) for i, gain in enumerate(gains)])

    two = (Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0))
    assert classify(Digraph(2, two)) == classify(Digraph(2, two[::-1]))
    assert classify(ring([1.0, 2.0, 3.0])) == classify(ring([1.0, 2.0, 3.0]))
    # Same class, components and balance; only the influence differs.
    assert classify(ring([1.0, 2.0, 3.0])) != classify(ring([1.0, 3.0, 2.0]))
    assert classify(Digraph(2, two)) != classify(Digraph(2, two[:1]))
    assert classify(Digraph(2, two)) != "SC"
    with pytest.raises(TypeError):
        hash(classify(Digraph(2, two)))


@pytest.mark.parametrize("kind", [ConnectivityClass.DISCONNECTED, ConnectivityClass.WC_NOT_QSC])
def test_tarjan_runs_once_per_classification(kind, monkeypatch):
    from selfsync import digraph

    calls = []
    tarjan = digraph._tarjan_components

    def counted(n, succ):
        calls.append(n)
        return tarjan(n, succ)

    monkeypatch.setattr(digraph, "_tarjan_components", counted)
    if kind is ConnectivityClass.DISCONNECTED:
        g = Digraph(3, ())
    else:
        g = preset_network("forest", delay_s=0.0)[0]
    assert classify(g).kind is kind
    assert len(calls) == 1


def test_failed_classification_is_not_cached(monkeypatch):
    from selfsync import digraph

    def failing(block):
        raise NullSpaceError("forced")

    g = Digraph(2, (Edge(0, 1, 1.0, 0.0), Edge(1, 0, 1.0, 0.0)))
    with monkeypatch.context() as patch:
        patch.setattr(digraph, "_root_block_null_vector", failing)
        with pytest.raises(NullSpaceError):
            classify(g)
    assert classify(g).kind is ConnectivityClass.SC


# === JSON wire format ===

def test_graph_json_round_trip(tmp_path):
    g = Digraph(3, (Edge(1, 0, 2.5, 0.031), Edge(2, 1, 0.125, 0.0)))
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_graph(path)
    assert back == g


def test_load_graph_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        load_graph(path)

    path.write_text(json.dumps({"edges": []}))
    with pytest.raises(GraphFormatError):
        load_graph(path)

    path.write_text(json.dumps({"n": 2, "edges": [{"dst": 0, "src": 1}]}))
    with pytest.raises(GraphFormatError):
        load_graph(path)

    doc = {"n": 2, "edges": [
        {"dst": 0, "src": 1, "gain": 1.0, "delay_s": 0.0},
        {"dst": 0, "src": 1, "gain": 2.0, "delay_s": 0.0},
    ]}
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError):
        load_graph(path)

    # Bools, fractional ids and strings are rejected, not coerced.
    good = {"dst": 1, "src": 0, "gain": 1.0, "delay_s": 0.0}
    for n, field, value in [
        (True, None, None),
        (2.0, None, None),
        (2, "dst", 1.7),
        (2, "dst", True),
        (2, "src", "0"),
        (2, "gain", "1.0"),
        (2, "delay_s", None),
    ]:
        edge = dict(good) if field is None else {**good, field: value}
        path.write_text(json.dumps({"n": n, "edges": [edge]}))
        with pytest.raises(GraphFormatError):
            load_graph(path)


def test_report_json_dict_shape():
    g = Digraph(2, (Edge(1, 0, 1.0, 0.0),))
    doc = classify(g).to_json_dict()
    assert doc["class"] == "QSC_NOT_SC"
    assert doc["sccs"] == [[0], [1]]
    assert doc["condensation"] == [[0, 1]]
    assert doc["root_sccs"] == [[0]]
    assert doc["influence"] == [1.0, 0.0]

"""Property tests over random graphs: construction, validation, simulation,
influence, prediction and debias.

Graphs are drawn by hypothesis as a node count and a set of distinct
off-diagonal ``(dst, src)`` pairs with random gains and delays.  The
influence-vector support is checked against the brute-force reachability
oracle shared with the other test modules.
"""
import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfsync import (
    ConnectivityClass,
    DebiasError,
    DebiasMode,
    Digraph,
    Edge,
    Fading,
    GraphFormatError,
    NodeParams,
    RadioConfig,
    SimConfig,
    StepSizeWarning,
    classify,
    debias_two_step,
    detect_consensus,
    disjoint_union,
    ensure_connectivity,
    laplacian,
    predict,
    quantize_delays,
    scc_decompose,
    simulate,
)
from selfsync import consensus, dynamics
from selfsync.digraph import _SC_ROUNDS, _root_block_null_vector, _root_blocks, _spread

from _oracles import (
    brute_reach,
    brute_root_union,
    euler_reference,
    first_bad_edge_message,
    two_solve_null_vector,
)

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


@props
@given(graphs(min_edges=1),
       st.lists(st.tuples(st.sampled_from(FAULTS[1:] + ["far out of range"]), st.integers(0, 99),
                          st.sampled_from([-1.0, -np.inf, np.nan, np.inf])),
                min_size=1, max_size=4))
def test_every_invalid_edge_class_names_the_edge_as_before(g, faults):
    # Several faults at once, so the order of the conditions shows too.
    dst, src, gain, delay = (getattr(g, name).copy() for name in ("dst", "src", "gain", "delay_s"))
    for fault, at, bad in faults:
        k = at % dst.size
        if fault == "repeat":
            dst, src, gain, delay = (np.insert(c, at % (dst.size + 1), c[k])
                                     for c in (dst, src, gain, delay))
            continue
        if fault in ("dst out of range", "far out of range"):
            dst[k] = g.n if fault == "dst out of range" else 2**62
        elif fault == "negative src":
            src[k] = -1
        elif fault == "self-loop":
            src[k] = dst[k]
        elif fault == "zero gain":
            gain[k] = 0.0
        elif fault == "bad gain":
            gain[k] = bad
        else:
            delay[k] = bad
    want = first_bad_edge_message(g.n, dst, src, gain, delay)
    assert want is not None
    with pytest.raises(GraphFormatError) as err:
        Digraph.from_arrays(g.n, dst, src, gain, delay)
    assert str(err.value) == want


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
        cfg = SimConfig(2.0, 1e-3, 60, start[part])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return simulate(g, params, cfg)

    whole = run(union, slice(None))
    for g, part in ((g1, slice(0, g1.n)), (g2, slice(g1.n, None))):
        alone = run(g, part)
        assert np.array_equal(whole.states[:, part], alone.states)
        assert np.array_equal(whole.derivs[:, part], alone.derivs)


@props
@given(graphs(), st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1))
def test_flat_and_block_histories_simulate_alike(g, value, seed):
    # A scalar, one value per node and the full (m_max + 1, n) block are the
    # same flat history; a longer block is read by its trailing rows.
    weights, stats, _ = _node_data(g.n, seed)
    m_max = int(quantize_delays(g, 1e-3).max(initial=0))
    block = np.full((m_max + 1, g.n), value)
    older = np.random.default_rng(seed).normal(0.0, 1.0, (3, g.n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = NodeParams(weights=weights, stats=stats)
        runs = [simulate(g, params, SimConfig(2.0, 1e-3, 30, init))
                for init in (value, np.full(g.n, value), block, np.vstack([older, block]))]
    for run in runs[1:]:
        assert np.array_equal(run.states, runs[0].states)
        assert np.array_equal(run.derivs, runs[0].derivs)


@props
@given(graphs(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
@example(Digraph(3, []), random.Random(0), 0)
@example(Digraph(4, [Edge(1, 0, 1.0, 0.003), Edge(3, 0, 0.5, 0.0), Edge(1, 2, 2.0, 0.01),
                     Edge(3, 1, 1.5, 0.007)]), random.Random(1), 1)
def test_simulation_ignores_how_listeners_interleave(g, rnd, seed):
    # Deal the links out listener by listener in a random order; each
    # listener still sees its own links in edge order.
    slots = g.dst.tolist()
    rnd.shuffle(slots)
    queues = {d: [e for e in range(g.dst.size) if g.dst[e] == d] for d in set(slots)}
    order = [queues[d].pop(0) for d in slots]
    dealt = Digraph.from_arrays(g.n, g.dst[order], g.src[order], g.gain[order], g.delay_s[order])
    # The listener-sorted graph, stepped without a sort of its own.
    ranked = np.argsort(g.dst, kind="stable")
    ordered = Digraph.from_arrays(g.n, g.dst[ranked], g.src[ranked], g.gain[ranked],
                                  g.delay_s[ranked])
    weights, stats, _ = _node_data(g.n, seed)
    history = np.random.default_rng(seed).normal(0.0, 1.0, (25, g.n))
    cfg = SimConfig(2.0, 1e-3, 40, history)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want, *runs = (simulate(x, NodeParams(weights=weights, stats=stats), cfg)
                       for x in (ordered, g, dealt))
    for run in runs:
        assert np.array_equal(run.states, want.states)
        assert np.array_equal(run.derivs, want.derivs)


@props
@given(graphs(min_edges=2), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_simulate_equals_plain_euler_oracle_bitwise(g, m_max, seed, data):
    step_s, horizon = 1e-3, 40
    lags = data.draw(st.lists(st.integers(0, m_max), min_size=g.dst.size, max_size=g.dst.size))
    lags[0], lags[1] = 0, m_max
    g = Digraph.from_arrays(g.n, g.dst, g.src, g.gain, np.array(lags) * step_s)
    weights, stats, _ = _node_data(g.n, seed)
    history = np.random.default_rng(seed).normal(0.0, 1.0, (m_max + 3, g.n))
    cfg = SimConfig(2.0, step_s, horizon, history)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate(g, NodeParams(weights=weights, stats=stats), cfg)
    states, derivs = euler_reference(g, weights, stats, 2.0, step_s, horizon, history)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


def _windowed_run(g, lags, window, seed, horizon=40, step_s=1e-3):
    """``_integrate``'s blocks of ``window`` steps, joined, and the Euler oracle's run."""
    g = Digraph.from_arrays(g.n, g.dst, g.src, g.gain, np.array(lags) * step_s)
    weights, stats, _ = _node_data(g.n, seed)
    history = np.random.default_rng(seed).normal(0.0, 1.0, (max(lags) + 3, g.n))
    cfg = SimConfig(2.0, step_s, horizon, history)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        blocks = [(s.copy(), d.copy()) for _, s, d in
                  dynamics._integrate(g, NodeParams(weights=weights, stats=stats), cfg, window)]
    got = tuple(np.concatenate(part) for part in zip(*blocks))
    return got, euler_reference(g, weights, stats, 2.0, step_s, horizon, history)


@props
@given(graphs(min_edges=1), st.integers(1, 6), st.integers(1, 45), st.integers(0, 2**32 - 1),
       st.data())
def test_multi_step_tiles_equal_plain_euler_oracle_bitwise(g, lag_min, window, seed, data):
    # Every lag is at least lag_min >= 1, so one tile gathers every link for
    # lag_min + 1 steps; a window the span does not divide ends in a
    # shorter tile, and the next window starts a fresh one.
    lags = data.draw(st.lists(st.integers(lag_min, lag_min + 4),
                              min_size=g.dst.size, max_size=g.dst.size))
    (states, derivs), (want_states, want_derivs) = _windowed_run(g, lags, window, seed)
    assert np.array_equal(states, want_states)
    assert np.array_equal(derivs, want_derivs)


@props
@given(graphs(min_edges=1), st.integers(0, 3), st.integers(1, 45), st.integers(0, 2**32 - 1),
       st.data())
def test_small_tiles_around_unheard_nodes_equal_plain_euler_oracle_bitwise(
        g, lag_min, window, seed, data):
    # Node 0 hears nobody, so the per-segment sums reach the nodes through
    # the fancy store.  A tile cap below one step's links splits each step
    # into tiles of whole listener segments (a longer segment alone); a cap
    # of a few steps' links, with lag_min >= 1, tiles several steps.
    g = Digraph.from_arrays(g.n + 1, np.append(g.dst + 1, 1), np.append(g.src + 1, 0),
                            np.append(g.gain, 0.7), np.append(g.delay_s, 0.0))
    cap = data.draw(st.integers(1, 3 * g.dst.size))
    lags = data.draw(st.lists(st.integers(lag_min, lag_min + 4),
                              min_size=g.dst.size, max_size=g.dst.size))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_LINKS", cap)
        (states, derivs), (want_states, want_derivs) = _windowed_run(g, lags, window, seed)
    assert np.array_equal(states, want_states)
    assert np.array_equal(derivs, want_derivs)


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


def _two_cycle_line(pairs: int, *, both_ends: bool = False) -> Digraph:
    """2-cycles {2i, 2i+1} in a line, each hearing the one before it.

    With ``both_ends`` the second half of the line runs the other way, so
    the two end cycles are roots and the middle cycle hears both.
    """
    edges = [Edge(a, b, 1.0, 0.0) for i in range(pairs) for a, b in
             ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))]
    for i in range(1, pairs):
        later = both_ends and i > pairs // 2
        edges.append(Edge(2 * i - 1, 2 * i, 1.0, 0.0) if later else Edge(2 * i, 2 * i - 1, 1.0, 0.0))
    return Digraph(2 * pairs, edges)


@props
@given(graphs())
@example(_two_cycle_line(15))
@example(_two_cycle_line(15, both_ends=True))
def test_reach_and_cluster_membership_match_the_oracle(g):
    adj = g.gain_matrix() > 0
    oracle = brute_reach(g.n, adj)
    report = classify(g)
    roots = [report.sccs[i] for i in report.root_sccs]
    assert set().union(*roots) == brute_root_union(g.n, adj)
    rows = np.array([oracle[nodes[0]] for nodes in roots])
    assert np.array_equal(report.reach, rows)
    owners = rows.sum(axis=0)
    pred = predict(g, NodeParams(weights=np.ones(g.n), stats=np.arange(g.n, dtype=float)), 30.0)
    assert [c.root for c in pred.clusters] == list(roots)
    assert [c.members for c in pred.clusters] == [
        tuple(np.flatnonzero(row & (owners == 1)).tolist()) for row in rows
    ]
    assert pred.unresolved == tuple(np.flatnonzero(owners > 1).tolist())


def _out_star(leaves: int) -> Digraph:
    return Digraph(leaves + 1, [Edge(i, 0, 1.0, 0.0) for i in range(1, leaves + 1)])


def _chain(n: int) -> Digraph:
    return Digraph(n, [Edge(i + 1, i, 1.0, 0.0) for i in range(n - 1)])


@props
@given(graphs(), st.randoms(use_true_random=False))
@example(_out_star(300), random.Random(0))
@example(_chain(30), random.Random(0))
@example(_two_cycle_line(15), random.Random(0))
def test_sccs_and_condensation_match_the_oracle(g, rnd):
    oracle = brute_reach(g.n, g.gain_matrix() > 0)
    comps = sorted({tuple(np.flatnonzero(row).tolist()) for row in oracle & oracle.T})
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    flow = {(comp_of[s], comp_of[d]) for d, s in zip(g.dst.tolist(), g.src.tolist())}
    assert scc_decompose(g) == (tuple(comps), tuple(sorted((a, b) for a, b in flow if a != b)))
    perm = rnd.sample(range(g.dst.size), g.dst.size)
    shuffled = Digraph.from_arrays(g.n, g.dst[perm], g.src[perm], g.gain[perm], g.delay_s[perm])
    assert classify(shuffled) == classify(g)


@st.composite
def long_cycles(draw, max_n=3 * _SC_ROUNDS):
    """Strongly connected graphs: a cycle through every node in a drawn
    order, plus a few chords.  Most are too long for the capped sweeps."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    links = {(order[(i + 1) % n], order[i]) for i in range(n)}
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    links |= set(draw(st.lists(chords, max_size=3)))
    return Digraph(n, [Edge(d, s, draw(gains), draw(delays)) for d, s in sorted(links)])


@st.composite
def sc_rayleigh_draws(draw):
    radio = RadioConfig(n=draw(st.integers(2, 40)), hear_threshold=draw(st.floats(0.05, 5.0)),
                        fading=Fading.RAYLEIGH, delay_span_s=0.02,
                        seed=draw(st.integers(0, 2**32 - 1)))
    return ensure_connectivity(radio, "SC").graph


def _tarjan_report_fields(g):
    """Class, components, roots, reach and influence from Tarjan's components."""
    sccs, condensation = scc_decompose(g)
    heard = {b for _a, b in condensation}
    root_sccs = tuple(i for i in range(len(sccs)) if i not in heard)
    reach = np.zeros((len(root_sccs), g.n), dtype=bool)
    for k, i in enumerate(root_sccs):
        reach[k, list(sccs[i])] = True
    _spread(g.src, g.dst, reach)
    if len(sccs) == 1:
        kind = ConnectivityClass.SC
    elif len(root_sccs) == 1:
        kind = ConnectivityClass.QSC_NOT_SC
    elif _spread(np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src]),
                 np.eye(1, g.n, dtype=bool)).all():
        kind = ConnectivityClass.WC_NOT_QSC
    else:
        kind = ConnectivityClass.DISCONNECTED
    influence = np.zeros(g.n)
    for nodes, block in _root_blocks(g, [sccs[i] for i in root_sccs]):
        influence[nodes] = _root_block_null_vector(block)
    return kind, sccs, condensation, root_sccs, reach, influence


@props
@given(st.one_of(graphs(), long_cycles(), sc_rayleigh_draws()))
@example(Digraph(1, ()))
@example(_chain(30))
@example(_two_cycle_line(15))
def test_classify_matches_the_tarjan_assembly(g):
    report = classify(g)
    kind, sccs, condensation, root_sccs, reach, influence = _tarjan_report_fields(g)
    assert (report.kind, report.sccs, report.condensation, report.root_sccs) == (
        kind, sccs, condensation, root_sccs)
    assert np.array_equal(report.reach, reach)
    assert np.array_equal(report.influence, influence)


@st.composite
def uniform_rings(draw, max_n=3 * _SC_ROUNDS):
    """Directed rings with one gain on every link: every influence entry ties."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    gain = draw(gains)
    return Digraph(n, [Edge(order[(i + 1) % n], order[i], gain, 0.0) for i in range(n)])


def _biased_chain(n: int = 12) -> Digraph:
    """Node i hears i+1 with gain 1 and i-1 with gain 0.1: influence spans n-1 decades."""
    return Digraph(n, [Edge(i, i + 1, 1.0, 0.0) for i in range(n - 1)]
                   + [Edge(i + 1, i, 0.1, 0.0) for i in range(n - 1)])


@props
@given(st.one_of(graphs(), long_cycles(), sc_rayleigh_draws(), uniform_rings()))
@example(_biased_chain())
@example(Digraph(400, [Edge((i + 1) % 400, i, 1.0, 0.0) for i in range(400)]))
@example(Digraph(13, [  # a ring whose influence ties at nodes 1 and 5
    Edge(dst, src, gain, 0.0) for dst, (src, gain) in enumerate(zip(
        [5, 0, 1, 2, 3, 12, 4, 6, 7, 8, 9, 10, 11], [1, 0.5, 1, 1, 1, 0.5] + [1] * 6 + [1.9765625]))]))
def test_influence_is_the_two_solve_null_vector_bitwise(g):
    # One solve pinned at the walk's guess, or a second at the solution's
    # peak, ends on the pin the two-solve oracle ends on.
    report = classify(g)
    want = np.zeros(g.n)
    for nodes, block in _root_blocks(g, [report.sccs[i] for i in report.root_sccs]):
        want[nodes] = two_solve_null_vector(block)
    assert np.array_equal(report.influence, want)


def test_tied_ring_influence_is_the_two_solve_null_vector_bitwise():
    # Rings whose gains come from a few powers of two (and one near one)
    # tie their largest influence entries, where the pin order shows.
    rng = np.random.default_rng(19)
    for _ in range(3000):
        n = int(rng.integers(2, 25))
        order, gain = rng.permutation(n), rng.choice([0.25, 0.5, 1.0, 2.0, 1.9765625], n)
        g = Digraph(n, [Edge(int(order[(i + 1) % n]), int(order[i]), float(gain[i]), 0.0)
                        for i in range(n)])
        ((nodes, block),) = _root_blocks(g, [tuple(range(n))])
        assert np.array_equal(classify(g).influence[nodes], two_solve_null_vector(block))


@props
@given(graphs(), st.integers(0, 2**32 - 1), st.data())
def test_predict_keeps_cluster_rates_when_root_blocks_are_rescaled(g, seed, data):
    report = classify(g)
    influence = report.influence.copy()
    for nodes in [report.sccs[i] for i in report.root_sccs]:
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


@props
@given(rooted_graphs(), st.floats(0.01, 100.0), st.sampled_from([1e-4, 1e-3, 1e-2]),
       st.integers(0, 2**32 - 1))
def test_analytic_debias_divides_the_two_predicted_rates_bitwise(g, coupling, step_s, seed):
    rng = np.random.default_rng(seed)
    params = NodeParams(weights=rng.uniform(0.5, 2.0, g.n), stats=rng.normal(1.0, 1.0, g.n))
    ones = NodeParams(weights=params.weights, stats=np.ones(g.n))
    result = debias_two_step(g, params, SimConfig(coupling, step_s, 2), DebiasMode.ANALYTIC)
    stat, ref = (predict(g, p, coupling, quantize_step=step_s).global_omega for p in (params, ones))
    assert (result.omega_stat, result.omega_reference, result.estimate) == (stat, ref, stat / ref)


# Link delays for the union property: zero lag, a few steps, or a lag
# longer than the whole 260-step run.
lags = st.one_of(st.just(0.0), st.floats(0.0, 0.02), st.integers(150, 400).map(lambda k: k * 1e-3))


@st.composite
def lagged_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(d, s) for d in range(n) for s in range(n) if d != s]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Digraph(n, [Edge(d, s, draw(gains), draw(lags)) for d, s in chosen])


@props
@given(st.lists(lagged_graphs(), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_disjoint_union_blocks_simulate_as_their_graphs(gs, seed):
    rng = np.random.default_rng(seed)
    params = [NodeParams(weights=rng.uniform(1.0, 2.0, g.n), stats=rng.normal(0.0, 1.0, g.n))
              for g in gs]
    starts = [rng.normal(0.0, 1.0, g.n) for g in gs]
    union = disjoint_union(gs)
    assert union.n == sum(g.n for g in gs)
    assert union.dst.size == sum(g.dst.size for g in gs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        whole = simulate(union, NodeParams(weights=np.concatenate([p.weights for p in params]),
                                           stats=np.concatenate([p.stats for p in params])),
                         SimConfig(30.0, 1e-3, 260, np.concatenate(starts)))
        lo = 0
        for g, p, x0 in zip(gs, params, starts):
            own = simulate(g, p, SimConfig(30.0, 1e-3, 260, x0))
            states, derivs = whole.states[:, lo:lo + g.n], whole.derivs[:, lo:lo + g.n]
            assert np.array_equal(states, own.states)
            assert np.array_equal(derivs, own.derivs)
            assert detect_consensus(derivs) == detect_consensus(own.derivs)
            lo += g.n


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

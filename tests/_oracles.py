"""Brute-force reference implementations shared by the test modules.

The reachability oracles work from boolean matrices only, and the others
by plain loops or plain dense solves, sharing no code path with the
package under test.  Dense delay matrices and the JSON-Schema of the
prediction document live here too: only tests use them.
"""
import numpy as np

from selfsync import ConnectivityClass, Digraph, Edge


def brute_reach(n: int, adj: np.ndarray) -> np.ndarray:
    """reach[r, q] is True when a directed path r -> ... -> q exists.

    adj[dst, src] = True means dst hears src, i.e. information flows
    src -> dst, so one hop extends reach via adj transposed.  The hops
    stop once one adds nothing, since no later hop can.
    """
    reach = np.eye(n, dtype=bool)
    for _ in range(n):
        grown = reach | (reach @ adj.T.astype(bool))
        if np.array_equal(grown, reach):
            break
        reach = grown
    return reach


def brute_class(n: int, adj: np.ndarray) -> ConnectivityClass:
    reach = brute_reach(n, adj)
    if reach.all():
        return ConnectivityClass.SC
    if reach.all(axis=1).any():
        return ConnectivityClass.QSC_NOT_SC
    und = np.eye(n, dtype=bool) | adj.astype(bool) | adj.astype(bool).T
    closure = np.eye(n, dtype=bool)
    for _ in range(n):
        closure = closure | (closure @ und)
    if closure.all():
        return ConnectivityClass.WC_NOT_QSC
    return ConnectivityClass.DISCONNECTED


def reaches_all_set(n: int, adj: np.ndarray) -> set:
    """Nodes from which every node is reachable (empty unless one root rules)."""
    reach = brute_reach(n, adj)
    return set(np.flatnonzero(reach.all(axis=1)))


def brute_root_union(n: int, adj: np.ndarray) -> set:
    """Union of root components: nodes whose component hears nothing outside."""
    reach = brute_reach(n, adj)
    mutual = reach & reach.T
    roots = set()
    for v in range(n):
        scc = set(np.flatnonzero(mutual[v]))
        incoming = any(
            adj[q, p] for q in scc for p in range(n) if p not in scc
        )
        if not incoming:
            roots |= scc
    return roots


def two_solve_null_vector(block: np.ndarray) -> np.ndarray:
    """Unit left null vector of a root block, from the solve pinned at its peak.

    The first solve pins node 0 to 1; when the solution peaks elsewhere, a
    second solve pins that peak.  Each solve replaces the pinned row of
    ``block.T`` by the unit row, as the package does.
    """
    def pinned(pin):
        system = block.T.copy()
        system[pin, :] = 0.0
        system[pin, pin] = 1.0
        return np.linalg.solve(system, np.eye(block.shape[0])[pin])

    if block.shape[0] == 1:
        return np.ones(1)
    x = pinned(0)
    top = int(np.argmax(x))
    if top != 0:
        x = pinned(top)
    return x / np.linalg.norm(x)


def graph_from_adj(
    adj: np.ndarray,
    gains: "np.ndarray | None" = None,
    delays: "np.ndarray | None" = None,
) -> Digraph:
    n = adj.shape[0]
    edges = []
    for dst in range(n):
        for src in range(n):
            if dst != src and adj[dst, src]:
                gain = 1.0 if gains is None else float(gains[dst, src])
                delay = 0.0 if delays is None else float(delays[dst, src])
                edges.append(Edge(dst, src, gain, delay))
    return Digraph(n, tuple(edges))


def delay_matrix(g: Digraph) -> np.ndarray:
    """Dense delay matrix aligned with ``g.gain_matrix()`` (0 off-edge)."""
    d = np.zeros((g.n, g.n))
    d[g.dst, g.src] = g.delay_s
    return d


def with_delay_matrix(g: Digraph, delays: np.ndarray) -> Digraph:
    """Copy of ``g`` whose link ``dst <- src`` takes the delay ``delays[dst, src]``."""
    new = np.asarray(delays, dtype=float)[g.dst, g.src]
    return Digraph.from_arrays(g.n, g.dst, g.src, g.gain, new)


# JSON-Schema of ``ConsensusPrediction.to_json_dict()``.
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


def euler_reference(g: Digraph, weights, stats, coupling: float, step_s: float,
                    horizon: int, history: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Explicit Euler by plain loops: ``(states, derivs)``, each ``(horizon, n)``.

    Delays become dense integer lags (round half to even); ``history``
    supplies states at steps ``-m_max .. 0`` from its trailing rows.  Each
    node collects its links' terms ``gain * x_src[k - lag]`` in edge order
    and sums them as ``np.add.reduceat`` sums one segment: the first term
    plus numpy's pairwise reduce of the rest.  Its inflow (the gain sum) is
    summed the same way, and ``xdot = u + (K / c) * (pull - inflow * now)``,
    so the arithmetic is the simulator's, operation for operation.
    """
    n = g.n
    lags = [[round(d / step_s) for d in row] for row in delay_matrix(g).tolist()]
    m_max = max(max(row) for row in lags)
    x = [list(row) for row in np.asarray(history, dtype=float)[-(m_max + 1):].tolist()]
    rate = [coupling / c for c in np.asarray(weights, dtype=float).tolist()]
    stats = np.asarray(stats, dtype=float).tolist()
    heard = [[] for _ in range(n)]
    for dst, src, gain in zip(g.dst.tolist(), g.src.tolist(), g.gain.tolist()):
        heard[dst].append((src, gain))

    def segment_sum(terms: list) -> float:
        return float(np.add.reduceat(np.array(terms), [0])[0]) if terms else 0.0

    inflow = [segment_sum([gain for _, gain in links]) for links in heard]
    states, derivs = [], []
    for k in range(horizon):
        row = m_max + k
        now = x[row]
        xdot = []
        for i, links in enumerate(heard):
            pull = segment_sum([gain * x[row - lags[i][src]][src] for src, gain in links])
            xdot.append(stats[i] + rate[i] * (pull - inflow[i] * now[i]))
        states.append(now)
        derivs.append(xdot)
        x.append([now[i] + step_s * xdot[i] for i in range(n)])
    return np.array(states), np.array(derivs)


def repr_join(rows) -> str:
    """CSV text of ``rows``: each value's ``repr``, comma-separated, one line per row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)

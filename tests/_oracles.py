"""Brute-force reference implementations shared by the test modules.

The reachability oracles work from boolean matrices only, and the others
by plain loops, plain dense solves or whole dense matrices, sharing no
numerical code path with the package under test.  Dense delay matrices and the JSON-Schema of the
prediction document live here too: only tests use them.
"""
import numpy as np

from selfsync import ConnectivityClass, Digraph, Edge, Fading, RadioConfig


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


def dense_build_channel(cfg: RadioConfig, positions: np.ndarray) -> Digraph:
    """``build_channel`` by whole n x n matrices, one fresh array per operation.

    Distances, amplitudes, propagation delays and the off-diagonal mask
    are each a full matrix; the links are read out of them with
    ``np.nonzero``, row-major, and ``Digraph.from_arrays`` checks them.
    """
    n = cfg.n
    pos = np.asarray(positions, dtype=float)
    dx, dy = (col[:, None] - col[None, :] for col in pos.T)
    dist = np.sqrt(dx * dx + dy * dy)
    powers = cfg.power_vector()
    off_diag = ~np.eye(n, dtype=bool)
    if cfg.fading is Fading.NONE:
        eta = cfg.path_loss_exponent
        if eta > 0 and np.any(dist[off_diag] == 0.0):
            raise ValueError("coincident nodes give infinite gain under pure path loss")
        amp = np.sqrt(powers[None, :] / np.where(off_diag, dist, 1.0) ** eta)
    else:
        scale = np.sqrt(powers[None, :] / (2.0 * (1.0 + dist**2)))
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))  # the fading stream
        amp = rng.rayleigh(scale=1.0, size=(n, n)) * scale
    if cfg.delay_span_s is None:
        wave = cfg.wave_speed
    elif cfg.delay_span_s == 0.0 or n == 1:
        wave = float("inf")
    elif dist.max() == 0.0:
        raise ValueError("cannot solve wave speed: all nodes are coincident")
    else:
        wave = float(dist.max()) / cfg.delay_span_s
    prop = dist / wave if np.isfinite(wave) else np.zeros_like(dist)
    heard = off_diag & (amp >= cfg.hear_threshold) & (amp > 0.0)
    dst, src = np.nonzero(heard)
    return Digraph.from_arrays(n, dst, src, amp[heard], cfg.delay_offset_s + prop[heard])


def first_bad_edge_message(n: int, dst, src, gain, delay_s) -> "str | None":
    """The ``GraphFormatError`` message for well-typed edge columns, or None if valid.

    The conditions are tried in order, each over every edge by a plain
    loop: ids out of range, self-loops, repeats of an earlier
    ``(dst, src)`` pair, gains not positive and finite, delays not
    nonnegative and finite.  The first condition that any edge breaks
    names its first such edge.
    """
    rows = list(zip(np.asarray(dst).tolist(), np.asarray(src).tolist(),
                    np.asarray(gain, dtype=float).tolist(),
                    np.asarray(delay_s, dtype=float).tolist()))
    seen: set = set()
    repeats = []
    for d, s, _, _ in rows:
        repeats.append((d, s) in seen)
        seen.add((d, s))
    finite = np.isfinite
    for bad, what in (
        ([not (0 <= d < n and 0 <= s < n) for d, s, _, _ in rows], f"is out of range for n={n}"),
        ([d == s for d, s, _, _ in rows], "is a self-loop"),
        (repeats, "repeats an earlier edge"),
        ([not (finite(w) and w > 0.0) for _, _, w, _ in rows],
         "has a non-positive or non-finite gain"),
        ([not (finite(t) and t >= 0.0) for _, _, _, t in rows],
         "has a negative or non-finite delay"),
    ):
        if any(bad):
            d, s = rows[bad.index(True)][:2]
            return f"edge (dst={d}, src={s}) {what}"
    return None


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

"""Weighted digraphs with per-link delays, and their connectivity structure.

Conventions used across the package:

* An edge ``(dst, src)`` means node ``dst`` hears node ``src``: information
  flows ``src -> dst``.  ``gain`` is the coupling weight of that link and
  ``delay_s`` the propagation delay in seconds.
* The coupling Laplacian is ``L = D - A`` where ``A[dst, src] = gain`` and
  ``D`` is the diagonal of row sums of ``A`` (each listener's total received
  gain).  Rows of ``L`` sum to zero by construction.  Beware of naming: in
  flipped-orientation texts this same diagonal is called the out-degree.
  Rely on the formula, not the name.
* Reachability statements ("r reaches q") always follow information flow:
  a directed path ``r -> ... -> q`` where each hop's listener hears the
  previous node.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Edge",
    "Digraph",
    "disjoint_union",
    "ConnectivityClass",
    "ConnectivityReport",
    "GraphFormatError",
    "NullSpaceError",
    "laplacian",
    "scc_decompose",
    "classify",
    "load_graph",
    "save_graph",
]

# Residual bound for a root block's left null vector, relative to the
# block's induced infinity norm.
NULL_RESIDUAL_RTOL = 1e-10

# Rounds per direction of the strong-connectivity test in ``classify``.
# Dense Rayleigh draws are covered in two or three; a graph that needs
# more (a long ring or chain) falls back to Tarjan.
_SC_ROUNDS = 8

# Lazy random-walk rounds that guess where a root block's null vector
# peaks, so that the solve pinned there is usually the only one.
_WALK_ROUNDS = 8

# Entries within this fraction of a null vector's peak tie with it: which
# of them a solve reads as the peak then rests on its last bits.
_PEAK_TIE = 1e-9

# Edge columns, in ``Edge`` field order; the first two hold node ids.
_COLUMNS = ("dst", "src", "gain", "delay_s")


class GraphFormatError(ValueError):
    """Malformed graph description (ids, weights, duplicates, JSON shape)."""


class NullSpaceError(RuntimeError):
    """A root component's null space is defective or numerically ambiguous."""


class Edge(NamedTuple):
    """Directed link: ``dst`` hears ``src`` with a positive gain and a delay."""

    dst: int
    src: int
    gain: float
    delay_s: float


def _column(values, name: str, integral: bool) -> np.ndarray:
    """One edge column as an array: integer ids, or real numbers.

    Bools, strings and other non-numbers are rejected rather than cast,
    including bools mixed into a list of numbers (numpy would read
    ``[0, True]`` as integers).
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise GraphFormatError(f"{name} values must be a flat sequence") from exc
    kinds = "iu" if integral else "iuf"
    listed = arr.ndim > 0 and not isinstance(values, np.ndarray)
    has_bools = listed and bool({bool, np.bool_} & set(map(type, values)))
    if arr.size and (arr.dtype.kind not in kinds or has_bools):
        what = "integer ids" if integral else "real numbers"
        raise GraphFormatError(f"{name} values must be {what}, got {arr.dtype} values")
    return arr.astype(np.int64 if integral else float)


@dataclass(frozen=True, eq=False, init=False)
class Digraph:
    """Immutable weighted digraph on nodes ``0 .. n-1``.

    Edge ``k`` is ``dst[k]`` hearing ``src[k]`` with weight ``gain[k]`` and
    delay ``delay_s[k]``; the four arrays are read-only and share one edge
    order.  ``Digraph(n, edges)`` reads :class:`Edge` records and
    :meth:`from_arrays` takes the arrays directly.  Validation happens at
    construction: ids in range, no self-loops, no duplicate ``(dst, src)``
    pairs, gains strictly positive and finite, delays finite and
    nonnegative.
    """

    n: int
    dst: np.ndarray
    src: np.ndarray
    gain: np.ndarray
    delay_s: np.ndarray

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        edges = tuple(edges)
        self._assign(n, *([getattr(e, name) for e in edges] for name in _COLUMNS))

    @classmethod
    def from_arrays(cls, n: int, dst, src, gain, delay_s) -> "Digraph":
        """Graph from per-edge arrays, validated like ``Digraph(n, edges)``."""
        g = cls.__new__(cls)
        g._assign(n, dst, src, gain, delay_s)
        return g

    def _assign(self, n, *columns) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise GraphFormatError(f"node count must be a positive integer, got {n!r}")
        cols = [_column(c, name, k < 2) for k, (c, name) in enumerate(zip(columns, _COLUMNS))]
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise GraphFormatError("dst, src, gain and delay_s must be 1-d and equally long")
        dst, src, gain, delay_s = cols

        def fail(bad: np.ndarray, what: str):
            k = int(np.argmax(bad))
            raise GraphFormatError(f"edge (dst={dst[k]}, src={src[k]}) {what}")

        # Each condition is checked by a reduction; only a failed one builds
        # its per-edge mask, to name the first bad edge.  A NaN fails every
        # comparison, so it fails the gain and delay checks.
        if dst.size:
            if min(dst.min(), src.min()) < 0 or max(dst.max(), src.max()) >= n:
                fail((dst < 0) | (dst >= n) | (src < 0) | (src >= n), f"is out of range for n={n}")
            if np.any(dst == src):
                fail(dst == src, "is a self-loop")
            keys = dst * n
            keys += src
            # Strictly increasing keys (generated graphs and their unions)
            # cannot repeat; otherwise sort, and only on a repeat find which
            # edge is first.
            if not np.all(keys[1:] > keys[:-1]) and np.any(np.diff(np.sort(keys)) == 0):
                repeated = np.ones(dst.size, dtype=bool)
                repeated[np.unique(keys, return_index=True)[1]] = False
                fail(repeated, "repeats an earlier edge")
            if not (gain.min() > 0.0 and gain.max() < np.inf):
                fail(~np.isfinite(gain) | (gain <= 0.0), "has a non-positive or non-finite gain")
            if not (delay_s.min() >= 0.0 and delay_s.max() < np.inf):
                fail(~np.isfinite(delay_s) | (delay_s < 0.0), "has a negative or non-finite delay")
        object.__setattr__(self, "n", n)
        for name, col in zip(_COLUMNS, cols):  # astype made each column a copy
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as :class:`Edge` records, built afresh on each access."""
        return tuple(map(Edge, *(getattr(self, name).tolist() for name in _COLUMNS)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def gain_matrix(self) -> np.ndarray:
        """Dense gain matrix ``A`` with ``A[dst, src]`` > 0 on edges, else 0."""
        a = np.zeros((self.n, self.n))
        a[self.dst, self.src] = self.gain
        return a

    def with_delays(self, delay_s: float) -> "Digraph":
        """Copy of the graph with every link's delay set to ``delay_s``."""
        new = np.full(self.dst.size, float(delay_s))
        return Digraph.from_arrays(self.n, self.dst, self.src, self.gain, new)


def disjoint_union(graphs: "Iterable[Digraph]") -> Digraph:
    """One graph holding each of ``graphs`` as its own block of nodes.

    Block ``b``'s node ids are offset by the node counts of the blocks
    before it, and the links keep their order, block by block.  No link
    joins two blocks, so each block simulates exactly as its graph does.
    """
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    offsets = np.cumsum([0] + [g.n for g in graphs])
    return Digraph.from_arrays(
        int(offsets[-1]),
        np.concatenate([g.dst + off for g, off in zip(graphs, offsets)]),
        np.concatenate([g.src + off for g, off in zip(graphs, offsets)]),
        np.concatenate([g.gain for g in graphs]),
        np.concatenate([g.delay_s for g in graphs]),
    )


class ConnectivityClass(str, Enum):
    SC = "SC"
    QSC_NOT_SC = "QSC_NOT_SC"
    WC_NOT_QSC = "WC_NOT_QSC"
    DISCONNECTED = "DISCONNECTED"


@dataclass(frozen=True, eq=False)
class ConnectivityReport:
    """Structural summary of a digraph.

    ``sccs`` lists strongly connected components as sorted node tuples,
    ordered by smallest member.  ``condensation`` holds DAG edges
    ``(a, b)`` meaning information flows from component ``a`` to ``b``.
    ``root_sccs`` indexes the components receiving no outside influence.
    ``influence`` is the nonnegative left null vector of the Laplacian,
    supported exactly on root components, each root block unit 2-norm.
    ``reach[k, q]`` is True when root component ``root_sccs[k]``
    influences node ``q`` (its own members included).  Both arrays are
    read-only, since :func:`classify` shares one report per graph.
    """

    kind: ConnectivityClass
    sccs: tuple[tuple[int, ...], ...]
    condensation: tuple[tuple[int, int], ...]
    root_sccs: tuple[int, ...]
    balanced: bool
    influence: np.ndarray
    reach: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectivityReport):
            return NotImplemented
        plain = ("kind", "sccs", "condensation", "root_sccs", "balanced")
        return all(getattr(self, f) == getattr(other, f) for f in plain) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("influence", "reach"))

    @property
    def n(self) -> int:
        return int(self.influence.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "class": self.kind.value,
            "sccs": [list(c) for c in self.sccs],
            "condensation": [list(e) for e in self.condensation],
            "root_sccs": [list(self.sccs[i]) for i in self.root_sccs],
            "balanced": self.balanced,
            "influence": [float(v) for v in self.influence],
        }


def laplacian(g: Digraph) -> np.ndarray:
    """Coupling Laplacian ``L = diag(A @ 1) - A``; every row sums to zero."""
    return _laplacian_of(g.gain_matrix())


def _laplacian_of(a: np.ndarray) -> np.ndarray:
    """``diag(a @ 1) - a`` (the same bits) written over the zero-diagonal gain matrix ``a``."""
    d = a.sum(axis=1)
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, d)
    return a


def _tarjan_components(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan SCC over successor lists; components sorted by min node.

    Each stack frame holds a node and an iterator over its list, so a
    frame resumes where its last descent left off.  A finished node's
    ``order`` is set to ``n``, above every ``low``, so later visits skip it.
    """
    order = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for start in range(n):
        if order[start] != -1:
            continue
        order[start] = low[start] = counter
        counter += 1
        stack.append(start)
        work = [(start, iter(succ[start]))]
        while work:
            v, kids = work[-1]
            for w in kids:
                seen = order[w]
                if seen == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if seen < low[v]:
                    low[v] = seen
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = sorted(stack[at:])
                    del stack[at:]
                    for w in comp:
                        order[w] = n
                    comps.append(comp)
    comps.sort(key=lambda c: c[0])
    return comps


def scc_decompose(g: Digraph) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """Strongly connected components and the condensation DAG.

    Returns ``(sccs, condensation)`` where ``sccs`` are sorted node tuples
    ordered by smallest member and ``condensation`` contains deduplicated
    edges ``(a, b)``: some node in component ``b`` hears some node in
    component ``a``.  The condensation is acyclic by construction.
    Tarjan runs on the reversed graph, which has the same components:
    each node's list is the nodes it hears, cut from one array of sources
    sorted by listener (generated graphs are sorted already).
    """
    heard = g.src[np.argsort(g.dst, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(g.dst, minlength=g.n)).tolist()
    comps = _tarjan_components(g.n, [heard[a:b] for a, b in zip([0] + ends, ends)])
    k = len(comps)
    comp_of = np.empty(g.n, dtype=np.int64)
    comp_of[[v for comp in comps for v in comp]] = np.repeat(np.arange(k), list(map(len, comps)))
    a, b = comp_of[g.src], comp_of[g.dst]
    cond = np.divmod(np.unique((a * k + b)[a != b]), k)
    return tuple(map(tuple, comps)), tuple(zip(*(c.tolist() for c in cond)))


def _spread(tails: np.ndarray, heads: np.ndarray, reach: np.ndarray,
            rounds: "int | None" = None) -> np.ndarray:
    """Close each row of ``reach`` under the links ``tails[k] -> heads[k]``.

    Each round marks, in every row at once, the heads of the links whose
    tail is marked and whose head is not (``tail > head`` as booleans).
    The sweep stops once every row holds every node, when a round adds no
    node, or after ``rounds`` rounds.  A row is closed within ``n`` rounds,
    the default cap.  ``reach`` is updated in place and returned.
    """
    for _ in range(reach.shape[1] if rounds is None else rounds):
        if reach.all():
            break
        fresh = np.greater(reach.take(tails, axis=1), reach.take(heads, axis=1))
        rows, links = np.divmod(np.flatnonzero(fresh), tails.size)
        if not links.size:
            break
        reach[rows, heads[links]] = True
    return reach


def classify(g: Digraph) -> ConnectivityReport:
    """Full connectivity analysis of a digraph.

    The class is SC when there is a single strongly connected component;
    QSC_NOT_SC when a unique root component influences everything else;
    WC_NOT_QSC when the graph is connected ignoring direction but has
    several root components; DISCONNECTED otherwise.  A graph is balanced
    when every node's received gain sum equals its transmitted gain sum.
    Strong connectivity is tested first, by two sweeps of at most
    ``_SC_ROUNDS`` rounds: node 0 reaching every node along the links, and
    every node reaching node 0 against them.  When both cover every node
    the report needs no Tarjan pass; otherwise Tarjan finds the components.
    A single component reaches every node, so only several components
    need their reach closed along the links.
    The graph is immutable, so the report is computed once, stored on it
    and shared (with read-only ``influence`` and ``reach``) by every later
    call.
    """
    cached = getattr(g, "_report", None)
    if cached is not None:
        return cached
    if (_spread(g.src, g.dst, np.eye(1, g.n, dtype=bool), _SC_ROUNDS).all()
            and _spread(g.dst, g.src, np.eye(1, g.n, dtype=bool), _SC_ROUNDS).all()):
        sccs, condensation, root_sccs = (tuple(range(g.n)),), (), (0,)
    else:
        sccs, condensation = scc_decompose(g)
        heard_from_outside = {b for (_a, b) in condensation}
        root_sccs = tuple(i for i in range(len(sccs)) if i not in heard_from_outside)
    if len(sccs) == 1:  # the one root reaches every node: no closure to run
        reach = np.ones((1, g.n), dtype=bool)
    else:
        reach = np.zeros((len(root_sccs), g.n), dtype=bool)
        for k, ri in enumerate(root_sccs):
            reach[k, list(sccs[ri])] = True
        _spread(g.src, g.dst, reach)
    reach.flags.writeable = False

    if len(sccs) == 1:
        kind = ConnectivityClass.SC
    elif len(root_sccs) == 1:
        kind = ConnectivityClass.QSC_NOT_SC
    # Weakly connected: node 0 reaches every node once each link runs both ways.
    elif _spread(np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src]),
                 np.eye(1, g.n, dtype=bool)).all():
        kind = ConnectivityClass.WC_NOT_QSC
    else:
        kind = ConnectivityClass.DISCONNECTED

    received = np.bincount(g.dst, weights=g.gain, minlength=g.n)
    transmitted = np.bincount(g.src, weights=g.gain, minlength=g.n)
    scale = max(1.0, float(received.max(initial=0.0)))
    balanced = bool(np.all(np.abs(received - transmitted) <= 1e-12 * scale))

    influence = np.zeros(g.n)
    for nodes, block in _root_blocks(g, [sccs[ri] for ri in root_sccs]):
        influence[nodes] = _root_block_null_vector(block)
    influence.flags.writeable = False
    report = ConnectivityReport(
        kind=kind,
        sccs=sccs,
        condensation=condensation,
        root_sccs=root_sccs,
        balanced=balanced,
        influence=influence,
        reach=reach,
    )
    object.__setattr__(g, "_report", report)
    return report


def _root_blocks(g: Digraph, roots: "list[tuple[int, ...]]"):
    """Yield each root component's node array and its Laplacian block.

    A root component hears no node outside itself, so every link into it
    starts inside it, and its rows of ``L`` vanish outside its own block.
    Each block is assembled from those links alone, so no ``n x n`` matrix
    is built unless one root holds every node (a strongly connected
    graph), whose block is then ``laplacian(g)`` itself.
    """
    if len(roots) == 1 and len(roots[0]) == g.n:
        yield np.arange(g.n), laplacian(g)
        return
    owner = np.full(g.n, -1)
    pos = np.zeros(g.n, dtype=np.int64)
    for k, nodes in enumerate(roots):
        owner[list(nodes)] = k
        pos[list(nodes)] = np.arange(len(nodes))
    into = owner[g.dst]
    links = np.flatnonzero(into >= 0)
    links = links[np.argsort(into[links], kind="stable")]
    ends = np.cumsum(np.bincount(into + 1, minlength=len(roots) + 1)[1:])
    for nodes, start, stop in zip(roots, [0, *ends[:-1]], ends):
        cut = links[start:stop]
        a = np.zeros((len(nodes), len(nodes)))
        a[pos[g.dst[cut]], pos[g.src[cut]]] = g.gain[cut]
        yield np.asarray(nodes, dtype=int), _laplacian_of(a)


def _pinned_solve(block: np.ndarray, pin: int) -> np.ndarray:
    """Solve ``block.T @ x = 0`` with coordinate ``pin`` fixed to 1."""
    system = block.T.copy()
    system[pin, :] = 0.0
    system[pin, pin] = 1.0
    rhs = np.zeros(block.shape[0])
    rhs[pin] = 1.0
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NullSpaceError("root component null space is rank deficient") from exc


def _root_block_null_vector(block: np.ndarray) -> np.ndarray:
    """Positive left null vector of one root component's Laplacian block.

    A strongly connected block has a one-dimensional left null space
    spanned by a positive vector, so pinning any one coordinate to 1 and
    solving the remaining equations of ``block.T @ x = 0`` is a
    nonsingular system.  The pin is the node carrying the most influence,
    so the small entries keep their relative accuracy however widely
    influence varies.  A few rounds of the lazy random walk
    ``pi <- pi - (pi / d) @ block / 2`` (``d`` the block's diagonal, whose
    stationary ``pi / d`` is proportional to the null vector) guess that
    node; only when the solution peaks elsewhere is it solved again,
    pinned at its peak.  Entries tying for the peak pin node 0 first, then
    that solution's peak, whatever the walk guessed.  The solution is
    scaled to unit 2-norm before its residual is checked.  Raises
    :class:`NullSpaceError` when the solution is not strictly positive or
    leaves a residual above tolerance (a malformed gain matrix).
    """
    k = block.shape[0]
    if k == 1:
        return np.ones(1)
    d = np.diagonal(block)
    pi = np.full(k, 1.0 / k)
    with np.errstate(all="ignore"):  # a defective block fails in the solve instead
        for _ in range(_WALK_ROUNDS):
            pi = pi - 0.5 * ((pi / d) @ block)
        guess = int(np.argmax(pi / d))
    x = _pinned_solve(block, guess)
    top = int(np.argmax(x))
    if guess and np.count_nonzero(x >= (1.0 - _PEAK_TIE) * x[top]) > 1:
        guess, x = 0, _pinned_solve(block, 0)
        top = int(np.argmax(x))
    if top != guess:
        x = _pinned_solve(block, top)
    if not np.all(np.isfinite(x)) or np.min(x) <= 0.0:
        raise NullSpaceError("root component null vector is not strictly positive")
    x = x / np.linalg.norm(x)
    resid = float(np.max(np.abs(x @ block)))
    block_scale = float(np.max(np.abs(block).sum(axis=1)))
    if resid > NULL_RESIDUAL_RTOL * block_scale:
        raise NullSpaceError(
            f"null vector residual {resid:.3e} exceeds {NULL_RESIDUAL_RTOL:.0e} * {block_scale:.3e}"
        )
    return x


def load_graph(path: "str | Path") -> Digraph:
    """Read a graph from the JSON wire format.

    Expected shape::

        {"n": 3, "edges": [{"dst": 0, "src": 1, "gain": 1.0, "delay_s": 0.0}, ...]}

    Node ids are 0-based JSON integers; gains and delays are JSON numbers.
    A repeated ``(dst, src)`` pair, a missing or mistyped field (a bool,
    string or fractional id), or ids out of range raise
    :class:`GraphFormatError`.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"graph file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphFormatError('graph JSON must be an object with "n" and "edges"')
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be a list')
    cols = {}
    for key in _COLUMNS:
        try:
            cols[key] = [item[key] for item in raw_edges]
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"an edge entry lacks {key!r}: {exc!r}") from exc
    return Digraph.from_arrays(doc["n"], **cols)


def save_graph(g: Digraph, path: "str | Path") -> None:
    """Write the JSON wire format read back by :func:`load_graph`."""
    cols = [getattr(g, key).tolist() for key in _COLUMNS]
    doc = {
        "n": g.n,
        "edges": [dict(zip(_COLUMNS, row)) for row in zip(*cols)],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

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
    "ConnectivityClass",
    "ConnectivityReport",
    "GraphFormatError",
    "NullSpaceError",
    "laplacian",
    "scc_decompose",
    "classify",
    "left_null_vector",
    "load_graph",
    "save_graph",
]

# Residual bound for the left null vector, relative to the induced
# infinity norm of the Laplacian.
NULL_RESIDUAL_RTOL = 1e-10

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
        keys = dst * n + src
        repeated = np.zeros(dst.size, dtype=bool)
        if np.any(np.diff(np.sort(keys)) == 0):  # only then find which edge repeats first
            repeated[:] = True
            repeated[np.unique(keys, return_index=True)[1]] = False
        for bad, what in (
            ((dst < 0) | (dst >= n) | (src < 0) | (src >= n), f"is out of range for n={n}"),
            (dst == src, "is a self-loop"),
            (repeated, "repeats an earlier edge"),
            (~np.isfinite(gain) | (gain <= 0.0), "has a non-positive or non-finite gain"),
            (~np.isfinite(delay_s) | (delay_s < 0.0), "has a negative or non-finite delay"),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                raise GraphFormatError(f"edge (dst={dst[k]}, src={src[k]}) {what}")
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

    def delay_matrix(self) -> np.ndarray:
        """Dense delay matrix aligned with :meth:`gain_matrix` (0 off-edge)."""
        d = np.zeros((self.n, self.n))
        d[self.dst, self.src] = self.delay_s
        return d

    def with_delays(self, delays: "np.ndarray | float") -> "Digraph":
        """Copy of the graph with delays replaced.

        ``delays`` is either a scalar applied to every edge or a dense
        ``(n, n)`` matrix indexed like :meth:`delay_matrix`.
        """
        if np.isscalar(delays):
            new = np.full(self.dst.size, float(delays))
        else:
            new = np.asarray(delays, dtype=float)[self.dst, self.src]
        return Digraph.from_arrays(self.n, self.dst, self.src, self.gain, new)


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

    def root_nodes(self) -> tuple[tuple[int, ...], ...]:
        """Node tuples of the root components, in ``root_sccs`` order."""
        return tuple(self.sccs[i] for i in self.root_sccs)

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
    a = g.gain_matrix()
    return np.diag(a.sum(axis=1)) - a


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


def _spread(tails: np.ndarray, heads: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Close each row of ``reach`` under the links ``tails[k] -> heads[k]``.

    Each round marks, in every row at once, the heads of the links whose
    tail is marked and whose head is not, until no link adds a node.
    ``reach`` is updated in place and returned.
    """
    while True:
        rows, links = np.nonzero(reach[:, tails] & ~reach[:, heads])
        if not rows.size:
            return reach
        reach[rows, heads[links]] = True


def classify(g: Digraph) -> ConnectivityReport:
    """Full connectivity analysis of a digraph.

    The class is SC when there is a single strongly connected component;
    QSC_NOT_SC when a unique root component influences everything else;
    WC_NOT_QSC when the graph is connected ignoring direction but has
    several root components; DISCONNECTED otherwise.  A graph is balanced
    when every node's received gain sum equals its transmitted gain sum.
    The graph is immutable, so the report is computed once, stored on it
    and shared (with read-only ``influence`` and ``reach``) by every later
    call.
    """
    cached = getattr(g, "_report", None)
    if cached is not None:
        return cached
    sccs, condensation = scc_decompose(g)
    heard_from_outside = {b for (_a, b) in condensation}
    root_sccs = tuple(i for i in range(len(sccs)) if i not in heard_from_outside)
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
    graph), whose block is then exactly ``laplacian(g)``.
    """
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
        yield np.asarray(nodes, dtype=int), np.diag(a.sum(axis=1)) - a


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
    nonsingular system.  The first solve pins node 0; when another node
    carries more influence, a second solve pins that node, so the small
    entries keep their relative accuracy however widely influence varies.
    The solution is scaled to unit 2-norm before its residual is checked.
    Raises :class:`NullSpaceError` when the solution is not strictly
    positive or leaves a residual above tolerance (a malformed gain
    matrix).
    """
    k = block.shape[0]
    if k == 1:
        return np.ones(1)
    x = _pinned_solve(block, 0)
    top = int(np.argmax(x))
    if top != 0:
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


def left_null_vector(g: Digraph) -> np.ndarray:
    """Nonnegative left null vector of the Laplacian, as a writable copy.

    Entry ``i`` is positive exactly when node ``i`` belongs to a root
    component (no outside influence); each root block is normalized to
    unit 2-norm.  The assembled vector satisfies
    ``max|gamma @ L| <= 1e-10 * norm_inf(L)``.
    """
    gamma = classify(g).influence.copy()
    # Column j of gamma @ L, summed over the edges: gamma_j * received_j
    # minus the gamma-weighted gains node j sends.  Row i of |L| sums to
    # twice the gain node i receives, since the graph has no self-loops.
    received = np.bincount(g.dst, weights=g.gain, minlength=g.n)
    sent = np.bincount(g.src, weights=gamma[g.dst] * g.gain, minlength=g.n)
    lap_norm = 2.0 * float(received.max())
    resid = float(np.max(np.abs(gamma * received - sent)))
    if resid > NULL_RESIDUAL_RTOL * max(lap_norm, 1e-300):
        raise NullSpaceError(
            f"left null vector residual {resid:.3e} exceeds tolerance for norm {lap_norm:.3e}"
        )
    return gamma


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

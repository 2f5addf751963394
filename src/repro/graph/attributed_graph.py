"""The attributed-graph store used throughout the library.

The paper (Section 2.1) works with an undirected, unweighted, simple graph
``G = (V, E, A)`` where ``A`` assigns each vertex an attribute value (a
keyword multiset, an interest set, a geo coordinate, ...).  This module
implements that store with adjacency sets over dense integer vertex ids.

Vertices are the integers ``0 .. n-1``.  Callers that want arbitrary labels
use :class:`repro.graph.builder.GraphBuilder`, which maintains the
label <-> id mapping and produces an :class:`AttributedGraph`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError


def check_vertex(u: Any, n: int) -> None:
    """Raise :class:`GraphError` unless ``u`` is a vertex id of an
    ``n``-vertex graph (a plain ``int`` in ``0 .. n-1``)."""
    if not (isinstance(u, int) and 0 <= u < n):
        raise GraphError(f"vertex {u!r} is not in the graph (n={n})")


def check_edge(u: Any, v: Any, n: int) -> None:
    """:func:`check_vertex` of both endpoints, then refuse a self loop."""
    check_vertex(u, n)
    check_vertex(v, n)
    if u == v:
        raise GraphError(f"self loop ({u},{u}) is not allowed")


class AttributedGraph:
    """Undirected simple graph with per-vertex attributes.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops are rejected; duplicate
        edges are ignored (the graph is simple).
    attributes:
        Optional sequence of length ``n`` giving each vertex's attribute
        value, or a dict mapping vertex id -> attribute.  Attributes are
        opaque to the graph; similarity metrics interpret them.
    labels:
        Optional sequence of display labels (used by builders / case-study
        examples); purely cosmetic.
    """

    __slots__ = ("_adj", "_attributes", "_labels", "_edge_count")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]] = (),
        attributes: Optional[Any] = None,
        labels: Optional[Sequence[str]] = None,
    ):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        self._edge_count = 0
        for u, v in edges:
            self.add_edge(u, v)
        self._attributes: Dict[int, Any] = {}
        if attributes is not None:
            if isinstance(attributes, dict):
                items = attributes.items()
            else:
                if len(attributes) != n:
                    raise GraphError(
                        f"attribute sequence has length {len(attributes)}, "
                        f"expected {n}"
                    )
                items = enumerate(attributes)
            for vid, value in items:
                self._check_vertex(vid)
                self._attributes[vid] = value
        self._labels: Optional[List[str]] = list(labels) if labels else None
        if self._labels is not None and len(self._labels) != n:
            raise GraphError(
                f"label sequence has length {len(self._labels)}, expected {n}"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        """Number of vertices in the graph."""
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        """Number of (undirected) edges in the graph."""
        return self._edge_count

    def vertices(self) -> range:
        """All vertex ids, as a range."""
        return range(len(self._adj))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, u: int) -> Set[int]:
        """The adjacency set of ``u``.

        The returned set is the live internal set; callers must not mutate
        it.  (Returning it directly keeps the hot solver loops allocation
        free.)
        """
        self._check_vertex(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        """Number of neighbours of ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def attribute(self, u: int) -> Any:
        """The attribute value of ``u`` (``None`` when never set)."""
        self._check_vertex(u)
        return self._attributes.get(u)

    def has_attribute(self, u: int) -> bool:
        """Whether ``u`` has an attribute value."""
        self._check_vertex(u)
        return u in self._attributes

    def label(self, u: int) -> str:
        """Display label of ``u`` (falls back to ``str(u)``)."""
        self._check_vertex(u)
        if self._labels is None:
            return str(u)
        return self._labels[u]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed.  Self loops raise :class:`GraphError`.
        """
        check_edge(u, v, len(self._adj))
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_count += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``(u, v)`` if present.

        Returns ``True`` if an edge was removed.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_count -= 1
        return True

    def set_attribute(self, u: int, value: Any) -> None:
        """Assign attribute ``value`` to vertex ``u``."""
        self._check_vertex(u)
        self._attributes[u] = value

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "AttributedGraph":
        """Deep copy of the structure; attributes are shared by reference."""
        g = AttributedGraph(self.vertex_count)
        g._adj = [set(nbrs) for nbrs in self._adj]
        g._edge_count = self._edge_count
        g._attributes = dict(self._attributes)
        g._labels = list(self._labels) if self._labels is not None else None
        return g

    def induced_subgraph(self, vertices: Iterable[int]) -> "AttributedGraph":
        """Induced subgraph on ``vertices``, **re-indexed** to ``0..m-1``.

        Attribute values and labels are carried over.  Use
        :meth:`induced_adjacency` when the original ids must be preserved
        (the solvers do, to avoid id translation).
        """
        vs = sorted(set(vertices))
        for v in vs:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(vs)}
        g = AttributedGraph(len(vs))
        for v in vs:
            vi = index[v]
            for w in self._adj[v]:
                if w > v and w in index:
                    g.add_edge(vi, index[w])
            if v in self._attributes:
                g._attributes[vi] = self._attributes[v]
        if self._labels is not None:
            g._labels = [self._labels[v] for v in vs]
        return g

    def induced_adjacency(self, vertices: Iterable[int]) -> Dict[int, Set[int]]:
        """Adjacency of the induced subgraph, keeping original vertex ids.

        Returns a dict ``u -> set(neighbours of u inside vertices)``.
        """
        vset = set(vertices)
        for v in vset:
            self._check_vertex(v)
        return {u: self._adj[u] & vset for u in vset}

    def subgraph_edge_count(self, vertices: Iterable[int]) -> int:
        """Number of edges in the subgraph induced by ``vertices``."""
        vset = set(vertices)
        total = 0
        for u in vset:
            self._check_vertex(u)
            total += len(self._adj[u] & vset)
        return total // 2

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def average_degree(self) -> float:
        """Mean vertex degree (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._edge_count / len(self._adj)

    def max_degree(self) -> int:
        """Largest vertex degree (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj)

    def degree_sequence(self) -> List[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return [len(nbrs) for nbrs in self._adj]

    # ------------------------------------------------------------------
    # Dunder / internals
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, u: object) -> bool:
        return isinstance(u, int) and 0 <= u < len(self._adj)

    def __repr__(self) -> str:
        return (
            f"AttributedGraph(n={self.vertex_count}, m={self.edge_count}, "
            f"attrs={len(self._attributes)})"
        )

    def _check_vertex(self, u: int) -> None:
        check_vertex(u, len(self._adj))

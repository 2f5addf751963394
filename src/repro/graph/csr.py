"""Array-native graph kernel: CSR adjacency + vectorised peeling.

The solvers' three hot structural primitives — k-core peeling (Batagelj &
Zaversnik's O(m) algorithm), connected components, and induced-subgraph
restriction — are all linear scans over adjacency, which maps directly
onto a compressed-sparse-row layout:

* ``indptr``  — int64 array of length ``n + 1``; the neighbours of ``u``
  are ``indices[indptr[u]:indptr[u+1]]`` (sorted ascending);
* ``indices`` — int64 array of length ``2m`` (each undirected edge is
  stored in both directions).

:class:`CSRGraph` freezes an :class:`AttributedGraph` into this layout
once; the kernels below then run bulk numpy passes instead of per-vertex
Python loops:

* :func:`k_core_mask` / :func:`anchored_k_core_mask` — frontier peeling,
  one vectorised degree-decrement round per cascade wave;
* :func:`core_numbers` — level-by-level peeling that also yields a valid
  degeneracy order;
* :func:`component_labels` — min-label propagation with pointer jumping
  (Shiloach–Vishkin style), O(m log n) fully vectorised;
  :func:`component_order` runs it on a mask's induced subgraph only and
  sorts the masked vertices by component once;
* :meth:`CSRGraph.filter_edges` — sort-free edge deletion: one gather of
  the keep mask through a cached directed-entry → edge-id map, one
  compaction of ``indices`` and ``indptr`` read off a cumulative sum, so
  a new similarity threshold costs O(m) with no re-sort;
  :meth:`CSRGraph.filter_induced` does the same over a vertex mask's
  rows only, so its cost tracks the masked subgraph.

All kernels take and return flat arrays / boolean masks over vertex ids,
so they compose without materialising Python sets; the dispatchers in
:mod:`repro.graph.kcore` and :mod:`repro.graph.components` convert back
to the set-based API at the boundary.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.fingerprint import Digests, graph_digests, rehash_bucket


class CSRGraph:
    """Immutable undirected simple graph in compressed-sparse-row form.

    Rows are sorted, both directions of every undirected edge are stored,
    and vertex ids are dense integers ``0 .. n-1`` — the same contract as
    :class:`AttributedGraph`, which it round-trips losslessly
    (:meth:`from_attributed` / :meth:`to_attributed`).

    Attributes and labels ride along unchanged so the similarity layer
    can batch-extract attribute columns without touching the original
    graph object.  The constructor copies the attribute dict and label
    list it is given; graphs derived from this one (:meth:`filter_edges`,
    :func:`with_edge_added`, :func:`with_edge_removed`) share them by
    reference, since nothing mutates them in place.  The fingerprint's
    bucket digests (:meth:`bucket_digests`) are kept once built and
    carried through the single-step edits.
    """

    __slots__ = (
        "indptr", "indices", "_attributes", "_labels", "_geo", "_edge_ids",
        "_digests",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        attributes: Optional[Dict[int, Any]] = None,
        labels: Optional[Sequence[str]] = None,
    ):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphError("indptr must be a 1-d array of length n + 1")
        if int(self.indptr[-1]) != self.indices.size:
            raise GraphError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"len(indices)={self.indices.size}"
            )
        self._attributes: Dict[int, Any] = dict(attributes) if attributes else {}
        self._labels: Optional[List[str]] = list(labels) if labels else None
        self._geo: Optional[np.ndarray] = None
        self._edge_ids: Optional[np.ndarray] = None
        self._digests: Optional[Digests] = None

    def _derive(self, indptr: np.ndarray, indices: np.ndarray) -> "CSRGraph":
        """Graph over new int64 structure arrays that shares this graph's
        attributes and labels by reference — no copy, no validation."""
        out = CSRGraph.__new__(CSRGraph)
        out.indptr = indptr
        out.indices = indices
        out._attributes = self._attributes
        out._labels = self._labels
        out._geo = None
        out._edge_ids = None
        out._digests = None
        return out

    def validate(self) -> None:
        """Raise :class:`GraphError` unless the arrays are a canonical
        simple undirected CSR: offsets from 0 that never decrease, ids in
        range, no self loops, strictly ascending rows, and every entry
        ``u -> v`` matched by its twin ``v -> u``.

        One pass of array checks plus the stable argsort that pairs each
        lower entry with its upper twin — the same sort
        :meth:`_edge_id_map` needs, whose result is cached on the way.
        """
        n = self.vertex_count
        indptr, indices = self.indptr, self.indices
        if indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise GraphError("indptr is not a non-decreasing offset array from 0")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError(f"indices name a vertex outside 0..{n - 1}")
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        if (src == indices).any():
            raise GraphError("indices contain a self loop")
        same_row = src[1:] == src[:-1]
        if (indices[1:][same_row] <= indices[:-1][same_row]).any():
            raise GraphError("a row of indices is not strictly ascending")
        upper = src < indices
        if 2 * int(np.count_nonzero(upper)) != indices.size:
            raise GraphError("indices are not symmetric")
        twins = self._lower_twins(upper)
        if not (
            np.array_equal(indices[twins], src[upper])
            and np.array_equal(src[twins], indices[upper])
        ):
            raise GraphError("indices are not symmetric")
        self._edge_ids = self._edge_ids_from(upper, twins)

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_attributed(cls, graph: AttributedGraph) -> "CSRGraph":
        """Freeze an :class:`AttributedGraph` into CSR form (O(n + m log m))."""
        n = graph.vertex_count
        indptr = np.zeros(n + 1, dtype=np.int64)
        for u in range(n):
            indptr[u + 1] = indptr[u] + graph.degree(u)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u in range(n):
            indices[int(indptr[u]):int(indptr[u + 1])] = sorted(graph.neighbors(u))
        attributes = {
            u: graph.attribute(u) for u in range(n) if graph.has_attribute(u)
        }
        labels = [graph.label(u) for u in range(n)] if n else None
        has_real_labels = labels is not None and labels != [str(u) for u in range(n)]
        return cls(indptr, indices, attributes, labels if has_real_labels else None)

    @classmethod
    def from_edges(
        cls,
        n: int,
        eu: np.ndarray,
        ev: np.ndarray,
        attributes: Optional[Dict[int, Any]] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> "CSRGraph":
        """Build from undirected edge endpoint arrays (each edge once).

        The directed entries are ordered by sorting one packed key,
        ``src * n + dst`` (``n * n`` must fit in int64), and each row's
        neighbours are read back as ``key % n``.  The arrays are the ones
        a two-key ``lexsort((dst, src))`` gives, at a fraction of its
        cost.  The key is packed, sorted and read back in place, so the
        build holds at most two ``2m``-entry arrays at once.
        """
        eu = np.asarray(eu, dtype=np.int64)
        ev = np.asarray(ev, dtype=np.int64)
        key = np.concatenate([eu, ev])  # the sources until packed
        deg = np.bincount(key, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        key *= n
        key += np.concatenate([ev, eu])
        key.sort()
        np.remainder(key, n, out=key)
        return cls(indptr, key, attributes, labels)

    def to_attributed(self) -> AttributedGraph:
        """Thaw back into a mutable :class:`AttributedGraph`.

        Each adjacency set is built from its sorted CSR row, so every
        set sees its members inserted in ascending order, as edge-by-edge
        insertion in :meth:`edge_array` order would.
        """
        g = AttributedGraph(0)
        indices = self.indices.tolist()
        bounds = self.indptr.tolist()
        g._adj = [set(indices[a:b]) for a, b in zip(bounds, bounds[1:])]
        g._edge_count = self.edge_count
        g._attributes = dict(self._attributes)
        if self._labels is not None:
            g._labels = list(self._labels)
        return g

    def to_adjacency(self) -> Dict[int, Set[int]]:
        """Materialise the ``vertex -> neighbour set`` dict view."""
        return {
            u: set(self.neighbors(u).tolist())
            for u in range(self.vertex_count)
        }

    # ------------------------------------------------------------------
    # Accessors (AttributedGraph-compatible surface)
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an int64 array."""
        return np.diff(self.indptr)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        eu, ev = self.edge_array()
        for u, v in zip(eu.tolist(), ev.tolist()):
            yield (u, v)

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays ``(eu, ev)`` with ``eu < ev``, each edge once."""
        src = np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.degrees)
        upper = src < self.indices
        return src[upper], self.indices[upper]

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour ids of ``u`` (a read-only CSR slice)."""
        self._check_vertex(u)
        return self.indices[int(self.indptr[u]):int(self.indptr[u + 1])]

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def attribute(self, u: int) -> Any:
        self._check_vertex(u)
        return self._attributes.get(u)

    def has_attribute(self, u: int) -> bool:
        self._check_vertex(u)
        return u in self._attributes

    def label(self, u: int) -> str:
        self._check_vertex(u)
        if self._labels is None:
            return str(u)
        return self._labels[u]

    def attribute_mask(self) -> np.ndarray:
        """Boolean mask of vertices carrying an attribute value."""
        mask = np.zeros(self.vertex_count, dtype=bool)
        if self._attributes:
            mask[np.fromiter(self._attributes, dtype=np.int64)] = True
        return mask

    def geo_points(self) -> np.ndarray:
        """``(n, 2)`` float column of geo attributes (NaN when missing).

        Cached after first use — the similarity layer slices it per
        component instead of re-walking Python attribute objects.
        """
        if self._geo is None:
            pts = np.full((self.vertex_count, 2), np.nan, dtype=np.float64)
            for u, value in self._attributes.items():
                pts[u, 0] = value[0]
                pts[u, 1] = value[1]
            self._geo = pts
        return self._geo

    def bucket_digests(self) -> Digests:
        """The fingerprint's bucket digests
        (:mod:`repro.graph.fingerprint`), built on first use and kept.

        The edits below carry them to the graph they return, re-hashing
        the one bucket they touch; :meth:`filter_edges` and
        :meth:`filter_induced` do not, so a derived graph builds its own
        if it is ever asked.
        """
        if self._digests is None:
            self._digests = graph_digests(self)
        return self._digests

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def _edge_id_map(self) -> np.ndarray:
        """Edge id of every directed CSR entry: ``indices[j]`` belongs to
        edge ``_edge_id_map()[j]`` of :meth:`edge_array` order.

        Upper entries (``u < v``) are numbered in CSR order already; the
        lower entries, read in CSR order, are sorted by ``v`` then ``u``,
        so one stable argsort on their column ids pairs them with their
        twins.  Built once and cached (one int64 per directed entry).
        """
        if self._edge_ids is None:
            src = np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.degrees)
            upper = src < self.indices
            self._edge_ids = self._edge_ids_from(upper, self._lower_twins(upper))
        return self._edge_ids

    def _lower_twins(self, upper: np.ndarray) -> np.ndarray:
        """Positions of the lower entries (``u > v``), sorted by ``(v, u)``:
        the ``i``-th is the twin of the ``i``-th upper entry."""
        lower = np.nonzero(~upper)[0]
        return lower[np.argsort(self.indices[lower], kind="stable")]

    def _edge_ids_from(self, upper: np.ndarray, twins: np.ndarray) -> np.ndarray:
        ids = np.arange(twins.size, dtype=np.int64)
        eid = np.empty(self.indices.size, dtype=np.int64)
        eid[upper] = ids
        eid[twins] = ids
        return eid

    def filter_edges(self, keep: np.ndarray) -> "CSRGraph":
        """New graph keeping only the edges selected by ``keep``.

        ``keep`` is a boolean mask aligned with :meth:`edge_array`.  The
        mask is gathered onto the directed entries through the cached
        edge-id map and the kept entries are compacted in place order, so
        rows stay sorted without a re-sort: the result is array-for-array
        what :meth:`from_edges` builds from the kept edges.  Attributes
        and labels are shared by reference.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.edge_count,):
            raise GraphError(
                f"edge mask has shape {keep.shape}, expected {(self.edge_count,)}"
            )
        kept = keep[self._edge_id_map()]
        before = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(kept, out=before[1:])
        return self._derive(before[self.indptr], self.indices[kept])

    def filter_induced(
        self,
        mask: np.ndarray,
        keep_edges: Callable[[np.ndarray], np.ndarray],
    ) -> "CSRGraph":
        """New graph keeping the edges between two ``mask`` vertices that
        ``keep_edges`` selects.

        ``keep_edges`` maps an array of edge ids (:meth:`edge_array`
        order) to their boolean keep decisions; it is asked about each
        edge once.  Only the masked vertices' rows are gathered, so the
        cost tracks the masked subgraph, not the graph.  Every vertex
        keeps its id; rows outside ``mask`` are empty.  The result is
        array-for-array what :meth:`filter_edges` builds from a mask
        that also drops every edge leaving ``mask``.
        """
        mask = np.asarray(mask, dtype=bool)
        rows = np.nonzero(mask)[0]
        pos = row_positions(self, rows)
        src = np.repeat(rows, self.indptr[rows + 1] - self.indptr[rows])
        dst = self.indices[pos]
        inside = mask[dst]
        src, dst = src[inside], dst[inside]
        eids = self._edge_id_map()[pos[inside]]
        upper = src < dst
        decided = np.zeros(self.edge_count, dtype=bool)
        decided[eids[upper]] = keep_edges(eids[upper])
        kept = decided[eids]
        indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(src[kept], minlength=self.vertex_count), out=indptr[1:]
        )
        return self._derive(indptr, dst[kept])

    def __len__(self) -> int:
        return self.vertex_count

    def __contains__(self, u: object) -> bool:
        return isinstance(u, int) and 0 <= u < self.vertex_count

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.vertex_count}, m={self.edge_count}, "
            f"attrs={len(self._attributes)})"
        )

    def _check_vertex(self, u: int) -> None:
        if not (isinstance(u, (int, np.integer)) and 0 <= u < self.vertex_count):
            raise GraphError(
                f"vertex {u!r} is not in the graph (n={self.vertex_count})"
            )


# ----------------------------------------------------------------------
# Vectorised kernels
# ----------------------------------------------------------------------

def vertex_mask(csr: CSRGraph, vertices: Iterable[int]) -> np.ndarray:
    """Boolean mask over ``vertices``, validating ids like the set API.

    Out-of-range ids raise :class:`GraphError` — the same contract as
    :meth:`AttributedGraph._check_vertex` — so the CSR dispatchers never
    let a negative id wrap around to a high vertex silently.
    """
    mask = np.zeros(csr.vertex_count, dtype=bool)
    ids = np.fromiter(set(vertices), dtype=np.int64)
    if ids.size:
        if ids.min() < 0 or ids.max() >= csr.vertex_count:
            bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
            raise GraphError(
                f"vertex {bad!r} is not in the graph (n={csr.vertex_count})"
            )
        mask[ids] = True
    return mask


def _insert_positions(csr: CSRGraph, u: int, v: int) -> Tuple[int, int]:
    row_u = csr.neighbors(u)
    row_v = csr.neighbors(v)
    pos_uv = int(csr.indptr[u]) + int(np.searchsorted(row_u, v))
    pos_vu = int(csr.indptr[v]) + int(np.searchsorted(row_v, u))
    return pos_uv, pos_vu


def with_edge_added(csr: CSRGraph, u: int, v: int) -> CSRGraph:
    """New graph with undirected edge ``(u, v)`` spliced in — O(m) copy,
    no re-sort.  Attributes and labels are shared by reference; session
    edits and the maintenance layer patch CSR graphs with this instead
    of re-freezing the whole graph."""
    if u == v:
        raise GraphError(f"self-loop ({u}, {v}) is not allowed")
    if csr.has_edge(u, v):
        return csr
    pos_uv, pos_vu = _insert_positions(csr, u, v)
    indices = np.insert(csr.indices, [pos_uv, pos_vu], [v, u])
    indptr = csr.indptr.copy()
    indptr[u + 1:] += 1
    indptr[v + 1:] += 1
    return _rehashed(csr, csr._derive(indptr, indices), min(u, v))


def with_edge_removed(csr: CSRGraph, u: int, v: int) -> CSRGraph:
    """New graph with undirected edge ``(u, v)`` spliced out — O(m) copy.
    Attributes and labels are shared by reference."""
    if not csr.has_edge(u, v):
        return csr
    pos_uv, pos_vu = _insert_positions(csr, u, v)
    indices = np.delete(csr.indices, [pos_uv, pos_vu])
    indptr = csr.indptr.copy()
    indptr[u + 1:] -= 1
    indptr[v + 1:] -= 1
    return _rehashed(csr, csr._derive(indptr, indices), min(u, v))


def with_attribute(csr: CSRGraph, u: int, value: Any) -> CSRGraph:
    """New graph sharing structure arrays with one attribute replaced.

    The structural arrays and the edge-id map are shared (not copied);
    only the attribute dict is rebuilt, and the geo-point cache is
    dropped so distance metrics see the fresh value.
    """
    csr._check_vertex(u)
    out = csr._derive(csr.indptr, csr.indices)
    out._attributes = dict(csr._attributes)
    out._attributes[u] = value
    out._edge_ids = csr._edge_ids
    return _rehashed(csr, out, u)


def _rehashed(csr: CSRGraph, out: CSRGraph, u: int) -> CSRGraph:
    """``out`` — ``csr`` edited at vertex ``u`` (an edge's lower end) —
    with ``csr``'s bucket digests carried over and ``u``'s bucket
    re-hashed, when ``csr`` has them."""
    if csr._digests is not None:
        out._digests = rehash_bucket(out, csr._digests, u)
    return out


def edit_steps(
    add_edges: Iterable[Tuple[int, int]] = (),
    remove_edges: Iterable[Tuple[int, int]] = (),
    attributes: Optional[Dict[int, Any]] = None,
) -> Iterator[Tuple[str, int, Any]]:
    """The primitive steps of one batch edit, in the one order every
    consumer applies them: edge insertions, then deletions, then
    attribute assignments.

    Yields ``("add_edge", u, v)``, ``("remove_edge", u, v)`` and
    ``("attribute", u, value)``.  :meth:`KRCoreSession.edit` and the
    store's edit-log replay (:func:`apply_edit`) both walk these steps,
    so a batch that inserts and deletes the same edge means the same
    graph to both.
    """
    for u, v in add_edges:
        yield "add_edge", u, v
    for u, v in remove_edges:
        yield "remove_edge", u, v
    for u, value in (attributes or {}).items():
        yield "attribute", u, value


def apply_step(csr: CSRGraph, kind: str, u: int, arg: Any) -> CSRGraph:
    """New graph with one :func:`edit_steps` step applied."""
    if kind == "add_edge":
        return with_edge_added(csr, u, arg)
    if kind == "remove_edge":
        return with_edge_removed(csr, u, arg)
    return with_attribute(csr, u, arg)


def apply_edit(
    csr: CSRGraph,
    add_edges: Iterable[Tuple[int, int]] = (),
    remove_edges: Iterable[Tuple[int, int]] = (),
    attributes: Optional[Dict[int, Any]] = None,
) -> CSRGraph:
    """New graph with one batch edit applied, step by step in
    :func:`edit_steps` order through :func:`apply_step`."""
    for step in edit_steps(add_edges, remove_edges, attributes):
        csr = apply_step(csr, *step)
    return csr


def row_positions(csr: CSRGraph, rows: np.ndarray) -> np.ndarray:
    """Entry positions of the rows of ``rows``, row by row in that order.

    The flat-gather recipe: one fancy index instead of a per-vertex loop.
    """
    starts = csr.indptr[rows]
    counts = csr.indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shift = np.cumsum(counts) - counts
    return np.repeat(starts - shift, counts) + np.arange(total, dtype=np.int64)


def gather_neighbors(csr: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Concatenated neighbour lists of all ``frontier`` vertices.

    Duplicates are preserved (a vertex adjacent to two frontier vertices
    appears twice) — exactly what the degree-decrement peels need.
    """
    if frontier.size == 0:
        return csr.indices[:0]
    return csr.indices[row_positions(csr, frontier)]


def k_core_mask(
    csr: CSRGraph, k: int, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean survivor mask of the k-core (of the ``mask``-induced subgraph).

    Frontier peeling: every wave removes all current sub-``k`` vertices at
    once and decrements their surviving neighbours' degrees with one
    ``np.subtract.at`` scatter, so the Python-level loop runs once per
    cascade depth, not once per vertex.  A seeded peel (``mask`` given)
    counts degrees over the seed's rows only and looks for each wave's
    frontier among the seed only, so its work tracks the seed, not the
    graph.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    n = csr.vertex_count
    if mask is None:
        alive = np.ones(n, dtype=bool)
        deg = csr.degrees.copy()
        seed = None
        frontier = np.nonzero(deg < k)[0]
    else:
        alive = np.asarray(mask, dtype=bool).copy()
        seed = np.nonzero(alive)[0]
        deg = np.zeros(n, dtype=np.int64)
        deg[seed] = np.bincount(
            induced_entries(csr, seed)[0], minlength=seed.size
        )
        frontier = seed[deg[seed] < k]
    alive[frontier] = False
    while frontier.size:
        hit = gather_neighbors(csr, frontier)
        hit = hit[alive[hit]]
        np.subtract.at(deg, hit, 1)
        if seed is None:
            frontier = np.nonzero(alive & (deg < k))[0]
        else:
            frontier = seed[alive[seed] & (deg[seed] < k)]
        alive[frontier] = False
    return alive


def anchored_k_core_mask(
    csr: CSRGraph,
    k: int,
    candidates: np.ndarray,
    anchors: np.ndarray,
) -> np.ndarray:
    """Survivor mask of the anchored k-core (anchors exempt, never peeled).

    Array form of :func:`repro.graph.kcore.anchored_k_core`: the maximal
    candidate subset in which every candidate keeps ``k`` neighbours
    among ``anchors | survivors``.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    cand = np.asarray(candidates, dtype=bool)
    anch = np.asarray(anchors, dtype=bool)
    if (cand & anch).any():
        raise InvalidParameterError("candidates and anchors must be disjoint")
    n = csr.vertex_count
    keep = cand | anch
    src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees)
    counted = cand[src] & keep[csr.indices]
    deg = np.bincount(src[counted], minlength=n).astype(np.int64)
    alive = cand.copy()
    frontier = np.nonzero(alive & (deg < k))[0]
    alive[frontier] = False
    while frontier.size:
        hit = gather_neighbors(csr, frontier)
        hit = hit[alive[hit]]
        np.subtract.at(deg, hit, 1)
        frontier = np.nonzero(alive & (deg < k))[0]
        alive[frontier] = False
    return alive


def core_numbers(csr: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Core number of every vertex plus a degeneracy order.

    Level-by-level peeling: at level ``k`` every remaining vertex of
    degree ``<= k`` is removed (waves, as in :func:`k_core_mask`) and
    assigned core number ``k``.  Removal order is a valid degeneracy
    ordering: a vertex removed in a wave at level ``k`` has at most ``k``
    neighbours that were still alive at the start of its wave, which
    bounds its later-in-order neighbours by the degeneracy.

    Returns ``(core, order)`` — int64 arrays of length ``n``.
    """
    n = csr.vertex_count
    core = np.zeros(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    if n == 0:
        return core, order
    alive = np.ones(n, dtype=bool)
    deg = csr.degrees.copy()
    k = 0
    filled = 0
    remaining = n
    while remaining:
        frontier = np.nonzero(alive & (deg <= k))[0]
        while frontier.size:
            alive[frontier] = False
            core[frontier] = k
            order[filled:filled + frontier.size] = frontier
            filled += frontier.size
            remaining -= frontier.size
            hit = gather_neighbors(csr, frontier)
            hit = hit[alive[hit]]
            np.subtract.at(deg, hit, 1)
            frontier = np.nonzero(alive & (deg <= k))[0]
        k += 1
    return core, order


def _propagate_min_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Min-label propagation with pointer jumping over ``n`` vertices."""
    label = np.arange(n, dtype=np.int64)
    if src.size == 0:
        return label
    while True:
        before = label.copy()
        np.minimum.at(label, src, label[dst])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            return label


def component_labels(
    csr: CSRGraph, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Connected-component label of every vertex (min vertex id wins).

    Min-label propagation with pointer jumping: alternate one hook round
    (every surviving edge pulls both endpoint labels down to their
    minimum) with full path shortcutting (``label = label[label]`` to a
    fixpoint), which converges in ``O(log n)`` rounds of ``O(m)`` work.

    Vertices outside ``mask`` keep themselves as label; restrict by the
    mask when grouping.
    """
    n = csr.vertex_count
    src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees)
    dst = csr.indices
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        live = mask[src] & mask[dst]
        src, dst = src[live], dst[live]
    return _propagate_min_labels(n, src, dst)


def induced_entries(
    csr: CSRGraph, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edges of the subgraph induced by ``verts`` (distinct ids).

    Returns ``(src, dst)`` over positions in ``verts``: entry ``x`` is
    the edge ``verts[src[x]] -> verts[dst[x]]``.  Entries run row by row
    in ``verts`` order, each row in CSR (ascending id) order.  One
    gather over the rows of ``verts`` only.
    """
    pos = np.full(csr.vertex_count, -1, dtype=np.int64)
    pos[verts] = np.arange(verts.size, dtype=np.int64)
    dst = pos[gather_neighbors(csr, verts)]
    src = np.repeat(
        np.arange(verts.size, dtype=np.int64),
        csr.indptr[verts + 1] - csr.indptr[verts],
    )
    live = dst >= 0
    return src[live], dst[live]


def component_order(
    csr: CSRGraph, mask: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Vertices of the ``mask``-induced subgraph, grouped by component.

    Returns ``(verts, starts)``: component ``c`` is
    ``verts[starts[c]:starts[c + 1]]``, ascending by id; components run
    largest first, ties broken by smallest id.  Labels propagate over the
    induced subgraph only (its rows, renumbered to ``0 .. s-1``), so the
    cost tracks the masked vertices and their edges, not the graph.
    """
    if mask is None:
        keep = np.arange(csr.vertex_count, dtype=np.int64)
    else:
        keep = np.nonzero(np.asarray(mask, dtype=bool))[0]
    s = keep.size
    if s == 0:
        return keep, np.zeros(1, dtype=np.int64)
    label = _propagate_min_labels(s, *induced_entries(csr, keep))
    # A component's label is its smallest local id, which is its
    # smallest vertex id: rank roots by (-size, id) and sort once.
    sizes = np.bincount(label, minlength=s)
    roots = np.nonzero(sizes)[0]
    ranked = roots[np.lexsort((roots, -sizes[roots]))]
    rank = np.empty(s, dtype=np.int64)
    rank[ranked] = np.arange(ranked.size, dtype=np.int64)
    verts = keep[np.argsort(rank[label], kind="stable")]
    starts = np.zeros(ranked.size + 1, dtype=np.int64)
    np.cumsum(sizes[ranked], out=starts[1:])
    return verts, starts


def component_vertex_groups(
    csr: CSRGraph, mask: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Vertex-id arrays of each component, largest first (ties: min id).

    Deterministic ordering so both backends enumerate components in a
    reproducible order.
    """
    verts, starts = component_order(csr, mask)
    return np.split(verts, starts[1:-1]) if verts.size else []

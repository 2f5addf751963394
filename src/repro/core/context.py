"""Per-component search context and budget enforcement.

A :class:`ComponentContext` bundles everything the branch-and-bound
engines need about one connected k-core component: the similar-edge
adjacency, the dissimilarity index, ``k``, the configuration, the stats
sink, and the time/node budget shared across components.

:class:`BitsetComponentContext` is the packed companion the bitset
engine backend (``SearchConfig.backend == "csr"``) searches over: the
component's vertices renumbered to dense local ids and its similar /
dissimilar neighbourhoods packed into ``uint64`` bitmask matrices, so
the engines replace Python set algebra with vectorised AND + popcount
kernels (see :mod:`repro.core.bitops`).  It is built lazily once per
component via :func:`bitset_context` and cached — on the
:class:`ComponentContext` for one-shot solves and on the session's
prepared components across queries.

:class:`ComponentArrays` is the session's prepared form of a
component: local-id edge and dissimilar-pair arrays from which the
bitset context packs directly, with the dict ``adj`` and index built
only when something asks for them.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set

import numpy as np

from repro.core import bitops
from repro.core.config import SearchConfig
from repro.core.stats import SearchStats
from repro.exceptions import SearchBudgetExceeded
from repro.similarity.index import DissimilarityIndex


class Budget:
    """Shared wall-clock / node budget for one solver invocation."""

    __slots__ = ("deadline", "node_limit", "nodes")

    def __init__(self, time_limit: Optional[float], node_limit: Optional[int]):
        self.deadline = (
            time.monotonic() + time_limit if time_limit is not None else None
        )
        self.node_limit = node_limit
        self.nodes = 0

    def tick(self) -> None:
        """Account one search node; raise when a cap is crossed."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise SearchBudgetExceeded(
                f"node limit of {self.node_limit} exceeded"
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchBudgetExceeded("time limit exceeded")


class ComponentContext:
    """One connected k-core component, ready to be searched.

    Attributes
    ----------
    vertices:
        The component's vertex set.
    adj:
        ``u -> neighbours of u within the component`` over *similar* edges
        only (dissimilar edges were deleted in preprocessing).
    index:
        Dissimilarity index restricted to the component.
    csr:
        Optional :class:`~repro.graph.csr.CSRGraph` of the *filtered*
        graph the component was cut from (set by the session; the
        engines themselves only consume ``adj``).
    arrays:
        Optional :class:`ComponentArrays` the component was prepared as
        (by the session).  When given, ``adj`` and ``index`` may be passed
        as ``None``: they are read from ``arrays`` — built there on first
        use and cached — so a bitset-only search never builds them.
    """

    __slots__ = (
        "vertices", "_adj", "_index", "k", "config", "stats", "budget",
        "rng", "csr", "bitset", "arrays",
    )

    def __init__(
        self,
        vertices: FrozenSet[int],
        adj: Optional[Dict[int, Set[int]]],
        index: Optional[DissimilarityIndex],
        k: int,
        config: SearchConfig,
        stats: SearchStats,
        budget: Budget,
        rng,
        csr=None,
        bitset: Optional["BitsetComponentContext"] = None,
        arrays: Optional["ComponentArrays"] = None,
    ):
        self.vertices = vertices
        self._adj = adj
        self._index = index
        self.k = k
        self.config = config
        self.stats = stats
        self.budget = budget
        self.rng = rng
        self.csr = csr
        self.bitset = bitset
        self.arrays = arrays

    @property
    def adj(self) -> Dict[int, Set[int]]:
        if self._adj is None:
            self._adj = self.arrays.adj
        return self._adj

    @property
    def index(self) -> DissimilarityIndex:
        if self._index is None:
            self._index = self.arrays.index
        return self._index

    def enter_node(self) -> None:
        """Account one search-tree node against stats and budget."""
        self.stats.nodes += 1
        self.budget.tick()

    def enter_check_node(self) -> None:
        """Account one maximal-check node (budgeted like search nodes)."""
        self.stats.check_nodes += 1
        self.budget.tick()

    def edge_count(self, within: Set[int]) -> int:
        """Edges of the subgraph induced by ``within``."""
        total = 0
        for u in within:
            total += len(self.adj[u] & within)
        return total // 2


#: Largest component the engines will pack into bitmask form.  The
#: packed state costs three dense ``(n, ceil(n/64))`` uint64 matrices
#: (~``3 n^2 / 8`` bytes): at this cap that is ~150 MB, beyond it the
#: quadratic memory would dwarf the O(m) set engines' footprint, so the
#: dispatch falls back to the (result-identical) set-based engines.
BITSET_VERTEX_LIMIT = 20_000


class BitsetComponentContext:
    """One component packed into ``uint64`` bitmask form.

    Attributes
    ----------
    verts:
        Sorted original vertex ids; local id ``i`` is ``verts[i]``, so
        ascending local order equals ascending original order (the
        tie-break every deterministic vertex choice relies on).
    nbr:
        ``(n, words)`` mask matrix; row ``i`` packs the *similar-edge*
        neighbours of local vertex ``i``.
    dis:
        ``(n, words)`` mask matrix; row ``i`` packs the vertices
        dissimilar to local vertex ``i`` (the packed
        :class:`~repro.similarity.index.DissimilarityIndex`).
    sim:
        ``(n, words)`` mask matrix of the similarity graph ``J'`` —
        ``full & ~dis & ~self`` — used by the Section 6 bounds.
    full:
        The component mask (all ``n`` bits set).
    """

    __slots__ = (
        "n", "words", "verts", "local", "nbr", "dis", "sim", "full",
        "_scratch",
    )

    #: Scratch-row assignment (see :meth:`scratch`).  One row per
    #: distinct per-node temporary so no two live uses ever alias:
    #: 0 — the engines' branch-vertex singleton mask;
    #: 1 — ``M ∪ C`` / the removed set inside ``apply_pruning_bits``
    #:     (also the maximal check's anchored-peel buffer);
    #: 2 — the Theorem-2 peel survivors inside ``apply_pruning_bits``;
    #: 3 — the engines' ``M ∪ C`` cardinality probe.
    SCRATCH_ROWS = 4

    def __init__(
        self,
        vertices: FrozenSet[int],
        adj: Dict[int, Set[int]],
        index: DissimilarityIndex,
    ):
        self._layout(np.array(sorted(vertices), dtype=np.int64))
        local, words = self.local, self.words
        nbr = np.zeros((self.n, words), dtype=np.uint64)
        dis = np.zeros((self.n, words), dtype=np.uint64)
        for i, u in enumerate(self.verts.tolist()):
            row = np.fromiter(
                (local[v] for v in adj[u]), dtype=np.int64,
                count=len(adj[u]),
            )
            if row.size:
                nbr[i] = bitops.mask_from_indices(row, words)
            dpartners = index.dissimilar_to(u) & vertices
            row = np.fromiter(
                (local[v] for v in dpartners), dtype=np.int64,
                count=len(dpartners),
            )
            if row.size:
                dis[i] = bitops.mask_from_indices(row, words)
        self._adopt_rows(nbr, dis)

    @classmethod
    def from_arrays(
        cls,
        verts: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
    ) -> "BitsetComponentContext":
        """Pack from local-id arrays, with no per-vertex Python loop.

        ``verts`` are the sorted original ids; ``(src, dst)`` lists every
        similar edge in both directions and ``(pair_i, pair_j)`` every
        dissimilar pair once, all over local ids (positions in
        ``verts``).  The result is array-for-array the context
        ``__init__`` packs from the equivalent ``adj`` and ``index``.
        """
        self = cls.__new__(cls)
        self._layout(np.asarray(verts, dtype=np.int64))
        shape = (self.n, self.words)
        nbr = np.zeros(shape, dtype=np.uint64)
        dis = np.zeros(shape, dtype=np.uint64)
        bitops.set_row_bits(nbr, src, dst)
        bitops.set_row_bits(dis, pair_i, pair_j)
        bitops.set_row_bits(dis, pair_j, pair_i)
        self._adopt_rows(nbr, dis)
        return self

    def _layout(self, verts: np.ndarray) -> None:
        """Everything that depends on the vertex set alone."""
        n = int(verts.size)
        words = bitops.word_count(n)
        self.n = n
        self.words = words
        self.verts = verts
        self.local = {int(v): i for i, v in enumerate(verts.tolist())}
        self.full = bitops.mask_from_indices(np.arange(n, dtype=np.int64), words)
        self._scratch = np.zeros((self.SCRATCH_ROWS, words), dtype=np.uint64)

    def _adopt_rows(self, nbr: np.ndarray, dis: np.ndarray) -> None:
        """Store the packed rows and derive the similarity graph ``sim``."""
        self.nbr = nbr
        self.dis = dis
        sim = (~dis) & self.full
        bitops.clear_diagonal(sim)
        self.sim = sim

    def scratch(self, row: int) -> np.ndarray:
        """A pooled per-node mask buffer (see :data:`SCRATCH_ROWS`).

        The branch-and-bound engines burn through thousands of nodes and
        each node needs a handful of mask-sized temporaries; pooling them
        here keeps the hot loop allocation-free.  Contents are only valid
        between two uses of the same row — callers must never store a
        scratch row in a stack frame or any longer-lived structure.
        """
        return self._scratch[row]

    # -- conversions ----------------------------------------------------
    def zeros(self) -> np.ndarray:
        """A fresh empty mask of this component's width."""
        return bitops.zeros(self.words)

    def mask_of(self, vertices) -> np.ndarray:
        """Pack an iterable of *original* vertex ids into a mask."""
        local = self.local
        idx = np.fromiter((local[v] for v in vertices), dtype=np.int64)
        return bitops.mask_from_indices(idx, self.words)

    def to_vertices(self, mask: np.ndarray) -> FrozenSet[int]:
        """Unpack a mask back to a frozenset of original vertex ids."""
        return frozenset(self.verts[bitops.members(mask)].tolist())

    def original_ids(self, mask: np.ndarray) -> List[int]:
        """Ascending original ids of a mask's members."""
        return self.verts[bitops.members(mask)].tolist()


class ComponentArrays:
    """One prepared component as flat arrays over component-local ids.

    The session's batched preparation
    (:func:`repro.core.solver.component_arrays`) cuts every component of
    a ``(k, r)`` point into one of these from a few whole-point array
    passes.  The bitset engine packs straight from the arrays
    (:meth:`pack`); the dict forms that the set engines, the process
    executor and the warm-start heuristic read (:attr:`adj`,
    :attr:`index`) are built on first access and cached, so a component
    no query searches never builds them.

    Attributes
    ----------
    verts:
        Sorted original vertex ids; local id ``i`` is ``verts[i]``.
    src, dst:
        Every similar edge in both directions, sorted by ``(src, dst)``.
    pair_i, pair_j:
        Every dissimilar pair once (``pair_i < pair_j``), sorted.
    edges_key:
        Canonical bytes of the similar-edge set, as
        :func:`~repro.core.solver.component_edges_key_csr` cuts them.
    max_degree:
        Largest in-component similar-edge degree.
    """

    __slots__ = (
        "verts", "src", "dst", "pair_i", "pair_j", "edges_key",
        "max_degree", "_adj", "_index",
    )

    def __init__(
        self,
        verts: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        edges_key: bytes,
        max_degree: int,
        index: Optional[DissimilarityIndex] = None,
    ):
        self.verts = verts
        self.src = src
        self.dst = dst
        self.pair_i = pair_i
        self.pair_j = pair_j
        self.edges_key = edges_key
        self.max_degree = max_degree
        self._adj: Optional[Dict[int, Set[int]]] = None
        self._index = index

    @property
    def materialised(self) -> bool:
        """Whether the dict ``adj`` or ``index`` exists yet."""
        return self._adj is not None or self._index is not None

    @property
    def adj(self) -> Dict[int, Set[int]]:
        """``u -> similar neighbours of u`` (built once, on first use)."""
        if self._adj is None:
            self._adj = self._rows(self.src, self.dst)
        return self._adj

    @property
    def index(self) -> DissimilarityIndex:
        """The component's dissimilarity index (built once, on first use)."""
        if self._index is None:
            i = np.concatenate((self.pair_i, self.pair_j))
            j = np.concatenate((self.pair_j, self.pair_i))
            order = np.lexsort((j, i))
            self._index = DissimilarityIndex(self._rows(i[order], j[order]))
        return self._index

    def _rows(self, i: np.ndarray, j: np.ndarray) -> Dict[int, Set[int]]:
        verts = self.verts
        rows: Dict[int, Set[int]] = {u: set() for u in verts.tolist()}
        for u, v in zip(verts[i].tolist(), verts[j].tolist()):
            rows[u].add(v)
        return rows

    def pair_key(self) -> FrozenSet:
        """The dissimilar-pair set, as
        :meth:`~repro.similarity.index.DissimilarityIndex.pair_key` gives it."""
        if not self.pair_i.size:
            return frozenset()
        verts = self.verts
        return frozenset(
            zip(verts[self.pair_i].tolist(), verts[self.pair_j].tolist())
        )

    def pack(self) -> BitsetComponentContext:
        """The packed bitset form, straight from the arrays."""
        return BitsetComponentContext.from_arrays(
            self.verts, self.src, self.dst, self.pair_i, self.pair_j
        )


def bitset_context(ctx: ComponentContext) -> BitsetComponentContext:
    """The (lazily built, cached) packed form of ``ctx``'s component."""
    if ctx.bitset is None:
        if ctx.arrays is not None:
            ctx.bitset = ctx.arrays.pack()
        else:
            ctx.bitset = BitsetComponentContext(
                ctx.vertices, ctx.adj, ctx.index
            )
    return ctx.bitset


def use_bitset_engine(ctx: ComponentContext) -> bool:
    """Whether this component should run on the bitset engine.

    True on the ``"csr"`` backend for components within
    :data:`BITSET_VERTEX_LIMIT` (both engines return identical results;
    only the representation — and its memory/speed profile — differs).
    """
    return (
        ctx.config.backend == "csr"
        and len(ctx.vertices) <= BITSET_VERTEX_LIMIT
    )

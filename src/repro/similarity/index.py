"""Per-component dissimilarity index.

After preprocessing (drop dissimilar edges, take the k-core), each
connected component ``S`` is searched independently.  The search needs
fast answers to:

* ``DP(u, X)``  — how many vertices of ``X`` are dissimilar to ``u``
  (Theorem 3, the similarity invariant, ``SF(C)``, ``SF_C(E)``, ...);
* ``degsim(u, X)`` — how many are similar (Algorithm 6);
* the per-vertex dissimilar sets themselves (pruning, Δ1 scores).

This index materialises, once per component, the set of dissimilar
vertices of every vertex *within the component*.  All later queries are
set intersections.  For geo data the pairwise distances are computed with
numpy in one vectorised pass; for set/counter attributes a straight double
loop over the (small) component is used.

The index is the reproduction of the paper's implicit "similarity graph"
— it stores the *complement* restricted to each component, which is the
sparse side in the regimes the paper evaluates (dissimilar pairs inside a
surviving component are few).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.similarity.metrics import (
    MetricKind,
    euclidean_distance,
    jaccard,
    require_attribute,
    weighted_jaccard,
)
from repro.similarity.threshold import SimilarityPredicate

AttributeSource = Union[AttributedGraph, CSRGraph]

#: Vectorised weighted-Jaccard kicks in above this component size on the
#: python backend; the CSR backend vectorises at every size.
_WJ_MIN_VERTICES = 48
#: ... and below this distinct-key (vocabulary) count.
_WJ_MAX_VOCABULARY = 4096


class DissimilarityIndex:
    """Dissimilar-vertex sets for one vertex set.

    Parameters
    ----------
    dissimilar:
        ``u -> set of vertices dissimilar to u`` (symmetric, irreflexive),
        covering every vertex of the component.
    """

    __slots__ = ("_dissimilar", "_vertices")

    def __init__(self, dissimilar: Dict[int, Set[int]]):
        self._dissimilar = dissimilar
        self._vertices = frozenset(dissimilar)

    @property
    def vertices(self) -> FrozenSet[int]:
        """The component's vertex set."""
        return self._vertices

    def dissimilar_to(self, u: int) -> Set[int]:
        """Vertices of the component dissimilar to ``u`` (live set; do not mutate)."""
        return self._dissimilar[u]

    def dp(self, u: int, within: Set[int]) -> int:
        """``DP(u, within)``: number of vertices of ``within`` dissimilar to ``u``."""
        return len(self._dissimilar[u] & within)

    def sp(self, u: int, within: Set[int]) -> int:
        """``SP(u, within)``: number of *other* vertices of ``within`` similar to ``u``."""
        others = len(within) - (1 if u in within else 0)
        return others - self.dp(u, within)

    def is_similarity_free(self, u: int, within: Set[int]) -> bool:
        """Whether ``u`` is similar to every vertex of ``within`` (``DP = 0``)."""
        return not (self._dissimilar[u] & within)

    def similarity_free_subset(self, pool: Iterable[int], within: Set[int]) -> Set[int]:
        """``{u in pool : DP(u, within) = 0}`` — the SF(·) operator of §5.1.2/§5.2."""
        return {
            u for u in pool if not (self._dissimilar[u] & within)
        }

    def dissimilar_pair_count(self, within: Set[int]) -> int:
        """``DP(S)``: number of dissimilar (unordered) pairs inside ``within``."""
        total = 0
        for u in within:
            total += len(self._dissimilar[u] & within)
        return total // 2

    def has_dissimilar_pair(self, within: Set[int]) -> bool:
        """Whether any dissimilar pair exists inside ``within``."""
        for u in within:
            if self._dissimilar[u] & within:
                return True
        return False

    def similar_to(self, u: int, within: Set[int]) -> Set[int]:
        """Vertices of ``within`` similar to ``u`` (excluding ``u`` itself)."""
        out = within - self._dissimilar[u]
        out.discard(u)
        return out

    def restricted(self, vertices: Set[int]) -> "DissimilarityIndex":
        """A new index covering only ``vertices`` (for sub-searches)."""
        return DissimilarityIndex(
            {u: self._dissimilar[u] & vertices for u in vertices}
        )

    def rows(self) -> Dict[int, Set[int]]:
        """The raw ``u -> dissimilar vertices`` mapping (live; do not mutate).

        The picklable payload of :mod:`repro.core.executor` ships these
        rows to worker processes, which rebuild an equivalent index with
        ``DissimilarityIndex(rows)``.
        """
        return self._dissimilar

    def pair_key(self) -> FrozenSet:
        """Canonical hashable view of the dissimilar-pair set.

        Two indexes with equal pair keys (over equal vertex sets) are
        interchangeable for every solver — the engines consume nothing
        but these pairs.  The session's result cache keys on this, so
        sweep points whose thresholds happen to induce the same
        similarity structure share search results.
        """
        return frozenset(
            (u, v)
            for u, others in self._dissimilar.items()
            for v in others
            if u < v
        )

    def __repr__(self) -> str:
        pairs = self.dissimilar_pair_count(set(self._vertices))
        return f"DissimilarityIndex(n={len(self._vertices)}, dissimilar_pairs={pairs})"


def build_index(
    graph: AttributeSource,
    predicate: SimilarityPredicate,
    vertices: Iterable[int],
    backend: str = "python",
) -> DissimilarityIndex:
    """Build the dissimilarity index for one component.

    Dispatches to a vectorised numpy path when the metric is planar
    Euclidean distance (the geo-social datasets), otherwise falls back to
    the generic pairwise loop.  Cost is ``O(|S|^2)`` metric evaluations;
    components surviving the k-core + dissimilar-edge preprocessing are
    small relative to the input graph, which is what makes this affordable
    (the paper's solvers equally touch all intra-component pairs through
    DP/SP bookkeeping).

    ``backend="csr"`` (what :func:`repro.core.solver.component_index`
    passes on the array backend) batches weighted-Jaccard and plain
    Jaccard components of every size through the vectorised path instead
    of only the large ones; both backends yield the same index.
    """
    vs = sorted(set(vertices))
    if predicate.metric is euclidean_distance:
        return _build_index_euclidean(graph, predicate, vs)
    if predicate.metric is weighted_jaccard and (
        backend == "csr" or len(vs) >= _WJ_MIN_VERTICES
    ):
        built = _build_index_weighted_jaccard(graph, predicate, vs)
        if built is not None:
            return built
    if predicate.metric is jaccard and (
        backend == "csr" or len(vs) >= _WJ_MIN_VERTICES
    ):
        built = _build_index_jaccard(graph, predicate, vs)
        if built is not None:
            return built
    return _build_index_generic(graph, predicate, vs)


def _mark_far_rows(
    dissimilar: Dict[int, Set[int]],
    vs: Sequence[int],
    ids: np.ndarray,
    far: np.ndarray,
    start: int,
) -> None:
    """Fold one chunk of a boolean ``far`` matrix into the dissimilar sets.

    Row ``local_i`` of ``far`` flags the vertices dissimilar to
    ``vs[start + local_i]``; the diagonal (self) is skipped.  Shared by
    every vectorised index builder so the chunk epilogue exists once.
    """
    for local_i in range(far.shape[0]):
        js = np.nonzero(far[local_i])[0]
        if js.size:
            u = vs[start + local_i]
            mine = dissimilar[u]
            for j in ids[js]:
                if j != u:
                    mine.add(int(j))


def _build_index_generic(
    graph: AttributedGraph,
    predicate: SimilarityPredicate,
    vs: Sequence[int],
) -> DissimilarityIndex:
    attrs = {u: require_attribute(graph.attribute(u), u) for u in vs}
    dissimilar: Dict[int, Set[int]] = {u: set() for u in vs}
    for i, u in enumerate(vs):
        au = attrs[u]
        for v in vs[i + 1:]:
            if not predicate.similar(au, attrs[v]):
                dissimilar[u].add(v)
                dissimilar[v].add(u)
    return DissimilarityIndex(dissimilar)


def _build_index_euclidean(
    graph: AttributedGraph,
    predicate: SimilarityPredicate,
    vs: Sequence[int],
) -> DissimilarityIndex:
    """Vectorised pairwise distances for geo attributes.

    Uses a chunked squared-distance computation so memory stays bounded
    for large components.
    """
    n = len(vs)
    dissimilar: Dict[int, Set[int]] = {u: set() for u in vs}
    if n < 2:
        return DissimilarityIndex(dissimilar)
    points = np.empty((n, 2), dtype=np.float64)
    for i, u in enumerate(vs):
        a = require_attribute(graph.attribute(u), u)
        points[i, 0] = a[0]
        points[i, 1] = a[1]
    r2 = predicate.r * predicate.r
    ids = np.asarray(vs)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        block = points[start:stop]
        dx = block[:, 0][:, None] - points[:, 0][None, :]
        dy = block[:, 1][:, None] - points[:, 1][None, :]
        far = (dx * dx + dy * dy) > r2
        _mark_far_rows(dissimilar, vs, ids, far, start)
    return DissimilarityIndex(dissimilar)


#: Pairs per array pass of :func:`euclidean_dissimilar_pairs` (bounds
#: its temporaries to a few tens of MB whatever the component sizes).
_PAIR_CHUNK = 1_000_000


def point_column(csr: CSRGraph, vertices: np.ndarray) -> np.ndarray:
    """``(len(vertices), 2)`` float column of the vertices' geo points.

    Reads only the given vertices' attributes, straight from the
    attribute dict; a missing one raises as in
    :func:`_build_index_euclidean`.
    """
    get = csr._attributes.get
    points = [require_attribute(get(u), u) for u in vertices.tolist()]
    out = np.empty((len(points), 2), dtype=np.float64)
    out[:, 0] = np.fromiter((p[0] for p in points), np.float64, len(points))
    out[:, 1] = np.fromiter((p[1] for p in points), np.float64, len(points))
    return out


def euclidean_dissimilar_pairs(
    points: np.ndarray, starts: np.ndarray, r: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Dissimilar pairs inside every group of a batch of point groups.

    Group ``c`` is rows ``starts[c]:starts[c + 1]`` of ``points``.  Every
    within-group pair ``i < j`` is tested with the exact
    ``(dx * dx + dy * dy) > r * r`` comparison of
    :func:`_build_index_euclidean`, in flat array passes over all groups
    at once.  Returns the dissimilar pairs' row positions ``(i, j)``,
    sorted by ``(i, j)``.
    """
    s = points.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if s < 2:
        return empty, empty
    sizes = np.diff(starts)
    rows = np.arange(s, dtype=np.int64)
    partners = np.repeat(starts[1:], sizes) - rows - 1
    done = np.cumsum(partners)
    r2 = r * r
    found_i, found_j = [], []
    lo = 0
    while lo < s:
        base = int(done[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(done, base + _PAIR_CHUNK, "right")))
        counts = partners[lo:hi]
        total = int(done[hi - 1]) - base
        if total:
            i = np.repeat(rows[lo:hi], counts)
            offset = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            j = i + 1 + offset
            dx = points[i, 0] - points[j, 0]
            dy = points[i, 1] - points[j, 1]
            far = (dx * dx + dy * dy) > r2
            found_i.append(i[far])
            found_j.append(j[far])
        lo = hi
    if not found_i:
        return empty, empty
    return np.concatenate(found_i), np.concatenate(found_j)


def _build_index_weighted_jaccard(
    graph: AttributedGraph,
    predicate: SimilarityPredicate,
    vs: Sequence[int],
):
    """Vectorised pairwise weighted Jaccard over counted profiles.

    Profiles become rows of a dense ``n x d`` count matrix over the
    component's joint vocabulary; pairwise ``sum(min)`` is computed in
    row chunks against the whole matrix, and ``sum(max)`` follows from
    row sums (``max = su + sv - min``).  Falls back to ``None`` (caller
    uses the generic loop) when the vocabulary is too large for the
    dense representation to pay off.
    """
    attrs = []
    vocabulary: Dict[str, int] = {}
    for u in vs:
        profile = require_attribute(graph.attribute(u), u)
        attrs.append(profile)
        for key in profile:
            if key not in vocabulary:
                vocabulary[key] = len(vocabulary)
                if len(vocabulary) > _WJ_MAX_VOCABULARY:
                    return None
    n = len(vs)
    d = max(1, len(vocabulary))
    counts = np.zeros((n, d), dtype=np.float64)
    for i, profile in enumerate(attrs):
        for key, value in profile.items():
            if value < 0:
                return None  # let the generic path raise the clean error
            counts[i, vocabulary[key]] = value
    sums = counts.sum(axis=1)

    r = predicate.r
    dissimilar: Dict[int, Set[int]] = {u: set() for u in vs}
    ids = np.asarray(vs)
    # ~32M float cells per chunk block keeps peak memory modest.
    chunk = max(1, min(n, 32_000_000 // max(1, n * d)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        mins = np.minimum(counts[start:stop, None, :], counts[None, :, :]).sum(axis=2)
        dens = sums[start:stop, None] + sums[None, :] - mins
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = np.where(dens > 0.0, mins / dens, 0.0)
        _mark_far_rows(dissimilar, vs, ids, sim < r, start)
    return DissimilarityIndex(dissimilar)


def _build_index_jaccard(
    graph: AttributeSource,
    predicate: SimilarityPredicate,
    vs: Sequence[int],
):
    """Vectorised pairwise plain Jaccard over set-valued attributes.

    Sets become rows of a binary ``n x d`` membership matrix; pairwise
    intersections are one matmul and unions follow from row sums.  All
    quantities are small integers represented exactly in float64, so the
    thresholded result matches the scalar loop bit-for-bit.  Returns
    ``None`` (caller falls back to the generic loop) when the vocabulary
    outgrows the dense representation.
    """
    vocabulary: Dict[object, int] = {}
    profiles: List[Set[object]] = []
    for u in vs:
        raw = require_attribute(graph.attribute(u), u)
        profile = set(raw)
        profiles.append(profile)
        for key in profile:
            if key not in vocabulary:
                vocabulary[key] = len(vocabulary)
                if len(vocabulary) > _WJ_MAX_VOCABULARY:
                    return None
    n = len(vs)
    d = max(1, len(vocabulary))
    member = np.zeros((n, d), dtype=np.float64)
    for i, profile in enumerate(profiles):
        for key in profile:
            member[i, vocabulary[key]] = 1.0
    sizes = member.sum(axis=1)

    r = predicate.r
    dissimilar: Dict[int, Set[int]] = {u: set() for u in vs}
    if n < 2:
        return DissimilarityIndex(dissimilar)
    ids = np.asarray(vs)
    # The matmul temporary is chunk x n cells (d is contracted away).
    chunk = max(1, min(n, 32_000_000 // max(1, n)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        inter = member[start:stop] @ member.T
        union = sizes[start:stop, None] + sizes[None, :] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = np.where((union > 0.0) & (inter > 0.0), inter / union, 0.0)
        _mark_far_rows(dissimilar, vs, ids, sim < r, start)
    return DissimilarityIndex(dissimilar)


def remove_dissimilar_edges(
    graph: AttributedGraph,
    predicate: SimilarityPredicate,
) -> AttributedGraph:
    """Copy of ``graph`` with every dissimilar edge deleted.

    Algorithm 1, lines 1–2: an edge between dissimilar endpoints can never
    appear inside a (k,r)-core, so deleting it up front is lossless and
    sharpens the subsequent k-core computation.  Vertices missing
    attributes have all incident edges dropped (they can never join a
    core).
    """
    out = graph.copy()
    for u, v in list(graph.edges()):
        if not graph.has_attribute(u) or not graph.has_attribute(v):
            out.remove_edge(u, v)
            continue
        if not predicate.similar(graph.attribute(u), graph.attribute(v)):
            out.remove_edge(u, v)
    return out


def remove_dissimilar_edges_csr(
    csr: CSRGraph,
    predicate: SimilarityPredicate,
) -> CSRGraph:
    """CSR counterpart of :func:`remove_dissimilar_edges`.

    Builds the kept-edge mask over the flat endpoint arrays: attribute
    presence is one boolean gather, geo distances are a single vectorised
    pass over the coordinate columns, and other metrics evaluate the
    scalar predicate only on edges whose endpoints both carry attributes.
    """
    eu, ev = csr.edge_array()
    if eu.size == 0:
        return csr.filter_edges(np.zeros(0, dtype=bool))
    has = csr.attribute_mask()
    keep = has[eu] & has[ev]
    if predicate.metric is euclidean_distance and predicate.kind is MetricKind.DISTANCE:
        d2 = squared_edge_lengths(csr, eu, ev, keep)
        r2 = predicate.r * predicate.r
        # Squared distances decide all but a ~1-ulp band around the
        # threshold; borderline edges re-check through the scalar
        # predicate so both backends make bit-identical keep decisions.
        with np.errstate(invalid="ignore"):
            near = d2 <= r2 * (1.0 - 1e-12)
            far = d2 > r2 * (1.0 + 1e-12)
        keep &= ~far
        for i in np.nonzero(keep & ~near & ~far)[0]:
            keep[i] = predicate.similar(
                csr.attribute(int(eu[i])), csr.attribute(int(ev[i]))
            )
        return csr.filter_edges(keep)
    if (
        predicate.metric in (jaccard, weighted_jaccard)
        and predicate.kind is MetricKind.SIMILARITY
    ):
        batched = _edge_profile_keep(csr, eu, ev, keep, predicate)
        if batched is not None:
            return csr.filter_edges(batched)
    for i in np.nonzero(keep)[0]:
        keep[i] = predicate.similar(
            csr.attribute(int(eu[i])), csr.attribute(int(ev[i]))
        )
    return csr.filter_edges(keep)


def squared_edge_lengths(
    csr: CSRGraph, eu: np.ndarray, ev: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """Squared planar length of every edge ``(eu[i], ev[i])``.

    ``live`` is the boolean mask of the edges whose endpoints both carry
    an attribute; the other edges come back NaN.  Point attributes are
    read straight from the attribute dict, and only for endpoints of
    ``live`` edges — the set-based path never reads non-endpoint
    attributes either, so a malformed attribute on an isolated vertex
    cannot crash this backend only.  A graph whose geo-point column is
    already built (a stored graph's point column seeds it) is read from
    that column instead.
    """
    pts = csr._geo
    if pts is None:
        ends = np.zeros(csr.vertex_count, dtype=bool)
        ends[eu[live]] = True
        ends[ev[live]] = True
        ids = np.nonzero(ends)[0]
        points = [csr._attributes[u] for u in ids.tolist()]
        pts = np.full((csr.vertex_count, 2), np.nan, dtype=np.float64)
        pts[ids, 0] = np.fromiter((p[0] for p in points), np.float64, count=ids.size)
        pts[ids, 1] = np.fromiter((p[1] for p in points), np.float64, count=ids.size)
    return (pts[eu, 0] - pts[ev, 0]) ** 2 + (pts[eu, 1] - pts[ev, 1]) ** 2


def _edge_profile_keep(
    csr: CSRGraph,
    eu: np.ndarray,
    ev: np.ndarray,
    keep: np.ndarray,
    predicate: SimilarityPredicate,
) -> Optional[np.ndarray]:
    """Vectorised per-edge (weighted) Jaccard similarity filter.

    Thin thresholding wrapper over
    :func:`edge_profile_similarities`; returns ``None`` when the
    vectorised value computation is unavailable (caller falls back to
    the scalar loop).
    """
    live = np.nonzero(keep)[0]
    sims = edge_profile_similarities(csr, eu, ev, live, predicate)
    if sims is None:
        return None
    out = keep.copy()
    out[live] = sims >= predicate.r
    return out


def edge_profile_similarities(
    csr: CSRGraph,
    eu: np.ndarray,
    ev: np.ndarray,
    live: np.ndarray,
    predicate: SimilarityPredicate,
) -> Optional[np.ndarray]:
    """Vectorised (weighted) Jaccard values for the ``live`` edges.

    Vertex profiles become rows of a dense count matrix over the joint
    vocabulary (binary rows for plain sets); per-edge ``sum(min)`` /
    ``sum(max)`` then evaluates in chunked array passes instead of one
    Python metric call per edge.  Returns the similarity value of every
    edge in ``live`` (aligned with it), or ``None`` when the vocabulary
    or the matrix would be too large — the caller falls back to the
    scalar loop.  Thresholding the returned values with ``>= r`` matches
    the scalar metric decisions exactly for plain sets (all quantities
    are small integers in float64); :class:`EdgeSimilarityCache` relies
    on this to serve many thresholds from one value pass.
    """
    weighted = predicate.metric is weighted_jaccard
    n = csr.vertex_count
    if live.size == 0:
        return np.zeros(0, dtype=np.float64)
    # Only edge endpoints need profiles — matching the set-based path,
    # which never evaluates the metric on non-endpoint vertices.
    needed = np.unique(np.concatenate([eu[live], ev[live]]))
    vocabulary: Dict[object, int] = {}
    attributed = []
    for u in needed.tolist():
        value = csr.attribute(u)
        profile = value if weighted else set(value)
        attributed.append((u, profile))
        keys = profile.keys() if weighted else profile
        for key in keys:
            if key not in vocabulary:
                vocabulary[key] = len(vocabulary)
                if len(vocabulary) > _WJ_MAX_VOCABULARY:
                    return None
    d = max(1, len(vocabulary))

    if not weighted and hasattr(np, "bitwise_count"):
        # Plain sets pack into uint64 bitmask words; intersections are
        # then AND + popcount — far less memory traffic than a dense
        # membership matrix (n * d/64 bits, so no size bailout needed).
        # All quantities stay small integers, so the thresholding
        # matches the scalar metric exactly.
        words = (d + 63) // 64
        masks = np.zeros((n, words), dtype=np.uint64)
        for u, profile in attributed:
            for key in profile:
                slot = vocabulary[key]
                masks[u, slot >> 6] |= np.uint64(1 << (slot & 63))
        sizes = np.bitwise_count(masks).sum(axis=1).astype(np.float64)
        bu, bv = eu[live], ev[live]
        inter = np.bitwise_count(masks[bu] & masks[bv]).sum(axis=1).astype(np.float64)
        union = sizes[bu] + sizes[bv] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where((union > 0.0) & (inter > 0.0), inter / union, 0.0)

    if n * d > 64_000_000:
        return None  # dense count matrix would not pay off
    counts = np.zeros((n, d), dtype=np.float64)
    for u, profile in attributed:
        if weighted:
            for key, value in profile.items():
                if value < 0:
                    return None  # generic path raises the clean error
                counts[u, vocabulary[key]] = value
        else:
            for key in profile:
                counts[u, vocabulary[key]] = 1.0
    sums = counts.sum(axis=1)
    sims = np.zeros(live.size, dtype=np.float64)
    chunk = max(1, 16_000_000 // d)
    for start in range(0, live.size, chunk):
        block = live[start:start + chunk]
        bu, bv = eu[block], ev[block]
        mins = np.minimum(counts[bu], counts[bv]).sum(axis=1)
        dens = sums[bu] + sums[bv] - mins
        with np.errstate(invalid="ignore", divide="ignore"):
            sims[start:start + block.size] = np.where(
                (dens > 0.0) & (mins > 0.0), mins / dens, 0.0
            )
    return sims

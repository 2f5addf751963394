"""Packed-uint64 bitset primitives for the search engines.

The bitset engine backend (``SearchConfig.backend == "csr"``) represents
every vertex set the branch-and-bound search manipulates — ``M``, ``C``,
``E``, similarity-free sets, peel survivors — as a flat ``uint64`` array
of ``ceil(n / 64)`` words over *component-local* vertex ids.  Set algebra
becomes word-wise ``&``/``|``/``~``; cardinalities and degree support
become popcounts; and the per-vertex similar/dissimilar neighbourhoods
live in two ``(n, words)`` mask matrices so "degree of every member of X
within Y" is one vectorised AND + popcount over a row gather.

This module holds the engine-agnostic word-level kernels; the packed
per-component state lives in
:class:`repro.core.context.BitsetComponentContext`.  The packing follows
the same little-endian bit order as the packed-bitmask Jaccard path in
:mod:`repro.similarity.index` (bit ``i`` of the mask is word ``i >> 6``,
bit ``i & 63``).
"""

from __future__ import annotations

from typing import List

import numpy as np

_ONE = np.uint64(1)
_SIX = np.uint64(6)
_SIXTY_THREE = np.uint64(63)

#: numpy >= 2.0 has a native vectorised popcount; older versions fall
#: back to unpacking bits (same results, more memory traffic).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def word_count(n: int) -> int:
    """Words needed for an ``n``-bit mask (at least 1 so ``~`` is safe)."""
    return max(1, (n + 63) >> 6)


def zeros(words: int) -> np.ndarray:
    """The empty set as a fresh ``words``-long mask."""
    return np.zeros(words, dtype=np.uint64)


def mask_from_indices(indices: np.ndarray, words: int) -> np.ndarray:
    """Pack an array of local ids into a fresh mask."""
    out = np.zeros(words, dtype=np.uint64)
    if indices.size:
        idx = indices.astype(np.uint64, copy=False)
        np.bitwise_or.at(out, idx >> _SIX, _ONE << (idx & _SIXTY_THREE))
    return out


def set_row_bits(rows: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Add local id ``j[x]`` to mask row ``i[x]`` of ``rows``, for every ``x``."""
    if i.size:
        col = j.astype(np.uint64, copy=False)
        np.bitwise_or.at(rows, (i, col >> _SIX), _ONE << (col & _SIXTY_THREE))


def clear_diagonal(rows: np.ndarray) -> None:
    """Remove local id ``i`` from mask row ``i``, for every row, in place."""
    i = np.arange(rows.shape[0], dtype=np.uint64)
    rows[i, i >> _SIX] &= ~(_ONE << (i & _SIXTY_THREE))


def set_bit(mask: np.ndarray, i: int) -> None:
    """Add local id ``i`` to ``mask`` in place."""
    mask[i >> 6] |= _ONE << np.uint64(i & 63)


def clear_bits(mask: np.ndarray, indices: np.ndarray) -> None:
    """Remove the given local ids from ``mask`` in place."""
    if indices.size:
        idx = indices.astype(np.uint64, copy=False)
        np.bitwise_and.at(
            mask, idx >> _SIX, ~(_ONE << (idx & _SIXTY_THREE))
        )


def single_bit(i: int, words: int) -> np.ndarray:
    """A fresh mask holding only local id ``i``."""
    out = np.zeros(words, dtype=np.uint64)
    set_bit(out, i)
    return out


def popcount(mask: np.ndarray) -> int:
    """``|mask|`` — the number of set bits."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(mask).sum())
    return int(
        np.unpackbits(mask.view(np.uint8), bitorder="little").sum()
    )


def row_popcounts(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(rows, words)`` mask matrix."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    return np.unpackbits(
        rows.view(np.uint8).reshape(rows.shape[0], -1), axis=1,
        bitorder="little",
    ).sum(axis=1, dtype=np.int64)


def members(mask: np.ndarray) -> np.ndarray:
    """Local ids of the set bits, ascending (one unpack + nonzero)."""
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
    return np.nonzero(bits)[0]


def bit_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Expand a ``(rows, words)`` mask matrix to ``(rows, n)`` 0/1 bytes.

    Used to turn "sum a per-vertex score over each row's members" into a
    single matmul (the Δ-score evaluation of :mod:`repro.core.orders`).
    """
    return np.unpackbits(
        rows.view(np.uint8).reshape(rows.shape[0], -1), axis=1,
        bitorder="little",
    )[:, :n]


def first_member(mask: np.ndarray) -> int:
    """Lowest set local id (callers guarantee non-emptiness)."""
    for w in range(mask.shape[0]):
        word = int(mask[w])
        if word:
            return (w << 6) + (word & -word).bit_length() - 1
    raise ValueError("first_member of an empty mask")


def is_subset(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every bit of ``a`` is set in ``b``."""
    return not np.any(a & ~b)


def equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact set equality."""
    return bool(np.array_equal(a, b))


def or_reduce_rows(rows: np.ndarray) -> np.ndarray:
    """Union of a ``(rows, words)`` mask matrix (fresh mask)."""
    return np.bitwise_or.reduce(rows, axis=0)


def kcore_mask(
    nbr: np.ndarray,
    k: int,
    within: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """k-core of the subgraph induced by ``within``.

    Frontier peeling: the first pass computes every member's degree;
    later passes re-examine only live neighbours of freshly removed
    vertices, so cascades cost what they touch.

    ``out``, when given, is used as the peel buffer and returned (the
    engines pass a per-node scratch row so the hot loop does not
    allocate); it must not alias ``within``.  Without it a fresh mask is
    returned.
    """
    if out is None:
        alive = within.copy()
    else:
        alive = out
        np.copyto(alive, within)
    mem = members(alive)
    if mem.size == 0:
        return alive
    deg = row_popcounts(nbr[mem] & alive)
    bad = mem[deg < k]
    while bad.size:
        clear_bits(alive, bad)
        touched = or_reduce_rows(nbr[bad]) & alive
        mem = members(touched)
        if mem.size == 0:
            break
        deg = row_popcounts(nbr[mem] & alive)
        bad = mem[deg < k]
    return alive


def anchored_kcore_mask(
    nbr: np.ndarray,
    k: int,
    candidates: np.ndarray,
    anchors: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """Maximal ``U ⊆ candidates`` with ``deg(u, anchors ∪ U) >= k``.

    The bitset counterpart of
    :func:`repro.graph.kcore.anchored_k_core`: anchors contribute degree
    but are never peeled.  ``out`` works as in :func:`kcore_mask`.
    """
    if out is None:
        alive = candidates.copy()
    else:
        alive = out
        np.copyto(alive, candidates)
    mem = members(alive)
    if mem.size == 0:
        return alive
    deg = row_popcounts(nbr[mem] & (alive | anchors))
    bad = mem[deg < k]
    while bad.size:
        clear_bits(alive, bad)
        touched = or_reduce_rows(nbr[bad]) & alive
        mem = members(touched)
        if mem.size == 0:
            break
        deg = row_popcounts(nbr[mem] & (alive | anchors))
        bad = mem[deg < k]
    return alive


def reach_mask(
    nbr: np.ndarray, seeds: np.ndarray, within: np.ndarray
) -> np.ndarray:
    """Vertices of ``within`` reachable from ``seeds`` (seeds included).

    Frontier BFS in mask space: each round ORs the frontier members'
    neighbourhood rows and masks off what was already reached.  With a
    multi-bit seed set this returns the union of every component touching
    a seed.
    """
    comp = seeds & within
    frontier = comp
    while frontier.any():
        mem = members(frontier)
        frontier = or_reduce_rows(nbr[mem]) & within & ~comp
        comp = comp | frontier
    return comp


def component_masks(nbr: np.ndarray, within: np.ndarray) -> List[np.ndarray]:
    """Connected components of ``within``, largest first (ties: min id).

    Mirrors the ordering contract of
    :func:`repro.graph.components.connected_components` so emissions from
    the bitset engines list pieces in the same order as the reference
    engines.
    """
    remaining = within.copy()
    words = within.shape[0]
    out: List[np.ndarray] = []
    while remaining.any():
        seed = first_member(remaining)
        comp = reach_mask(nbr, single_bit(seed, words), remaining)
        out.append(comp)
        remaining &= ~comp
    out.sort(key=lambda comp: (-popcount(comp), first_member(comp)))
    return out

"""Incremental mining on an evolving network.

Social graphs change continuously; re-mining from scratch after every
edit is wasteful because a (k,r)-core lives inside one connected
component of the preprocessed graph.  A KRCoreSession absorbs each
edit with bounded-scope cache maintenance, keeps per-component results,
and re-solves only the components an edit touches.

This example evolves a planted multi-community network — friendships
form, one dissolves, a user relocates — and shows the cores and the
cache behaviour after each step.

Run:  python examples/dynamic_mining.py
"""

from repro.core import KRCoreSession
from repro.datasets import planted_communities


def show(session, pc, label):
    cores, stats = session.enumerate(
        pc.k, predicate=pc.predicate, with_stats=True,
    )
    sizes = [c.size for c in cores]
    print(f"{label:<38} cores={len(cores)} sizes={sizes} "
          f"(solved {stats.cache_misses} / "
          f"cached {stats.cache_hits} components)")


def main() -> None:
    pc = planted_communities(
        n_blocks=4, block_size=12, k=3, attribute_kind="keywords", seed=21,
    )
    g = pc.graph
    print(f"planted network: {g.vertex_count} users, {g.edge_count} "
          f"friendships, k={pc.k}, r={pc.r} (Jaccard)")

    session = KRCoreSession(g)
    show(session, pc, "initial mine")

    # A new friendship inside block 0: its component is re-solved, the
    # other blocks come straight from the cache.
    block0 = sorted(pc.communities[0])
    u, v = block0[0], block0[5]
    if session.graph.has_edge(u, v):
        u, v = block0[1], block0[6]
    session.edit(add_edges=[(u, v)])
    show(session, pc, f"after add_edge({u}, {v})")

    # A friendship dissolves — degrees drop, the block's core may shrink.
    session.edit(remove_edges=[(block0[0], block0[1])])
    show(session, pc, f"after remove_edge({block0[0]}, {block0[1]})")

    # A user switches interests to block 1's topic: they leave their old
    # core (similarity broken) without any structural change.
    mover = block0[2]
    block1 = sorted(pc.communities[1])
    session.edit(attributes={mover: session.graph.attribute(block1[0])})
    show(session, pc, f"after user {mover} changes interests")

    # Nothing changed since the last query: every component is a cache hit.
    show(session, pc, "repeat query (no edits)")


if __name__ == "__main__":
    main()

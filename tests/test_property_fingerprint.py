"""Fingerprint v2: one bucketed hash for both graph forms, carried
through edits.

:func:`~repro.graph.fingerprint.csr_fingerprint` hashes binary edge and
attribute records bucket by bucket; :func:`~repro.graph.io.graph_fingerprint`
is the same hash of a dict graph's CSR freeze.  These properties pin
the two forms together, the carried digests (patched by each edit's
re-hash of one bucket) to a from-scratch build, and the digest to the
graph's content alone: not to ``PYTHONHASHSEED``, trailing isolated
vertices, or the number type of a point.
"""

import os
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph.csr import (
    CSRGraph,
    with_attribute,
    with_edge_added,
    with_edge_removed,
)
from repro.graph.fingerprint import BUCKET_WIDTH, csr_fingerprint, graph_digests
from repro.graph.io import graph_fingerprint
from repro.store import GraphStore, codec

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Vertex ids on both sides of the decimal digit and bucket boundaries.
BOUNDARY_IDS = sorted(
    {0, 1, 2, BUCKET_WIDTH - 1, BUCKET_WIDTH, 2 * BUCKET_WIDTH}
    | {b + d for b in (10, 100, 1000, 10000) for d in (-2, -1, 0, 1)}
)

words = st.text(alphabet="abcxyz ,=:é", min_size=0, max_size=4)
coordinates = st.floats(allow_nan=False, width=64) | st.integers(-10**6, 10**6)
attribute_values = st.one_of(
    st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
    st.tuples(st.integers(-999, 999), st.integers(-999, 999)),
    st.lists(coordinates, min_size=2, max_size=2),
    st.frozensets(words, max_size=4),
    st.sets(st.integers(0, 50) | words, max_size=4),
    st.dictionaries(words, st.integers(0, 9) | st.floats(0, 5), max_size=3),
)


@st.composite
def csr_graphs(draw):
    ids = draw(st.lists(st.sampled_from(BOUNDARY_IDS), max_size=12))
    n = (max(ids) + 1 if ids else 0) + draw(st.integers(0, 2))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=30,
    )) if ids else []
    edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    attributed = draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
    attributes = {u: draw(attribute_values) for u in attributed}
    return CSRGraph.from_edges(n, eu, ev, attributes)


def from_scratch(csr):
    """The fingerprint of ``csr``'s content, ignoring carried digests."""
    return csr_fingerprint(CSRGraph(csr.indptr, csr.indices, csr._attributes))


@SETTINGS
@given(csr_graphs())
def test_array_fingerprint_matches_dict_graph(csr):
    assert csr_fingerprint(csr) == graph_fingerprint(csr.to_attributed())


@SETTINGS
@given(st.integers(0, 1), st.none() | attribute_values)
def test_empty_and_single_vertex_graphs(n, value):
    attributes = {0: value} if n and value is not None else None
    empty = np.zeros(0, dtype=np.int64)
    csr = CSRGraph.from_edges(n, empty, empty, attributes)
    assert csr_fingerprint(csr) == graph_fingerprint(csr.to_attributed())


def test_million_id_boundary():
    # 999999 -> 1000000 -> 1000001: six- and seven-digit ids in one graph,
    # among mostly isolated vertices.
    edges = [(0, 9), (9, 10), (99, 999999), (999999, 1000000), (5, 1000001)]
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    attributes = {999999: (1.5, -2.0), 1000000: (3, 4), 10: frozenset({"a"})}
    csr = CSRGraph.from_edges(1000002, eu, ev, attributes)
    graph = csr.to_attributed()
    assert csr_fingerprint(csr) == graph_fingerprint(graph)


@st.composite
def graph_and_edit(draw):
    csr = draw(csr_graphs().filter(lambda g: g.vertex_count >= 2))
    n = csr.vertex_count
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
    kind = draw(st.sampled_from(["add", "remove", "attribute"]))
    value = draw(attribute_values)
    return csr, kind, u, v, value


def _apply(csr, kind, u, v, value):
    """``csr`` with one edit, and the edit that undoes it."""
    if kind == "attribute":
        old = csr._attributes
        undo = (
            (lambda g: with_attribute(g, u, old[u])) if u in old
            else (lambda g: CSRGraph(g.indptr, g.indices, old))
        )
        return with_attribute(csr, u, value), undo
    if csr.has_edge(u, v):
        return with_edge_removed(csr, u, v), lambda g: with_edge_added(g, u, v)
    return with_edge_added(csr, u, v), lambda g: with_edge_removed(g, u, v)


@SETTINGS
@given(graph_and_edit())
def test_edit_then_inverse_restores_the_digest(case):
    csr, kind, u, v, value = case
    before = csr_fingerprint(csr)  # the edits carry the digests from here
    edited, undo = _apply(csr, kind, u, v, value)
    assert edited._digests is not None
    assert csr_fingerprint(edited) == from_scratch(edited)
    restored = undo(edited)
    assert csr_fingerprint(restored) == before


def test_trailing_isolated_vertices_leave_the_digest_unchanged():
    eu, ev = np.array([0, 1]), np.array([1, 2])
    attributes = {0: frozenset({"a"}), 2: (1.0, 2.0)}
    base = CSRGraph.from_edges(3, eu, ev, attributes)
    for n in (4, BUCKET_WIDTH, BUCKET_WIDTH + 1, 5 * BUCKET_WIDTH):
        assert csr_fingerprint(CSRGraph.from_edges(n, eu, ev, attributes)) \
            == csr_fingerprint(base)


def test_integer_and_float_points_share_a_digest():
    empty = np.zeros(0, dtype=np.int64)
    ints = CSRGraph.from_edges(2, empty, empty, {1: (1, 2)})
    floats = CSRGraph.from_edges(2, empty, empty, {1: (1.0, 2.0)})
    assert csr_fingerprint(ints) == csr_fingerprint(floats)
    other = CSRGraph.from_edges(2, empty, empty, {1: (1.0, 2.5)})
    assert csr_fingerprint(other) != csr_fingerprint(floats)


def test_bucket_boundary_and_hub_edits_match_a_full_build():
    # A hub at the last vertex of bucket 0 with more than 64 neighbours
    # in later buckets, and edges crossing the 63/64 boundary both ways.
    n = 3 * BUCKET_WIDTH
    hub = BUCKET_WIDTH - 1
    edges = [(hub, v) for v in range(BUCKET_WIDTH, n)] + [(0, hub), (62, 64)]
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    attributes = {u: (float(u), -float(u)) for u in range(0, n, 3)}
    csr = CSRGraph.from_edges(n, eu, ev, attributes)
    csr_fingerprint(csr)
    steps = [
        lambda g: with_edge_removed(g, hub, BUCKET_WIDTH),
        lambda g: with_edge_added(g, BUCKET_WIDTH, hub),
        lambda g: with_edge_added(g, BUCKET_WIDTH, BUCKET_WIDTH + 1),
        lambda g: with_edge_removed(g, hub, n - 1),
        lambda g: with_edge_added(g, 62, 63),
        lambda g: with_attribute(g, BUCKET_WIDTH, frozenset({"x"})),
    ]
    for step in steps:
        csr = step(csr)
        assert csr._digests == graph_digests(
            CSRGraph(csr.indptr, csr.indices, csr._attributes)
        )
    assert csr.degree(hub) > BUCKET_WIDTH


def test_attribute_on_an_unattributed_vertex():
    eu, ev = np.array([0, 1]), np.array([1, 2])
    csr = CSRGraph.from_edges(70, eu, ev, {0: frozenset({"a"})})
    before = csr_fingerprint(csr)
    for u, value in ((69, (0.5, 0.25)), (1, frozenset({"b"})), (65, {"k": 2})):
        edited = with_attribute(csr, u, value)
        assert csr_fingerprint(edited) == from_scratch(edited) != before


def test_filtered_graphs_do_not_inherit_the_digests():
    eu, ev = np.array([0, 1]), np.array([1, 2])
    csr = CSRGraph.from_edges(3, eu, ev, {0: frozenset({"a"})})
    csr_fingerprint(csr)
    kept = csr.filter_edges(np.array([True, False]))
    assert kept._digests is None
    assert csr_fingerprint(kept) == from_scratch(kept) != csr_fingerprint(csr)
    induced = csr.filter_induced(np.array([True, True, False]), lambda e: e >= 0)
    assert induced._digests is None


def test_replayed_log_carries_the_digest_of_a_full_build(tmp_path):
    n = 2 * BUCKET_WIDTH + 5
    eu = np.arange(n - 1, dtype=np.int64)
    ev = eu + 1
    graph = CSRGraph.from_edges(
        n, eu, ev, {u: (u * 0.5, 1.0) for u in range(n)}
    )
    edits = [
        {"add_edges": [(0, BUCKET_WIDTH)], "remove_edges": [(5, 6)]},
        {"attributes": {BUCKET_WIDTH + 1: (9.0, 9.5)}},
        {"remove_edges": [(BUCKET_WIDTH - 1, BUCKET_WIDTH)]},
    ]
    with GraphStore(str(tmp_path / "store.db")) as store:
        store.save_graph("g", graph)
        live = store.load_graph("g")
        for edit in edits:
            for u, v in edit.get("add_edges", []):
                live = with_edge_added(live, u, v)
            for u, v in edit.get("remove_edges", []):
                live = with_edge_removed(live, u, v)
            for u, value in edit.get("attributes", {}).items():
                live = with_attribute(live, u, value)
            store.record_edit("g", codec.encode_edit(**edit), csr_fingerprint(live))
        back = store.load_graph("g")
    assert back._digests is not None
    assert back._digests == graph_digests(
        CSRGraph(back.indptr, back.indices, back._attributes)
    )
    assert csr_fingerprint(back) == from_scratch(back) == csr_fingerprint(live)


_HASH_SEED_SCRIPT = """
from repro.datasets.registry import load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import csr_fingerprint
from repro.graph.io import graph_fingerprint
for name in ("gowalla", "dblp"):
    g = load_dataset(name, scale=0.05, seed=3)
    print(name, graph_fingerprint(g), csr_fingerprint(CSRGraph.from_attributed(g)))
"""


def test_digests_equal_across_hash_seeds():
    # gowalla carries points, dblp keyword sets.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    rows = [line.split() for line in outputs[0].splitlines()]
    assert [row[0] for row in rows] == ["gowalla", "dblp"]
    assert all(row[1] == row[2] for row in rows)

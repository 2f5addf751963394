"""The array fingerprint is the dict-graph fingerprint, byte for byte.

:func:`~repro.graph.ingest.csr_fingerprint` writes the ``"e u v"`` edge
records as one vectorised byte buffer; the store checks every load with
it.  These properties pin it to :func:`~repro.graph.io.graph_fingerprint`
of the same graph in dict form across decimal digit boundaries of the
vertex ids, empty and single-vertex graphs, isolated vertices, and every
attribute kind the library handles.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.graph.csr import CSRGraph
from repro.graph.ingest import csr_fingerprint
from repro.graph.io import graph_fingerprint

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Vertex ids on both sides of the decimal digit boundaries.
BOUNDARY_IDS = sorted(
    {0, 1, 2}
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
    # 999999 -> 1000000 -> 1000001: six- and seven-digit ids in one record,
    # among mostly isolated vertices.
    edges = [(0, 9), (9, 10), (99, 999999), (999999, 1000000), (5, 1000001)]
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    attributes = {999999: (1.5, -2.0), 1000000: (3, 4), 10: frozenset({"a"})}
    csr = CSRGraph.from_edges(1000002, eu, ev, attributes)
    graph = csr.to_attributed()
    assert csr_fingerprint(csr) == graph_fingerprint(graph)

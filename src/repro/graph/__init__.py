"""Graph substrate: attributed graphs and the structural algorithms the
(k,r)-core solvers depend on.

Everything here is implemented from scratch (no external graph library):

* :class:`~repro.graph.attributed_graph.AttributedGraph` — the core store.
* :mod:`~repro.graph.csr` — the frozen CSR form plus the vectorised
  array kernels (peeling, components) behind the session's front end.
* :mod:`~repro.graph.kcore` — linear k-core peeling and full core
  decomposition (Batagelj & Zaversnik).
* :mod:`~repro.graph.components` — connected components.
* :mod:`~repro.graph.cliques` — Bron–Kerbosch maximal clique enumeration
  (substrate for the Clique+ baseline of Section 3).
* :mod:`~repro.graph.coloring` — greedy colouring (substrate for the colour
  upper bound of Section 6.2).
* :mod:`~repro.graph.io` — plain-text edge-list / attribute readers.
* :mod:`~repro.graph.fingerprint` — the content fingerprint the store
  and the daemon key graphs by.
"""

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder, from_edge_list
from repro.graph.csr import (
    CSRGraph,
    anchored_k_core_mask,
    component_labels,
    component_vertex_groups,
    core_numbers,
    k_core_mask,
)
from repro.graph.cliques import enumerate_maximal_cliques
from repro.graph.coloring import greedy_coloring, color_count
from repro.graph.components import (
    connected_components,
    is_connected,
    component_of,
)
from repro.graph.kcore import (
    core_decomposition,
    k_core_vertices,
    k_core_subgraph,
    max_core_number,
    anchored_k_core,
)
from repro.graph.fingerprint import csr_fingerprint
from repro.graph.ingest import (
    IngestStats,
    ingest_attributed_graph,
    ingest_edge_list,
)

__all__ = [
    "AttributedGraph",
    "CSRGraph",
    "GraphBuilder",
    "from_edge_list",
    "anchored_k_core_mask",
    "component_labels",
    "component_vertex_groups",
    "core_numbers",
    "k_core_mask",
    "enumerate_maximal_cliques",
    "greedy_coloring",
    "color_count",
    "connected_components",
    "is_connected",
    "component_of",
    "core_decomposition",
    "k_core_vertices",
    "k_core_subgraph",
    "max_core_number",
    "anchored_k_core",
    "IngestStats",
    "csr_fingerprint",
    "ingest_attributed_graph",
    "ingest_edge_list",
]

"""Stable fingerprint of every generated dataset's edges and attributes.

CI runs this twice under different ``PYTHONHASHSEED`` values and diffs
the output: dataset generation must be a pure function of its seed and
parameters, never of the interpreter's hash randomisation (the bug this
guards against was a set iteration inside the DBLP attribute generator
that consumed the rng in hash order).

The digests are fingerprint v2 (:mod:`repro.graph.fingerprint`): a
SHA-256 over per-bucket SHA-256 digests of binary edge and attribute
records — what the store checks every load with and the daemon returns
after every edit.  Each line carries two of them for the same graph:
``graph_fingerprint`` of the dict graph (its ``CSRGraph.from_attributed``
freeze, which sorts every adjacency set) and ``csr_fingerprint`` of a
CSR built from its edge array with ``CSRGraph.from_edges`` (the packed
key sort that ingest and the store's graphs go through).  They must be
equal; any mismatch is reported on stderr and the script exits 1.

Every graph is also written to a temporary directory with
``write_edge_list`` / ``write_attributes`` and read back with the
streaming ``ingest_attributed_graph``: every edge file and the point
files take the ingester's block path, set and counter files its line
parser.  A round trip whose fingerprint differs is reported on stderr
and exits 1 too; stdout does not change.

Coverage: the four Table 3 registry analogs *and* every adversarial
family of :mod:`repro.datasets.adversarial` — once at the family's
default parameters and once per sampled size class, so the fuzz
harness's instance space is fingerprinted too.

Usage::

    PYTHONPATH=src python scripts/dataset_fingerprint.py [--scale 0.5]
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.datasets.adversarial import FAMILIES, sample_instance
from repro.datasets.registry import DATASETS, load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import csr_fingerprint
from repro.graph.ingest import ingest_attributed_graph
from repro.graph.io import graph_fingerprint, write_attributes, write_edge_list


def attribute_kind(g):
    """The file format of ``g``'s attributes: point, set or counter."""
    for u in g.vertices():
        if g.has_attribute(u):
            value = g.attribute(u)
            if isinstance(value, tuple):
                return "point"
            return "counter" if isinstance(value, dict) else "set"
    return "set"


def round_trip_fingerprint(g):
    """``csr_fingerprint`` of ``g`` written to text files and ingested."""
    kind = attribute_kind(g)
    with tempfile.TemporaryDirectory() as tmp:
        edges, attrs = Path(tmp) / "edges.txt", Path(tmp) / "attrs.txt"
        write_edge_list(g, edges)
        write_attributes(g, attrs, kind)
        return csr_fingerprint(ingest_attributed_graph(edges, attrs, kind))


def edge_array_csr(g):
    """``g`` rebuilt as CSR from its edge array, not its adjacency sets."""
    edges = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    attributes = {u: g.attribute(u) for u in g.vertices() if g.has_attribute(u)}
    return CSRGraph.from_edges(
        g.vertex_count, edges[:, 0], edges[:, 1], attributes
    )


def fingerprints(g, mismatches, round_trips, label):
    """``"<dict digest> <array digest>"``; records a disagreement of
    either digest, or of the ingested round trip, with the dict one."""
    dict_fp = graph_fingerprint(g)
    array_fp = csr_fingerprint(edge_array_csr(g))
    if array_fp != dict_fp:
        mismatches.append(label)
    if round_trip_fingerprint(g) != dict_fp:
        round_trips.append(label)
    return f"{dict_fp} {array_fp}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    mismatches, round_trips = [], []
    for name in sorted(DATASETS):
        g = load_dataset(name, scale=args.scale, seed=args.seed)
        print(f"{name} {g.vertex_count} {g.edge_count} "
              f"{fingerprints(g, mismatches, round_trips, name)}")

    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        inst = family.build()
        g = inst.graph
        label = f"adversarial/{name}"
        print(
            f"{label} {g.vertex_count} {g.edge_count} "
            f"k={inst.k} r={inst.r:.6f} {fingerprints(g, mismatches, round_trips, label)}"
        )
        for size in sorted(family.samplers):
            inst = sample_instance(name, random.Random(args.seed), size)
            g = inst.graph
            label = f"adversarial/{name}/{size}"
            print(
                f"{label} {g.vertex_count} {g.edge_count} "
                f"k={inst.k} r={inst.r:.6f} {fingerprints(g, mismatches, round_trips, label)}"
            )
    if mismatches:
        print(f"array fingerprint differs from graph_fingerprint on: "
              f"{', '.join(mismatches)}", file=sys.stderr)
    if round_trips:
        print(f"ingested round trip differs from graph_fingerprint on: "
              f"{', '.join(round_trips)}", file=sys.stderr)
    return 1 if mismatches or round_trips else 0


if __name__ == "__main__":
    sys.exit(main())

"""Stable fingerprint of every generated dataset's edges and attributes.

CI runs this twice under different ``PYTHONHASHSEED`` values and diffs
the output: dataset generation must be a pure function of its seed and
parameters, never of the interpreter's hash randomisation (the bug this
guards against was a set iteration inside the DBLP attribute generator
that consumed the rng in hash order).

Each line carries two digests of the same graph: ``graph_fingerprint``
of the dict graph and the array ``csr_fingerprint`` of its CSR form
(what the store checks every load with).  They must be equal; any
mismatch is reported on stderr and the script exits 1.

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

from repro.datasets.adversarial import FAMILIES, sample_instance
from repro.datasets.registry import DATASETS, load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.ingest import csr_fingerprint
from repro.graph.io import graph_fingerprint


def fingerprints(g, mismatches, label):
    """``"<dict digest> <array digest>"``; records a disagreement."""
    dict_fp = graph_fingerprint(g)
    array_fp = csr_fingerprint(CSRGraph.from_attributed(g))
    if array_fp != dict_fp:
        mismatches.append(label)
    return f"{dict_fp} {array_fp}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    mismatches = []
    for name in sorted(DATASETS):
        g = load_dataset(name, scale=args.scale, seed=args.seed)
        print(f"{name} {g.vertex_count} {g.edge_count} "
              f"{fingerprints(g, mismatches, name)}")

    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        inst = family.build()
        g = inst.graph
        label = f"adversarial/{name}"
        print(
            f"{label} {g.vertex_count} {g.edge_count} "
            f"k={inst.k} r={inst.r:.6f} {fingerprints(g, mismatches, label)}"
        )
        for size in sorted(family.samplers):
            inst = sample_instance(name, random.Random(args.seed), size)
            g = inst.graph
            label = f"adversarial/{name}/{size}"
            print(
                f"{label} {g.vertex_count} {g.edge_count} "
                f"k={inst.k} r={inst.r:.6f} {fingerprints(g, mismatches, label)}"
            )
    if mismatches:
        print(f"array fingerprint differs from graph_fingerprint on: "
              f"{', '.join(mismatches)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

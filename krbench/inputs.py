"""Seeded input generation for the benchmark workloads.

The program under test only ever sees the files written here.  Run as a
script to generate a geo-social graph in a separate process, so that the
generator's memory does not count toward the workload's peak:

    python3 krbench/inputs.py geo --n 180000 --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
from pathlib import Path
from typing import Tuple

from common import child_env, import_program

EDGES = "edges.txt"
POINTS = "points.txt"
KEYWORDS = "keywords.txt"


def onion_instance(seed: int, out: Path, **params) -> Tuple[int, float, dict]:
    """Write one ``onion`` instance (the family's defaults unless ``params``).

    The construction is deterministic, so the seed renames every keyword
    token to a seeded random string: each seed is a different input with
    the same Jaccard structure, hence the same answers and the same
    search tree.  Returns ``(k, r, expected)`` where ``expected`` holds
    the answer the construction guarantees: ``options ** layers`` maximal
    cores, each of ``layers * group`` vertices.
    """
    from repro.datasets.adversarial import build_instance
    from repro.graph.io import write_attributes, write_edge_list

    instance = build_instance("onion", **params)
    graph = instance.graph
    rng = random.Random(seed)
    names = {}
    for u in graph.vertices():
        renamed = set()
        for token in sorted(graph.attribute(u)):
            if token not in names:
                names[token] = f"t{rng.getrandbits(48):012x}"
            renamed.add(names[token])
        graph.set_attribute(u, frozenset(renamed))
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, out / EDGES)
    write_attributes(graph, out / KEYWORDS, "set")
    p = instance.params
    expected = {
        "count": p["options"] ** p["layers"],
        "size": p["layers"] * p["group"],
    }
    return instance.k, instance.r, expected


def geo_files(n: int, seed: int, out: Path) -> int:
    """Write a geo-social graph (edge list + planar points in km)."""
    from repro.datasets.geosocial import geosocial_network
    from repro.graph.io import write_attributes, write_edge_list

    graph = geosocial_network(n, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, out / EDGES)
    write_attributes(graph, out / POINTS, "point")
    return graph.edge_count


def geo_files_fresh_process(n: int, seed: int, out: Path) -> int:
    """:func:`geo_files` in a child process; returns the edge count."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "geo",
         "--n", str(n), "--seed", str(seed), "--out", str(out)],
        env=child_env(), capture_output=True, text=True, timeout=170,
        check=True,
    )
    return int(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="kind", required=True)
    geo = sub.add_parser("geo")
    geo.add_argument("--n", type=int, required=True)
    geo.add_argument("--seed", type=int, required=True)
    geo.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import_program()
    print(geo_files(args.n, args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

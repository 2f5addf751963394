"""Command-line interface for the (k,r)-core library.

Usage::

    python -m repro mine --dataset gowalla --k 5 --km 20
    python -m repro maximum --dataset dblp --k 5 --permille 3
    python -m repro stats --dataset dblp --k 5 --permille 3
    python -m repro stats --dataset dblp --ks 4 5 6 --permille 3
    python -m repro sweep --dataset dblp --ks 4 5 --rs 0.2 0.3 0.4
    python -m repro mine --edges edges.txt --attrs attrs.txt \\
        --attr-kind set --metric jaccard --k 3 --r 0.5
    python -m repro datasets
    python -m repro store add demo --db graphs.db --dataset dblp
    python -m repro store warm demo --db graphs.db --ks 3 4 --rs 0.2 0.3
    python -m repro store list --db graphs.db
    python -m repro serve --db graphs.db --port 8321

Graphs come either from the named synthetic analogs (``--dataset``) or
from edge-list + attribute files in the formats of
:mod:`repro.graph.io` (``--edges``/``--attrs``/``--attr-kind``).

``stats`` and ``sweep`` accept *lists* of k and r values (``--ks`` /
``--rs``); those grids run on one prepared
:class:`~repro.core.session.KRCoreSession`, so the preprocessing is paid
once, not once per grid point.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.core.api import (
    enumerate_maximal_krcores,
    find_maximum_krcore,
    krcore_statistics,
)
from repro.core.config import EXECUTORS
from repro.core.session import KRCoreSession
from repro.datasets.registry import (
    DATASETS,
    dataset_statistics,
    default_predicate,
    load_dataset,
)
from repro.exceptions import ReproError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.io import read_attributed_graph
from repro.similarity.threshold import (
    SimilarityPredicate,
    top_permille_threshold,
)


def _execution_parent() -> argparse.ArgumentParser:
    """Shared ``--backend``/``--executor``/... flags of every solving command.

    One argparse *parent* instead of per-subcommand copies, so
    ``mine``/``maximum``/``stats``/``sweep``/``store``/``serve`` cannot
    drift apart — the flags mirror the fields of
    :class:`~repro.core.config.ExecutionPlan` one-for-one.
    """
    parent = argparse.ArgumentParser(add_help=False)
    ex = parent.add_argument_group("execution")
    ex.add_argument("--backend", choices=("csr", "python"), default=None,
                    help="search engine: the bitset engines (default) or "
                         "the set-based python reference; preprocessing is "
                         "the same CSR pipeline on both")
    ex.add_argument("--executor", choices=EXECUTORS, default=None,
                    help="execution plan: in-process serial (default) or "
                         "a process pool with pickled components (results "
                         "identical on both)")
    ex.add_argument("--workers", type=int, default=None, metavar="N",
                    help="pool width for the process executor "
                         "(needs --executor process)")
    ex.add_argument("--split-depth", type=int, default=None, metavar="D",
                    help="split each component's branch tree at depth D "
                         "into independent subtree tasks (0 = whole "
                         "components, the default; results identical)")
    return parent


def _add_graph_args(p: argparse.ArgumentParser, require_k: bool = True) -> None:
    src = p.add_argument_group("graph source")
    src.add_argument("--dataset", choices=sorted(DATASETS),
                     help="named synthetic analog")
    src.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale factor (named analogs only)")
    src.add_argument("--seed", type=int, default=7,
                     help="dataset generation seed")
    src.add_argument("--edges", help="edge-list file (u v per line)")
    src.add_argument("--attrs", help="attribute file")
    src.add_argument(
        "--attr-kind", choices=("point", "set", "counter"),
        help="attribute file format (required with --attrs)",
    )

    sim = p.add_argument_group("similarity")
    sim.add_argument("--metric", default=None,
                     help="metric name (file graphs; inferred for analogs)")
    sim.add_argument("--r", type=float, default=None,
                     help="raw similarity/distance threshold")
    sim.add_argument("--km", type=float, default=None,
                     help="distance threshold in km (geo datasets)")
    sim.add_argument("--permille", type=float, default=None,
                     help="top-x permille threshold (keyword datasets)")

    p.add_argument("--k", type=int, required=require_k, help="degree threshold")
    p.add_argument("--algorithm", default="advanced",
                   help="algorithm preset (see README)")
    p.add_argument("--time-limit", type=float, default=None,
                   help="seconds before the solver stops with partial results")
    p.add_argument("--max-print", type=int, default=10,
                   help="cores to print (mine command)")


def _load_graph(args) -> Tuple[AttributedGraph, SimilarityPredicate]:
    if args.dataset and args.edges:
        raise ReproError("pass either --dataset or --edges, not both")
    if args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        if args.r is not None:
            metric = args.metric or DATASETS[args.dataset].metric
            return graph, SimilarityPredicate(metric, args.r)
        pred = default_predicate(
            args.dataset, graph, km=args.km, permille=args.permille,
        )
        return graph, pred
    if not args.edges or not args.attrs or not args.attr_kind:
        raise ReproError(
            "file graphs need --edges, --attrs and --attr-kind"
        )
    graph = read_attributed_graph(args.edges, args.attrs, args.attr_kind)
    metric = args.metric or {
        "point": "euclidean", "set": "jaccard", "counter": "weighted_jaccard",
    }[args.attr_kind]
    if args.r is not None:
        return graph, SimilarityPredicate(metric, args.r)
    if args.permille is not None:
        r = top_permille_threshold(graph, metric, args.permille)
        return graph, SimilarityPredicate(metric, r)
    if args.km is not None:
        return graph, SimilarityPredicate(metric, args.km)
    raise ReproError("pass a threshold: --r, --km or --permille")


def _executor_overrides(args) -> dict:
    """Fold the execution flags into one ``plan=`` kwarg (or none)."""
    plan = {
        name: value
        for name, value in (
            ("executor", args.executor),
            ("workers", args.workers),
            ("split_depth", args.split_depth),
        )
        if value is not None
    }
    return {"plan": plan} if plan else {}


def _cmd_mine(args) -> int:
    graph, pred = _load_graph(args)
    if args.top is not None:
        session = KRCoreSession(graph, backend=args.backend, copy=False)
        outcome, stats = session.top_cores(
            args.k, predicate=pred, t=args.top, algorithm=args.algorithm,
            time_limit=args.time_limit, with_stats=True,
            **_executor_overrides(args),
        )
        print(f"top {outcome.t} of {outcome.total_found} maximal "
              f"({args.k},{pred.r:g})-cores [{outcome.status}, "
              f"{stats.elapsed:.2f}s, {stats.nodes} nodes]")
        for core in outcome.cores:
            names = sorted(graph.label(u) for u in core)
            shown = ", ".join(names[:12]) + (", ..." if len(names) > 12 else "")
            print(f"  size {core.size:4d}: {shown}")
        return 0
    cores, stats = enumerate_maximal_krcores(
        graph, args.k, predicate=pred, algorithm=args.algorithm,
        backend=args.backend, time_limit=args.time_limit, with_stats=True,
        **_executor_overrides(args),
    )
    print(f"maximal ({args.k},{pred.r:g})-cores: {len(cores)} "
          f"[{stats.elapsed:.2f}s, {stats.nodes} nodes]")
    for core in cores[: args.max_print]:
        names = sorted(graph.label(u) for u in core)
        shown = ", ".join(names[:12]) + (", ..." if len(names) > 12 else "")
        print(f"  size {core.size:4d}: {shown}")
    if len(cores) > args.max_print:
        print(f"  ... and {len(cores) - args.max_print} more")
    return 0


def _cmd_maximum(args) -> int:
    graph, pred = _load_graph(args)
    if args.mode is not None and args.mode != "exact":
        session = KRCoreSession(graph, backend=args.backend, copy=False)
        outcome, stats = session.maximum_outcome(
            args.k, predicate=pred, mode=args.mode,
            algorithm=args.algorithm, time_limit=args.time_limit,
            node_limit=args.node_limit, with_stats=True,
            **_executor_overrides(args),
        )
        if outcome.core is None:
            print(f"no ({args.k},{pred.r:g})-core found "
                  f"[{outcome.status}, upper bound {outcome.upper_bound}, "
                  f"{stats.elapsed:.2f}s, {stats.nodes} nodes]")
            return 0
        names = sorted(graph.label(u) for u in outcome.core)
        shown = ", ".join(names[:15]) + (", ..." if len(names) > 15 else "")
        print(f"{args.mode} ({args.k},{pred.r:g})-core: "
              f"{outcome.size} vertices [{outcome.status}, "
              f"gap <= {outcome.gap}, {stats.elapsed:.2f}s, "
              f"{stats.nodes} nodes]")
        print(f"  {shown}")
        return 0
    best, stats = find_maximum_krcore(
        graph, args.k, predicate=pred, algorithm=args.algorithm,
        backend=args.backend, time_limit=args.time_limit, with_stats=True,
        **_executor_overrides(args),
    )
    if best is None:
        print(f"no ({args.k},{pred.r:g})-core exists "
              f"[{stats.elapsed:.2f}s, {stats.nodes} nodes]")
        return 0
    names = sorted(graph.label(u) for u in best)
    shown = ", ".join(names[:15]) + (", ..." if len(names) > 15 else "")
    print(f"maximum ({args.k},{pred.r:g})-core: {best.size} vertices "
          f"[{stats.elapsed:.2f}s, {stats.nodes} nodes, "
          f"{stats.bound_pruned} bound prunes]")
    print(f"  {shown}")
    return 0


def _cmd_stats(args) -> int:
    ks = getattr(args, "ks", None)
    rs = getattr(args, "rs", None)
    if ks or rs:
        if not ks:
            if args.k is None:
                raise ReproError("pass --k or --ks")
            ks = [args.k]
        return _print_sweep(args, ks, rs)
    if args.k is None:
        raise ReproError("pass --k (or --ks for a grid)")
    graph, pred = _load_graph(args)
    stats = krcore_statistics(
        graph, args.k, predicate=pred, algorithm=args.algorithm,
        backend=args.backend, time_limit=args.time_limit,
        **_executor_overrides(args),
    )
    print(f"count={stats['count']} max_size={stats['max_size']} "
          f"avg_size={stats['avg_size']:.2f}")
    return 0


def _cmd_sweep(args) -> int:
    return _print_sweep(args, args.ks, args.rs)


def _print_sweep(args, ks: List[int], rs: Optional[List[float]]) -> int:
    """Run a k × r statistics grid on one prepared session and print it."""
    if rs and args.r is None and args.km is None and args.permille is None:
        # The grid thresholds stand in for the usual single threshold.
        args.r = rs[0]
    graph, pred = _load_graph(args)
    rs = list(rs) if rs else [pred.r]
    session = KRCoreSession(graph, backend=args.backend, copy=False)
    rows, stats = session.sweep(
        ks, rs, predicate=pred, algorithm=args.algorithm,
        time_limit=args.time_limit, with_stats=True,
        **_executor_overrides(args),
    )
    for row in rows:
        print(f"k={row['k']} r={row['r']:g} count={row['count']} "
              f"max_size={row['max_size']} avg_size={row['avg_size']:.2f}")
    solves = stats.cache_hits + stats.cache_misses
    print(f"session reuse: {stats.cache_hits}/{solves} component results "
          f"from cache, {stats.reused_filters} filtered graphs, "
          f"{stats.seeded_peels} seeded peels, "
          f"{stats.threshold_seeds} threshold seeds [{stats.elapsed:.2f}s]")
    return 0


def _load_graph_only(args) -> AttributedGraph:
    """Resolve just the graph from the source args (no threshold needed)."""
    if args.dataset and args.edges:
        raise ReproError("pass either --dataset or --edges, not both")
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not args.edges or not args.attrs or not args.attr_kind:
        raise ReproError("file graphs need --edges, --attrs and --attr-kind")
    return read_attributed_graph(args.edges, args.attrs, args.attr_kind)


def _cmd_store(args) -> int:
    from repro.store import GraphStore

    if args.action != "list" and not args.name:
        raise ReproError(f"store {args.action} needs a graph name")
    with GraphStore(args.db) as store:
        if args.action == "fetch":
            from repro.datasets.remote import (
                REMOTE_DATASETS,
                RemoteDataset,
                fetch_dataset,
            )

            if args.remote:
                spec = args.remote
            elif args.edges_url:
                spec = RemoteDataset(
                    name=args.name,
                    edges_url=args.edges_url,
                    attrs_url=args.attrs_url,
                    attr_kind=args.attr_kind,
                )
            elif args.name in REMOTE_DATASETS:
                spec = args.name
            else:
                raise ReproError(
                    "store fetch needs --remote NAME or --edges-url URL "
                    "(or a graph name matching a registered remote dataset)"
                )
            csr, ingest_stats = fetch_dataset(
                spec,
                cache_dir=args.cache_dir,
                memory_limit_mb=args.memory_limit_mb,
                refresh=args.refresh,
                with_stats=True,
            )
            fp = store.save_csr_graph(args.name, csr)
            print(f"fetched {args.name!r}: n={csr.vertex_count} "
                  f"m={csr.edge_count} fingerprint={fp[:16]}… "
                  f"(peak ingest buffers "
                  f"{ingest_stats.peak_buffer_bytes} bytes, "
                  f"{ingest_stats.self_loops_dropped} self loops / "
                  f"{ingest_stats.duplicates_dropped} duplicates dropped)")
            return 0
        if args.action == "add":
            graph = _load_graph_only(args)
            fp = store.save_graph(args.name, graph)
            print(f"stored {args.name!r}: n={graph.vertex_count} "
                  f"m={graph.edge_count} fingerprint={fp[:16]}…")
            return 0
        if args.action == "list":
            for row in store.list_graphs():
                print(f"{row['name']:<16} n={row['n']:<8} m={row['m']:<9} "
                      f"fingerprint={row['fingerprint'][:16]}…")
            return 0
        if args.action == "info":
            rows = [r for r in store.list_graphs() if r["name"] == args.name]
            if not rows:
                raise ReproError(f"no stored graph named {args.name!r}")
            row = rows[0]
            print(f"name={row['name']} n={row['n']} m={row['m']}")
            print(f"fingerprint={row['fingerprint']}")
            print(f"cached results={store.result_count(args.name)} "
                  f"edits={len(store.edit_log(args.name))}")
            return 0
        if args.action == "delete":
            store.delete_graph(args.name)
            print(f"deleted {args.name!r}")
            return 0
        # warm: run a sweep through a session and persist the warm state
        session = KRCoreSession.load(
            store, args.name, metric=args.metric, backend=args.backend,
        )
        rows, stats = session.sweep(
            args.ks, args.rs, time_limit=args.time_limit,
            with_stats=True, **_executor_overrides(args),
        )
        fp = session.save(store, args.name)
        solves = stats.cache_hits + stats.cache_misses
        print(f"warmed {args.name!r}: {len(rows)} grid points, "
              f"{solves} component solves ({stats.cache_hits} cached), "
              f"{store.result_count(args.name)} results stored "
              f"[{stats.elapsed:.2f}s]")
        return 0


def _cmd_serve(args) -> int:
    import signal

    from repro.serve import KRCoreService, make_server, run_server
    from repro.store import GraphStore

    store = GraphStore(args.db)
    service = KRCoreService(
        store,
        backend=args.backend,
        metric=args.metric,
        **_executor_overrides(args),
    )
    server = make_server(
        service, host=args.host, port=args.port, verbose=args.verbose,
    )
    host, port = server.server_address[:2]
    names = [row["name"] for row in store.list_graphs()]
    print(f"serving {len(names)} stored graph(s) {names} "
          f"on http://{host}:{port} (Ctrl-C to stop)")

    def _stop(signum, frame):
        server.stop()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    run_server(server)
    print("flushed and stopped")
    return 0


def _cmd_bench(args) -> int:
    # Both harnesses own their argparse surface; forward verbatim so
    # `repro bench trajectory --smoke` and the scripts/ entry points
    # stay one option set.
    if args.harness == "trajectory":
        from repro.bench.trajectory_cli import main as trajectory_main

        return trajectory_main(args.rest)
    from repro.bench.cli import main as figures_main

    return figures_main(args.rest)


def _cmd_datasets(_args) -> int:
    header = (f"{'dataset':<11} {'nodes':>7} {'edges':>8} {'davg':>6} "
              f"{'dmax':>5}   paper(nodes/edges/davg)")
    print(header)
    for name in sorted(DATASETS):
        row = dataset_statistics(name)
        print(f"{row['dataset']:<11} {row['nodes']:>7} {row['edges']:>8} "
              f"{row['davg']:>6} {row['dmax']:>5}   "
              f"{row['paper_nodes']}/{row['paper_edges']}/{row['paper_davg']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(k,r)-core mining on attributed social networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()

    p_mine = sub.add_parser("mine", help="enumerate all maximal (k,r)-cores",
                            parents=[execution])
    _add_graph_args(p_mine)
    p_mine.add_argument("--top", type=int, default=None, metavar="T",
                        help="report only the T largest cores "
                             "(budget-tolerant: a tripped --time-limit "
                             "ranks what was found instead of failing)")
    p_mine.set_defaults(fn=_cmd_mine)

    p_max = sub.add_parser("maximum", help="find the maximum (k,r)-core",
                           parents=[execution])
    _add_graph_args(p_max)
    p_max.add_argument("--mode", choices=("exact", "anytime", "heuristic"),
                       default=None,
                       help="query mode: exact search (default), anytime "
                            "(best incumbent + bound gap on budget trip), "
                            "or the greedy heuristic fast path")
    p_max.add_argument("--node-limit", type=int, default=None,
                       help="search-tree node budget")
    p_max.set_defaults(fn=_cmd_maximum)

    p_stats = sub.add_parser("stats", help="count/max/avg of maximal cores",
                             parents=[execution])
    _add_graph_args(p_stats, require_k=False)
    p_stats.add_argument("--ks", type=int, nargs="+", default=None,
                         help="several k values (grid mode, one session)")
    p_stats.add_argument("--rs", type=float, nargs="+", default=None,
                         help="several r thresholds (grid mode, one session)")
    p_stats.set_defaults(fn=_cmd_stats)

    p_sweep = sub.add_parser(
        "sweep",
        help="statistics over a k x r grid on one prepared session",
        parents=[execution],
    )
    _add_graph_args(p_sweep, require_k=False)
    p_sweep.add_argument("--ks", type=int, nargs="+", required=True,
                         help="k values of the grid")
    p_sweep.add_argument("--rs", type=float, nargs="+", default=None,
                         help="r thresholds of the grid (default: the "
                              "single resolved threshold)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_ds = sub.add_parser("datasets", help="list the named synthetic analogs")
    p_ds.set_defaults(fn=_cmd_datasets)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark harnesses: 'trajectory' (continuous regression "
             "gate) or 'figures' (paper tables/figures)",
    )
    p_bench.add_argument("harness", choices=("trajectory", "figures"))
    p_bench.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="arguments forwarded to the harness (try 'trajectory --list')",
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_store = sub.add_parser(
        "store", help="manage the persistent graph store (sqlite)",
        parents=[execution],
    )
    p_store.add_argument(
        "action", choices=("add", "fetch", "list", "info", "delete", "warm"),
    )
    p_store.add_argument("name", nargs="?", default=None,
                         help="graph name (all actions except list)")
    p_store.add_argument("--db", required=True, help="store database path")
    fetch = p_store.add_argument_group("remote fetch (fetch)")
    fetch.add_argument("--remote", default=None,
                       help="registered remote dataset name "
                            "(see repro.datasets.remote)")
    fetch.add_argument("--edges-url", default=None,
                       help="ad-hoc edge-list URL (http(s):// or file://)")
    fetch.add_argument("--attrs-url", default=None,
                       help="ad-hoc attribute-file URL")
    fetch.add_argument("--cache-dir", default=None,
                       help="download cache (default "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-krcore)")
    fetch.add_argument("--memory-limit-mb", type=float, default=None,
                       help="ingest memory ceiling in MB")
    fetch.add_argument("--refresh", action="store_true",
                       help="re-download even when cached (pin still "
                            "verified)")
    src = p_store.add_argument_group("graph source (add)")
    src.add_argument("--dataset", choices=sorted(DATASETS))
    src.add_argument("--scale", type=float, default=1.0)
    src.add_argument("--seed", type=int, default=7)
    src.add_argument("--edges", help="edge-list file")
    src.add_argument("--attrs", help="attribute file")
    src.add_argument("--attr-kind", choices=("point", "set", "counter"))
    warm = p_store.add_argument_group("warm sweep (warm)")
    warm.add_argument("--ks", type=int, nargs="+", default=[3])
    warm.add_argument("--rs", type=float, nargs="+", default=[0.5])
    warm.add_argument("--metric", default="jaccard",
                      help="similarity metric for the warm sweep")
    warm.add_argument("--time-limit", type=float, default=None)
    p_store.set_defaults(fn=_cmd_store)

    p_serve = sub.add_parser(
        "serve", help="run the JSON/HTTP query daemon over a store",
        parents=[execution],
    )
    p_serve.add_argument("--db", required=True, help="store database path")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    p_serve.add_argument("--metric", default="jaccard",
                         help="default session metric")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.executor is None:
        parser.error("--workers needs --executor process")
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Timed solver runners and reporting helpers.

The paper caps every run at one hour and reports ``INF`` when an
algorithm does not finish; this harness does the same with a much smaller
default cap (pure Python, scaled datasets).  Every runner returns a
:class:`RunRecord` carrying the wall-clock time, the INF flag, and the
solver's deterministic work counters so a series can be compared on
search-tree size as well as seconds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import SearchConfig
from repro.core.session import KRCoreSession
from repro.exceptions import SearchBudgetExceeded
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate

#: Display marker for runs that exceeded the time cap (paper convention).
INF = float("inf")

DEFAULT_TIME_CAP = 30.0


@dataclass
class RunRecord:
    """Outcome of one timed solver run."""

    label: str
    seconds: float
    timed_out: bool
    cores: int = 0          # maximal cores found (enumeration)
    max_size: int = 0       # largest core size seen
    avg_size: float = 0.0   # mean core size (enumeration)
    nodes: int = 0          # search-tree nodes
    check_nodes: int = 0    # maximal-check nodes
    bound_calls: int = 0    # tight-bound evaluations

    @property
    def display_seconds(self) -> float:
        """Seconds, or INF when the cap was hit."""
        return INF if self.timed_out else self.seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "seconds": None if self.timed_out else round(self.seconds, 4),
            "timed_out": self.timed_out,
            "cores": self.cores,
            "max_size": self.max_size,
            "avg_size": round(self.avg_size, 2),
            "nodes": self.nodes,
            "check_nodes": self.check_nodes,
            "bound_calls": self.bound_calls,
        }


def _run_capped(query, algorithm: Union[str, SearchConfig], time_cap, **kwargs):
    """(result, stats) of one session query, partial when the cap trips."""
    if isinstance(algorithm, SearchConfig):
        kwargs["config"] = algorithm
    else:
        kwargs["algorithm"] = algorithm
    try:
        return query(time_limit=time_cap, with_stats=True, **kwargs)
    except SearchBudgetExceeded as exc:
        return exc.partial


def run_enum_timed(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
    algorithm: Union[str, SearchConfig],
    label: Optional[str] = None,
    time_cap: float = DEFAULT_TIME_CAP,
) -> RunRecord:
    """Run a maximal-core enumeration under a time cap."""
    session = KRCoreSession(graph, copy=False)
    start = time.monotonic()
    cores, stats = _run_capped(
        session.enumerate, algorithm, time_cap, k=k, predicate=predicate,
    )
    elapsed = time.monotonic() - start
    sizes = [c.size for c in cores]
    return RunRecord(
        label=label or str(algorithm),
        seconds=elapsed,
        timed_out=stats.timed_out,
        cores=len(cores),
        max_size=max(sizes, default=0),
        avg_size=(sum(sizes) / len(sizes)) if sizes else 0.0,
        nodes=stats.nodes,
        check_nodes=stats.check_nodes,
        bound_calls=stats.bound_calls,
    )


def run_max_timed(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
    algorithm: Union[str, SearchConfig],
    label: Optional[str] = None,
    time_cap: float = DEFAULT_TIME_CAP,
) -> RunRecord:
    """Run a maximum-core search under a time cap."""
    session = KRCoreSession(graph, copy=False)
    start = time.monotonic()
    core, stats = _run_capped(
        session.maximum, algorithm, time_cap, k=k, predicate=predicate,
    )
    elapsed = time.monotonic() - start
    size = core.size if core else 0
    return RunRecord(
        label=label or str(algorithm),
        seconds=elapsed,
        timed_out=stats.timed_out,
        cores=1 if core else 0,
        max_size=size,
        avg_size=float(size),
        nodes=stats.nodes,
        check_nodes=stats.check_nodes,
        bound_calls=stats.bound_calls,
    )


def format_seconds(value: float) -> str:
    """Human form of a timing cell (the paper's INF convention)."""
    if value == INF:
        return "INF"
    if value < 0.01:
        return f"{value * 1000:.1f}ms"
    return f"{value:.2f}s"


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width text table (benchmark CLI output)."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered: List[List[str]] = []
    for row in rows:
        line = []
        for col in cols:
            value = row.get(col, "")
            if isinstance(value, float):
                if value == INF:
                    line.append("INF")
                elif col.endswith("seconds") or col.endswith("time"):
                    line.append(format_seconds(value))
                else:
                    line.append(f"{value:.2f}")
            else:
                line.append(str(value))
        rendered.append(line)
    widths = [
        max(len(cols[i]), max(len(r[i]) for r in rendered))
        for i in range(len(cols))
    ]
    out: List[str] = []
    if title:
        out.append(f"== {title} ==")
    out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cols)))
    out.append("  ".join("-" * w for w in widths))
    for line in rendered:
        out.append("  ".join(line[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(out)


def dump_json(rows: Sequence[Dict[str, object]], path: str) -> None:
    """Write experiment rows to a JSON file (INF becomes null)."""

    def _clean(value):
        if isinstance(value, float) and value == INF:
            return None
        return value

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [{k: _clean(v) for k, v in row.items()} for row in rows],
            fh,
            indent=2,
        )

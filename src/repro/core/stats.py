"""Search statistics collected by every solver run.

The ablation figures (9, 12, 13, 14) compare how much work each technique
saves; wall-clock time is noisy in Python, so the harness also reports
these deterministic counters (search-tree nodes, prunes by rule).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class SearchStats:
    """Counters for one solver invocation (all components together)."""

    nodes: int = 0                 # search-tree nodes entered
    check_nodes: int = 0           # nodes inside maximal-check sub-searches
    similarity_pruned: int = 0     # vertices dropped by Theorem 3
    structure_pruned: int = 0      # vertices dropped by Theorem 2 peeling
    connectivity_pruned: int = 0   # vertices dropped by the M-component rule
    retained: int = 0              # SF(C) vertices never branched on (Thm 4)
    moved_similarity_free: int = 0 # Remark 1 direct moves C -> M
    early_term_i: int = 0          # subtrees cut by Theorem 5 (i)
    early_term_ii: int = 0         # subtrees cut by Theorem 5 (ii)
    bound_pruned: int = 0          # subtrees cut by the size upper bound
    bound_calls: int = 0           # tight-bound evaluations (Alg 6 / colour)
    dead_branches: int = 0         # branches killed (M vertex lost / M split)
    cores_emitted: int = 0         # candidate cores reaching the emit step
    maximal_checks: int = 0        # Theorem 6 checks run
    components: int = 0            # k-core components searched
    # --- session cache / preprocess-reuse counters (all zero for one-shot
    # runs; see repro.core.session.KRCoreSession) -----------------------
    cache_hits: int = 0            # per-component solver results served from cache
    cache_misses: int = 0          # components solved by a fresh engine run
    reused_preprocess: int = 0     # full per-(k, r) component preparations reused
    reused_filters: int = 0        # (metric, r) filtered graphs served from cache
    seeded_peels: int = 0          # k-core peels warm-started from a cached
                                   # core at a smaller k or looser r
    threshold_seeds: int = 0       # filtered graphs built inside a cached
                                   # looser-threshold core, not the graph
    shared_bound: int = 0          # size of the best core a branch-split
                                   # search ended with (0 unless split
                                   # subtrees ran)
    elapsed: float = 0.0           # wall-clock seconds
    timed_out: bool = False        # a budget cap was hit (results partial)

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another run's counters into this one.

        Every int field is a count and adds up, except ``shared_bound``:
        the split incumbent size is a high-water mark.  ``elapsed``
        adds up and ``timed_out`` is sticky.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "shared_bound":
                value = max(mine, theirs)
            elif f.name == "timed_out":
                value = mine or theirs
            else:
                value = mine + theirs
            setattr(self, f.name, value)

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict view for JSON reporting (one key per field)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

"""Solver configuration and the named algorithm presets of Table 2.

Every technique of the paper is a flag here, so the benchmark ablations
(Figures 9–14) flip exactly one thing at a time on the same engine:

* ``retain_candidates``  — Theorem 4 (SF(C) never branched on);
* ``move_similarity_free`` — Remark 1 (SF vertices with k neighbours in M
  jump straight into M);
* ``early_termination``  — Theorem 5 (i)/(ii);
* ``maximal_check``      — ``"search"`` (Theorem 6 / Algorithm 4) or
  ``"pairwise"`` (Algorithm 1's collect-then-filter);
* ``bound``              — ``"naive"`` (|M|+|C|), ``"color-kcore"``
  ([31]-style), ``"kkprime"`` (the novel Algorithm 6 bound);
* ``order`` / ``branch`` / ``lam`` — the Section 7 search orders;
* ``backend``            — the search engine: ``"csr"`` (the packed
  bitset engines, the default) or ``"python"`` (the original set-based
  engines, kept as the readable reference).  Preprocessing is the same
  CSR pipeline either way;
* ``executor`` / ``workers`` / ``split_depth`` — the execution plan:
  ``"serial"`` (one core, the default) or ``"process"`` (independent
  k-core components fanned out over a process pool; see
  :mod:`repro.core.executor`).  ``split_depth`` additionally splits the
  top of each maximum search tree into independent subtree tasks.
  Results and merged stats are identical across executors; the three
  knobs travel together as an :class:`ExecutionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from repro.exceptions import InvalidParameterError

VERTEX_ORDERS = (
    "random",
    "degree",
    "delta1",
    "delta2",
    "delta1-then-delta2",
    "weighted-delta",
)
BRANCH_ORDERS = ("adaptive", "expand", "shrink")

#: Degraded query modes of the service surface: ``"exact"`` runs the
#: full branch-and-bound; ``"anytime"`` returns the best incumbent plus
#: a residual bound gap when the budget trips (identical to exact when
#: it does not); ``"heuristic"`` runs only the greedy lower-bound pass
#: (paper §8) — a fast inexact answer with no optimality claim.
QUERY_MODES = ("exact", "anytime", "heuristic")
MAXIMAL_CHECKS = ("search", "pairwise", "none")
BOUNDS = ("naive", "color-kcore", "kkprime")
BACKENDS = ("csr", "python")
EXECUTORS = ("serial", "process")

#: Cap on :attr:`ExecutionPlan.split_depth`: the subtree frontier is at
#: most ``2**split_depth`` frames, so this bounds the task fan-out of a
#: single component at 4096.
MAX_SPLIT_DEPTH = 12


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _normalise_execution(obj) -> None:
    """Validate the three execution knobs.

    Shared by :class:`ExecutionPlan` and :class:`SearchConfig`, which
    both carry the knobs as fields.
    """
    if obj.executor not in EXECUTORS:
        raise InvalidParameterError(
            f"executor must be one of {EXECUTORS}, got {obj.executor!r}"
        )
    if obj.workers is not None and not (_is_int(obj.workers) and obj.workers >= 1):
        raise InvalidParameterError(
            f"workers must be a positive integer, got {obj.workers!r}"
        )
    if not _is_int(obj.split_depth):
        raise InvalidParameterError(
            f"split_depth must be an integer, got {obj.split_depth!r}"
        )
    if not 0 <= obj.split_depth <= MAX_SPLIT_DEPTH:
        raise InvalidParameterError(
            f"split_depth must be in [0, {MAX_SPLIT_DEPTH}], "
            f"got {obj.split_depth}"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """How component searches execute — the three knobs as one object.

    The single execution value threaded through :class:`SearchConfig`,
    :class:`~repro.core.session.KRCoreSession`, the one-shot API, the
    CLI and the service request knobs.
    """

    executor: str = "serial"            # "serial" | "process"
    workers: Optional[int] = None       # pool size; None = os.cpu_count()
    split_depth: int = 0                # branch-tree split depth (maximum)

    def __post_init__(self) -> None:
        _normalise_execution(self)


_PLAN_FIELDS = tuple(f.name for f in fields(ExecutionPlan))


def resolve_execution_plan(
    plan: Optional[Union[ExecutionPlan, dict]] = None,
) -> Optional[ExecutionPlan]:
    """Validate a ``plan=`` value: an :class:`ExecutionPlan` or its field dict.

    Returns ``None`` when no plan was requested, so callers can skip the
    config evolve entirely.
    """
    if plan is None:
        return None
    if isinstance(plan, dict):
        unknown = set(plan) - set(_PLAN_FIELDS)
        if unknown:
            raise InvalidParameterError(
                f"unknown plan fields {sorted(unknown)}; "
                f"valid fields are {list(_PLAN_FIELDS)}"
            )
        plan = ExecutionPlan(**plan)
    if not isinstance(plan, ExecutionPlan):
        raise InvalidParameterError(
            f"plan must be an ExecutionPlan or a field dict, "
            f"got {type(plan).__name__}"
        )
    return plan


@dataclass(frozen=True)
class SearchConfig:
    """Tunable knobs for both solvers.

    The defaults correspond to the paper's best algorithms (AdvEnum /
    AdvMax); use the preset constructors below for the named baselines.
    """

    order: str = "delta1-then-delta2"   # vertex visiting order (§7)
    branch: str = "adaptive"            # branch order, maximum solver only
    lam: float = 5.0                    # λ of the λΔ1−Δ2 score (§7.2)
    retain_candidates: bool = True      # Theorem 4
    move_similarity_free: bool = True   # Remark 1
    early_termination: bool = True      # Theorem 5
    maximal_check: str = "search"       # Theorem 6 vs naive filtering
    check_order: str = "degree"         # order inside Algorithm 4 (§7.4)
    bound: str = "kkprime"              # size upper bound (§6.2)
    warm_start: bool = False            # greedy lower bound before searching
    backend: str = "csr"                # search engine: "csr" (bitset) or "python" (sets)
    executor: str = "serial"            # "serial" | "process"
    workers: Optional[int] = None       # process-pool size; None = os.cpu_count()
    split_depth: int = 0                # maximum-search branch split depth
    seed: int = 0                       # RNG seed for the random order
    time_limit: Optional[float] = None  # seconds; None = unlimited
    node_limit: Optional[int] = None    # search-tree nodes; None = unlimited
    on_budget: str = "raise"            # "raise" or "partial"
    mode: str = "exact"                 # "exact" | "anytime" | "heuristic"

    def __post_init__(self) -> None:
        _normalise_execution(self)
        if self.order not in VERTEX_ORDERS:
            raise InvalidParameterError(
                f"order must be one of {VERTEX_ORDERS}, got {self.order!r}"
            )
        if self.branch not in BRANCH_ORDERS:
            raise InvalidParameterError(
                f"branch must be one of {BRANCH_ORDERS}, got {self.branch!r}"
            )
        if self.maximal_check not in MAXIMAL_CHECKS:
            raise InvalidParameterError(
                f"maximal_check must be one of {MAXIMAL_CHECKS}, "
                f"got {self.maximal_check!r}"
            )
        if self.check_order not in VERTEX_ORDERS:
            raise InvalidParameterError(
                f"check_order must be one of {VERTEX_ORDERS}, "
                f"got {self.check_order!r}"
            )
        if self.bound not in BOUNDS:
            raise InvalidParameterError(
                f"bound must be one of {BOUNDS}, got {self.bound!r}"
            )
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.on_budget not in ("raise", "partial"):
            raise InvalidParameterError(
                f"on_budget must be 'raise' or 'partial', got {self.on_budget!r}"
            )
        if self.mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"mode must be one of {QUERY_MODES}, got {self.mode!r}"
            )
        if self.lam < 0:
            raise InvalidParameterError(f"lam must be >= 0, got {self.lam}")
        # ``not > 0`` also rejects NaN, which compares False either way.
        if self.time_limit is not None and not self.time_limit > 0:
            raise InvalidParameterError(
                f"time_limit must be positive, got {self.time_limit!r}"
            )
        if self.node_limit is not None and self.node_limit <= 0:
            raise InvalidParameterError("node_limit must be positive")

    @property
    def needs_excluded_set(self) -> bool:
        """Whether the engine must maintain E (Theorems 5/6 consume it)."""
        return self.early_termination or self.maximal_check == "search"

    @property
    def plan(self) -> ExecutionPlan:
        """This config's execution knobs as one :class:`ExecutionPlan`."""
        return ExecutionPlan(
            executor=self.executor,
            workers=self.workers,
            split_depth=self.split_depth,
        )

    def evolve(self, **changes) -> "SearchConfig":
        """Copy with some fields replaced (ablation helper).

        ``plan=`` (an :class:`ExecutionPlan` or its field dict) expands
        into the three execution fields.
        """
        plan = resolve_execution_plan(changes.pop("plan", None))
        if plan is not None:
            for name in _PLAN_FIELDS:
                changes.setdefault(name, getattr(plan, name))
        return replace(self, **changes)


# ----------------------------------------------------------------------
# Named presets — Table 2 plus the ablation variants of Figures 9 and 12.
# ----------------------------------------------------------------------

def basic_enum_config(**overrides) -> SearchConfig:
    """BasicEnum: Theorems 2/3 pruning only, best order, naive maximal filter."""
    cfg = SearchConfig(
        order="delta1-then-delta2",
        retain_candidates=False,
        move_similarity_free=False,
        early_termination=False,
        maximal_check="pairwise",
    )
    return cfg.evolve(**overrides)


def be_cr_config(**overrides) -> SearchConfig:
    """BE+CR: BasicEnum plus candidate retention (Theorem 4)."""
    cfg = SearchConfig(
        order="delta1-then-delta2",
        retain_candidates=True,
        move_similarity_free=True,
        early_termination=False,
        maximal_check="pairwise",
    )
    return cfg.evolve(**overrides)


def be_cr_et_config(**overrides) -> SearchConfig:
    """BE+CR+ET: BE+CR plus early termination (Theorem 5)."""
    cfg = SearchConfig(
        order="delta1-then-delta2",
        retain_candidates=True,
        move_similarity_free=True,
        early_termination=True,
        maximal_check="pairwise",
    )
    return cfg.evolve(**overrides)


def adv_enum_config(**overrides) -> SearchConfig:
    """AdvEnum: every technique on (Algorithm 3)."""
    cfg = SearchConfig(
        order="delta1-then-delta2",
        retain_candidates=True,
        move_similarity_free=True,
        early_termination=True,
        maximal_check="search",
    )
    return cfg.evolve(**overrides)


def adv_enum_o_config(**overrides) -> SearchConfig:
    """AdvEnum-O: AdvEnum with the degree order instead of the best one."""
    return adv_enum_config(order="degree", **overrides)


def adv_enum_p_config(**overrides) -> SearchConfig:
    """AdvEnum-P: best order but no advanced pruning (== BasicEnum)."""
    return basic_enum_config(**overrides)


def basic_max_config(**overrides) -> SearchConfig:
    """BasicMax: Algorithm 5 with the naive |M|+|C| bound, best order."""
    cfg = SearchConfig(
        order="weighted-delta",
        branch="adaptive",
        bound="naive",
        maximal_check="none",
    )
    return cfg.evolve(**overrides)


def adv_max_config(**overrides) -> SearchConfig:
    """AdvMax: Algorithm 5 with the (k,k')-core bound (Algorithm 6)."""
    cfg = SearchConfig(
        order="weighted-delta",
        branch="adaptive",
        bound="kkprime",
        maximal_check="none",
    )
    return cfg.evolve(**overrides)


def adv_max_ub_config(**overrides) -> SearchConfig:
    """AdvMax-UB: AdvMax with the bound downgraded to naive |M|+|C|."""
    return adv_max_config(bound="naive", **overrides)


def adv_max_o_config(**overrides) -> SearchConfig:
    """AdvMax-O: AdvMax with the degree order instead of λΔ1−Δ2."""
    return adv_max_config(order="degree", branch="expand", **overrides)


def color_kcore_max_config(**overrides) -> SearchConfig:
    """AdvMax with the Color+Kcore bound of [31] (Figure 10 baseline)."""
    return adv_max_config(bound="color-kcore", **overrides)


ENUM_PRESETS = {
    "naive": None,  # handled by repro.core.naive, not the engine
    "basic": basic_enum_config,
    "be+cr": be_cr_config,
    "be+cr+et": be_cr_et_config,
    "advanced": adv_enum_config,
    "advanced-o": adv_enum_o_config,
    "advanced-p": adv_enum_p_config,
}

MAX_PRESETS = {
    "basic": basic_max_config,
    "advanced": adv_max_config,
    "advanced-ub": adv_max_ub_config,
    "advanced-o": adv_max_o_config,
    "color-kcore": color_kcore_max_config,
}


def resolve_enum_config(algorithm: str, **overrides) -> SearchConfig:
    """Config for a named enumeration algorithm (Table 2 spelling)."""
    key = algorithm.lower()
    if key not in ENUM_PRESETS or ENUM_PRESETS[key] is None:
        raise InvalidParameterError(
            f"unknown enumeration algorithm {algorithm!r}; choose from "
            f"{sorted(k for k, v in ENUM_PRESETS.items() if v)}"
        )
    return ENUM_PRESETS[key](**overrides)


def resolve_max_config(algorithm: str, **overrides) -> SearchConfig:
    """Config for a named maximum algorithm (Table 2 spelling)."""
    key = algorithm.lower()
    if key not in MAX_PRESETS:
        raise InvalidParameterError(
            f"unknown maximum algorithm {algorithm!r}; choose from "
            f"{sorted(MAX_PRESETS)}"
        )
    return MAX_PRESETS[key](**overrides)

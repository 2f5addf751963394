"""Core (k,r)-core algorithms — the paper's primary contribution.

Public entry points: :class:`KRCoreSession` (prepared graph, repeated
queries) and the one-shot wrappers :func:`enumerate_maximal_krcores`,
:func:`find_maximum_krcore`, :func:`krcore_statistics`; configuration via
:class:`SearchConfig` and the Table 2 presets in
:mod:`repro.core.config`.
"""

from repro.core.api import (
    enumerate_maximal_krcores,
    find_maximum_krcore,
    krcore_statistics,
)
from repro.core.session import KRCoreSession
from repro.core.decomposition import (
    degree_profile,
    krcore_vertex_memberships,
    threshold_profile,
)
from repro.core.executor import shutdown_pools
from repro.core.heuristics import greedy_maximum_krcore
from repro.core.config import (
    ExecutionPlan,
    SearchConfig,
    adv_enum_config,
    adv_enum_o_config,
    adv_enum_p_config,
    adv_max_config,
    adv_max_o_config,
    adv_max_ub_config,
    basic_enum_config,
    basic_max_config,
    be_cr_config,
    be_cr_et_config,
    color_kcore_max_config,
)
from repro.core.results import (
    KRCore,
    MaximumOutcome,
    TopCoresOutcome,
    filter_maximal,
    summarize_cores,
)
from repro.core.stats import SearchStats

__all__ = [
    "KRCoreSession",
    "enumerate_maximal_krcores",
    "find_maximum_krcore",
    "krcore_statistics",
    "threshold_profile",
    "degree_profile",
    "krcore_vertex_memberships",
    "greedy_maximum_krcore",
    "shutdown_pools",
    "ExecutionPlan",
    "SearchConfig",
    "KRCore",
    "MaximumOutcome",
    "TopCoresOutcome",
    "SearchStats",
    "filter_maximal",
    "summarize_cores",
    "basic_enum_config",
    "be_cr_config",
    "be_cr_et_config",
    "adv_enum_config",
    "adv_enum_o_config",
    "adv_enum_p_config",
    "basic_max_config",
    "adv_max_config",
    "adv_max_ub_config",
    "adv_max_o_config",
    "color_kcore_max_config",
]

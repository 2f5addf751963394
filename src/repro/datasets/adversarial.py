"""Adversarial hard-instance families for the search engines.

ROADMAP's benchmark workloads are trivially pruned by the maximum
engine's size bound, so regressions in the branch-and-bound half of the
paper (§8, Algorithm 5) were invisible.  The families here are built
from the *failure modes* of each technique, so search trees get deep and
every kernel earns its keep:

* :func:`onion_graph` — "onion" layers of mutually dissimilar option
  groups; every one-option-per-layer selection is a near-tied maximal
  (k,r)-core and the (k,k')-core bound stays far above the true maximum
  until almost every layer is decided, so the maximum engine's tree is
  deep (the deep-maximum-tree family the engine benchmark gates on);
* :func:`ring_of_cliques` — cliques bridged into a high-diameter ring,
  the regime where the per-level mask BFS of
  :func:`repro.core.bitops.reach_mask` pays one numpy round per level;
* :func:`interleaved_profiles` — sliding-window keyword profiles over a
  circular vocabulary: the similarity graph is a dense circulant band,
  maximal cores overlap all around the ring, and both the colour and the
  (k,k')-peel bounds stay loose;
* :func:`borderline_r` — profiles engineered so many pairs sit *exactly*
  at the threshold ``r`` and flip under a single attribute edit; also
  carries empty-attribute vertices (similar to nothing).

Every generator is a pure function of its parameters (``seed`` included)
— the dataset-determinism CI job fingerprints them under two
``PYTHONHASHSEED`` values — and each family is registered in
:data:`FAMILIES` with parameter samplers used by the differential fuzz
harness (``tiny`` instances stay small enough for the brute-force
oracle) and by the benchmark workloads.

Hardness is *measured*, not assumed: :func:`hardness_score` runs the
solver and folds the :class:`~repro.core.stats.SearchStats` counters
(branch nodes, maximal-check nodes, tight-bound invocations) into a
single score, so a family's parameters can be tuned until the search
tree is demonstrably non-trivial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate


@dataclass(frozen=True)
class AdversarialInstance:
    """A generated hard instance: the graph plus the (k, r) it is hard at.

    The recommended ``k``/``metric``/``r`` are part of the instance
    because the constructions only bite at specific thresholds (e.g. the
    onion's ``r`` must separate the same-layer and cross-layer Jaccard
    values its token algebra produces).
    """

    family: str
    params: Dict[str, Any]
    graph: AttributedGraph
    k: int
    metric: str
    r: float

    def predicate(self) -> SimilarityPredicate:
        """The instance's similarity predicate."""
        return SimilarityPredicate(self.metric, self.r)


# ----------------------------------------------------------------------
# Onion graphs — deep maximum search trees
# ----------------------------------------------------------------------

def _onion_jaccards(core: int, layers: int, options: int, overlap: int):
    """(same-layer J, cross-layer J) of the onion token algebra."""
    private = overlap * (layers - 1) * options
    j_same = core / (core + 2 * private)
    j_cross = (core + overlap) / (core + 2 * private - overlap)
    return j_same, j_cross


def onion_graph(
    layers: int = 6,
    options: int = 2,
    group: int = 12,
    half: int = 2,
    core_tokens: int = 12,
    overlap: int = 1,
    seed: int = 0,
) -> AttributedGraph:
    """Layered option groups with many near-tied maximum cores.

    ``layers`` x ``options`` groups of ``group`` vertices each.  Group
    members share one keyword profile built from a global core plus one
    token per (other-layer, option) pair, so two *different options of
    the same layer* intersect only on the core while *any cross-layer
    pair* additionally shares its pair token:

    * same layer:  ``J = c / (c + 2p)``
    * cross layer: ``J = (c + s) / (c + 2p - s)``

    with ``c = core_tokens``, ``s = overlap`` and
    ``p = overlap * (layers - 1) * options``.  Any ``r`` strictly
    between the two (see :func:`onion_predicate_r`) makes same-layer
    options pairwise dissimilar and everything else similar, so the
    maximal (k,r)-cores are exactly the ``options ** layers``
    one-option-per-layer unions — all of identical size
    ``layers * group``.  The (k,k')-core bound of a node with ``j``
    layers decided is ≈ ``(t·layers − j − (t−1)) * group`` (``t`` =
    options), which only drops to the true maximum once nearly every
    layer is fixed: the bound cannot prune high in the tree and the
    maximum engine must grind through the option tree.

    Structure: each group is a ring lattice of half-width ``half``
    (in-group degree ``2*half``; pair with ``k = 2*half``), and position
    ``i`` of every group is wired to position ``i`` of every group in
    the adjacent layers, which keeps every one-option-per-layer union
    connected and every selection a valid (k,r)-core.  ``seed`` is
    accepted for registry uniformity; the construction is deterministic.
    """
    if layers < 2 or options < 2:
        raise InvalidParameterError("onion needs >= 2 layers and >= 2 options")
    if group < 2 * half + 1:
        raise InvalidParameterError(
            f"group size {group} cannot support ring half-width {half}"
        )
    del seed  # deterministic construction; kept for a uniform signature
    n = layers * options * group
    g = AttributedGraph(n)

    def vid(layer: int, option: int, i: int) -> int:
        return (layer * options + option) * group + i

    core = [f"core{t}" for t in range(core_tokens)]
    for layer in range(layers):
        for option in range(options):
            # Profile: global core + one shared token per cross-layer
            # group pair (sorted construction order — hash-seed proof).
            tokens = list(core)
            for other in range(layers):
                if other == layer:
                    continue
                lo, hi = min(layer, other), max(layer, other)
                for other_opt in range(options):
                    if layer < other:
                        pair = (option, other_opt)
                    else:
                        pair = (other_opt, option)
                    for s in range(overlap):
                        tokens.append(
                            f"x{lo}.{pair[0]}-{hi}.{pair[1]}.{s}"
                        )
            profile = frozenset(tokens)
            for i in range(group):
                u = vid(layer, option, i)
                g.set_attribute(u, profile)
                for d in range(1, half + 1):
                    g.add_edge(u, vid(layer, option, (i + d) % group))
            if layer + 1 < layers:
                for other_opt in range(options):
                    for i in range(group):
                        g.add_edge(
                            vid(layer, option, i),
                            vid(layer + 1, other_opt, i),
                        )
    return g


def onion_predicate_r(
    layers: int = 6,
    options: int = 2,
    core_tokens: int = 12,
    overlap: int = 1,
    **_ignored: Any,
) -> float:
    """The midpoint threshold separating the onion's two Jaccard levels."""
    j_same, j_cross = _onion_jaccards(core_tokens, layers, options, overlap)
    return (j_same + j_cross) / 2.0


# ----------------------------------------------------------------------
# Ring of cliques — high-diameter components
# ----------------------------------------------------------------------

def ring_of_cliques(
    cliques: int = 24,
    clique_size: int = 6,
    cut_cliques: int = 0,
    base_tokens: int = 6,
    private_tokens: int = 3,
    seed: int = 0,
) -> AttributedGraph:
    """Cliques bridged into a ring: component diameter ≈ ``cliques``.

    Clique ``j``'s vertex 0 is bridged to clique ``j+1``'s vertex 1, so
    the (single) component's diameter grows linearly in ``cliques`` —
    the worst case for the per-level frontier BFS the bitset engines use
    for reachability (:func:`repro.core.bitops.reach_mask`).

    With ``cut_cliques = 0`` every vertex carries the same profile and
    the whole ring is one (k,r)-core.  With ``cut_cliques = c > 0`` the
    first ``c`` even-spaced cliques get ``private_tokens`` extra private
    tokens each, making the cut cliques *mutually* dissimilar
    (``J = b/(b+2p)``) while staying similar to the plain cliques
    (``J = b/(b+p)``): any threshold in between (see
    :func:`ring_predicate_r`) forces cores to break the ring into arcs,
    so the engines repeatedly re-derive connectivity over a
    high-diameter remainder.  Pair with ``k = clique_size - 1``.
    """
    if cliques < 3:
        raise InvalidParameterError("ring needs >= 3 cliques")
    if clique_size < 2:
        raise InvalidParameterError("cliques need >= 2 vertices")
    if cut_cliques > cliques:
        raise InvalidParameterError("more cut cliques than cliques")
    del seed  # deterministic construction; kept for a uniform signature
    n = cliques * clique_size
    g = AttributedGraph(n)
    base = frozenset(f"b{t}" for t in range(base_tokens))
    cut_every = cliques // cut_cliques if cut_cliques else 0
    for j in range(cliques):
        off = j * clique_size
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                g.add_edge(off + a, off + b)
        if cut_cliques and j % cut_every == 0 and j // cut_every < cut_cliques:
            profile = base | frozenset(
                f"cut{j}.{t}" for t in range(private_tokens)
            )
        else:
            profile = base
        for a in range(clique_size):
            g.set_attribute(off + a, profile)
        g.add_edge(off, ((j + 1) % cliques) * clique_size + 1)
    return g


def ring_predicate_r(
    base_tokens: int = 6, private_tokens: int = 3, **_ignored: Any
) -> float:
    """Midpoint between cut-vs-plain and cut-vs-cut Jaccard levels."""
    j_plain = base_tokens / (base_tokens + private_tokens)
    j_cut = base_tokens / (base_tokens + 2 * private_tokens)
    return (j_plain + j_cut) / 2.0


# ----------------------------------------------------------------------
# Interleaved sliding-window profiles — loose colour / (k,k') bounds
# ----------------------------------------------------------------------

def interleaved_profiles(
    n: int = 60,
    vocab: int = 12,
    window: int = 4,
    half: int = 2,
    chords: int = 0,
    seed: int = 0,
) -> AttributedGraph:
    """Circulant band similarity: dense similar/dissimilar interleaving.

    Vertex ``i`` carries the keyword window
    ``{w[(i + j) mod vocab] : j < window}`` of a circular vocabulary, so
    two vertices at circular profile distance ``d`` have
    ``J(d) = (window − d) / (window + d)`` (0 beyond the window).  At
    any mid threshold the similarity graph is a dense circulant band:
    maximal cores overlap all around the ring, a greedy colouring of the
    band wastes colours, and the (k,k')-peel's ``k'max`` tracks the
    (uniform) similarity degree rather than the much smaller true
    maximum — the regime where both §6 bounds stop pruning.

    Structure: ring lattice of half-width ``half`` plus ``chords``
    seeded random chords.  Use :func:`interleaved_predicate_r` for a
    threshold that admits circular distance ``<= dist``.
    """
    if window >= vocab:
        raise InvalidParameterError("window must be smaller than vocab")
    if n < 2 * half + 1:
        raise InvalidParameterError("ring too small for the half-width")
    rng = random.Random(seed)
    g = AttributedGraph(n)
    for i in range(n):
        p = i % vocab
        g.set_attribute(
            i, frozenset(f"w{(p + j) % vocab}" for j in range(window))
        )
        for d in range(1, half + 1):
            g.add_edge(i, (i + d) % n)
    for _ in range(chords):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def interleaved_predicate_r(
    window: int = 4, dist: int = 1, **_ignored: Any
) -> float:
    """Threshold admitting profile windows within circular distance ``dist``.

    ``J(d) = (window − d)/(window + d)`` decreases in ``d``; the midpoint
    between ``J(dist)`` and ``J(dist + 1)`` keeps exactly the distances
    ``0..dist`` similar.
    """
    if dist + 1 > window:
        raise InvalidParameterError("dist must leave a dissimilar level")
    j_in = (window - dist) / (window + dist)
    j_out = (window - dist - 1) / (window + dist + 1)
    return (j_in + j_out) / 2.0


# ----------------------------------------------------------------------
# Borderline-r profiles — threshold-exact pairs that flip under one edit
# ----------------------------------------------------------------------

def borderline_r(
    n: int = 40,
    base_tokens: int = 4,
    half: int = 2,
    chords: int = 2,
    empty_every: int = 0,
    seed: int = 0,
) -> AttributedGraph:
    """Profiles sitting *exactly* on the similarity threshold.

    With base set ``B`` of size ``c = base_tokens`` and the paired
    threshold ``r = c / (c + 2)`` (see :func:`borderline_predicate_r`),
    vertices cycle through three profile classes:

    * class 0 — ``B`` itself;
    * class 1 — ``B`` plus one private token: two class-1 vertices meet
      at ``J = c/(c+2) == r`` (similar, but a single dropped token flips
      them to dissimilar);
    * class 2 — ``B`` plus two private tokens: exactly at ``r`` against
      class 0, strictly below against classes 1 and 2.

    Every similar pair is within one attribute edit of flipping, so the
    instance exercises the boundary arithmetic of the similarity index,
    ``SF(C)`` retention and Theorem-6 maximal checking.  With
    ``empty_every > 0`` every ``empty_every``-th vertex carries an
    *empty* keyword set (Jaccard 0 against everything, including other
    empty sets) — such vertices lose all their filtered edges and must
    be peeled without tripping any engine.

    Structure: ring lattice of half-width ``half`` plus ``chords``
    seeded random chords; pair with small ``k`` (the filtered graph is
    sparse once class-2 pairs drop).
    """
    if base_tokens < 1:
        raise InvalidParameterError("need at least one base token")
    rng = random.Random(seed)
    g = AttributedGraph(n)
    base = [f"b{t}" for t in range(base_tokens)]
    for i in range(n):
        cls = i % 3
        if cls == 0:
            profile = frozenset(base)
        elif cls == 1:
            profile = frozenset(base + [f"p{i}"])
        else:
            profile = frozenset(base + [f"p{i}", f"q{i}"])
        if empty_every and i % empty_every == 0:
            profile = frozenset()
        g.set_attribute(i, profile)
        for d in range(1, half + 1):
            g.add_edge(i, (i + d) % n)
    for _ in range(chords):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def borderline_predicate_r(base_tokens: int = 4, **_ignored: Any) -> float:
    """The exact class-1/class-1 Jaccard value ``c / (c + 2)``."""
    return base_tokens / (base_tokens + 2)


# ----------------------------------------------------------------------
# Family registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarialFamily:
    """A parameterized hard-instance family the fuzzer can sample from."""

    name: str
    build_graph: Callable[..., AttributedGraph]
    default_params: Dict[str, Any]
    default_k: Callable[[Dict[str, Any]], int]
    metric: str
    default_r: Callable[..., float]
    #: size-class -> parameter sampler; "tiny" instances must stay small
    #: enough for the brute-force oracle (component sizes <= ~14).
    samplers: Dict[str, Callable[[random.Random], Dict[str, Any]]] = field(
        default_factory=dict
    )

    def build(self, **overrides: Any) -> AdversarialInstance:
        """Build an instance; ``k``/``r`` overrides ride alongside params."""
        params = dict(self.default_params)
        k = overrides.pop("k", None)
        r = overrides.pop("r", None)
        params.update(overrides)
        graph = self.build_graph(**params)
        return AdversarialInstance(
            family=self.name,
            params=params,
            graph=graph,
            k=k if k is not None else self.default_k(params),
            metric=self.metric,
            r=r if r is not None else self.default_r(**params),
        )

    def sample(self, rng: random.Random, size: str = "tiny") -> AdversarialInstance:
        """A seeded random instance of the requested size class."""
        try:
            sampler = self.samplers[size]
        except KeyError:
            raise InvalidParameterError(
                f"family {self.name!r} has no {size!r} sampler; "
                f"choose from {sorted(self.samplers)}"
            ) from None
        return self.build(**sampler(rng))


def _onion_tiny(rng: random.Random) -> Dict[str, Any]:
    return {
        "layers": 2,
        "options": 2,
        "group": 3,
        "half": 1,
        "core_tokens": rng.choice((6, 12)),
        "seed": rng.randrange(1 << 16),
    }


def _onion_small(rng: random.Random) -> Dict[str, Any]:
    half = rng.choice((1, 2))
    return {
        "layers": rng.choice((3, 4)),
        "options": 2,
        "group": 2 * half + rng.choice((1, 2)),
        "half": half,
        "core_tokens": 12,
        "seed": rng.randrange(1 << 16),
    }


def _ring_tiny(rng: random.Random) -> Dict[str, Any]:
    return {
        "cliques": 3,
        "clique_size": rng.choice((3, 4)),
        "cut_cliques": rng.choice((0, 2)),
        "seed": rng.randrange(1 << 16),
    }


def _ring_small(rng: random.Random) -> Dict[str, Any]:
    return {
        "cliques": rng.choice((6, 10, 14)),
        "clique_size": rng.choice((4, 5)),
        "cut_cliques": rng.choice((0, 2, 3)),
        "seed": rng.randrange(1 << 16),
    }


def _interleaved_tiny(rng: random.Random) -> Dict[str, Any]:
    return {
        "n": rng.choice((10, 12)),
        "vocab": rng.choice((5, 6)),
        "window": 3,
        "half": rng.choice((1, 2)),
        "chords": rng.choice((0, 2)),
        "seed": rng.randrange(1 << 16),
    }


def _interleaved_small(rng: random.Random) -> Dict[str, Any]:
    return {
        "n": rng.choice((30, 48, 60)),
        "vocab": rng.choice((8, 12)),
        "window": rng.choice((4, 5)),
        "half": 2,
        "chords": rng.choice((0, 4, 8)),
        "seed": rng.randrange(1 << 16),
    }


def _borderline_tiny(rng: random.Random) -> Dict[str, Any]:
    return {
        "n": rng.choice((9, 12)),
        "base_tokens": rng.choice((3, 4)),
        "half": rng.choice((1, 2)),
        "chords": rng.choice((0, 2)),
        "empty_every": rng.choice((0, 5)),
        "seed": rng.randrange(1 << 16),
    }


def _borderline_small(rng: random.Random) -> Dict[str, Any]:
    return {
        "n": rng.choice((24, 36, 48)),
        "base_tokens": rng.choice((3, 4, 6)),
        "half": 2,
        "chords": rng.choice((0, 3, 6)),
        "empty_every": rng.choice((0, 7)),
        "seed": rng.randrange(1 << 16),
    }


FAMILIES: Dict[str, AdversarialFamily] = {
    "onion": AdversarialFamily(
        name="onion",
        build_graph=onion_graph,
        default_params=dict(
            layers=5, options=2, group=24, half=3, core_tokens=12,
            overlap=1, seed=0,
        ),
        default_k=lambda p: 2 * p.get("half", 2),
        metric="jaccard",
        default_r=onion_predicate_r,
        samplers={"tiny": _onion_tiny, "small": _onion_small},
    ),
    "ring-of-cliques": AdversarialFamily(
        name="ring-of-cliques",
        build_graph=ring_of_cliques,
        default_params=dict(
            cliques=24, clique_size=6, cut_cliques=4, base_tokens=6,
            private_tokens=3, seed=0,
        ),
        default_k=lambda p: p.get("clique_size", 6) - 1,
        metric="jaccard",
        default_r=ring_predicate_r,
        samplers={"tiny": _ring_tiny, "small": _ring_small},
    ),
    "interleaved": AdversarialFamily(
        name="interleaved",
        build_graph=interleaved_profiles,
        default_params=dict(
            n=60, vocab=12, window=4, half=2, chords=0, seed=0,
        ),
        default_k=lambda p: min(3, 2 * p.get("half", 2)),
        metric="jaccard",
        default_r=interleaved_predicate_r,
        samplers={"tiny": _interleaved_tiny, "small": _interleaved_small},
    ),
    "borderline": AdversarialFamily(
        name="borderline",
        build_graph=borderline_r,
        default_params=dict(
            n=40, base_tokens=4, half=2, chords=2, empty_every=0, seed=0,
        ),
        default_k=lambda p: 2,
        metric="jaccard",
        default_r=borderline_predicate_r,
        samplers={"tiny": _borderline_tiny, "small": _borderline_small},
    ),
}


def build_instance(name: str, **overrides: Any) -> AdversarialInstance:
    """Build a named family instance (``k=``/``r=`` override the defaults)."""
    try:
        family = FAMILIES[name.lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown adversarial family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None
    return family.build(**overrides)


def sample_instance(
    name: str, rng: random.Random, size: str = "tiny"
) -> AdversarialInstance:
    """Sample a seeded random instance from a named family."""
    try:
        family = FAMILIES[name.lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown adversarial family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None
    return family.sample(rng, size)


# ----------------------------------------------------------------------
# Hardness scoring
# ----------------------------------------------------------------------

#: Weights folding SearchStats counters into one hardness scalar.  Branch
#: nodes and maximal-check nodes are a direct measure of tree size; each
#: tight-bound invocation is an O(n^2)-ish kernel so it outweighs a node.
HARDNESS_WEIGHTS: Dict[str, float] = {
    "nodes": 1.0,
    "check_nodes": 1.0,
    "bound_calls": 5.0,
    "maximal_checks": 2.0,
}


def score_from_counters(counters: Dict[str, Any]) -> float:
    """The :data:`HARDNESS_WEIGHTS` dot product over a stats dict.

    The single definition of the hardness formula — both
    :func:`hardness_score` and the fuzz driver's sweep tables go through
    it, so reweighting stays consistent everywhere.  Missing counters
    score zero (a crashed run has no stats).
    """
    return sum(
        weight * counters.get(name, 0)
        for name, weight in HARDNESS_WEIGHTS.items()
    )


def hardness_score(
    instance: AdversarialInstance,
    mode: str = "maximum",
    config: Optional[Any] = None,
) -> Tuple[float, Dict[str, float]]:
    """(score, stats dict) of one solver run over the instance.

    ``mode`` selects the engine (``"maximum"`` → Algorithm 5,
    ``"enumerate"`` → Algorithm 3); ``config`` defaults to the paper's
    best preset for that engine on the csr backend.  The score is the
    :data:`HARDNESS_WEIGHTS` dot product over the run's stats — a
    deterministic, hardware-independent measure of how hard the instance
    made the engine work.
    """
    from repro.core.config import adv_enum_config, adv_max_config
    from repro.core.session import KRCoreSession

    session = KRCoreSession(instance.graph, copy=False)
    if mode == "maximum":
        cfg = config if config is not None else adv_max_config()
        _, stats = session.maximum(
            instance.k, predicate=instance.predicate(), config=cfg,
            with_stats=True,
        )
    elif mode == "enumerate":
        cfg = config if config is not None else adv_enum_config()
        _, stats = session.enumerate(
            instance.k, predicate=instance.predicate(), config=cfg,
            with_stats=True,
        )
    else:
        raise InvalidParameterError(
            f"mode must be 'maximum' or 'enumerate', got {mode!r}"
        )
    payload = stats.to_dict()
    return score_from_counters(payload), payload

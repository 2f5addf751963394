"""The differential fuzz harness itself: sampling, checking, shrinking, IO."""

import random
import subprocess
import sys
import os

import pytest

from repro.core import session as session_module
from repro.core.bounds import FAULT_ENV
from repro.core.context import ComponentArrays
from repro.fuzz.differential import PARITY_COUNTERS, run_case
from repro.fuzz.repro_io import case_from_dict, case_to_dict, load_repro, save_repro
from repro.fuzz.shrink import shrink_case
from repro.fuzz.space import FuzzCase, sample_bound_stress_case, sample_case
from repro.graph.attributed_graph import AttributedGraph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestSampling:
    def test_same_seed_same_cases(self):
        a = [sample_case(random.Random(3)).describe() for _ in range(1)]
        b = [sample_case(random.Random(3)).describe() for _ in range(1)]
        assert a == b
        seq = random.Random(5)
        cases = [sample_case(seq) for _ in range(20)]
        assert len({c.describe() for c in cases}) > 10  # actually varied

    def test_sampled_configs_are_valid(self):
        rng = random.Random(9)
        for _ in range(20):
            case = sample_case(rng)
            for backend in ("python", "csr"):
                cfg = case.config(backend)  # SearchConfig validates
                assert cfg.backend == backend
            if case.mode == "maximum":
                assert case.search["maximal_check"] == "none"

    def test_bound_stress_cases_use_tight_bounds(self):
        rng = random.Random(4)
        for _ in range(10):
            case = sample_bound_stress_case(rng)
            assert case.mode == "maximum"
            assert case.search["bound"] in ("color-kcore", "kkprime")


class TestDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_clean_engines_agree(self, seed):
        result = run_case(sample_case(random.Random(seed)))
        assert result.ok, str(result.disagreement)

    def test_looser_threshold_check_takes_the_seeded_path(self):
        rng = random.Random(11)
        results = [run_case(sample_case(rng)) for _ in range(8)]
        assert all(result.ok for result in results)
        assert all(result.threshold_seeded for result in results)

    def test_looser_predicate_is_strictly_looser(self):
        from repro.fuzz.differential import _looser_predicate
        for metric, r, want in (("jaccard", 0.4, 0.2), ("jaccard", 0.0, -1.0),
                                ("euclidean", 2.0, 5.0), ("euclidean", 0.0, 1.0)):
            case = FuzzCase(graph=AttributedGraph(1), k=1, metric=metric, r=r,
                            mode="enumerate")
            assert _looser_predicate(case).r == want

    def test_parity_counters_are_real_stats_fields(self):
        from repro.core.stats import SearchStats
        stats = SearchStats()
        for name in PARITY_COUNTERS:
            assert hasattr(stats, name)

    def test_front_end_fault_is_reported(self, monkeypatch):
        # A 5-clique minus (0, 4): every edge is similar at r = 0.5, and
        # 0, 4 are a dissimilar pair inside the one 2-core component.
        g = AttributedGraph(5)
        for u in range(5):
            for v in range(u + 1, 5):
                if (u, v) != (0, 4):
                    g.add_edge(u, v)
            g.set_attribute(u, frozenset({"a", "b"}))
        g.set_attribute(0, frozenset({"a"}))
        g.set_attribute(4, frozenset({"b"}))
        case = FuzzCase(graph=g, k=2, metric="jaccard", r=0.5,
                        mode="enumerate")
        assert run_case(case).ok

        real = session_module.component_arrays

        def drop_one_pair(*args):
            parts = real(*args)
            for i, a in enumerate(parts):
                if a.pair_i.size:
                    parts[i] = ComponentArrays(
                        a.verts, a.src, a.dst, a.pair_i[1:], a.pair_j[1:],
                        a.edges_key, a.max_degree,
                    )
                    break
            return parts

        monkeypatch.setattr(session_module, "component_arrays", drop_one_pair)
        result = run_case(case)
        assert result.disagreement is not None
        assert result.disagreement.kind == "front-end"
        assert "(0, 4)" in result.disagreement.detail

    def test_engine_error_is_reported_not_raised(self):
        # k=0 is rejected by the solver; the harness must fold the raise
        # into a Disagreement instead of crashing the sweep.
        case = sample_case(random.Random(0))
        case.k = 0
        result = run_case(case)
        assert result.disagreement is not None
        assert result.disagreement.kind == "engine-error"


def _find_fault_witness(max_configs=80):
    rng = random.Random(7)
    for _ in range(max_configs):
        case = sample_bound_stress_case(rng)
        result = run_case(case)
        if result.disagreement is not None:
            return case, result
    return None, None


class TestInjectedFaultEndToEnd:
    """The harness must catch, shrink, serialise and replay a known fault."""

    def test_fault_is_caught_shrunk_and_replayable(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_ENV, "bound-shave")
        case, result = _find_fault_witness()
        assert case is not None, "injected bound fault was not detected"

        def failing(candidate):
            return run_case(candidate).disagreement is not None

        shrunk = shrink_case(case, failing)
        assert shrunk.graph.vertex_count <= case.graph.vertex_count
        assert failing(shrunk)

        path = save_repro(
            str(tmp_path / "witness.json"), shrunk,
            run_case(shrunk).disagreement,
        )
        loaded, payload = load_repro(path)
        assert payload["disagreement"]["kind"].startswith("backend")
        assert run_case(loaded).disagreement is not None

        monkeypatch.delenv(FAULT_ENV)
        assert run_case(loaded).ok  # clean without the fault


class TestShrinker:
    def test_shrinks_to_small_witness_for_simple_predicate(self):
        # Not a differential run: shrink against a cheap structural
        # property to validate the ddmin mechanics in isolation.
        g = AttributedGraph(12)
        for i in range(11):
            g.add_edge(i, i + 1)
        for i in range(12):
            g.set_attribute(i, frozenset({"a", f"p{i % 4}"}))
        case = FuzzCase(
            graph=g, k=1, metric="jaccard", r=0.3, mode="enumerate",
            search={"maximal_check": "pairwise"},
        )

        def failing(c):  # "still contains at least one edge"
            return c.graph.edge_count >= 1

        shrunk = shrink_case(case, failing)
        assert shrunk.graph.edge_count == 1
        assert shrunk.graph.vertex_count == 2

    def test_non_failing_case_returned_untouched(self):
        case = sample_case(random.Random(1))
        same = shrink_case(case, lambda c: False)
        assert same is case


class TestReproIO:
    def test_roundtrip_all_attribute_kinds(self, tmp_path):
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
        g.set_attribute(0, frozenset({"a", "b"}))
        g.set_attribute(1, (3.5, -1.25))
        g.set_attribute(2, {"w": 2.0, "v": 1.0})
        # vertex 3 deliberately attributeless
        case = FuzzCase(
            graph=g, k=1, metric="jaccard", r=0.5, mode="enumerate",
            search={"order": "degree", "maximal_check": "pairwise"},
            family="roundtrip", params={"n": 4},
        )
        path = save_repro(str(tmp_path / "case.json"), case)
        loaded, payload = load_repro(path)
        lg = loaded.graph
        assert sorted(lg.edges()) == sorted(g.edges())
        assert lg.attribute(0) == frozenset({"a", "b"})
        assert lg.attribute(1) == (3.5, -1.25)
        assert lg.attribute(2) == {"w": 2.0, "v": 1.0}
        assert not lg.has_attribute(3)
        assert (loaded.k, loaded.metric, loaded.r) == (1, "jaccard", 0.5)
        assert loaded.search == case.search
        assert payload["family"] == "roundtrip"

    def test_dict_roundtrip_is_stable(self):
        case = sample_case(random.Random(2))
        once = case_to_dict(case)
        twice = case_to_dict(case_from_dict(once))
        assert once == twice


class TestDriverCLI:
    """scripts/fuzz_krcore.py in a real subprocess (clean env handling)."""

    def _run(self, *argv, env_extra=None):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop(FAULT_ENV, None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "fuzz_krcore.py"),
             *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=280,
        )

    def test_small_sweep_is_clean(self, tmp_path):
        proc = self._run(
            "--configs", "25", "--seed", "7", "--out-dir", str(tmp_path)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "zero python/csr/oracle disagreements" in proc.stdout
        assert "looser-threshold checks on the seeded path: 25/25" in proc.stdout
        assert not list(tmp_path.iterdir())  # no repros for a clean sweep

    def test_sweep_refuses_leftover_fault_flag(self, tmp_path):
        proc = self._run(
            "--configs", "5", "--out-dir", str(tmp_path),
            env_extra={FAULT_ENV: "bound-shave"},
        )
        assert proc.returncode == 2

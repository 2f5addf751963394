"""Auto-loaded regression tests from serialized fuzz repros.

Every ``tests/fuzz_repros/*.json`` file is a standalone instance the
fuzz harness once shrank out of a disagreement (see
``scripts/fuzz_krcore.py``).  Committing a repro here pins it forever:
each file is replayed through the full differential check — python
engine vs csr engine (results and stats parity) vs the brute-force
oracle — and must come back clean.

The checked-in ``injected-bound-shave-onion.json`` was produced by the
harness's self-test: it is the minimal witness of the *deliberately*
injected invalid-bound fault (``KRCORE_FUZZ_INJECT=bound-shave``), so it
must disagree with the fault flipped on and agree with it off — both
directions are asserted below.

``shrunken-pickle-roundtrip.json`` is a delta-debugged (shrunk while
still holding several maximal cores) instance whose sampled knobs pin
the process executor: its replay exercises the serial-vs-pool
differential, and the dedicated test below round-trips its component
tasks through ``pickle`` — the exact payload path a spawn-started
worker sees.

``shrunken-maintenance-max-tiebreak.json`` came out of the edit-stream
sweep: a cancelling add/remove edge pair whose merge-then-split left the
maximum result cache *partially* populated, flipping a size tie between
two equally-maximal components away from the fresh-session winner.  The
fix (family-wide eviction of ``"max"`` entries on any dead signature,
see ``repro.core.maintenance``) keeps this replaying clean.
"""

import glob
import os
import pickle

import pytest

from repro.core.bounds import FAULT_ENV
from repro.core.context import Budget
from repro.core.executor import solve_component_task, task_from_context
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.fuzz.differential import run_case
from repro.fuzz.repro_io import load_repro

REPRO_DIR = os.path.join(os.path.dirname(__file__), "fuzz_repros")
REPRO_FILES = sorted(glob.glob(os.path.join(REPRO_DIR, "*.json")))


def _ids(paths):
    return [os.path.basename(p) for p in paths]


def test_repro_directory_is_populated():
    # The self-test witness ships with the repo; an empty directory means
    # the auto-load machinery is silently testing nothing.
    assert REPRO_FILES, f"no repro files found under {REPRO_DIR}"


@pytest.mark.parametrize("path", REPRO_FILES, ids=_ids(REPRO_FILES))
def test_repro_replays_clean(path):
    case, payload = load_repro(path)
    assert payload["format"] == "krcore-fuzz-repro"
    result = run_case(case)
    assert result.ok, (
        f"{os.path.basename(path)} regressed: {result.disagreement}"
    )


@pytest.mark.parametrize("path", REPRO_FILES, ids=_ids(REPRO_FILES))
def test_repro_component_tasks_pickle_roundtrip(path):
    """Every repro's component tasks survive the worker payload path.

    Serialise each prepared component to a :class:`ComponentTask`,
    round-trip it through ``pickle`` (what the process pool does on
    every submission), and solve both copies in-process: results and
    stats counters must match exactly.
    """
    case, _ = load_repro(path)
    cfg = case.config("csr", executor="serial")
    contexts = prepare_components(
        case.graph, case.k, case.predicate(), cfg,
        SearchStats(), Budget(None, None),
    )
    for i, ctx in enumerate(contexts):
        task = task_from_context(i, ctx, "enumerate")
        clone = pickle.loads(pickle.dumps(task))
        direct = solve_component_task(task)
        replayed = solve_component_task(clone)
        assert direct.status == replayed.status == "ok"
        assert (
            sorted(sorted(c) for c in direct.result)
            == sorted(sorted(c) for c in replayed.result)
        )
        d_stats, r_stats = direct.stats.to_dict(), replayed.stats.to_dict()
        d_stats.pop("elapsed"), r_stats.pop("elapsed")
        assert d_stats == r_stats


@pytest.mark.parametrize(
    "path",
    [p for p in REPRO_FILES if "injected" in os.path.basename(p)],
    ids=_ids([p for p in REPRO_FILES if "injected" in os.path.basename(p)]),
)
def test_injected_fault_witness_still_detects(path, monkeypatch):
    """The shrunk witness must keep catching the fault it was minimised for."""
    case, _ = load_repro(path)
    monkeypatch.setenv(FAULT_ENV, "bound-shave")
    result = run_case(case)
    assert result.disagreement is not None, (
        "the injected-fault witness no longer detects the shaved bound — "
        "the differential harness has lost sensitivity"
    )

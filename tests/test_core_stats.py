"""SearchStats: every field is reported and merged, none silently dropped."""

from dataclasses import fields

from repro.core.stats import SearchStats

#: Integer fields that merge by summing (``shared_bound`` is a maximum).
COUNTERS = [
    f.name for f in fields(SearchStats)
    if f.type in (int, "int") and f.name != "shared_bound"
]


class TestSearchStats:
    def test_to_dict_keys_are_the_field_names(self):
        names = [f.name for f in fields(SearchStats)]
        assert list(SearchStats().to_dict()) == names

    def test_to_dict_values(self):
        stats = SearchStats(nodes=3, elapsed=0.5, timed_out=True)
        payload = stats.to_dict()
        assert payload["nodes"] == 3
        assert payload["elapsed"] == 0.5
        assert payload["timed_out"] is True

    def test_merge_accumulates_every_int_counter(self):
        assert "nodes" in COUNTERS and "cache_hits" in COUNTERS
        a = SearchStats(**{name: i + 1 for i, name in enumerate(COUNTERS)})
        b = SearchStats(**{name: 10 * (i + 1) for i, name in enumerate(COUNTERS)})
        a.merge(b)
        for i, name in enumerate(COUNTERS):
            assert getattr(a, name) == 11 * (i + 1), name

    def test_merge_special_fields(self):
        a = SearchStats(shared_bound=7, elapsed=1.0, timed_out=False)
        a.merge(SearchStats(shared_bound=4, elapsed=0.5, timed_out=True))
        assert a.shared_bound == 7      # high-water mark, not a count
        assert a.elapsed == 1.5
        assert a.timed_out is True
        a.merge(SearchStats(shared_bound=9))
        assert a.shared_bound == 9
        assert a.timed_out is True      # sticky

"""SearchConfig validation and the Table 2 presets."""

import pytest

from repro.core.config import (
    SearchConfig,
    adv_enum_config,
    adv_enum_o_config,
    adv_max_config,
    adv_max_o_config,
    adv_max_ub_config,
    basic_enum_config,
    basic_max_config,
    be_cr_config,
    be_cr_et_config,
    color_kcore_max_config,
    resolve_enum_config,
    resolve_max_config,
)
from repro.exceptions import InvalidParameterError


class TestValidation:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.order == "delta1-then-delta2"
        assert cfg.bound == "kkprime"

    @pytest.mark.parametrize("field,value", [
        ("order", "alphabetical"),
        ("branch", "sideways"),
        ("maximal_check", "maybe"),
        ("check_order", "nope"),
        ("bound", "magic"),
        ("on_budget", "explode"),
    ])
    def test_bad_enum_values(self, field, value):
        with pytest.raises(InvalidParameterError):
            SearchConfig(**{field: value})

    def test_bad_numeric_values(self):
        with pytest.raises(InvalidParameterError):
            SearchConfig(lam=-1.0)
        with pytest.raises(InvalidParameterError):
            SearchConfig(time_limit=0)
        with pytest.raises(InvalidParameterError):
            SearchConfig(time_limit=float("nan"))
        with pytest.raises(InvalidParameterError):
            SearchConfig(node_limit=-5)

    def test_evolve(self):
        cfg = SearchConfig().evolve(order="degree", lam=2.0)
        assert cfg.order == "degree"
        assert cfg.lam == 2.0
        # Original unchanged (frozen dataclass).
        assert SearchConfig().order == "delta1-then-delta2"

    def test_needs_excluded_set(self):
        assert SearchConfig().needs_excluded_set
        assert not basic_enum_config().needs_excluded_set
        assert be_cr_et_config().needs_excluded_set


class TestPresets:
    def test_basic_enum_matches_table2(self):
        cfg = basic_enum_config()
        assert not cfg.retain_candidates
        assert not cfg.early_termination
        assert cfg.maximal_check == "pairwise"
        assert cfg.order == "delta1-then-delta2"  # "best order applied"

    def test_ablation_ladder(self):
        # Figure 9's ladder flips exactly one technique at a time.
        cr = be_cr_config()
        assert cr.retain_candidates and not cr.early_termination
        et = be_cr_et_config()
        assert et.retain_candidates and et.early_termination
        assert et.maximal_check == "pairwise"
        adv = adv_enum_config()
        assert adv.maximal_check == "search"

    def test_adv_enum_o_differs_only_in_order(self):
        adv = adv_enum_config()
        o = adv_enum_o_config()
        assert o.order == "degree"
        assert o.retain_candidates == adv.retain_candidates
        assert o.early_termination == adv.early_termination
        assert o.maximal_check == adv.maximal_check

    def test_max_presets(self):
        assert basic_max_config().bound == "naive"
        assert adv_max_config().bound == "kkprime"
        assert adv_max_ub_config().bound == "naive"
        assert adv_max_o_config().order == "degree"
        assert color_kcore_max_config().bound == "color-kcore"

    def test_max_presets_use_lambda_order(self):
        assert adv_max_config().order == "weighted-delta"
        assert basic_max_config().order == "weighted-delta"

    def test_preset_overrides(self):
        cfg = adv_enum_config(time_limit=5.0, seed=3)
        assert cfg.time_limit == 5.0
        assert cfg.seed == 3


class TestResolvers:
    @pytest.mark.parametrize("name", [
        "basic", "be+cr", "be+cr+et", "advanced", "advanced-o", "advanced-p",
    ])
    def test_enum_names(self, name):
        assert isinstance(resolve_enum_config(name), SearchConfig)

    def test_enum_names_case_insensitive(self):
        assert resolve_enum_config("AdVaNcEd") == adv_enum_config()

    def test_enum_unknown(self):
        with pytest.raises(InvalidParameterError):
            resolve_enum_config("wat")
        with pytest.raises(InvalidParameterError):
            resolve_enum_config("naive")  # handled by engine selection

    @pytest.mark.parametrize("name", [
        "basic", "advanced", "advanced-ub", "advanced-o", "color-kcore",
    ])
    def test_max_names(self, name):
        assert isinstance(resolve_max_config(name), SearchConfig)

    def test_max_unknown(self):
        with pytest.raises(InvalidParameterError):
            resolve_max_config("wat")

class TestQueryMode:
    def test_default_mode_exact(self):
        assert SearchConfig().mode == "exact"

    @pytest.mark.parametrize("mode", ["exact", "anytime", "heuristic"])
    def test_valid_modes(self, mode):
        assert SearchConfig(mode=mode).mode == mode

    def test_invalid_mode(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            SearchConfig(mode="psychic")

    def test_evolve_mode(self):
        cfg = basic_max_config().evolve(mode="anytime")
        assert cfg.mode == "anytime"

    def test_codec_round_trips_mode(self):
        from repro.store.codec import decode_config, encode_config
        cfg = SearchConfig(mode="heuristic")
        assert decode_config(encode_config(cfg)).mode == "heuristic"

"""Spec schema validation: every error names the exact spec path."""

import pytest

from repro.campaign import (SpecError, canonical_json, load_spec, spec_sha1,
                            validate_spec)
from repro.campaign.spec import concrete_job_spec, get_path, set_path

from .conftest import small_spec


def err(raw, source=None):
    with pytest.raises(SpecError) as excinfo:
        validate_spec(raw, source=source)
    return excinfo.value


class TestValidation:
    def test_minimal_spec_normalizes(self):
        spec = validate_spec(small_spec())
        assert spec["campaign"]["name"] == "unit"
        assert spec["mode"] == {"kernel": "auto"}
        assert spec["seeds"]["list"] == [3, 4]
        assert spec["traffic"]["kind"] == "saturate"

    def test_missing_name_names_path(self):
        error = err({"scenario": {"builder": "hidden_terminal",
                                  "horizon": 1.0}})
        assert error.path == "campaign.name"
        assert "missing" in str(error)

    def test_unknown_builder_lists_available(self):
        error = err(small_spec(scenario={"builder": "nope", "horizon": 1.0}))
        assert error.path == "scenario.builder"
        assert "hidden_terminal" in str(error)

    def test_unknown_builder_param_names_full_path(self):
        spec = small_spec()
        spec["scenario"]["params"] = {"statoins": 4}
        error = err(spec)
        assert error.path == "scenario.params.statoins"
        assert "stations" in str(error)  # suggests the accepted set

    def test_bool_is_not_an_int(self):
        spec = small_spec()
        spec["scenario"]["params"] = {"stations": True}
        assert err(spec).path == "scenario.params.stations"

    def test_bad_horizon(self):
        spec = small_spec()
        spec["scenario"] = dict(spec["scenario"], horizon=-1.0)
        assert err(spec).path == "scenario.horizon"

    def test_unknown_traffic_kind(self):
        assert err(small_spec(traffic={"kind": "burst"})).path \
            == "traffic.kind"

    def test_unknown_top_level_key(self):
        spec = small_spec()
        spec["scenari"] = {}
        assert err(spec).path == "(root).scenari"

    def test_adversary_requires_position(self):
        spec = small_spec(adversaries=[{"kind": "periodic_jammer"}])
        assert err(spec).path == "adversaries.0.position"

    def test_adversary_unknown_kind_indexed(self):
        spec = small_spec(adversaries=[
            {"kind": "periodic_jammer", "position": [0, 0, 0]},
            {"kind": "emp", "position": [0, 0, 0]}])
        assert err(spec).path == "adversaries.1.kind"

    def test_adversary_unknown_param(self):
        spec = small_spec(adversaries=[
            {"kind": "periodic_jammer", "position": [0, 0, 0],
             "burst_duration": 1e-3}])
        error = err(spec)
        assert error.path == "adversaries.0.burst_duration"
        assert "on_time" in str(error)

    def test_sweep_axis_must_resolve(self):
        spec = small_spec()
        spec["sweep"] = {"scenario.parms.stations": [2, 4]}
        error = err(spec)
        assert error.path == "sweep.scenario.parms.stations"
        assert "scenario.parms" in str(error)

    def test_sweep_axis_must_not_be_empty(self):
        spec = small_spec()
        spec["sweep"] = {"scenario.params.stations": []}
        assert err(spec).path == "sweep.scenario.params.stations"

    def test_duplicate_seeds_rejected(self):
        spec = small_spec(seeds={"list": [1, 2, 1]})
        assert err(spec).path == "seeds.list"

    def test_seed_count_must_be_positive(self):
        assert err(small_spec(seeds={"count": 0})).path == "seeds.count"

    def test_unknown_kernel(self):
        assert err(small_spec(mode={"kernel": "rust"})).path \
            == "mode.kernel"

    @pytest.mark.parametrize("profile", ["exact", "fast"])
    def test_retired_profile_is_refused_by_path(self, profile):
        error = err(small_spec(mode={"profile": profile}),
                    source="old.toml")
        assert error.path == "mode.profile"
        assert str(error).startswith("old.toml: mode.profile: ")

    def test_retired_differential_section_is_refused_by_path(self):
        spec = small_spec(differential={
            "reference": "other", "tolerances": {"pdr": {"abs": 0.0}}})
        assert err(spec).path == "differential"

    def test_source_prefixes_message(self):
        error = err({"campaign": {"name": "x"}}, source="bad.toml")
        assert str(error).startswith("bad.toml: ")


class TestLoader:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('[campaign]\nname = "c"\n'
                        '[scenario]\nbuilder = "hidden_terminal"\n'
                        'horizon = 0.25\nseed = 9\n')
        spec = load_spec(path)
        assert spec["scenario"]["builder"] == "hidden_terminal"
        assert spec["seeds"]["list"] == [9]

    def test_load_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"campaign": {"name": "c"}, "scenario": '
                        '{"builder": "hidden_terminal", "horizon": 0.25}}')
        assert load_spec(path)["campaign"]["name"] == "c"

    def test_toml_syntax_error_names_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[campaign\n")
        with pytest.raises(SpecError, match="broken.toml"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "absent.toml")


class TestCanonicalForm:
    def test_canonical_json_is_key_sorted_and_repr_floats(self):
        assert canonical_json({"b": 0.1, "a": 1}) == '{"a":1,"b":"0.1"}'

    def test_sha1_ignores_key_order(self):
        assert spec_sha1({"a": 1, "b": 2}) == spec_sha1({"b": 2, "a": 1})

    def test_paths(self):
        spec = validate_spec(small_spec())
        set_path(spec, "scenario.params.stations", 5)
        assert get_path(spec, "scenario.params.stations") == 5

    def test_concrete_job_spec_pins_axes_and_seed(self):
        spec = validate_spec(small_spec())
        job = concrete_job_spec(
            spec, {"scenario.params.rts_threshold_bytes": 256}, seed=9)
        assert job["scenario"]["params"]["rts_threshold_bytes"] == 256
        assert job["scenario"]["seed"] == 9
        assert "sweep" not in job and "seeds" not in job

    def test_concrete_job_spec_identity_excludes_grid_shape(self):
        narrow = validate_spec(small_spec(seeds={"count": 1}))
        wide = validate_spec(small_spec(seeds={"count": 2}))
        axes = {"scenario.params.rts_threshold_bytes": 2347}
        assert spec_sha1(concrete_job_spec(narrow, axes, 3)) \
            == spec_sha1(concrete_job_spec(wide, axes, 3))

    def test_concrete_job_spec_bad_axis_value_mentions_axis(self):
        spec = validate_spec(small_spec())
        with pytest.raises(SpecError, match="after applying sweep axes"):
            concrete_job_spec(
                spec, {"scenario.params.rts_threshold_bytes": "big"},
                seed=3)

import json

import pytest

from cachediff import config as cf
from cachediff.errors import ConfigError


def test_defaults_round_trip_through_dict():
    rc = cf.RunConfig()
    again = cf.config_from_dict(rc.to_dict())
    assert again == rc
    assert rc.schedule.T == 1000
    assert rc.schedule.steps == 40
    assert rc.mask == "frac:0.4"
    assert rc.strategy.variant == "baseline"


def test_to_dict_is_json_serializable():
    data = cf.RunConfig().to_dict()
    parsed = json.loads(json.dumps(data))
    assert parsed == data
    assert parsed["unet"]["base_channels"] == [16, 32, 48, 64]


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        cf.config_from_dict({"speed": 11})
    with pytest.raises(ConfigError):
        cf.config_from_dict({"schedule": {"Tmax": 10}})
    with pytest.raises(ConfigError):
        cf.config_from_dict({"schedule": 7})
    with pytest.raises(ConfigError):
        cf.config_from_dict({"mask": 3})
    with pytest.raises(ConfigError):
        cf.config_from_dict([1, 2])


def test_tuple_fields_coerce_from_lists():
    rc = cf.config_from_dict({"unet": {"base_channels": [4, 5, 6, 7],
                                       "removal_set": ["M"]}})
    assert rc.unet.base_channels == (4, 5, 6, 7)
    assert rc.unet.removal_set == ("M",)
    with pytest.raises(ConfigError):
        cf.config_from_dict({"unet": {"base_channels": "wide"}})


def test_section_values_must_have_their_fields_types():
    """An int field takes an int, a float field an int or a float, and only a bool
    field takes a bool."""
    rc = cf.config_from_dict({"schedule": {"t_thresh_fraction": 0, "beta_end": 0.03},
                              "strategy": {"estimation": False, "workers": 2}})
    assert rc.schedule.t_thresh_fraction == 0 and rc.strategy.estimation is False
    for section, name, value in [
        ("schedule", "T", True), ("schedule", "beta_start", False), ("schedule", "steps", 6.0),
        ("strategy", "estimation", 0), ("strategy", "variant", None), ("seeds", "weights", "0"),
        ("run", "out_dir", 3), ("unet", "attention_layers", "M"), ("unet", "base_channels", [4.0]),
    ]:
        with pytest.raises(ConfigError, match=f"{section}.{name} must be"):
            cf.config_from_dict({section: {name: value}})


def test_build_helpers_reflect_schedule_section():
    rc = cf.config_from_dict({"schedule": {"T": 60, "steps": 6, "block_size": 2}})
    sched = rc.build_schedule()
    assert sched.T == 60
    plan = rc.build_plan(sched)
    assert len(plan.sampled) == 6
    assert all(len(b.members) <= 2 for b in plan.blocks)


def test_override_coercion_by_field_type():
    data = cf.RunConfig().to_dict()
    cf.apply_overrides(data, [
        "schedule.steps=12",
        "schedule.beta_end=0.03",
        "strategy.estimation=off",
        "strategy.variant=lcp",
        "unet.base_channels=8,16,24,32",
        "mask=frac:1.0",
    ])
    rc = cf.config_from_dict(data)
    assert rc.schedule.steps == 12
    assert rc.schedule.beta_end == 0.03
    assert rc.strategy.estimation is False
    assert rc.strategy.variant == "lcp"
    assert rc.unet.base_channels == (8, 16, 24, 32)
    assert rc.mask == "frac:1.0"


def test_override_errors():
    data = cf.RunConfig().to_dict()
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["schedule.steps"])
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["schedule.missing=1"])
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["nowhere.steps=1"])
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["schedule.steps=soon"])
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["schedule.beta_end=wide"])
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["strategy.estimation=maybe"])
    with pytest.raises(ConfigError):
        cf.apply_overrides(data, ["unet.base_channels=a,b"])


def test_load_config_merges_partial_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schedule": {"steps": 10}, "mask": "frac:0.25"}))
    rc = cf.load_config(path)
    assert rc.schedule.steps == 10
    assert rc.schedule.T == 1000
    assert rc.mask == "frac:0.25"
    assert rc.unet == cf.UNetConfig()


def test_load_config_defaults_and_sets(tmp_path):
    rc = cf.load_config(None, ["run.total_frames=9"])
    assert rc.run.total_frames == 9
    assert rc.schedule == cf.ScheduleConfig()
    with pytest.raises(ConfigError):
        cf.load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        cf.load_config(bad)


def test_run_section_validates_total_frames():
    with pytest.raises(ConfigError):
        cf.RunSection(total_frames=0)

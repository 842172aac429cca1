"""Config loading, deep-merge override behavior, schema rejection."""

import copy
import json

import numpy as np
import pytest

from lambkit import config
from lambkit.config import (
    CONFIG_SCHEMA,
    ChipConfig,
    LayerMap,
    MatchingConfig,
    ReticleConfig,
    ToolkitConfig,
    VariationConfig,
    WaferConfig,
    _deep_merge,
    default_config_dict,
    load_catalog,
    load_config,
)
from lambkit.errors import ConfigError, packaged_json
from lambkit.record import fields


def test_load_config_reads_the_packaged_defaults_once(monkeypatch):
    read = []

    def counted(name):
        read.append(name)
        return packaged_json(name)

    monkeypatch.setattr(config, "packaged_json", counted)
    cfg = load_config()
    assert read == ["default_config.json"]
    assert cfg == ToolkitConfig.from_dict(default_config_dict())


def test_default_config_loads():
    cfg = ToolkitConfig.default()
    assert cfg.material.v_l > cfg.material.v_t > 0
    assert cfg.plate.h == pytest.approx(400e-9)
    assert cfg.eps_r == 16.0
    assert cfg.matching.target_impedance_ohm == 200.0
    assert cfg.wafer.diameter_m == 0.1
    assert set(cfg.variation.mode_quality) == {"A0", "S0", "A1", "S1"}


def test_partial_override_merges(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"capacitance": {"eps_r": 12.0}, "seed": 7}))
    cfg = load_config(p)
    assert cfg.eps_r == 12.0
    assert cfg.seed == 7
    # untouched sections keep packaged defaults
    assert cfg.matching.max_fingers == 1000


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"capacitanse": {"eps_r": 12.0}}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_value_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"material": {"v_l_m_s": -5.0}}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_duplicate_layer_ids_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"layers": {"small_idt": 3, "pads": 3}}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_catalog_loads():
    cat = load_catalog()
    pitches = cat["pitches_m"]
    assert pitches[0] == pytest.approx(500e-9)
    assert pitches[-1] == pytest.approx(4.5e-6)
    counts = {c["pitch_m"]: c["n_fingers"] for c in cat["reference_finger_counts"]}
    assert counts[5.0e-7] == 192
    assert counts[4.0e-6] == 44


@pytest.mark.parametrize("pitches, index", [
    (["abc", 2e-6], 0),
    ([1e-6, True], 1),
    ([1e-6, None], 1),
    ([1e-6, float("nan")], 1),
    ([1e-6, -2e-6], 1),
])
def test_catalog_names_the_bad_pitch(tmp_path, pitches, index):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps({"pitches_m": pitches}))
    with pytest.raises(ConfigError, match=rf"pitches_m\[{index}\]"):
        load_catalog(p)


def test_catalog_rejects_unsorted(tmp_path):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps({"pitches_m": [2e-6, 1e-6]}))
    with pytest.raises(ConfigError):
        load_catalog(p)


@pytest.mark.parametrize("doc, message", [
    ({"zeta": 1, "alpha": {}},
     "<root>: Additional properties are not allowed ('alpha', 'zeta' were unexpected)"),
    ({"chip": {"margin_m": -1.0}, "bogus": 1},
     "<root>: Additional properties are not allowed ('bogus' was unexpected)"),
    ({"material": {"v_l_m_s": 0}, "plate": {"thickness_m": "x"}},
     "plate/thickness_m: 'x' is not of type 'number'"),
    ({"chip": {"margin_m": -1.0, "spacing_m": -2.0}},
     "chip/spacing_m: -2.0 is less than the minimum of 0"),
    ({"chip": {"width_m": True}}, "chip/width_m: True is not of type 'number'"),
    ({"seed": True}, "seed: True is not of type 'integer'"),
    # the stepper's 4x reduction is layout.DEMAG, not a setting
    ({"reticle": {"demag": 4}}, "reticle: Additional properties are not allowed ('demag' was unexpected)"),
    ({"matching": {"dummy_count_per_side": 3.0}}, None),
    # the Rayleigh-Lamb equation holds no density, and the plate needs no label
    ({"material": {"rho_kg_m3": 3300.0, "name": "x"}},
     "material: Additional properties are not allowed ('name', 'rho_kg_m3' were unexpected)"),
    ({"layers": {"pads": 256}}, "layers/pads: 256 is greater than the maximum of 255"),
    ({"variation": {"mode_quality": {"S0": {"k_eff_sq": 1}}}},
     "variation/mode_quality/S0/k_eff_sq: 1 is greater than or equal to the maximum of 1"),
    ({"reticle": {"image_field_m": [-1.0]}}, "reticle/image_field_m: [-1.0] is too short"),
    ({"wafer": {"grid_anchor_m": [0, 0, 0]}}, "wafer/grid_anchor_m: [0, 0, 0] is too long"),
    ({"reticle": {"image_field_m": [1.0, -1.0]}},
     "reticle/image_field_m/1: -1.0 is less than or equal to the minimum of 0"),
    # --full-resolve is the one switch for a per-site re-solve
    ({"variation": {"full_resolve": False}},
     "variation: Additional properties are not allowed ('full_resolve' was unexpected)"),
    ({"material": []}, "material: [] is not of type 'object'"),
    ({"chip": {"margin_m": float("nan")}}, "chip/margin_m: nan is not of type 'number'"),
    ({"seed": float("inf")}, "seed: inf is not of type 'integer'"),
    ({"plate": {"thickness_m": float("-inf")}}, "plate/thickness_m: -inf is not of type 'number'"),
    # JSON integers have no size limit; this one has no float value
    ({"plate": {"thickness_m": 10**400}}, f"plate/thickness_m: {10**400} is not of type 'number'"),
    # the stepper's 22 mm image field, whose one home is the schema
    ({"reticle": {"image_field_m": [0.02, 0.03], "demag": 4.0}},
     "reticle: Additional properties are not allowed ('demag' was unexpected)"),
    ({"reticle": {"image_field_m": [0.02, 0.03]}},
     "reticle/image_field_m/1: 0.03 is greater than the maximum of 0.022"),
])
def test_config_error_selection(doc, message):
    if message is None:
        assert ToolkitConfig.from_dict(doc) == ToolkitConfig.default()
        return
    with pytest.raises(ConfigError) as exc:
        ToolkitConfig.from_dict(doc)
    assert str(exc.value) == f"config invalid at {message}"


def test_material_check_across_fields_is_a_config_error():
    with pytest.raises(ConfigError, match="transverse velocity must be below longitudinal"):
        ToolkitConfig.from_dict({"material": {"v_t_m_s": 1e6}})


def test_integer_fields_are_stored_as_int():
    cfg = ToolkitConfig.from_dict({"seed": 7.0, "layers": {"small_idt": 9.0},
                                   "matching": {"max_fingers": 50.0}})
    for value in (cfg.seed, cfg.layers.small_idt, cfg.matching.max_fingers):
        assert type(value) is int
    assert cfg.wafer.keepout_m == (-0.009, -0.009, 0.009, 0.009)


SECTIONS = {"matching": MatchingConfig, "layers": LayerMap, "chip": ChipConfig,
            "wafer": WaferConfig, "reticle": ReticleConfig, "variation": VariationConfig}


@pytest.mark.parametrize("section", SECTIONS)
def test_schema_dataclass_and_defaults_name_the_same_fields(section):
    # a dataclass field with no packaged default would reach the constructor
    # as a missing argument: a TypeError, not a ConfigError
    names = [f.name for f in fields(SECTIONS[section])]
    assert list(CONFIG_SCHEMA["properties"][section]["properties"]) == names
    assert sorted(default_config_dict()[section]) == sorted(names)


def test_config_schema_is_a_valid_schema():
    validators = pytest.importorskip("jsonschema.validators")
    validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


_BAD_VALUES = ("x", -1, 0, -1e300, 1e300, 2.5, True, None, [], {}, [1.0], [-1.0, 2.0, 3.0])


def _mutate(doc, rng):
    """Apply one random edit to a random node of a config document."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = keys[int(rng.integers(len(keys)))]
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or rng.random() < 0.25:
            break
        node = child
    roll = rng.random()
    if roll < 0.15 and isinstance(node, dict):
        node[f"unknown_{int(rng.integers(100))}"] = 1
    elif roll < 0.25 and isinstance(node, list):
        node.append(node[-1])
    else:
        node[key] = copy.deepcopy(_BAD_VALUES[int(rng.integers(len(_BAD_VALUES)))])


def test_config_errors_match_jsonschema_validate():
    jsonschema = pytest.importorskip("jsonschema")
    rng = np.random.default_rng(5150)
    n_invalid = 0
    for _ in range(120):
        doc = default_config_dict()
        for _ in range(int(rng.integers(1, 4))):
            _mutate(doc, rng)
        try:
            jsonschema.validate(_deep_merge(default_config_dict(), doc), CONFIG_SCHEMA)
            want = None
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            want = f"config invalid at {path}: {exc.message}"
        try:
            ToolkitConfig.from_dict(doc)
            got = None
        except ConfigError as exc:
            got = str(exc)
        if want is None:
            # valid for the schema; a semantic check may still reject it
            assert got is None or not got.startswith("config invalid at"), got
        else:
            n_invalid += 1
            assert got == want
    assert n_invalid > 90

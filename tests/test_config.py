"""Config loading, deep-merge override behavior, schema rejection."""

import json

import pytest

from lambkit.config import ToolkitConfig, load_catalog, load_config
from lambkit.errors import ConfigError


def test_default_config_loads():
    cfg = ToolkitConfig.default()
    assert cfg.material.v_l > cfg.material.v_t > 0
    assert cfg.plate.h == pytest.approx(400e-9)
    assert cfg.eps_r == 16.0
    assert cfg.matching.target_impedance_ohm == 200.0
    assert cfg.wafer.diameter_m == 0.1
    assert cfg.reticle.demag == 4
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

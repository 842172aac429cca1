"""Resonator synthesis: capacitance model, matching, dose, layer split."""

import math

import pytest

from lambkit import design
from lambkit.config import ToolkitConfig, load_catalog
from lambkit.design import (
    IdtSpec,
    LayerBand,
    layer_assignment,
    match_finger_count,
    recommend_dose,
    static_capacitance,
)
from lambkit.dispersion import PlateSpec
from lambkit.errors import DesignError, DoseRangeError, InputError, LayerAssignmentError
from lambkit.layout import gen_device_cells
from lambkit.record import replace

CFG = ToolkitConfig.default()
EPS_R, H = 16.0, 400e-9


def make_idt(n=2, pitch=500e-9, dummies=0):
    return IdtSpec(pitch=pitch, n_fingers=n, dummy_count_per_side=dummies)


def with_settings(**sections) -> ToolkitConfig:
    """The packaged config with the given sections' keys overridden, as a
    config file would."""
    return ToolkitConfig.from_dict(sections)


def test_idt_invariants():
    idt = make_idt(pitch=500e-9)
    assert idt.wavelength == 1e-6
    assert idt.finger_width == 250e-9
    assert idt.aperture == pytest.approx(10e-6, rel=1e-15)
    assert idt.gap == 500e-9
    with pytest.raises(ValueError):
        make_idt(n=1)
    with pytest.raises(ValueError):
        make_idt(n=3)
    with pytest.raises(ValueError):
        IdtSpec(pitch=-1.0, n_fingers=2, dummy_count_per_side=0)
    with pytest.raises(ValueError):
        make_idt(dummies=-1)


def test_aperture_and_gap_follow_the_wavelength_rule_bit_for_bit():
    for pitch in load_catalog()["pitches_m"]:
        idt = make_idt(pitch=pitch)
        wavelength = 2.0 * pitch
        assert idt.aperture.hex() == (10.0 * wavelength).hex(), pitch
        assert idt.gap.hex() == (wavelength / 2.0).hex(), pitch


def test_capacitance_model_validation():
    with pytest.raises(InputError, match="^eps_r must exceed 1$"):
        static_capacitance(make_idt(), 1.0, H)
    with pytest.raises(InputError):
        PlateSpec(material=CFG.plate.material, h=0.0)


def test_static_capacitance_oracle():
    # c_f = eps0*16*(10e-6 * 0.25e-6)/4e-7 = 8.854e-16 F, C0 = c_f/4 for n=2
    c0 = static_capacitance(make_idt(), EPS_R, H)
    assert c0 == pytest.approx(8.8541878128e-12 * 16 * (10e-6 * 0.25e-6) / 4e-7 / 4.0, rel=1e-12)
    assert c0 == pytest.approx(4.427e-16, rel=1e-3)


def test_static_capacitance_scalings():
    base = static_capacitance(make_idt(n=2), EPS_R, H)
    assert static_capacitance(make_idt(n=4), EPS_R, H) == pytest.approx(2 * base, rel=1e-14)
    assert static_capacitance(make_idt(), EPS_R, 2 * H) == pytest.approx(base / 2, rel=1e-14)


def test_recommend_dose_steps():
    assert recommend_dose(250e-9) == 21.75
    assert recommend_dose(251e-9) == 21.75  # within the 1 nm tolerance
    assert recommend_dose(252.1e-9) == 20.50
    assert recommend_dose(500e-9) == 20.50
    assert recommend_dose(2.25e-6) == 20.50
    with pytest.raises(DoseRangeError):
        recommend_dose(249e-9)
    with pytest.raises(DoseRangeError):
        recommend_dose(2.26e-6)


def test_layer_assignment_bands():
    assert layer_assignment(500e-9) is LayerBand.SMALL
    assert layer_assignment(1.0e-6) is LayerBand.SMALL
    assert layer_assignment(1.5e-6) is LayerBand.LARGE
    assert layer_assignment(4.5e-6) is LayerBand.LARGE
    with pytest.raises(LayerAssignmentError) as exc:
        layer_assignment(1.2e-6)
    assert "pitch 1.2e-06 m " in str(exc.value)
    with pytest.raises(LayerAssignmentError):
        layer_assignment(400e-9)
    with pytest.raises(LayerAssignmentError):
        layer_assignment(5e-6)


def test_range_messages_follow_the_design_constants(monkeypatch):
    with pytest.raises(DoseRangeError, match=r"range \[250 nm, 2250 nm\]$"):
        recommend_dose(2.26e-6)
    with pytest.raises(LayerAssignmentError, match=r"interval \(1000 nm, 1500 nm\) "):
        layer_assignment(1.2e-6)
    with pytest.raises(LayerAssignmentError, match=r"range \[500 nm, 4500 nm\]$"):
        layer_assignment(5e-6)
    monkeypatch.setattr(design, "DOSE_WIDTH_MAX", 3e-6)
    monkeypatch.setattr(design, "LARGE_PITCH_RANGE", (1.75e-6, 6e-6))
    with pytest.raises(DoseRangeError, match=r"range \[250 nm, 3000 nm\]$"):
        recommend_dose(3.1e-6)
    with pytest.raises(LayerAssignmentError, match=r"interval \(1000 nm, 1750 nm\) "):
        layer_assignment(1.6e-6)
    with pytest.raises(LayerAssignmentError, match=r"range \[500 nm, 6000 nm\]$"):
        layer_assignment(7e-6)


def test_match_pitch_2um_regression():
    # frozen from the reference dispersion scan plus the C0 arithmetic:
    # f_S0(k = pi/2um) = 1.441829 GHz, c_f = 1.4167e-14 F -> n = 156
    assert (CFG.eps_r, CFG.plate.h, CFG.matching.target_impedance_ohm) == (EPS_R, H, 200.0)
    d = match_finger_count(2e-6, CFG, "S0")
    assert d.f_mid == pytest.approx(1.441829e9, rel=1e-4)
    assert d.idt.n_fingers == 156
    assert d.achieved_impedance == pytest.approx(199.79, abs=0.05)
    assert d.layer is LayerBand.LARGE
    assert d.dose == 20.50


def test_match_quantization_step():
    # chosen count lands at or below target, one fewer pair lands above
    d = match_finger_count(2e-6, CFG, "S0")
    n = d.idt.n_fingers
    assert d.achieved_impedance <= d.target_impedance
    fewer = 1.0 / (
        2.0 * math.pi * d.f_mid
        * static_capacitance(replace(d.idt, n_fingers=n - 2), CFG.eps_r, CFG.plate.h)
    )
    assert fewer > d.target_impedance


def test_match_aperture_and_gap_rules():
    d = match_finger_count(1.5e-6, CFG, "S0")
    assert d.idt.aperture == pytest.approx(10 * d.idt.wavelength, rel=1e-15)
    assert d.idt.gap == pytest.approx(d.idt.wavelength / 2.0, rel=1e-15)
    assert d.idt.finger_width == pytest.approx(d.idt.pitch / 2.0, rel=1e-15)


def test_match_huge_target_gives_minimum_idt():
    d = match_finger_count(2e-6, with_settings(matching={"target_impedance_ohm": 1e9}), "S0")
    assert d.idt.n_fingers == 2


def test_match_monotone_in_eps_and_aperture():
    n16 = match_finger_count(2e-6, CFG, "S0").idt.n_fingers
    n32 = match_finger_count(2e-6, with_settings(capacitance={"eps_r": 32.0}), "S0").idt.n_fingers
    assert n32 <= n16


def test_match_finger_cap():
    cfg = with_settings(matching={"target_impedance_ohm": 0.1, "max_fingers": 100})
    with pytest.raises(DesignError):
        match_finger_count(2e-6, cfg, "S0")


def test_match_reads_its_settings_from_the_config():
    with pytest.raises(DesignError, match="over the cap of 2$"):
        match_finger_count(2e-6, with_settings(matching={"max_fingers": 2}), "S0")
    d = match_finger_count(2e-6, with_settings(matching={"dummy_count_per_side": 0}), "S0")
    assert d.idt.dummy_count_per_side == 0
    cell, _, _ = gen_device_cells(d, CFG.layers)
    fingers = [p for p in cell.polygons if p.layer == CFG.layers.large_idt]
    assert len(fingers) == d.idt.n_fingers + 2  # the fingers and two busbars, no dummy
    d = match_finger_count(2e-6, CFG, "A0")
    assert (d.mode, d.design_id) == ("A0", "A0_p2000nm")


def test_match_refuses_an_in_process_eps_r_of_one():
    with pytest.raises(InputError, match="^eps_r must exceed 1$"):
        match_finger_count(2e-6, replace(CFG, eps_r=1.0), "S0")
    # a MatchingConfig built in process has no schema bounds
    no_target = replace(CFG, matching=replace(CFG.matching, target_impedance_ohm=0.0))
    with pytest.raises(InputError, match="^target impedance must be positive$"):
        match_finger_count(2e-6, no_target, "S0")


def test_design_serialization():
    d = match_finger_count(2e-6, CFG, "S0")
    out = d.to_dict()
    assert out["layer"] == "LARGE"
    assert out["n_fingers"] == d.idt.n_fingers
    assert out["design_id"] == "S0_p2000nm"

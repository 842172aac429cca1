"""Resonator synthesis: capacitance model, matching, dose, layer split."""

import math

import pytest

from lambkit import design
from lambkit.config import ToolkitConfig
from lambkit.design import (
    CapacitanceModel,
    IdtSpec,
    LayerBand,
    layer_assignment,
    match_finger_count,
    recommend_dose,
    static_capacitance,
)
from lambkit.errors import DesignError, DoseRangeError, LayerAssignmentError

CFG = ToolkitConfig.default()
CAP = CapacitanceModel(eps_r=16.0, h_piezo=400e-9)


def make_idt(n=2, pitch=500e-9, aperture=10e-6, dummies=0):
    return IdtSpec(
        pitch=pitch,
        aperture=aperture,
        gap=pitch,
        n_fingers=n,
        dummy_count_per_side=dummies,
    )


def test_idt_invariants():
    idt = make_idt(pitch=500e-9)
    assert idt.wavelength == 1e-6
    assert idt.finger_width == 250e-9
    with pytest.raises(ValueError):
        make_idt(n=1)
    with pytest.raises(ValueError):
        make_idt(n=3)
    with pytest.raises(ValueError):
        IdtSpec(pitch=-1.0, aperture=1e-6, gap=0.0, n_fingers=2)


def test_capacitance_model_validation():
    with pytest.raises(ValueError):
        CapacitanceModel(eps_r=1.0, h_piezo=400e-9)
    with pytest.raises(ValueError):
        CapacitanceModel(eps_r=16.0, h_piezo=0.0)


def test_static_capacitance_oracle():
    # c_f = eps0*16*(10e-6 * 0.25e-6)/4e-7 = 8.854e-16 F, C0 = c_f/4 for n=2
    c0 = static_capacitance(make_idt(), CAP)
    assert c0 == pytest.approx(8.8541878128e-12 * 16 * (10e-6 * 0.25e-6) / 4e-7 / 4.0, rel=1e-12)
    assert c0 == pytest.approx(4.427e-16, rel=1e-3)


def test_static_capacitance_scalings():
    base = static_capacitance(make_idt(n=2), CAP)
    assert static_capacitance(make_idt(n=4), CAP) == pytest.approx(2 * base, rel=1e-14)
    thick = CapacitanceModel(eps_r=16.0, h_piezo=800e-9)
    assert static_capacitance(make_idt(), thick) == pytest.approx(base / 2, rel=1e-14)


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
    d = match_finger_count(2e-6, CFG.plate, CAP, mode="S0", target_impedance=200.0)
    assert d.f_mid == pytest.approx(1.441829e9, rel=1e-4)
    assert d.idt.n_fingers == 156
    assert d.achieved_impedance == pytest.approx(199.79, abs=0.05)
    assert d.layer is LayerBand.LARGE
    assert d.dose == 20.50


def test_match_quantization_step():
    # chosen count lands at or below target, one fewer pair lands above
    d = match_finger_count(2e-6, CFG.plate, CAP)
    n = d.idt.n_fingers
    assert d.achieved_impedance <= d.target_impedance
    fewer = 1.0 / (
        2.0 * math.pi * d.f_mid
        * static_capacitance(
            IdtSpec(pitch=2e-6, aperture=d.idt.aperture, gap=d.idt.gap, n_fingers=n - 2),
            CAP,
        )
    )
    assert fewer > d.target_impedance


def test_match_aperture_and_gap_rules():
    d = match_finger_count(1.5e-6, CFG.plate, CAP)
    assert d.idt.aperture == pytest.approx(10 * d.idt.wavelength, rel=1e-15)
    assert d.idt.gap == pytest.approx(d.idt.wavelength / 2.0, rel=1e-15)
    assert d.idt.finger_width == pytest.approx(d.idt.pitch / 2.0, rel=1e-15)


def test_match_huge_target_gives_minimum_idt():
    d = match_finger_count(2e-6, CFG.plate, CAP, target_impedance=1e9)
    assert d.idt.n_fingers == 2


def test_match_monotone_in_eps_and_aperture():
    n16 = match_finger_count(2e-6, CFG.plate, CAP).idt.n_fingers
    n32 = match_finger_count(
        2e-6, CFG.plate, CapacitanceModel(eps_r=32.0, h_piezo=400e-9)
    ).idt.n_fingers
    assert n32 <= n16


def test_match_finger_cap():
    with pytest.raises(DesignError):
        match_finger_count(2e-6, CFG.plate, CAP, target_impedance=0.1, max_fingers=100)


def test_design_serialization():
    d = match_finger_count(2e-6, CFG.plate, CAP)
    out = d.to_dict()
    assert out["layer"] == "LARGE"
    assert out["n_fingers"] == d.idt.n_fingers
    assert out["design_id"] == "S0_p2000nm"

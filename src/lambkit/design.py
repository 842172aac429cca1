"""Resonator synthesis: aperture, finger count for impedance matching,
exposure layer split, and dose lookup.

The static-capacitance model is a deliberate simplification: each finger
forms a vertical parallel-plate capacitor to the floating bottom electrode,
adjacent opposite-polarity fingers couple in series through that plate
(c_f/2 per pair), and the pairs add in parallel:

    c_f = eps0 * eps_r * (aperture * finger_width) / h
    C0  = (n_fingers / 2) * (c_f / 2)

with h the film thickness.  Fringing fields and busbar/pad parasitics are
ignored; eps_r and h are config settings.  The as-fabricated finger counts
shipped in the design catalog are reference metadata and are not
reproduced by this model.
"""

from __future__ import annotations

import math
from enum import Enum

from .config import ToolkitConfig
from .dispersion import pitch_to_frequency
from .errors import DesignError, DoseRangeError, InputError, LayerAssignmentError
from .record import dataclass, replace

__all__ = [
    "EPS0",
    "IdtSpec",
    "ResonatorDesign",
    "LayerBand",
    "static_capacitance",
    "match_finger_count",
    "recommend_dose",
    "layer_assignment",
]

EPS0 = 8.8541878128e-12  # F/m

# exposure dose plateau and the bump needed at the resolution limit
DOSE_SMALL_MJ_CM2 = 21.75
DOSE_PLATEAU_MJ_CM2 = 20.50
DOSE_STEP_WIDTH = 250e-9
DOSE_STEP_TOL = 1e-9
DOSE_WIDTH_MIN = 250e-9
DOSE_WIDTH_MAX = 2.25e-6

# pitch bands for the split IDT exposures
SMALL_PITCH_RANGE = (500e-9, 1.0e-6)
LARGE_PITCH_RANGE = (1.5e-6, 4.5e-6)

APERTURE_WAVELENGTHS = 10.0  # aperture = 10 * wavelength


class LayerBand(Enum):
    SMALL = "SMALL"
    LARGE = "LARGE"


@dataclass(frozen=True)
class IdtSpec:
    """Interdigitated transducer geometry.  All lengths in meters.  The
    aperture, gap and finger width are fixed proportions of the pitch."""

    pitch: float
    n_fingers: int
    dummy_count_per_side: int

    def __post_init__(self):
        if self.pitch <= 0:
            raise InputError("pitch must be positive")
        if self.n_fingers < 2 or self.n_fingers % 2:
            raise InputError("n_fingers must be even and >= 2")
        if self.dummy_count_per_side < 0:
            raise InputError("dummy_count_per_side must be >= 0")

    @property
    def wavelength(self) -> float:
        return 2.0 * self.pitch

    @property
    def finger_width(self) -> float:
        # metallization ratio fixed at 0.5
        return self.pitch / 2.0

    @property
    def aperture(self) -> float:
        return APERTURE_WAVELENGTHS * self.wavelength

    @property
    def gap(self) -> float:
        return self.wavelength / 2.0


@dataclass(frozen=True)
class ResonatorDesign:
    idt: IdtSpec
    mode: str
    f_mid: float
    target_impedance: float
    achieved_impedance: float
    c0_estimate: float
    layer: LayerBand
    dose: float

    def __post_init__(self):
        if self.f_mid <= 0 or self.c0_estimate <= 0:
            raise InputError("f_mid and c0_estimate must be positive")
        if self.target_impedance <= 0 or self.achieved_impedance <= 0:
            raise InputError("impedances must be positive")

    @property
    def design_id(self) -> str:
        return f"{self.mode}_p{round(self.idt.pitch * 1e9)}nm"

    def to_dict(self) -> dict:
        return {
            "design_id": self.design_id,
            "mode": self.mode,
            "pitch_m": self.idt.pitch,
            "wavelength_m": self.idt.wavelength,
            "finger_width_m": self.idt.finger_width,
            "aperture_m": self.idt.aperture,
            "gap_m": self.idt.gap,
            "n_fingers": self.idt.n_fingers,
            "dummy_count_per_side": self.idt.dummy_count_per_side,
            "f_mid_hz": self.f_mid,
            "target_impedance_ohm": self.target_impedance,
            "achieved_impedance_ohm": self.achieved_impedance,
            "c0_estimate_f": self.c0_estimate,
            "layer": self.layer.value,
            "dose_mj_cm2": self.dose,
        }


def _finger_capacitance(idt: IdtSpec, eps_r: float, h: float) -> float:
    """c_f of one finger of idt over the floating bottom metal, in Farads."""
    if eps_r <= 1:
        raise InputError("eps_r must exceed 1")
    return EPS0 * eps_r * (idt.aperture * idt.finger_width) / h


def static_capacitance(idt: IdtSpec, eps_r: float, h: float) -> float:
    """Static IDT capacitance under the vertical-field model, in Farads, for a
    piezoelectric film of relative permittivity eps_r and thickness h."""
    return (idt.n_fingers / 2.0) * (_finger_capacitance(idt, eps_r, h) / 2.0)


def recommend_dose(finger_width: float) -> float:
    """Exposure dose (mJ/cm^2) for a finger width in the fabricated range."""
    if not (DOSE_WIDTH_MIN <= finger_width <= DOSE_WIDTH_MAX):
        raise DoseRangeError(
            f"finger width {finger_width * 1e9:.1f} nm outside the "
            f"calibrated range [{DOSE_WIDTH_MIN * 1e9:g} nm, {DOSE_WIDTH_MAX * 1e9:g} nm]"
        )
    if finger_width <= DOSE_STEP_WIDTH + DOSE_STEP_TOL:
        return DOSE_SMALL_MJ_CM2
    return DOSE_PLATEAU_MJ_CM2


def layer_assignment(pitch: float) -> LayerBand:
    """Which of the two split IDT exposures a pitch belongs to."""
    if SMALL_PITCH_RANGE[0] <= pitch <= SMALL_PITCH_RANGE[1]:
        return LayerBand.SMALL
    if LARGE_PITCH_RANGE[0] <= pitch <= LARGE_PITCH_RANGE[1]:
        return LayerBand.LARGE
    if SMALL_PITCH_RANGE[1] < pitch < LARGE_PITCH_RANGE[0]:
        raise LayerAssignmentError(
            f"pitch {pitch!r} m falls in the unassigned interval "
            f"({SMALL_PITCH_RANGE[1] * 1e9:g} nm, {LARGE_PITCH_RANGE[0] * 1e9:g} nm) "
            f"between the exposure bands"
        )
    raise LayerAssignmentError(
        f"pitch {pitch!r} m outside the catalog range "
        f"[{SMALL_PITCH_RANGE[0] * 1e9:g} nm, {LARGE_PITCH_RANGE[1] * 1e9:g} nm]"
    )


def match_finger_count(pitch: float, cfg: ToolkitConfig, mode: str) -> ResonatorDesign:
    """Smallest even finger count whose static reactance crosses the target,
    on the plate, eps_r and matching settings of cfg.

    f_mid is the solved mode frequency at k = pi / pitch.  The achieved
    impedance lands within one finger-pair quantization step below the target.
    """
    matching = cfg.matching
    target = matching.target_impedance_ohm
    if target <= 0:  # a MatchingConfig built in process has no schema bounds
        raise InputError("target impedance must be positive")
    layer = layer_assignment(pitch)
    f_mid = pitch_to_frequency(pitch, mode, cfg.plate)
    pair = IdtSpec(pitch, 2, matching.dummy_count_per_side)
    c_f = _finger_capacitance(pair, cfg.eps_r, cfg.plate.h)
    # need C0 = n c_f / 4 >= 1/(2 pi f Z)
    c0_needed = 1.0 / (2.0 * math.pi * f_mid * target)
    n_exact = 4.0 * c0_needed / c_f
    n = max(2, 2 * math.ceil(n_exact / 2.0))
    if n > matching.max_fingers:
        raise DesignError(
            f"matching pitch {pitch * 1e9:.0f} nm needs {n} fingers, "
            f"over the cap of {matching.max_fingers}"
        )
    idt = replace(pair, n_fingers=n)
    c0 = static_capacitance(idt, cfg.eps_r, cfg.plate.h)
    achieved = 1.0 / (2.0 * math.pi * f_mid * c0)
    return ResonatorDesign(
        idt=idt,
        mode=mode,
        f_mid=f_mid,
        target_impedance=target,
        achieved_impedance=achieved,
        c0_estimate=c0,
        layer=layer,
        dose=recommend_dose(idt.finger_width),
    )

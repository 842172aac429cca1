"""Resonator synthesis: aperture, finger count for impedance matching,
exposure layer split, and dose lookup.

The static-capacitance model is a deliberate simplification: each finger
forms a vertical parallel-plate capacitor to the floating bottom electrode,
adjacent opposite-polarity fingers couple in series through that plate
(c_f/2 per pair), and the pairs add in parallel:

    c_f = eps0 * eps_r * (aperture * finger_width) / h_piezo
    C0  = (n_fingers / 2) * (c_f / 2)

Fringing fields and busbar/pad parasitics are ignored; eps_r is a config
parameter.  The as-fabricated finger counts shipped in the design catalog
are reference metadata and are not reproduced by this model.
"""

from __future__ import annotations

import math
from enum import Enum

from .dispersion import PlateSpec, pitch_to_frequency
from .errors import DesignError, DoseRangeError, InputError, LayerAssignmentError
from .record import dataclass

__all__ = [
    "EPS0",
    "IdtSpec",
    "CapacitanceModel",
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
    """Interdigitated transducer geometry.  All lengths in meters."""

    pitch: float
    aperture: float
    gap: float
    n_fingers: int
    dummy_count_per_side: int = 3

    def __post_init__(self):
        if self.pitch <= 0:
            raise InputError("pitch must be positive")
        if self.aperture <= 0:
            raise InputError("aperture must be positive")
        if self.gap < 0:
            raise InputError("gap must be >= 0")
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


@dataclass(frozen=True)
class CapacitanceModel:
    """Vertical-field plate-capacitor model through the floating bottom metal."""

    eps_r: float
    h_piezo: float

    def __post_init__(self):
        if self.eps_r <= 1:
            raise InputError("eps_r must exceed 1")
        if self.h_piezo <= 0:
            raise InputError("h_piezo must be positive")

    def finger_capacitance(self, aperture: float, finger_width: float) -> float:
        """c_f of one finger over the floating bottom metal, in Farads."""
        return EPS0 * self.eps_r * (aperture * finger_width) / self.h_piezo


@dataclass(frozen=True)
class ResonatorDesign:
    idt: IdtSpec
    plate: PlateSpec
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


def static_capacitance(idt: IdtSpec, cap_model: CapacitanceModel) -> float:
    """Static IDT capacitance under the vertical-field model, in Farads."""
    c_f = cap_model.finger_capacitance(idt.aperture, idt.finger_width)
    return (idt.n_fingers / 2.0) * (c_f / 2.0)


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


def match_finger_count(
    pitch: float,
    plate: PlateSpec,
    cap_model: CapacitanceModel,
    mode: str = "S0",
    target_impedance: float = 200.0,
    max_fingers: int = 1000,
    dummy_count_per_side: int = 3,
) -> ResonatorDesign:
    """Smallest even finger count whose static reactance crosses the target.

    aperture = 10 * wavelength, gap = wavelength / 2.  f_mid is the solved
    mode frequency at k = pi / pitch.  The achieved impedance lands within
    one finger-pair quantization step below the target.
    """
    if target_impedance <= 0:
        raise InputError("target impedance must be positive")
    layer = layer_assignment(pitch)
    f_mid = pitch_to_frequency(pitch, mode, plate)
    wavelength = 2.0 * pitch
    aperture = APERTURE_WAVELENGTHS * wavelength
    gap = wavelength / 2.0
    c_f = cap_model.finger_capacitance(aperture, pitch / 2.0)
    # need C0 = n c_f / 4 >= 1/(2 pi f Z)
    c0_needed = 1.0 / (2.0 * math.pi * f_mid * target_impedance)
    n_exact = 4.0 * c0_needed / c_f
    n = max(2, 2 * math.ceil(n_exact / 2.0))
    if n > max_fingers:
        raise DesignError(
            f"matching pitch {pitch * 1e9:.0f} nm needs {n} fingers, "
            f"over the cap of {max_fingers}"
        )
    idt = IdtSpec(
        pitch=pitch,
        aperture=aperture,
        gap=gap,
        n_fingers=n,
        dummy_count_per_side=dummy_count_per_side,
    )
    c0 = static_capacitance(idt, cap_model)
    achieved = 1.0 / (2.0 * math.pi * f_mid * c0)
    return ResonatorDesign(
        idt=idt,
        plate=plate,
        mode=mode,
        f_mid=f_mid,
        target_impedance=target_impedance,
        achieved_impedance=achieved,
        c0_estimate=c0,
        layer=layer,
        dose=recommend_dose(idt.finger_width),
    )

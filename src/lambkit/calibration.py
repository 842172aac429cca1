"""One-port OSL calibration: three-term error box, one batched solve per command.

Model:  G_meas = e00 + (e10e01 * G) / (1 - e11 * G)
             = (e00 - de * G) / (1 - e11 * G),   de = e00*e11 - e10e01

Given measured reflections of the short, open, and load standards, each
frequency yields one linear 3x3 system in (e00, e11, de):

    [1,  G_meas * G,  -G] . [e00, e11, de]^T = G_meas

The (N, 3, 3) stack over the grid is one ``np.linalg.solve`` call.
``OslCalibration`` solves it once, on the short's grid, for a set of
standard files and then corrects any number of DUT files on that grid,
each in one array pass;
``calibrate_file`` is the same two steps for a single DUT.

Standards default to the ideal definitions (-1, +1, 0), whose box does not
depend on the frequency values; an offset model with electrical delay and
loss is available for characterized standards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, CorrectionError, InputError, LambkitError
from .touchstone import TouchstoneFile

__all__ = [
    "ErrorBox",
    "OffsetStandard",
    "OslStandards",
    "IDEAL_STANDARDS",
    "osl_solve",
    "apply_correction",
    "OslCalibration",
    "calibrate_file",
]


_E11_MSG = "source match |e11| must be < 1 for a physical fixture"


def _cmul(a, b):
    """a * b per element, rounded as numpy's scalar complex product is.

    The array multiply may fuse multiply-adds and differ in the last bit.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


@dataclass(frozen=True)
class ErrorBox:
    """Directivity, source match, and tracking: scalars or one entry per frequency."""

    e00: complex
    e11: complex
    de: complex  # e00*e11 - e10e01

    def __post_init__(self):
        if np.any(np.abs(self.e11) >= 1.0):
            raise InputError(_E11_MSG)

    @property
    def e10e01(self):
        return _cmul(self.e00, self.e11) - self.de

    @classmethod
    def identity(cls) -> "ErrorBox":
        return cls(e00=0j, e11=0j, de=-1 + 0j)


@dataclass(frozen=True)
class OffsetStandard:
    """Reflection standard with electrical delay and loss.

    gamma(f) = gamma0 * exp(-2 * (loss_np_per_hz * f + j*2*pi*f*delay_s))
    The factor 2 accounts for the round trip through the offset line.
    """

    gamma0: complex
    delay_s: float = 0.0
    loss_np_per_hz: float = 0.0

    def gamma(self, f_hz):
        f = np.asarray(f_hz, dtype=float)
        g = self.gamma0 * np.exp(
            -2.0 * (self.loss_np_per_hz * f + 2j * math.pi * f * self.delay_s)
        )
        return complex(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class OslStandards:
    short: OffsetStandard
    open: OffsetStandard
    load: OffsetStandard


IDEAL_STANDARDS = OslStandards(
    short=OffsetStandard(gamma0=-1 + 0j),
    open=OffsetStandard(gamma0=1 + 0j),
    load=OffsetStandard(gamma0=0j),
)


def osl_solve(
    f_hz,
    meas_short,
    meas_open,
    meas_load,
    standards: OslStandards = IDEAL_STANDARDS,
) -> ErrorBox:
    """One error box over the grid (length-N fields) from the measured standards.

    Raises CalibrationError naming the first frequency whose standards are
    degenerate, whose system is singular, or whose box has |e11| >= 1.
    """
    f = np.asarray(f_hz, dtype=float)
    ms = np.asarray(meas_short, dtype=complex)
    mo = np.asarray(meas_open, dtype=complex)
    ml = np.asarray(meas_load, dtype=complex)
    if not (f.shape == ms.shape == mo.shape == ml.shape) or f.ndim != 1:
        raise InputError("frequency and standard arrays must share one shape")
    meas = np.stack([ms, mo, ml], axis=-1)
    stds = (standards.short, standards.open, standards.load)
    gact = np.stack([std.gamma(f) for std in stds], axis=-1)
    a = np.empty(f.shape + (3, 3), dtype=complex)
    a[..., 0] = 1.0
    a[..., 1] = _cmul(meas, gact)
    a[..., 2] = -gact
    degenerate = (ms == mo) | (mo == ml) | (ms == ml)
    singular = np.zeros(f.shape, dtype=bool)
    x = np.full(f.shape + (3,), np.nan, dtype=complex)
    try:
        x[...] = np.linalg.solve(a, meas[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        # det runs the same LU factorisation as the solver, so it is exactly
        # zero where the solve failed; solve the rest for the checks below
        reason = exc
        singular = np.linalg.det(a) == 0
        x[~singular] = np.linalg.solve(a[~singular], meas[~singular][..., None])[..., 0]
    e00, e11, de = x.T.copy()
    unphysical = np.abs(e11) >= 1.0
    bad = degenerate | singular | unphysical
    if bad.any():
        i = int(np.argmax(bad))
        at = f"{f[i]:.6g} Hz"
        if degenerate[i]:
            raise CalibrationError(f"degenerate standards at {at}: two measured values equal")
        if singular[i]:
            raise CalibrationError(f"singular calibration system at {at}: {reason}")
        raise CalibrationError(f"unphysical error box at {at}: {_E11_MSG}")
    return ErrorBox(e00=e00, e11=e11, de=de)


def apply_correction(box: ErrorBox, s_meas):
    """Invert the bilinear model: G = (s - e00) / (e10e01 + e11 (s - e00))."""
    s = np.asarray(s_meas, dtype=complex)
    num = s - box.e00
    den = box.e10e01 + _cmul(box.e11, num)
    if np.any(den == 0):
        raise CorrectionError("singular correction denominator")
    g = num / den
    return complex(g) if g.ndim == 0 else g


def _check_same_grid(name: str, a: TouchstoneFile, b: TouchstoneFile):
    if len(a) != len(b) or not np.allclose(
        a.frequencies, b.frequencies, rtol=1e-9, atol=0.0
    ):
        raise CalibrationError(f"{name} standard frequency grid differs from the DUT")


class OslCalibration:
    """The error box of three measured standard files, solved once on the
    short's grid.

    A solve failure is kept, and ``correct`` raises it for each DUT after
    that DUT's grid checks, as a per-file solve would.
    """

    def __init__(
        self,
        short: TouchstoneFile,
        open_std: TouchstoneFile,
        load: TouchstoneFile,
        standards: OslStandards = IDEAL_STANDARDS,
    ):
        self.files = (("short", short), ("open", open_std), ("load", load))
        self.box = self.error = None
        try:
            self.box = osl_solve(short.frequencies, short.s11, open_std.s11, load.s11, standards)
        except LambkitError as exc:  # unequal lengths fail every grid check first
            self.error = exc

    def correct(self, dut: TouchstoneFile) -> TouchstoneFile:
        """The OSL-corrected DUT; its grid must match every standard's."""
        for name, std in self.files:
            _check_same_grid(name, dut, std)
        if self.error is not None:
            raise self.error.with_traceback(None)
        return TouchstoneFile(
            frequencies=dut.frequencies.copy(),
            s11=apply_correction(self.box, dut.s11),
            z0=dut.z0,
            frequency_unit=dut.frequency_unit,
            fmt=dut.fmt,
            comments=dut.comments,
        )


def calibrate_file(
    dut: TouchstoneFile,
    short: TouchstoneFile,
    open_std: TouchstoneFile,
    load: TouchstoneFile,
    standards: OslStandards = IDEAL_STANDARDS,
) -> TouchstoneFile:
    """OSL-correct a measured DUT file against three standard files."""
    return OslCalibration(short, open_std, load, standards).correct(dut)

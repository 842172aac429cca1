"""Touchstone v1.1 one-port (.s1p) reader/writer and S11 transforms.

Only the S-parameter one-port subset is handled.  The option line
"# <unit> S <format> R <z0>" is parsed case-insensitively with tokens in
any order; omitted fields default to GHz, MA, 50 Ohm.  Full-line "!"
comments are preserved (serialized ahead of the option line); inline
comments are stripped.  All points are converted to real/imaginary form
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, TouchstoneParseError
from .mbvd import AdmittanceTrace

__all__ = [
    "TouchstoneFile",
    "parse_touchstone",
    "serialize_touchstone",
    "s11_to_y",
    "y_to_s11",
    "touchstone_to_trace",
]

FREQ_UNITS = {"hz": ("Hz", 1.0), "khz": ("kHz", 1e3), "mhz": ("MHz", 1e6), "ghz": ("GHz", 1e9)}
FORMATS = ("RI", "MA", "DB")
_RAD = math.pi / 180.0


@dataclass
class TouchstoneFile:
    frequencies: np.ndarray  # Hz
    s11: np.ndarray  # complex
    z0: float = 50.0
    frequency_unit: str = "GHz"
    fmt: str = "MA"
    comments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.s11, dtype=complex)
        if f.ndim != 1 or f.size == 0:
            raise InputError("touchstone file needs at least one data point")
        if f.size != s.size:
            raise InputError("frequency and S11 lengths differ")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise InputError("frequencies must be positive and strictly increasing")
        if self.z0 <= 0:
            raise InputError("reference impedance must be positive")
        if self.frequency_unit.lower() not in FREQ_UNITS:
            raise InputError(f"unknown frequency unit {self.frequency_unit!r}")
        if self.fmt not in FORMATS:
            raise InputError(f"unknown format {self.fmt!r}")
        self.frequencies = f
        self.s11 = s
        self.comments = tuple(self.comments)

    def __len__(self):
        return self.frequencies.size


def parse_touchstone(text) -> TouchstoneFile:
    """Parse .s1p content (str or bytes).  Errors carry 1-based line numbers."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TouchstoneParseError(f"not ascii text: {exc}")
    comments = []
    option = None
    freqs = []
    vals = []
    unit_scale = 1e9
    unit_name = "GHz"
    fmt = "MA"
    z0 = 50.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("!"):
            comments.append(stripped[1:].strip())
            continue
        if "!" in stripped:
            stripped = stripped[: stripped.index("!")].strip()
            if not stripped:
                continue
        if stripped.startswith("#"):
            if option is not None:
                raise TouchstoneParseError("second option line", line=lineno)
            if freqs:
                raise TouchstoneParseError("option line after data", line=lineno)
            option = stripped
            tokens = stripped[1:].split()
            i = 0
            seen_param = False
            while i < len(tokens):
                tok = tokens[i].lower()
                if tok in FREQ_UNITS:
                    unit_name, unit_scale = FREQ_UNITS[tok]
                elif tok.upper() in FORMATS:
                    fmt = tok.upper()
                elif tok == "s":
                    seen_param = True
                elif tok == "r":
                    if i + 1 >= len(tokens):
                        raise TouchstoneParseError("R token missing value", line=lineno)
                    try:
                        z0 = float(tokens[i + 1])
                    except ValueError:
                        raise TouchstoneParseError(
                            f"bad reference impedance {tokens[i + 1]!r}", line=lineno
                        )
                    if not 0 < z0 < math.inf:
                        raise TouchstoneParseError(
                            "reference impedance must be positive and finite", line=lineno
                        )
                    i += 1
                elif tok in ("y", "z", "g", "h", "t"):
                    raise TouchstoneParseError(
                        f"parameter {tok.upper()!r} unsupported, only S", line=lineno
                    )
                else:
                    raise TouchstoneParseError(
                        f"unknown option token {tokens[i]!r}", line=lineno
                    )
                i += 1
            del seen_param
            continue
        if option is None:
            raise TouchstoneParseError("data before option line", line=lineno)
        cols = stripped.split()
        if len(cols) != 3:
            raise TouchstoneParseError(
                f"expected 3 columns, found {len(cols)}", line=lineno
            )
        try:
            f, a, b = (float(c) for c in cols)
        except ValueError:
            raise TouchstoneParseError(f"non-numeric data {stripped!r}", line=lineno)
        if not (math.isfinite(f) and math.isfinite(a) and math.isfinite(b)):
            raise TouchstoneParseError(f"non-finite data {stripped!r}", line=lineno)
        f_hz = f * unit_scale
        if freqs and f_hz <= freqs[-1]:
            raise TouchstoneParseError(
                f"frequency {f!r} not strictly increasing", line=lineno
            )
        if fmt == "RI":
            s = complex(a, b)
        elif fmt == "MA":
            s = a * complex(math.cos(b * _RAD), math.sin(b * _RAD))
        else:  # DB
            if a > 6000.0:  # 10 ** (a / 20) overflows a float above ~6165 dB
                raise TouchstoneParseError(f"dB magnitude out of range {stripped!r}", line=lineno)
            mag = 10.0 ** (a / 20.0)
            s = mag * complex(math.cos(b * _RAD), math.sin(b * _RAD))
        freqs.append(f_hz)
        vals.append(s)
    if option is None:
        raise TouchstoneParseError("missing option line")
    if not freqs:
        raise TouchstoneParseError("no data points")
    return TouchstoneFile(
        frequencies=np.array(freqs),
        s11=np.array(vals),
        z0=z0,
        frequency_unit=unit_name,
        fmt=fmt,
        comments=tuple(comments),
    )


def serialize_touchstone(tf: TouchstoneFile) -> str:
    """Render back to .s1p text in the file's own unit and format."""
    lines = [f"! {c}" if c else "!" for c in tf.comments]
    lines.append(f"# {tf.frequency_unit} S {tf.fmt} R {tf.z0:.17g}")
    scale = FREQ_UNITS[tf.frequency_unit.lower()][1]
    for f, s in zip(tf.frequencies, tf.s11):
        fu = f / scale
        if tf.fmt == "RI":
            a, b = s.real, s.imag
        elif tf.fmt == "MA":
            a, b = abs(s), math.degrees(math.atan2(s.imag, s.real))
        else:
            mag = abs(s)
            if mag == 0.0:
                raise InputError("zero-magnitude S11 cannot be written in DB format")
            a = 20.0 * math.log10(mag)
            b = math.degrees(math.atan2(s.imag, s.real))
        lines.append(f"{fu:.17g} {a:.17g} {b:.17g}")
    return "\n".join(lines) + "\n"


def s11_to_y(s, z0: float = 50.0):
    """One-port reflection to admittance: Y = (1/z0) (1 - s)/(1 + s)."""
    if z0 <= 0:
        raise InputError("reference impedance must be positive")
    s = np.asarray(s, dtype=complex)
    if np.any(s == -1):
        raise InputError("S11 = -1 (ideal short) has no finite admittance")
    y = (1.0 - s) / (1.0 + s) / z0
    return complex(y) if y.ndim == 0 else y


def y_to_s11(y, z0: float = 50.0):
    """Inverse transform: S = (1 - z0 Y)/(1 + z0 Y)."""
    if z0 <= 0:
        raise InputError("reference impedance must be positive")
    y = np.asarray(y, dtype=complex)
    zy = z0 * y
    if np.any(zy == -1):
        raise InputError("z0*Y = -1 has no finite reflection")
    s = (1.0 - zy) / (1.0 + zy)
    return complex(s) if s.ndim == 0 else s


def touchstone_to_trace(tf: TouchstoneFile) -> AdmittanceTrace:
    """Convert a parsed file to the admittance-trace schema."""
    return AdmittanceTrace(tf.frequencies, s11_to_y(tf.s11, tf.z0))

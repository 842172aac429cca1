"""Touchstone v1.1 one-port (.s1p) reader/writer and S11 transforms.

Only the S-parameter one-port subset is handled.  The option line
"# <unit> S <format> R <z0>" is parsed case-insensitively with tokens in
any order; omitted fields default to GHz, MA, 50 Ohm.  Full-line "!"
comments are preserved (serialized ahead of the option line); inline
comments are stripped.  All points are converted to real/imaginary form
internally.

The parser reads each line once to sort it and collect its data tokens,
converts all tokens with one ``map(float, ...)`` (so exactly Python's float
spellings are accepted), and checks and transforms the data as arrays.
Errors name the earliest faulty line, as a line-by-line reader would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

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


def _parse_option(line: str, lineno: int) -> tuple:
    """(unit name, unit scale, format, z0) from a "# ..." option line."""
    unit_name, unit_scale = "GHz", 1e9
    fmt = "MA"
    z0 = 50.0
    tokens = line[1:].split()
    i = 0
    while i < len(tokens):
        tok = tokens[i].lower()
        if tok in FREQ_UNITS:
            unit_name, unit_scale = FREQ_UNITS[tok]
        elif tok.upper() in FORMATS:
            fmt = tok.upper()
        elif tok == "s":
            pass
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
            raise TouchstoneParseError(f"unknown option token {tokens[i]!r}", line=lineno)
        i += 1
    return unit_name, unit_scale, fmt, z0


def _checked_rows(data, rows, unit_scale: float, fmt: str):
    """Frequencies in Hz of the (n, 3) data block; raises at its first bad row.

    Within a row the checks run in the order a line-by-line reader applies
    them: non-finite values, then a frequency not above the previous row's,
    then a dB magnitude that ``10 ** (dB / 20)`` would overflow.
    """
    with np.errstate(over="ignore"):  # a huge finite value times the unit is inf, as in Python
        f_hz = data[:, 0] * unit_scale
    n = len(data)
    non_finite = ~np.isfinite(data).all(axis=1)
    not_increasing = np.zeros(n, dtype=bool)
    not_increasing[1:] = f_hz[1:] <= f_hz[:-1]
    too_loud = data[:, 1] > 6000.0 if fmt == "DB" else np.zeros(n, dtype=bool)
    bad = non_finite | not_increasing | too_loud
    if bad.any():
        i = int(np.argmax(bad))
        lineno, stripped = rows[i]
        if non_finite[i]:
            raise TouchstoneParseError(f"non-finite data {stripped!r}", line=lineno)
        if not_increasing[i]:
            raise TouchstoneParseError(
                f"frequency {float(data[i, 0])!r} not strictly increasing", line=lineno
            )
        raise TouchstoneParseError(f"dB magnitude out of range {stripped!r}", line=lineno)
    return f_hz


def _s11(data, fmt: str):
    """Complex S11 from the checked (n, 3) block, bit-identical to the scalar
    ``complex(a, 0.0) * complex(math.cos(b), math.sin(b))`` with
    ``a = 10.0 ** (dB / 20)`` in DB: the transcendentals stay Python's, which
    numpy's may not match in the last bit."""
    n = len(data)
    s = np.empty(n, dtype=complex)
    a, b = data[:, 1], data[:, 2]
    if fmt == "RI":
        s.real = a
        s.imag = b
        return s
    if fmt == "DB":
        a = np.fromiter(map(pow, repeat(10.0), (a / 20.0).tolist()), float, n)
    rad = (b * _RAD).tolist()
    cos = np.fromiter(map(math.cos, rad), float, n)
    sin = np.fromiter(map(math.sin, rad), float, n)
    # (a + 0j) * z, signed zeros included: CPython 3.10-3.13 multiply a float by
    # a complex this way; 3.14 multiplies componentwise, and this does not follow
    s.real = a * cos - 0.0 * sin
    s.imag = a * sin + 0.0 * cos
    return s


def parse_touchstone(text) -> TouchstoneFile:
    """Parse .s1p content (str, or UTF-8 bytes).  Errors carry 1-based line numbers.

    One loop sorts the lines and collects the data tokens; one
    ``map(float, ...)`` converts them and the checks run on arrays.  When a
    file has several faults, the one on the earliest line is raised.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TouchstoneParseError(f"byte {text[exc.start]:#04x} is not UTF-8",
                                       line=text.count(b"\n", 0, exc.start) + 1) from None
    comments = []
    seen_option = False
    unit_name, unit_scale, fmt, z0 = "GHz", 1e9, "MA", 50.0
    tokens = []  # three per data row
    rows = []  # (line number, text) per data row, for error messages
    fault = None  # a line fault after data rows, raised if those rows are good
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped[0] == "!":
            comments.append(stripped[1:].strip())
            continue
        if "!" in stripped:
            stripped = stripped[: stripped.index("!")].strip()
            if not stripped:
                continue
        if stripped[0] == "#":
            if seen_option:
                fault = TouchstoneParseError("second option line", line=lineno)
                break
            seen_option = True
            unit_name, unit_scale, fmt, z0 = _parse_option(stripped, lineno)
            continue
        if not seen_option:
            raise TouchstoneParseError("data before option line", line=lineno)
        cols = stripped.split()
        if len(cols) != 3:
            fault = TouchstoneParseError(f"expected 3 columns, found {len(cols)}", line=lineno)
            break
        tokens += cols
        rows.append((lineno, stripped))
    n = len(rows)
    try:
        data = np.fromiter(map(float, tokens), float, 3 * n).reshape(n, 3)
    except ValueError:  # rare: converting per line would cost ~0.5 ms per 1601 rows
        n = next(i for i, t in enumerate(tokens) if not _is_float(t)) // 3
        data = np.array(list(map(float, tokens[: 3 * n])), dtype=float).reshape(n, 3)
        lineno, stripped = rows[n]
        fault = TouchstoneParseError(f"non-numeric data {stripped!r}", line=lineno)
    f_hz = _checked_rows(data, rows, unit_scale, fmt)
    if fault is not None:
        raise fault
    if not seen_option:
        raise TouchstoneParseError("missing option line")
    if not n:
        raise TouchstoneParseError("no data points")
    return TouchstoneFile(
        frequencies=f_hz,
        s11=_s11(data, fmt),
        z0=z0,
        frequency_unit=unit_name,
        fmt=fmt,
        comments=tuple(comments),
    )


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


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

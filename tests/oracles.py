"""Independent reference implementations used to cross-check solver output.

The residual here uses complex trigonometry directly (numpy complex sqrt,
sin, cos) instead of the branch-split real forms in the package, so the two
paths share no code.  Roots are located by brute-force dense sign scans.
"""

import math

import numpy as np
import pytest

from lambkit.errors import TouchstoneParseError
from lambkit.touchstone import FORMATS, FREQ_UNITS, TouchstoneFile

_RAD = math.pi / 180.0

TINY = 1e-280


def lamb_residual_reference(omega, k, v_l, v_t, h, symmetry):
    """Rayleigh-Lamb residual via complex arithmetic; real part returned.

    Symmetric:      (q^2-k^2)^2 S(q) cos(p hh) + 4 k^2 p^2 S(p) cos(q hh)
    Antisymmetric:  4 k^2 q^2 S(q) cos(p hh) + (q^2-k^2)^2 S(p) cos(q hh)
    with S(x) = sin(x hh)/x and hh = h/2.
    """
    w = np.asarray(omega, dtype=float)
    hh = h / 2.0
    p2 = (w / v_l) ** 2 - k * k + 0j
    q2 = (w / v_t) ** 2 - k * k + 0j
    p = np.sqrt(p2)
    q = np.sqrt(q2)

    def s_over(x):
        safe = np.where(np.abs(x) < TINY, 1.0, x)
        return np.where(np.abs(x) < TINY, hh, np.sin(safe * hh) / safe)

    if symmetry == "symmetric":
        val = (q2 - k * k) ** 2 * s_over(q) * np.cos(p * hh) + 4.0 * k * k * p2 * s_over(p) * np.cos(q * hh)
    else:
        val = 4.0 * k * k * q2 * s_over(q) * np.cos(p * hh) + (q2 - k * k) ** 2 * s_over(p) * np.cos(q * hh)
    return np.real(val)


def lamb_roots_scan(k, v_l, v_t, h, symmetry, n_roots, n_scan=200_000):
    """First n_roots angular frequencies by dense linear sign scan + brentq."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    w_max = 3.0 * v_l * k + 4.0 * np.pi * v_l / h
    grid = np.linspace(w_max * 1e-7, w_max, n_scan)
    vals = lamb_residual_reference(grid, k, v_l, v_t, h, symmetry)
    roots = []
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    f = lambda w: float(lamb_residual_reference(w, k, v_l, v_t, h, symmetry))
    for i in flips:
        r = brentq(f, grid[i], grid[i + 1], rtol=1e-13, maxiter=200)
        if not roots or r > roots[-1] * (1.0 + 1e-9):
            roots.append(r)
        if len(roots) >= n_roots:
            break
    return np.asarray(roots)


def osl_correct_reference(meas, gammas, s_dut):
    """OSL-corrected S11, one 3x3 solve and one scalar correction per point.

    ``meas`` and ``gammas`` are (short, open, load) triples of length-N arrays:
    the measured standards and their actual reflections.  Every product is a
    numpy complex128 scalar product, as a per-frequency loop computes it.
    """
    out = np.empty(len(s_dut), dtype=complex)
    for i in range(len(s_dut)):
        m = [np.complex128(x[i]) for x in meas]
        g = [np.complex128(x[i]) for x in gammas]
        a = np.array([[1.0, m[j] * g[j], -g[j]] for j in range(3)], dtype=complex)
        e00, e11, de = np.linalg.solve(a, np.array(m, dtype=complex))
        num = np.complex128(s_dut[i]) - e00
        out[i] = num / (e00 * e11 - de + e11 * num)
    return out


def parse_touchstone_reference(text) -> TouchstoneFile:
    """Line-by-line .s1p parser: each data line is split, converted and
    checked before the next is read, so the first faulty line always wins.

    Every error type, message and line number of ``parse_touchstone`` must
    match this; so must its frequencies and S11, bit for bit.  The polar
    product is spelled ``complex(a, 0.0) * z``: the float-times-complex rule
    of CPython 3.10-3.13, which 3.14 no longer follows for signed zeros.
    """
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
            s = complex(a, 0.0) * complex(math.cos(b * _RAD), math.sin(b * _RAD))
        else:  # DB
            if a > 6000.0:  # 10 ** (a / 20) overflows a float above ~6165 dB
                raise TouchstoneParseError(f"dB magnitude out of range {stripped!r}", line=lineno)
            mag = 10.0 ** (a / 20.0)
            s = complex(mag, 0.0) * complex(math.cos(b * _RAD), math.sin(b * _RAD))
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

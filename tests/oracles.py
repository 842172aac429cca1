"""Independent reference implementations used to cross-check solver, reader,
reticle and wafer-map output.

The residual here uses complex trigonometry directly (numpy complex sqrt,
sin, cos) instead of the branch-split real forms in the package, so the two
paths share no code.  Roots are located by brute-force dense sign scans.
"""

import json
import math
import re
import struct
import sys
from functools import reduce
from operator import add

import numpy as np
import pytest

from lambkit.errors import (
    DispersionRangeError, GdsParseError, InputError, PackingError, SolverError,
    TouchstoneParseError, is_json_number, json_number, json_object, shown)
from lambkit.gdsii import (
    ANGLE, BGNLIB, BGNSTR, BOUNDARY, DATATYPE, DB_UNIT_IN_METERS, ENDEL, ENDLIB, ENDSTR,
    GDS_VERSION, HEADER, LAYER, LIBNAME, SNAME, SREF, STRANS, STRNAME, UNITS, XY,
    _REC_NAMES, decode_real8,
)
from lambkit.layout import (
    _TURNS, _WINDOW_GAP, CHIP_CELL_NAME, DEMAG, RETICLE_CELL_NAME, Cell, Library, Placement,
    Polygon, _mapped, to_dbu,
)
from lambkit.record import astuple
from lambkit.touchstone import FORMATS, FREQ_UNITS, TouchstoneFile
from lambkit.waferstats import (
    DeviationReport, DeviationRow, ModeMetrics, TrendPoint, TrendSeries, WaferSite)

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
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
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
        if not 0.0 < f_hz < math.inf:
            raise TouchstoneParseError(
                f"frequency {f!r} not positive and finite in Hz", line=lineno
            )
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


# ---------------------------------------------------------------------------
# GDSII: the record-by-record reader

def _rec_name(rectype: int) -> str:
    return _REC_NAMES.get(rectype, f"0x{rectype:02X}")


class _Parser:
    """Record cursor: ``cur`` is the type of the record at ``offset`` (None at
    the end of the stream, where ``offset`` is the stream length) and
    ``payload`` its data.  advance() frames the next record, so a framing
    fault surfaces only when the cursor reaches it."""

    def __init__(self, data: bytes):
        self.data = data
        self.end = 0  # offset just past the current record
        self.advance()

    def advance(self):
        off = self.offset = self.end
        if off >= len(self.data):
            self.cur = None
            return
        if len(self.data) - off < 4:
            raise GdsParseError("truncated record header", offset=off)
        length, self.cur = struct.unpack_from(">HB", self.data, off)
        if length < 4 or length % 2:
            raise GdsParseError(f"bad record length {length}", offset=off)
        if off + length > len(self.data):
            raise GdsParseError("record runs past end of stream", offset=off)
        self.payload = self.data[off + 4 : off + length]
        self.end = off + length

    def expect(self, rectype: int) -> bytes:
        if self.cur is None:
            raise GdsParseError(
                f"unexpected end of stream, wanted {_rec_name(rectype)}",
                offset=self.offset,
            )
        if self.cur != rectype:
            raise GdsParseError(
                f"expected {_rec_name(rectype)}, found {_rec_name(self.cur)}",
                offset=self.offset,
            )
        payload = self.payload
        self.advance()
        return payload

    def expect_sized(self, rectype: int, size: int) -> bytes:
        """expect() for a record whose payload is exactly ``size`` bytes."""
        off = self.offset
        payload = self.expect(rectype)
        if len(payload) != size:
            raise GdsParseError(f"{_rec_name(rectype)} payload must be {size} bytes", offset=off)
        return payload


def _parse_ascii(payload: bytes, offset: int) -> str:
    try:
        return payload.rstrip(b"\0").decode("ascii")
    except UnicodeDecodeError as exc:
        raise GdsParseError(f"non-ascii string payload: {exc}", offset=offset)


def _at(offset: int, make, *args, **kwargs):
    """make(*args, **kwargs), with an InputError from its checks re-raised as
    a GdsParseError at the offset of the record the value came from."""
    try:
        return make(*args, **kwargs)
    except InputError as exc:
        raise GdsParseError(str(exc), offset=offset) from exc


def read_gdsii_reference(data: bytes):
    """The record-by-record GDSII reader: every element is walked through the
    cursor, one record at a time.

    Every error type, message and offset of ``read_gdsii`` must match this;
    so must its cells, polygons and placements.
    """

    p = _Parser(data)
    version = struct.unpack(">h", p.expect_sized(HEADER, 2))[0]
    if version != GDS_VERSION:
        raise GdsParseError(f"unsupported stream version {version}", offset=0)
    p.expect(BGNLIB)
    name_off = p.offset
    libname = _parse_ascii(p.expect(LIBNAME), name_off)
    units_off = p.offset
    _, mm = struct.unpack(">QQ", p.expect_sized(UNITS, 16))
    dbu_m = decode_real8(mm)
    if not math.isclose(dbu_m, DB_UNIT_IN_METERS, rel_tol=1e-9):
        raise GdsParseError(
            f"database unit {dbu_m} m unsupported (expected 1 nm)", offset=units_off
        )
    cells = []
    while p.cur == BGNSTR:
        p.expect(BGNSTR)
        cell_off = p.offset
        cellname = _parse_ascii(p.expect(STRNAME), cell_off)
        polygons = []
        placements = []
        while p.cur in (BOUNDARY, SREF):
            if p.cur == BOUNDARY:
                p.expect(BOUNDARY)
                layer = struct.unpack(">h", p.expect_sized(LAYER, 2))[0]
                p.expect(DATATYPE)
                xy_off = p.offset
                xy = p.expect(XY)
                if len(xy) % 8 or len(xy) < 32:
                    raise GdsParseError(
                        "BOUNDARY XY needs at least 4 closed points", offset=xy_off
                    )
                coords = struct.unpack(f">{len(xy) // 4}l", xy)
                pts = list(zip(coords[0::2], coords[1::2]))
                if pts[0] != pts[-1]:
                    raise GdsParseError(
                        "BOUNDARY XY list is not closed", offset=xy_off
                    )
                p.expect(ENDEL)
                polygons.append(_at(xy_off, Polygon, layer=layer, vertices=pts[:-1]))
            else:
                p.expect(SREF)
                sname_off = p.offset
                sname = _parse_ascii(p.expect(SNAME), sname_off)
                rotation = 0
                if p.cur == STRANS:
                    strans_off = p.offset
                    if struct.unpack(">H", p.expect_sized(STRANS, 2))[0] != 0:
                        raise GdsParseError(
                            "mirror/magnification flags unsupported", offset=strans_off
                        )
                    ang_off = p.offset
                    angle = decode_real8(struct.unpack(">Q", p.expect_sized(ANGLE, 8))[0])
                    rotation = int(round(angle))
                    if rotation not in (0, 90, 180, 270) or not math.isclose(
                        angle, rotation, abs_tol=1e-9
                    ):
                        raise GdsParseError(
                            f"rotation {angle} not a right angle", offset=ang_off
                        )
                x, y = struct.unpack(">2l", p.expect_sized(XY, 8))
                p.expect(ENDEL)
                placements.append(
                    Placement(cell_name=sname, x=x, y=y, rotation=rotation)
                )
        p.expect(ENDSTR)
        cells.append((cell_off, _at(cell_off, Cell, cellname, polygons, placements)))
    end_off = p.offset
    p.expect(ENDLIB)
    if p.cur is not None:
        raise GdsParseError("data after ENDLIB", offset=p.offset)
    lib = _at(name_off, Library, name=libname)
    for cell_off, cell in cells:
        _at(cell_off, lib.add, cell)
    _at(end_off, lib.validate)  # references resolve once every cell is read
    return lib


# ---------------------------------------------------------------------------
# Reticle: the chip flattened into polygons, grouped by layer, then each
# window's group magnified and moved

def flatten_reference(lib, cell_name: str) -> list:
    """All polygons of a cell with placements resolved, in pre-order: one
    mapped copy per polygon and placement level."""
    lib.validate()
    if cell_name not in lib:
        raise InputError(f"unknown cell {cell_name!r}")
    out = []
    stack = [(cell_name, 0, 0, 0)]
    while stack:
        name, dx, dy, rotation = stack.pop()
        cell = lib[name]
        out += _mapped(cell.polygons, rotation, 1, dx, dy)
        a, b, c, d = _TURNS[rotation]
        for ref in reversed(cell.placements):  # popped in placement order
            stack.append((ref.cell_name, dx + a * ref.x + b * ref.y,
                          dy + c * ref.x + d * ref.y, (rotation + ref.rotation) % 360))
    return out


def build_reticle_reference(chip_lib, chip_cfg, layers, reticle_cfg):
    """The reticle plan from the flattened chip: same windows and same mask
    polygons, in the same order, as ``layout.build_reticle``."""
    layer_ids = astuple(layers)
    wf, hf = reticle_cfg.image_field_m
    cw, ch = chip_cfg.width_m, chip_cfg.height_m
    n = len(layer_ids)
    total_h = n * ch + (n - 1) * _WINDOW_GAP
    x0 = (wf - cw) / 2.0
    y0 = (hf - total_h) / 2.0
    if x0 < 0 or y0 < 0:
        raise PackingError(f"{n} chip windows ({cw * 1e3:g} x {total_h * 1e3:g} mm) exceed "
                           f"the image field ({wf * 1e3:g} x {hf * 1e3:g} mm)")
    windows = [(x0, y, x0 + cw, y + ch)
               for y in (y0 + i * (ch + _WINDOW_GAP) for i in range(n))]
    windows[-1] = (*windows[-1][:3], min(windows[-1][3], hf))
    by_layer = {}
    for poly in flatten_reference(chip_lib, CHIP_CELL_NAME):
        by_layer.setdefault(poly.layer, []).append(poly)
    mask_lib = Library(name="RETICLE_MASK")
    mask = Cell(name=RETICLE_CELL_NAME)
    for layer_id, (wx0, wy0, _, _) in zip(layer_ids, windows):
        mask.polygons += _mapped(by_layer.get(layer_id, ()), 0, DEMAG,
                                 to_dbu(wx0) * DEMAG, to_dbu(wy0) * DEMAG)
    mask_lib.add(mask)
    return tuple(windows), mask_lib


# ------------------------------------------------------------ wafer maps
# The per-value loader and the per-mode simulation loop that waferstats had
# before it checked each site's numbers in one pass and hoisted the per-die
# terms: the loaders must agree on every document, down to the message of the
# first fault, and the simulations on every site.


def _numbers_reference(obj: dict, keys, path: str, default=None) -> list:
    """obj's values at keys; InputError names path.key of the first non-number (q_r may be inf)."""
    values = [obj.get(key, default) for key in keys]
    if not all(map(is_json_number, values)):
        for key, value in zip(keys, values):
            if not (key == "q_r" and value == math.inf):
                json_number(value, f"{path}.{key}")
    return values


def sites_from_dict_reference(doc: dict) -> list:
    """Sites from a wafer map document, checking one value at a time."""
    if not isinstance(doc, dict) or not isinstance(doc.get("sites"), list):
        raise InputError("wafer map document must be an object with a 'sites' array")
    sites = []
    seen = {}
    for i, entry in enumerate(doc["sites"]):
        path = f"sites[{i}]"
        entry = json_object(entry, path)
        failed = entry.get("failed_modes", [])
        if not isinstance(failed, list):
            raise InputError(f"{path}.failed_modes must be an array")
        metrics = {}
        for mode, m in json_object(entry.get("metrics", {}), f"{path}.metrics").items():
            at = f"{path}.metrics.{mode}"
            values = _numbers_reference(json_object(m, at), ("f_r_hz", "f_a_hz", "q_r", "k_eff_sq"),
                                        at)
            metrics[mode] = ModeMetrics(*values)
        (site_id,) = _numbers_reference(entry, ("site_id",), path)
        if site_id < 0 or site_id != int(site_id):
            raise InputError(f"{path}.site_id must be a non-negative integer, got {site_id!r}")
        x, y, pitch = _numbers_reference(entry, ("x_mm", "y_mm", "pitch_m"), path)
        local = _numbers_reference(entry, ("local_thickness_m", "local_pitch_m"), path, 0.0)
        first = seen.setdefault((site_id, pitch), path)
        if first != path:
            raise InputError(f"{path} repeats the site_id {site_id!r} and pitch_m {pitch!r} "
                             f"of {first}")
        sites.append(WaferSite(int(site_id), x, y, pitch, metrics, tuple(failed), *local))
    return sites


# The renderer and the reductions that waferstats had before it wrote each site
# line from the records and kept each group's f values and their mean: the
# renderer must give the same bytes, and the reductions the same doubles.


def sites_to_dict_reference(sites, seed=None) -> dict:
    """JSON document for a wafer map, built value by value from the records."""
    doc = {"sites": []}
    if seed is not None:
        doc["seed"] = int(seed)
    for s in sites:
        entry = {
            "site_id": s.site_id,
            "x_mm": s.x_mm,
            "y_mm": s.y_mm,
            "pitch_m": s.pitch_m,
            "metrics": {mode: {"f_r_hz": m.f_r, "f_a_hz": m.f_a, "q_r": m.q_r,
                               "k_eff_sq": m.k_eff_sq}
                        for mode, m in sorted(s.metrics.items())},
        }
        if s.failed_modes:
            entry["failed_modes"] = list(s.failed_modes)
        if s.local_thickness_m:
            entry["local_thickness_m"] = s.local_thickness_m
        if s.local_pitch_m:
            entry["local_pitch_m"] = s.local_pitch_m
        doc["sites"].append(entry)
    return doc


def sites_json_reference(sites, seed=None) -> str:
    """sites_to_dict_reference as JSON text, one site per line, each from json.dumps."""
    doc = sites_to_dict_reference(sites, seed)
    body = ",\n".join(map(json.dumps, doc.pop("sites")))
    rest = "".join(f", {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    return f'{{"sites": [\n{body}\n]{rest}}}'


def _sum_reference(x) -> float:
    """numpy's pairwise sum (loops_utils.h.src)."""
    n = len(x)
    if n < 8:
        return reduce(add, x, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, x[j:m:8]) for j in range(8)]
        return reduce(add, x[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _sum_reference(x[:half]) + _sum_reference(x[half:])


def _mean_std_reference(x) -> tuple:
    mean = _sum_reference(x) / len(x)
    return mean, math.sqrt(_sum_reference([d * d for d in (v - mean for v in x)]) / len(x))


def relstd_reference(values) -> float:
    values = [float(v) for v in values]
    mean, spread = _mean_std_reference(values)
    if spread <= 16.0 * sys.float_info.epsilon * mean:
        return 0.0
    return spread / mean * 100.0


def group_sites_reference(sites) -> tuple:
    """([((mode, pitch), [ModeMetrics], n_excluded)], warnings), the metrics
    sorted by (site_id, f_r)."""
    groups, excluded = {}, {}
    for site in sites:
        for mode, m in site.metrics.items():
            groups.setdefault((mode, site.pitch_m), []).append((site.site_id, m))
        for mode in site.failed_modes:
            key = (mode, site.pitch_m)
            excluded[key] = excluded.get(key, 0) + 1
            groups.setdefault(key, [])
    usable, warnings = [], []
    for key in sorted(groups):
        values = sorted(groups[key], key=lambda item: (item[0], item[1].f_r))
        n_excl = excluded.get(key, 0)
        if len(values) < 2:
            warnings.append(f"group ({key[0]}, {key[1] * 1e9:.6g} nm): "
                            f"{len(values)} usable site(s), {n_excl} excluded; omitted")
            continue
        usable.append((key, [m for _, m in values], n_excl))
    return usable, tuple(warnings)


def per_mode_deviation_reference(sites) -> DeviationReport:
    groups, warnings = group_sites_reference(sites)
    rows = []
    for (mode, pitch), ms, n_excl in groups:
        values = [m.f_r for m in ms]
        rows.append(DeviationRow(mode=mode, pitch_m=pitch,
                                 mean_f_hz=_sum_reference(values) / len(values),
                                 relstd_pct=relstd_reference(values), n=len(values),
                                 excluded=n_excl))
    return DeviationReport(tuple(rows), warnings)


def metrics_vs_frequency_reference(sites) -> TrendSeries:
    groups, warnings = group_sites_reference(sites)
    per_mode = {}
    for (mode, pitch), ms, _ in groups:
        fs = [m.f_r for m in ms]
        q_mean, q_std = _mean_std_reference([m.q_r for m in ms])
        k_mean, k_std = _mean_std_reference([m.k_eff_sq for m in ms])
        per_mode.setdefault(mode, []).append(TrendPoint(
            mode=mode, pitch_m=pitch, mean_f_hz=_sum_reference(fs) / len(fs), q_mean=q_mean,
            q_std=q_std, k_mean=k_mean, k_std=k_std, n=len(ms)))
    for mode, pts in per_mode.items():
        pts.sort(key=lambda p: p.mean_f_hz)
        per_mode[mode] = tuple(pts)
    return TrendSeries(per_mode, warnings)


def _mode_metrics_reference(variation, mode: str, f_r: float) -> ModeMetrics:
    entry = variation.mode_quality[mode]
    k2 = float(entry["k_eff_sq"])
    f_a = f_r * math.sqrt(1.0 + k2 / (1.0 - k2))
    return ModeMetrics(f_r=f_r, f_a=f_a, q_r=float(entry["q_r"]), k_eff_sq=k2)


def simulate_wafer_reference(variation, seed: int, pitches, plate, chip_cfg, wafer_cfg,
                             full_resolve: bool = False) -> list:
    """The wafer map of waferstats.simulate_wafer, every term taken per (site, mode)."""
    from lambkit.dispersion import PlateSpec, pitch_to_frequency, sensitivity
    from lambkit.layout import gen_wafer_map
    from lambkit.rng import normal_stream

    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"seed must be an integer, got {shown(seed)}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {shown(seed)}")
    pitches = [float(p) for p in pitches]
    if not pitches:
        raise InputError("no designs to simulate")
    if any(p <= 0.0 for p in pitches):
        raise InputError("design pitches must be positive")
    modes = tuple(variation.mode_quality)
    placements = gen_wafer_map(chip_cfg, wafer_cfg)
    if not placements:
        usable = wafer_cfg.diameter_m - 2.0 * wafer_cfg.edge_exclusion_m
        raise PackingError(
            f"no chip fits the usable wafer diameter of {usable:g} m "
            f"(edge exclusion {wafer_cfg.edge_exclusion_m:g} m)"
        )
    nominal = {(mode, pitch): (pitch_to_frequency(pitch, mode, plate),
                               *sensitivity(plate, mode, math.pi / pitch))
               for pitch in pitches for mode in modes}
    radius = wafer_cfg.radius_m
    sites = []
    for i, placement in enumerate(placements):
        normal = normal_stream(seed, i)
        cx, cy = placement.center(chip_cfg)
        r = math.hypot(cx, cy)
        t_profile = variation.thickness_center_m - variation.thickness_edge_drop_m * (r / radius) ** 2
        t_local = t_profile + normal(0.0, variation.thickness_noise_sigma_m)
        for pitch in pitches:
            p_local = pitch + normal(0.0, variation.pitch_sigma_m)
            metrics = {}
            failed = []
            for mode in modes:
                try:
                    if t_local <= 0.0 or p_local <= 0.0:
                        raise SolverError("perturbed geometry is non-physical")
                    if full_resolve:
                        f_site = pitch_to_frequency(
                            p_local, mode, PlateSpec(plate.material, t_local)
                        )
                    else:
                        f_nom, s_h, s_p = nominal[(mode, pitch)]
                        f_site = f_nom * math.exp(
                            s_h * math.log(t_local / plate.h)
                            + s_p * math.log(p_local / pitch)
                        )
                    metrics[mode] = _mode_metrics_reference(variation, mode, f_site)
                except (SolverError, DispersionRangeError):
                    failed.append(mode)
            sites.append(WaferSite(placement.site_id, cx * 1e3, cy * 1e3, pitch, metrics,
                                   tuple(failed), t_local, p_local))
    return sites

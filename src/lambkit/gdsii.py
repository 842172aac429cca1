"""GDSII stream (release 6) writer and reader.

Record framing is big-endian: 2-byte total record length (header included),
1-byte record type, 1-byte data type.  Reals use the 8-byte excess-64
base-16 format.  Timestamps in BGNLIB/BGNSTR are fixed constants so the
byte stream is a pure function of the library content.

Only the record set needed for mask interchange is supported: BOUNDARY
polygons and SREF placements with right-angle rotations.  The reader is
strict; any record outside the expected grammar is a parse error carrying
the byte offset.
"""

from __future__ import annotations

import math
import struct
from itertools import chain

from .errors import GdsParseError, InputError

__all__ = [
    "write_gdsii",
    "read_gdsii",
    "encode_real8",
    "decode_real8",
    "GDS_VERSION",
]

GDS_VERSION = 600
DB_UNIT_IN_USER_UNITS = 1e-3  # user unit = um
DB_UNIT_IN_METERS = 1e-9  # 1 nm database unit

# record types
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
SREF = 0x0A
LAYER = 0x0D
DATATYPE = 0x0E
XY = 0x10
ENDEL = 0x11
SNAME = 0x12
STRANS = 0x1A
ANGLE = 0x1C

# data types
DT_NONE = 0x00
DT_BITARRAY = 0x01
DT_INT16 = 0x02
DT_INT32 = 0x03
DT_REAL8 = 0x05
DT_ASCII = 0x06

# fixed library/structure timestamp: 12 int16 (mod + access, y m d h m s)
_TIMESTAMP = (2022, 1, 1, 0, 0, 0) * 2

_REC_NAMES = {globals()[name]: name for name in (
    "HEADER BGNLIB LIBNAME UNITS ENDLIB BGNSTR STRNAME ENDSTR BOUNDARY SREF "
    "LAYER DATATYPE XY ENDEL SNAME STRANS ANGLE"
).split()}


def encode_real8(value: float) -> int:
    """Excess-64 base-16 8-byte real as an unsigned 64-bit integer."""
    if value == 0.0:
        return 0
    sign = 0
    if value < 0:
        sign = 1 << 63
        value = -value
    exponent = int(math.floor(math.log2(value) / 4.0)) + 1
    mantissa = value / 16.0**exponent
    while mantissa >= 1.0:
        mantissa /= 16.0
        exponent += 1
    while mantissa < 1.0 / 16.0 and exponent > -63:
        mantissa *= 16.0
        exponent -= 1
    if not -64 <= exponent <= 63:
        raise InputError(f"value {value} outside excess-64 real range")
    m = int(round(mantissa * (1 << 56)))
    if m >= 1 << 56:
        m >>= 4
        exponent += 1
    return sign | ((exponent + 64) << 56) | m


def decode_real8(bits: int) -> float:
    """Inverse of encode_real8."""
    if bits == 0:
        return 0.0
    sign = -1.0 if bits & (1 << 63) else 1.0
    exponent = ((bits >> 56) & 0x7F) - 64
    mantissa = (bits & ((1 << 56) - 1)) / float(1 << 56)
    return sign * mantissa * 16.0**exponent


def _record(rectype: int, dattype: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    if length > 0xFFFF:
        raise InputError("record payload too long for 16-bit framing")
    return struct.pack(">HBB", length, rectype, dattype) + payload


def _ascii_payload(text: str) -> bytes:
    raw = text.encode("ascii")
    if len(raw) % 2:
        raw += b"\0"
    return raw


def write_gdsii(library) -> bytes:
    """Serialize a layout library (see layout.Library, which range-checks) to GDSII bytes."""
    out = bytearray()
    out += _record(HEADER, DT_INT16, struct.pack(">h", GDS_VERSION))
    out += _record(BGNLIB, DT_INT16, struct.pack(">12h", *_TIMESTAMP))
    out += _record(LIBNAME, DT_ASCII, _ascii_payload(library.name))
    out += _record(
        UNITS,
        DT_REAL8,
        struct.pack(
            ">QQ",
            encode_real8(DB_UNIT_IN_USER_UNITS),
            encode_real8(DB_UNIT_IN_METERS),
        ),
    )
    for cell in library.cells:
        out += _record(BGNSTR, DT_INT16, struct.pack(">12h", *_TIMESTAMP))
        out += _record(STRNAME, DT_ASCII, _ascii_payload(cell.name))
        for poly in cell.polygons:
            out += _record(BOUNDARY, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", poly.layer))
            out += _record(DATATYPE, DT_INT16, struct.pack(">h", 0))
            closed = poly.vertices + poly.vertices[:1]
            xy = struct.pack(f">{2 * len(closed)}l", *chain.from_iterable(closed))
            out += _record(XY, DT_INT32, xy)
            out += _record(ENDEL, DT_NONE)
        for ref in cell.placements:
            out += _record(SREF, DT_NONE)
            out += _record(SNAME, DT_ASCII, _ascii_payload(ref.cell_name))
            if ref.rotation:
                out += _record(STRANS, DT_BITARRAY, struct.pack(">H", 0))
                out += _record(ANGLE, DT_REAL8, struct.pack(">Q", encode_real8(float(ref.rotation))))
            out += _record(XY, DT_INT32, struct.pack(">2l", ref.x, ref.y))
            out += _record(ENDEL, DT_NONE)
        out += _record(ENDSTR, DT_NONE)
    out += _record(ENDLIB, DT_NONE)
    return bytes(out)


class _Tokenizer:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next(self):
        """(offset, rectype, dattype, payload) or None at end of stream."""
        if self.pos >= len(self.data):
            return None
        off = self.pos
        if len(self.data) - off < 4:
            raise GdsParseError("truncated record header", offset=off)
        length, rectype, dattype = struct.unpack_from(">HBB", self.data, off)
        if length < 4 or length % 2:
            raise GdsParseError(f"bad record length {length}", offset=off)
        if off + length > len(self.data):
            raise GdsParseError("record runs past end of stream", offset=off)
        payload = self.data[off + 4 : off + length]
        self.pos = off + length
        return off, rectype, dattype, payload


def _rec_name(rectype: int) -> str:
    return _REC_NAMES.get(rectype, f"0x{rectype:02X}")


class _Parser:
    def __init__(self, data: bytes):
        self.tok = _Tokenizer(data)
        self.cur = None
        self.offset = 0
        self.advance()

    def advance(self):
        rec = self.tok.next()
        if rec is None:
            self.cur = None
            return
        self.offset, self.rectype, self.dattype, self.payload = rec
        self.cur = self.rectype

    def expect(self, rectype: int) -> bytes:
        if self.cur is None:
            raise GdsParseError(
                f"unexpected end of stream, wanted {_rec_name(rectype)}",
                offset=self.tok.pos,
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


def read_gdsii(data: bytes):
    """Parse GDSII bytes back into a layout library."""
    from .layout import Library, Cell, Polygon, Placement

    p = _Parser(data)
    version = struct.unpack(">h", p.expect_sized(HEADER, 2))[0]
    if version != GDS_VERSION:
        raise GdsParseError(f"unsupported stream version {version}", offset=0)
    p.expect(BGNLIB)
    name_off = p.offset
    libname = _parse_ascii(p.expect(LIBNAME), name_off)
    units_off = p.offset
    uu, mm = struct.unpack(">QQ", p.expect_sized(UNITS, 16))
    dbu_uu = decode_real8(uu)
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
    p.expect(ENDLIB)
    if p.cur is not None:
        raise GdsParseError("data after ENDLIB", offset=p.offset)
    lib = _at(name_off, Library, name=libname, user_unit_dbu=dbu_uu)
    for cell_off, cell in cells:
        _at(cell_off, lib.add, cell)
    return lib

"""Mask geometry: validated polygons, cells, libraries, and the generators
for IDT devices, de-embedding twins, chips, reticle plans, and wafer maps.

All coordinates are integer database units of 1 nm within int32; this module
is the only place that range is checked.  Polygons are stored open (closure
vertex is added at serialization) and must be simple and counter-clockwise.
`Polygon(...)`, as built by callers and by `read_gdsii`, runs the full check;
copies from `translated`, right-angle `rotated` and integer `scaled`, and the
generators' rectangles, are valid by construction and get only the range check.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

from .config import ChipConfig, LayerMap, ReticleConfig, WaferConfig
from .design import ResonatorDesign, LayerBand
from .errors import CoordinateError, InputError, PackingError

__all__ = [
    "Polygon",
    "Placement",
    "Cell",
    "Library",
    "ReticleSpec",
    "ChipPlacement",
    "to_dbu",
    "gen_idt_cell",
    "gen_open_cell",
    "gen_short_cell",
    "gen_chip",
    "gen_wafer_map",
    "build_reticle",
    "dump_polygons_csv",
]

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

BUSBAR_WIDTH = 5e-6
PAD_SIZE = 50e-6
PAD_PITCH = 100e-6
PAD_CLEARANCE = 10e-6
SHORT_STRAP_WIDTH = 5e-6

_NAME_RE = re.compile(r"^[A-Za-z0-9_?$]{1,32}$")


def to_dbu(x_m: float) -> int:
    """Meters to integer nanometer database units, range-checked."""
    v = x_m * 1e9
    if math.isfinite(v):  # round() of inf or nan raises; the range check catches them
        v = round(v)
    if not INT32_MIN <= v <= INT32_MAX:
        raise CoordinateError(f"{x_m} m exceeds 32-bit database units")
    return v


def _check_int32(points, what: str = "vertex") -> None:
    for x, y in points:
        if not (INT32_MIN <= x <= INT32_MAX and INT32_MIN <= y <= INT32_MAX):
            raise CoordinateError(f"{what} ({x}, {y}) exceeds 32-bit range")


def _integer(value, what: str) -> int:
    """value as a plain int; InputError for a bool or a non-integer."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _orient(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_cross(p1, p2, p3, p4) -> bool:
    """True if segment p1-p2 intersects p3-p4 anywhere (touching counts)."""
    o1 = _orient(*p1, *p2, *p3)
    o2 = _orient(*p1, *p2, *p4)
    o3 = _orient(*p3, *p4, *p1)
    o4 = _orient(*p3, *p4, *p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(*p1, *p2, *p3):
        return True
    if o2 == 0 and _on_segment(*p1, *p2, *p4):
        return True
    if o3 == 0 and _on_segment(*p3, *p4, *p1):
        return True
    if o4 == 0 and _on_segment(*p3, *p4, *p2):
        return True
    return False


@dataclass(frozen=True)
class Polygon:
    layer: int
    vertices: tuple  # ((x, y), ...) open, CCW

    def __post_init__(self):
        verts = tuple((_integer(x, "vertex coordinate"), _integer(y, "vertex coordinate"))
                      for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) == 4:  # an axis-aligned CCW rectangle passes every check below
            (x0, y0), (x1, y1), (x2, y2), (x3, y3) = verts
            if ((y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0 and (x1 - x0) * (y2 - y1) > 0)
                    or (x0 == x1 and y1 == y2 and x2 == x3 and y3 == y0
                        and (x1 - x2) * (y1 - y0) > 0)):
                _check_int32(verts)
                return
        if len(set(verts)) < 3:
            raise InputError("polygon needs at least 3 distinct vertices")
        n = len(verts)
        for i in range(n):
            if verts[i] == verts[(i + 1) % n]:
                raise InputError("polygon has consecutive duplicate vertices")
        _check_int32(verts)
        if self.signed_area2() <= 0:
            raise InputError("polygon must be counter-clockwise")
        # pairwise segment check, adjacent pairs excluded
        segs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue
                if _segments_cross(*segs[i], *segs[j]):
                    raise InputError("polygon is self-intersecting")

    def signed_area2(self) -> int:
        verts = self.vertices
        n = len(verts)
        s = 0
        for i in range(n):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % n]
            s += x0 * y1 - x1 * y0
        return s

    def bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    @classmethod
    def _trusted(cls, layer: int, vertices: tuple) -> "Polygon":
        """Polygon valid by construction, from int pairs: checks the int32 range only."""
        _check_int32(vertices)
        poly = object.__new__(cls)
        object.__setattr__(poly, "layer", layer)
        object.__setattr__(poly, "vertices", vertices)
        return poly

    def translated(self, dx: int, dy: int) -> "Polygon":
        dx, dy = _integer(dx, "translation"), _integer(dy, "translation")
        return Polygon._trusted(self.layer, tuple((x + dx, y + dy) for x, y in self.vertices))

    def rotated(self, rotation: int) -> "Polygon":
        if rotation == 0:
            return self
        turned = tuple(_rotate_point(x, y, rotation) for x, y in self.vertices)
        return Polygon._trusted(self.layer, turned)

    def scaled(self, factor: int) -> "Polygon":
        """Copy magnified about the origin by a positive integer factor."""
        k = _integer(factor, "scale factor")
        if k < 1:
            raise InputError(f"scale factor must be positive, got {factor!r}")
        return Polygon._trusted(self.layer, tuple((x * k, y * k) for x, y in self.vertices))


@dataclass(frozen=True)
class Placement:
    cell_name: str
    x: int
    y: int
    rotation: int = 0

    def __post_init__(self):
        if self.rotation not in (0, 90, 180, 270):
            raise InputError("rotation must be one of 0, 90, 180, 270 degrees")
        _check_int32(((self.x, self.y),), "placement")


def _union_bbox(polygons):
    """(x0, y0, x1, y1) around every polygon, None when there are none."""
    boxes = [p.bbox() for p in polygons]
    if not boxes:
        return None
    return tuple(f(b[i] for b in boxes) for i, f in enumerate((min, min, max, max)))


@dataclass
class Cell:
    name: str
    polygons: list = field(default_factory=list)
    placements: list = field(default_factory=list)

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise InputError(f"cell name {self.name!r} is not GDSII-legal")

    def bbox_local(self):
        """Bounding box of this cell's own polygons only, None if empty."""
        return _union_bbox(self.polygons)


class Library:
    """Ordered collection of uniquely named cells."""

    def __init__(self, name: str = "LAMBKIT", user_unit_dbu: float = 1e-3):
        if not _NAME_RE.match(name):
            raise InputError(f"library name {name!r} is not GDSII-legal")
        self.name = name
        self.user_unit_dbu = user_unit_dbu
        self.cells = []
        self._by_name = {}

    def add(self, cell: Cell) -> Cell:
        if cell.name in self._by_name:
            raise InputError(f"duplicate cell name {cell.name!r}")
        self.cells.append(cell)
        self._by_name[cell.name] = cell
        return cell

    def __getitem__(self, name: str) -> Cell:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def validate(self):
        """Check placement targets exist and the reference graph is acyclic."""
        for cell in self.cells:
            for ref in cell.placements:
                if ref.cell_name not in self._by_name:
                    raise InputError(
                        f"cell {cell.name!r} places unknown cell {ref.cell_name!r}"
                    )
        state = {}  # 0 visiting, 1 done

        def visit(name):
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                raise InputError(f"placement cycle through cell {name!r}")
            state[name] = 0
            for ref in self._by_name[name].placements:
                visit(ref.cell_name)
            state[name] = 1

        for cell in self.cells:
            visit(cell.name)

    def flatten(self, cell_name: str) -> list:
        """All polygons of a cell with placements resolved recursively."""
        self.validate()
        out = []

        def walk(name, dx, dy, rotation):
            cell = self._by_name[name]
            for poly in cell.polygons:
                out.append(poly.rotated(rotation).translated(dx, dy))
            for ref in cell.placements:
                rx, ry = _rotate_point(ref.x, ref.y, rotation)
                walk(
                    ref.cell_name,
                    dx + rx,
                    dy + ry,
                    (rotation + ref.rotation) % 360,
                )

        if cell_name not in self._by_name:
            raise InputError(f"unknown cell {cell_name!r}")
        walk(cell_name, 0, 0, 0)
        return out

    def bbox(self, cell_name: str):
        return _union_bbox(self.flatten(cell_name))


def _rotate_point(x: int, y: int, rotation: int):
    if rotation == 0:
        return x, y
    if rotation == 90:
        return -y, x
    if rotation == 180:
        return -x, -y
    if rotation == 270:
        return y, -x
    raise InputError(f"rotation {rotation} not a right angle")


def _rect(layer: int, x0: int, y0: int, x1: int, y1: int) -> Polygon:
    if not (x0 < x1 and y0 < y1):
        raise InputError("rectangle has non-positive extent")
    return Polygon._trusted(layer, ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def _idt_frame(design: ResonatorDesign, layers: LayerMap):
    """Shared busbar/pad geometry and the derived extents, in dbu."""
    idt = design.idt
    p = to_dbu(idt.pitch)
    fw = to_dbu(idt.finger_width)
    g = to_dbu(idt.gap)
    a = to_dbu(idt.aperture)
    bb = to_dbu(BUSBAR_WIDTH)
    n = idt.n_fingers
    d = idt.dummy_count_per_side
    idt_layer = layers.small_idt if design.layer is LayerBand.SMALL else layers.large_idt

    x_left = -d * p - fw // 2
    x_right = (n - 1 + d) * p - fw // 2 + fw
    y_top = a + 2 * g

    frame = {
        "p": p,
        "fw": fw,
        "g": g,
        "a": a,
        "bb": bb,
        "n": n,
        "d": d,
        "idt_layer": idt_layer,
        "x_left": x_left,
        "x_right": x_right,
        "y_top": y_top,
    }
    busbars = [
        _rect(idt_layer, x_left, -bb, x_right, 0),
        _rect(idt_layer, x_left, y_top, x_right, y_top + bb),
    ]
    pad = to_dbu(PAD_SIZE)
    pad_pitch = to_dbu(PAD_PITCH)
    clr = to_dbu(PAD_CLEARANCE)
    xc = ((n - 1) * p) // 2
    pad_y1 = -bb - clr
    pads = [
        _rect(
            layers.pads,
            xc + k * pad_pitch - pad // 2,
            pad_y1 - pad,
            xc + k * pad_pitch - pad // 2 + pad,
            pad_y1,
        )
        for k in (-1, 0, 1)
    ]
    return frame, busbars, pads


def gen_idt_cell(design: ResonatorDesign, layers: LayerMap) -> Cell:
    """Full device cell: fingers, busbars, dummies, bottom plate, outline, pads.

    Finger i is centered at x = i*pitch; even fingers connect to the bottom
    busbar, odd to the top.  Dummies continue the pitch beyond both array
    ends, attached to neither busbar.
    """
    frame, busbars, pads = _idt_frame(design, layers)
    p, fw, g, a = frame["p"], frame["fw"], frame["g"], frame["a"]
    n, d, idt_layer = frame["n"], frame["d"], frame["idt_layer"]
    y_top = frame["y_top"]
    cell = Cell(name=design.design_id)
    cell.polygons.extend(busbars)
    for i in range(n):
        x0 = i * p - fw // 2
        if i % 2 == 0:
            cell.polygons.append(_rect(idt_layer, x0, 0, x0 + fw, a + g))
        else:
            cell.polygons.append(_rect(idt_layer, x0, g, x0 + fw, y_top))
    dy0 = g // 2
    dy1 = g // 2 + a + g
    for j in range(1, d + 1):
        for xc in (-j * p, (n - 1 + j) * p):
            x0 = xc - fw // 2
            cell.polygons.append(_rect(idt_layer, x0, dy0, x0 + fw, dy1))
    # bottom plate under the active overlap region only
    cell.polygons.append(
        _rect(layers.bottom_electrode, -(fw // 2), g, (n - 1) * p - fw // 2 + fw, g + a)
    )
    # suspension outline plus two lateral tethers
    lam4 = to_dbu(design.idt.wavelength / 4.0)
    lam2 = to_dbu(design.idt.wavelength / 2.0)
    bb = frame["bb"]
    ox0 = frame["x_left"] - lam4
    ox1 = frame["x_right"] + lam4
    oy0 = -bb - lam4
    oy1 = y_top + bb + lam4
    cell.polygons.append(_rect(layers.outline, ox0, oy0, ox1, oy1))
    yc = (oy0 + oy1) // 2
    t0 = yc - lam4 // 2
    cell.polygons.append(_rect(layers.outline, ox0 - lam2, t0, ox0, t0 + lam4))
    cell.polygons.append(_rect(layers.outline, ox1, t0, ox1 + lam2, t0 + lam4))
    cell.polygons.extend(pads)
    return cell


def gen_open_cell(design: ResonatorDesign, layers: LayerMap) -> Cell:
    """De-embedding open: pads and busbars with the device absent."""
    _, busbars, pads = _idt_frame(design, layers)
    cell = Cell(name=design.design_id + "_OPEN")
    cell.polygons.extend(busbars)
    cell.polygons.extend(pads)
    return cell


def gen_short_cell(design: ResonatorDesign, layers: LayerMap) -> Cell:
    """De-embedding short: busbars joined by a metal strap."""
    frame, busbars, pads = _idt_frame(design, layers)
    cell = Cell(name=design.design_id + "_SHORT")
    cell.polygons.extend(busbars)
    strap = to_dbu(SHORT_STRAP_WIDTH)
    xc = ((frame["n"] - 1) * frame["p"]) // 2
    cell.polygons.append(
        _rect(
            frame["idt_layer"],
            xc - strap // 2,
            -frame["bb"],
            xc - strap // 2 + strap,
            frame["y_top"] + frame["bb"],
        )
    )
    cell.polygons.extend(pads)
    return cell


CHIP_CELL_NAME = "CHIP"


def gen_chip(
    designs,
    chip_cfg: ChipConfig,
    layers: LayerMap,
    lib_name: str = "LAMBKIT",
) -> Library:
    """Row-pack device/open/short triplets into the chip area.

    Devices are placed in ascending pitch order (ties broken by design id),
    left to right, starting a new row when the triplet would cross the chip
    margin.  The first design that cannot fit raises PackingError.
    """
    lib = Library(name=lib_name)
    chip = Cell(name=CHIP_CELL_NAME)
    w = to_dbu(chip_cfg.width_m)
    h = to_dbu(chip_cfg.height_m)
    margin = to_dbu(chip_cfg.margin_m)
    spacing = to_dbu(chip_cfg.spacing_m)
    chip.polygons.append(_rect(layers.outline, 0, 0, w, h))

    ordered = sorted(designs, key=lambda d: (d.idt.pitch, d.design_id))
    cursor_x = margin
    cursor_y = margin
    row_h = 0
    for design in ordered:
        cells = [
            gen_idt_cell(design, layers),
            gen_open_cell(design, layers),
            gen_short_cell(design, layers),
        ]
        boxes = [c.bbox_local() for c in cells]
        widths = [b[2] - b[0] for b in boxes]
        heights = [b[3] - b[1] for b in boxes]
        trip_w = sum(widths) + 2 * spacing
        trip_h = max(heights)
        if cursor_x + trip_w > w - margin:
            cursor_x = margin
            cursor_y += row_h + spacing
            row_h = 0
        if cursor_x + trip_w > w - margin or cursor_y + trip_h > h - margin:
            raise PackingError(
                f"design {design.design_id} does not fit the chip "
                f"({chip_cfg.width_m * 1e3:g} x {chip_cfg.height_m * 1e3:g} mm)"
            )
        x = cursor_x
        for cell, box, cw in zip(cells, boxes, widths):
            lib.add(cell)
            chip.placements.append(
                Placement(cell_name=cell.name, x=x - box[0], y=cursor_y - box[1])
            )
            x += cw + spacing
        cursor_x += trip_w + spacing
        row_h = max(row_h, trip_h)
    lib.add(chip)
    lib.validate()
    return lib


@dataclass(frozen=True)
class ChipPlacement:
    site_id: int
    ix: int
    iy: int
    x_m: float  # lower-left corner, wafer-centered coordinates
    y_m: float

    def center(self, chip_cfg: ChipConfig):
        return (
            self.x_m + chip_cfg.width_m / 2.0,
            self.y_m + chip_cfg.height_m / 2.0,
        )


def gen_wafer_map(chip_cfg: ChipConfig, wafer: WaferConfig) -> list:
    """Chip placements fully inside the exclusion radius, keepout skipped.

    The grid anchors one chip's lower-left corner at wafer.grid_anchor_m;
    order is row-major bottom-to-top, left-to-right.  Zero placements is a
    valid result.
    """
    to_dbu(wafer.radius_m)  # a wafer beyond the coordinate range has no finite grid
    w = chip_cfg.width_m
    h = chip_cfg.height_m
    r_eff = wafer.radius_m - wafer.edge_exclusion_m
    ax, ay = wafer.grid_anchor_m
    kx0, ky0, kx1, ky1 = wafer.keepout_m
    n_i = int(math.ceil(2 * wafer.radius_m / w)) + 2
    n_j = int(math.ceil(2 * wafer.radius_m / h)) + 2
    out = []
    site = 0
    for j in range(-n_j, n_j + 1):
        for i in range(-n_i, n_i + 1):
            x0 = ax + i * w
            y0 = ay + j * h
            x1, y1 = x0 + w, y0 + h
            if any(
                math.hypot(x, y) > r_eff for x in (x0, x1) for y in (y0, y1)
            ):
                continue
            if x0 < kx1 and x1 > kx0 and y0 < ky1 and y1 > ky0:
                continue
            out.append(ChipPlacement(site_id=site, ix=i, iy=j, x_m=x0, y_m=y0))
            site += 1
    return out


@dataclass(frozen=True)
class ReticleSpec:
    """Stepper reticle plan: wafer-scale image field and ReMa sub-windows."""

    image_field_m: tuple  # (w, h) at wafer scale
    demag: int
    rema_windows: tuple  # ((x0, y0, x1, y1), ...) field-local, wafer scale

    MAX_FIELD = 0.022

    def __post_init__(self):
        wf, hf = self.image_field_m
        if not (0 < wf <= self.MAX_FIELD and 0 < hf <= self.MAX_FIELD):
            raise InputError("image field exceeds the 2.2 cm stepper limit")
        if self.demag != 4:
            raise InputError("demagnification is fixed at 4")
        wins = tuple(tuple(w) for w in self.rema_windows)
        object.__setattr__(self, "rema_windows", wins)
        for x0, y0, x1, y1 in wins:
            if not (x0 < x1 and y0 < y1):
                raise InputError("rema window has non-positive extent")
            if x0 < 0 or y0 < 0 or x1 > wf or y1 > hf:
                raise InputError("rema window outside the image field")
        for a in range(len(wins)):
            for b in range(a + 1, len(wins)):
                ax0, ay0, ax1, ay1 = wins[a]
                bx0, by0, bx1, by1 = wins[b]
                if ax0 < bx1 and ax1 > bx0 and ay0 < by1 and ay1 > by0:
                    raise InputError("rema windows overlap")


RETICLE_CELL_NAME = "RETICLE"
_WINDOW_GAP = 1e-3  # vertical gap between rema windows, wafer scale


def build_reticle(
    chip_lib: Library,
    chip_cfg: ChipConfig,
    layers: LayerMap,
    reticle_cfg: ReticleConfig,
):
    """Reticle plan for the chip: one ReMa window per mask layer, the chip
    image repeated per window with only that layer's polygons, magnified by
    the demag factor.

    Returns (ReticleSpec, Library) where the library holds the flat mask cell.
    """
    layer_ids = [
        layers.small_idt,
        layers.large_idt,
        layers.pads,
        layers.bottom_electrode,
        layers.outline,
    ]
    wf, hf = reticle_cfg.image_field_m
    cw, ch = chip_cfg.width_m, chip_cfg.height_m
    n = len(layer_ids)
    total_h = n * ch + (n - 1) * _WINDOW_GAP
    if cw > wf or total_h > hf:
        raise PackingError(
            f"{n} chip windows ({cw * 1e3:g} x {total_h * 1e3:g} mm) exceed "
            f"the image field ({wf * 1e3:g} x {hf * 1e3:g} mm)"
        )
    x0 = (wf - cw) / 2.0
    y_cursor = (hf - total_h) / 2.0
    windows = []
    for _ in layer_ids:
        windows.append((x0, y_cursor, x0 + cw, y_cursor + ch))
        y_cursor += ch + _WINDOW_GAP
    spec = ReticleSpec(
        image_field_m=(wf, hf), demag=reticle_cfg.demag, rema_windows=tuple(windows)
    )
    flat = chip_lib.flatten(CHIP_CELL_NAME)
    mask_lib = Library(name="RETICLE_MASK")
    mask = Cell(name=RETICLE_CELL_NAME)
    demag = reticle_cfg.demag
    for layer_id, (wx0, wy0, _, _) in zip(layer_ids, windows):
        dx = to_dbu(wx0) * demag
        dy = to_dbu(wy0) * demag
        for poly in flat:
            if poly.layer != layer_id:
                continue
            mask.polygons.append(poly.scaled(demag).translated(dx, dy))
    mask_lib.add(mask)
    return spec, mask_lib


def dump_polygons_csv(lib: Library, cell_name: str) -> list:
    """Flat debug dump: one CSV row per polygon of the flattened cell."""
    rows = ["layer,n_vertices,vertices"]
    for poly in lib.flatten(cell_name):
        pts = " ".join(f"{x}:{y}" for x, y in poly.vertices)
        rows.append(f"{poly.layer},{len(poly.vertices)},{pts}")
    return rows

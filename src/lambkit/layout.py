"""Mask geometry: validated polygons, cells, libraries, and the generators
for chips, reticle plans and wafer maps.  One generator, `gen_device_cells`,
builds each design's IDT device cell together with its open and short
de-embedding twins from a single frame.

All coordinates are integer database units of 1 nm within int32; this module
is the only place that range is checked.  Polygons are stored open (closure
vertex is added at serialization) and must be simple and counter-clockwise.
`Polygon(...)` runs the full check, as `read_gdsii` does for every polygon it
decodes; copies and the generators' rectangles are valid by construction and
get only the range check.  Each copy, from `translated`, `rotated`, `scaled`,
`flatten` or `build_reticle`, is one composed map: right-angle turn, integer
magnification and offset; `build_reticle` maps each cell's own polygons per
placement.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import chain

from .config import ChipConfig, LayerMap, ReticleConfig, WaferConfig
from .design import ResonatorDesign, LayerBand
from .errors import CoordinateError, InputError, PackingError
from .record import astuple, dataclass, field

__all__ = [
    "Polygon",
    "Placement",
    "Cell",
    "Library",
    "ChipPlacement",
    "to_dbu",
    "gen_device_cells",
    "gen_chip",
    "gen_wafer_map",
    "build_reticle",
]

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

BUSBAR_WIDTH = 5e-6
PAD_SIZE = 50e-6
PAD_PITCH = 100e-6
PAD_CLEARANCE = 10e-6
SHORT_STRAP_WIDTH = 5e-6

_NAME_RE = re.compile(r"[A-Za-z0-9_?$]{1,32}")


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
        verts = tuple([(x, y) if type(x) is int and type(y) is int
                       else (_integer(x, "vertex coordinate"), _integer(y, "vertex coordinate"))
                       for x, y in self.vertices])
        object.__setattr__(self, "vertices", verts)
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
        return _union_bbox((self,))

    @classmethod
    def _trusted(cls, layer: int, vertices: tuple) -> "Polygon":
        """Polygon valid by construction, from int pairs: checks the int32 range only."""
        _check_int32(vertices)
        poly = object.__new__(cls)
        object.__setattr__(poly, "layer", layer)
        object.__setattr__(poly, "vertices", vertices)
        return poly

    def translated(self, dx: int, dy: int) -> "Polygon":
        return _mapped((self,), 0, 1, _integer(dx, "translation"), _integer(dy, "translation"))[0]

    def rotated(self, rotation: int) -> "Polygon":
        return self if rotation == 0 else _mapped((self,), rotation, 1, 0, 0)[0]

    def scaled(self, factor: int) -> "Polygon":
        """Copy magnified about the origin by a positive integer factor."""
        k = _integer(factor, "scale factor")
        if k < 1:
            raise InputError(f"scale factor must be positive, got {factor!r}")
        return _mapped((self,), 0, k, 0, 0)[0]


# (a, b, c, d) of the turn about the origin (x, y) -> (a x + b y, c x + d y)
_TURNS = {0: (1, 0, 0, 1), 90: (0, -1, 1, 0), 180: (-1, 0, 0, -1), 270: (0, 1, -1, 0)}


def _mapped(polygons, rotation: int, k: int, dx: int, dy: int) -> list:
    """Copies of polygons turned by a right angle about the origin, magnified
    by the positive int k, then moved by the ints (dx, dy): one composed map
    and one range check per polygon."""
    if rotation not in _TURNS:
        raise InputError(f"rotation {rotation} not a right angle")
    a, b, c, d = (k * t for t in _TURNS[rotation])
    trusted = Polygon._trusted
    return [trusted(p.layer, tuple([(a * x + b * y + dx, c * x + d * y + dy)
                                    for x, y in p.vertices]))
            for p in polygons]


@dataclass(frozen=True)
class Placement:
    cell_name: str
    x: int
    y: int
    rotation: int = 0

    def __post_init__(self):
        if self.rotation not in (0, 90, 180, 270):
            raise InputError("rotation must be one of 0, 90, 180, 270 degrees")
        for name in ("x", "y"):
            object.__setattr__(self, name, _integer(getattr(self, name), "placement coordinate"))
        _check_int32(((self.x, self.y),), "placement")


def _union_bbox(polygons):
    """(x0, y0, x1, y1) around every polygon, None when there are none."""
    if not polygons:
        return None
    xs, ys = zip(*chain.from_iterable(p.vertices for p in polygons))
    return min(xs), min(ys), max(xs), max(ys)


@dataclass
class Cell:
    name: str
    polygons: list = field(default_factory=list)
    placements: list = field(default_factory=list)

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise InputError(f"cell name {self.name!r} is not GDSII-legal")


class Library:
    """Ordered collection of uniquely named cells."""

    def __init__(self, name: str = "LAMBKIT"):
        if not _NAME_RE.fullmatch(name):
            raise InputError(f"library name {name!r} is not GDSII-legal")
        self.name = name
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
        done = set()
        for root in self.cells:
            # depth-first with an explicit stack: a deep hierarchy is legal
            path = {root.name}
            stack = [(root.name, iter(root.placements))]
            while stack:
                name, refs = stack[-1]
                ref = next(refs, None)
                if ref is None:
                    stack.pop()
                    path.discard(name)
                    done.add(name)
                elif ref.cell_name in path:
                    raise InputError(f"placement cycle through cell {ref.cell_name!r}")
                elif ref.cell_name not in done:
                    path.add(ref.cell_name)
                    stack.append((ref.cell_name, iter(self._by_name[ref.cell_name].placements)))

    def _walk(self, cell_name: str) -> list:
        """(cell, dx, dy, rotation) of each placed copy of a cell and of the
        cells under it, the map of every level composed, in pre-order."""
        self.validate()
        if cell_name not in self._by_name:
            raise InputError(f"unknown cell {cell_name!r}")
        out = []
        stack = [(self._by_name[cell_name], 0, 0, 0)]
        while stack:
            cell, dx, dy, rotation = copy = stack.pop()
            out.append(copy)
            a, b, c, d = _TURNS[rotation]
            for ref in reversed(cell.placements):  # popped in placement order
                stack.append((self._by_name[ref.cell_name], dx + a * ref.x + b * ref.y,
                              dy + c * ref.x + d * ref.y, (rotation + ref.rotation) % 360))
        return out

    def flatten(self, cell_name: str) -> list:
        """All polygons of a cell with placements resolved, in pre-order."""
        out = []
        for cell, dx, dy, rotation in self._walk(cell_name):
            out += _mapped(cell.polygons, rotation, 1, dx, dy)
        return out

    def bbox(self, cell_name: str):
        return _union_bbox(self.flatten(cell_name))


def _rect(layer: int, x0: int, y0: int, x1: int, y1: int) -> Polygon:
    if not (x0 < x1 and y0 < y1):
        raise InputError("rectangle has non-positive extent")
    return Polygon._trusted(layer, ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def gen_device_cells(design: ResonatorDesign, layers: LayerMap):
    """(device, open, short) cells of one design, built on one frame.

    The device holds busbars, fingers, dummies, the bottom plate, the
    suspension outline with two lateral tethers, and pads.  Finger i is
    centered at x = i*pitch; even fingers connect to the bottom busbar, odd
    to the top.  Dummies continue the pitch beyond both array ends, attached
    to neither busbar.  The de-embedding open keeps the busbars and pads with
    the device absent; the short joins the busbars with a metal strap.  The
    three cells share the frozen busbar and pad polygons, never a list.
    """
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
    xc = ((n - 1) * p) // 2
    busbars = [
        _rect(idt_layer, x_left, -bb, x_right, 0),
        _rect(idt_layer, x_left, y_top, x_right, y_top + bb),
    ]
    pad = to_dbu(PAD_SIZE)
    pad_pitch = to_dbu(PAD_PITCH)
    clr = to_dbu(PAD_CLEARANCE)
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

    device = Cell(name=design.design_id, polygons=list(busbars))
    for i in range(n):
        x0 = i * p - fw // 2
        if i % 2 == 0:
            device.polygons.append(_rect(idt_layer, x0, 0, x0 + fw, a + g))
        else:
            device.polygons.append(_rect(idt_layer, x0, g, x0 + fw, y_top))
    dy0 = g // 2
    dy1 = g // 2 + a + g
    for j in range(1, d + 1):
        for xd in (-j * p, (n - 1 + j) * p):
            x0 = xd - fw // 2
            device.polygons.append(_rect(idt_layer, x0, dy0, x0 + fw, dy1))
    # bottom plate under the active overlap region only
    device.polygons.append(
        _rect(layers.bottom_electrode, -(fw // 2), g, (n - 1) * p - fw // 2 + fw, g + a)
    )
    # suspension outline plus two lateral tethers
    lam4 = to_dbu(idt.wavelength / 4.0)
    lam2 = to_dbu(idt.wavelength / 2.0)
    ox0 = x_left - lam4
    ox1 = x_right + lam4
    oy0 = -bb - lam4
    oy1 = y_top + bb + lam4
    device.polygons.append(_rect(layers.outline, ox0, oy0, ox1, oy1))
    yc = (oy0 + oy1) // 2
    t0 = yc - lam4 // 2
    device.polygons.append(_rect(layers.outline, ox0 - lam2, t0, ox0, t0 + lam4))
    device.polygons.append(_rect(layers.outline, ox1, t0, ox1 + lam2, t0 + lam4))
    device.polygons.extend(pads)

    open_cell = Cell(name=design.design_id + "_OPEN", polygons=[*busbars, *pads])
    strap = to_dbu(SHORT_STRAP_WIDTH)
    strap_rect = _rect(idt_layer, xc - strap // 2, -bb, xc - strap // 2 + strap, y_top + bb)
    short_cell = Cell(name=design.design_id + "_SHORT", polygons=[*busbars, strap_rect, *pads])
    return device, open_cell, short_cell


CHIP_CELL_NAME = "CHIP"


def gen_chip(
    designs,
    chip_cfg: ChipConfig,
    layers: LayerMap,
) -> Library:
    """Row-pack device/open/short triplets into the chip area.

    Devices are placed in ascending pitch order (ties broken by design id),
    left to right, starting a new row when the triplet would cross the chip
    margin.  The first design that cannot fit raises PackingError.
    """
    lib = Library()
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
        cells = gen_device_cells(design, layers)
        boxes = [_union_bbox(c.polygons) for c in cells]
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


# a larger wafer grid is a chip size typo, not minutes of scanning; the
# grid spans are capped before they are counted, so any chip size has a count
MAX_GRID_POINTS = 10**6


def gen_wafer_map(chip_cfg: ChipConfig, wafer: WaferConfig) -> list:
    """Chip placements fully inside the exclusion radius, keepout skipped.

    The grid anchors one chip's lower-left corner at wafer.grid_anchor_m;
    order is row-major bottom-to-top, left-to-right.  Zero placements is a
    valid result; a grid over MAX_GRID_POINTS positions is a PackingError.
    """
    to_dbu(wafer.radius_m)  # a wafer beyond the coordinate range has no finite grid
    w = chip_cfg.width_m
    h = chip_cfg.height_m
    r_eff = wafer.radius_m - wafer.edge_exclusion_m
    ax, ay = wafer.grid_anchor_m
    kx0, ky0, kx1, ky1 = wafer.keepout_m
    n_i, n_j = (math.ceil(min(wafer.diameter_m / s, MAX_GRID_POINTS)) + 2 for s in (w, h))
    if (2 * n_i + 1) * (2 * n_j + 1) > MAX_GRID_POINTS:
        raise PackingError(f"a {w:g} x {h:g} m chip on a {wafer.diameter_m:g} m wafer needs "
                           f"more than {MAX_GRID_POINTS} grid positions")
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


RETICLE_CELL_NAME = "RETICLE"
DEMAG = 4  # the stepper's reduction: the reticle is 4x the wafer image
_WINDOW_GAP = 1e-3  # vertical gap between rema windows, wafer scale


def build_reticle(
    chip_lib: Library,
    chip_cfg: ChipConfig,
    layers: LayerMap,
    reticle_cfg: ReticleConfig,
):
    """Reticle plan for the chip: one ReMa window per mask layer, in LayerMap
    field order from the bottom up, the chip image repeated per window with
    only that layer's polygons, magnified by DEMAG.

    Returns (windows, Library): each window's field-local (x0, y0, x1, y1)
    at wafer scale, stacked _WINDOW_GAP apart so that none overlap, and the
    flat mask cell.  A stack not inside the image field is a PackingError.
    """
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
    # each window placed from y0, not by a running sum, and the top one clamped
    # to the field: a stack that fills it exactly may round an ulp past it
    windows = [(x0, y, x0 + cw, y + ch)
               for y in (y0 + i * (ch + _WINDOW_GAP) for i in range(n))]
    windows[-1] = (*windows[-1][:3], min(windows[-1][3], hf))
    copies = chip_lib._walk(CHIP_CELL_NAME)
    by_layer = {}  # cell name -> layer -> the cell's own polygons on it, in order
    for cell, *_ in copies:
        if cell.name not in by_layer:
            groups = by_layer[cell.name] = {}
            for poly in cell.polygons:
                groups.setdefault(poly.layer, []).append(poly)
    mask_lib = Library(name="RETICLE_MASK")
    mask = Cell(name=RETICLE_CELL_NAME)
    for layer_id, (wx0, wy0, _, _) in zip(layer_ids, windows):
        ox, oy = to_dbu(wx0) * DEMAG, to_dbu(wy0) * DEMAG
        for cell, dx, dy, rotation in copies:  # the chip's flatten order, one map each
            group = by_layer[cell.name].get(layer_id)
            if group:
                mask.polygons += _mapped(group, rotation, DEMAG, ox + DEMAG * dx, oy + DEMAG * dy)
    mask_lib.add(mask)
    return tuple(windows), mask_lib

"""Layout geometry and GDSII stream round-trips."""

import itertools
import math
import random
import struct

import numpy as np
import pytest
from oracles import build_reticle_reference, read_gdsii_reference

from lambkit import cli
from lambkit.config import LayerMap, ToolkitConfig
from lambkit.design import match_finger_count
from lambkit.errors import (
    CoordinateError,
    GdsParseError,
    InputError,
    PackingError,
)
from lambkit.gdsii import (
    decode_real8,
    encode_real8,
    read_gdsii,
    write_gdsii,
)
from lambkit.layout import (
    Cell,
    ChipPlacement,
    Library,
    Placement,
    Polygon,
    _WINDOW_GAP,
    build_reticle,
    gen_chip,
    gen_device_cells,
    gen_wafer_map,
    to_dbu,
)
from lambkit.record import astuple, fields

CFG = ToolkitConfig.default()


def square(layer=1, size=100, x=0, y=0):
    return Polygon(layer, ((x, y), (x + size, y), (x + size, y + size), (x, y + size)))


# ---------------------------------------------------------------------------
# polygon validation

def test_polygon_needs_three_distinct_vertices():
    with pytest.raises(ValueError):
        Polygon(1, ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Polygon(1, ((0, 0), (1, 0), (1, 0), (0, 0)))


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        Polygon(1, ((0, 0), (0, 10), (10, 10), (10, 0)))


def test_polygon_rejects_self_intersection():
    with pytest.raises(ValueError):
        Polygon(1, ((0, 0), (10, 10), (10, 0), (0, 10)))


@pytest.mark.parametrize("vertex", [(10.2, 5), (10, "5"), (10, 5.0), (True, 5)])
def test_polygon_rejects_non_integer_vertices(vertex):
    # a float or string vertex is refused, not truncated to a moved vertex
    with pytest.raises(InputError, match="must be an integer"):
        Polygon(1, ((0, 0), (10, 0), vertex))


def test_polygon_takes_numpy_integer_vertices():
    poly = Polygon(1, tuple((np.int64(x), np.int32(y)) for x, y in ((0, 0), (10, 0), (10, 5))))
    assert poly == Polygon(1, ((0, 0), (10, 0), (10, 5)))
    assert all(type(c) is int for v in poly.vertices for c in v)


def test_polygon_rejects_overflow():
    with pytest.raises(CoordinateError):
        Polygon(1, ((0, 0), (2**31, 0), (2**31, 10), (0, 10)))
    with pytest.raises(CoordinateError):
        to_dbu(3.0)  # 3e9 nm


@pytest.mark.parametrize("vertices", [
    ((0, 0), (10, 0), (10, 5), (0, 5)),
    ((0, 0), (0, -5), (10, -5), (10, 0)),
])
def test_polygon_accepts_ccw_rectangles_from_either_edge(vertices):
    assert Polygon(1, vertices).signed_area2() == 100


@pytest.mark.parametrize("vertices, error, message", [
    # clockwise, from a horizontal and from a vertical first edge
    (((0, 0), (0, 5), (10, 5), (10, 0)), InputError, "polygon must be counter-clockwise"),
    (((0, 0), (10, 0), (10, -5), (0, -5)), InputError, "polygon must be counter-clockwise"),
    # zero area, including axis-aligned shapes that fold back on themselves
    (((0, 0), (10, 0), (10, 0), (0, 0)), InputError, "at least 3 distinct vertices"),
    (((0, 0), (0, 5), (0, 5), (0, 0)), InputError, "at least 3 distinct vertices"),
    (((0, 0), (10, 0), (20, 0), (5, 0)), InputError, "polygon must be counter-clockwise"),
    # duplicate vertices, next to each other or not
    (((0, 0), (0, 0), (10, 5), (0, 5)), InputError, "consecutive duplicate vertices"),
    (((0, 0), (10, 0), (0, 0), (0, 5)), InputError, "polygon must be counter-clockwise"),
    (((0, 0), (0, 1), (1, 0), (0, 2)), InputError, "polygon is self-intersecting"),
    (((0, 0), (10.0, 0), (10, 5), (0, 5)), InputError, "must be an integer, got 10.0"),
    (((0, 0), (2**31, 0), (2**31, 5), (0, 5)), CoordinateError, r"\(2147483648, 0\) exceeds"),
    (((0, 0), (0, -5), (-(2**31) - 1, -5), (-(2**31) - 1, 0)), CoordinateError,
     r"\(-2147483649, -5\) exceeds"),
])
def test_four_vertex_polygons_get_every_rejection(vertices, error, message):
    # an axis-aligned CCW rectangle skips the generic checks; nothing else may
    with pytest.raises(error, match=message):
        Polygon(1, vertices)


def test_to_dbu_rejects_every_value_outside_int32():
    assert to_dbu(-2.147483648) == -(2**31)
    assert to_dbu(2.147483647) == 2**31 - 1
    # 1e300 m overflows the product to inf, which round() cannot take
    for x_m in (2.2, -2.2, 1e300, -1e300, math.inf, -math.inf, math.nan):
        with pytest.raises(CoordinateError):
            to_dbu(x_m)


def test_rotation_values():
    sq = square()
    assert sq.rotated(90).vertices[1] == (0, 100)
    assert sq.rotated(180).bbox() == (-100, -100, 0, 0)
    with pytest.raises(ValueError):
        Placement(cell_name="A", x=0, y=0, rotation=45)


def _valid_polygons(seed=2024, n_each=40):
    """Seeded valid polygons: rectangles, L-shapes and star-shaped polygons."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_each):
        x, y = (int(v) for v in rng.integers(-10**6, 10**6, 2))
        w, h = (int(v) for v in rng.integers(1, 10**5, 2))
        out.append(Polygon(int(rng.integers(0, 64)), ((x, y), (x + w, y), (x + w, y + h), (x, y + h))))
        a, b = int(rng.integers(1, w + 1)), int(rng.integers(1, h + 1))
        if a < w and b < h:
            out.append(Polygon(2, ((x, y), (x + w, y), (x + w, y + b), (x + a, y + b),
                                   (x + a, y + h), (x, y + h))))
    while len(out) < 3 * n_each:
        n = int(rng.integers(3, 12))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        radii = rng.uniform(10.0, 5e4, n)
        cx, cy = rng.integers(-10**6, 10**6, 2)
        verts = tuple((int(cx + round(r * math.cos(t))), int(cy + round(r * math.sin(t))))
                      for r, t in zip(radii, angles))
        try:
            out.append(Polygon(5, verts))
        except InputError:
            continue  # rounding made it degenerate or the angles left a reflex gap
    return out


_TURNS = {0: lambda x, y: (x, y), 90: lambda x, y: (-y, x),
          180: lambda x, y: (-x, -y), 270: lambda x, y: (y, -x)}


def _copies(poly):
    """(copy, the vertices it should have) for every transform."""
    v = poly.vertices
    for dx, dy in ((0, 0), (123, -456), (-10**6, 10**6), (7, 0)):
        yield poly.translated(dx, dy), [(x + dx, y + dy) for x, y in v]
    for rotation, turn in _TURNS.items():
        yield poly.rotated(rotation), [turn(x, y) for x, y in v]
    for k in range(1, 9):
        yield poly.scaled(k), [(x * k, y * k) for x, y in v]
    yield poly.scaled(4).translated(-3, 5).rotated(270), [(y * 4 + 5, 3 - x * 4) for x, y in v]


def test_transformed_copies_equal_fully_checked_polygons():
    polys = _valid_polygons()
    assert len(polys) > 100
    for poly in polys:
        for copy, expected in _copies(poly):
            assert all(type(c) is int for v in copy.vertices for c in v)
            assert copy == Polygon(poly.layer, expected)  # the full check passes


def test_rectangles_skip_nothing_the_full_check_would_catch():
    from lambkit.layout import _rect

    rect = _rect(3, -5, -7, 11, 13)
    assert rect == Polygon(3, rect.vertices)
    for args in ((0, 0, 0, 5), (0, 5, 5, 0), (5, 0, 0, 5)):
        with pytest.raises(InputError):
            _rect(3, *args)
    with pytest.raises(CoordinateError):
        _rect(3, 0, 0, 2**31, 5)


def test_copies_past_int32_raise_coordinate_error():
    edge = Polygon(1, ((-(2**31), 0), (0, 0), (0, 10)))
    with pytest.raises(CoordinateError):
        edge.rotated(180)  # x = -2**31 maps to 2**31
    with pytest.raises(CoordinateError):
        square(x=2**31 - 101).translated(1, 0)
    with pytest.raises(CoordinateError):
        square().translated(0, -(2**31) - 1)
    with pytest.raises(CoordinateError):
        square(size=2**28).scaled(8)


def test_transforms_reject_bad_arguments():
    sq = square()
    for factor in (0, -2, 1.5, True):
        with pytest.raises(InputError):
            sq.scaled(factor)
    for dx in (0.5, "1", None):
        with pytest.raises(InputError):
            sq.translated(dx, 0)
    with pytest.raises(InputError):
        sq.rotated(45)
    assert sq.scaled(np.int64(2)) == sq.scaled(2)
    assert sq.translated(np.int64(3), 0) == sq.translated(3, 0)


def test_placement_rejects_coordinates_outside_int32():
    Placement(cell_name="A", x=2**31 - 1, y=-(2**31))
    for x, y in ((2**31, 0), (0, -(2**31) - 1)):
        with pytest.raises(CoordinateError):
            Placement(cell_name="A", x=x, y=y)


@pytest.mark.parametrize("bad", [1.5, math.nan, True, "3", None])
def test_placement_rejects_non_integer_coordinates(bad):
    # Polygon's rule: a float would move the placement, a bool is no coordinate
    for x, y in ((bad, 0), (0, bad)):
        with pytest.raises(InputError, match="placement coordinate must be an integer"):
            Placement(cell_name="A", x=x, y=y)


def test_placement_stores_numpy_integers_as_int():
    ref = Placement(cell_name="A", x=np.int64(7), y=np.int32(-3))
    assert (ref.x, ref.y) == (7, -3) and type(ref.x) is int and type(ref.y) is int
    lib = Library(name="L")
    lib.add(Cell(name="A", polygons=[square()]))
    lib.add(Cell(name="TOP", placements=[ref]))
    assert read_gdsii(write_gdsii(lib))["TOP"].placements == [Placement("A", 7, -3)]


def _placed(polygon, ref) -> Library:
    """A CHIP cell that places a cell of one polygon once."""
    lib = Library(name="L")
    lib.add(Cell(name="A", polygons=[polygon]))
    lib.add(Cell(name="CHIP", placements=[ref]))
    return lib


def test_flatten_and_reticle_keep_plain_int_coordinates():
    # Polygon, flatten under a turned placement and build_reticle store only
    # plain ints; the bool, float and str their inputs could hold are refused
    # by Polygon and Placement (test_polygon_rejects_non_integer_vertices,
    # test_placement_rejects_non_integer_coordinates)
    layer = CFG.layers.small_idt  # the first reticle window
    poly = Polygon(layer, tuple((np.int64(x), np.int64(y)) for x, y in square().vertices))
    lib = _placed(poly, Placement("A", np.int64(1000), np.int64(-50), rotation=90))
    (flat,) = lib.flatten("CHIP")
    windows, mask = build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)
    (image,) = mask["RETICLE"].polygons
    wx, wy = to_dbu(windows[0][0]) * 4, to_dbu(windows[0][1]) * 4
    assert flat.vertices == ((1000, -50), (1000, 50), (900, 50), (900, -50))
    assert image.vertices == tuple((4 * x + wx, 4 * y + wy) for x, y in flat.vertices)
    for p in (poly, flat, image):
        assert all(type(c) is int for v in p.vertices for c in v)


def test_flatten_and_reticle_name_the_vertex_past_int32():
    # (x, y) -> (-y, x + 2**31 - 50) takes the square's second vertex past int32
    lib = _placed(square(), Placement("A", 0, 2**31 - 50, rotation=90))
    with pytest.raises(CoordinateError, match=r"^vertex \(0, 2147483698\) exceeds 32-bit range$"):
        lib.flatten("CHIP")
    # a chip vertex at 2**29 passes 2**31 once magnified 4x onto the reticle
    windows, _ = build_reticle(gen_chip([], CFG.chip, CFG.layers), CFG.chip, CFG.layers,
                               CFG.reticle)
    wx, wy = to_dbu(windows[0][0]) * 4, to_dbu(windows[0][1]) * 4
    lib = _placed(square(layer=CFG.layers.small_idt), Placement("A", 2**29, 0))
    with pytest.raises(CoordinateError, match=rf"^vertex \({2**31 + wx}, {wy}\) exceeds"):
        build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)


# ---------------------------------------------------------------------------
# IDT construction

def make_design(pitch=2e-6, dummies=3, target=200.0):
    matching = {"dummy_count_per_side": dummies, "target_impedance_ohm": target}
    return match_finger_count(pitch, ToolkitConfig.from_dict({"matching": matching}), "S0")


def test_idt_cell_counting_rule():
    d = make_design(pitch=2e-6, dummies=3)
    cell, _, _ = gen_device_cells(d, CFG.layers)
    idt_layer = CFG.layers.large_idt
    n_idt = sum(1 for p in cell.polygons if p.layer == idt_layer)
    assert n_idt == d.idt.n_fingers + 2 + 2 * 3
    assert sum(1 for p in cell.polygons if p.layer == CFG.layers.bottom_electrode) == 1
    assert sum(1 for p in cell.polygons if p.layer == CFG.layers.outline) == 3
    assert sum(1 for p in cell.polygons if p.layer == CFG.layers.pads) == 3


def test_idt_two_finger_geometry():
    # n=2, pitch=1 um, aperture=20 um, no dummies: centers at 0 and 1 um,
    # widths 500 nm, plus two busbars
    d = make_design(pitch=1e-6, dummies=0, target=1e9)
    assert d.idt.n_fingers == 2
    assert d.idt.aperture == pytest.approx(20e-6)
    cell, _, _ = gen_device_cells(d, CFG.layers)
    idt_layer = CFG.layers.small_idt
    g = to_dbu(d.idt.gap)
    a = to_dbu(d.idt.aperture)
    fingers = [
        p for p in cell.polygons
        if p.layer == idt_layer and (p.bbox()[2] - p.bbox()[0]) == 500
    ]
    assert len(fingers) == 2
    centers = sorted((p.bbox()[0] + p.bbox()[2]) // 2 for p in fingers)
    assert centers == [0, 1000]
    # electrode overlap spans exactly the aperture
    f0, f1 = sorted(fingers, key=lambda p: p.bbox()[0])
    y_overlap = min(f0.bbox()[3], f1.bbox()[3]) - max(f0.bbox()[1], f1.bbox()[1])
    assert y_overlap == a
    busbars = [p for p in cell.polygons if p.layer == idt_layer and p not in fingers]
    assert len(busbars) == 2


def test_idt_dummies_disconnected():
    d = make_design(pitch=2e-6, dummies=2)
    cell, _, _ = gen_device_cells(d, CFG.layers)
    idt_layer = CFG.layers.large_idt
    n = d.idt.n_fingers
    p_nm = to_dbu(d.idt.pitch)
    polys = [p for p in cell.polygons if p.layer == idt_layer]
    # busbar y-extents
    y_bot_top = 0
    y_top_bot = to_dbu(d.idt.aperture) + 2 * to_dbu(d.idt.gap)
    fw_nm = to_dbu(d.idt.finger_width)
    dummies = [
        p for p in polys
        if (p.bbox()[2] - p.bbox()[0]) == fw_nm
        and (p.bbox()[0] < -p_nm // 2 or p.bbox()[2] > (n - 1) * p_nm + p_nm // 2)
    ]
    assert len(dummies) == 4
    for p in dummies:
        x0, y0, x1, y1 = p.bbox()
        assert y0 > y_bot_top
        assert y1 < y_top_bot


def test_open_short_cells():
    d = make_design()
    device, open_cell, short_cell = gen_device_cells(d, CFG.layers)
    idt_layer = CFG.layers.large_idt
    assert sum(1 for p in open_cell.polygons if p.layer == idt_layer) == 2
    assert sum(1 for p in short_cell.polygons if p.layer == idt_layer) == 3
    assert open_cell.name.endswith("_OPEN")
    assert short_cell.name.endswith("_SHORT")
    # the twins carry the device's busbars, then its pads, vertex for vertex
    busbars = [p.vertices for p in device.polygons[:2]]
    pads = [p.vertices for p in device.polygons if p.layer == CFG.layers.pads]
    assert len(pads) == 3
    assert [p.vertices for p in open_cell.polygons] == busbars + pads
    strap = short_cell.polygons[2]
    assert [p.vertices for p in short_cell.polygons] == [*busbars, strap.vertices, *pads]
    # the strap joins the bottom edge of one busbar to the top edge of the other
    (bx0, by0, bx1, by1), (tx0, ty0, tx1, ty1) = (p.bbox() for p in device.polygons[:2])
    sx0, sy0, sx1, sy1 = strap.bbox()
    assert strap.layer == idt_layer
    assert (sy0, sy1) == (by0, ty1)
    assert bx0 < sx0 < sx1 < bx1 and tx0 < sx0 < sx1 < tx1
    # no cell shares a polygon list with another
    assert len({id(c.polygons) for c in (device, open_cell, short_cell)}) == 3


# ---------------------------------------------------------------------------
# chip packing

def test_empty_chip():
    lib = gen_chip([], CFG.chip, CFG.layers)
    chip = lib["CHIP"]
    assert len(chip.polygons) == 1
    assert chip.placements == []


def test_single_design_three_placements():
    lib = gen_chip([make_design()], CFG.chip, CFG.layers)
    assert len(lib["CHIP"].placements) == 3


def test_catalog_packs_on_chip():
    from lambkit.config import load_catalog

    designs = [
        match_finger_count(p, CFG, "S0")
        for p in load_catalog()["pitches_m"]
    ]
    lib = gen_chip(designs, CFG.chip, CFG.layers)
    chip = lib["CHIP"]
    assert len(chip.placements) == 3 * len(designs)
    # placements ordered by ascending pitch
    pitches = []
    for ref in chip.placements[::3]:
        name = ref.cell_name
        pitches.append(int(name.split("_p")[1].rstrip("nm")))
    assert pitches == sorted(pitches)
    # everything inside the chip bounds
    x0, y0, x1, y1 = lib.bbox("CHIP")
    assert x0 >= 0 and y0 >= 0
    assert x1 <= to_dbu(CFG.chip.width_m) and y1 <= to_dbu(CFG.chip.height_m)


def test_packing_error_names_design():
    from lambkit.config import ChipConfig

    tiny = ChipConfig(width_m=300e-6, height_m=300e-6, margin_m=50e-6, spacing_m=10e-6)
    with pytest.raises(PackingError) as exc:
        gen_chip([make_design()], tiny, CFG.layers)
    assert "S0_p2000nm" in str(exc.value)


# ---------------------------------------------------------------------------
# wafer map

def test_wafer_map_frozen_count():
    sites = gen_wafer_map(CFG.chip, CFG.wafer)
    assert len(sites) == 83


def test_wafer_map_rejects_radius_beyond_int32():
    from lambkit.record import replace

    # checked before the grid loop, which would otherwise never end
    with pytest.raises(CoordinateError):
        gen_wafer_map(CFG.chip, replace(CFG.wafer, diameter_m=1e300))
    with pytest.raises(CoordinateError):
        gen_wafer_map(CFG.chip, replace(CFG.wafer, diameter_m=4.3))  # radius 2.15e9 nm


def test_wafer_map_geometry_rules():
    sites = gen_wafer_map(CFG.chip, CFG.wafer)
    r_eff = CFG.wafer.radius_m - CFG.wafer.edge_exclusion_m
    kx0, ky0, kx1, ky1 = CFG.wafer.keepout_m
    w, h = CFG.chip.width_m, CFG.chip.height_m
    for s in sites:
        for cx in (s.x_m, s.x_m + w):
            for cy in (s.y_m, s.y_m + h):
                assert math.hypot(cx, cy) <= r_eff + 1e-12
        assert not (
            s.x_m < kx1 and s.x_m + w > kx0 and s.y_m < ky1 and s.y_m + h > ky0
        )
    ids = [s.site_id for s in sites]
    assert ids == list(range(len(sites)))
    order = [(s.iy, s.ix) for s in sites]
    assert order == sorted(order)


def test_wafer_map_degenerate_and_monotone():
    from lambkit.config import ChipConfig, WaferConfig

    huge = ChipConfig(width_m=0.2, height_m=0.2, margin_m=0, spacing_m=0)
    assert gen_wafer_map(huge, CFG.wafer) == []
    half = ChipConfig(
        width_m=CFG.chip.width_m,
        height_m=CFG.chip.height_m / 2,
        margin_m=CFG.chip.margin_m,
        spacing_m=CFG.chip.spacing_m,
    )
    n_half = len(gen_wafer_map(half, CFG.wafer))
    assert n_half > 2 * 83 - 20  # doubling rows minus edge/keepout effects
    assert n_half > 83


# ---------------------------------------------------------------------------
# reticle

def test_reticle_windows_and_mask():
    designs = [make_design()]
    lib = gen_chip(designs, CFG.chip, CFG.layers)
    windows, mask_lib = build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)
    assert len(windows) == 5
    flat = lib.flatten("CHIP")
    mask = mask_lib["RETICLE"]
    assert len(mask.polygons) == len(flat)
    # every mask coordinate is 4x a wafer coordinate plus the window offset
    per_layer = {}
    for p in flat:
        per_layer.setdefault(p.layer, []).append(p)
    large = per_layer[CFG.layers.large_idt][0]
    wx0 = to_dbu(windows[1][0]) * 4
    wy0 = to_dbu(windows[1][1]) * 4
    expect = tuple((x * 4 + wx0, y * 4 + wy0) for x, y in large.vertices)
    assert any(m.vertices == expect for m in mask.polygons)


def test_reticle_windows_follow_the_layer_map_field_order():
    # reversed ids: a window order taken from the ids instead of the fields would flip
    layers = LayerMap(*reversed(astuple(CFG.layers)))
    lib = gen_chip([make_design()], CFG.chip, layers)
    windows, mask_lib = build_reticle(lib, CFG.chip, layers, CFG.reticle)
    assert len(windows) == len(fields(LayerMap))
    by_layer = {}
    for poly in mask_lib["RETICLE"].polygons:
        by_layer.setdefault(poly.layer, []).append(poly)
    assert len(by_layer) == 4  # one design uses one of the two IDT layers
    for f, (x0, y0, x1, y1) in zip(fields(LayerMap), windows):
        for poly in by_layer.get(getattr(layers, f.name), []):
            bx0, by0, bx1, by1 = poly.bbox()
            assert to_dbu(x0) * 4 <= bx0 and bx1 <= to_dbu(x1) * 4, f.name
            assert to_dbu(y0) * 4 <= by0 and by1 <= to_dbu(y1) * 4, f.name


def test_reticle_windows_lie_inside_the_field_without_overlap():
    # chip sizes and image fields the schema accepts, half of them stacks
    # that fill the field exactly, which build_reticle must accept too
    lib = gen_chip([], CFG.chip, CFG.layers)
    n = len(fields(LayerMap))
    rng = random.Random(24)
    exact_fills = 0
    for _ in range(400):
        cw = rng.uniform(1e-6, 0.022)
        ch = rng.uniform(1e-6, (0.022 - (n - 1) * _WINDOW_GAP) / n)
        fill = n * ch + (n - 1) * _WINDOW_GAP
        for wf, hf in ((cw, fill), (rng.uniform(cw, 0.022), rng.uniform(fill, 0.022))):
            cfg = ToolkitConfig.from_dict({"chip": {"width_m": cw, "height_m": ch},
                                           "reticle": {"image_field_m": [wf, hf]}})
            windows, _ = build_reticle(lib, cfg.chip, cfg.layers, cfg.reticle)
            exact_fills += hf == fill
            assert len(windows) == n
            for x0, y0, x1, y1 in windows:
                assert 0.0 <= x0 < x1 <= wf and 0.0 <= y0 < y1 <= hf, (cw, ch, wf, hf)
            for a, b in itertools.combinations(windows, 2):
                assert not (a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3])
    assert exact_fills >= 400


def _mask(result):
    windows, mask_lib = result
    return windows, [(p.layer, p.vertices) for p in mask_lib["RETICLE"].polygons]


def _catalog_chips():
    """The chip of the packaged catalog, of a jittered one and of three of its pitches."""
    from lambkit.config import load_catalog
    from lambkit.design import LARGE_PITCH_RANGE, SMALL_PITCH_RANGE

    pitches = load_catalog()["pitches_m"]
    rng = random.Random(29)
    jittered = [min(max(p * rng.uniform(0.97, 1.03), lo), hi) for p in pitches
                for lo, hi in (SMALL_PITCH_RANGE, LARGE_PITCH_RANGE) if lo <= p <= hi]
    for catalog in (pitches, jittered, pitches[2:5]):
        yield gen_chip([match_finger_count(p, CFG, "S0") for p in catalog],
                       CFG.chip, CFG.layers)


def test_reticle_of_packaged_chips_matches_the_flattened_reference():
    for lib in _catalog_chips():
        want = _mask(build_reticle_reference(lib, CFG.chip, CFG.layers, CFG.reticle))
        assert len(want[1]) > 500
        assert _mask(build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)) == want


def _random_chip(rng):
    """A CHIP over a random acyclic hierarchy: shared cells, nested and turned
    placements, and layers both in and outside the LayerMap."""
    layers = [*astuple(CFG.layers), 0, 77, 255]
    lib = Library(name="RND")
    names = [f"C{i}" for i in range(rng.randint(1, 6))] + ["CHIP"]
    for i, name in enumerate(names):
        cell = Cell(name=name)
        for _ in range(rng.randint(0, 4)):
            x, y = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            w, h = rng.randint(1, 5 * 10**4), rng.randint(1, 5 * 10**4)
            tri = ((x, y), (x + w, y), (x, y + h))
            rect = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
            cell.polygons.append(Polygon(rng.choice(layers), rng.choice((tri, rect))))
        for _ in range(rng.randint(0, 3) if i else 0):  # earlier cells only: acyclic
            cell.placements.append(Placement(rng.choice(names[:i]), rng.randint(-10**5, 10**5),
                                             rng.randint(-10**5, 10**5),
                                             rng.choice((0, 90, 180, 270))))
        lib.add(cell)
    return lib


def test_reticle_of_random_hierarchies_matches_the_flattened_reference():
    rng = random.Random(2029)
    sizes = []
    for _ in range(60):
        lib = _random_chip(rng)
        want = _mask(build_reticle_reference(lib, CFG.chip, CFG.layers, CFG.reticle))
        assert _mask(build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)) == want
        sizes.append(len(want[1]))
    assert max(sizes) > 50 and sizes.count(0) < 10


@pytest.mark.parametrize("build", [build_reticle, build_reticle_reference])
def test_reticle_refusals_match_the_flattened_reference(build):
    cyclic = _placed(square(), Placement("A", 0, 0))
    cyclic["A"].placements.append(Placement("CHIP", 0, 0))
    no_chip = Library(name="L")
    no_chip.add(Cell(name="A", polygons=[square()]))
    for lib, message in ((cyclic, "placement cycle through cell 'A'"),
                         (no_chip, "unknown cell 'CHIP'")):
        with pytest.raises(InputError) as exc:
            build(lib, CFG.chip, CFG.layers, CFG.reticle)
        assert type(exc.value) is InputError and str(exc.value) == message
    # placed vertices past int32 at chip scale, whichever scale the check names
    far = _placed(square(layer=CFG.layers.outline), Placement("A", 0, 2**31 - 50, 90))
    with pytest.raises(CoordinateError):
        build(far, CFG.chip, CFG.layers, CFG.reticle)


def test_reticle_maps_only_the_layers_its_windows_show():
    # the flattened reference range-checks a polygon no window shows; the walk
    # never places it, so it cannot leave int32
    far = _placed(square(layer=77), Placement("A", 0, 2**31 - 50, 90))
    with pytest.raises(CoordinateError):
        build_reticle_reference(far, CFG.chip, CFG.layers, CFG.reticle)
    _, mask_lib = build_reticle(far, CFG.chip, CFG.layers, CFG.reticle)
    assert mask_lib["RETICLE"].polygons == []


def _constructions(monkeypatch):
    """A list that counts each Polygon built, fully checked or trusted."""
    built = []
    post_init, trusted = Polygon.__post_init__, Polygon._trusted.__func__

    def counted_post_init(self):
        built.append("checked")
        post_init(self)

    def counted_trusted(cls, layer, vertices):
        built.append("trusted")
        return trusted(cls, layer, vertices)

    monkeypatch.setattr(Polygon, "__post_init__", counted_post_init)
    monkeypatch.setattr(Polygon, "_trusted", classmethod(counted_trusted))
    return built


def test_packaged_layout_builds_no_throwaway_polygons(monkeypatch):
    (lib,) = itertools.islice(_catalog_chips(), 1)
    chip_bytes = write_gdsii(lib)
    built = _constructions(monkeypatch)
    _, mask_lib = build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)
    assert len(built) == len(mask_lib["RETICLE"].polygons) > 2000
    assert set(built) == {"trusted"}
    built.clear()
    back = read_gdsii(chip_bytes)  # the reader checks each polygon it decodes, once
    assert built.count("trusted") == 0
    assert built.count("checked") == sum(len(c.polygons) for c in back.cells) > 1000


# ---------------------------------------------------------------------------
# library structure

def test_library_rejects_duplicates_and_cycles():
    lib = Library()
    lib.add(Cell(name="A"))
    with pytest.raises(ValueError):
        lib.add(Cell(name="A"))
    lib.add(Cell(name="B", placements=[Placement(cell_name="A", x=0, y=0)]))
    lib["A"].placements.append(Placement(cell_name="B", x=0, y=0))
    with pytest.raises(ValueError):
        lib.validate()


def test_library_rejects_unknown_target():
    lib = Library()
    lib.add(Cell(name="TOP", placements=[Placement(cell_name="GHOST", x=0, y=0)]))
    with pytest.raises(ValueError):
        lib.validate()


@pytest.mark.parametrize("name", ["ABC\n", "\nABC", "", "A" * 33, "A B", "A/B"])
def test_names_must_be_gdsii_legal_to_the_last_character(name):
    # a trailing newline too: "$" alone would let it pass
    with pytest.raises(InputError, match="cell name .* is not GDSII-legal"):
        Cell(name=name)
    with pytest.raises(InputError, match="library name .* is not GDSII-legal"):
        Library(name=name)
    assert Cell(name="a_?$9" + "A" * 27).name == "a_?$9" + "A" * 27


def test_flatten_rotation():
    lib = Library()
    child = Cell(name="SQ", polygons=[square(size=10)])
    lib.add(child)
    top = Cell(
        name="TOP", placements=[Placement(cell_name="SQ", x=100, y=0, rotation=90)]
    )
    lib.add(top)
    (poly,) = lib.flatten("TOP")
    assert poly.bbox() == (90, 0, 100, 10)


def test_flatten_keeps_pre_order():
    # a cell's own polygons, then each placement's subtree in placement order
    lib = Library()
    lib.add(Cell(name="A", polygons=[square(layer=1)]))
    lib.add(Cell(name="B", polygons=[square(layer=2)], placements=[Placement("A", 0, 0)]))
    lib.add(Cell(name="TOP", polygons=[square(layer=3)],
                 placements=[Placement("B", 0, 0), Placement("A", 0, 0), Placement("B", 0, 0)]))
    assert [p.layer for p in lib.flatten("TOP")] == [3, 2, 1, 1, 2, 1]


def test_deep_hierarchy_validates_and_flattens():
    # legal nesting far deeper than the interpreter's recursion limit
    depth = 3000
    lib = Library()
    lib.add(Cell(name="C0", polygons=[square(size=10)]))
    for i in range(1, depth):
        lib.add(Cell(name=f"C{i}", polygons=[square(size=10)],
                     placements=[Placement(f"C{i - 1}", 1, 0)]))
    top = f"C{depth - 1}"
    lib.validate()
    flat = lib.flatten(top)
    assert [p.bbox()[0] for p in flat] == list(range(depth))
    assert lib.bbox(top) == (0, 0, depth - 1 + 10, 10)
    lib["C0"].placements.append(Placement(top, 0, 0))
    with pytest.raises(InputError, match="placement cycle through cell 'C0'"):
        lib.validate()


# ---------------------------------------------------------------------------
# GDSII stream

def test_header_record_bytes():
    lib = Library(name="L")
    data = write_gdsii(lib)
    assert data[:6] == bytes([0x00, 0x06, 0x00, 0x02, 0x02, 0x58])


def test_empty_library_round_trip_byte_identical():
    lib = Library(name="EMPTY")
    data = write_gdsii(lib)
    again = write_gdsii(read_gdsii(data))
    assert data == again


def test_real8_known_values():
    assert encode_real8(1.0) == 0x4110000000000000
    assert encode_real8(-1.0) == 0xC110000000000000
    assert encode_real8(0.0) == 0
    assert decode_real8(0x4110000000000000) == 1.0
    for v in (1e-3, 1e-9, 0.5, 2.0, 90.0, 180.0, 270.0, 123.456):
        assert decode_real8(encode_real8(v)) == pytest.approx(v, rel=1e-14)
        assert decode_real8(encode_real8(-v)) == pytest.approx(-v, rel=1e-14)


def test_square_boundary_xy_has_closure_point():
    lib = Library(name="L")
    lib.add(Cell(name="SQ", polygons=[square()]))
    data = write_gdsii(lib)
    # scan records for the XY payload: 5 points * 8 bytes + 4 header
    pos = 0
    xy_lengths = []
    while pos < len(data):
        length, rectype, _ = struct.unpack_from(">HBB", data, pos)
        if rectype == 0x10:
            xy_lengths.append(length - 4)
        pos += length
    assert xy_lengths == [40]


@pytest.mark.parametrize("n, fits", [(8190, True), (8191, False)])
def test_xy_record_keeps_to_16_bit_framing(n, fits):
    # n points along the x axis and one above the first: a valid CCW polygon
    # (_trusted skips the pairwise check); closed, it has n + 1 points
    vertices = tuple((x, 0) for x in range(n - 1)) + ((0, 1),)
    lib = Library(name="L")
    lib.add(Cell(name="BIG", polygons=[Polygon._trusted(1, vertices)]))
    if not fits:
        with pytest.raises(InputError, match="16-bit framing"):
            write_gdsii(lib)
        return
    data = write_gdsii(lib)
    assert struct.pack(">HBB", 4 + 8 * (n + 1), 0x10, 0x03) in data


def test_round_trip_semantic_identity():
    rng = np.random.default_rng(42)
    for _ in range(30):
        lib = _random_library(rng)
        back = read_gdsii(write_gdsii(lib))
        _assert_libs_equal(lib, back)


def _random_library(rng):
    lib = Library(name="RND")
    n_cells = int(rng.integers(1, 4))
    names = [f"C{i}" for i in range(n_cells)]
    for i, name in enumerate(names):
        cell = Cell(name=name)
        for _ in range(int(rng.integers(0, 4))):
            x = int(rng.integers(-1_000_000, 1_000_000))
            y = int(rng.integers(-1_000_000, 1_000_000))
            w = int(rng.integers(1, 50_000))
            h = int(rng.integers(1, 50_000))
            layer = int(rng.integers(0, 10))
            cell.polygons.append(
                Polygon(layer, ((x, y), (x + w, y), (x + w, y + h), (x, y + h)))
            )
        # only reference earlier cells: acyclic by construction
        for j in range(i):
            if rng.random() < 0.4:
                cell.placements.append(
                    Placement(
                        cell_name=names[j],
                        x=int(rng.integers(-100_000, 100_000)),
                        y=int(rng.integers(-100_000, 100_000)),
                        rotation=int(rng.choice([0, 90, 180, 270])),
                    )
                )
        lib.add(cell)
    return lib


def _assert_libs_equal(a, b):
    assert a.name == b.name
    assert [c.name for c in a.cells] == [c.name for c in b.cells]
    for ca, cb in zip(a.cells, b.cells):
        assert [p.layer for p in ca.polygons] == [p.layer for p in cb.polygons]
        assert [p.vertices for p in ca.polygons] == [p.vertices for p in cb.polygons]
        assert ca.placements == cb.placements


def test_parse_error_offsets():
    lib = Library(name="L")
    lib.add(Cell(name="SQ", polygons=[square()]))
    data = write_gdsii(lib)
    with pytest.raises(GdsParseError) as exc:
        read_gdsii(data[:-2])
    assert "offset" in str(exc.value)
    with pytest.raises(GdsParseError):
        read_gdsii(data + b"\x00\x04\x11\x00")  # trailing record after ENDLIB
    with pytest.raises(GdsParseError):
        read_gdsii(b"\x00\x06\x00\x02\x02\x57" + data[6:])  # version 599
    corrupted = bytearray(data)
    corrupted[0:2] = struct.pack(">H", 3)  # bad record length
    with pytest.raises(GdsParseError):
        read_gdsii(bytes(corrupted))


@pytest.mark.parametrize("target, message", [
    ("GHOST", "cell 'TOP' places unknown cell 'GHOST'"),
    ("TOP", "placement cycle through cell 'TOP'"),
])
def test_read_checks_references(target, message):
    # the writer takes the library as given; the reader refuses what it could not flatten
    lib = Library(name="L")
    lib.add(Cell(name="SQ", polygons=[square()]))
    lib.add(Cell(name="TOP", placements=[Placement("SQ", 0, 0), Placement(target, 0, 0)]))
    data = write_gdsii(lib)
    with pytest.raises(GdsParseError) as exc:
        read_gdsii(data)
    assert exc.value.offset == len(data) - 4  # the ENDLIB record
    assert str(exc.value) == f"{message} (byte offset {len(data) - 4})"


def _with_payload(data: bytes, rectype: int, payload: bytes) -> tuple:
    """data with the first ``rectype`` record's payload replaced, and the
    offset of that record."""
    pos = 0
    while pos < len(data):
        length, rt, dt = struct.unpack_from(">HBB", data, pos)
        if rt == rectype:
            rec = struct.pack(">HBB", 4 + len(payload), rt, dt) + payload
            return data[:pos] + rec + data[pos + length:], pos
        pos += length
    raise AssertionError(f"no record 0x{rectype:02X}")


@pytest.mark.parametrize("rectype,payload", [
    (0x1A, b""), (0x1A, b"\x00\x00\x00\x00"), (0x1C, b""), (0x1C, b"\x41\x10\x00\x00"),
])
def test_strans_angle_payload_lengths(rectype, payload):
    lib = Library(name="L")
    lib.add(Cell(name="SQ", polygons=[square()]))
    lib.add(Cell(name="TOP", placements=[Placement("SQ", 0, 0, rotation=90)]))
    data, offset = _with_payload(write_gdsii(lib), rectype, payload)
    with pytest.raises(GdsParseError) as exc:
        read_gdsii(data)
    assert exc.value.offset == offset
    assert "payload must be" in str(exc.value)


def test_unclosed_boundary_rejected():
    lib = Library(name="L")
    lib.add(Cell(name="SQ", polygons=[square()]))
    data = bytearray(write_gdsii(lib))
    # find the XY record and break the closure point
    pos = 0
    while pos < len(data):
        length, rectype, _ = struct.unpack_from(">HBB", data, pos)
        if rectype == 0x10:
            struct.pack_into(">l", data, pos + 4 + 32, 999)
            break
        pos += length
    with pytest.raises(GdsParseError) as exc:
        read_gdsii(bytes(data))
    assert (str(exc.value), exc.value.offset) == (
        f"BOUNDARY XY list is not closed (byte offset {pos})", pos)


@pytest.mark.parametrize("coords", [(0, 0, 100, 0, 0, 0), (0, 0, 100, 0, 100, 100, 0)],
                         ids=["3 closed points", "28 bytes"])
def test_boundary_xy_of_fewer_than_4_closed_points_is_refused_at_its_offset(coords):
    data, offset = _with_payload(write_gdsii(_fuzz_library()), 0x10,
                                 struct.pack(f">{len(coords)}l", *coords))
    with pytest.raises(GdsParseError) as exc:
        read_gdsii(data)
    assert (str(exc.value), exc.value.offset) == (
        f"BOUNDARY XY needs at least 4 closed points (byte offset {offset})", offset)


def _fuzz_library():
    lib = Library(name="FUZZ")
    tri = Polygon(1, ((0, 0), (400, 0), (0, 300)))
    ell = Polygon(3, ((0, 0), (200, 0), (200, 50), (50, 50), (50, 200), (0, 200)))
    lib.add(Cell("A", polygons=[tri, square(2), ell]))
    lib.add(Cell("B", polygons=[square(2)], placements=[Placement("A", 10, -20, 90)]))
    lib.add(Cell("TOP", placements=[Placement("B", 0, 0), Placement("A", 500, 500, 270)]))
    return lib


@pytest.mark.parametrize("rectype, payload, message", [
    (0x10, struct.pack(">10l", 0, 0, 0, 100, 100, 100, 100, 0, 0, 0), "counter-clockwise"),
    (0x06, b"A/B\0", "cell name"),
    (0x02, b"L:B\0", "library name"),
    (0x06, b"ABC\n", "cell name 'ABC\\n' is not GDSII-legal"),
    (0x02, b"LIB\n", "library name 'LIB\\n' is not GDSII-legal"),
])
def test_constructor_checks_name_the_record_offset(rectype, payload, message):
    data, offset = _with_payload(write_gdsii(_fuzz_library()), rectype, payload)
    with pytest.raises(GdsParseError) as exc:
        read_gdsii(data)
    assert exc.value.offset == offset
    assert message in str(exc.value)


def test_mutated_streams_raise_only_gds_parse_errors_with_offsets():
    data = write_gdsii(_fuzz_library())
    rng = np.random.default_rng(3000)
    messages = []
    for _ in range(2500):
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 5))):
            buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
        try:
            read_gdsii(bytes(buf))
        except GdsParseError as exc:
            assert exc.offset is not None, exc
            messages.append(str(exc))
    # mutations reach the geometry and name checks, not only the tokenizer
    for check in ("counter-clockwise", "self-intersecting", "is not GDSII-legal"):
        assert any(check in m for m in messages), check


@pytest.fixture(scope="module")
def packaged_streams(tmp_path_factory):
    """chip.gds and reticle.gds of the packaged layout."""
    out = tmp_path_factory.mktemp("layout")
    assert cli.main(["layout", "--quiet", "--out", str(out)]) == cli.EXIT_OK
    return [(out / name).read_bytes() for name in ("chip.gds", "reticle.gds")]


def _read_outcome(read, data: bytes):
    """What a reader makes of data: its error with the offset, or the library."""
    try:
        lib = read(data)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc), getattr(exc, "offset", None)
    return lib.name, [(c.name, [(p.layer, p.vertices) for p in c.polygons], c.placements)
                      for c in lib.cells]


_ELEMENT = ("BOUNDARY", "LAYER", "DATATYPE", "XY", "ENDEL")


def _boundaries(data: bytes) -> list:
    """The offsets of each BOUNDARY element's five records."""
    offsets, pos = [], 0
    while pos < len(data):
        length, rectype = struct.unpack_from(">HB", data, pos)
        if rectype == 0x08:
            offsets.append([pos])
        elif offsets and len(offsets[-1]) < 5:
            offsets[-1].append(pos)
        pos += length
    return offsets


def _aimed_edit(rng, data: bytes, element: list, field: str) -> bytes:
    """One seeded edit of a BOUNDARY element: a header field (length, record
    type or data type) of one of its records, its closing vertex, or its
    vertex order (clockwise)."""
    buf = bytearray(data)
    if field == "vertex order":
        xy = element[3] + 4
        buf[xy + 8:xy + 16], buf[xy + 24:xy + 32] = buf[xy + 24:xy + 32], buf[xy + 8:xy + 16]
        return bytes(buf)
    if field == "closing vertex":
        xy = element[3]
        end = xy + struct.unpack_from(">H", buf, xy)[0]
        where = end - 8 + 4 * int(rng.integers(2))
        old = struct.unpack_from(">l", buf, where)[0]
        struct.pack_into(">l", buf, where, old + int(rng.choice([-1, 1, 2**20])))
        return bytes(buf)
    record, part = field.split()
    at = element[_ELEMENT.index(record)]
    if part == "length":
        old = struct.unpack_from(">H", buf, at)[0]
        new = int(rng.choice([old - 2, old + 2, old - 1, old + 8, 0, 2, 4, 0xFFFF]))
        struct.pack_into(">H", buf, at, max(new, 0))
    elif part == "type":
        buf[at + 2] = int(rng.choice([0x08, 0x0A, 0x0D, 0x0E, 0x10, 0x11, 0x07, 0x04, 0x2B]))
    else:
        buf[at + 3] = int(rng.choice([0x00, 0x01, 0x02, 0x03, 0x05, 0x06, 0xFF]))
    return bytes(buf)


def test_reader_mutations_fail_as_the_record_walk_does(packaged_streams):
    # whatever the bytes, read_gdsii must give the outcome of the oracle's
    # record walk: error, message and offset
    rng = np.random.default_rng(2028)
    fields = ["closing vertex", "vertex order"] + [f"{r} {part}" for r in _ELEMENT
                                   for part in ("length", "type", "datatype")]
    outcomes = set()
    for data in packaged_streams:
        elements = _boundaries(data)
        assert len(elements) > 1000 and all(len(e) == 5 for e in elements)
        assert _read_outcome(read_gdsii, data) == _read_outcome(read_gdsii_reference, data)
        cases = [_aimed_edit(rng, data, elements[int(rng.integers(len(elements)))], field)
                 for field in fields for _ in range(2)]
        # a clockwise rectangle before a record that cannot be framed: the
        # walk frames the next record before it checks the polygon
        element = elements[int(rng.integers(len(elements)))]
        clockwise = bytearray(_aimed_edit(rng, data, element, "vertex order"))
        struct.pack_into(">H", clockwise, element[4] + 4, 3)
        cases.append(bytes(clockwise))
        for _ in range(8):  # byte flips, then truncations, anywhere
            buf = bytearray(data)
            for _ in range(int(rng.integers(1, 4))):
                buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
            cases.append(bytes(buf))
            cases.append(data[:int(rng.integers(len(data)))])
        for case in cases:
            want = _read_outcome(read_gdsii_reference, case)
            assert _read_outcome(read_gdsii, case) == want
            outcomes.add(want[1].split(" (byte offset")[0] if isinstance(want[0], type) else "read")
    # the edits reach the framing, grammar and geometry checks, and some are read
    assert len(outcomes) >= 8, outcomes


def _rectangle_corners():
    """Four points framed as the writer frames a rectangle: counter-clockwise
    and clockwise from each corner, and zero-width and zero-height ones."""
    ccw = [(0, 0), (100, 0), (100, 50), (0, 50)]
    cw = ccw[::-1]
    for i in range(4):
        yield ccw[i:] + ccw[:i]
        yield cw[i:] + cw[:i]
    yield [(5, 0), (5, 0), (5, 50), (5, 50)]
    yield [(0, 5), (0, 5), (100, 5), (100, 5)]
    yield [(0, 7), (100, 7), (100, 7), (0, 7)]
    yield [(5, 0), (5, 50), (5, 50), (5, 0)]
    yield [(3, 3)] * 4


@pytest.mark.parametrize("corners", list(_rectangle_corners()))
def test_reader_fast_path_reads_every_four_points_as_the_record_walk_does(corners):
    lib = Library(name="L")
    lib.add(Cell(name="TRI", polygons=[Polygon(2, ((0, 0), (9, 0), (0, 9)))]))
    lib.add(Cell(name="SQ", polygons=[square(layer=1, size=100), square(layer=3)]))
    data = write_gdsii(lib)
    xy = _boundaries(data)[1][3]  # the first rectangle's XY record
    buf = bytearray(data)
    struct.pack_into(">10l", buf, xy + 4, *itertools.chain(*corners, corners[0]))
    want = _read_outcome(read_gdsii_reference, bytes(buf))
    assert _read_outcome(read_gdsii, bytes(buf)) == want
    if isinstance(want[0], type):  # the error names the XY record
        assert want[2] == xy

"""Layout geometry and GDSII stream round-trips."""

import math
import struct

import numpy as np
import pytest

from lambkit.config import ToolkitConfig
from lambkit.design import CapacitanceModel, match_finger_count
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
    ReticleSpec,
    build_reticle,
    dump_polygons_csv,
    gen_chip,
    gen_idt_cell,
    gen_open_cell,
    gen_short_cell,
    gen_wafer_map,
    to_dbu,
)

CFG = ToolkitConfig.default()
CAP = CapacitanceModel(eps_r=CFG.eps_r, h_piezo=CFG.plate.h)


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
    for x, y in ((2**31, 0), (0, -(2**31) - 1), (math.nan, 0)):
        with pytest.raises(CoordinateError):
            Placement(cell_name="A", x=x, y=y)


# ---------------------------------------------------------------------------
# IDT construction

def make_design(pitch=2e-6, dummies=3):
    return match_finger_count(
        pitch, CFG.plate, CAP, dummy_count_per_side=dummies
    )


def test_idt_cell_counting_rule():
    d = make_design(pitch=2e-6, dummies=3)
    cell = gen_idt_cell(d, CFG.layers)
    idt_layer = CFG.layers.large_idt
    n_idt = sum(1 for p in cell.polygons if p.layer == idt_layer)
    assert n_idt == d.idt.n_fingers + 2 + 2 * 3
    assert sum(1 for p in cell.polygons if p.layer == CFG.layers.bottom_electrode) == 1
    assert sum(1 for p in cell.polygons if p.layer == CFG.layers.outline) == 3
    assert sum(1 for p in cell.polygons if p.layer == CFG.layers.pads) == 3


def test_idt_two_finger_geometry():
    # n=2, pitch=1 um, aperture=20 um, no dummies: centers at 0 and 1 um,
    # widths 500 nm, plus two busbars
    d = match_finger_count(1e-6, CFG.plate, CAP, target_impedance=1e9,
                           dummy_count_per_side=0)
    assert d.idt.n_fingers == 2
    assert d.idt.aperture == pytest.approx(20e-6)
    cell = gen_idt_cell(d, CFG.layers)
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
    cell = gen_idt_cell(d, CFG.layers)
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
    open_cell = gen_open_cell(d, CFG.layers)
    short_cell = gen_short_cell(d, CFG.layers)
    idt_layer = CFG.layers.large_idt
    assert sum(1 for p in open_cell.polygons if p.layer == idt_layer) == 2
    assert sum(1 for p in short_cell.polygons if p.layer == idt_layer) == 3
    assert open_cell.name.endswith("_OPEN")
    assert short_cell.name.endswith("_SHORT")


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
        match_finger_count(p, CFG.plate, CAP)
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
    from dataclasses import replace

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
    spec, mask_lib = build_reticle(lib, CFG.chip, CFG.layers, CFG.reticle)
    assert len(spec.rema_windows) == 5
    flat = lib.flatten("CHIP")
    mask = mask_lib["RETICLE"]
    assert len(mask.polygons) == len(flat)
    # every mask coordinate is 4x a wafer coordinate plus the window offset
    per_layer = {}
    for p in flat:
        per_layer.setdefault(p.layer, []).append(p)
    large = per_layer[CFG.layers.large_idt][0]
    wx0 = to_dbu(spec.rema_windows[1][0]) * 4
    wy0 = to_dbu(spec.rema_windows[1][1]) * 4
    expect = tuple((x * 4 + wx0, y * 4 + wy0) for x, y in large.vertices)
    assert any(m.vertices == expect for m in mask.polygons)


def test_reticle_spec_validation():
    with pytest.raises(ValueError):
        ReticleSpec(image_field_m=(0.03, 0.02), demag=4, rema_windows=())
    with pytest.raises(ValueError):
        ReticleSpec(image_field_m=(0.02, 0.02), demag=5, rema_windows=())
    with pytest.raises(ValueError):
        ReticleSpec(
            image_field_m=(0.02, 0.02),
            demag=4,
            rema_windows=((0, 0, 0.01, 0.01), (0.005, 0.005, 0.015, 0.015)),
        )
    with pytest.raises(ValueError):
        ReticleSpec(
            image_field_m=(0.02, 0.02),
            demag=4,
            rema_windows=((0, 0, 0.025, 0.01),),
        )


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


def test_csv_dump():
    lib = gen_chip([make_design()], CFG.chip, CFG.layers)
    rows = dump_polygons_csv(lib, "CHIP")
    assert rows[0].startswith("layer,")
    assert len(rows) == 1 + len(lib.flatten("CHIP"))


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
    with pytest.raises(GdsParseError):
        read_gdsii(bytes(data))


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

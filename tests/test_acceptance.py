"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Tolerances here are contractual; do not loosen them to make a
regression pass.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest

from oracles import lamb_roots_scan
from lambkit.config import VariationConfig, load_catalog, load_config
from lambkit.design import layer_assignment, match_finger_count, recommend_dose
from lambkit.design import LayerBand
from lambkit.dispersion import (
    PlateMaterial,
    PlateSpec,
    pitch_to_frequency,
    solve_at_k,
    thin_plate_s0_velocity,
)
from lambkit.gdsii import read_gdsii, write_gdsii
from lambkit.layout import Cell, Library, Placement, Polygon, gen_wafer_map
from lambkit.mbvd import (
    AdmittanceTrace,
    MbvdModel,
    MotionalBranch,
    StaticNetwork,
    fit_mbvd,
    resonance_metrics,
)
from lambkit.processflow import (
    GOLDEN_FLOW_NAMES,
    RateTable,
    ashing_time,
    check_flow,
    etch_budget,
    packaged_flow,
)
from lambkit.record import replace
from lambkit.touchstone import TouchstoneFile, parse_touchstone, serialize_touchstone
from lambkit.waferstats import (
    per_mode_deviation,
    relstd,
    simulate_wafer,
    sites_to_dict,
)

CFG = load_config()
CATALOG_PITCHES = tuple(load_catalog()["pitches_m"])

MODE_FAMILY = {
    "A0": ("antisymmetric", 0),
    "A1": ("antisymmetric", 1),
    "S0": ("symmetric", 0),
    "S1": ("symmetric", 1),
}


# ---------------------------------------------------------------------------
# 1. mBVD round-trip: 100 randomized 1-4 branch models, 400-point grids,
#    0.5% complex noise; f_r 0.05%, k_eff_sq 5% rel, q_r 10% rel.

def _random_mbvd(rng):
    n = int(rng.integers(1, 5))
    c0 = 10 ** rng.uniform(-12.3, -11.7)
    rs = rng.uniform(0.5, 3.0)
    # separations over 8x the widest -3 dB width keep peaks resolvable
    while True:
        frs = np.sort(rng.uniform(0.8e9, 3.0e9, size=n))
        if np.all(np.diff(frs) / frs[:-1] > 0.08):
            break
    branches = []
    for f_r in frs:
        k2 = rng.uniform(0.004, 0.08)
        c_m = k2 / (1 - k2) * c0
        w = 2 * math.pi * f_r
        q_cap = 0.9 / (w * c_m * rs)
        q = rng.uniform(250.0, min(2000.0, max(300.0, q_cap)))
        r_m = max(1.0 / (w * c_m * q) - rs, 0.05)
        branches.append(MotionalBranch(r_m=r_m, l_m=1.0 / (w * w * c_m), c_m=c_m))
    return MbvdModel(
        static_net=StaticNetwork(c_0=c0, r_0=0.0, r_s=rs), branches=tuple(branches)
    )


def _structured_grid(truth):
    segs = []
    for i in range(truth.n_branches):
        m = resonance_metrics(truth, i)
        half = 2.5 / m.q_r
        segs.append(np.linspace(m.f_r * (1 - half), m.f_r * (1 + half), 50))
        segs.append(np.linspace(m.f_r * (1 + half), m.f_a * 1.02, 25))
    lo = truth.branches[0].f_r * 0.85
    hi = resonance_metrics(truth, truth.n_branches - 1).f_a * 1.10
    segs.append(np.linspace(lo, hi, 400 - sum(s.size for s in segs)))
    return np.unique(np.concatenate(segs))


def test_criterion_1_mbvd_round_trip():
    rng = np.random.default_rng(18230)
    worst_f = worst_k = worst_q = 0.0
    for _ in range(100):
        truth = _random_mbvd(rng)
        grid = _structured_grid(truth)
        y = truth.admittance(grid)
        noise = 0.005 / math.sqrt(2) * (
            rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        result = fit_mbvd(AdmittanceTrace(grid, y * (1.0 + noise)), truth.n_branches)
        for i in range(truth.n_branches):
            mt = resonance_metrics(truth, i)
            mf = resonance_metrics(result.model, i)
            df = abs(mf.f_r - mt.f_r) / mt.f_r
            dk = abs(mf.k_eff_sq - mt.k_eff_sq) / mt.k_eff_sq
            dq = abs(mf.q_r - mt.q_r) / mt.q_r
            assert df <= 5e-4, f"f_r off by {df:.2e}"
            assert dk <= 0.05, f"k_eff_sq off by {dk:.3f}"
            assert dq <= 0.10, f"q_r off by {dq:.3f}"
            worst_f, worst_k, worst_q = (
                max(worst_f, df), max(worst_k, dk), max(worst_q, dq),
            )
    print(
        f"criterion 1 PASS: 100 round-trips, worst f_r {worst_f:.2e}, "
        f"k_eff_sq {worst_k:.2e}, q_r {worst_q:.2e}"
    )


# ---------------------------------------------------------------------------
# 2. Metric formulas by direct evaluation.

def test_criterion_2_metric_formulas():
    model = MbvdModel(
        static_net=StaticNetwork(c_0=92.0),
        branches=(MotionalBranch(r_m=0.0, l_m=1.0, c_m=8.0),),
    )
    assert resonance_metrics(model, 0).k_eff_sq == 0.080

    f_r = 1.0e9
    c_m = 0.1e-12
    model = MbvdModel(
        static_net=StaticNetwork(c_0=1e-12, r_s=4.0),
        branches=(
            MotionalBranch(r_m=6.0, l_m=1.0 / ((2 * math.pi * f_r) ** 2 * c_m), c_m=c_m),
        ),
    )
    q = resonance_metrics(model, 0).q_r
    assert abs(q - 159.15) <= 0.01
    print(f"criterion 2 PASS: k_eff_sq(8, 92) = 0.080, q_r = {q:.4f}")


# ---------------------------------------------------------------------------
# 3. Dispersion vs the dense sign-scan oracle; thin-plate S0; scaling.

def test_criterion_3_dispersion_oracle_equivalence():
    rng = np.random.default_rng(7141)
    worst = 0.0
    for _ in range(20):
        v_l = rng.uniform(4000.0, 12000.0)
        v_t = v_l * rng.uniform(0.40, 0.65)
        rng.uniform(2000.0, 9000.0)  # discarded; keeps the seeded cases below as they are
        mat = PlateMaterial(v_l=v_l, v_t=v_t)
        h = rng.uniform(2e-7, 1.5e-6)
        plate = PlateSpec(material=mat, h=h)
        mode = ("A0", "A1", "S0", "S1")[int(rng.integers(0, 4))]
        k = rng.uniform(0.3, 3.0) * 2.0 / h
        family, idx = MODE_FAMILY[mode]
        w_ref = lamb_roots_scan(k, v_l, v_t, h, family, idx + 1)[idx]
        w_pkg = 2.0 * math.pi * solve_at_k(plate, mode, k)
        rel = abs(w_pkg - w_ref) / w_ref
        assert rel < 1e-6, f"{mode} at k={k:.4g}: {rel:.2e}"
        worst = max(worst, rel)

    # thin-plate S0 velocity limit
    plate = CFG.plate
    k = 0.01 / plate.h
    v = 2.0 * math.pi * solve_at_k(plate, "S0", k) / k
    v_ref = thin_plate_s0_velocity(CFG.material)
    assert abs(v - v_ref) / v_ref < 1e-3

    # geometric scaling invariance f(k; h) = s * f(k/s; s*h)
    s = 3.7
    scaled = PlateSpec(material=CFG.material, h=plate.h * s)
    for kh in (0.4, 1.1, 2.6):
        k = 2.0 * kh / plate.h
        f1 = solve_at_k(plate, "S1", k)
        f2 = solve_at_k(scaled, "S1", k / s) * s
        assert abs(f1 - f2) / f1 < 1e-9
    print(f"criterion 3 PASS: 20 oracle cases, worst {worst:.2e} rel")


# ---------------------------------------------------------------------------
# 4. Calibrated S0 frequency window.

def test_criterion_4_frequency_window():
    f_low = pitch_to_frequency(4.5e-6, "S0", CFG.plate)
    f_high = pitch_to_frequency(0.5e-6, "S0", CFG.plate)
    assert abs(f_low - 700e6) / 700e6 <= 0.15
    assert abs(f_high - 5e9) / 5e9 <= 0.20
    print(
        f"criterion 4 PASS: S0 {f_low / 1e6:.1f} MHz at 9 um wavelength, "
        f"{f_high / 1e9:.3f} GHz at 1 um"
    )


# ---------------------------------------------------------------------------
# 5. Deviation split: thickness-defined S1 tracks a ~3% film spread while
#    in-plane-defined S0 stays under 1% for pitches >= 1 um.

def test_criterion_5_deviation_split():
    variation = VariationConfig(
        thickness_center_m=4.2e-7,
        thickness_edge_drop_m=7.0e-8,  # realizes ~3% relstd over the map
        thickness_noise_sigma_m=2e-9,
        pitch_sigma_m=10e-9,
        mode_quality={
            "S0": {"q_r": 300.0, "k_eff_sq": 0.07},
            "S1": {"q_r": 250.0, "k_eff_sq": 0.05},
        },
    )
    sites = simulate_wafer(variation, 20260, CATALOG_PITCHES, CFG.plate, CFG.chip, CFG.wafer)
    assert len(sites) >= 83
    t_relstd = relstd([s.local_thickness_m for s in sites])
    assert 2.5 <= t_relstd <= 3.5  # the premise: roughly 3% film spread

    report = per_mode_deviation(sites)
    s1 = report.row("S1", max(CATALOG_PITCHES)).relstd_pct
    assert abs(s1 - t_relstd) / t_relstd <= 0.20
    big = [p for p in CATALOG_PITCHES if p >= 1e-6]
    worst_s0 = max(report.row("S0", p).relstd_pct for p in big)
    assert worst_s0 < 1.0
    print(
        f"criterion 5 PASS: {len(sites)} sites, thickness {t_relstd:.3f}%, "
        f"S1 {s1:.3f}%, worst S0 (pitch >= 1 um) {worst_s0:.3f}%"
    )


# ---------------------------------------------------------------------------
# 6. Serialization round-trips and the stream header.

def _random_library(rng):
    lib = Library(name="RND")
    names = [f"C{i}" for i in range(int(rng.integers(1, 5)))]
    for i, name in enumerate(names):
        cell = Cell(name=name)
        for _ in range(int(rng.integers(0, 6))):
            x = int(rng.integers(-1_000_000, 1_000_000))
            y = int(rng.integers(-1_000_000, 1_000_000))
            w = int(rng.integers(1, 80_000))
            h = int(rng.integers(1, 80_000))
            layer = int(rng.integers(0, 64))
            if rng.random() < 0.3:
                verts = ((x, y), (x + w, y), (x + w // 2, y + h))  # triangle
            else:
                verts = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
            cell.polygons.append(Polygon(layer, verts))
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


def test_criterion_6_round_trips():
    rng = np.random.default_rng(90125)
    for _ in range(200):
        lib = _random_library(rng)
        back = read_gdsii(write_gdsii(lib))
        assert back.name == lib.name
        assert [c.name for c in back.cells] == [c.name for c in lib.cells]
        for ca, cb in zip(lib.cells, back.cells):
            assert [p.layer for p in cb.polygons] == [p.layer for p in ca.polygons]
            assert [p.vertices for p in cb.polygons] == [
                p.vertices for p in ca.polygons
            ]
            assert cb.placements == ca.placements

    assert write_gdsii(Library(name="L"))[:6] == bytes(
        [0x00, 0x06, 0x00, 0x02, 0x02, 0x58]
    )

    f = np.linspace(0.9e9, 1.4e9, 60)
    s11 = 0.6 * np.exp(1j * np.linspace(-2.5, 2.5, 60)) + 0.05
    for fmt in ("RI", "MA", "DB"):
        for unit in ("Hz", "kHz", "MHz", "GHz"):
            tf = TouchstoneFile(
                frequencies=f, s11=s11, frequency_unit=unit, fmt=fmt
            )
            back = parse_touchstone(serialize_touchstone(tf))
            assert back.fmt == fmt
            assert back.frequency_unit.lower() == unit.lower()
            np.testing.assert_allclose(back.frequencies, f, rtol=1e-12)
            np.testing.assert_allclose(back.s11, s11, rtol=1e-9, atol=1e-12)
    print("criterion 6 PASS: 200 GDSII libraries, 12 touchstone format/unit combos")


# ---------------------------------------------------------------------------
# 7. Process rules: golden flows, the five mutations, budgets, timings.

def _violation_counter(flow):
    return Counter(v.code for v in check_flow(flow).violations)


def _find(flow, **attrs):
    for i, step in enumerate(flow):
        if all(getattr(step, key) == val for key, val in attrs.items()):
            return i
    raise AssertionError(f"no step matching {attrs}")


def test_criterion_7_process_rules():
    for name in GOLDEN_FLOW_NAMES:
        report = check_flow(packaged_flow(name))
        assert report.error_count == 0, f"{name}: {report.summary_lines()}"

    aln = list(packaged_flow("alscn-aln-adhesion"))
    ti = list(packaged_flow("alscn-ti-adhesion"))
    base_aln = _violation_counter(aln)
    base_ti = _violation_counter(ti)

    # M1: vapor HF swapped for wet HF while Ti is exposed
    m1 = list(ti)
    i = _find(m1, kind="etch_vapor")
    m1[i] = replace(m1[i], kind="etch_wet", chemistry="49%HF/H2O 1:50")
    assert _violation_counter(m1) - base_ti == {"HF_ATTACKS_TI": 1}

    # M2: developable BARC under the top-metal resist opens onto Al
    m2 = list(aln)
    for i, step in enumerate(m2):
        if step.material == "DUV42-P":
            m2[i] = replace(step, material="DS-K101")
    assert _violation_counter(m2) - base_aln == {"DEVELOPER_ATTACKS_AL": 1}

    # M3: DI rinse after the chlorine etch deleted
    m3 = list(aln)
    del m3[_find(m3, kind="strip_wet", chemistry="DI water")]
    assert _violation_counter(m3) - base_aln == {"POST_CL_RINSE": 1}

    # M4: 250 C forming-gas ash run in O2 instead
    m4 = list(aln)
    i = next(
        i for i, s in enumerate(m4)
        if s.kind == "strip_ash" and s.temperature_c == 250 and "forming" in s.chemistry
    )
    m4[i] = replace(m4[i], chemistry="O2")
    assert _violation_counter(m4) - base_aln == {"AL_OXIDATION": 1}

    # M5: low-temperature descum turned into a full resist strip before 1165
    m5 = list(aln)
    i = next(
        i for i, s in enumerate(m5)
        if s.kind == "strip_ash" and s.temperature_c == 120 and "forming" in s.chemistry
    )
    m5[i] = replace(m5[i], chemistry="O2", temperature_c=250)
    assert _violation_counter(m5) - base_aln == {"OVERASH_BEFORE_WET": 1}

    # etch-budget arithmetic
    rates_ok = RateTable(
        entries={("AlScN", "ibe"): 30.0, ("SiO2", "ibe"): 25.0}, ashing_nm_min={}
    )
    rates_slow = RateTable(
        entries={("AlScN", "ibe"): 10.0, ("SiO2", "ibe"): 25.0}, ashing_nm_min={}
    )
    rep = etch_budget("SiO2", 800e-9, "AlScN", 400e-9, 0.30, rates_ok)
    assert rep.passes
    assert rep.consumed_mask_m == pytest.approx(400e-9 * 1.3 / 1.2, rel=1e-12)
    rep = etch_budget("SiO2", 800e-9, "AlScN", 400e-9, 0.30, rates_slow)
    assert not rep.passes
    assert rep.consumed_mask_m == pytest.approx(1300e-9, rel=1e-12)

    # 400e-9 m is not exactly representable, so allow division dust only
    assert ashing_time(400e-9, 250) == pytest.approx(60.0, rel=1e-12)

    i = _find(aln, kind="etch_ibe", material="AlScN")
    assert aln[i].beam_time_s == 26 * 60.0
    print("criterion 7 PASS: goldens clean, 5 mutations exact, budgets and timings")


# ---------------------------------------------------------------------------
# 8. Design rules: dose table, impedance matching, layer split, wafer map.

def test_criterion_8_design_rules():
    assert recommend_dose(250e-9) == 21.75
    for width in (375e-9, 500e-9, 1e-6, 2.25e-6):
        assert recommend_dose(width) == 20.50

    for pitch in CATALOG_PITCHES:
        d = match_finger_count(pitch, CFG, "S0")
        rel = abs(d.achieved_impedance - 200.0) / 200.0
        quantization = 2.0 / (d.idt.n_fingers - 2)
        assert rel <= quantization, f"pitch {pitch}: {rel:.4f} > {quantization:.4f}"

    for pitch in CATALOG_PITCHES:
        expected = LayerBand.SMALL if pitch <= 1e-6 else LayerBand.LARGE
        assert layer_assignment(pitch) is expected

    placements = gen_wafer_map(CFG.chip, CFG.wafer)
    assert len(placements) == 83
    print("criterion 8 PASS: dose table, matching quantization, layers, 83 placements")


# ---------------------------------------------------------------------------
# 9. Statistics formula anchor and byte reproducibility.

def test_criterion_9_statistics():
    val = relstd([0.99e9, 1.00e9, 1.01e9])
    assert abs(val - 0.8165) <= 0.0001

    variation = VariationConfig(
        thickness_center_m=4.2e-7,
        thickness_edge_drop_m=4.0e-8,
        thickness_noise_sigma_m=2e-9,
        pitch_sigma_m=2e-9,
        mode_quality={
            "S0": {"q_r": 300.0, "k_eff_sq": 0.07},
            "S1": {"q_r": 250.0, "k_eff_sq": 0.05},
        },
    )
    seed = 424242
    runs = [
        simulate_wafer(variation, seed, (2.0e-6,), CFG.plate, CFG.chip, CFG.wafer)
        for _ in range(2)
    ]
    docs = [json.dumps(sites_to_dict(r, seed=seed)) for r in runs]
    assert docs[0] == docs[1]
    print(f"criterion 9 PASS: relstd {val:.6f}%, seeded run byte-reproducible")

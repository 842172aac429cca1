"""Tests for wafer-map statistics and the seeded variation model."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import lambkit
from lambkit import mbvd, waferstats
from lambkit.config import load_config
from lambkit.errors import InputError, StatisticsError
from lambkit.mbvd import ModeMetrics
from lambkit.waferstats import (
    DeviationRow,
    VariationModel,
    WaferSite,
    deviation_csv_rows,
    heatmap_csv_rows,
    metrics_vs_frequency,
    per_mode_deviation,
    relstd,
    simulate_wafer,
    sites_from_dict,
    sites_to_dict,
    trend_csv_rows,
)

CFG = load_config()


def make_metrics(f_r, q_r=300.0, k2=0.05):
    return ModeMetrics(f_r=f_r, f_a=f_r * math.sqrt(1 + k2 / (1 - k2)), q_r=q_r, k_eff_sq=k2)


def make_site(site_id, f_by_mode, pitch=2e-6, failed=(), x=0.0, y=0.0):
    return WaferSite(
        site_id=site_id,
        x_mm=x,
        y_mm=y,
        pitch_m=pitch,
        metrics={mode: make_metrics(f) for mode, f in f_by_mode.items()},
        failed_modes=failed,
    )


def model(**overrides):
    kwargs = dict(
        thickness_center_m=4.2e-7,
        thickness_edge_drop_m=4.0e-8,
        thickness_noise_sigma_m=2e-9,
        pitch_sigma_m=2e-9,
        seed=2024,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07}},
    )
    kwargs.update(overrides)
    return VariationModel(**kwargs)


# ------------------------------------------------------------------- relstd


def test_relstd_values():
    assert relstd([1.0e9, 1.0e9, 1.0e9]) == 0.0
    # population convention: sqrt(2/3)/100
    assert relstd([0.99e9, 1.00e9, 1.01e9]) == pytest.approx(0.8164965809, abs=1e-7)
    vals = [0.97e9, 1.02e9, 1.00e9, 1.01e9]
    assert relstd([2 * v for v in vals]) == pytest.approx(relstd(vals), rel=1e-14)


def test_relstd_rejects_bad_input():
    with pytest.raises(StatisticsError):
        relstd([1.0e9])
    with pytest.raises(StatisticsError):
        relstd([])
    with pytest.raises(StatisticsError):
        relstd([1.0e9, -1.0e9])


# numpy's pairwise summation changes at 8 and 128 elements and splits above
# 128, so the sizes straddle those points and the first split levels
PAIRWISE_SIZES = [*range(2, 18), *range(120, 137), *range(250, 261), *range(1000, 1101)]


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e10])
def test_mean_and_std_are_numpys_bit_for_bit(scale):
    # numpy is the oracle: the reductions must give its doubles without loading it
    rng = np.random.default_rng(11)
    for n in PAIRWISE_SIZES:
        for x in (scale * (1.0 + 0.01 * rng.standard_normal(n)), scale * rng.random(n)):
            values = x.tolist()
            assert waferstats._mean_std(values) == (np.mean(x), np.std(x)), n
            std_pct = np.std(x) / np.mean(x) * 100.0
            assert relstd(values) == std_pct, n


@pytest.mark.parametrize("value", [0.1, 0.3, 3.3e-9, 1.1e9])
def test_relstd_snaps_constant_data_to_zero(value):
    for n in PAIRWISE_SIZES:
        mean, std = waferstats._mean_std([value] * n)
        assert (mean, std) == (np.mean([value] * n), np.std([value] * n)), n
        assert relstd([value] * n) == 0.0, n


def test_mode_metrics_is_one_class_under_every_name():
    assert lambkit.ModeMetrics is mbvd.ModeMetrics is waferstats.ModeMetrics


def test_import_waferstats_loads_no_numpy():
    code = "import sys, lambkit.waferstats; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(waferstats.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.strip() == "False", proc.stderr


# ------------------------------------------------------------------- types


def test_variation_model_validation():
    with pytest.raises(InputError):
        model(thickness_noise_sigma_m=-1e-9)
    with pytest.raises(InputError):
        model(thickness_edge_drop_m=5e-7)  # profile hits zero
    with pytest.raises(InputError):
        model(mode_quality={"B7": {"q_r": 100, "k_eff_sq": 0.1}})
    with pytest.raises(InputError):
        model(mode_quality={"S0": {"q_r": 100, "k_eff_sq": 1.5}})
    with pytest.raises(InputError):
        model(mode_quality={})


def test_variation_model_from_config():
    m = VariationModel.from_config(CFG)
    assert m.seed == CFG.seed
    assert tuple(m.mode_quality) == ("A0", "S0", "A1", "S1")
    assert m.thickness_at(0.0, CFG.wafer.radius_m) == pytest.approx(
        m.thickness_center_m
    )
    edge = m.thickness_at(CFG.wafer.radius_m, CFG.wafer.radius_m)
    assert edge == pytest.approx(m.thickness_center_m - m.thickness_edge_drop_m)


def test_wafer_site_validation():
    with pytest.raises(InputError):
        make_site(-1, {"S0": 1e9})
    with pytest.raises(InputError):
        make_site(0, {"S0": 1e9}, pitch=0.0)
    with pytest.raises(InputError):
        make_site(0, {"Q9": 1e9})
    with pytest.raises(InputError):
        make_site(0, {"S0": 1e9}, failed=("S0",))


def test_deviation_row_invariants():
    with pytest.raises(InputError):
        DeviationRow("S0", 2e-6, 1e9, -0.1, 5)
    with pytest.raises(InputError):
        DeviationRow("S0", 2e-6, 1e9, 0.1, 1)


# -------------------------------------------------------------- aggregation


def test_identical_sites_zero_deviation():
    sites = [make_site(i, {"S0": 1e9, "A0": 5e8}) for i in range(5)]
    report = per_mode_deviation(sites)
    assert len(report.rows) == 2
    assert all(r.relstd_pct == 0.0 and r.n == 5 for r in report.rows)
    assert report.warnings == ()


def test_gaussian_map_recovers_sigma():
    # 93 draws at sigma/mu = 2%: estimate lands within 0.4 points of 2%
    rng = np.random.default_rng(40)
    sites = [
        make_site(i, {"S1": 4.2e9 * (1.0 + 0.02 * rng.standard_normal())})
        for i in range(93)
    ]
    row = per_mode_deviation(sites).row("S1", 2e-6)
    assert row.n == 93
    assert abs(row.relstd_pct - 2.0) < 0.4


def test_single_site_group_omitted():
    sites = [
        make_site(0, {"S0": 1e9}),
        make_site(1, {"S0": 1.01e9}),
        make_site(2, {"A0": 5e8}, pitch=4e-6),
    ]
    report = per_mode_deviation(sites)
    assert [r.mode for r in report.rows] == ["S0"]
    assert len(report.warnings) == 1
    assert "1 usable site(s)" in report.warnings[0]


def test_fit_failures_excluded_and_counted():
    sites = [make_site(i, {"S0": 1e9 + i * 1e6}) for i in range(4)]
    sites += [make_site(9, {}, failed=("S0",)), make_site(10, {}, failed=("S0",))]
    row = per_mode_deviation(sites).row("S0", 2e-6)
    assert row.n == 4
    assert row.excluded == 2


def test_empty_sites_raise():
    with pytest.raises(StatisticsError):
        per_mode_deviation([])
    with pytest.raises(StatisticsError):
        metrics_vs_frequency([])


def test_group_statistics_permutation_invariant():
    rng = np.random.default_rng(7)
    sites = [
        make_site(i, {"S0": 1e9 * (1 + 0.01 * rng.standard_normal())})
        for i in range(24)
    ]
    forward = per_mode_deviation(sites)
    shuffled = list(sites)
    rng.shuffle(shuffled)
    backward = per_mode_deviation(shuffled)
    assert forward == backward  # bit-identical rows


# ---------------------------------------------------------------- simulate


def test_flat_model_gives_identical_sites():
    m = model(
        thickness_edge_drop_m=0.0,
        thickness_noise_sigma_m=0.0,
        pitch_sigma_m=0.0,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07},
                      "A0": {"q_r": 700.0, "k_eff_sq": 0.008}},
    )
    sites = simulate_wafer(m, [2.0e-6], CFG.plate, CFG.chip, CFG.wafer)
    assert len(sites) == 83
    report = per_mode_deviation(sites)
    assert all(r.relstd_pct == 0.0 for r in report.rows)
    f0 = sites[0].metrics["S0"].f_r
    assert all(s.metrics["S0"].f_r == f0 for s in sites)


def test_thickness_variation_splits_s0_s1():
    # thickness-defined S1 tracks the film spread; thin-plate S0 ignores it
    m = model(
        pitch_sigma_m=0.0,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07},
                      "S1": {"q_r": 250.0, "k_eff_sq": 0.05}},
    )
    sites = simulate_wafer(m, [4.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    t_relstd = relstd([s.local_thickness_m for s in sites[::2]] +
                      [s.local_thickness_m for s in sites[1::2]])
    report = per_mode_deviation(sites)
    s0 = report.row("S0", 4.5e-6)
    s1 = report.row("S1", 4.5e-6)
    assert s0.relstd_pct < 0.1 * t_relstd
    assert abs(s1.relstd_pct - t_relstd) / t_relstd < 0.20


def test_simulation_reproducible_for_seed():
    kwargs = dict(designs=[2.0e-6], plate=CFG.plate, chip_cfg=CFG.chip, wafer_cfg=CFG.wafer)
    a = simulate_wafer(model(), **kwargs)
    b = simulate_wafer(model(), **kwargs)
    assert a == b
    rep_a = deviation_csv_rows(per_mode_deviation(a))
    rep_b = deviation_csv_rows(per_mode_deviation(b))
    assert rep_a == rep_b
    c = simulate_wafer(model(seed=2025), **kwargs)
    assert c != a


def test_halving_sigmas_halves_relstd():
    base = dict(
        thickness_edge_drop_m=0.0,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07},
                      "S1": {"q_r": 250.0, "k_eff_sq": 0.05}},
    )
    full = model(thickness_noise_sigma_m=6e-9, pitch_sigma_m=4e-9, **base)
    half = model(thickness_noise_sigma_m=3e-9, pitch_sigma_m=2e-9, **base)
    args = ([1.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    rep_full = per_mode_deviation(simulate_wafer(full, *args))
    rep_half = per_mode_deviation(simulate_wafer(half, *args))
    for row in rep_full.rows:
        other = rep_half.row(row.mode, row.pitch_m)
        assert other.relstd_pct == pytest.approx(0.5 * row.relstd_pct, rel=0.10)


def test_full_resolve_matches_first_order():
    # a handful of dies is enough to compare propagation against re-solving
    chip = replace(CFG.chip, width_m=0.03, height_m=0.012)
    first = model(full_resolve=False)
    resolved = model(full_resolve=True)
    args = ([2.0e-6], CFG.plate, chip, CFG.wafer)
    a = simulate_wafer(first, *args)
    b = simulate_wafer(resolved, *args)
    assert 2 <= len(a) <= 20
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.local_thickness_m == sb.local_thickness_m  # same draws
        assert sb.metrics["S0"].f_r == pytest.approx(sa.metrics["S0"].f_r, rel=1e-4)


def test_perturbed_failure_flags_site():
    # absurd pitch jitter drives some local pitches negative
    m = model(full_resolve=False, pitch_sigma_m=4.5e-6)
    sites = simulate_wafer(m, [4.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    flagged = [s for s in sites if s.failed_modes]
    clean = [s for s in sites if not s.failed_modes]
    assert flagged and clean
    assert all(s.metrics == {} for s in flagged)
    report = per_mode_deviation(sites)
    assert report.row("S0", 4.5e-6).excluded == len(flagged)


def test_simulate_rejects_bad_designs():
    with pytest.raises(InputError):
        simulate_wafer(model(), [], CFG.plate, CFG.chip, CFG.wafer)
    with pytest.raises(InputError):
        simulate_wafer(model(), [-2e-6], CFG.plate, CFG.chip, CFG.wafer)


# ------------------------------------------------------------------ trends


def test_trend_constant_metrics_zero_bands():
    sites = [make_site(i, {"S0": 1e9}) for i in range(4)]
    series = metrics_vs_frequency(sites)
    (pt,) = series.points["S0"]
    assert pt.q_std == 0.0 and pt.k_std == 0.0 and pt.n == 4


def test_trend_detects_decreasing_coupling():
    # coupling shrinking toward higher frequency (smaller pitch)
    sites = []
    for j, (pitch, k2) in enumerate([(1e-6, 0.06), (2e-6, 0.07), (4e-6, 0.08)]):
        for i in range(3):
            f = 1e9 / (pitch / 1e-6)
            sites.append(
                WaferSite(
                    site_id=j * 3 + i, x_mm=0, y_mm=0, pitch_m=pitch,
                    metrics={"S0": make_metrics(f, q_r=300.0, k2=k2)},
                )
            )
    series = metrics_vs_frequency(sites)
    pts = series.points["S0"]
    assert [p.mean_f_hz for p in pts] == sorted(p.mean_f_hz for p in pts)
    assert [p.k_mean for p in pts] == [0.08, 0.07, 0.06]
    joined = " / ".join(series.summary_lines())
    assert "k_eff_sq decreasing" in joined


def test_trend_detects_q_plateau():
    sites = []
    for j, pitch in enumerate([1e-6, 2e-6, 3e-6, 4e-6]):
        for i in range(3):
            sites.append(
                WaferSite(
                    site_id=j * 3 + i, x_mm=0, y_mm=0, pitch_m=pitch,
                    metrics={"A0": make_metrics(5e8 * (j + 1), q_r=700.0 + 0.1 * j, k2=0.008)},
                )
            )
    lines = metrics_vs_frequency(sites).summary_lines()
    plateau = [l for l in lines if "plateau" in l]
    assert len(plateau) == 1
    assert "700" in plateau[0]


# ------------------------------------------------------------------ export


def test_deviation_csv_shape():
    sites = [make_site(i, {"S0": 1e9 + i * 1e5}) for i in range(3)]
    rows = deviation_csv_rows(per_mode_deviation(sites))
    assert rows[0] == "mode,pitch,mean_f_Hz,relstd_pct,n"
    assert rows[1].startswith("S0,2e-06,")
    assert rows[1].endswith(",3")


def test_trend_csv_shape():
    sites = [make_site(i, {"S0": 1e9}) for i in range(3)]
    rows = trend_csv_rows(metrics_vs_frequency(sites))
    assert rows[0] == "mode,pitch,mean_f_Hz,q_mean,q_std,k_eff_sq_mean,k_eff_sq_std,n"
    assert len(rows) == 2


def test_heatmap_rows_filter_mode_and_pitch():
    sites = [
        make_site(0, {"S0": 1e9}, x=-10.0, y=4.0),
        make_site(1, {"S0": 1.01e9}, x=10.0, y=-4.0),
        make_site(2, {"S0": 2e9}, pitch=4e-6),
        make_site(3, {}, failed=("S0",)),
    ]
    rows = heatmap_csv_rows(sites, "S0", 2e-6)
    assert rows[0] == "x_mm,y_mm,f_Hz"
    assert len(rows) == 3
    assert rows[1] == "-10,4,1000000000"


def test_sites_json_round_trip():
    sites = [
        make_site(0, {"S0": 1e9, "A0": 5e8}, x=1.5, y=-2.5),
        make_site(1, {}, failed=("S0", "A0")),
    ]
    doc = sites_to_dict(sites, seed=12022)
    assert doc["seed"] == 12022
    again = sites_from_dict(doc)
    assert again == sites
    with pytest.raises(InputError):
        sites_from_dict({"not_sites": []})


@pytest.mark.parametrize("path,mutate", [
    ("sites[1].x_mm", lambda d: d["sites"][1].pop("x_mm")),
    ("sites[0].pitch_m", lambda d: d["sites"][0].update(pitch_m="2e-6")),
    ("sites[0].metrics.S0.q_r", lambda d: d["sites"][0]["metrics"]["S0"].pop("q_r")),
    ("sites[0].metrics.S0.f_r_hz", lambda d: d["sites"][0]["metrics"]["S0"].update(f_r_hz="1e9")),
    ("sites[1]", lambda d: d["sites"].__setitem__(1, [])),
    ("sites[0].failed_modes", lambda d: d["sites"][0].update(failed_modes="A1")),
    ("failed_modes", lambda d: d["sites"][0].update(failed_modes=["B7"])),
])
def test_sites_from_dict_names_the_bad_field(path, mutate):
    doc = sites_to_dict([make_site(0, {"S0": 1e9}), make_site(1, {"S0": 1.1e9})])
    mutate(doc)
    with pytest.raises(InputError, match=re.escape(path)):
        sites_from_dict(doc)


def test_sites_from_dict_rejects_nan_and_fractional_site_ids_and_nan_locals():
    site = {"x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
            "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9, "q_r": 300.0, "k_eff_sq": 0.05}}}
    doc = {"sites": [{**site, "site_id": math.nan},
                     {**site, "site_id": 1.5, "local_thickness_m": math.nan}]}
    with pytest.raises(InputError, match=re.escape("sites[0].site_id")):
        sites_from_dict(doc)
    doc["sites"][0]["site_id"] = 0
    with pytest.raises(InputError, match=re.escape("sites[1].site_id must be a non-negative integer")):
        sites_from_dict(doc)
    doc["sites"][1]["site_id"] = 1
    with pytest.raises(InputError, match=re.escape("sites[1].local_thickness_m")):
        sites_from_dict(doc)
    # an integer written as a float is the integer, as in the config
    doc["sites"][1].update(site_id=1.0, local_thickness_m=5e-7)
    assert [type(s.site_id) for s in sites_from_dict(doc)] == [int, int]


@pytest.mark.parametrize("field, value", [
    ("site_id", math.nan), ("site_id", 1.5), ("site_id", -1), ("site_id", True),
    ("local_thickness_m", math.nan), ("local_pitch_m", math.inf), ("pitch_m", math.inf),
])
def test_wafer_site_rejects_what_the_loader_rejects(field, value):
    with pytest.raises(InputError):
        replace(make_site(0, {"S0": 1e9}), **{field: value})


def test_mode_metrics_reject_an_infinite_antiresonance():
    with pytest.raises(InputError):
        ModeMetrics(f_r=1e9, f_a=math.inf, q_r=300.0, k_eff_sq=0.05)


def test_lossless_site_round_trips_through_json_text():
    # ModeMetrics documents q_r = inf for a lossless branch; sites_to_dict
    # writes it as Infinity, the one non-finite number a sites document takes
    sites = [make_site(0, {"S0": 1e9}), WaferSite(
        site_id=1, x_mm=1.0, y_mm=2.0, pitch_m=2e-6,
        metrics={"S0": make_metrics(1.1e9, q_r=math.inf)})]
    text = json.dumps(sites_to_dict(sites))
    assert '"q_r": Infinity' in text
    assert sites_from_dict(json.loads(text)) == sites
    with pytest.raises(InputError, match=re.escape("sites[1].metrics.S0.q_r")):
        sites_from_dict(json.loads(text.replace("Infinity", "-Infinity")))

"""Tests for wafer-map statistics and the seeded variation model."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from oracles import (
    metrics_vs_frequency_reference, per_mode_deviation_reference, simulate_wafer_reference)

import lambkit
from lambkit import mbvd, waferstats
from lambkit.config import VariationConfig, load_config
from lambkit.errors import ConfigError, InputError, PackingError, StatisticsError
from lambkit.mbvd import ModeMetrics
from lambkit.record import replace
from lambkit.waferstats import (
    DeviationRow,
    WaferSite,
    deviation_csv_rows,
    group_sites,
    heatmap_csv_rows,
    metrics_vs_frequency,
    per_mode_deviation,
    relstd,
    simulate_wafer,
    sites_from_dict,
    sites_json,
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


SEED = 2024


def variation(**overrides):
    kwargs = dict(
        thickness_center_m=4.2e-7,
        thickness_edge_drop_m=4.0e-8,
        thickness_noise_sigma_m=2e-9,
        pitch_sigma_m=2e-9,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07}},
    )
    kwargs.update(overrides)
    return VariationConfig(**kwargs)


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
    # the config section checks in process what the schema checks in a file
    for bad in (dict(thickness_center_m=0.0), dict(thickness_noise_sigma_m=-1e-9),
                dict(pitch_sigma_m=-1e-9), dict(thickness_edge_drop_m=5e-7),
                dict(mode_quality={"B7": {"q_r": 100, "k_eff_sq": 0.1}}),
                dict(mode_quality={"S0": {"q_r": 0, "k_eff_sq": 0.1}}),
                dict(mode_quality={"S0": {"q_r": 100, "k_eff_sq": 1.5}}),
                dict(mode_quality={})):
        with pytest.raises(ConfigError):
            variation(**bad)
    with pytest.raises(InputError, match=r"^seed must be >= 0, got -1$"):
        simulate_wafer(variation(), -1, [2e-6], CFG.plate, CFG.chip, CFG.wafer)


def test_a_seed_that_is_not_an_integer_is_an_input_error():
    # 7.5 used to end in numpy's TypeError, an internal error, and True drew seed 1
    for seed in (7.5, True, "7", None):
        with pytest.raises(InputError, match=rf"^seed must be an integer, got {re.escape(repr(seed))}$"):
            simulate_wafer(variation(), seed, [2e-6], CFG.plate, CFG.chip, CFG.wafer)


def test_wafer_draws_are_numpys_streams_bit_for_bit(monkeypatch):
    # lambkit.rng against the SeedSequence children, PCG64 and ziggurat it
    # reproduces; only the wedge calls exp and only the tail (idx 0, rabs >=
    # ki[0]) calls log1p, so counting both shows each rare path was taken
    from lambkit import rng

    calls = {"exp": 0, "log1p": 0}
    for name, fn in [(name, getattr(rng, name)) for name in calls]:
        def counted(x, fn=fn, name=name):
            calls[name] += 1
            return fn(x)
        monkeypatch.setattr(rng, name, counted)
    scales = [0.0, 2e-9, 1.0] * 134
    draws = 0
    for seed in (0, 7, 20260, 424242, 2**64 + 5, 10**30):
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(83)):
            expected = np.random.default_rng(child).normal(0.0, scales)
            normal = rng.normal_stream(seed, i)
            got = np.array([normal(0.0, s) for s in scales])
            assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), (seed, i)
            draws += len(scales)
    assert draws >= 200_000
    assert calls["exp"] > 0 and calls["log1p"] > 0, calls


def test_wafer_without_dies_is_a_packing_error():
    # layout accepts an empty map; a wafer run would report statistics of no site
    small = replace(CFG.wafer, diameter_m=0.015, edge_exclusion_m=0.001)
    with pytest.raises(PackingError, match=r"^no chip fits the usable wafer diameter of "
                                           r"0\.013 m \(edge exclusion 0\.001 m\)$"):
        simulate_wafer(variation(), SEED, [2e-6], CFG.plate, CFG.chip, small)


def test_negative_edge_drop_thickens_the_edge():
    # the rule is center - drop > 0, the same as the config's
    flat = dict(thickness_noise_sigma_m=0.0, pitch_sigma_m=0.0)
    sites = simulate_wafer(variation(thickness_edge_drop_m=-1e-8, **flat), SEED, [2e-6],
                           CFG.plate, CFG.chip, CFG.wafer)
    for s in sites:
        r = math.hypot(s.x_mm, s.y_mm) * 1e-3 / CFG.wafer.radius_m
        assert s.local_thickness_m == pytest.approx(4.2e-7 + 1e-8 * r * r, rel=1e-12)
    assert max(s.local_thickness_m for s in sites) > 4.2e-7
    with pytest.raises(ConfigError, match="non-positive at the wafer edge"):
        variation(thickness_edge_drop_m=4.2e-7)


def test_mode_quality_has_no_default():
    # the packaged config is the one home of the per-mode defaults
    kwargs = dict(thickness_center_m=4.2e-7, thickness_edge_drop_m=0.0,
                  thickness_noise_sigma_m=0.0, pitch_sigma_m=0.0)
    with pytest.raises(TypeError, match="mode_quality"):
        VariationConfig(**kwargs)


def test_variation_model_from_config():
    # simulate_wafer reads the config's variation section and seed as they are
    v = CFG.variation
    assert tuple(v.mode_quality) == ("A0", "S0", "A1", "S1")
    sites = simulate_wafer(v, CFG.seed, [2e-6], CFG.plate, CFG.chip, CFG.wafer)
    assert sorted(sites[0].metrics) == ["A0", "A1", "S0", "S1"]
    for mode, m in sites[0].metrics.items():
        assert (m.q_r, m.k_eff_sq) == (v.mode_quality[mode]["q_r"], v.mode_quality[mode]["k_eff_sq"])
    again = simulate_wafer(replace(v, mode_quality={"S0": {"q_r": 300, "k_eff_sq": 0.07}}),
                           CFG.seed, [2e-6], CFG.plate, CFG.chip, CFG.wafer)
    assert type(again[0].metrics["S0"].q_r) is float  # an integer q_r still writes 300.0


def test_wafer_site_validation():
    with pytest.raises(InputError):
        make_site(-1, {"S0": 1e9})
    with pytest.raises(InputError):
        make_site(0, {"S0": 1e9}, pitch=0.0)
    with pytest.raises(InputError):
        make_site(0, {"Q9": 1e9})
    with pytest.raises(InputError):
        make_site(0, {"S0": 1e9}, failed=("S0",))
    with pytest.raises(InputError, match="^site metrics values must be ModeMetrics$"):
        replace(make_site(0, {"S0": 1e9}), metrics={"S0": 1e9})


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
    with pytest.raises(KeyError, match=r"no group \(A0, 4e-06\)"):
        report.row("A0", 4e-6)


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


def test_reductions_of_grouped_sites_equal_those_of_the_sites():
    sites = simulate_wafer(CFG.variation, SEED, [2e-6, 4.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    sites.append(make_site(10_000, {}, pitch=7e-6, failed=("S0",)))  # an omitted group
    groups = group_sites(sites)
    assert group_sites(groups) is groups
    report, trend = per_mode_deviation(groups), metrics_vs_frequency(groups)
    assert report == per_mode_deviation(sites) and report.warnings
    assert trend == metrics_vs_frequency(sites) and trend.warnings == report.warnings
    with pytest.raises(StatisticsError, match="no sites"):
        group_sites(iter([]))


@pytest.mark.parametrize("command", ["stats", "simulate-wafer"])
def test_report_commands_group_the_sites_once(tmp_path, monkeypatch, command):
    from lambkit import cli

    original, grouped = waferstats.group_sites, []

    def counting(sites):
        grouped.append(isinstance(sites, waferstats.SiteGroups))
        return original(sites)

    monkeypatch.setattr(waferstats, "group_sites", counting)
    argv = ["simulate-wafer", "--seed", "7", "--out", str(tmp_path), "--quiet"]
    assert cli.main(argv) == 0
    if command == "stats":
        grouped.clear()
        argv = ["stats", str(tmp_path / "sites.json"), "--out", str(tmp_path), "--quiet"]
        assert cli.main(argv) == 0
    assert grouped == [False, True, True]


def _report_cases():
    """Site lists whose reductions the reference must match: simulated maps,
    constant groups, two-site groups, omitted groups and lossless branches."""
    simulated = simulate_wafer(CFG.variation, SEED, [2e-6, 4.5e-6], CFG.plate, CFG.chip,
                               CFG.wafer)
    noisy = simulate_wafer(replace(CFG.variation, pitch_sigma_m=4.5e-6), SEED, [4.5e-6],
                           CFG.plate, CFG.chip, CFG.wafer)
    constant = [make_site(i, {"S0": 3.3e9, "A0": 1.1e9}, pitch=p)
                for p in (1e-6, 2e-6) for i in range(130 if p == 1e-6 else 9)]
    two_site = [make_site(i, {"S0": 1e9 + 7e5 * i, "A1": 4e9 - 3e6 * i}, pitch=p)
                for p in (1.5e-6, 3e-6) for i in range(2)]
    omitted = [make_site(0, {"S0": 1e9}), make_site(1, {}, failed=("S0", "A0")),
               make_site(2, {"S0": 1.01e9, "A0": 5e8}), make_site(3, {"S1": 2e9}, pitch=4e-6),
               make_site(4, {}, pitch=7e-6, failed=("A1",))]
    lossless = [WaferSite(i, 0.0, 0.0, 2e-6, {"S0": make_metrics(1e9 + i, q_r=q)})
                for i, q in enumerate([math.inf, 300.0, math.inf])]
    lossless += [WaferSite(i, 0.0, 0.0, 4e-6, {"S0": make_metrics(5e8 + i, q_r=math.inf)})
                 for i in range(2)]
    return {"simulated": simulated, "noisy": noisy, "constant": constant,
            "two-site": two_site, "omitted": omitted, "lossless": lossless}


@pytest.mark.parametrize("case", ["simulated", "noisy", "constant", "two-site", "omitted",
                                  "lossless"])
def test_reductions_equal_the_reference_bit_for_bit(case):
    # the reports as they were before each group kept its f values and their
    # mean, in any site order; repr tells every double apart, a NaN q_std too
    sites = _report_cases()[case]
    rng = np.random.default_rng(3)
    for order in [sites, sites[::-1], *(list(rng.permutation(sites)) for _ in range(3))]:
        report = per_mode_deviation(order)
        assert repr(report) == repr(per_mode_deviation_reference(order))
        assert repr(metrics_vs_frequency(order)) == repr(metrics_vs_frequency_reference(order))
        # relstd of a group's f_r is the relstd_pct its row reports
        groups, warnings = group_sites(order)
        assert warnings == report.warnings and len(groups) == len(report.rows)
        for (key, ms, fs, f_mean, _), row in zip(groups, report.rows):
            assert key == (row.mode, row.pitch_m) and f_mean == row.mean_f_hz
            assert list(fs) == [m.f_r for m in ms]
            assert relstd([m.f_r for m in ms]) == row.relstd_pct
    if case == "constant":
        assert all(row.relstd_pct == 0.0 for row in report.rows)
    if case == "omitted":
        assert len(report.warnings) == 3
    if case == "lossless":
        assert [p.q_mean for p in metrics_vs_frequency(sites).points["S0"]] == [math.inf] * 2


# ---------------------------------------------------------------- simulate


def test_flat_model_gives_identical_sites():
    m = variation(
        thickness_edge_drop_m=0.0,
        thickness_noise_sigma_m=0.0,
        pitch_sigma_m=0.0,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07},
                      "A0": {"q_r": 700.0, "k_eff_sq": 0.008}},
    )
    sites = simulate_wafer(m, SEED, [2.0e-6], CFG.plate, CFG.chip, CFG.wafer)
    assert len(sites) == 83
    report = per_mode_deviation(sites)
    assert all(r.relstd_pct == 0.0 for r in report.rows)
    f0 = sites[0].metrics["S0"].f_r
    assert all(s.metrics["S0"].f_r == f0 for s in sites)


def test_thickness_variation_splits_s0_s1():
    # thickness-defined S1 tracks the film spread; thin-plate S0 ignores it
    m = variation(
        pitch_sigma_m=0.0,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07},
                      "S1": {"q_r": 250.0, "k_eff_sq": 0.05}},
    )
    sites = simulate_wafer(m, SEED, [4.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    t_relstd = relstd([s.local_thickness_m for s in sites[::2]] +
                      [s.local_thickness_m for s in sites[1::2]])
    report = per_mode_deviation(sites)
    s0 = report.row("S0", 4.5e-6)
    s1 = report.row("S1", 4.5e-6)
    assert s0.relstd_pct < 0.1 * t_relstd
    assert abs(s1.relstd_pct - t_relstd) / t_relstd < 0.20


def test_simulation_reproducible_for_seed():
    kwargs = dict(pitches=[2.0e-6], plate=CFG.plate, chip_cfg=CFG.chip, wafer_cfg=CFG.wafer)
    a = simulate_wafer(variation(), SEED, **kwargs)
    b = simulate_wafer(variation(), SEED, **kwargs)
    assert a == b
    rep_a = deviation_csv_rows(per_mode_deviation(a))
    rep_b = deviation_csv_rows(per_mode_deviation(b))
    assert rep_a == rep_b
    c = simulate_wafer(variation(), SEED + 1, **kwargs)
    assert c != a


def test_halving_sigmas_halves_relstd():
    base = dict(
        thickness_edge_drop_m=0.0,
        mode_quality={"S0": {"q_r": 300.0, "k_eff_sq": 0.07},
                      "S1": {"q_r": 250.0, "k_eff_sq": 0.05}},
    )
    full = variation(thickness_noise_sigma_m=6e-9, pitch_sigma_m=4e-9, **base)
    half = variation(thickness_noise_sigma_m=3e-9, pitch_sigma_m=2e-9, **base)
    args = (SEED, [1.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    rep_full = per_mode_deviation(simulate_wafer(full, *args))
    rep_half = per_mode_deviation(simulate_wafer(half, *args))
    for row in rep_full.rows:
        other = rep_half.row(row.mode, row.pitch_m)
        assert other.relstd_pct == pytest.approx(0.5 * row.relstd_pct, rel=0.10)


def test_full_resolve_matches_first_order():
    # a handful of dies is enough to compare propagation against re-solving
    chip = replace(CFG.chip, width_m=0.03, height_m=0.012)
    args = (variation(), SEED, [2.0e-6], CFG.plate, chip, CFG.wafer)
    a = simulate_wafer(*args)
    b = simulate_wafer(*args, full_resolve=True)
    assert 2 <= len(a) <= 20
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.local_thickness_m == sb.local_thickness_m  # same draws
        assert sb.metrics["S0"].f_r == pytest.approx(sa.metrics["S0"].f_r, rel=1e-4)


def test_perturbed_failure_flags_site():
    # absurd pitch jitter drives some local pitches negative
    m = variation(pitch_sigma_m=4.5e-6)
    sites = simulate_wafer(m, SEED, [4.5e-6], CFG.plate, CFG.chip, CFG.wafer)
    flagged = [s for s in sites if s.failed_modes]
    clean = [s for s in sites if not s.failed_modes]
    assert flagged and clean
    assert all(s.metrics == {} for s in flagged)
    report = per_mode_deviation(sites)
    assert report.row("S0", 4.5e-6).excluded == len(flagged)


_NOISY = replace(CFG.variation, thickness_noise_sigma_m=2.5e-7, pitch_sigma_m=1.5e-6)


@pytest.mark.parametrize("model, pitches, full_resolve", [
    (CFG.variation, [1.2e-6, 2e-6, 4.5e-6], False), (CFG.variation, [2e-6], True),
    # noise that drives local thicknesses and pitches to zero or below
    (_NOISY, [2e-6, 4.5e-6], False), (_NOISY, [2e-6], True),
], ids=["first-order", "full-resolve", "noisy", "noisy-full-resolve"])
def test_simulate_wafer_equals_the_per_mode_reference(model, pitches, full_resolve):
    # the per-die terms are the same float operations in the same order
    non_physical = 0
    for seed in (0, 7, 401, 2024, 10**30):
        args = (model, seed, pitches, CFG.plate, CFG.chip, CFG.wafer, full_resolve)
        sites = simulate_wafer(*args)
        assert sites == simulate_wafer_reference(*args)
        assert sites_json(sites) == sites_json(simulate_wafer_reference(*args))
        non_physical += sum(s.local_thickness_m <= 0.0 or s.local_pitch_m <= 0.0 for s in sites)
    assert (non_physical > 0) == (model is _NOISY), non_physical


def test_a_repeated_failed_mode_is_refused():
    # group_sites counted such a site as two exclusions of one group
    with pytest.raises(InputError, match=r"^failed_modes repeats the mode 'A0'$"):
        make_site(0, {"S0": 1e9}, failed=("A0", "S1", "A0"))
    doc = sites_to_dict([make_site(0, {"S0": 1e9}), make_site(1, {"S0": 1.1e9})])
    doc["sites"][0]["failed_modes"] = ["A0", "A0"]
    with pytest.raises(InputError, match="repeats the mode 'A0'"):
        sites_from_dict(doc)


def test_simulate_rejects_bad_designs():
    with pytest.raises(InputError):
        simulate_wafer(variation(), SEED, [], CFG.plate, CFG.chip, CFG.wafer)
    with pytest.raises(InputError):
        simulate_wafer(variation(), SEED, [-2e-6], CFG.plate, CFG.chip, CFG.wafer)


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


@pytest.mark.parametrize("faults, message", [
    # a bad metric is reported before a bad coordinate
    ({"metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": math.nan, "q_r": 300.0, "k_eff_sq": "x"}},
      "x_mm": None}, "sites[0].metrics.S0.f_a_hz must be a finite number, got nan"),
    # metrics in document order, each in the order f_r_hz, f_a_hz, q_r, k_eff_sq
    ({"metrics": {"S1": {"f_r_hz": 1e9, "f_a_hz": 1.1e9, "k_eff_sq": 0.05},
                  "S0": {"f_r_hz": None}}}, "sites[0].metrics.S1.q_r must be a finite number"),
    ({"metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.1e9, "q_r": math.inf, "k_eff_sq": math.inf}},
      "y_mm": math.inf}, "sites[0].metrics.S0.k_eff_sq must be a finite number, got inf"),
    # site_id, as a number and then as an integer, before the coordinates
    ({"site_id": 0.5, "x_mm": math.nan},
     "sites[0].site_id must be a non-negative integer, got 0.5"),
    ({"site_id": "0", "x_mm": math.nan}, "sites[0].site_id must be a finite number, got '0'"),
    ({"x_mm": True, "y_mm": math.nan}, "sites[0].x_mm must be a finite number, got True"),
    ({"pitch_m": "2e-6", "local_pitch_m": math.nan}, "sites[0].pitch_m must be a finite number"),
    ({"local_thickness_m": 10**400, "local_pitch_m": math.nan},
     "sites[0].local_thickness_m must be a finite number, got 1000"),
    ({"local_pitch_m": math.inf}, "sites[0].local_pitch_m must be a finite number, got inf"),
    # the numbers all pass, so the WaferSite checks speak last
    ({"pitch_m": -2e-6, "metrics": {"B7": {"f_r_hz": 1e9, "f_a_hz": 1.1e9, "q_r": 300.0,
                                            "k_eff_sq": 0.05}}}, "site pitch must be positive"),
])
def test_sites_from_dict_reports_the_first_of_several_faults(faults, message):
    site = {"site_id": 0, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
            "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9, "q_r": 300.0, "k_eff_sq": 0.05}}}
    good = {**site, "site_id": 1}
    with pytest.raises(InputError, match=re.escape(message)):
        sites_from_dict({"sites": [{**site, **faults}, good]})


@pytest.mark.parametrize("field, value", [
    ("site_id", math.nan), ("site_id", 1.5), ("site_id", -1), ("site_id", True),
    ("local_thickness_m", math.nan), ("local_pitch_m", math.inf), ("pitch_m", math.inf),
])
def test_wafer_site_rejects_what_the_loader_rejects(field, value):
    with pytest.raises(InputError):
        replace(make_site(0, {"S0": 1e9}), **{field: value})


@pytest.mark.parametrize("args, field", [
    ((True, 2.0, 300.0, 0.05), "f_r"), ((1e9, 1.1e9, True, 0.05), "q_r"),
    (("1e9", 1.1e9, 300.0, 0.05), "f_r"), ((1e9, 1.1e9, 300.0, "0.05"), "k_eff_sq"),
    ((1e9, 10**400, 300.0, 0.05), "f_a"), ((1e9, 1.1e9, 10**400, 0.05), "q_r"),
], ids=["bool", "bool-q_r", "str", "str-k_eff_sq", "huge-int", "huge-int-q_r"])
def test_mode_metrics_take_only_json_numbers(args, field):
    # what sites.json cannot carry back is refused with the field's name
    with pytest.raises(InputError, match=f"^{field} must be a finite number, got "):
        ModeMetrics(*args)


@pytest.mark.parametrize("field, value", [
    ("x_mm", True), ("local_pitch_m", False), ("y_mm", "2.5"), ("local_thickness_m", "4e-7"),
    ("pitch_m", 10**400), ("local_thickness_m", -10**400),
], ids=["bool", "bool-local", "str", "str-local", "huge-int-pitch", "huge-int-local"])
def test_wafer_site_takes_only_json_numbers(field, value):
    with pytest.raises(InputError, match=f"^{field} must be a finite number, got "):
        replace(make_site(0, {"S0": 1e9}), **{field: value})


def test_records_store_numpy_numbers_as_plain_ones():
    # a record renders through repr, which spells a numpy scalar np.float64(...)
    m = ModeMetrics(np.float64(1e9), np.float64(1.1e9), np.float64(math.inf), np.float64(0.05))
    assert [type(v) for v in (m.f_r, m.f_a, m.q_r, m.k_eff_sq)] == [float] * 4
    assert m == ModeMetrics(1e9, 1.1e9, math.inf, 0.05)
    site = WaferSite(np.int64(3), np.float64(1.5), -2, np.float64(2e-6), {"S0": m},
                     local_thickness_m=np.float64(4.2e-7))
    assert type(site.site_id) is int and type(site.x_mm) is float and type(site.y_mm) is int
    assert type(site.local_thickness_m) is float
    line = sites_json([site]).splitlines()[1]
    assert line.startswith('{"site_id": 3, "x_mm": 1.5, "y_mm": -2, "pitch_m": 2e-06, ')
    assert '"q_r": Infinity' in line and '"local_thickness_m": 4.2e-07}' in line
    assert sites_from_dict(json.loads(sites_json([site]))) == [site]


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


def test_sites_json_is_one_site_per_line_and_reads_back():
    sites = [
        make_site(0, {"S0": 1e9, "A0": 5e8}, x=1.5, y=-2.5),
        make_site(1, {}, failed=("S0", "A0")),
        WaferSite(site_id=2, x_mm=1.0, y_mm=2.0, pitch_m=2e-6,
                  metrics={"S0": make_metrics(1.1e9, q_r=math.inf)},
                  local_thickness_m=4.2e-7, local_pitch_m=2.001e-6),
    ]
    for seed in (None, 12022):
        text = sites_json(sites, seed=seed)
        lines = text.splitlines()
        assert lines[0] == '{"sites": ['
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] \
            == sites_to_dict(sites)["sites"]
        assert lines[-1] == ("]}" if seed is None else '], "seed": 12022}')
        doc = json.loads(text)
        assert doc == sites_to_dict(sites, seed=seed)
        assert list(doc) == list(sites_to_dict(sites, seed=seed))
        assert sites_from_dict(doc) == sites
    assert '"q_r": Infinity' in lines[3]
    assert json.loads(sites_json([])) == {"sites": []}

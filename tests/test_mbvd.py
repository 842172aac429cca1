"""Equivalent-circuit model: evaluation, metrics, fitting, de-embedding."""

import json
import math

import numpy as np
import pytest

from lambkit.errors import (
    DegenerateFixtureError,
    FitConvergenceError,
    FitPeakError,
    InputError,
)
from lambkit import mbvd
from lambkit.mbvd import (
    AdmittanceTrace,
    FitOptions,
    MbvdModel,
    MotionalBranch,
    StaticNetwork,
    de_embed_open_short,
    fit_mbvd,
    mbvd_admittance,
    resonance_metrics,
)

# 1 GHz series branch: l_m = 1/((2 pi f)^2 c_m) with c_m = 0.1 pF
LM_1GHZ = 2.5330295910584445e-07
CM = 1e-13
C0 = 1e-12


def make_model(r_m=10.0, r_s=0.0, c_0=C0):
    return MbvdModel(
        StaticNetwork(c_0=c_0, r_s=r_s),
        (MotionalBranch(r_m=r_m, l_m=LM_1GHZ, c_m=CM),),
    )


def test_branch_validation():
    with pytest.raises(ValueError):
        MotionalBranch(r_m=1.0, l_m=0.0, c_m=CM)
    with pytest.raises(ValueError):
        MotionalBranch(r_m=1.0, l_m=LM_1GHZ, c_m=-CM)
    with pytest.raises(ValueError):
        MotionalBranch(r_m=-1.0, l_m=LM_1GHZ, c_m=CM)


def test_static_validation():
    with pytest.raises(ValueError):
        StaticNetwork(c_0=0.0)
    with pytest.raises(ValueError):
        StaticNetwork(c_0=C0, r_s=-1.0)


def test_model_sorts_and_rejects_duplicate_resonances():
    low = MotionalBranch(r_m=1.0, l_m=LM_1GHZ, c_m=CM)
    high = MotionalBranch(r_m=1.0, l_m=LM_1GHZ / 4.0, c_m=CM)
    m = MbvdModel(StaticNetwork(c_0=C0), (high, low))
    assert m.branches[0].f_r < m.branches[1].f_r
    with pytest.raises(ValueError):
        MbvdModel(StaticNetwork(c_0=C0), (low, low))


def test_pure_capacitor_admittance():
    m = MbvdModel(StaticNetwork(c_0=C0), ())
    y = m.admittance([1e9, 2e9])
    assert y[0] == pytest.approx(1j * 2.0 * math.pi * 1e9 * C0, rel=1e-15)
    assert y[0].imag == pytest.approx(6.283185307179587e-3, rel=1e-14)


def test_static_with_losses_matches_direct_arithmetic():
    net = StaticNetwork(c_0=2e-12, r_0=3.0, r_s=1.5)
    m = MbvdModel(net, ())
    f = np.array([0.5e9, 1.0e9, 3.0e9])
    w = 2.0 * math.pi * f
    want = 1.0 / (1.5 + 1.0 / (1.0 / (3.0 + 1.0 / (1j * w * 2e-12))))
    np.testing.assert_allclose(m.admittance(f), want, rtol=1e-14)


def test_resonance_metrics_oracle():
    met = resonance_metrics(make_model(), 0)
    assert met.f_r == pytest.approx(1e9, rel=1e-12)
    # f_a/f_r = sqrt(1 + c_m/c_0) = sqrt(1.1)
    assert met.f_a / met.f_r == pytest.approx(1.0488088481701516, rel=1e-12)
    assert met.q_r == pytest.approx(159.15494309189535, abs=1e-2)
    assert met.k_eff_sq == pytest.approx(CM / (CM + C0), rel=1e-12)


def test_q_includes_series_resistance():
    met = resonance_metrics(make_model(r_m=6.0, r_s=4.0), 0)
    assert met.q_r == pytest.approx(159.15494309189535, rel=1e-9)


def test_lossless_q_is_inf():
    met = resonance_metrics(make_model(r_m=0.0, r_s=0.0), 0)
    assert met.q_r == math.inf
    assert met.to_dict()["q_r"] == math.inf


def test_metrics_index_range():
    with pytest.raises(ValueError):
        resonance_metrics(make_model(), 1)


def test_model_json_round_trip():
    m = MbvdModel(
        StaticNetwork(c_0=C0, r_0=0.5, r_s=2.0),
        (
            MotionalBranch(r_m=10.0, l_m=LM_1GHZ, c_m=CM, label="S0"),
            MotionalBranch(r_m=3.0, l_m=LM_1GHZ / 9.0, c_m=CM, label="S1"),
        ),
    )
    back = MbvdModel.from_json(m.to_json())
    assert back == m
    d = json.loads(m.to_json())
    assert d["static"]["c_0_f"] == C0
    assert d["branches"][0]["label"] == "S0"


def test_trace_validation():
    with pytest.raises(ValueError):
        AdmittanceTrace([1e9], [1j])
    with pytest.raises(ValueError):
        AdmittanceTrace([1e9, 1e9], [1j, 2j])
    with pytest.raises(ValueError):
        AdmittanceTrace([1e9, 2e9], [1j])
    with pytest.raises(ValueError):
        AdmittanceTrace([-1e9, 1e9], [1j, 2j])


def test_trace_json_round_trip():
    tr = mbvd_admittance(make_model(), np.linspace(0.9e9, 1.1e9, 5))
    back = AdmittanceTrace.from_dict(tr.to_dict())
    np.testing.assert_array_equal(back.frequencies, tr.frequencies)
    np.testing.assert_array_equal(back.admittance, tr.admittance)


def test_de_embed_recovers_dut_exactly():
    m = make_model(r_s=1.0)
    f = np.linspace(0.8e9, 1.2e9, 101)
    w = 2.0 * math.pi * f
    y_dut = m.admittance(f)
    y_pad = 1j * w * 50e-15
    z_series = 2.0 + 1j * w * 100e-12
    y_open = y_pad
    y_short = y_pad + 1.0 / z_series
    y_meas = y_pad + 1.0 / (z_series + 1.0 / y_dut)
    y_rec = de_embed_open_short(y_meas, y_open, y_short)
    np.testing.assert_allclose(y_rec, y_dut, rtol=1e-12)


def test_de_embed_ideal_short_degenerates_to_open_correction():
    f = np.linspace(0.8e9, 1.2e9, 11)
    w = 2.0 * math.pi * f
    y_dut = make_model().admittance(f)
    y_open = 1j * w * 50e-15
    y_meas = y_open + y_dut  # shunt-only fixture
    y_rec = de_embed_open_short(y_meas, y_open, np.full_like(y_dut, 1e19 + 0j))
    np.testing.assert_allclose(y_rec, y_dut, rtol=1e-12)


def test_de_embed_degenerate_fixtures():
    y = np.array([1j * 1e-3, 1j * 2e-3])
    with pytest.raises(DegenerateFixtureError):
        de_embed_open_short(y, y, y + 1.0)
    with pytest.raises(DegenerateFixtureError):
        de_embed_open_short(y + 1.0, y, y)


def test_fit_clean_single_branch():
    m = make_model(r_s=0.5)
    tr = mbvd_admittance(m, np.linspace(0.9e9, 1.2e9, 400))
    res = fit_mbvd(tr, 1)
    assert res.converged
    got = res.model
    assert got.branches[0].l_m == pytest.approx(LM_1GHZ, rel=1e-6)
    assert got.branches[0].c_m == pytest.approx(CM, rel=1e-6)
    assert got.branches[0].r_m == pytest.approx(10.0, rel=1e-6)
    assert got.static_net.c_0 == pytest.approx(C0, rel=1e-6)
    assert got.static_net.r_s == pytest.approx(0.5, rel=1e-4)
    assert set(res.confidence_scale) == {"c_0", "r_s", "b0.r_m", "b0.l_m", "b0.c_m"}


def test_fit_static_only():
    net = StaticNetwork(c_0=2e-12, r_s=1.0)
    tr = mbvd_admittance(MbvdModel(net, ()), np.linspace(0.5e9, 2e9, 50))
    res = fit_mbvd(tr, 0)
    assert res.model.static_net.c_0 == pytest.approx(2e-12, rel=1e-8)
    assert res.model.static_net.r_s == pytest.approx(1.0, rel=1e-6)


def test_fit_noisy_metric_recovery():
    # randomized property loop: metrics survive 0.5% complex noise
    for trial in range(6):
        rng = np.random.default_rng(1000 + trial)
        f_r = rng.uniform(0.7e9, 2.0e9)
        c_0 = rng.uniform(0.5e-12, 3e-12)
        k2 = rng.uniform(0.02, 0.08)
        q = rng.uniform(100.0, 600.0)
        c_m = c_0 * k2 / (1.0 - k2)
        l_m = 1.0 / ((2.0 * math.pi * f_r) ** 2 * c_m)
        r_m = 1.0 / (2.0 * math.pi * f_r * c_m * q)
        m = MbvdModel(
            StaticNetwork(c_0=c_0, r_s=0.5),
            (MotionalBranch(r_m=r_m, l_m=l_m, c_m=c_m),),
        )
        f_a = f_r * math.sqrt(1.0 + c_m / c_0)
        f = np.unique(
            np.concatenate(
                [
                    np.linspace(f_r * (1 - 3.0 / q), f_r * (1 + 3.0 / q), 120),
                    np.linspace(f_r * 0.97, f_a * 1.03, 120),
                ]
            )
        )
        y = m.admittance(f)
        noise = rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)
        y = y * (1.0 + 0.005 * noise / math.sqrt(2.0))
        res = fit_mbvd(AdmittanceTrace(f, y), 1)
        want = resonance_metrics(m, 0)
        got = resonance_metrics(res.model, 0)
        assert got.f_r == pytest.approx(want.f_r, rel=5e-4)
        assert got.k_eff_sq == pytest.approx(want.k_eff_sq, rel=0.05)
        assert got.q_r == pytest.approx(want.q_r, rel=0.10)


def test_fit_peak_error_on_flat_trace():
    tr = mbvd_admittance(MbvdModel(StaticNetwork(c_0=C0), ()), np.linspace(1e9, 2e9, 100))
    with pytest.raises(FitPeakError) as exc:
        fit_mbvd(tr, 1)
    assert exc.value.found == 0
    assert exc.value.requested == 1


def test_fit_iteration_cap_carries_best_model():
    tr = mbvd_admittance(make_model(r_s=0.5), np.linspace(0.9e9, 1.2e9, 400))
    with pytest.raises(FitConvergenceError) as exc:
        fit_mbvd(tr, 1, FitOptions(max_iterations=1))
    assert isinstance(exc.value.model, MbvdModel)
    assert exc.value.model.n_branches == 1
    assert not exc.value.report.converged


def test_fit_rejects_short_trace():
    tr = AdmittanceTrace([1e9, 2e9], [1j * 1e-3, 1j * 2e-3])
    with pytest.raises(InputError):
        fit_mbvd(tr, 1)


def test_peak_median_matches_scipy_median_filter():
    median_filter = pytest.importorskip("scipy.ndimage").median_filter
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(3, 600))
        window = int(rng.choice([1, 3, 5, 7, 9, 11]))
        mag = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.3:
            mag = np.round(mag, 1)  # ties
        _, sm = mbvd._find_peaks(mag, 0, window)
        want = median_filter(mag, size=window, mode="nearest")
        assert np.array_equal(sm.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("window", [0, -3, 4, 2.0, True, "5"])
def test_fit_options_rejects_bad_median_window(window):
    with pytest.raises(InputError):
        FitOptions(median_window=window)

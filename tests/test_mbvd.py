"""Equivalent-circuit model: evaluation, metrics and fitting."""

import json
import math

import numpy as np
import pytest

from lambkit.errors import (
    FitConvergenceError,
    FitPeakError,
    InputError,
)
from lambkit import mbvd
from lambkit.mbvd import (
    AdmittanceTrace,
    MbvdModel,
    MotionalBranch,
    StaticNetwork,
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
    # the model part of the <stem>_metrics.json that fit writes
    d = json.loads(json.dumps(m.to_dict()))
    assert d == {
        "static": {"c_0_f": C0, "r_0_ohm": 0.5, "r_s_ohm": 2.0},
        "branches": [
            {"r_m_ohm": 10.0, "l_m_h": LM_1GHZ, "c_m_f": CM, "label": "S0"},
            {"r_m_ohm": 3.0, "l_m_h": LM_1GHZ / 9.0, "c_m_f": CM, "label": "S1"},
        ],
    }


def test_trace_validation():
    with pytest.raises(ValueError):
        AdmittanceTrace([1e9], [1j])
    with pytest.raises(ValueError):
        AdmittanceTrace([1e9, 1e9], [1j, 2j])
    with pytest.raises(ValueError):
        AdmittanceTrace([1e9, 2e9], [1j])
    with pytest.raises(ValueError):
        AdmittanceTrace([-1e9, 1e9], [1j, 2j])


def test_mbvd_admittance_checks_the_grid_before_evaluating():
    import warnings

    model = make_model()
    f = np.linspace(0.9e9, 1.1e9, 5)
    np.testing.assert_array_equal(mbvd_admittance(model, f).admittance, model.admittance(f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero frequency would divide by zero
        for bad in ([0.0, 1e9], [1e9], [2e9, 1e9], np.ones((2, 2))):
            with pytest.raises(InputError):
                mbvd_admittance(model, bad)


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


def test_fit_iteration_cap_carries_best_model(monkeypatch):
    monkeypatch.setattr(mbvd, "_MAX_ITERATIONS", 1)
    tr = mbvd_admittance(make_model(r_s=0.5), np.linspace(0.9e9, 1.2e9, 400))
    with pytest.raises(FitConvergenceError) as exc:
        fit_mbvd(tr, 1)
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
        sm = mbvd._sliding_median(mag, window)
        want = median_filter(mag, size=window, mode="nearest")
        assert np.array_equal(sm.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 1600, 1601])
def test_median_is_numpy_median_to_the_bit(n):
    rng = np.random.default_rng(n)
    specials = [math.inf, -math.inf, math.nan, 0.0, -0.0]
    for trial in range(200):
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3)
        if trial % 2:
            values = np.round(values, 1)  # repeated values
        for _ in range(int(rng.integers(0, 3))):
            values[rng.integers(n)] = specials[rng.integers(len(specials))]
        with np.errstate(invalid="ignore"):  # inf - inf in the mean of the middle pair
            want, got = np.median(values), mbvd._median(values.copy())
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), values


def test_fit_report_counts_evaluations():
    res = fit_mbvd(mbvd_admittance(make_model(r_s=0.5), np.linspace(0.9e9, 1.2e9, 400)), 1)
    report = res.report_dict()
    assert report["iterations"] == report["nfev"] == res.nfev > 1
    assert report["njev"] == res.njev == res.nfev
    assert report["status"] in (1, 2) and report["converged"] is True
    json.dumps(report)


def test_fit_iteration_cap_message_names_evaluations(monkeypatch):
    monkeypatch.setattr(mbvd, "_MAX_ITERATIONS", 1)
    tr = mbvd_admittance(make_model(r_s=0.5), np.linspace(0.9e9, 1.2e9, 400))
    with pytest.raises(FitConvergenceError, match=r"iteration cap reached after 6 evaluations"):
        fit_mbvd(tr, 1)


def _weak_resonator(f_r, k2, q, c0=1e-12, rs=1.5):
    c_m = k2 / (1.0 - k2) * c0
    w = 2.0 * math.pi * f_r
    r_m = 1.0 / (w * c_m * q) - rs
    return MbvdModel(StaticNetwork(c_0=c0, r_s=rs), (MotionalBranch(r_m=r_m, l_m=1.0 / (w * w * c_m), c_m=c_m),))


@pytest.mark.parametrize("f_r,k2,q", [(1.0e9, 0.005, 250.0), (0.8e9, 0.004, 220.0), (1.3e9, 0.008, 300.0)])
def test_fit_weak_resonator_on_wide_sweep(f_r, k2, q):
    # a weak, low-Q branch low in a wide sweep: its |Y| peak is below the
    # w*c_0 background at the top edge, its conductance peak is not
    truth = _weak_resonator(f_r, k2, q)
    want = resonance_metrics(truth, 0)
    f = np.linspace(0.6e9, 3.4e9, 1601)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        noise = 0.005 / math.sqrt(2) * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
        got = resonance_metrics(fit_mbvd(AdmittanceTrace(f, truth.admittance(f) * (1.0 + noise)), 1).model, 0)
        assert abs(got.f_r - want.f_r) / want.f_r <= 5e-4, seed
        assert abs(got.k_eff_sq - want.k_eff_sq) / want.k_eff_sq <= 0.05, seed
        assert abs(got.q_r - want.q_r) / want.q_r <= 0.10, seed


def test_initial_model_seeds_on_conductance_peak():
    truth = _weak_resonator(1.0e9, 0.005, 250.0)
    f = np.linspace(0.6e9, 3.4e9, 1601)
    _, _, (branch,) = mbvd._initial_model(AdmittanceTrace(f, truth.admittance(f)), 1)
    assert branch.f_r == pytest.approx(1.0e9, rel=2e-3)


def _jacobian_case(n_branches, seed):
    rng = np.random.default_rng(seed)
    c0 = 10 ** rng.uniform(-12.3, -11.7)
    branches = []
    for f_r in np.sort(rng.uniform(0.8e9, 3.0e9, n_branches)):
        c_m = rng.uniform(0.004, 0.08) * c0
        w = 2.0 * math.pi * f_r
        r_m = 1.0 / (w * c_m * rng.uniform(250.0, 1000.0))
        branches.append(MotionalBranch(r_m=r_m, l_m=1.0 / (w * w * c_m), c_m=c_m))
    theta = mbvd._pack(c0, rng.uniform(0.5, 3.0), branches)
    theta += rng.normal(0.0, 1e-3, theta.size)
    f = np.linspace(0.7e9, 3.3e9, 400)
    y = MbvdModel(StaticNetwork(c_0=c0), tuple(branches)).admittance(f)
    return theta, 2j * math.pi * f, y, np.abs(y)


def _kernel_args(jw, y, absy):
    """The per-trace arguments of _residual_jacobian after theta, as fit_mbvd passes them."""
    return jw, 1.0 / jw, y, 1.0 / absy


@pytest.mark.parametrize("n_branches", [1, 2, 3, 4])
def test_analytic_jacobian_matches_central_differences(n_branches):
    theta, jw, y, absy = _jacobian_case(n_branches, 100 * n_branches)
    args = _kernel_args(jw, y, absy)
    fun, jac = mbvd._residual_jacobian(theta, *args)
    assert fun.shape == (2 * y.size,) and jac.shape == (fun.size, theta.size)
    step = 1e-7
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        fd = (mbvd._residual_jacobian(theta + e, *args)[0]
              - mbvd._residual_jacobian(theta - e, *args)[0]) / (2.0 * step)
        scale = np.max(np.abs(jac[:, i]))
        assert np.max(np.abs(fd - jac[:, i])) <= 1e-6 * scale, i


def test_residual_matches_model_admittance():
    theta, jw, y, absy = _jacobian_case(3, 7)
    fun, _ = mbvd._residual_jacobian(theta, *_kernel_args(jw, y, absy))
    model = mbvd._unpack(theta)
    d = (model.admittance(jw.imag / (2.0 * math.pi)) - y) / absy
    # the real and imaginary part of each sample side by side
    want = np.column_stack([d.real, d.imag]).ravel()
    np.testing.assert_allclose(fun, want, rtol=0, atol=1e-12 * np.max(np.abs(fun)))


def _rosenbrock(x):
    return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
            np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))


def test_levenberg_marquardt_solves_rosenbrock():
    x, fun, jac, nfev, status = mbvd._levenberg_marquardt(
        _rosenbrock, np.array([-1.2, 1.0]), xtol=1e-12, ftol=1e-14, max_nfev=500)
    assert status in (1, 2)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-8)
    np.testing.assert_array_equal(fun, _rosenbrock(x)[0])
    np.testing.assert_array_equal(jac, _rosenbrock(x)[1])
    assert nfev <= 500


def test_levenberg_marquardt_stops_at_evaluation_cap():
    x0 = np.array([-1.2, 1.0])
    x, fun, _, nfev, status = mbvd._levenberg_marquardt(_rosenbrock, x0, 1e-12, 1e-14, 8)
    assert (status, nfev) == (0, 8)
    assert fun @ fun < _rosenbrock(x0)[0] @ _rosenbrock(x0)[0]


def test_levenberg_marquardt_backs_off_non_finite_trials():
    # Gauss-Newton on atan overshoots from x = 3 into a region returning NaN
    def fun_jac(x):
        if abs(x[0]) > 5.0:
            return np.array([math.nan]), np.array([[math.nan]])
        return np.array([math.atan(x[0])]), np.array([[1.0 / (1.0 + x[0] ** 2)]])

    x, fun, _, _, status = mbvd._levenberg_marquardt(fun_jac, np.array([3.0]), 1e-12, 1e-14, 200)
    assert status in (1, 2)
    assert abs(x[0]) < 1e-8 and np.all(np.isfinite(fun))


def test_levenberg_marquardt_stops_when_no_damping_gives_a_finite_step():
    # J^T J overflows, so every damped system has a non-finite solution; mu
    # grows until mu * nu overflows and the start comes back with status 0
    jac = np.array([[1e200, 1e200], [1e200, -1e200]])
    fun_jac = lambda x: (np.array([1.0, 1.0]), jac)
    x0 = np.array([1.0, 2.0])
    with np.errstate(all="ignore"):  # as fit_mbvd calls it
        x, _, jac_out, nfev, status = mbvd._levenberg_marquardt(fun_jac, x0, 1e-12, 1e-14, 100)
    assert (status, nfev) == (0, 1)
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(jac_out, jac)


def test_levenberg_marquardt_keeps_a_parameter_without_influence():
    # an all-zero Jacobian column makes J^T J singular; the unit scale for
    # that column keeps the damped system solvable and the parameter still
    def fun_jac(x):
        return np.array([x[0] - 2.0, 3.0 * (x[0] - 2.0)]), np.array([[1.0, 0.0], [3.0, 0.0]])

    x, _, _, _, status = mbvd._levenberg_marquardt(fun_jac, np.array([0.0, 5.0]), 1e-12, 1e-14, 100)
    assert status in (1, 2)
    assert x[0] == pytest.approx(2.0, abs=1e-10) and x[1] == 5.0


def test_levenberg_marquardt_no_worse_than_scipy_on_criterion_1_set():
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    from test_acceptance import _random_mbvd, _structured_grid

    rng = np.random.default_rng(18230)
    for case in range(100):
        truth = _random_mbvd(rng)
        grid = _structured_grid(truth)
        noise = 0.005 / math.sqrt(2) * (
            rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        trace = AdmittanceTrace(grid, truth.admittance(grid) * (1.0 + noise))
        n = truth.n_branches
        c0, rs, branches = mbvd._initial_model(trace, n)
        theta0 = mbvd._pack(c0, rs, branches)
        args = _kernel_args(2j * math.pi * grid, trace.admittance, np.abs(trace.admittance))
        want = least_squares(
            lambda th: mbvd._residual_jacobian(th, *args)[0],
            theta0, method="lm", xtol=1e-10, ftol=1e-14, gtol=1e-14, max_nfev=200 * (3 * n + 3),
        )
        got = fit_mbvd(trace, n)
        assert got.residual_norm <= np.linalg.norm(want.fun) * (1.0 + 1e-9), case

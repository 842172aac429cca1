"""Guided-wave dispersion solver: residuals, branch tracing, sensitivities."""

import math

import numpy as np
import pytest

from oracles import lamb_roots_scan
from lambkit import dispersion
from lambkit.config import load_catalog, load_config
from lambkit.dispersion import (
    MODE_NAMES,
    DispersionCurve,
    PlateMaterial,
    PlateSpec,
    curve_to_csv_rows,
    pitch_to_frequency,
    rayleigh_lamb_residual,
    sensitivity,
    solve_at_k,
    solve_mode,
    thin_plate_s0_velocity,
)
from lambkit.errors import DispersionRangeError, SensitivityError, SolverError

STEEL = PlateMaterial(rho=3000.0, v_l=10000.0, v_t=5500.0, name="test-plate")
PLATE = PlateSpec(material=STEEL, h=1e-3)
DEVICE_PLATE = load_config().plate
CATALOG_PITCHES = tuple(load_catalog()["pitches_m"])


def test_material_validation():
    with pytest.raises(ValueError):
        PlateMaterial(rho=-1.0, v_l=10000.0, v_t=5500.0)
    with pytest.raises(ValueError):
        PlateMaterial(rho=3000.0, v_l=5000.0, v_t=5500.0)  # v_t < v_l required
    with pytest.raises(ValueError):
        PlateSpec(material=STEEL, h=0.0)


def test_residual_rejects_bad_args():
    with pytest.raises(ValueError):
        rayleigh_lamb_residual(1e6, 100.0, PLATE, "sideways")
    with pytest.raises(ValueError):
        rayleigh_lamb_residual(0.0, 100.0, PLATE, "symmetric")
    with pytest.raises(ValueError):
        rayleigh_lamb_residual(1e6, -1.0, PLATE, "symmetric")


def test_cutoff_frequencies_near_k_zero():
    # at k*h = 0.01 each branch sits just above its k=0 cutoff:
    #   A1: v_t/(2h)      A2: 3 v_t/(2h)
    #   S1: v_l/(2h)      S2: v_t/h  (here v_t/h > v_l/(2h))
    k = 0.01 / PLATE.h
    h = PLATE.h
    assert solve_at_k(PLATE, "A1", k) == pytest.approx(5500.0 / (2 * h), rel=1e-3)
    assert solve_at_k(PLATE, "S1", k) == pytest.approx(10000.0 / (2 * h), rel=1e-3)


def test_thin_plate_s0_velocity_value():
    assert thin_plate_s0_velocity(STEEL) == pytest.approx(9186.811198669537, rel=1e-12)


def test_s0_approaches_plate_velocity():
    k = 0.01 / PLATE.h
    f = solve_at_k(PLATE, "S0", k)
    v = 2.0 * math.pi * f / k
    assert v == pytest.approx(thin_plate_s0_velocity(STEEL), rel=1e-3)


def test_mode_ordering():
    for kh in (0.05, 0.3, 1.0, 3.0):
        k = kh / PLATE.h
        f_a0 = solve_at_k(PLATE, "A0", k)
        f_s0 = solve_at_k(PLATE, "S0", k)
        f_a1 = solve_at_k(PLATE, "A1", k)
        f_s1 = solve_at_k(PLATE, "S1", k)
        assert 0 < f_a0 < f_s0 < min(f_a1, f_s1)


def test_roots_match_reference_scan():
    cases = [
        ("symmetric", ("S0", "S1"), 0.4),
        ("antisymmetric", ("A0", "A1"), 0.4),
        ("symmetric", ("S0", "S1"), 2.0),
        ("antisymmetric", ("A0", "A1"), 2.0),
    ]
    for symmetry, modes, kh in cases:
        k = kh / PLATE.h
        ref = lamb_roots_scan(k, 10000.0, 5500.0, PLATE.h, symmetry, 2)
        assert ref.size == 2
        for mode, w_ref in zip(modes, ref):
            f = solve_at_k(PLATE, mode, k)
            assert f == pytest.approx(w_ref / (2.0 * math.pi), rel=1e-6)


def test_scaling_invariance():
    # f(k; h) = s * f(k/s; s*h) for any s > 0
    k = 0.8 / PLATE.h
    f_base = solve_at_k(PLATE, "S0", k)
    for s in (1e-4, 12.5):
        f_scaled = solve_at_k(PLATE.scaled(s), "S0", k / s)
        assert s * f_scaled == pytest.approx(f_base, rel=1e-9)


def test_branch_index_unreliable_at_tiny_k():
    # the A0 root drops below numerical resolution, so higher antisymmetric
    # branch indices cannot be trusted
    with pytest.raises(SolverError):
        solve_at_k(PLATE, "A1", 1e-4 / PLATE.h)


def test_scan_floor_underflow_is_a_solver_error():
    # below k*h ~ 1e-150 the flexural scan floor k^2*h*c underflows to 0
    with pytest.raises(SolverError, match="underflows"):
        solve_at_k(DEVICE_PLATE, "A0", 1e-200)
    curve = solve_mode(DEVICE_PLATE, "S0", [1e-200, 1e6])
    assert curve.gaps == ((1e-200, 1e-200),)
    assert curve.k.size == 1
    with pytest.raises(DispersionRangeError):
        pitch_to_frequency(1e300, "A0", DEVICE_PLATE)


def test_solve_mode_curve():
    k = np.linspace(0.3, 1.5, 13) / PLATE.h
    curve = solve_mode(PLATE, "S0", k)
    assert curve.mode == "S0"
    assert curve.gaps == ()
    assert curve.k.size == 13
    assert np.all(np.diff(curve.f) > 0) or np.all(np.diff(curve.f) >= 0)
    np.testing.assert_allclose(
        curve.v_phase, 2.0 * math.pi * curve.f / curve.k, rtol=1e-14
    )
    for i in (0, 6, 12):
        assert curve.f[i] == pytest.approx(solve_at_k(PLATE, "S0", k[i]), rel=1e-12)


def test_solve_mode_records_gap_for_unreliable_k():
    k = np.concatenate([[1e-4], np.linspace(0.3, 0.9, 4)]) / PLATE.h
    curve = solve_mode(PLATE, "A1", k)
    assert len(curve.gaps) == 1
    lo, hi = curve.gaps[0]
    assert lo == pytest.approx(1e-4 / PLATE.h)
    assert hi == pytest.approx(1e-4 / PLATE.h)
    assert curve.k.size == 4


def test_curve_validation():
    with pytest.raises(ValueError):
        DispersionCurve("S0", np.array([2.0, 1.0]), np.array([1e6, 2e6]), ())
    with pytest.raises(ValueError):
        DispersionCurve("A0", np.array([1.0, 2.0]), np.array([2e6, 1e6]), ())


def test_pitch_to_frequency_matches_direct_solve():
    pitch = 2e-3  # k = pi/pitch, k*h = 1.57
    f_direct = solve_at_k(PLATE, "S0", math.pi / pitch)
    f_interp = pitch_to_frequency(pitch, "S0", PLATE)
    assert f_interp == pytest.approx(f_direct, rel=1e-6)


def test_pitch_to_frequency_out_of_range():
    # A1 has no reliable lattice node at k*h = 1e-4
    with pytest.raises(DispersionRangeError):
        pitch_to_frequency(math.pi * PLATE.h / 1e-4, "A1", PLATE)


def test_sensitivity_homogeneity():
    # f(k, h) is homogeneous of degree -1 in (pitch, h), so the two
    # log-derivatives always sum to -1
    for mode, kh in (("S0", 0.2), ("A0", 0.2), ("S1", 1.2)):
        s_h, s_p = sensitivity(PLATE, mode, kh / PLATE.h)
        assert s_h + s_p == pytest.approx(-1.0, abs=1e-12)


def test_sensitivity_limits():
    # thin-plate S0 is h-independent; thin-plate A0 scales like h*k^2
    s_h, s_p = sensitivity(PLATE, "S0", 0.02 / PLATE.h)
    assert abs(s_h) < 5e-3
    assert s_p == pytest.approx(-1.0, abs=5e-3)
    s_h, s_p = sensitivity(PLATE, "A0", 0.02 / PLATE.h)
    assert s_h == pytest.approx(1.0, abs=2e-2)
    assert s_p == pytest.approx(-2.0, abs=2e-2)


def test_csv_rows():
    k = np.linspace(0.4, 0.6, 3) / PLATE.h
    curve = solve_mode(PLATE, "S0", k)
    rows = curve_to_csv_rows(curve)
    assert len(rows) == 3
    assert rows[0][0] == "S0"
    assert float(rows[0][1]) == pytest.approx(k[0], rel=1e-9)


# ------------------------------------------------- root finder and lattice


def test_roots_match_reference_scan_seeded():
    rng = np.random.default_rng(4417)
    for _ in range(200):
        h = 10.0 ** rng.uniform(-7.0, -3.0)
        k = 10.0 ** rng.uniform(math.log10(0.2), math.log10(5.0)) / h
        symmetry = ("symmetric", "antisymmetric")[int(rng.integers(2))]
        plate = PlateSpec(material=STEEL, h=h)
        roots, reliable = dispersion._roots_at_k(plate, symmetry, k, 2)
        ref = lamb_roots_scan(k, STEEL.v_l, STEEL.v_t, h, symmetry, 2, n_scan=20_000)
        assert reliable
        np.testing.assert_allclose(roots, ref, rtol=1e-6)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_solve_mode_matches_solve_at_k_pointwise(mode):
    k = np.geomspace(0.1, 4.0, 17) / PLATE.h
    curve = solve_mode(PLATE, mode, k)
    assert curve.gaps == ()
    for ki, fi in zip(curve.k, curve.f):
        assert fi == pytest.approx(solve_at_k(PLATE, mode, ki), rel=1e-9)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_lattice_matches_direct_solve(mode):
    for scale in (0.85, 0.95, 1.0, 1.05, 1.15):
        plate = DEVICE_PLATE.scaled(scale)
        for pitch in CATALOG_PITCHES:
            f_direct = solve_at_k(plate, mode, math.pi / pitch)
            assert pitch_to_frequency(pitch, mode, plate) == pytest.approx(
                f_direct, rel=1e-6
            )


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_sensitivity_matches_central_differences(mode):
    d = 1e-4
    dln = math.log((1.0 + d) / (1.0 - d))
    for scale in (0.85, 1.0, 1.15):
        plate = DEVICE_PLATE.scaled(scale)
        for pitch in CATALOG_PITCHES:
            k = math.pi / pitch
            f_hp = solve_at_k(plate.scaled(1.0 + d), mode, k)
            f_hm = solve_at_k(plate.scaled(1.0 - d), mode, k)
            f_pp = solve_at_k(plate, mode, math.pi / (pitch * (1.0 + d)))
            f_pm = solve_at_k(plate, mode, math.pi / (pitch * (1.0 - d)))
            s_h, s_p = sensitivity(plate, mode, k)
            assert s_h == pytest.approx(math.log(f_hp / f_hm) / dln, abs=1e-5)
            assert s_p == pytest.approx(math.log(f_pp / f_pm) / dln, abs=1e-5)


def test_lattice_is_independent_of_query_order():
    queries = [
        (mode, pitch, DEVICE_PLATE.scaled(scale))
        for mode in MODE_NAMES
        for pitch in CATALOG_PITCHES[::3]
        for scale in (0.9, 1.1)
    ]

    def evaluate(order):
        dispersion._LATTICE.clear()
        out = {}
        for i in order:
            mode, pitch, plate = queries[i]
            out[i] = (
                pitch_to_frequency(pitch, mode, plate),
                sensitivity(plate, mode, math.pi / pitch),
            )
        return out

    forward = evaluate(range(len(queries)))
    backward = evaluate(reversed(range(len(queries))))
    assert forward == backward


@pytest.mark.parametrize("mode", ("A0", "A1", "S1"))
def test_lattice_below_reliable_kh_raises_range_errors(mode):
    # A0 loses reliable branch indexing below k*h ~ 9e-3, A1 below ~5e-3 and
    # S1 below ~1e-5; every query either answers or raises the documented
    # error type
    answered = failed = 0
    for kh in np.geomspace(1e-8, 0.1, 29):
        pitch = math.pi * PLATE.h / kh
        try:
            f = pitch_to_frequency(pitch, mode, PLATE)
        except DispersionRangeError:
            failed += 1
            with pytest.raises(SensitivityError):
                sensitivity(PLATE, mode, kh / PLATE.h)
            continue
        answered += 1
        assert math.isfinite(f) and f > 0.0
        s_h, s_p = sensitivity(PLATE, mode, kh / PLATE.h)
        assert math.isfinite(s_h) and math.isfinite(s_p)
    assert answered and failed


def test_a0_small_kh_is_flexural_or_raises():
    # below k*h ~ 6e-3..9e-3 the scan floor sinks into rounding noise; A0
    # must then raise instead of returning a higher branch (the A1 cutoff
    # v_t/2h); what it does return follows the thin-plate flexural law
    c_plate = thin_plate_s0_velocity(STEEL)
    solved = 0
    for kh in np.geomspace(1e-5, 0.05, 40):
        k = kh / PLATE.h
        try:
            f = solve_at_k(PLATE, "A0", k)
        except SolverError:
            continue
        solved += 1
        f_flex = k * k * PLATE.h * c_plate / (2.0 * math.sqrt(3.0)) / (2.0 * math.pi)
        assert f == pytest.approx(f_flex, rel=1e-2)
    assert solved


# ------------------------------------------------------- Brent root polish


def test_brentq_bit_identical_to_scipy_on_residual_brackets():
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(8071)
    checked = 0
    while checked < 2000:
        k = rng.uniform(1e-3, 60.0) / DEVICE_PLATE.h
        for symmetry in ("symmetric", "antisymmetric"):
            grid = dispersion._scan_grid(DEVICE_PLATE, k)
            t1, t2 = dispersion._residual_terms(grid, k, DEVICE_PLATE, symmetry)
            vals = t1 + t2
            for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)[:3]:
                args = (grid[i], grid[i + 1], (k, DEVICE_PLATE, symmetry))
                want = brentq(dispersion._scalar_residual, *args, rtol=1e-12, maxiter=200)
                got = dispersion._brentq(dispersion._scalar_residual, *args)
                assert got == want and type(got) is float
                checked += 1


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (math.cos, 0.0, 2.0),
    (lambda x: x ** 3 - x - 1.0, 1.0, 2.0),
    (lambda x: math.exp(x) - 1e3, -5.0, 20.0),
    (lambda x: math.atan(1e6 * (x - 0.3)), 0.0, 1.0),
    (lambda x: x - 1.0, 1.0, 2.0),  # root exactly at the lower end
    (lambda x: x - 1.0, 0.0, 1.0),  # root exactly at the upper end
])
def test_brentq_bit_identical_to_scipy_on_analytic_functions(f, a, b):
    brentq = pytest.importorskip("scipy.optimize").brentq
    want = brentq(f, a, b, rtol=1e-12, maxiter=200)
    assert dispersion._brentq(f, a, b) == want


@pytest.mark.parametrize("f, a, b, maxiter", [
    (lambda x: x * x + 1.0, 0.0, 1.0, 200),  # no sign change
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 200),  # NaN value
    (math.cos, 0.0, 2.0, 2),  # maxiter exhausted
])
def test_brentq_failures_raise_solver_error(f, a, b, maxiter):
    # scipy raises a bare ValueError or RuntimeError in each of these cases
    brentq = pytest.importorskip("scipy.optimize").brentq
    with pytest.raises((ValueError, RuntimeError)):
        brentq(f, a, b, rtol=1e-12, maxiter=maxiter)
    with pytest.raises(SolverError):
        dispersion._brentq(f, a, b, maxiter=maxiter)


def test_root_polish_failure_is_a_gap(monkeypatch):
    monkeypatch.setattr(dispersion, "_scalar_residual", lambda w, k, plate, sym: math.nan)
    k = np.geomspace(0.5, 2.0, 5) / PLATE.h
    curve = solve_mode(PLATE, "S0", k)
    assert curve.k.size == 0
    assert curve.gaps == ((k[0], k[-1]),)

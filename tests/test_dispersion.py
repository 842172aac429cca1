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
    pitch_to_frequency,
    rayleigh_lamb_residual,
    sensitivity,
    solve_at_k,
    solve_grid,
    solve_mode,
    thin_plate_s0_velocity,
)
from lambkit.errors import DispersionRangeError, InputError, SensitivityError, SolverError

STEEL = PlateMaterial(v_l=10000.0, v_t=5500.0)
PLATE = PlateSpec(material=STEEL, h=1e-3)
DEVICE_PLATE = load_config().plate
CATALOG_PITCHES = tuple(load_catalog()["pitches_m"])


def test_material_validation():
    with pytest.raises(ValueError):
        PlateMaterial(v_l=-1.0, v_t=5500.0)
    with pytest.raises(ValueError):
        PlateMaterial(v_l=5000.0, v_t=5500.0)  # v_t < v_l required
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


def test_packaged_lattice_table_equals_a_fresh_solve():
    material, j_min, ln_f = dispersion._packaged_table()
    assert material == DEVICE_PLATE.material, "re-run tools/lattice_table.py"
    for mode in MODE_NAMES:
        for j, stored in enumerate(ln_f[mode], j_min):
            # the same double, or None (null) where the solve raises SolverError
            try:
                fresh = math.log(solve_at_k(PlateSpec(material, 1.0), mode,
                                            math.exp(j / dispersion._LATTICE_DENSITY)))
            except SolverError:
                fresh = None
            assert stored == fresh, f"{mode} node {j} is stale: re-run tools/lattice_table.py"


# ------------------------------------------------ lattice walk against the scan

# 20 materials with v_l/v_t over [1.5, 3.0], one in each twentieth of it, and 4
# within 2 % of 2.0, where S1 and S2 leave their common k*h -> 0 limit
# min(v_t, v_l/2) so close together that S1's seed must come from solve_at_k
_RNG = np.random.default_rng(20261020)
WALK_MATERIALS = [PlateMaterial(ratio * v_t, v_t) for ratio, v_t in zip(
    [*(1.5 + 0.075 * (np.arange(20) + _RNG.uniform(size=20))).tolist(),
     *_RNG.uniform(1.96, 2.04, 4).tolist()],
    _RNG.uniform(2000.0, 6500.0, 24).tolist())]
# every node with k*h in [0.03, 20]
WALK_NODES = range(math.ceil(64 * math.log(0.03)), math.floor(64 * math.log(20.0)) + 1)


def walked_nodes(material, mode, order=WALK_NODES):
    nodes = {}
    for j in order:
        dispersion._solve_node(material, mode, j, nodes)
    return nodes


# the sweep, each with A0's band bound (below), and v_l/v_t 1.3 and 3.5 beyond it, as
# PlateMaterial takes any v_t < v_l.  As v_l/v_t falls the band widens: at 1.3 and k*h
# 0.0316 A0's walked node is 3.4e-8 and its scanned one 2.0e-8 from the 60-digit root.
# No node of these materials is rootless: test_a_rootless_node_is_scanned_around makes one
WALK_CASES = [*((m, 5e-8) for m in WALK_MATERIALS), (PlateMaterial(3900.0, 3000.0), 1e-7),
              (PlateMaterial(10500.0, 3000.0), 5e-8)]


@pytest.mark.parametrize("i", range(len(WALK_CASES)))
def test_lattice_walk_matches_the_scan(i):
    material, a0_band_rtol = WALK_CASES[i]
    for mode in MODE_NAMES:
        nodes = walked_nodes(material, mode)
        for j in WALK_NODES:
            kh = math.exp(j / dispersion._LATTICE_DENSITY)
            try:
                ref = solve_at_k(PlateSpec(material, 1.0), mode, kh)
            except SolverError:
                ref = None
            assert (nodes[j] is None) == (ref is None), (mode, j)
            # A0 below k*h 0.1 sits in the residual's cancellation band, walk and scan alike
            rtol = a0_band_rtol if mode == "A0" and kh < 0.1 else 1e-9
            assert ref is None or abs(math.exp(nodes[j]) / ref - 1.0) <= rtol, (mode, j)



def test_a_rootless_node_is_scanned_around(monkeypatch):
    material, mode = WALK_MATERIALS[0], "S0"
    clean = walked_nodes(material, mode)
    ks = {j: math.exp(j / dispersion._LATTICE_DENSITY) for j in WALK_NODES}
    solve, polish, scanned = dispersion.solve_at_k, dispersion._polish, []

    def scan(plate, mode, k):  # node -50 has no root
        scanned.append(k)
        if k == ks[-50]:
            raise SolverError("no root")
        return solve(plate, mode, k)

    monkeypatch.setattr(dispersion, "solve_at_k", scan)
    monkeypatch.setattr(dispersion, "_polish", lambda *a: None if a[2] == ks[-50] else polish(*a))
    monkeypatch.setattr(dispersion, "_LATTICE", {})
    nodes = walked_nodes(material, mode)
    # the three nodes the walk would continue from it are scanned; it resumes above them
    assert nodes[-50] is None and scanned == [ks[j] for j in (-50, -49, -48, -47)]
    for j in (-49, -48, -47):
        assert nodes[j] == math.log(solve(PlateSpec(material, 1.0), mode, ks[j]))
    assert all(nodes[j] == clean[j] for j in WALK_NODES if j < -50)
    assert all(abs(nodes[j] - clean[j]) < 1e-9 for j in WALK_NODES if j > -50)
    plate, k = PlateSpec(material, 1.0), math.exp(-49.5 / dispersion._LATTICE_DENSITY)
    with pytest.raises(DispersionRangeError):
        dispersion._lattice_eval(plate, mode, k)
    assert dispersion._table_root(plate, mode, k) is None
    assert solve_grid(plate, mode, [k]) == ([k], [solve(plate, mode, k)], [])


def test_lattice_walk_is_independent_of_fill_order():
    shuffled = list(WALK_NODES)
    np.random.default_rng(7).shuffle(shuffled)
    for material in (WALK_MATERIALS[0], WALK_MATERIALS[-1]):
        for mode in MODE_NAMES:
            ascending = walked_nodes(material, mode)
            assert walked_nodes(material, mode, WALK_NODES[::-1]) == ascending
            assert walked_nodes(material, mode, shuffled) == ascending


# ---------------------------------------------- table-bracketed root polish


def count_scans(monkeypatch):
    """The arguments of every solve_at_k call from now on."""
    calls = []
    solve = dispersion.solve_at_k
    monkeypatch.setattr(dispersion, "solve_at_k", lambda *args: calls.append(args) or solve(*args))
    return calls


# A0 at small k*h: the antisymmetric residual's cancellation noise sets how
# far two Brent polishes of one root can land apart
@pytest.mark.parametrize("mode, rtol", [("A0", 2e-11), ("A1", 1e-12), ("S0", 1e-12),
                                        ("S1", 1e-12)])
def test_table_polish_matches_the_scan_over_the_whole_table(monkeypatch, mode, rtol):
    _, j_min, ln_f = dispersion._packaged_table()
    j_max = j_min + len(ln_f[mode]) - 1
    # k*h whose stencil nodes j0-1 .. j0+2 all lie in the table: j0 in j_min+1 .. j_max-2
    lo, hi = (math.exp(j / dispersion._LATTICE_DENSITY) for j in (j_min + 1, j_max - 1))
    ks = (np.geomspace(lo * (1 + 1e-12), hi * (1 - 1e-12), 1000) / DEVICE_PLATE.h).tolist()
    scans = count_scans(monkeypatch)
    solved, fs, gaps = solve_grid(DEVICE_PLATE, mode, ks)
    assert scans == [] and solved == ks and gaps == []
    for k, f in zip(ks, fs):  # rtol is orders below the gap to any other branch
        assert f == pytest.approx(solve_at_k(DEVICE_PLATE, mode, k), rel=rtol, abs=0.0)


def test_table_polish_falls_back_to_the_scan(monkeypatch):
    other = PlateSpec(PlateMaterial(7100.0, 3267.0), DEVICE_PLATE.h)
    default_ks = (math.pi / np.array([4.5e-6, 3e-6, 1e-6])).tolist()
    # pitches 10-7 um put k*h at 0.126-0.180, below the table's 0.197
    below_ks = (math.pi / np.array([1e-5, 8.5e-6, 7e-6])).tolist()
    lattice_eval = dispersion._lattice_eval

    def off_centre(*args):  # the table's root 1 % off: no bracket up to 1e-3 changes sign
        return lattice_eval(*args)[0] + 0.01, None

    def falls_back(plate, mode, ks):
        assert [dispersion._table_root(plate, mode, k) for k in ks] == [None] * len(ks)
        del scans[:]
        assert solve_grid(plate, mode, ks) == (ks, [solve_at_k(plate, mode, k) for k in ks], [])
        assert len(scans) == len(ks)
        del scans[:]

    scans = count_scans(monkeypatch)
    # another material, and the packaged one off its table, polish on the walked lattice,
    # except A0 below its seeds, where the polish would sit in cancellation noise
    for plate, ks in ((other, default_ks), (DEVICE_PLATE, below_ks)):
        for mode in MODE_NAMES:
            if (mode, ks) == ("A0", below_ks):
                falls_back(plate, mode, ks)
                continue
            solved, fs, gaps = solve_grid(plate, mode, ks)
            assert scans == [] and solved == ks and gaps == []
            assert fs == [dispersion._table_root(plate, mode, k) for k in ks]
            for k, f in zip(ks, fs):
                assert f == pytest.approx(solve_at_k(plate, mode, k), rel=1e-12, abs=0.0)
    monkeypatch.setattr(dispersion, "_lattice_eval", off_centre)
    for mode in MODE_NAMES:
        falls_back(DEVICE_PLATE, mode, default_ks)


@pytest.mark.parametrize("ks", [[2e6, 2e6], [3e6, 2e6], [0.0, 2e6], [2e6, math.inf],
                                [math.nan, 2e6]])
def test_solve_grid_and_solve_mode_refuse_the_same_grids(ks):
    for solve in (solve_grid, solve_mode):
        with pytest.raises(InputError, match="positive, finite and strictly increasing"):
            solve(DEVICE_PLATE, "S0", ks)


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


def _where_sin_cos(x2, hh):
    """The np.where form of _even_sin_cos: every branch at every point, then a pick."""
    x2 = np.asarray(x2, dtype=float)
    x = np.sqrt(np.abs(x2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sin = np.where(x2 > 0.0, np.sin(x * hh) / x, -np.expm1(-2.0 * x * hh) / (2.0 * x))
        cos = np.where(x2 >= 0.0, np.cos(x * hh), (1.0 + np.exp(-2.0 * x * hh)) / 2.0)
    return np.where(x2 == 0.0, hh, sin), cos


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("hh", [0.5, 0.2])
def test_even_sin_cos_matches_the_where_form_bit_for_bit_on_scan_grids(hh):
    plate = PlateSpec(DEVICE_PLATE.material, 2.0 * hh)
    signs = set()
    for kh in np.geomspace(0.005, 80.0, 40):
        k = kh / plate.h
        grid = dispersion._scan_grid(plate, k)
        for v in (plate.material.v_l, plate.material.v_t):
            x2 = (grid / v) ** 2 - k * k
            signs.update(np.sign(x2).tolist())
            new, ref = dispersion._even_sin_cos(x2, hh), _where_sin_cos(x2, hh)
            assert all(map(_same_bits, new, ref)), (kh, v)
    assert signs == {-1.0, 1.0}  # both branches ran


@pytest.mark.parametrize("hh", [0.5, 0.2])
def test_even_sin_cos_at_edge_values_and_0d_input(hh):
    edges = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf]
    new, ref = dispersion._even_sin_cos(np.array(edges), hh), _where_sin_cos(np.array(edges), hh)
    assert all(map(_same_bits, new, ref))
    for x2 in edges:  # rayleigh_lamb_residual hands it 0-d arrays
        new, ref = dispersion._even_sin_cos(np.float64(x2), hh), _where_sin_cos(np.float64(x2), hh)
        assert all(map(_same_bits, new, ref)), x2
        assert all(r.ndim == 0 for r in new)
    sin, cos = dispersion._even_sin_cos(np.array([math.nan, 1.0]), hh)
    assert np.isnan(sin[0]) and np.isnan(cos[0])
    assert all(map(_same_bits, (sin[1:], cos[1:]), _where_sin_cos(np.array([1.0]), hh)))

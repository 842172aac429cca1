"""End-to-end tests of the command-line interface and its exit codes."""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from lambkit import cli, dispersion, processflow
from lambkit.errors import SolverError
from lambkit.gdsii import read_gdsii
from lambkit.mbvd import MbvdModel, MotionalBranch, StaticNetwork
from lambkit.processflow import packaged_flow, steps_to_dict
from lambkit.touchstone import TouchstoneFile, serialize_touchstone, y_to_s11

F_R = 1.0e9
C_M = 8e-15
R_M = 12.0
R_S = 2.0
C_0 = 1e-12


def synth_model() -> MbvdModel:
    l_m = 1.0 / ((2 * math.pi * F_R) ** 2 * C_M)
    return MbvdModel(
        static_net=StaticNetwork(c_0=C_0, r_0=0.0, r_s=R_S),
        branches=(MotionalBranch(r_m=R_M, l_m=l_m, c_m=C_M),),
    )


def write_s1p(path, frequencies, s11):
    tf = TouchstoneFile(frequencies=frequencies, s11=s11)
    path.write_text(serialize_touchstone(tf))
    return str(path)


def write_dut(tmp_path):
    f = np.linspace(0.8e9, 1.3e9, 400)
    y = synth_model().admittance(f)
    return write_s1p(tmp_path / "dut.s1p", f, y_to_s11(y)), f


# ------------------------------------------------------------------- usage


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == cli.EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_help_exits_zero():
    assert cli.main(["--help"]) == cli.EXIT_OK


# ---------------------------------------------------------------- disperse


def test_disperse_monotone_s0(tmp_path):
    code = cli.main(
        ["disperse", "--out", str(tmp_path), "--modes", "S0",
         "--pitch-min", "2e-6", "--pitch-max", "4e-6", "--points", "10"]
    )
    assert code == cli.EXIT_OK
    lines = (tmp_path / "dispersion.csv").read_text().splitlines()
    assert lines[0] == "mode,k_rad_m,f_hz,v_phase_m_s"
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[0] == "S0" for r in rows)
    ks = [float(r[1]) for r in rows]
    fs = [float(r[2]) for r in rows]
    assert ks == sorted(ks)
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    for r in rows:
        v = 2.0 * math.pi * float(r[2]) / float(r[1])
        assert float(r[3]) == pytest.approx(v, rel=1e-8)


def test_disperse_empty_modes_usage(tmp_path):
    assert cli.main(["disperse", "--out", str(tmp_path), "--modes", ""]) == 2


def test_disperse_unknown_mode_usage(tmp_path):
    assert cli.main(["disperse", "--out", str(tmp_path), "--modes", "B3"]) == 2


def test_disperse_inverted_range_usage(tmp_path):
    code = cli.main(
        ["disperse", "--out", str(tmp_path),
         "--pitch-min", "4e-6", "--pitch-max", "2e-6"]
    )
    assert code == 2


def run_python(*args, timeout=120):
    """Run a fresh interpreter with lambkit importable."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_cli(*argv, timeout=120):
    """Run the CLI in a fresh process, so a traceback would show on stderr."""
    return run_python("-m", "lambkit.cli", *argv, timeout=timeout)


def test_disperse_huge_points_is_usage_error(tmp_path):
    # rejected before the grid is allocated: a MemoryError would show
    proc = run_cli("disperse", "--out", str(tmp_path), "--points", "100000000000")
    assert proc.returncode == cli.EXIT_USAGE
    assert "--points" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "dispersion.csv").exists()


def test_disperse_a0_at_small_kh_leaves_gaps(tmp_path):
    # pitches 100-400 um put k*h at 3e-3..1.3e-2 on the packaged plate: A0
    # is solved above k*h ~ 5.7e-3 and leaves a gap below instead of
    # jumping to the A1 cutoff
    proc = run_cli("disperse", "--out", str(tmp_path), "--modes", "A0",
                   "--pitch-min", "1e-4", "--pitch-max", "4e-4")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = (tmp_path / "dispersion.csv").read_text().splitlines()[1:]
    fs = [float(r.split(",")[2]) for r in rows]
    assert 0 < len(fs) < 40
    assert fs == sorted(fs)


def test_solver_failure_maps_to_exit_3(tmp_path, monkeypatch):
    def boom(plate, mode, k_grid):
        raise SolverError("no bracketed root in the scan window")

    monkeypatch.setattr(dispersion, "solve_mode", boom)
    code = cli.main(["disperse", "--out", str(tmp_path), "--modes", "S0"])
    assert code == cli.EXIT_SOLVER



def test_scan_floor_underflow_exits_3(tmp_path):
    # pitch 1e300 puts k*h near 1e-306, where the solver's scan floor underflows
    proc = run_cli("simulate-wafer", "--pitches", "1e300", "--quiet", "--out", str(tmp_path))
    assert proc.returncode == cli.EXIT_SOLVER
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    # disperse records the underflowing grid point as a gap and solves the rest
    proc = run_cli("disperse", "--pitch-min", "1e-6", "--pitch-max", "1e300", "--points", "5",
                   "--modes", "S0", "--out", str(tmp_path))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "S0: 4 of 5 points solved" in proc.stdout


@pytest.mark.parametrize("argv, doc, where", [
    (["layout"], {"chip": {"margin_m": float("nan")}}, "chip/margin_m"),
    (["design"], {"capacitance": {"eps_r": float("nan")}}, "capacitance/eps_r"),
    (["layout", "--wafer-map"], {"wafer": {"diameter_m": float("inf")}}, "wafer/diameter_m"),
    (["design"], {"matching": {"target_impedance_ohm": float("inf")}},
     "matching/target_impedance_ohm"),
    (["simulate-wafer"], {"wafer": {"keepout_m": [0, 0, float("-inf"), 0]}}, "wafer/keepout_m/2"),
])
def test_non_finite_config_number_is_usage_error(tmp_path, argv, doc, where):
    # json.load accepts NaN and Infinity; the config boundary does not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli(*argv, "--config", str(cfg), "--pitches", "2e-6", "--out", str(tmp_path))
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr.startswith(f"error: config invalid at {where}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not any(p.name != "cfg.json" for p in tmp_path.iterdir())


@pytest.mark.parametrize("argv, doc, value", [
    (["layout"], {"chip": {"margin_m": 1e300}}, "1e+300"),
    (["layout", "--wafer-map"], {"wafer": {"diameter_m": 1e300}}, "5e+299"),
])
def test_finite_length_beyond_int32_exits_4(tmp_path, argv, doc, value):
    # finite, so the config accepts it; the database-unit range does not.
    # The wafer map is refused before its grid loop, so this ends in seconds.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli(*argv, "--config", str(cfg), "--pitches", "2e-6", "--quiet",
                   "--out", str(tmp_path / "out"), timeout=30)
    assert proc.returncode == cli.EXIT_DESIGN
    assert proc.stderr == f"error: {value} m exceeds 32-bit database units\n"


def test_integer_fields_spelled_as_floats_give_identical_outputs(tmp_path):
    ints = {"seed": 7, "matching": {"max_fingers": 1000, "dummy_count_per_side": 3},
            "layers": {"small_idt": 1, "large_idt": 2, "pads": 3, "bottom_electrode": 4,
                       "outline": 5},
            "reticle": {"demag": 4}}
    # JSON Schema counts 7.0 as an integer; json.dumps writes the float as 7.0
    floats = {k: {n: float(x) for n, x in v.items()} if isinstance(v, dict) else float(v)
              for k, v in ints.items()}
    outputs = []
    for name, doc in (("ints", ints), ("floats", floats)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / name
        for argv in (["design"], ["layout", "--wafer-map"], ["simulate-wafer"]):
            assert cli.main([*argv, "--config", str(cfg), "--pitches", "2e-6,4.5e-6",
                             "--quiet", "--out", str(out)]) == cli.EXIT_OK, argv
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------------ design


def test_design_catalog_defaults(tmp_path, capsys):
    assert cli.main(["design", "--out", str(tmp_path)]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "designs.json").read_text())
    assert doc["target_impedance_ohm"] == 200.0
    designs = doc["designs"]
    assert len(designs) == 10
    by_pitch = {d["pitch_m"]: d for d in designs}
    assert by_pitch[2e-6]["n_fingers"] == 156
    assert by_pitch[2e-6]["achieved_impedance_ohm"] == pytest.approx(199.79, abs=0.01)
    assert by_pitch[5e-7]["layer"] == "SMALL"
    assert by_pitch[4.5e-6]["layer"] == "LARGE"
    out = capsys.readouterr().out
    assert "S0_p2000nm" in out


def test_design_gap_pitch_exit_4(tmp_path, capsys):
    code = cli.main(["design", "--out", str(tmp_path), "--pitches", "1.2e-6"])
    assert code == cli.EXIT_DESIGN
    assert "unassigned interval" in capsys.readouterr().err


def test_design_quiet_suppresses_stdout(tmp_path, capsys):
    code = cli.main(
        ["design", "--out", str(tmp_path), "--pitches", "2e-6", "--quiet"]
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == ""


def test_design_bad_pitch_list_usage(tmp_path):
    assert cli.main(["design", "--out", str(tmp_path), "--pitches", "abc"]) == 2
    assert cli.main(["design", "--out", str(tmp_path), "--pitches", ","]) == 2


# ------------------------------------------------------------------ layout


def test_layout_artifacts_and_placement_count(tmp_path, capsys):
    code = cli.main(
        ["layout", "--out", str(tmp_path), "--pitches", "2e-6,4e-6", "--wafer-map"]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "83 placements" in out

    lib = read_gdsii((tmp_path / "chip.gds").read_bytes())
    assert "CHIP" in {c.name for c in lib.cells}
    reticle = read_gdsii((tmp_path / "reticle.gds").read_bytes())
    assert "RETICLE" in {c.name for c in reticle.cells}

    map_lines = (tmp_path / "wafer_map.csv").read_text().splitlines()
    assert map_lines[0] == "site_id,ix,iy,x_mm,y_mm"
    assert len(map_lines) == 1 + 83


def test_layout_packing_overflow_exit_4(tmp_path, capsys):
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({"chip": {"width_m": 0.0008}}))
    code = cli.main(
        ["layout", "--out", str(tmp_path), "--config", str(cfg),
         "--pitches", "4.5e-6"]
    )
    assert code == cli.EXIT_DESIGN
    assert "does not fit" in capsys.readouterr().err


def test_layout_without_map_flag_writes_no_csv(tmp_path):
    code = cli.main(["layout", "--out", str(tmp_path), "--pitches", "2e-6"])
    assert code == cli.EXIT_OK
    assert not (tmp_path / "wafer_map.csv").exists()
    assert (tmp_path / "chip.gds").exists()


# --------------------------------------------------------------------- fit


def test_fit_recovers_synthetic_model(tmp_path):
    dut, f = write_dut(tmp_path)
    assert cli.main(["fit", dut, "--branches", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "dut_metrics.json").read_text())
    branch = doc["branches"][0]
    q_true = 1.0 / (2 * math.pi * F_R * C_M * (R_M + R_S))
    k2_true = C_M / (C_M + C_0)
    assert branch["f_r_hz"] == pytest.approx(F_R, rel=1e-4)
    assert branch["q_r"] == pytest.approx(q_true, rel=0.02)
    assert branch["k_eff_sq"] == pytest.approx(k2_true, rel=0.01)
    overlay = (tmp_path / "dut_overlay.csv").read_text().splitlines()
    assert overlay[0] == "f_hz,y_abs_measured,y_abs_model"
    assert len(overlay) == 1 + f.size


def test_overlay_rows_match_scalar_abs():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = 500
        f = np.sort(rng.uniform(1e8, 1e10, n))
        y = [10 ** rng.uniform(-6, 2, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
             for _ in range(2)]
        want = ["f_hz,y_abs_measured,y_abs_model"] + [
            f"{fi:.9e},{abs(a):.9e},{abs(b):.9e}" for fi, a, b in zip(f, *y)
        ]
        assert cli._overlay_rows(f, *y) == want
        # the doubles agree too, not only their 10-digit renderings
        assert np.hypot(y[0].real, y[0].imag).tolist() == [abs(v) for v in y[0]]


def test_fit_batch_isolates_bad_file(tmp_path, capsys):
    dut, _ = write_dut(tmp_path)
    bad = tmp_path / "broken.s1p"
    bad.write_text("this is not a touchstone file\n")
    code = cli.main(["fit", dut, str(bad), "--out", str(tmp_path)])
    assert code == cli.EXIT_OK  # one file still succeeded
    captured = capsys.readouterr()
    assert "failed broken.s1p" in captured.err
    assert (tmp_path / "dut_metrics.json").exists()
    assert not (tmp_path / "broken_metrics.json").exists()


def test_fit_all_files_failing_exits_5(tmp_path):
    a = tmp_path / "a.s1p"
    b = tmp_path / "b.s1p"
    a.write_text("garbage\n")
    # non-monotone frequency column is a listed per-file failure
    b.write_text("# GHz S MA R 50\n1.0 0.5 0\n0.9 0.5 0\n")
    code = cli.main(["fit", str(a), str(b), "--out", str(tmp_path)])
    assert code == cli.EXIT_ALL_FITS_FAILED


def test_fit_identity_calibration_matches_raw(tmp_path, capsys):
    dut, f = write_dut(tmp_path)
    short = write_s1p(tmp_path / "short.s1p", f, np.full(f.size, -1 + 0j))
    open_std = write_s1p(tmp_path / "open.s1p", f, np.full(f.size, 1 + 0j))
    load = write_s1p(tmp_path / "load.s1p", f, np.zeros(f.size, dtype=complex))

    raw_dir = tmp_path / "raw"
    cal_dir = tmp_path / "cal"
    assert cli.main(["fit", dut, "--out", str(raw_dir)]) == 0
    code = cli.main(
        ["fit", dut, "--out", str(cal_dir),
         "--cal-short", short, "--cal-open", open_std, "--cal-load", load,
         "--cal-through", short]
    )
    assert code == 0
    assert "through standard ignored" in capsys.readouterr().err
    raw = json.loads((raw_dir / "dut_metrics.json").read_text())
    cal = json.loads((cal_dir / "dut_metrics.json").read_text())
    assert cal["branches"][0]["f_r_hz"] == pytest.approx(
        raw["branches"][0]["f_r_hz"], rel=1e-9
    )


def ideal_standards(tmp_path, f):
    """Paths of short, open and load files measuring the ideal standards on f."""
    return [write_s1p(tmp_path / f"{name}.s1p", f, np.full(f.size, gamma, dtype=complex))
            for name, gamma in (("short", -1), ("open", 1), ("load", 0))]


def test_fit_solves_the_error_box_once_per_command(tmp_path, monkeypatch):
    from lambkit import calibration

    dut, f = write_dut(tmp_path)
    duts = [dut, *(str(shutil.copy(dut, tmp_path / f"dut{i}.s1p")) for i in range(3))]
    solve = calibration.osl_solve
    calls = []
    monkeypatch.setattr(calibration, "osl_solve",
                        lambda *args: calls.append(args) or solve(*args))
    short, open_std, load = ideal_standards(tmp_path, f)
    code = cli.main(["fit", *duts, "--cal-short", short, "--cal-open", open_std,
                     "--cal-load", load, "--quiet", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert len(calls) == 1
    assert len(list((tmp_path / "out").glob("*_metrics.json"))) == 4


def test_fit_calibration_failures_stay_per_file(tmp_path):
    dut, f = write_dut(tmp_path)
    off = write_s1p(tmp_path / "off.s1p", f * (1 + 1e-6), y_to_s11(synth_model().admittance(f)))
    short, open_std, load = ideal_standards(tmp_path, f)
    half = write_s1p(tmp_path / "half.s1p", f[:200], np.zeros(200, dtype=complex))

    def fit(*cal):
        flags = [x for name, path in zip(("--cal-short", "--cal-open", "--cal-load"), cal)
                 for x in (name, path)]
        return run_cli("fit", dut, off, *flags, "--quiet", "--out", str(tmp_path / "out"))

    # an open measured as a second short: each DUT on the grid names the first
    # frequency, and a DUT on another grid still reports its grid first
    proc = fit(short, short, load)
    assert proc.returncode == cli.EXIT_ALL_FITS_FAILED
    assert proc.stderr == (
        "failed dut.s1p: degenerate standards at 8e+08 Hz: two measured values equal\n"
        "failed off.s1p: short standard frequency grid differs from the DUT\n")
    proc = fit(short, open_std, load)
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == "failed off.s1p: short standard frequency grid differs from the DUT\n"
    # standards of unequal length have no box; every DUT fails its grid check
    proc = fit(short, open_std, half)
    assert proc.returncode == cli.EXIT_ALL_FITS_FAILED
    assert proc.stderr == (
        "failed dut.s1p: load standard frequency grid differs from the DUT\n"
        "failed off.s1p: short standard frequency grid differs from the DUT\n")


@pytest.mark.parametrize("flag", ["--cal-short", "--cal-open", "--cal-load"])
def test_standard_that_is_not_utf8_is_usage_error(tmp_path, flag):
    dut, f = write_dut(tmp_path)
    cal = dict(zip(("--cal-short", "--cal-open", "--cal-load"), ideal_standards(tmp_path, f)))
    bad = tmp_path / "bad.s1p"
    bad.write_bytes(b"! \xff\n" + open(cal[flag], "rb").read())
    cal[flag] = str(bad)
    out = tmp_path / "out"
    proc = run_cli("fit", dut, *(x for item in cal.items() for x in item), "--quiet",
                   "--out", str(out))
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr == "error: line 1: byte 0xff is not UTF-8\n"
    assert not out.exists()
    # the same bytes as a DUT are one failed file, as any unparsable DUT is
    proc = run_cli("fit", str(bad), "--quiet", "--out", str(out))
    assert proc.returncode == cli.EXIT_ALL_FITS_FAILED
    assert proc.stderr == "failed bad.s1p: line 1: byte 0xff is not UTF-8\n"


def test_fit_partial_cal_set_is_usage_error(tmp_path):
    dut, f = write_dut(tmp_path)
    short = write_s1p(tmp_path / "short.s1p", f, np.full(f.size, -1 + 0j))
    code = cli.main(["fit", dut, "--out", str(tmp_path), "--cal-short", short])
    assert code == cli.EXIT_USAGE


# -------------------------------------------------- simulate-wafer / stats


def test_simulate_wafer_echoes_seed_and_writes(tmp_path, capsys):
    code = cli.main(
        ["simulate-wafer", "--out", str(tmp_path), "--pitches", "4.5e-6",
         "--seed", "77"]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "seed 77" in out
    assert "83 site(s)" in out
    doc = json.loads((tmp_path / "sites.json").read_text())
    assert doc["seed"] == 77
    assert len(doc["sites"]) == 83
    dev = (tmp_path / "deviation.csv").read_text().splitlines()
    assert dev[0] == "mode,pitch,mean_f_Hz,relstd_pct,n"
    assert len(dev) == 1 + 4  # one row per default mode
    assert (tmp_path / "trend.csv").exists()


def test_simulate_wafer_deterministic_per_seed(tmp_path):
    args = ["simulate-wafer", "--pitches", "4.5e-6", "--quiet"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(args + ["--out", str(a), "--seed", "5"]) == 0
    assert cli.main(args + ["--out", str(b), "--seed", "5"]) == 0
    assert cli.main(args + ["--out", str(c), "--seed", "6"]) == 0
    assert (a / "sites.json").read_bytes() == (b / "sites.json").read_bytes()
    assert (a / "deviation.csv").read_bytes() == (b / "deviation.csv").read_bytes()
    assert (a / "sites.json").read_bytes() != (c / "sites.json").read_bytes()


def test_stats_reproduces_simulation_report(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert cli.main(
        ["simulate-wafer", "--out", str(sim), "--pitches", "4.5e-6",
         "--seed", "77", "--quiet"]
    ) == 0
    red = tmp_path / "red"
    code = cli.main(
        ["stats", str(sim / "sites.json"), "--out", str(red),
         "--heatmap", "S1:4.5e-6"]
    )
    assert code == cli.EXIT_OK
    assert "seed 77" in capsys.readouterr().out
    assert (sim / "deviation.csv").read_bytes() == (red / "deviation.csv").read_bytes()
    heat = (red / "heatmap.csv").read_text().splitlines()
    assert heat[0] == "x_mm,y_mm,f_Hz"
    assert len(heat) == 1 + 83


def test_stats_rejects_malformed_json(tmp_path):
    bad = tmp_path / "sites.json"
    bad.write_text("{nope")
    assert cli.main(["stats", str(bad), "--out", str(tmp_path)]) == cli.EXIT_USAGE


def test_stats_site_without_x_mm_is_usage_error(tmp_path):
    sites = tmp_path / "sites.json"
    sites.write_text(json.dumps({"sites": [{"site_id": 0, "y_mm": 0.0, "pitch_m": 2e-6}]}))
    proc = run_cli("stats", str(sites), "--out", str(tmp_path))
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "sites[0].x_mm" in proc.stderr


_SITE_NUMBERS = ("site_id", "x_mm", "y_mm", "pitch_m", "local_thickness_m", "local_pitch_m",
                 "metrics.S0.f_r_hz", "metrics.S0.f_a_hz", "metrics.S0.q_r",
                 "metrics.S0.k_eff_sq")


# q_r = Infinity is a lossless branch, the one non-finite value a sites document takes
@pytest.mark.parametrize("field, value", [
    (field, value) for field in _SITE_NUMBERS for value in ("NaN", "Infinity", "-Infinity")
    if (field, value) != ("metrics.S0.q_r", "Infinity")
])
def test_stats_non_finite_site_number_is_usage_error(tmp_path, capsys, field, value):
    site = {"site_id": 0, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
            "local_thickness_m": 5e-7, "local_pitch_m": 2e-6,
            "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9, "q_r": 300.0, "k_eff_sq": 0.05}}}
    node = site
    *parents, key = field.split(".")
    for name in parents:
        node = node[name]
    node[key] = "@"
    sites = tmp_path / "sites.json"
    sites.write_text(json.dumps({"sites": [site, {**site, "site_id": 1}]}).replace('"@"', value))
    assert cli.main(["stats", str(sites), "--quiet", "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: sites[0].{field} must be a finite number, got ")
    assert not (tmp_path / "out").exists()


def test_stats_empty_sites_exits_6(tmp_path):
    empty = tmp_path / "sites.json"
    empty.write_text(json.dumps({"sites": []}))
    assert cli.main(["stats", str(empty), "--out", str(tmp_path)]) == cli.EXIT_STATS


def test_stats_bad_heatmap_spec_usage(tmp_path):
    sites = tmp_path / "sites.json"
    sites.write_text(json.dumps({
        "sites": [
            {"site_id": i, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
             "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9,
                                "q_r": 300.0, "k_eff_sq": 0.05}}}
            for i in range(2)
        ]
    }))
    code = cli.main(["stats", str(sites), "--out", str(tmp_path),
                     "--heatmap", "S0"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("command", ["stats", "flow-check"])
def test_json_file_that_is_not_utf8_is_usage_error(tmp_path, command):
    doc = tmp_path / "doc.json"
    doc.write_bytes(b'{"steps": [], "sites": ["\xff"]}')
    proc = run_cli(command, str(doc), "--out", str(tmp_path))
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.strip().splitlines()
    assert "is not valid JSON" in line


@pytest.mark.parametrize("pitch", ["nan", "inf", "1e400"])
def test_stats_non_finite_heatmap_pitch_is_usage_error(tmp_path, pitch):
    sites = tmp_path / "sites.json"
    sites.write_text(json.dumps({"sites": [
        {"site_id": i, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
         "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9, "q_r": 300.0, "k_eff_sq": 0.05}}}
        for i in range(2)
    ]}))
    proc = run_cli("stats", str(sites), "--out", str(tmp_path / "out"), "--quiet",
                   "--heatmap", f"S0:{pitch}")
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "error: heatmap pitch must be positive and finite"]
    assert not (tmp_path / "out").exists()  # rejected before any report is written


# -------------------------------------------------------------- flow-check


@pytest.mark.parametrize("name", ["alscn-aln-adhesion", "alscn-ti-adhesion"])
def test_flow_check_golden_passes(tmp_path, capsys, name):
    assert cli.main(["flow-check", name]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "0 error(s), 1 warning(s)" in out
    assert "AL_OXIDATION" in out


def test_flow_check_hf_mutation_exits_1(tmp_path, capsys):
    flow = list(packaged_flow("alscn-ti-adhesion"))
    idx = next(i for i, s in enumerate(flow) if s.kind == "etch_vapor")
    from dataclasses import replace

    flow[idx] = replace(flow[idx], kind="etch_wet", chemistry="49%HF/H2O 1:50")
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(steps_to_dict(flow)))
    assert cli.main(["flow-check", str(path)]) == cli.EXIT_FLOW_ERRORS
    assert "HF_ATTACKS_TI" in capsys.readouterr().out


def test_flow_check_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "flow.json"
    bad.write_text("{not json")
    assert cli.main(["flow-check", str(bad)]) == cli.EXIT_USAGE


def test_flow_check_missing_file_exits_2(tmp_path):
    assert cli.main(["flow-check", str(tmp_path / "absent.json")]) == 2


def _assert_one_line_usage_error(proc, json_path):
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert json_path in proc.stderr


def test_catalog_non_numeric_pitch_is_usage_error(tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"pitches_m": ["abc", 2e-6]}))
    proc = run_cli("design", "--catalog", str(catalog), "--out", str(tmp_path))
    _assert_one_line_usage_error(proc, "pitches_m[0]")


def test_flow_step_string_thickness_is_usage_error(tmp_path):
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"steps": [
        {"kind": "deposit", "material": "Al", "thickness_m": 1e-7},
        {"kind": "deposit", "material": "Pt", "thickness_m": "10e-9"},
    ]}))
    proc = run_cli("flow-check", str(flow), "--out", str(tmp_path))
    _assert_one_line_usage_error(proc, "steps[1].thickness_m")


@pytest.mark.parametrize("processes, json_path", [
    ({"ibe": 5}, "processes.ibe"),
    ({"ibe": {"Pt": "fast"}}, "processes.ibe.Pt"),
])
def test_rates_malformed_process_entry_is_usage_error(tmp_path, processes, json_path):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"processes": processes}))
    proc = run_cli("flow-check", "alscn-ti-adhesion", "--rates", str(rates),
                   "--out", str(tmp_path))
    _assert_one_line_usage_error(proc, json_path)


# ------------------------------------------------------- internal errors


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(processflow, "check_flow", boom)
    assert cli.main(["flow-check", "alscn-ti-adhesion"]) == cli.EXIT_INTERNAL == 70
    err = capsys.readouterr().err
    assert err == "error: internal: ZeroDivisionError: float division by zero\n"


def test_unexpected_exception_is_one_line_in_a_fresh_process():
    proc = run_python("-c", (
        "import sys\n"
        "from lambkit import cli, processflow\n"
        "def boom(*args, **kwargs):\n"
        "    raise ZeroDivisionError('float division by zero')\n"
        "processflow.check_flow = boom\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    ), "flow-check", "alscn-ti-adhesion")
    assert proc.returncode == cli.EXIT_INTERNAL
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: internal: ZeroDivisionError: float division by zero"]


# --------------------------------------------------------- import sets

# The names ``lambkit`` exported when its __init__ imported every module
# eagerly, by the module that defines them.
EXPORTS = {
    "calibration": "ErrorBox IDEAL_STANDARDS OffsetStandard OslStandards "
                   "apply_correction calibrate_file osl_solve",
    "config": "ToolkitConfig load_catalog load_config",
    "design": "CapacitanceModel IdtSpec LayerBand ResonatorDesign layer_assignment "
              "match_finger_count recommend_dose static_capacitance",
    "dispersion": "MODE_NAMES DispersionCurve PlateMaterial PlateSpec pitch_to_frequency "
                  "sensitivity solve_at_k solve_mode thin_plate_s0_velocity",
    "errors": "ConfigError InputError LambkitError",
    "gdsii": "read_gdsii write_gdsii",
    "layout": "Cell ChipPlacement Library Placement Polygon ReticleSpec "
              "build_reticle gen_chip gen_wafer_map",
    "mbvd": "AdmittanceTrace FitOptions FitResult MbvdModel ModeMetrics MotionalBranch "
            "StaticNetwork de_embed_open_short fit_mbvd mbvd_admittance resonance_metrics",
    "processflow": "GOLDEN_FLOW_NAMES FlowReport ProcessStep RateTable StackState Violation "
                   "ashing_time check_compatibility check_flow classify_chemistry "
                   "etch_budget load_flow packaged_flow simulate_stack",
    "touchstone": "TouchstoneFile parse_touchstone s11_to_y serialize_touchstone "
                  "touchstone_to_trace y_to_s11",
    "waferstats": "DeviationReport VariationModel WaferSite metrics_vs_frequency "
                  "per_mode_deviation relstd simulate_wafer sites_from_dict sites_to_dict",
}


def test_every_package_export_is_the_module_attribute():
    import lambkit

    names = [(m, n) for m, text in EXPORTS.items() for n in text.split()]
    assert len(names) == 81
    assert sorted(lambkit.__all__) == sorted(n for _, n in names)
    for module, name in names:
        ns = {}
        exec(f"from lambkit import {name}", ns)
        assert ns[name] is getattr(importlib.import_module(f"lambkit.{module}"), name)
        assert name in dir(lambkit)
    with pytest.raises(AttributeError):
        lambkit.no_such_export


def loaded_by(*argv):
    """Top-level module names loaded once main(argv) returns, in a fresh process."""
    proc = run_python("-c", (
        "import json, sys\n"
        "from lambkit import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted({m.split('.')[0] for m in sys.modules})]))\n"
    ), *argv)
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == cli.EXIT_OK, proc.stderr
    return set(modules)


def test_import_lambkit_loads_no_numpy():
    proc = run_python("-c", "import sys, lambkit; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["flow-check", "alscn-ti-adhesion"]])
def test_help_and_flow_check_load_no_numpy_scipy_or_jsonschema(argv):
    assert not loaded_by(*argv) & {"numpy", "scipy", "jsonschema"}


def test_stats_loads_no_numpy(tmp_path):
    from lambkit.waferstats import ModeMetrics, WaferSite, sites_to_dict

    sites = [WaferSite(site_id=i, x_mm=i, y_mm=0.0, pitch_m=2e-6, metrics={
        "S0": ModeMetrics(f_r=f, f_a=1.05 * f, q_r=300.0, k_eff_sq=0.05)})
        for i, f in enumerate((1.00e9, 1.01e9, 0.99e9))]
    (tmp_path / "sites.json").write_text(json.dumps(sites_to_dict(sites, seed=7)))
    modules = loaded_by("stats", str(tmp_path / "sites.json"), "--heatmap", "S0:2e-6",
                        "--out", str(tmp_path), "--quiet")
    assert not modules & {"numpy", "scipy", "jsonschema"}
    assert (tmp_path / "heatmap.csv").read_text().count("\n") == 4


def test_dispersion_and_wafer_commands_load_no_scipy(tmp_path):
    out = ["--out", str(tmp_path), "--quiet"]
    pitch = ["--pitches", "2e-6,3e-6"]
    # jsonschema and the packages it pulls in
    validator = {"jsonschema", "attrs", "attr", "referencing", "rpds", "jsonschema_specifications"}
    for argv in (["disperse", "--points", "5"], ["design", *pitch], ["layout", *pitch],
                 ["simulate-wafer", *pitch]):
        assert not loaded_by(*argv, *out) & ({"scipy"} | validator), argv
    modules = loaded_by("stats", str(tmp_path / "sites.json"), *out)
    assert not modules & {"scipy", "jsonschema"}


def test_fit_loads_no_scipy(tmp_path):
    dut, f = write_dut(tmp_path)
    cal = []
    for flag, gamma in (("--cal-short", -1), ("--cal-open", 1), ("--cal-load", 0)):
        cal += [flag, write_s1p(tmp_path / f"{flag[6:]}.s1p", f, np.full(f.size, gamma + 0j))]
    modules = loaded_by("fit", dut, *cal, "--out", str(tmp_path), "--quiet")
    assert "scipy" not in modules
    assert (tmp_path / "dut_metrics.json").exists()

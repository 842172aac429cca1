"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import runpy
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

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


def _parse_outcome(parse, argv, capsys):
    """stdout, stderr and exit code of parse(argv), which may exit as argparse does."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = cli.EXIT_USAGE if exc.code else cli.EXIT_OK
    out, err = capsys.readouterr()
    return out, err, code


PARSE_ONLY = [[name, flag] for name in cli.COMMANDS for flag in ("--help", "--bogus")] + [
    ["fit"], ["stats"], ["flow-check"], ["layout", "x", "--bogus"], ["--help"], [],
    ["frobnicate"], ["--quiet", "layout"]]


@pytest.mark.parametrize("argv", PARSE_ONLY, ids=" ".join)
def test_main_parses_as_the_full_parser_does(argv, capsys, monkeypatch):
    # main builds the full parser only here; help and errors are its own
    monkeypatch.setenv("COLUMNS", "80")
    want = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    built = []
    full_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or full_build(*a))
    assert _parse_outcome(cli.main, argv, capsys) == want
    assert built == [()]
    assert want[2] == (cli.EXIT_OK if "--help" in argv else cli.EXIT_USAGE)


TOP_LEVEL_HELP = """\
usage: lambkit [-h]
               {disperse,design,layout,fit,stats,simulate-wafer,flow-check}
               ...

Lamb-wave resonator design, layout, fitting, and statistics.

positional arguments:
  {disperse,design,layout,fit,stats,simulate-wafer,flow-check}
    disperse            solve dispersion curves
    design              impedance-matched IDT designs
    layout              chip GDSII, reticle, wafer map
    fit                 fit mBVD models to .s1p files
    stats               reduce a wafer sites JSON
    simulate-wafer      seeded variation run
    flow-check          rule-check a process flow

options:
  -h, --help            show this help message and exit
"""


def test_top_level_help_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert capsys.readouterr() == (TOP_LEVEL_HELP, "")


# Every option each subcommand offers besides -h/--help: each is one the command reads.
OPTIONS = {
    "disperse": "--config --out --quiet --pitch-min --pitch-max --points --modes",
    "design": "--config --out --quiet --pitches --catalog --mode",
    "layout": "--config --out --quiet --pitches --catalog --mode --wafer-map",
    "fit": "--out --quiet --branches --cal-short --cal-open --cal-load",
    "stats": "--out --quiet --heatmap",
    "simulate-wafer": "--config --out --quiet --pitches --catalog --seed --full-resolve",
    "flow-check": "--out --quiet --rates",
}


def test_each_subcommand_offers_only_the_options_it_reads():
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.choices]
    assert sorted(commands) == sorted(OPTIONS)
    for name, parser in commands.items():
        offered = [s for a in parser._actions for s in a.option_strings]
        assert offered == ["-h", "--help", *OPTIONS[name].split()], name


UNREAD = [
    ["stats", "sites.json", "--config", "cfg.json"],
    ["flow-check", "alscn-ti-adhesion", "--config", "cfg.json"],
    ["fit", "dut.s1p", "--config", "cfg.json"],
    ["disperse", "--seed", "7"],
    ["design", "--seed", "7"],
    ["layout", "--seed", "7"],
    ["fit", "dut.s1p", "--seed", "7"],
    ["stats", "sites.json", "--seed", "7"],
    ["flow-check", "alscn-ti-adhesion", "--seed", "7"],
    ["simulate-wafer", "--mode", "S0"],
    ["fit", "dut.s1p", "--cal-through", "through.s1p"],
    # a prefix of an option the command has is not that option
    ["disperse", "--mode", "S0"],
    ["design", "--pitch", "2e-6"],
    ["simulate-wafer", "--full"],
    ["fit", "dut.s1p", "--branch", "2"],
    ["layout", "--wafer"],
]


def _unread(argv):
    """argv from its one option on: the arguments the parser must refuse."""
    return argv[next(i for i, a in enumerate(argv) if a.startswith("--")):]


@pytest.mark.parametrize("argv", UNREAD, ids=[a[0] + _unread(a)[0] for a in UNREAD])
def test_option_a_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(_unread(argv))}\n" in capsys.readouterr().err
    assert not out.exists()


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


def run_python(*args, timeout=120, env=None):
    """Run a fresh interpreter with lambkit importable.  ``env`` sets
    variables on top of this process's environment; a None value unsets one."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    full = dict(os.environ, PYTHONPATH=src)
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=full, timeout=timeout,
    )


def run_cli(*argv, timeout=120, env=None):
    """Run the CLI in a fresh process, so a traceback would show on stderr."""
    return run_python("-m", "lambkit.cli", *argv, timeout=timeout, env=env)


def test_disperse_huge_points_is_usage_error(tmp_path):
    # rejected before the grid is allocated: a MemoryError would show
    proc = run_cli("disperse", "--out", str(tmp_path), "--points", "100000000000")
    assert proc.returncode == cli.EXIT_USAGE
    assert "--points" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "dispersion.csv").exists()


@pytest.mark.parametrize("argv, message", [
    # pi/pitch of the two ends 1 ulp apart: 5 points cannot all differ
    (["--pitch-min", "1e-6", "--pitch-max", "1.0000000000000004e-6", "--points", "5"],
     "error: k grid must be positive, finite and strictly increasing"),
    (["--pitch-min", "1e-320"],  # pi/1e-320 overflows
     "error: pitch range [9.99989e-321, 4.5e-06] gives a zero or non-finite wavenumber"),
])
def test_disperse_grid_without_distinct_finite_wavenumbers_is_usage_error(tmp_path, argv,
                                                                          message):
    proc = run_cli("disperse", *argv, "--out", str(tmp_path))
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr.splitlines() == [message]
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "dispersion.csv").exists()


@pytest.mark.parametrize("pitch_min, pitch_max, points", [
    (1e-6, 4.5e-6, 40), (4.75e-7, 4.5e-6, 40), (3.3e-7, 7.7e-6, 2), (1e-6, 1.1e-6, 997)])
def test_disperse_grid_is_np_linspace_bit_for_bit(tmp_path, monkeypatch, pitch_min,
                                                  pitch_max, points):
    grids = []

    def record(plate, mode, ks):
        grids.append(ks)
        return ks, [1e9] * len(ks), []

    monkeypatch.setattr(dispersion, "solve_grid", record)
    assert cli.main(["disperse", "--pitch-min", repr(pitch_min), "--pitch-max", repr(pitch_max),
                     "--points", str(points), "--modes", "S0", "--out", str(tmp_path),
                     "--quiet"]) == cli.EXIT_OK
    assert grids == [np.linspace(math.pi / pitch_max, math.pi / pitch_min, points).tolist()]


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
    def boom(plate, mode, ks):
        raise SolverError("no bracketed root in the scan window")

    monkeypatch.setattr(dispersion, "solve_grid", boom)
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


# pitch 1e-300 puts k*h near 1e294, where the scan's residual overflows
OVERFLOWING_SCANS = [
    (["disperse", "--pitch-min", "1e-300", "--pitch-max", "2e-300", "--points", "2", "--quiet"],
     "error: mode A0: no roots in the requested wavenumber range"),
    (["simulate-wafer", "--pitches", "1e-300", "--quiet"],
     "error: no reliable A0 root near k*h = 1.25664e+294"),
]


@pytest.mark.parametrize("argv, message", OVERFLOWING_SCANS)
def test_overflowing_scan_exits_3_with_one_line(tmp_path, capsys, argv, message):
    # in process under the warnings-as-errors filter, where a RuntimeWarning
    # would be an internal error (exit 70)
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_SOLVER
    assert capsys.readouterr().err == message + "\n"
    # a fresh process, with stdout buffered as run() leaves it (see BUFFERED)
    proc = run_cli(*argv, "--out", str(tmp_path), env={"PYTHONUNBUFFERED": None})
    assert (proc.returncode, proc.stderr, proc.stdout) == (cli.EXIT_SOLVER, message + "\n", "")


@pytest.mark.parametrize("argv, code", [
    (["simulate-wafer", "--full-resolve", "--pitches", "1e-12"], cli.EXIT_OK),
    (["disperse", "--pitch-min", "1e-12", "--pitch-max", "2e-12", "--points", "3"], cli.EXIT_OK),
    (["simulate-wafer", "--pitches", "1e-300"], cli.EXIT_SOLVER),
    (["simulate-wafer", "--pitches", "1e300"], cli.EXIT_SOLVER),
])
def test_exit_codes_outside_the_lattice_walk(tmp_path, capsys, argv, code):
    # k*h far outside the walk's 0.03-20: the scan solves these nodes and points
    assert cli.main([*argv, "--out", str(tmp_path)]) == code
    if argv[0] == "disperse":
        assert [line for line in capsys.readouterr().out.splitlines() if "solved" in line] \
            == [f"{mode}: 3 of 3 points solved" for mode in cli.MODE_NAMES]


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


@pytest.mark.parametrize("text, message", [
    ("[1]", "config root must be a JSON object"),
    ('{"wafer": {"diameter_m": 0.01, "edge_exclusion_m": 0.005}}',
     "edge exclusion consumes the whole wafer"),
])
def test_config_fault_the_schema_does_not_name_is_usage_error(tmp_path, capsys, text, message):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(text)
    assert cli.main(["layout", "--wafer-map", "--config", str(cfg), "--pitches", "2e-6",
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


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
                       "outline": 5}}
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


@pytest.mark.parametrize("command", ["design", "layout"])
@pytest.mark.parametrize("source", ["--pitches", "--catalog"])
def test_pitches_sharing_a_design_id_is_usage_error(tmp_path, capsys, command, source):
    # both round to 2000 nm: two designs, and two chip cells, would share one name
    pitches = [2e-6, 2.0000001e-6]
    if source == "--catalog":
        (tmp_path / "catalog.json").write_text(json.dumps({"pitches_m": pitches}))
        value = str(tmp_path / "catalog.json")
    else:
        value = ",".join(map(repr, pitches))
    out = tmp_path / "out"
    assert cli.main([command, source, value, "--quiet", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: pitches 2e-06 and 2.0000001e-06 share design id 'S0_p2000nm'\n")
    assert not out.exists()


def test_design_gap_pitch_exit_4(tmp_path, capsys):
    code = cli.main(["design", "--out", str(tmp_path), "--pitches", "1.2e-6"])
    assert code == cli.EXIT_DESIGN
    assert "unassigned interval" in capsys.readouterr().err


@pytest.mark.parametrize("pitch, why", [
    ("4.5000004e-6", "outside the catalog range [500 nm, 4500 nm]"),
    ("1.0000004e-6", "falls in the unassigned interval (1000 nm, 1500 nm) between the "
                     "exposure bands"),
    ("1e300", "outside the catalog range [500 nm, 4500 nm]"),
])
def test_layer_assignment_names_the_pitch_as_given(tmp_path, capsys, pitch, why):
    # rounded to whole nm, these read "4500 nm outside [500 nm, 4500 nm]",
    # "1000 nm falls in (1000 nm, 1500 nm)" and "inf nm"
    code = cli.main(["design", "--out", str(tmp_path), "--pitches", pitch, "--quiet"])
    assert code == cli.EXIT_DESIGN
    assert capsys.readouterr().err == f"error: pitch {float(pitch)!r} m {why}\n"


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


@pytest.mark.parametrize("doc, code, message", [
    # refused by build_reticle, after the chip is built
    ({"chip": {"height_m": 0.005}}, cli.EXIT_DESIGN,
     "5 chip windows (17 x 29 mm) exceed the image field (22 x 22 mm)"),
    # the 4x reduction is layout.DEMAG: a config that still names it is refused
    ({"reticle": {"demag": 4}}, cli.EXIT_USAGE,
     "config invalid at reticle: Additional properties are not allowed ('demag' was unexpected)"),
    ({"reticle": {"image_field_m": [0.03, 0.02]}}, cli.EXIT_USAGE,
     "config invalid at reticle/image_field_m/0: 0.03 is greater than the maximum of 0.022"),
])
def test_a_failed_layout_writes_no_file(tmp_path, capsys, doc, code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["layout", "--config", str(cfg), "--pitches", "2e-6", "--wafer-map",
                     "--out", str(out)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


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
        assert cli._overlay_csv(f, *y) == "".join(line + "\n" for line in want)
        # the doubles agree too, not only their 10-digit renderings
        assert np.hypot(y[0].real, y[0].imag).tolist() == [abs(v) for v in y[0]]


def scalar_rows(v):
    return "".join("%.9e,%.9e,%.9e\n" % tuple(row) for row in np.reshape(v, (-1, 3)).tolist())


def e9_cases():
    """Seeded values around every rounding decision of "%.9e": log-uniform
    values, decimal half-way points and powers of ten with their neighbouring
    doubles, and the values that carry into the next exponent."""
    rng = np.random.default_rng(17)
    logu = 10.0 ** rng.uniform(-20, 40, 3000)
    digits = rng.integers(10 ** 9, 10 ** 10, 300)
    exps = rng.integers(-20, 40, 300)
    halves = np.array([float(f"{n}5e{k - 10}") for n, k in zip(digits.tolist(), exps.tolist())])
    powers = np.array([float(f"1e{k}") for k in range(-20, 41)])
    carries = np.array([float(f"{m}e{k}") for k in range(-20, 40)
                        for m in ("9.9999999995", "9.99999999949", "9.9999999996")])
    ulps = np.arange(-3, 4)
    nudged = (halves.view(np.int64)[:, None] + ulps).view(np.float64)
    around = (powers.view(np.int64)[:, None] + ulps[2:5]).view(np.float64)
    return np.concatenate([logu, nudged.ravel(), around.ravel(), carries])


def test_e9_rows_match_percent_format():
    values = e9_cases()
    values = values[: values.size // 3 * 3]
    # outside [1e-13, 1e31) a value takes the per-cell "%" slot
    assert np.any(values < 1e-13) and np.any(values >= 1e31)
    for block in np.array_split(values.reshape(-1, 3), 40):
        assert cli._e9_rows(block) == scalar_rows(block)
    # exact half-way digits take the slot too; both ways round half to even
    ties = np.array([[1000000000.5, 1000000001.5, 2.5e-3]])
    assert cli._e9_rows(ties) == scalar_rows(ties)


@pytest.mark.parametrize("special", [0.0, -1.5, math.inf, math.nan, 1e150, 1e-150, 9.99999999996e99])
def test_e9_rows_special_values(special):
    block = np.array([[special, 2.5e-3, special], [1.5e9, special, 7e-4]])
    got = cli._e9_rows(block)
    if len("%.9e" % special) == 15:  # 0.0 renders in its slot
        assert got == scalar_rows(block)
    else:  # the whole text falls back to "%"
        assert got is None
    text = cli._overlay_csv(block[:, 0], block[:, 1] + 0j, block[:, 2] + 0j)
    assert text.endswith(scalar_rows(np.column_stack([block[:, 0], abs(block[:, 1:])])))


def test_fit_overlay_renders_half_way_frequencies_exactly(tmp_path):
    from lambkit.mbvd import fit_mbvd
    from lambkit.touchstone import parse_touchstone, touchstone_to_trace

    # 1000000000.5 Hz and up: ten digits and a half, exact ties
    f = np.concatenate([np.linspace(0.8e9, 0.999e9, 160), 1000000000.5 + 1250001.0 * np.arange(240)])
    tf = TouchstoneFile(frequencies=f, s11=y_to_s11(synth_model().admittance(f)),
                        frequency_unit="Hz")
    dut = tmp_path / "dut.s1p"
    dut.write_text(serialize_touchstone(tf))
    assert cli.main(["fit", str(dut), "--branches", "1", "--out", str(tmp_path), "--quiet"]) == 0
    trace = touchstone_to_trace(parse_touchstone(dut.read_bytes()))
    assert trace.frequencies.tolist() == f.tolist()
    y_model = fit_mbvd(trace, 1).model.admittance(f)
    want = "f_hz,y_abs_measured,y_abs_model\n" + "".join(
        f"{fi:.9e},{abs(a):.9e},{abs(b):.9e}\n" for fi, a, b in zip(f, trace.admittance, y_model))
    assert (tmp_path / "dut_overlay.csv").read_text() == want
    # both render half to even
    assert "\n1.000000000e+09," in want and "\n1.001250002e+09," in want


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


@pytest.mark.parametrize("branches", ["0", "1"])
def test_fit_of_degenerate_trace_prints_only_its_failure(tmp_path, branches):
    # an all-open DUT has Y = 0 everywhere; a sub-normal Hz grid overflows 1/w
    f = np.linspace(0.8e9, 1.3e9, 400)
    open_dut = write_s1p(tmp_path / "open.s1p", f, np.ones(f.size, dtype=complex))
    tiny = tmp_path / "tiny.s1p"
    tiny.write_text("# Hz S RI R 50\n1e-320 0.5 0.1\n2e-320 0.4 0.2\n3e-320 0.3 0.1\n")
    tiny_why = {"0": "iteration cap reached after 1 evaluations",
                "1": "found 0 admittance peak(s) but 1 branch(es) requested"}[branches]
    for path, why in ((open_dut, "zero-magnitude admittance sample cannot be weighted"),
                      (str(tiny), tiny_why)):
        proc = run_cli("fit", path, "--branches", branches, "--quiet", "--out", str(tmp_path))
        assert proc.returncode == cli.EXIT_ALL_FITS_FAILED
        assert proc.stderr == f"failed {os.path.basename(path)}: {why}\n"


def test_fit_all_files_failing_exits_5(tmp_path):
    a = tmp_path / "a.s1p"
    b = tmp_path / "b.s1p"
    a.write_text("garbage\n")
    # non-monotone frequency column is a listed per-file failure
    b.write_text("# GHz S MA R 50\n1.0 0.5 0\n0.9 0.5 0\n")
    code = cli.main(["fit", str(a), str(b), "--out", str(tmp_path)])
    assert code == cli.EXIT_ALL_FITS_FAILED


def test_fit_identity_calibration_matches_raw(tmp_path):
    dut, f = write_dut(tmp_path)
    short = write_s1p(tmp_path / "short.s1p", f, np.full(f.size, -1 + 0j))
    open_std = write_s1p(tmp_path / "open.s1p", f, np.full(f.size, 1 + 0j))
    load = write_s1p(tmp_path / "load.s1p", f, np.zeros(f.size, dtype=complex))

    raw_dir = tmp_path / "raw"
    cal_dir = tmp_path / "cal"
    assert cli.main(["fit", dut, "--out", str(raw_dir)]) == 0
    code = cli.main(
        ["fit", dut, "--out", str(cal_dir),
         "--cal-short", short, "--cal-open", open_std, "--cal-load", load]
    )
    assert code == 0
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
    bad.write_bytes(b"! \xff\n" + Path(cal[flag]).read_bytes())
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


def test_fit_inputs_sharing_an_output_stem_are_a_usage_error(tmp_path, capsys):
    dut, _ = write_dut(tmp_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        shutil.copy(dut, tmp_path / sub / "dut.s1p")
    out = tmp_path / "out"
    code = cli.main(["fit", str(tmp_path / "a" / "dut.s1p"), str(tmp_path / "b" / "dut.s1p"),
                     "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "output stem 'dut'" in capsys.readouterr().err
    assert not out.exists()  # refused before any file is fitted


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
    text = (tmp_path / "sites.json").read_text()
    doc = json.loads(text)
    assert doc["seed"] == 77
    assert len(doc["sites"]) == 83
    lines = text.splitlines()  # one site per line
    assert (lines[0], lines[-1], text[-1]) == ('{"sites": [', '], "seed": 77}', "\n")
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == doc["sites"]
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


@pytest.mark.parametrize("drop, code, stderr", [
    (-1e-8, cli.EXIT_OK, ""),  # a negative drop thickens the edge
    (4.2e-7, cli.EXIT_USAGE, "error: thickness profile goes non-positive at the wafer edge\n"),
])
def test_simulate_wafer_edge_drop_rule(tmp_path, drop, code, stderr):
    # the config and the variation model apply the one rule center - drop > 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variation": {"thickness_edge_drop_m": drop}}))
    out = tmp_path / "out"
    proc = run_cli("simulate-wafer", "--config", str(cfg), "--pitches", "2e-6", "--quiet",
                   "--out", str(out))
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert (out / "sites.json").exists() == (code == cli.EXIT_OK)


def test_negative_seed_is_usage_error(tmp_path):
    # the config schema's seed >= 0 rule holds for the --seed override too
    proc = run_cli("simulate-wafer", "--seed", "-1", "--pitches", "2e-6", "--out", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_USAGE, "error: seed must be >= 0, got -1\n")
    assert not (tmp_path / "sites.json").exists()


def test_a_chip_too_small_for_a_wafer_grid_exits_4(tmp_path):
    # 1 um chips would make gen_wafer_map scan about 1e10 grid positions
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chip": {"width_m": 1e-6, "height_m": 1e-6, "margin_m": 0,
                                        "spacing_m": 0}}))
    out = tmp_path / "out"
    proc = run_cli("simulate-wafer", "--config", str(cfg), "--pitches", "2e-6", "--out", str(out),
                   timeout=30)
    assert (proc.returncode, proc.stderr) == (
        cli.EXIT_DESIGN,
        "error: a 1e-06 x 1e-06 m chip on a 0.1 m wafer needs more than 1000000 grid positions\n")
    assert not out.exists()


def test_simulate_wafer_without_dies_writes_no_sites(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wafer": {"diameter_m": 0.015, "edge_exclusion_m": 0.001}}))
    out = tmp_path / "out"
    assert cli.main(["simulate-wafer", "--config", str(cfg), "--seed", "7", "--quiet",
                     "--out", str(out)]) == cli.EXIT_DESIGN
    assert capsys.readouterr().err == (
        "error: no chip fits the usable wafer diameter of 0.013 m (edge exclusion 0.001 m)\n")
    assert not out.exists()
    # layout keeps an empty placement map as a valid result
    assert cli.main(["layout", "--config", str(cfg), "--pitches", "2e-6", "--quiet",
                     "--out", str(out)]) == cli.EXIT_OK


@pytest.mark.parametrize("argv, catalog, stderr", [
    (["simulate-wafer", "--pitches", "2e-6,3e-6,2.0e-6"], None, "error: pitch 2e-06 is given twice\n"),
    (["simulate-wafer"], [2e-6, 2e-6], "error: catalog pitches_m must be strictly ascending, "
                                       "but pitches_m[1] = 2e-06 follows 2e-06\n"),
    (["disperse", "--modes", "S0,A0,S0"], None, "error: mode S0 is given twice\n"),
])
def test_repeated_pitch_or_mode_is_usage_error(tmp_path, argv, catalog, stderr):
    # a repeated pitch would count each die twice in the deviation statistics
    if catalog is not None:
        (tmp_path / "catalog.json").write_text(json.dumps({"pitches_m": catalog}))
        argv = [*argv, "--catalog", str(tmp_path / "catalog.json")]
    out = tmp_path / "out"
    proc = run_cli(*argv, "--out", str(out))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_USAGE, stderr)
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "layout", "simulate-wafer"])
def test_pitches_with_catalog_is_usage_error(tmp_path, monkeypatch, capsys, command):
    # the catalog would be ignored, so naming one that does not exist must fail too
    argv = [command, "--pitches", "2e-6", "--catalog", str(tmp_path / "nonexistent.json")]
    stderr = "error: give --pitches or --catalog, not both\n"
    out = tmp_path / "out"
    proc = run_cli(*argv, "--out", str(out))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_USAGE, stderr)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)  # argparse reads the same argv
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == stderr
    assert not out.exists()


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


def test_stats_reads_the_indented_sites_layout_to_identical_reports(tmp_path):
    # sites.json files written one value per line (json.dump indent=1) stay readable
    sim = tmp_path / "sim"
    assert cli.main(["simulate-wafer", "--pitches", "2e-6,4.5e-6", "--seed", "424242",
                     "--quiet", "--out", str(sim)]) == cli.EXIT_OK
    indented = tmp_path / "indented.json"
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump(json.loads((sim / "sites.json").read_text()), fh, indent=1)
        fh.write("\n")
    for name, path in (("lines", sim / "sites.json"), ("indented", indented)):
        assert cli.main(["stats", str(path), "--heatmap", "S0:2e-6", "--quiet",
                         "--out", str(tmp_path / name)]) == cli.EXIT_OK
    for report in ("deviation.csv", "trend.csv", "heatmap.csv"):
        assert (tmp_path / "lines" / report).read_bytes() \
            == (tmp_path / "indented" / report).read_bytes()


def test_json_outputs_are_the_indented_encoder_bytes(tmp_path):
    # one write of json.dumps(indent=1) gives the bytes json.dump(indent=1) streams
    def dumped(doc):
        buf = io.StringIO()
        json.dump(doc, buf, indent=1)
        return buf.getvalue() + "\n"

    dut, _ = write_dut(tmp_path)
    assert cli.main(["fit", dut, "--branches", "1", "--quiet", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "dut_metrics.json").read_text(encoding="utf-8")
    assert text == dumped(json.loads(text))
    doc = {"q_r": math.inf, "rows": [[1, 2.5e-9], []], "name": "\u00b5m", "none": None, "empty": {}}
    cli._write_files(str(tmp_path), {"doc.json": cli._json_text(doc)})
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == dumped(doc)


def test_stats_refuses_a_site_given_twice(tmp_path):
    # a repeated (site_id, pitch_m) pair would count that site twice in every statistic
    sim = tmp_path / "sim"
    assert cli.main(["simulate-wafer", "--pitches", "2e-6", "--seed", "7", "--quiet",
                     "--out", str(sim)]) == cli.EXIT_OK
    doc = json.loads((sim / "sites.json").read_text())
    assert len(doc["sites"]) == 83
    doc["sites"] += doc["sites"][:5]
    (tmp_path / "sites.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("stats", str(tmp_path / "sites.json"), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (
        cli.EXIT_USAGE, "error: sites[83] repeats the site_id 0 and pitch_m 2e-06 of sites[0]\n")
    assert not out.exists()


_TWO_SITES = {"seed": 7, "sites": [
    {"site_id": i, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
     "metrics": {"S0": {"f_r_hz": 1e9 + i, "f_a_hz": 1.1e9, "q_r": 300.0, "k_eff_sq": 0.05}}}
    for i in (0, 1)]}


def test_stats_refuses_a_failed_mode_listed_twice(tmp_path, capsys):
    # it warned "0 usable site(s), 2 excluded" for one site's one failure and exited 0
    doc = json.loads(json.dumps(_TWO_SITES))
    doc["sites"][0]["failed_modes"] = ["A0", "A0"]
    (tmp_path / "sites.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["stats", str(tmp_path / "sites.json"), "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: failed_modes repeats the mode 'A0'\n"
    assert not out.exists()


@pytest.mark.parametrize("text, shown", [
    ("[1, 2]", "[1, 2]"), ("true", "True"), ("-3", "-3"), ("1e400", "inf"), ("7.5", "7.5"),
    ('"7"', "'7'"), ("null", "None"), ("NaN", "nan"),
])
def test_stats_refuses_a_seed_the_config_would_refuse(tmp_path, capsys, text, shown):
    # it echoed "seed [1, 2]" and exited 0
    sites = tmp_path / "sites.json"
    sites.write_text(json.dumps({**_TWO_SITES, "seed": "@"}).replace('"@"', text))
    out = tmp_path / "out"
    assert cli.main(["stats", str(sites), "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: seed must be an integer >= 0, got {shown}\n")
    assert not out.exists()


def test_stats_echoes_an_accepted_seed_as_an_integer(tmp_path, capsys):
    def run(doc, name):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / name
        assert cli.main(["stats", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        return stdout, stderr, {p.name: p.read_bytes() for p in out.iterdir()}

    bare = {"sites": _TWO_SITES["sites"]}
    want_out, want_err, want_files = run(bare, "bare")
    assert not want_out.startswith("seed")
    for seed, echo in ((0, "0"), (7, "7"), (7.0, "7")):
        assert run({**bare, "seed": seed}, f"seed{seed!r}") == (
            f"seed {echo}\n" + want_out, want_err, want_files)


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


def test_stats_heatmap_of_no_site_writes_and_prints_nothing(tmp_path, capsys):
    sites = tmp_path / "sites.json"
    sites.write_text(json.dumps({"sites": [
        {"site_id": i, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": 2e-6,
         "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9, "q_r": 300.0, "k_eff_sq": 0.05}}}
        for i in range(2)
    ]}))
    out = tmp_path / "out"
    assert cli.main(["stats", str(sites), "--heatmap", "S0:9e-6", "--out", str(out)]) \
        == cli.EXIT_STATS
    assert capsys.readouterr() == ("", "error: no sites carry mode S0 at pitch 9e-06 m\n")
    assert not out.exists()  # no deviation.csv or trend.csv either


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


@pytest.mark.parametrize("argv, what", [
    (["design", "--config", "{doc}", "--pitches", "2e-6"], "config"),
    (["design", "--catalog", "{doc}"], "catalog"),
    (["stats", "{doc}"], "sites"),
    (["flow-check", "{doc}"], "flow"),
    (["flow-check", "alscn-aln-adhesion", "--rates", "{doc}"], "rates"),
])
def test_json_nested_past_the_decoder_is_usage_error(tmp_path, capsys, argv, what):
    # json.load raises RecursionError, not a ValueError, when arrays or
    # objects nest deeper than the interpreter's recursion limit
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    for text in ("[" * 995 + "]" * 995, '{"a": ' * 200_000 + "1" + "}" * 200_000):
        doc.write_text(text)
        code = cli.main([a.format(doc=doc) for a in argv] + ["--out", str(out)])
        assert (code, capsys.readouterr()) == (
            cli.EXIT_USAGE, ("", f"error: {what} file is not valid JSON: nested too deeply\n"))
        assert not out.exists()


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
    assert cli.main(["flow-check", name, "--out", str(tmp_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "0 error(s), 1 warning(s)" in out
    assert "AL_OXIDATION" in out


def test_flow_check_hf_mutation_exits_1(tmp_path, capsys):
    flow = list(packaged_flow("alscn-ti-adhesion"))
    idx = next(i for i, s in enumerate(flow) if s.kind == "etch_vapor")
    from lambkit.record import replace

    flow[idx] = replace(flow[idx], kind="etch_wet", chemistry="49%HF/H2O 1:50")
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(steps_to_dict(flow)))
    assert cli.main(["flow-check", str(path), "--out", str(tmp_path)]) == cli.EXIT_FLOW_ERRORS
    assert "HF_ATTACKS_TI" in capsys.readouterr().out


def test_flow_check_writes_its_report_also_on_rule_errors(tmp_path):
    from lambkit.processflow import check_flow
    from lambkit.record import replace

    out = tmp_path / "nodir"
    assert cli.main(["flow-check", "alscn-ti-adhesion", "--out", str(out), "--quiet"]) \
        == cli.EXIT_OK
    report = json.loads((out / "flow_report.json").read_text(encoding="utf-8"))
    assert report == check_flow(packaged_flow("alscn-ti-adhesion")).to_dict()
    assert report["error_count"] == 0
    # a developable BARC under the resist lets the developer reach the Al
    flow = [replace(s, material="DS-K101") if s.material == "DUV42-P" else s
            for s in packaged_flow("alscn-aln-adhesion")]
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(steps_to_dict(flow)))
    out = tmp_path / "errors"
    assert cli.main(["flow-check", str(path), "--out", str(out), "--quiet"]) \
        == cli.EXIT_FLOW_ERRORS
    report = json.loads((out / "flow_report.json").read_text(encoding="utf-8"))
    assert report == check_flow(flow).to_dict()
    assert "DEVELOPER_ATTACKS_AL" in {v["code"] for v in report["violations"]}


def test_flow_check_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "flow.json"
    bad.write_text("{not json")
    assert cli.main(["flow-check", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert not (tmp_path / "out").exists()


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


def test_rates_ashing_keys_for_one_temperature_is_usage_error(tmp_path):
    # "120", "120.0" and "1.2e2" read as one temperature: the last would win silently
    rates = tmp_path / "rates.json"
    rates.write_text('{"ashing_nm_min": {"120": 100, "120.0": 400, "1.2e2": 50}}')
    proc = run_cli("flow-check", "alscn-ti-adhesion", "--rates", str(rates),
                   "--out", str(tmp_path / "out"))
    _assert_one_line_usage_error(proc, "ashing_nm_min keys '120' and '120.0' name the same "
                                       "temperature 120 degC")
    assert not (tmp_path / "out").exists()


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
    "calibration": "ErrorBox apply_correction calibrate_file osl_solve",
    "config": "ToolkitConfig load_catalog load_config",
    "design": "IdtSpec LayerBand ResonatorDesign layer_assignment "
              "match_finger_count recommend_dose static_capacitance",
    "dispersion": "MODE_NAMES DispersionCurve PlateMaterial PlateSpec pitch_to_frequency "
                  "sensitivity solve_at_k solve_mode thin_plate_s0_velocity",
    "errors": "ConfigError InputError LambkitError",
    "gdsii": "read_gdsii write_gdsii",
    "layout": "Cell ChipPlacement Library Placement Polygon "
              "build_reticle gen_chip gen_wafer_map",
    "mbvd": "AdmittanceTrace FitResult MbvdModel ModeMetrics MotionalBranch "
            "StaticNetwork fit_mbvd mbvd_admittance resonance_metrics",
    "processflow": "GOLDEN_FLOW_NAMES FlowReport ProcessStep RateTable StackState Violation "
                   "ashing_time check_flow classify_chemistry "
                   "etch_budget load_flow packaged_flow simulate_stack",
    "touchstone": "TouchstoneFile parse_touchstone s11_to_y serialize_touchstone "
                  "touchstone_to_trace y_to_s11",
    "waferstats": "DeviationReport WaferSite metrics_vs_frequency "
                  "per_mode_deviation relstd simulate_wafer sites_from_dict sites_to_dict",
}


def test_every_package_export_is_the_module_attribute():
    import lambkit

    names = [(m, n) for m, text in EXPORTS.items() for n in text.split()]
    assert len(names) == 72
    assert sorted(lambkit.__all__) == sorted(n for _, n in names)
    for module, name in names:
        ns = {}
        exec(f"from lambkit import {name}", ns)
        assert ns[name] is getattr(importlib.import_module(f"lambkit.{module}"), name)
        assert name in dir(lambkit)
    with pytest.raises(AttributeError):
        lambkit.no_such_export


def test_every_module_all_name_is_a_module_attribute():
    # a name left in __all__ after its definition went would break `import *`
    import lambkit

    modules = sorted(m.name for m in pkgutil.iter_modules(lambkit.__path__))
    assert "layout" in modules and "gdsii" in modules
    for name in modules:
        module = importlib.import_module(f"lambkit.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"lambkit.{name}.{attr}"


def test_every_traced_name_is_a_module_attribute():
    # perfbench/tracer.py rebinds these by name: a rename would leave --trace 1
    # timing nothing without failing
    tracer = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    ns = runpy.run_path(tracer)
    names = [(m, n) for m, fns in ns["TIMED"].items() for n in fns]
    names += [(m, n) for m, fns in ns["COUNTED"].items() for n in fns]
    assert names
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"lambkit.{module}"), name, None)), \
            f"lambkit.{module}.{name}"


def loaded_by(*argv, code=cli.EXIT_OK):
    """Names of the modules, dotted and top-level, loaded once main(argv)
    returns code, in a fresh process."""
    proc = run_python("-c", (
        "import json, sys\n"
        "from lambkit import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    ), *argv)
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == code, proc.stderr
    return set(modules) | {m.split(".")[0] for m in modules}


def test_import_lambkit_loads_no_numpy():
    proc = run_python("-c", "import sys, lambkit; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["flow-check", "alscn-ti-adhesion"]])
def test_help_and_flow_check_load_no_numpy_scipy_or_jsonschema(argv, tmp_path):
    out = [] if argv == ["--help"] else ["--out", str(tmp_path)]
    assert not loaded_by(*argv, *out) & {"numpy", "scipy", "jsonschema"}


def write_sites(tmp_path):
    """A sites.json of three S0 dies at one pitch; returns its path."""
    from lambkit.waferstats import ModeMetrics, WaferSite, sites_to_dict

    sites = [WaferSite(site_id=i, x_mm=i, y_mm=0.0, pitch_m=2e-6, metrics={
        "S0": ModeMetrics(f_r=f, f_a=1.05 * f, q_r=300.0, k_eff_sq=0.05)})
        for i, f in enumerate((1.00e9, 1.01e9, 0.99e9))]
    (tmp_path / "sites.json").write_text(json.dumps(sites_to_dict(sites, seed=7)))
    return str(tmp_path / "sites.json")


def test_stats_loads_no_numpy(tmp_path):
    modules = loaded_by("stats", write_sites(tmp_path), "--heatmap", "S0:2e-6",
                        "--out", str(tmp_path), "--quiet")
    assert not modules & {"numpy", "scipy", "jsonschema"}
    assert (tmp_path / "heatmap.csv").read_text().count("\n") == 4


PACKAGED_MATERIAL_COMMANDS = [
    ["design", "--pitches", "2e-6"], ["layout", "--wafer-map"],
    ["simulate-wafer", "--seed", "7"], ["simulate-wafer", "--full-resolve", "--pitches", "2e-6"],
    ["disperse"], ["disperse", "--pitch-min", "4.75e-7", "--pitch-max", "4.5e-6"],
]


@pytest.mark.parametrize("argv", PACKAGED_MATERIAL_COMMANDS)
def test_commands_on_the_packaged_material_load_no_numpy(tmp_path, argv):
    # the packaged lattice table holds every node the packaged config needs,
    # disperse polishes the roots it brackets, and lambkit.rng draws numpy's
    # wafer streams without numpy
    modules = loaded_by(*argv, "--out", str(tmp_path), "--quiet")
    assert not modules & {"numpy", "scipy", "jsonschema"}


@pytest.mark.parametrize("material", [{"v_t_m_s": 3267.0},
                                      {"v_l_m_s": 11000.0, "v_t_m_s": 6000.0}],
                         ids=["3267", "11000-6000"])
@pytest.mark.parametrize("argv", PACKAGED_MATERIAL_COMMANDS)
def test_commands_on_other_materials_load_no_numpy(tmp_path, argv, material):
    # another material walks its lattice nodes from the k*h -> 0 limits
    (tmp_path / "cfg.json").write_text(json.dumps({"material": material}))
    modules = loaded_by(*argv, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path),
                        "--quiet")
    assert not modules & {"numpy", "scipy", "jsonschema"}


@pytest.mark.parametrize("argv", [["--help"], *PACKAGED_MATERIAL_COMMANDS, ["stats"],
                                  ["flow-check", "alscn-ti-adhesion"], ["fit"]])
def test_commands_load_no_dataclasses_or_inspect(tmp_path, argv):
    # lambkit.record declares the records: dataclasses (with inspect, ast and
    # tokenize) would cost each command about 14 ms to import and 15 ms more
    # to compile its classes
    if argv[0] == "stats":
        argv = ["stats", write_sites(tmp_path)]
    elif argv[0] == "fit":
        argv = ["fit", write_dut(tmp_path)[0], "--branches", "1"]
    out = [] if argv == ["--help"] else ["--out", str(tmp_path), "--quiet"]
    # numpy imports inspect itself, so fit is held to dataclasses alone
    banned = {"dataclasses"} if argv[0] == "fit" else {"dataclasses", "inspect"}
    assert not loaded_by(*argv, *out) & banned


# plain command lines: the commands above and each argv form the benchmark
# runs, with stand-ins for the files they read
PLAIN_ARGV = [*PACKAGED_MATERIAL_COMMANDS, ["stats", "SITES"], ["flow-check", "alscn-ti-adhesion"],
              ["fit", "DUT"], ["design", "--catalog", "CATALOG"],
              ["layout", "--catalog", "CATALOG", "--wafer-map"],
              ["stats", "SITES", "--heatmap", "S0:2e-06"],
              ["fit", "DUT", "DUT2", "--branches", "1", "--cal-short", "SHORT",
               "--cal-open", "OPEN", "--cal-load", "LOAD"]]


def write_inputs(tmp_path):
    """Stand-in name -> the path of a file written for it."""
    dut, f = write_dut(tmp_path)
    shutil.copy(dut, tmp_path / "dut2.s1p")
    (tmp_path / "catalog.json").write_text(json.dumps({"pitches_m": [1e-6, 2e-6]}))
    paths = {"SITES": write_sites(tmp_path), "DUT": dut, "DUT2": str(tmp_path / "dut2.s1p"),
             "CATALOG": str(tmp_path / "catalog.json")}
    for name, gamma in (("SHORT", -1), ("OPEN", 1), ("LOAD", 0)):
        paths[name] = write_s1p(tmp_path / f"{name}.s1p", f, np.full(f.size, gamma + 0j))
    return paths


@pytest.mark.parametrize("argv", PLAIN_ARGV, ids=" ".join)
def test_plain_argv_loads_no_argparse(tmp_path, argv):
    # argparse brings gettext, and its first translation lookup locale: about
    # 4-5 ms of each command that only help and usage errors need
    inputs = write_inputs(tmp_path)
    argv = [inputs.get(a, a) for a in argv]
    modules = loaded_by(*argv, "--out", str(tmp_path / "out"), "--quiet")
    assert not modules & {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, code", [(["--help"], cli.EXIT_OK),
                                        (["disperse", "--bogus"], cli.EXIT_USAGE)])
def test_help_and_usage_errors_load_argparse(argv, code):
    assert "argparse" in loaded_by(*argv, code=code)


def test_main_reads_a_plain_argv_without_a_parser(tmp_path, monkeypatch):
    argv = ["flow-check", "alscn-ti-adhesion", "--out", str(tmp_path), "--quiet"]
    help_text, func, rows = cli.COMMANDS["flow-check"]
    given = []
    monkeypatch.setitem(cli.COMMANDS, "flow-check",
                        (help_text, lambda args: given.append(args) or func(args), rows))
    want = vars(cli.build_parser().parse_args(argv))
    built = []
    full_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or full_build(*a))
    assert cli.main(argv) == cli.EXIT_OK
    assert built == []
    assert [vars(args) for args in given] == [want]
    assert (tmp_path / "flow_report.json").is_file()


def test_import_config_loads_no_numpy():
    proc = run_python("-c", "import sys, lambkit.config; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


def count_solves(monkeypatch):
    """The arguments of every solve_at_k call from now on, with an empty lattice memo."""
    calls = []
    solve = dispersion.solve_at_k

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(dispersion, "solve_at_k", counted)
    monkeypatch.setattr(dispersion, "_LATTICE", {})
    return calls


@pytest.mark.parametrize("argv", [["design"], ["simulate-wafer", "--seed", "7"],
                                  ["simulate-wafer", "--full-resolve", "--pitches", "1e-6"]])
def test_packaged_material_solves_no_lattice_node(tmp_path, monkeypatch, argv):
    calls = count_solves(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path), "--quiet"]) == cli.EXIT_OK
    assert calls == []


def test_other_material_solves_its_lattice_nodes(tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps({"material": {"v_t_m_s": 3267.0}}))
    calls = count_solves(monkeypatch)
    assert cli.main(["design", "--config", str(tmp_path / "cfg.json"), "--pitches", "2e-6",
                     "--out", str(tmp_path), "--quiet"]) == cli.EXIT_OK
    assert calls == []  # the cubic's 4 nodes, none of them from the table, are walked
    assert {material.v_t for material, _ in dispersion._LATTICE} == {3267.0}
    design, = json.loads((tmp_path / "designs.json").read_text())["designs"]
    assert design["f_mid_hz"] == 1442159119.889364  # as when each node was scanned


def test_a_config_restating_the_packaged_velocities_reads_the_table(tmp_path, monkeypatch):
    # a material is its two velocities, so restating them is the packaged material
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": {"v_l_m_s": 7100.0, "v_t_m_s": 3266.0}}))
    calls = count_solves(monkeypatch)
    for name, config in (("restated", ["--config", str(cfg)]), ("packaged", [])):
        assert cli.main(["design", *config, "--quiet", "--out", str(tmp_path / name)]) == 0
    assert calls == []
    assert (tmp_path / "restated" / "designs.json").read_bytes() \
        == (tmp_path / "packaged" / "designs.json").read_bytes()
    assert "numpy" not in loaded_by("design", "--config", str(cfg), "--quiet",
                                    "--out", str(tmp_path / "fresh"))


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


def calibrated_fit_modules(tmp_path):
    inputs = write_inputs(tmp_path)
    modules = loaded_by("fit", inputs["DUT"], "--cal-short", inputs["SHORT"], "--cal-open",
                        inputs["OPEN"], "--cal-load", inputs["LOAD"], "--out", str(tmp_path),
                        "--quiet")
    assert (tmp_path / "dut_metrics.json").exists()
    return modules


def test_fit_loads_no_scipy(tmp_path):
    assert "scipy" not in calibrated_fit_modules(tmp_path)


def test_fit_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call; the fit's seed does not
    modules = calibrated_fit_modules(tmp_path)
    assert "numpy.linalg" in modules and "numpy.ma" not in modules


# ----------------------------------------------------------- BLAS threads

# What a fresh interpreter holds once main(argv) returns.
BLAS_PROBE = (
    "import json, os, sys\n"
    "from lambkit import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "task = '/proc/self/task'\n"
    "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    "print(json.dumps([rc, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'),"
    " threads]))\n"
)


def blas_probe(tmp_path, preset):
    # fit loads numpy on every material
    proc = run_python("-c", BLAS_PROBE, "fit", write_dut(tmp_path)[0], "--out", str(tmp_path),
                      "--quiet", env={"OPENBLAS_NUM_THREADS": preset})
    rc, numpy_loaded, value, threads = json.loads(proc.stdout.splitlines()[-1])
    assert (rc, numpy_loaded) == (cli.EXIT_OK, True), proc.stderr
    return value, threads


def test_numpy_command_runs_blas_on_one_thread(tmp_path):
    value, threads = blas_probe(tmp_path, None)
    assert value == "1"
    if threads is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == 1


def test_users_blas_thread_count_wins(tmp_path):
    assert blas_probe(tmp_path, "2")[0] == "2"


def test_in_process_main_with_numpy_loaded_leaves_environ_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert "numpy" in sys.modules
    assert cli.main(["design", "--pitches", "2e-6", "--out", str(tmp_path), "--quiet"]) == 0
    assert dict(os.environ) == before


def three_branch_osl_files(tmp_path):
    """A raw 1601-point three-branch DUT and its measured short, open and
    load, through a fixed cabled error box, with 0.5 % complex noise.  The
    branches sit over 8 % apart, as in criterion 1."""
    f = np.linspace(0.6e9, 3.4e9, 1601)
    rng = np.random.default_rng(1601)
    c_0 = 1e-12
    branches = []
    for f_r, k2, q in ((1.0e9, 0.05, 250.0), (1.6e9, 0.02, 300.0), (2.4e9, 0.01, 400.0)):
        c_m = k2 / (1 - k2) * c_0
        w = 2 * math.pi * f_r
        branches.append(MotionalBranch(r_m=1.0 / (w * c_m * q) - 1.5, l_m=1.0 / (w * w * c_m),
                                       c_m=c_m))
    model = MbvdModel(static_net=StaticNetwork(c_0=c_0, r_0=0.0, r_s=1.5),
                      branches=tuple(branches))
    y = model.admittance(f) * (1.0 + 0.005 / math.sqrt(2) * (
        rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)))
    e00 = 0.04 * np.exp(1j * (0.3 - 2 * math.pi * f * 0.3e-9))
    e11 = 0.06 * np.exp(1j * (1.1 - 2 * math.pi * f * 0.2e-9))
    e10e01 = 0.85 * np.exp(-2j * math.pi * f * 1.2e-9)

    def measured(gamma):
        return e00 + e10e01 * gamma / (1.0 - e11 * gamma)

    cal = []
    for flag, gamma in (("--cal-short", -1.0), ("--cal-open", 1.0), ("--cal-load", 0.0)):
        path = write_s1p(tmp_path / f"{flag[6:]}.s1p", f, measured(np.full(f.size, gamma + 0j)))
        cal += [flag, path]
    return [write_s1p(tmp_path / "dut3.s1p", f, measured(y_to_s11(y))), *cal]


def output_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["fit", "simulate-wafer", "disperse"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    # fit loads numpy; simulate-wafer and disperse, which no longer do on the
    # packaged material, stay as checks that their bytes do not depend on the
    # environment either
    argv = {"fit": lambda: ["fit", *three_branch_osl_files(tmp_path), "--branches", "3"],
            "simulate-wafer": lambda: ["simulate-wafer", "--seed", "7"],
            "disperse": lambda: ["disperse"]}[command]()
    digests = []
    for preset in (None, "2"):  # pinned by main(), and the user's own two threads
        out = tmp_path / f"out-{preset or 'pinned'}"
        proc = run_cli(*argv, "--out", str(out), env={"OPENBLAS_NUM_THREADS": preset})
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        digests.append((proc.stdout.replace(str(out), "OUT"), output_digests(out)))
    assert digests[0] == digests[1]
    assert len(digests[0][1]) == {"fit": 2, "simulate-wafer": 3, "disperse": 1}[command]


# --------------------------------------------------------- process exit

# Unset, stdout on a pipe is block-buffered, so output that run() failed to
# flush before os._exit would be lost; PYTHONUNBUFFERED would hide that.
BUFFERED = {"PYTHONUNBUFFERED": None}


def fit_three_files(tmp_path):
    dut, _ = write_dut(tmp_path)
    paths = [tmp_path / f"dut_{tag}.s1p" for tag in "abc"]
    for path in paths:
        shutil.copy(dut, path)
    return ["fit", *map(str, paths)]


@pytest.mark.parametrize("command", ["help", "simulate-wafer", "fit"])
def test_fresh_process_prints_what_main_prints(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width, here and in the child
    argv = {"help": lambda: ["--help"],
            "simulate-wafer": lambda: ["simulate-wafer", "--seed", "7", "--out", str(tmp_path)],
            "fit": lambda: [*fit_three_files(tmp_path), "--out", str(tmp_path)]}[command]()
    assert cli.main(argv) == cli.EXIT_OK
    expected = capsys.readouterr().out
    assert expected.count("\n") >= 4
    proc = run_cli(*argv, env=BUFFERED)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_fresh_process_runs_atexit_callbacks_before_the_flush():
    proc = run_python("-c", (
        "import atexit\n"
        "from lambkit import cli\n"
        "atexit.register(print, 'atexit ran')\n"
        "cli.run()\n"
    ), "--help", env=BUFFERED)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: lambkit")
    assert proc.stdout.endswith("\natexit ran\n")


def test_commands_read_no_file_in_the_locale_encoding(tmp_path):
    # a text read without an encoding warns under warn_default_encoding, and
    # the warning as an error ends the command with exit 70
    for argv in (["disperse", "--points", "2"], ["design", "--pitches", "2e-6"],
                 ["layout", "--pitches", "2e-6"], ["simulate-wafer", "--pitches", "2e-6"],
                 ["flow-check", "alscn-aln-adhesion"]):
        proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-m", "lambkit.cli", *argv, "--out", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, ""), argv


def run_on_dev_full(*argv, unbuffered: bool):
    """(exit code, stderr) of ``lambkit argv`` with its stdout on /dev/full."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lambkit.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


FULL_STDOUT = (cli.EXIT_USAGE, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, written", [
    (["design"], "designs.json"),
    (["flow-check", "alscn-ti-adhesion"], "flow_report.json"),
    (["disperse", "--points", "2"], "dispersion.csv"),
    (["simulate-wafer", "--pitches", "2e-6"], "sites.json"),
    (["stats", "sites.json"], "deviation.csv"),
    (["layout", "--pitches", "2e-6"], "chip.gds"),
    (["fit", "d0.s1p", "d1.s1p"], "d1_metrics.json"),
])
def test_failed_flush_ends_as_an_unbuffered_write_does(tmp_path, argv, written):
    # buffered, the write fails in run()'s final flush; unbuffered, in the
    # command's first print, which main() reports.  Each command prints only
    # after its files are written, so both runs leave them: fit too, whose
    # first file's lines would otherwise come before its second file
    (tmp_path / "sites.json").write_text(json.dumps(_TWO_SITES))
    dut, _ = write_dut(tmp_path)
    for name in ("d0.s1p", "d1.s1p"):
        shutil.copy(dut, tmp_path / name)
    argv = [str(tmp_path / a) if a.endswith((".json", ".s1p")) else a for a in argv]
    for unbuffered in (False, True):
        out = tmp_path / f"unbuffered-{unbuffered}"
        assert run_on_dev_full(*argv, "--out", str(out), unbuffered=unbuffered) == FULL_STDOUT
        assert (out / written).is_file(), unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_on_a_full_stdout_is_reported_only_when_buffered():
    # unbuffered, argparse's own print swallows the OSError and the text is lost
    assert run_on_dev_full("--help", unbuffered=False) == FULL_STDOUT
    assert run_on_dev_full("--help", unbuffered=True) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("hook", [sys.settrace, sys.setprofile])
def test_traced_or_profiled_run_exits_through_sys_exit(monkeypatch, capsys, hook):
    monkeypatch.setattr(sys, "argv", ["lambkit", "--help"])
    before = sys.gettrace() if hook is sys.settrace else sys.getprofile()
    hook(before or (lambda *args: None))
    try:
        with pytest.raises(SystemExit) as ended:
            cli.run()
    finally:
        hook(before)
    assert ended.value.code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: lambkit")


def test_cprofile_of_the_module_writes_its_profile(tmp_path):
    import pstats

    profile = tmp_path / "cli.prof"
    proc = run_python("-m", "cProfile", "-o", str(profile), "-m", "lambkit.cli", "--help",
                      env=BUFFERED)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: lambkit")
    functions = {name for _, _, name in pstats.Stats(str(profile)).stats}
    assert {"main", "run", "build_parser"} <= functions


def test_console_script_and_module_run_the_same_entry():
    import ast

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"lambkit": "lambkit.cli:run"}
    tree = ast.parse(Path(cli.__file__).read_text())
    guard = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in guard[0].body] == ["run()"]


# ------------------------------------------------------------------ README


def _readme_blocks(language: str) -> list:
    """The fenced code blocks of README.md in one language."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return re.findall(rf"^```{language}\n(.*?)^```", readme.read_text(encoding="utf-8"),
                      re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every `lambkit ...` line of README, in order, with the inputs it names
    # written first, then the "Library use" block
    from lambkit.processflow import DEFAULT_RATES

    monkeypatch.chdir(tmp_path)
    f = np.linspace(0.8e9, 1.3e9, 400)
    one = synth_model()
    two = MbvdModel(static_net=one.static_net,
                    branches=(*one.branches, MotionalBranch(r_m=20.0, l_m=2.4e-6, c_m=8e-15)))
    for name, model in (("dut1", two), ("dut2", two), ("dut", one)):
        write_s1p(tmp_path / f"{name}.s1p", f, y_to_s11(model.admittance(f)))
    for name, gamma in (("short", -1), ("open", 1), ("load", 0)):
        write_s1p(tmp_path / f"{name}.s1p", f, np.full(f.size, gamma, dtype=complex))
    (tmp_path / "my_flow.json").write_text(
        json.dumps(steps_to_dict(packaged_flow("alscn-ti-adhesion"))))
    (tmp_path / "my_rates.json").write_text(json.dumps(DEFAULT_RATES.to_dict()))
    lines = [shlex.split(line)[1:] for block in _readme_blocks("sh")
             for line in block.splitlines() if line.startswith("lambkit ")]
    assert [argv[0] for argv in lines] == ["disperse", "design", "design", "layout", "fit",
                                           "fit", "simulate-wafer", "simulate-wafer", "stats",
                                           "flow-check", "flow-check"]
    for argv in lines:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
    (library_use,) = _readme_blocks("python")
    exec(compile(library_use, "README.md", "exec"), {})

"""Command-line entry point.

Subcommands cover the toolkit loop: disperse, design, layout, fit, stats,
simulate-wafer, flow-check.  Every command is deterministic given its config
and seed, writes only into the --out directory, and maps failures onto a
stable exit-code registry:

    0  success
    1  flow-check found rule errors
    2  config, usage, or schema problem
    3  dispersion solver failure
    4  design, packing, or layer-assignment failure
    5  every file in a fit batch failed
    6  statistics failure
   70  internal error (a bug: any other exception)

Subcommands import what they run in their own bodies, so --help, stats and
flow-check load no numpy and no command loads scipy.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import MODE_NAMES
from .errors import (
    CoordinateError, DesignError, DispersionRangeError, InputError, LambkitError,
    PackingError, SensitivityError, SolverError, StatisticsError, read_json,
)

EXIT_OK = 0
EXIT_FLOW_ERRORS = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_DESIGN = 4
EXIT_ALL_FITS_FAILED = 5
EXIT_STATS = 6
EXIT_INTERNAL = 70  # EX_SOFTWARE

# a larger disperse grid is a typo, not hours of solving or a huge allocation
MAX_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# Shared helpers

def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*lines, ""]))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _parse_pitches(text: str) -> tuple:
    vals = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            vals.append(float(token))
        except ValueError:
            raise InputError(f"bad pitch value {token!r}") from None
    if not vals:
        raise InputError("pitch list is empty")
    if any(v <= 0 or not math.isfinite(v) for v in vals):
        raise InputError("pitches must be positive and finite")
    return tuple(vals)


def _parse_modes(text: str) -> tuple:
    modes = tuple(m.strip() for m in text.split(",") if m.strip())
    if not modes:
        raise InputError("at least one mode is required")
    for mode in modes:
        if mode not in MODE_NAMES:
            raise InputError(f"unknown mode {mode!r} (known: {MODE_NAMES})")
    return modes


def _catalog_pitches(args) -> tuple:
    from .config import load_catalog

    if args.pitches is not None:
        return _parse_pitches(args.pitches)
    return tuple(load_catalog(args.catalog)["pitches_m"])


def _build_designs(args):
    """The config, and one impedance-matched design per requested pitch."""
    from .config import load_config
    from .design import CapacitanceModel, match_finger_count

    cfg = load_config(args.config)
    pitches = _catalog_pitches(args)
    cap_model = CapacitanceModel(eps_r=cfg.eps_r, h_piezo=cfg.plate.h)
    return cfg, [
        match_finger_count(
            pitch,
            cfg.plate,
            cap_model,
            mode=args.mode,
            target_impedance=cfg.matching.target_impedance_ohm,
            max_fingers=cfg.matching.max_fingers,
            dummy_count_per_side=cfg.matching.dummy_count_per_side,
        )
        for pitch in pitches
    ]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_disperse(args) -> int:
    import numpy as np

    from .config import load_config
    from .dispersion import curve_to_csv_rows, solve_mode

    cfg = load_config(args.config)
    modes = _parse_modes(args.modes)
    if not (0 < args.pitch_min < args.pitch_max):
        raise InputError(
            f"pitch range [{args.pitch_min:g}, {args.pitch_max:g}] is empty "
            f"or non-positive"
        )
    if not 2 <= args.points <= MAX_GRID_POINTS:
        raise InputError(f"--points must be in [2, {MAX_GRID_POINTS}], got {args.points}")
    k_grid = np.linspace(
        math.pi / args.pitch_max, math.pi / args.pitch_min, args.points
    )
    rows = ["mode,k_rad_m,f_hz,v_phase_m_s"]
    for mode in modes:
        curve = solve_mode(cfg.plate, mode, k_grid)
        if curve.k.size == 0:
            raise SolverError(
                f"mode {mode}: no roots in the requested wavenumber range"
            )
        rows.extend(",".join(r) for r in curve_to_csv_rows(curve))
        _say(args, f"{mode}: {curve.k.size} of {args.points} points solved")
    path = os.path.join(_out_dir(args), "dispersion.csv")
    _write_lines(path, rows)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_design(args) -> int:
    cfg, designs = _build_designs(args)
    for d in designs:
        _say(
            args,
            f"{d.design_id}: {d.idt.n_fingers} fingers, "
            f"{d.achieved_impedance:.2f} ohm, layer {d.layer.value}, "
            f"dose {d.dose:.2f} mJ/cm2",
        )
    doc = {
        "target_impedance_ohm": cfg.matching.target_impedance_ohm,
        "designs": [d.to_dict() for d in designs],
    }
    path = os.path.join(_out_dir(args), "designs.json")
    _write_json(path, doc)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_layout(args) -> int:
    from .gdsii import read_gdsii, write_gdsii
    from .layout import build_reticle, gen_chip, gen_wafer_map

    cfg, designs = _build_designs(args)
    out = _out_dir(args)

    chip_lib = gen_chip(designs, cfg.chip, cfg.layers)
    chip_bytes = write_gdsii(chip_lib)
    read_gdsii(chip_bytes)  # structural self-check before shipping the file
    chip_path = os.path.join(out, "chip.gds")
    with open(chip_path, "wb") as fh:
        fh.write(chip_bytes)
    _say(args, f"wrote {chip_path} ({len(chip_bytes)} bytes)")

    spec, mask_lib = build_reticle(chip_lib, cfg.chip, cfg.layers, cfg.reticle)
    reticle_path = os.path.join(out, "reticle.gds")
    with open(reticle_path, "wb") as fh:
        fh.write(write_gdsii(mask_lib))
    _say(args, f"wrote {reticle_path} ({len(spec.rema_windows)} rema windows)")

    placements = gen_wafer_map(cfg.chip, cfg.wafer)
    _say(args, f"{len(placements)} placements")
    if args.wafer_map:
        rows = ["site_id,ix,iy,x_mm,y_mm"]
        rows.extend(
            f"{p.site_id},{p.ix},{p.iy},{p.x_m * 1e3:.6g},{p.y_m * 1e3:.6g}"
            for p in placements
        )
        map_path = os.path.join(out, "wafer_map.csv")
        _write_lines(map_path, rows)
        _say(args, f"wrote {map_path}")
    return EXIT_OK


def _read_s1p(path: str):
    """The parsed .s1p file at path; bytes that are not UTF-8 are a
    TouchstoneParseError, as any other fault in its content is."""
    from .touchstone import parse_touchstone

    with open(path, "rb") as fh:
        return parse_touchstone(fh.read())


def _load_cal_files(args):
    """The command's OSL calibration, solved once for all its files, or None."""
    from .calibration import OslCalibration

    given = [args.cal_short, args.cal_open, args.cal_load]
    if any(given) and not all(given):
        raise InputError("calibration needs all of --cal-short/--cal-open/--cal-load")
    if args.cal_through:
        _warn("through standard ignored: one-port OSL uses short/open/load")
    if not any(given):
        return None
    return OslCalibration(*map(_read_s1p, given))


def _overlay_rows(frequencies, y_measured, y_model) -> list:
    """Overlay CSV lines: frequency, measured |Y| and model |Y|."""
    import numpy as np

    # np.hypot gives the same doubles as scalar abs() of a complex; np.abs does not
    columns = (frequencies, np.hypot(y_measured.real, y_measured.imag),
               np.hypot(y_model.real, y_model.imag))
    flat = np.column_stack(columns).ravel().tolist()
    body = "%.9e,%.9e,%.9e\n" * len(frequencies) % tuple(flat)
    return ["f_hz,y_abs_measured,y_abs_model", *body.splitlines()]


def _fit_one(path: str, args, out: str, cal) -> None:
    from .mbvd import fit_mbvd, resonance_metrics
    from .touchstone import touchstone_to_trace

    tf = _read_s1p(path)
    if cal is not None:
        tf = cal.correct(tf)
    trace = touchstone_to_trace(tf)
    result = fit_mbvd(trace, args.branches)
    metrics = [
        resonance_metrics(result.model, i) for i in range(args.branches)
    ]
    stem = os.path.splitext(os.path.basename(path))[0]
    doc = {
        "source": os.path.basename(path),
        "n_branches": args.branches,
        "fit": result.report_dict(),
        "model": result.model.to_dict(),
        "branches": [m.to_dict() for m in metrics],
    }
    _write_json(os.path.join(out, f"{stem}_metrics.json"), doc)
    y_model = result.model.admittance(trace.frequencies)
    rows = _overlay_rows(trace.frequencies, trace.admittance, y_model)
    _write_lines(os.path.join(out, f"{stem}_overlay.csv"), rows)
    for i, m in enumerate(metrics):
        _say(
            args,
            f"{stem} branch {i}: f_r {m.f_r:.6g} Hz, q_r {m.q_r:.4g}, "
            f"k_eff_sq {m.k_eff_sq:.4g}",
        )


def cmd_fit(args) -> int:
    if args.branches < 0:
        raise InputError("--branches must be >= 0")
    cal = _load_cal_files(args)
    out = _out_dir(args)
    failures = []
    for path in args.files:
        try:
            _fit_one(path, args, out, cal)
        except (LambkitError, ValueError, OSError) as exc:
            failures.append((os.path.basename(path), str(exc)))
    for name, why in failures:
        print(f"failed {name}: {why}", file=sys.stderr)
    _say(args, f"fitted {len(args.files) - len(failures)} of {len(args.files)} file(s)")
    if failures and len(failures) == len(args.files):
        return EXIT_ALL_FITS_FAILED
    return EXIT_OK


def _parse_heatmap(spec: str):
    mode, sep, pitch_text = spec.partition(":")
    if not sep or not pitch_text:
        raise InputError("heatmap spec must be MODE:PITCH_M, e.g. S1:4.5e-6")
    if mode not in MODE_NAMES:
        raise InputError(f"unknown mode {mode!r} (known: {MODE_NAMES})")
    try:
        pitch = float(pitch_text)
    except ValueError:
        raise InputError(f"bad heatmap pitch {pitch_text!r}") from None
    if not (pitch > 0 and math.isfinite(pitch)):
        raise InputError("heatmap pitch must be positive and finite")
    return mode, pitch


def _write_reports(args, out: str, sites) -> None:
    from .waferstats import (
        deviation_csv_rows, metrics_vs_frequency, per_mode_deviation, trend_csv_rows)

    report = per_mode_deviation(sites)
    _write_lines(os.path.join(out, "deviation.csv"), deviation_csv_rows(report))
    trend = metrics_vs_frequency(sites)
    _write_lines(os.path.join(out, "trend.csv"), trend_csv_rows(trend))
    for warning in report.warnings:
        _warn(warning)
    for row in report.rows:
        _say(
            args,
            f"{row.mode} @ {row.pitch_m * 1e9:.6g} nm: relstd "
            f"{row.relstd_pct:.4g}% over {row.n} site(s)",
        )
    for line in trend.summary_lines():
        _say(args, line)


def cmd_stats(args) -> int:
    from .waferstats import heatmap_csv_rows, sites_from_dict

    heatmap = _parse_heatmap(args.heatmap) if args.heatmap else None
    doc = read_json(args.sites, "sites")
    sites = sites_from_dict(doc)
    out = _out_dir(args)
    if "seed" in doc:
        _say(args, f"seed {doc['seed']}")
    _write_reports(args, out, sites)
    if heatmap:
        mode, pitch = heatmap
        rows = heatmap_csv_rows(sites, mode, pitch)
        if len(rows) < 2:
            raise StatisticsError(
                f"no sites carry mode {mode} at pitch {pitch:g} m"
            )
        _write_lines(os.path.join(out, "heatmap.csv"), rows)
        _say(args, f"heatmap: {len(rows) - 1} site(s)")
    return EXIT_OK


def cmd_simulate_wafer(args) -> int:
    from .config import load_config
    from .waferstats import VariationModel, simulate_wafer, sites_to_dict

    cfg = load_config(args.config)
    model = VariationModel.from_config(cfg)
    if args.seed is not None:
        model = replace(model, seed=args.seed)
    if args.full_resolve:
        model = replace(model, full_resolve=True)
    pitches = _catalog_pitches(args)
    sites = simulate_wafer(model, pitches, cfg.plate, cfg.chip, cfg.wafer)
    out = _out_dir(args)
    _say(args, f"seed {model.seed}")
    _say(args, f"{len(sites)} site(s), {len(pitches)} design pitch(es)")
    _write_json(os.path.join(out, "sites.json"), sites_to_dict(sites, seed=model.seed))
    _write_reports(args, out, sites)
    return EXIT_OK


def cmd_flow_check(args) -> int:
    from .processflow import (
        GOLDEN_FLOW_NAMES, RateTable, check_flow, load_flow, packaged_flow)

    if args.flow in GOLDEN_FLOW_NAMES:
        flow = packaged_flow(args.flow)
    else:
        flow = load_flow(args.flow)
    rates = None
    if args.rates:
        rates = RateTable.from_dict(read_json(args.rates, "rates"))
    report = check_flow(flow, rates)
    for line in report.summary_lines():
        _say(args, line)
    return EXIT_OK if report.error_count == 0 else EXIT_FLOW_ERRORS


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="config JSON (defaults packaged)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    pitch_source = argparse.ArgumentParser(add_help=False)
    pitch_source.add_argument(
        "--pitches", default=None, help="comma-separated pitches in meters"
    )
    pitch_source.add_argument(
        "--catalog", default=None, help="catalog JSON (defaults packaged)"
    )
    pitch_source.add_argument(
        "--mode", default="S0", choices=MODE_NAMES, help="design mode"
    )

    parser = argparse.ArgumentParser(
        prog="lambkit",
        description="Lamb-wave resonator design, layout, fitting, and statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disperse", parents=[common], help="solve dispersion curves")
    p.add_argument("--pitch-min", type=float, default=1.0e-6)
    p.add_argument("--pitch-max", type=float, default=4.5e-6)
    p.add_argument("--points", type=int, default=40, help=f"grid size, 2 to {MAX_GRID_POINTS}")
    p.add_argument("--modes", default=",".join(MODE_NAMES))
    p.set_defaults(func=cmd_disperse)

    p = sub.add_parser(
        "design", parents=[common, pitch_source], help="impedance-matched IDT designs"
    )
    p.set_defaults(func=cmd_design)

    p = sub.add_parser(
        "layout", parents=[common, pitch_source], help="chip GDSII, reticle, wafer map"
    )
    p.add_argument(
        "--wafer-map", action="store_true", help="also write the placement CSV"
    )
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("fit", parents=[common], help="fit mBVD models to .s1p files")
    p.add_argument("files", nargs="+", help=".s1p measurement files")
    p.add_argument("--branches", type=int, default=1, help="motional branch count")
    p.add_argument("--cal-short", default=None, help="measured short standard .s1p")
    p.add_argument("--cal-open", default=None, help="measured open standard .s1p")
    p.add_argument("--cal-load", default=None, help="measured load standard .s1p")
    p.add_argument(
        "--cal-through", default=None, help="accepted for SOLT kits, unused"
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("stats", parents=[common], help="reduce a wafer sites JSON")
    p.add_argument("sites", help="sites JSON from simulate-wafer or measurements")
    p.add_argument("--heatmap", default=None, help="write heatmap.csv for MODE:PITCH_M")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "simulate-wafer", parents=[common, pitch_source], help="seeded variation run"
    )
    p.add_argument(
        "--full-resolve", action="store_true",
        help="evaluate dispersion per site instead of first-order propagation",
    )
    p.set_defaults(func=cmd_simulate_wafer)

    p = sub.add_parser("flow-check", parents=[common], help="rule-check a process flow")
    p.add_argument("flow", help="flow JSON path or a packaged flow name")
    p.add_argument("--rates", default=None, help="rate table JSON override")
    p.set_defaults(func=cmd_flow_check)

    return parser


def _exit_code(exc: LambkitError) -> int:
    if isinstance(exc, (SolverError, DispersionRangeError, SensitivityError)):
        return EXIT_SOLVER
    if isinstance(exc, (DesignError, PackingError, CoordinateError)):
        return EXIT_DESIGN
    if isinstance(exc, StatisticsError):
        return EXIT_STATS
    return EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except LambkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands cover the toolkit loop: disperse, design, layout, fit, stats,
simulate-wafer, flow-check.  Every command is deterministic given its config
and seed, writes only into the --out directory and only once every check
that can fail has passed, and maps failures onto a stable exit-code registry:

    0  success
    1  flow-check found rule errors
    2  config, usage, or schema problem
    3  dispersion solver failure
    4  design, packing, or layer-assignment failure
    5  every file in a fit batch failed
    6  statistics failure
   70  internal error (a bug: any other exception)

Subcommands import what they run in their own bodies, and no command loads
scipy.  The records are lambkit.record classes, so no command imports the
standard dataclass module (with inspect) or compiles a class's methods at
start-up.  Where the lattice walk reaches only fit loads numpy: dispersion is read and
polished on a lattice walked from k*h -> 0 (lambkit.dispersion names where the scan
still runs), and wafer draws are numpy's streams in the stdlib: same seed, same bytes.
main() pins OpenBLAS to one thread before a command imports numpy (its pool
takes about 70 ms to start; the largest BLAS call is a 14-column matrix).  A
user's OPENBLAS_NUM_THREADS wins, and a caller with numpy loaded keeps its own.
main() reads a plain command line off the COMMANDS table: a subcommand, then
its exact flags, their values and its positionals, none of them starting with
"-".  Any other argv goes to argparse, imported only then, so help, usage
errors and their texts are argparse's alone.  The lambkit script and python -m
lambkit.cli end in run(): once stdout and stderr are flushed, os._exit skips
the interpreter's teardown.  A flush that fails (a full or closed stdout) is
reported as main() reports an OSError, with exit code 2 where the command's
own was 0, so a buffered stdout ends as an unbuffered one does.  A tracer or
profiler and main(argv) called in process end the usual way.
"""

import atexit
import json
import math
import os
import sys
from types import SimpleNamespace

from . import MODE_NAMES
from .errors import (
    CoordinateError, DesignError, DispersionRangeError, InputError, LambkitError,
    PackingError, SensitivityError, SolverError, StatisticsError, is_json_number, read_json, shown,
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


def _lines(rows) -> str:
    """The rows as text, each ended by a newline."""
    return "\n".join([*rows, ""])


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _write_files(out: str, files: dict) -> None:
    """Write each {name: text or bytes} of files into the directory out, made
    if missing.  A command calls this after its last check that can fail, so
    a failed command leaves no file behind."""
    os.makedirs(out, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)


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
    for i, v in enumerate(vals):
        if v in vals[:i]:  # each die would be counted twice in the statistics
            raise InputError(f"pitch {v:g} is given twice")
    return tuple(vals)


def _parse_modes(text: str) -> tuple:
    modes = tuple(m.strip() for m in text.split(",") if m.strip())
    if not modes:
        raise InputError("at least one mode is required")
    for i, mode in enumerate(modes):
        if mode not in MODE_NAMES:
            raise InputError(f"unknown mode {mode!r} (known: {MODE_NAMES})")
        if mode in modes[:i]:
            raise InputError(f"mode {mode} is given twice")
    return modes


def _catalog_pitches(args) -> tuple:
    from .config import load_catalog

    if args.pitches is None:
        return tuple(load_catalog(args.catalog)["pitches_m"])
    if args.catalog is not None:
        raise InputError("give --pitches or --catalog, not both")
    return _parse_pitches(args.pitches)


def _build_designs(args):
    """The config, and one impedance-matched design per requested pitch."""
    from .config import load_config
    from .design import match_finger_count

    cfg = load_config(args.config)
    pitches = _catalog_pitches(args)
    designs = [match_finger_count(pitch, cfg, args.mode) for pitch in pitches]
    first_pitch = {}  # design id -> the pitch that took it
    for pitch, design in zip(pitches, designs):
        other = first_pitch.setdefault(design.design_id, pitch)
        if other != pitch:  # one id would name two designs, and two cells on the chip
            raise InputError(
                f"pitches {other!r} and {pitch!r} share design id {design.design_id!r}"
            )
    return cfg, designs


# ---------------------------------------------------------------------------
# Subcommands

def cmd_disperse(args) -> int:
    from .config import load_config
    from .dispersion import solve_grid

    cfg = load_config(args.config)
    modes = _parse_modes(args.modes)
    span = f"pitch range [{args.pitch_min:g}, {args.pitch_max:g}]"
    if not (0 < args.pitch_min < args.pitch_max):
        raise InputError(f"{span} is empty or non-positive")
    if not 2 <= args.points <= MAX_GRID_POINTS:
        raise InputError(f"--points must be in [2, {MAX_GRID_POINTS}], got {args.points}")
    k_lo, k_hi = math.pi / args.pitch_max, math.pi / args.pitch_min
    if not (k_lo > 0.0 and k_hi < math.inf):
        raise InputError(f"{span} gives a zero or non-finite wavenumber")
    # np.linspace's points bit for bit: k_lo + i*step, and k_hi itself last
    step = (k_hi - k_lo) / (args.points - 1)
    k_grid = [k_lo + i * step for i in range(args.points - 1)] + [k_hi]
    rows, solved = ["mode,k_rad_m,f_hz,v_phase_m_s"], []
    for mode in modes:
        ks, fs, _ = solve_grid(cfg.plate, mode, k_grid)
        if not ks:
            raise SolverError(f"mode {mode}: no roots in the requested wavenumber range")
        rows.extend(f"{mode},{k:.9e},{f:.9e},{2.0 * math.pi * f / k:.9e}" for k, f in zip(ks, fs))
        solved.append(f"{mode}: {len(ks)} of {args.points} points solved")
    _write_files(args.out, {"dispersion.csv": _lines(rows)})
    for line in solved:
        _say(args, line)
    _say(args, f"wrote {os.path.join(args.out, 'dispersion.csv')}")
    return EXIT_OK


def cmd_design(args) -> int:
    cfg, designs = _build_designs(args)
    doc = {
        "target_impedance_ohm": cfg.matching.target_impedance_ohm,
        "designs": [d.to_dict() for d in designs],
    }
    _write_files(args.out, {"designs.json": _json_text(doc)})
    for d in designs:
        _say(
            args,
            f"{d.design_id}: {d.idt.n_fingers} fingers, "
            f"{d.achieved_impedance:.2f} ohm, layer {d.layer.value}, "
            f"dose {d.dose:.2f} mJ/cm2",
        )
    _say(args, f"wrote {os.path.join(args.out, 'designs.json')}")
    return EXIT_OK


def cmd_layout(args) -> int:
    from .gdsii import write_gdsii
    from .layout import build_reticle, gen_chip, gen_wafer_map

    cfg, designs = _build_designs(args)
    chip_lib = gen_chip(designs, cfg.chip, cfg.layers)
    chip_bytes = write_gdsii(chip_lib)
    windows, mask_lib = build_reticle(chip_lib, cfg.chip, cfg.layers, cfg.reticle)
    reticle_bytes = write_gdsii(mask_lib)
    placements = gen_wafer_map(cfg.chip, cfg.wafer)
    files = {"chip.gds": chip_bytes, "reticle.gds": reticle_bytes}
    if args.wafer_map:
        rows = ["site_id,ix,iy,x_mm,y_mm"]
        rows.extend(
            f"{p.site_id},{p.ix},{p.iy},{p.x_m * 1e3:.6g},{p.y_m * 1e3:.6g}"
            for p in placements
        )
        files["wafer_map.csv"] = _lines(rows)
    _write_files(args.out, files)
    _say(args, f"wrote {os.path.join(args.out, 'chip.gds')} ({len(chip_bytes)} bytes)")
    _say(args, f"wrote {os.path.join(args.out, 'reticle.gds')} "
               f"({len(windows)} rema windows)")
    _say(args, f"{len(placements)} placements")
    if args.wafer_map:
        _say(args, f"wrote {os.path.join(args.out, 'wafer_map.csv')}")
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
    if not any(given):
        return None
    return OslCalibration(*map(_read_s1p, given))


_PAIRS = "".join(f"{i:02d}" for i in range(100)).encode()  # "00".."99"
_EXPONENTS = "".join(f"e{i:+03d}" for i in range(-99, 100)).encode()  # "e-99".."e+99"


def _e9_rows(v):
    """The rows of the (n, 3) array v as "%.9e,%.9e,%.9e\n" renders them, or
    None if one is not 15 bytes wide (negative, non-finite, exponent past 99).
    The digits are rint(v*10**(9-e)), e = floor(log10 v), scaled by one exact
    10**j, so off by under 1e-6; values within 4e-6 of a half, or outside
    [1e-13, 1e31), are rendered by the correctly rounded "%" instead."""
    import numpy as np

    x = v.ravel()
    fast = (x >= 1e-13) & (x < 1e31)
    xs = np.where(fast, x, 1.0)
    # log10 off by an ulp: e one too high gives rint(m) = 1e9, one too low the carry
    e = np.maximum(np.floor(np.log10(xs)), -13).astype(np.int64)
    j = 9 - e
    pow10 = np.array([10 ** k for k in range(23)], float)[abs(j)]
    m = np.where(j >= 0, xs * pow10, xs / pow10)
    d = np.rint(m).astype(np.int64)
    carry = d == 10 ** 10  # 9.9999999995e+k renders as 1.000000000e+(k+1)
    d[carry] = 10 ** 9
    e += carry
    rows = bytearray(b"%.9e,%.9e,%.9e\n" % (0, 0, 0) * len(v))
    buf = np.frombuffer(rows, np.uint8).reshape(-1, 16)
    d, last = np.divmod(d, 10)
    for k in range(4, 0, -1):  # digit pairs to bytes 2-3 .. 8-9, as uint16
        d, pair = np.divmod(d, 100)
        buf.view(np.uint16)[:, k] = np.frombuffer(_PAIRS, np.uint16)[pair]
    buf[:, 0], buf[:, 10] = d + ord("0"), last + ord("0")
    buf[:, 11:15] = np.frombuffer(_EXPONENTS, np.uint32)[e + 99, None].view(np.uint8)
    for i in np.flatnonzero(~fast | (abs(m - np.floor(m) - 0.5) < 4e-6)).tolist():
        cell = b"%.9e" % x[i]
        if len(cell) != 15:
            return None
        buf[i, :15] = list(cell)
    return rows.decode()


def _overlay_csv(frequencies, y_measured, y_model) -> str:
    """Overlay CSV text: frequency, measured |Y| and model |Y|."""
    import numpy as np

    # np.hypot gives the same doubles as scalar abs() of a complex; np.abs does not
    columns = np.column_stack((frequencies, np.hypot(y_measured.real, y_measured.imag),
                               np.hypot(y_model.real, y_model.imag)))
    body = _e9_rows(columns) or "%.9e,%.9e,%.9e\n" * len(columns) % tuple(columns.ravel().tolist())
    return "f_hz,y_abs_measured,y_abs_model\n" + body


def _fit_one(path: str, stem: str, args, cal):
    """The metrics JSON and overlay CSV of one fitted file, by output name,
    and the metrics of its branches."""
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
    doc = {
        "source": os.path.basename(path),
        "n_branches": args.branches,
        "fit": result.report_dict(),
        "model": result.model.to_dict(),
        "branches": [m.to_dict() for m in metrics],
    }
    y_model = result.model.admittance(trace.frequencies)
    files = {
        f"{stem}_metrics.json": _json_text(doc),
        f"{stem}_overlay.csv": _overlay_csv(trace.frequencies, trace.admittance, y_model),
    }
    return files, metrics


def cmd_fit(args) -> int:
    if args.branches < 0:
        raise InputError("--branches must be >= 0")
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.files]
    first = {}
    for path, stem in zip(args.files, stems):
        if stem in first:  # the second fit would overwrite the first one's outputs
            raise InputError(f"{first[stem]} and {path} share the output stem {stem!r}")
        first[stem] = path
    cal = _load_cal_files(args)
    failures, said = [], []
    for path, stem in zip(args.files, stems):
        try:
            files, metrics = _fit_one(path, stem, args, cal)
        except (LambkitError, ValueError, OSError) as exc:
            failures.append((os.path.basename(path), str(exc)))
            continue
        _write_files(args.out, files)
        said.extend(
            f"{stem} branch {i}: f_r {m.f_r:.6g} Hz, q_r {m.q_r:.4g}, k_eff_sq {m.k_eff_sq:.4g}"
            for i, m in enumerate(metrics)
        )
    for line in said:  # printed once every file is written, so a failed print loses none
        _say(args, line)
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


def _write_reports(args, sites, files: dict, heatmap=None, said=()) -> None:
    """Write files with the deviation and trend reports of sites, and the heatmap
    of heatmap = (mode, pitch) if given, then print said and the reduction."""
    from .waferstats import (
        deviation_csv_rows, group_sites, heatmap_csv_rows, metrics_vs_frequency,
        per_mode_deviation, trend_csv_rows)

    groups = group_sites(sites)
    report, trend = per_mode_deviation(groups), metrics_vs_frequency(groups)
    files = {**files, "deviation.csv": _lines(deviation_csv_rows(report)),
             "trend.csv": _lines(trend_csv_rows(trend))}
    if heatmap:
        mode, pitch = heatmap
        rows = heatmap_csv_rows(sites, mode, pitch)
        if len(rows) < 2:
            raise StatisticsError(f"no sites carry mode {mode} at pitch {pitch:g} m")
        files["heatmap.csv"] = _lines(rows)
    _write_files(args.out, files)
    for line in said:
        _say(args, line)
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
    if heatmap:
        _say(args, f"heatmap: {len(rows) - 1} site(s)")


def cmd_stats(args) -> int:
    from .waferstats import sites_from_dict

    heatmap = _parse_heatmap(args.heatmap) if args.heatmap else None
    doc = read_json(args.sites, "sites")
    sites = sites_from_dict(doc)
    seed = doc.get("seed", 0)  # the config's seed rule: an integral finite number >= 0, no bool
    if not (is_json_number(seed) and seed >= 0 and seed == int(seed)):
        raise InputError(f"seed must be an integer >= 0, got {shown(seed)}")
    _write_reports(args, sites, {}, heatmap, [f"seed {int(seed)}"] if "seed" in doc else [])
    return EXIT_OK


def cmd_simulate_wafer(args) -> int:
    from .config import load_config
    from .waferstats import simulate_wafer, sites_json

    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    pitches = _catalog_pitches(args)
    sites = simulate_wafer(cfg.variation, seed, pitches, cfg.plate, cfg.chip, cfg.wafer,
                           args.full_resolve)
    _write_reports(args, sites, {"sites.json": _lines([sites_json(sites, seed=seed)])},
                   said=[f"seed {seed}", f"{len(sites)} site(s), {len(pitches)} design pitch(es)"])
    return EXIT_OK


def cmd_flow_check(args) -> int:
    from .processflow import (
        DEFAULT_RATES, GOLDEN_FLOW_NAMES, RateTable, check_flow, load_flow, packaged_flow)

    if args.flow in GOLDEN_FLOW_NAMES:
        flow = packaged_flow(args.flow)
    else:
        flow = load_flow(args.flow)
    rates = RateTable.from_dict(read_json(args.rates, "rates")) if args.rates else DEFAULT_RATES
    report = check_flow(flow, rates)
    # rule hits are data: the report is written when they fail the check too
    _write_files(args.out, {"flow_report.json": _json_text(report.to_dict())})
    for line in report.summary_lines():
        _say(args, line)
    return EXIT_OK if report.error_count == 0 else EXIT_FLOW_ERRORS


# ---------------------------------------------------------------------------
# Parser

# One row per argument: its flag or positional name and add_argument's keywords,
# which build_parser passes on and _plain_args reads itself
_OUTPUT = (("--out", dict(default=".", help="output directory")),
           ("--quiet", dict(action="store_true", default=False, help="suppress progress output")))
_CONFIG = (("--config", dict(help="config JSON (defaults packaged)")),)
_PITCH_SOURCE = (("--pitches", dict(help="comma-separated pitches in meters")),
                 ("--catalog", dict(help="catalog JSON (defaults packaged)")))
_DESIGN_MODE = (("--mode", dict(default="S0", choices=MODE_NAMES, help="design mode")),)

# name -> (help, the command, its arguments in help order)
COMMANDS = {
    "disperse": ("solve dispersion curves", cmd_disperse, _CONFIG + _OUTPUT + (
        ("--pitch-min", dict(type=float, default=1.0e-6)),
        ("--pitch-max", dict(type=float, default=4.5e-6)),
        ("--points", dict(type=int, default=40, help=f"grid size, 2 to {MAX_GRID_POINTS}")),
        ("--modes", dict(default=",".join(MODE_NAMES))))),
    "design": ("impedance-matched IDT designs", cmd_design,
               _CONFIG + _OUTPUT + _PITCH_SOURCE + _DESIGN_MODE),
    "layout": ("chip GDSII, reticle, wafer map", cmd_layout,
               _CONFIG + _OUTPUT + _PITCH_SOURCE + _DESIGN_MODE + (("--wafer-map", dict(
                   action="store_true", default=False, help="also write the placement CSV")),)),
    "fit": ("fit mBVD models to .s1p files", cmd_fit, _OUTPUT + (
        ("files", dict(nargs="+", help=".s1p measurement files")),
        ("--branches", dict(type=int, default=1, help="motional branch count")),
        ("--cal-short", dict(help="measured short standard .s1p")),
        ("--cal-open", dict(help="measured open standard .s1p")),
        ("--cal-load", dict(help="measured load standard .s1p")))),
    "stats": ("reduce a wafer sites JSON", cmd_stats, _OUTPUT + (
        ("sites", dict(help="sites JSON from simulate-wafer or measurements")),
        ("--heatmap", dict(help="write heatmap.csv for MODE:PITCH_M")))),
    "simulate-wafer": ("seeded variation run", cmd_simulate_wafer,
                       _CONFIG + _OUTPUT + _PITCH_SOURCE + (
        ("--seed", dict(type=int, help="override the config seed")),
        ("--full-resolve", dict(action="store_true", default=False, help=(
            "evaluate dispersion per site instead of first-order propagation"))))),
    "flow-check": ("rule-check a process flow", cmd_flow_check, _OUTPUT + (
        ("flow", dict(help="flow JSON path or a packaged flow name")),
        ("--rates", dict(help="rate table JSON override")))),
}


def build_parser() -> "argparse.ArgumentParser":
    """The lambkit parser, with one subparser per row of COMMANDS.  main() builds
    it only for help and usage errors, whose texts are argparse's."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lambkit",
        description="Lamb-wave resonator design, layout, fitting, and statistics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, rows) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for arg, keywords in rows:
            p.add_argument(arg, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """argparse's namespace for argv, or None where argparse must decide: help,
    an error, `--`, an unknown or abbreviated flag, `=` on a store-true flag, a
    token starting with "-" that is no flag, or positionals split by a flag."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, rows = COMMANDS[argv[0]]
    spec = dict(rows)
    values = {arg: keywords.get("default") for arg, keywords in rows}
    at = []  # where each positional stands
    tokens = enumerate(argv[1:])
    for i, token in tokens:
        if token[:1] != "-":
            at.append(i)
            continue
        flag, eq, value = token.partition("=")
        keywords = spec.get(flag)
        if keywords is None or eq and "action" in keywords:
            return None
        if "action" in keywords:  # store_true
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, (i, "-"))[1]  # a missing value reads as "-"
        if value[:1] == "-" or value not in keywords.get("choices", (value,)):
            return None
        try:
            values[flag] = keywords.get("type", str)(value)
        except ValueError:
            return None
    run = [argv[1 + i] for i in at]
    if at and at[-1] - at[0] != len(at) - 1:  # a flag splits the run
        return None
    for arg, keywords in rows:
        if arg[0] != "-":  # the command's one positional
            if not run or len(run) > 1 and "nargs" not in keywords:
                return None
            values[arg], run = run if "nargs" in keywords else run[0], []
    return None if run else SimpleNamespace(command=argv[0], func=func, **{
        arg.lstrip("-").replace("-", "_"): value for arg, value in values.items()})


def _exit_code(exc: LambkitError) -> int:
    if isinstance(exc, (SolverError, DispersionRangeError, SensitivityError)):
        return EXIT_SOLVER
    if isinstance(exc, (DesignError, PackingError, CoordinateError)):
        return EXIT_DESIGN
    if isinstance(exc, StatisticsError):
        return EXIT_STATS
    return EXIT_USAGE


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # the variable is read once, as numpy loads
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:  # argparse's result, or its help and usage texts
        try:
            args = build_parser().parse_args(argv)
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


def run() -> None:
    """The process entry point: main(), the atexit callbacks, stdout and stderr
    flushed, then os._exit, which skips the interpreter's teardown.  A failed
    flush prints main()'s one-line OSError report and exits non-zero."""
    code = main()
    hooks = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage
    if sys.gettrace() or sys.getprofile() or hooks and any(map(hooks.get_tool, range(6))):
        sys.exit(code)  # a tracer or profiler sees the end
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError as exc:
        code = code or EXIT_USAGE
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr is gone too: the exit code is all that is left
            pass
    os._exit(code)


if __name__ == "__main__":
    run()

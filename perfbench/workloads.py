"""The four benchmark workloads: seeded inputs, command sequences, checks.

A workload is a fixed sequence of ``lambkit`` subcommands run one after
another, the way a user at a terminal runs them.  ``prepare`` writes the
seeded input files, ``commands`` lists the argv of each command for one pass
(each command gets its own fresh ``--out`` directory), and ``check`` verifies
the outputs of one pass against references computed here, not read back from
the program's own reports.

Tolerances come from the repository's acceptance tests:

- dispersion values against a direct ``solve_at_k``: 1e-6 relative
  (criterion 3);
- interpolated and first-order frequencies (design ``f_mid_hz``, wafer
  sites) against a direct solve: 1e-4 relative
  (``test_full_resolve_matches_first_order``);
- fitted mBVD metrics against the generating model: f_r 5e-4, k_eff_sq 5 %,
  q_r 10 % relative (criterion 1).
"""

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

DISPERSION_RTOL = 1e-6
PROPAGATED_RTOL = 1e-4
FIT_F_RTOL = 5e-4
FIT_K_RTOL = 0.05
FIT_Q_RTOL = 0.10

PACKAGED_PITCHES_M = (5.0e-7, 7.5e-7, 1.0e-6, 1.5e-6, 2.0e-6, 2.5e-6,
                      3.0e-6, 3.5e-6, 4.0e-6, 4.5e-6)
SMALL_BAND_M = (5.0e-7, 1.0e-6)  # the two lithography bands of lambkit.design
LARGE_BAND_M = (1.5e-6, 4.5e-6)
MODES = ("A0", "A1", "S0", "S1")

FIT_SWEEP_HZ = (0.6e9, 3.4e9, 1601)
FIT_TRACES = 100
FIT_BATCHES = 4  # one ``fit`` command per batch of FIT_TRACES // FIT_BATCHES files
FIT_POPULATION_SEED = 12345  # the DUT models; --seed draws the measurement
FIT_NOISE = 0.005
Z0 = 50.0


@dataclass
class Command:
    """One CLI invocation: ``python -m lambkit.cli <argv>``."""

    name: str
    argv: list
    out: str
    outputs: tuple  # files the command must write into ``out``
    stdout_is_output: bool = False  # hash stdout too (verdict-only commands)


@dataclass
class CheckResult:
    """Check outcome for one pass.

    ``command_errors`` maps a command index to why its output is wrong.
    ``sub_ops``/``sub_failed`` count operations inside commands (fitted
    traces), ``stats`` carries accuracy figures for the traced run.
    """

    command_errors: dict = field(default_factory=dict)
    sub_ops: int = 0
    sub_failed: int = 0
    stats: dict = field(default_factory=dict)


def _lambkit():
    """The program's own modules, imported only where a check needs them."""
    from lambkit import config, dispersion, gdsii, layout

    return config, dispersion, gdsii, layout


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# tapeout


class Tapeout:
    name = "tapeout"

    def prepare(self, seed: int, inputs: str) -> dict:
        rng = np.random.default_rng([seed, 1])
        pitches = []
        for p in PACKAGED_PITCHES_M:
            lo, hi = SMALL_BAND_M if p <= SMALL_BAND_M[1] else LARGE_BAND_M
            jittered = min(max(p * (1.0 + rng.uniform(-0.05, 0.05)), lo), hi)
            pitches.append(round(jittered * 1e9) / 1e9)
        pitches = sorted(set(pitches))
        catalog = os.path.join(inputs, "catalog.json")
        with open(catalog, "w", encoding="utf-8") as fh:
            json.dump({"pitches_m": pitches}, fh)
        return {"seed": seed, "catalog": catalog, "pitches": pitches}

    def commands(self, ctx: dict, pass_dir: str) -> list:
        cat = ctx["catalog"]
        p = ctx["pitches"]
        o = lambda i, n: os.path.join(pass_dir, f"{i}-{n}")
        return [
            Command("disperse", ["disperse", "--pitch-min", repr(p[0]),
                                 "--pitch-max", repr(p[-1]), "--points", "40",
                                 "--modes", ",".join(MODES), "--quiet",
                                 "--out", o(0, "disperse")],
                    o(0, "disperse"), ("dispersion.csv",)),
            Command("design", ["design", "--catalog", cat, "--quiet",
                               "--out", o(1, "design")],
                    o(1, "design"), ("designs.json",)),
            Command("layout", ["layout", "--catalog", cat, "--wafer-map",
                               "--out", o(2, "layout")],
                    o(2, "layout"), ("chip.gds", "reticle.gds", "wafer_map.csv")),
            # both packaged flows pass the rule check today: exit 0
            Command("flow-check-aln", ["flow-check", "alscn-aln-adhesion",
                                       "--out", o(3, "flow")],
                    o(3, "flow"), (), stdout_is_output=True),
            Command("flow-check-ti", ["flow-check", "alscn-ti-adhesion",
                                      "--out", o(4, "flow")],
                    o(4, "flow"), (), stdout_is_output=True),
        ]

    def check(self, ctx: dict, cmds: list, stdouts: list) -> CheckResult:
        config, dispersion, gdsii, layout = _lambkit()
        plate = config.load_config().plate
        rng = np.random.default_rng([ctx["seed"], 2])
        res = CheckResult()
        worst = 0.0

        # dispersion.csv: every mode present, sampled rows vs a direct solve
        with open(os.path.join(cmds[0].out, "dispersion.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        for mode in MODES:
            mine = [r for r in rows if r["mode"] == mode]
            if not mine:
                errors.append(f"no {mode} rows")
                continue
            for i in rng.choice(len(mine), size=min(3, len(mine)), replace=False):
                k = float(mine[i]["k_rad_m"])
                err = _rel(float(mine[i]["f_hz"]), dispersion.solve_at_k(plate, mode, k))
                worst = max(worst, err)
                if err > DISPERSION_RTOL:
                    errors.append(f"{mode} at k={k:.6g}: rel err {err:.2e}")
        if errors:
            res.command_errors[0] = "; ".join(errors)

        # designs.json: one design per catalog pitch, f_mid vs a direct solve
        with open(os.path.join(cmds[1].out, "designs.json")) as fh:
            designs = json.load(fh)["designs"]
        errors = []
        if sorted(d["pitch_m"] for d in designs) != ctx["pitches"]:
            errors.append("design pitches differ from the catalog")
        for d in designs:
            ref = dispersion.solve_at_k(plate, d["mode"], math.pi / d["pitch_m"])
            err = _rel(d["f_mid_hz"], ref)
            worst = max(worst, err)
            if err > PROPAGATED_RTOL:
                errors.append(f"{d['design_id']}: f_mid rel err {err:.2e}")
        if errors:
            res.command_errors[1] = "; ".join(errors)

        # chip.gds and reticle.gds re-parse; one wafer_map.csv row per placement
        errors = []
        for name in ("chip.gds", "reticle.gds"):
            with open(os.path.join(cmds[2].out, name), "rb") as fh:
                data = fh.read()
            try:
                lib = gdsii.read_gdsii(data)
            except Exception as exc:  # any parse failure is a wrong output
                errors.append(f"{name} does not re-parse: {exc}")
                continue
            if not any(c.polygons for c in lib.cells):
                errors.append(f"{name} holds no polygons")
        with open(os.path.join(cmds[2].out, "wafer_map.csv"), newline="") as fh:
            site_ids = [r["site_id"] for r in csv.DictReader(fh)]
        m = re.search(r"^(\d+) placements$", stdouts[2], re.MULTILINE)
        if m is None or int(m.group(1)) != len(site_ids):
            errors.append(f"wafer_map.csv has {len(site_ids)} rows, layout "
                          f"reported {m.group(1) if m else 'no'} placements")
        if len(set(site_ids)) != len(site_ids):
            errors.append("wafer_map.csv repeats a site id")
        if errors:
            res.command_errors[2] = "; ".join(errors)
        res.stats["dispersion.max_rel_err"] = worst
        return res


# ---------------------------------------------------------------------------
# wafer and wafer-resolve


def _first_order(plate, mode, pitch, t_local, p_local, step=1e-3):
    """The documented first-order propagation, rebuilt from direct solves:
    nominal frequency times exp(s_h ln(t/h) + s_p ln(p/pitch)), with the log
    sensitivities from central differences of ``solve_at_k``."""
    _, dispersion, _, _ = _lambkit()
    solve = dispersion.solve_at_k
    k = math.pi / pitch
    dln = math.log((1.0 + step) / (1.0 - step))
    s_h = math.log(solve(plate.scaled(1.0 + step), mode, k)
                   / solve(plate.scaled(1.0 - step), mode, k)) / dln
    s_p = math.log(solve(plate, mode, k / (1.0 + step))
                   / solve(plate, mode, k / (1.0 - step))) / dln
    return solve(plate, mode, k) * math.exp(
        s_h * math.log(t_local / plate.h) + s_p * math.log(p_local / pitch))


def _check_sites(ctx, sites_path, pitches, res, cmd_index, first_order, n_sample=6):
    """Site count, one site per (die, pitch), and sampled sites against direct
    solves.  A full re-solve must match a direct solve at the site's recorded
    local thickness and pitch; a first-order site must match the first-order
    expansion rebuilt from direct solves.  ``dispersion.max_rel_err`` is the
    distance to the direct solve at the local geometry either way."""
    config, dispersion, _, layout = _lambkit()
    cfg = config.load_config()
    with open(sites_path) as fh:
        doc = json.load(fh)
    sites = doc["sites"]
    errors = []
    n_dies = len(layout.gen_wafer_map(cfg.chip, cfg.wafer))
    if len(sites) != n_dies * len(pitches):
        errors.append(f"{len(sites)} sites, expected {n_dies} dies x {len(pitches)} pitches")
    keys = {(s["site_id"], s["pitch_m"]) for s in sites}
    if len(keys) != len(sites):
        errors.append("a (site, pitch) pair repeats")
    if doc.get("seed") != ctx["seed"]:
        errors.append(f"sites.json echoes seed {doc.get('seed')}, ran {ctx['seed']}")
    rng = np.random.default_rng([ctx["seed"], 3])
    worst = 0.0
    for i in rng.choice(len(sites), size=min(n_sample, len(sites)), replace=False):
        s = sites[i]
        t_local, p_local = s["local_thickness_m"], s["local_pitch_m"]
        local = dispersion.PlateSpec(cfg.material, t_local)
        for mode, m in s["metrics"].items():
            direct = dispersion.solve_at_k(local, mode, math.pi / p_local)
            worst = max(worst, _rel(m["f_r_hz"], direct))
            ref = direct
            if first_order:
                ref = _first_order(cfg.plate, mode, s["pitch_m"], t_local, p_local)
            err = _rel(m["f_r_hz"], ref)
            if err > PROPAGATED_RTOL:
                errors.append(f"site {s['site_id']} {mode}: rel err {err:.2e}")
    if errors:
        res.command_errors[cmd_index] = "; ".join(errors)
    res.stats["dispersion.max_rel_err"] = worst
    return sites


class Wafer:
    name = "wafer"

    def prepare(self, seed: int, inputs: str) -> dict:
        return {"seed": seed, "pitches": PACKAGED_PITCHES_M}

    def commands(self, ctx: dict, pass_dir: str) -> list:
        sim = os.path.join(pass_dir, "0-simulate")
        stats = os.path.join(pass_dir, "1-stats")
        reports = ("deviation.csv", "trend.csv")
        return [
            Command("simulate-wafer", ["simulate-wafer", "--seed", str(ctx["seed"]),
                                       "--quiet", "--out", sim],
                    sim, ("sites.json",) + reports),
            Command("stats", ["stats", os.path.join(sim, "sites.json"),
                              "--heatmap", "S0:2e-06", "--quiet", "--out", stats],
                    stats, reports + ("heatmap.csv",)),
        ]

    def check(self, ctx: dict, cmds: list, stdouts: list) -> CheckResult:
        res = CheckResult()
        sites = _check_sites(ctx, os.path.join(cmds[0].out, "sites.json"),
                             ctx["pitches"], res, 0, first_order=True)
        with open(os.path.join(cmds[1].out, "heatmap.csv"), newline="") as fh:
            n_rows = sum(1 for _ in csv.DictReader(fh))
        expected = sum(1 for s in sites if s["pitch_m"] == 2e-6 and "S0" in s["metrics"])
        if n_rows != expected:
            res.command_errors[1] = f"heatmap.csv has {n_rows} rows, expected {expected}"
        return res


class WaferResolve:
    name = "wafer-resolve"
    pitch_m = 2.0e-6  # one design pitch: 83 dies x 4 modes of local re-solves

    def prepare(self, seed: int, inputs: str) -> dict:
        return {"seed": seed, "pitches": (self.pitch_m,)}

    def commands(self, ctx: dict, pass_dir: str) -> list:
        out = os.path.join(pass_dir, "0-simulate")
        return [
            Command("simulate-wafer-full", ["simulate-wafer", "--full-resolve",
                                            "--pitches", repr(self.pitch_m),
                                            "--seed", str(ctx["seed"]),
                                            "--quiet", "--out", out],
                    out, ("sites.json", "deviation.csv", "trend.csv")),
        ]

    def check(self, ctx: dict, cmds: list, stdouts: list) -> CheckResult:
        res = CheckResult()
        _check_sites(ctx, os.path.join(cmds[0].out, "sites.json"),
                     ctx["pitches"], res, 0, first_order=False, n_sample=10)
        return res


# ---------------------------------------------------------------------------
# fit-batch


def _random_model(rng, step_hz: float):
    """Single-branch criterion-1 style model whose resonance sits inside the
    sweep and whose -3 dB width spans at least two grid steps."""
    c0 = 10 ** rng.uniform(-12.3, -11.7)
    rs = rng.uniform(0.5, 3.0)
    f_r = rng.uniform(0.8e9, 3.0e9)
    k2 = rng.uniform(0.004, 0.08)
    c_m = k2 / (1 - k2) * c0
    w = 2 * math.pi * f_r
    q_cap = min(0.9 / (w * c_m * rs), f_r / (2.0 * step_hz), 2000.0)
    q = rng.uniform(min(250.0, 0.5 * q_cap), q_cap)
    r_m = max(1.0 / (w * c_m * q) - rs, 0.05)
    truth = {"f_r": f_r, "q_r": 1.0 / (w * c_m * (r_m + rs)), "k_eff_sq": c_m / (c_m + c0)}
    return c0, rs, (r_m, 1.0 / (w * w * c_m), c_m), truth


def _write_s1p(path: str, f, s, comment: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"! {comment}\n# Hz S RI R {Z0:g}\n")
        for fi, si in zip(f, s):
            fh.write(f"{fi:.10g} {si.real:.12e} {si.imag:.12e}\n")


class FitBatch:
    """``fit --branches 1`` over raw single-resonance DUT files, OSL
    corrected with measured short/open/load standards, in four commands of
    25 files each, as a user reduces one reticle's measurements at a time.

    The DUT models are one fixed population; ``--seed`` draws what changes
    between measurement sessions: the error box of the cabled setup and the
    0.5 % noise.  With a fixed population the share of fits that land on the
    wrong resonance is a property of the program, not of the draw.
    """

    name = "fit-batch"

    def prepare(self, seed: int, inputs: str) -> dict:
        population = np.random.default_rng(FIT_POPULATION_SEED)
        rng = np.random.default_rng([seed, 4])
        f = np.linspace(*FIT_SWEEP_HZ)
        # Frequency-dependent error box of a cabled one-port: directivity,
        # source match and a delayed reflection tracking term.
        tau = rng.uniform(0.5e-9, 2.0e-9)
        e00 = rng.uniform(0.02, 0.06) * np.exp(1j * (rng.uniform(0, 2 * math.pi) - 2 * math.pi * f * 0.3e-9))
        e11 = rng.uniform(0.03, 0.10) * np.exp(1j * (rng.uniform(0, 2 * math.pi) - 2 * math.pi * f * 0.2e-9))
        e10e01 = rng.uniform(0.7, 0.95) * np.exp(-2j * math.pi * f * tau)

        def measured(gamma):
            return e00 + e10e01 * gamma / (1.0 - e11 * gamma)

        cal = {}
        for std, gamma in (("short", -1.0), ("open", 1.0), ("load", 0.0)):
            cal[std] = os.path.join(inputs, f"{std}.s1p")
            _write_s1p(cal[std], f, measured(np.full(f.size, gamma, dtype=complex)),
                       f"measured {std} standard")
        duts = []
        for i in range(FIT_TRACES):
            c0, rs, (r_m, l_m, c_m), truth = _random_model(population, f[1] - f[0])
            jw = 2j * math.pi * f
            y = 1.0 / (rs + 1.0 / (jw * c0 + 1.0 / (r_m + jw * l_m + 1.0 / (jw * c_m))))
            y = y * (1.0 + FIT_NOISE / math.sqrt(2) * (
                rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)))
            path = os.path.join(inputs, f"dut{i:03d}.s1p")
            _write_s1p(path, f, measured((1.0 - Z0 * y) / (1.0 + Z0 * y)), "raw DUT")
            duts.append((f"dut{i:03d}", path, truth))
        return {"seed": seed, "cal": cal, "duts": duts}

    @staticmethod
    def _batches(duts: list) -> list:
        size = len(duts) // FIT_BATCHES
        return [duts[i * size:(i + 1) * size] for i in range(FIT_BATCHES)]

    def commands(self, ctx: dict, pass_dir: str) -> list:
        cal = ctx["cal"]
        cmds = []
        # A file whose fit fails is reported on stderr and writes nothing;
        # the check counts it as a failed trace, not a failed command.
        for i, batch in enumerate(self._batches(ctx["duts"])):
            out = os.path.join(pass_dir, f"{i}-fit")
            cmds.append(Command(
                f"fit-{i}", ["fit", *[p for _, p, _ in batch], "--branches", "1",
                             "--cal-short", cal["short"], "--cal-open", cal["open"],
                             "--cal-load", cal["load"], "--quiet", "--out", out],
                out, ()))
        return cmds

    def check(self, ctx: dict, cmds: list, stdouts: list) -> CheckResult:
        """Each fitted trace is an operation: it fails when its report is
        missing or its branch misses the criterion-1 bounds."""
        res = CheckResult()
        for cmd, batch in zip(cmds, self._batches(ctx["duts"])):
            for stem, _, truth in batch:
                res.sub_ops += 1
                res.sub_failed += not self._in_bounds(cmd.out, stem, truth)
        res.stats["mbvd.fit_in_bounds_ratio"] = 1.0 - res.sub_failed / res.sub_ops
        return res

    @staticmethod
    def _in_bounds(out: str, stem: str, truth: dict) -> bool:
        path = os.path.join(out, f"{stem}_metrics.json")
        if not os.path.exists(path):
            return False
        with open(path) as fh:
            fitted = json.load(fh)["branches"]
        return len(fitted) == 1 and (
            _rel(fitted[0]["f_r_hz"], truth["f_r"]) <= FIT_F_RTOL
            and _rel(fitted[0]["q_r"], truth["q_r"]) <= FIT_Q_RTOL
            and _rel(fitted[0]["k_eff_sq"], truth["k_eff_sq"]) <= FIT_K_RTOL)


WORKLOADS = {w.name: w for w in (Tapeout(), Wafer(), WaferResolve(), FitBatch())}

"""Wafer-map frequency statistics and a seeded thickness/pitch variation model.

Frequency deviation across the wafer is summarized per (mode, pitch) group as
the population relative standard deviation in percent, reduced with a stdlib
copy of numpy's pairwise sum: numpy's doubles, and no numpy loaded.  Only
simulate_wafer imports dispersion.  Its Monte Carlo model samples a quadratic
radial thickness profile plus Gaussian noise and a per-design pitch jitter,
then maps both to frequency through the log sensitivities or, with
full_resolve (the CLI's --full-resolve), at each site's own geometry, both
from the memoised dispersion lattice.  Every draw comes from a per-die stream
spawned from one master seed: numpy's SeedSequence/PCG64/ziggurat streams,
reproduced in the stdlib by lambkit.rng, so a seed gives the same bytes as
with numpy.  The model is the config's variation section, with each mode's
q_r and k_eff_sq from its mode_quality.  The site records hold plain ints and
floats, so sites_json writes each site line from them as json.dumps would.
"""

from __future__ import annotations

import json
import math
import sys
from functools import reduce
from operator import add, index, itemgetter
from typing import TYPE_CHECKING

from . import MODE_NAMES
from .errors import (DispersionRangeError, InputError, PackingError, SolverError,
                     StatisticsError, is_json_number, json_number, json_object, shown)
from .record import dataclass

if TYPE_CHECKING:  # annotations only: stats loads no numpy, config or layout
    from .config import ChipConfig, VariationConfig, WaferConfig
    from .dispersion import PlateSpec

__all__ = [
    "ModeMetrics",
    "WaferSite",
    "DeviationRow",
    "DeviationReport",
    "TrendPoint",
    "TrendSeries",
    "relstd",
    "group_sites",
    "per_mode_deviation",
    "metrics_vs_frequency",
    "simulate_wafer",
    "deviation_csv_rows",
    "trend_csv_rows",
    "heatmap_csv_rows",
    "sites_to_dict",
    "sites_json",
    "sites_from_dict",
]


def _sum(x) -> float:
    """numpy's pairwise sum (loops_utils.h.src), so the mean and std match numpy's
    bit for bit without loading it; not sum(), compensated since Python 3.12."""
    n = len(x)
    if n < 8:
        return reduce(add, x, 0.0)
    if n <= 128:  # eight interleaved accumulators, then the tail
        m = n - n % 8
        r = [reduce(add, x[j:m:8]) for j in range(8)]
        return reduce(add, x[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _sum(x[:half]) + _sum(x[half:])


def _mean_std(x, mean=None) -> tuple:
    """Mean and population standard deviation of a list of floats, about mean if given."""
    mean = _sum(x) / len(x) if mean is None else mean
    return mean, math.sqrt(_sum([(d := v - mean) * d for v in x]) / len(x))


def _relstd(x, mean: float) -> float:
    """relstd of x, whose mean is given."""
    spread = _mean_std(x, mean)[1]
    # identical values can leave rounding dust when the pairwise-summed mean
    # lands an ulp off; snap that to an honest zero
    return 0.0 if spread <= 16.0 * sys.float_info.epsilon * mean else spread / mean * 100.0


def relstd(values) -> float:
    """Population standard deviation over mean, in percent.

    Needs at least two positive values; constant data gives exactly 0.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise StatisticsError(f"relstd needs >= 2 values, got {len(values)}")
    if not all(v > 0.0 for v in values):
        raise StatisticsError("relstd needs strictly positive values")
    return _relstd(values, _sum(values) / len(values))


def _plain(record, names, inf_ok=None) -> None:
    """Store record's named fields as plain ints and floats, whose repr is what json.dumps
    writes; InputError names the first that is_json_number refuses (inf_ok may be +inf)."""
    fields = record.__dict__
    for name in names:
        value = fields[name]
        if not (is_json_number(value) or (name == inf_ok and value == math.inf
                                          and isinstance(value, float))):
            raise InputError(f"{name} must be a finite number, got {shown(value)}")
        fields[name] = float(value) if isinstance(value, float) else int(value)


@dataclass(frozen=True)
class ModeMetrics:
    """Per-branch scalar metrics, stored as plain floats or ints (a numpy float
    as the float it equals).  q_r is math.inf for a lossless branch."""

    f_r: float
    f_a: float
    q_r: float
    k_eff_sq: float

    def __post_init__(self):
        f_r, f_a, q_r, k_eff_sq = self.f_r, self.f_a, self.q_r, self.k_eff_sq
        if not type(f_r) is type(f_a) is type(q_r) is type(k_eff_sq) is float:
            _plain(self, ("f_r", "f_a", "q_r", "k_eff_sq"), "q_r")
        if not (0 < f_r < f_a < math.inf):
            raise InputError("need 0 < f_r < f_a < inf")
        if not q_r > 0:
            raise InputError("q_r must be positive")
        if not 0 < k_eff_sq < 1:
            raise InputError("k_eff_sq must be in (0, 1)")

    def to_dict(self) -> dict:
        return {"f_r_hz": self.f_r, "f_a_hz": self.f_a, "q_r": self.q_r,
                "k_eff_sq": self.k_eff_sq}


_MODES = frozenset(MODE_NAMES)
_is_mode_metrics = ModeMetrics.__instancecheck__
_SITE_NUMBERS = ("x_mm", "y_mm", "pitch_m", "local_thickness_m", "local_pitch_m")
_site_numbers = itemgetter("site_id", *_SITE_NUMBERS)
_id_and_f = itemgetter(0, 1)


@dataclass(frozen=True)
class WaferSite:
    """Metrics of one design measured on one die.

    Coordinates are die centers in mm from the wafer center.  Modes whose
    perturbed evaluation failed are listed once each in failed_modes and carry
    no metrics.  local_thickness_m / local_pitch_m echo the sampled values for
    validation; 0 means unknown (hand-built site).  Numbers are stored as in
    ModeMetrics, and site_id as a plain int."""

    site_id: int
    x_mm: float
    y_mm: float
    pitch_m: float
    metrics: dict
    failed_modes: tuple = ()
    local_thickness_m: float = 0.0
    local_pitch_m: float = 0.0

    def __post_init__(self):
        fields = self.__dict__
        site_id, x, y, pitch, thickness, local_pitch = _site_numbers(fields)
        if type(site_id) is not int:  # a numpy integer is stored as the int it equals
            usable = hasattr(site_id, "__index__") and not isinstance(site_id, bool)
            fields["site_id"] = index(site_id) if usable else -1
        if not 0 <= self.site_id <= sys.float_info.max:  # and a JSON number, as every field
            raise InputError(f"site_id must be a non-negative integer, got {shown(site_id)}")
        if not (type(x) is type(y) is type(pitch) is type(thickness) is type(local_pitch) is float
                and math.isfinite(x + y + pitch + thickness + local_pitch)):
            _plain(self, _SITE_NUMBERS)  # also where a sum of finite floats overflowed
        if not pitch > 0.0:
            raise InputError("site pitch must be positive")
        metrics = fields["metrics"] = dict(self.metrics)
        if not (metrics.keys() <= _MODES and all(map(_is_mode_metrics, metrics.values()))):
            for mode, m in metrics.items():  # name the fault
                if mode not in _MODES:
                    raise InputError(f"unknown mode {mode!r} in site metrics")
                if not isinstance(m, ModeMetrics):
                    raise InputError("site metrics values must be ModeMetrics")
        failed = fields["failed_modes"] = tuple(self.failed_modes)
        if failed:
            for i, mode in enumerate(failed):
                if mode not in MODE_NAMES:
                    raise InputError(f"unknown mode in failed_modes {shown(failed)}")
                if mode in failed[:i]:  # group_sites would count the site twice
                    raise InputError(f"failed_modes repeats the mode {mode!r}")
            if set(failed) & set(metrics):
                raise InputError("a mode cannot both fail and carry metrics")


@dataclass(frozen=True)
class DeviationRow:
    mode: str
    pitch_m: float
    mean_f_hz: float
    relstd_pct: float
    n: int
    excluded: int = 0

    def __post_init__(self):
        if self.relstd_pct < 0.0:
            raise InputError("relstd must be >= 0")
        if self.n < 2:
            raise InputError("a reported relstd needs >= 2 sites")


@dataclass(frozen=True)
class DeviationReport:
    rows: tuple
    warnings: tuple = ()

    def row(self, mode: str, pitch_m: float) -> DeviationRow:
        for r in self.rows:
            if r.mode == mode and math.isclose(r.pitch_m, pitch_m, rel_tol=1e-9):
                return r
        raise KeyError(f"no group ({mode}, {pitch_m})")


class SiteGroups(tuple):
    """group_sites' result, which both reductions take in place of the sites."""


def group_sites(sites) -> SiteGroups:
    """((mode, pitch), metrics, f_values, f_mean, n_excluded) for every group with
    at least two usable sites, sorted by (mode, pitch), and one warning per
    omitted group.  f_values are the group's f_r and f_mean their mean.

    Metrics are sorted by (site_id, f_r) so every aggregate is evaluated in the
    same order no matter how the caller ordered the sites.
    """
    if isinstance(sites, SiteGroups):
        return sites
    sites = list(sites)
    if not sites:
        raise StatisticsError("no sites to aggregate")
    groups: dict = {}
    excluded: dict = {}
    for site in sites:
        for mode, m in site.metrics.items():
            groups.setdefault((mode, site.pitch_m), []).append((site.site_id, m.f_r, m))
        for mode in site.failed_modes:
            key = (mode, site.pitch_m)
            excluded[key] = excluded.get(key, 0) + 1
            groups.setdefault(key, [])
    usable, warnings = [], []
    for key in sorted(groups):
        values = sorted(groups[key], key=_id_and_f)
        n_excl = excluded.get(key, 0)
        if len(values) < 2:
            warnings.append(f"group ({key[0]}, {key[1] * 1e9:.6g} nm): "
                            f"{len(values)} usable site(s), {n_excl} excluded; omitted")
            continue
        _, fs, ms = zip(*values)
        usable.append((key, ms, fs, _sum(fs) / len(fs), n_excl))
    return SiteGroups((usable, tuple(warnings)))


def per_mode_deviation(sites) -> DeviationReport:
    """Group sites by (mode, pitch) and report the frequency relstd of each.

    Fit-failed sites are excluded and counted; groups left with fewer than two
    sites are omitted with a warning entry instead of a row.
    """
    groups, warnings = group_sites(sites)
    rows = [DeviationRow(mode, pitch, f_mean, _relstd(fs, f_mean), len(fs), n_excl)
            for (mode, pitch), _, fs, f_mean, n_excl in groups]
    return DeviationReport(tuple(rows), warnings)


@dataclass(frozen=True)
class TrendPoint:
    mode: str
    pitch_m: float
    mean_f_hz: float
    q_mean: float
    q_std: float
    k_mean: float
    k_std: float
    n: int


@dataclass(frozen=True)
class TrendSeries:
    """Per-mode (mean f_r, q_r band, k_eff_sq band) series, sorted by frequency."""

    points: dict
    warnings: tuple = ()

    # Plateau detection: spread of the q means within this fraction of their mean.
    PLATEAU_REL_SPREAD = 0.05

    def summary_lines(self) -> list:
        lines = []
        for mode in sorted(self.points):
            qs = [p.q_mean for p in self.points[mode]]
            ks = [p.k_mean for p in self.points[mode]]
            q_mean = sum(qs) / len(qs)
            if len(qs) >= 3 and (max(qs) - min(qs)) <= self.PLATEAU_REL_SPREAD * q_mean:
                lines.append(f"{mode}: q_r plateau near {q_mean:.3g}")
            else:
                lines.append(f"{mode}: q_r spans {min(qs):.3g}..{max(qs):.3g}")
            steps = list(zip(ks, ks[1:]))
            if steps and (all(a > b for a, b in steps) or all(a < b for a, b in steps)):
                trend = "decreasing" if ks[0] > ks[1] else "increasing"
                lines.append(f"{mode}: k_eff_sq {trend} from {ks[0]:.3g} to {ks[-1]:.3g}")
            else:
                lines.append(f"{mode}: k_eff_sq spans {min(ks):.3g}..{max(ks):.3g}")
        return lines


def metrics_vs_frequency(sites) -> TrendSeries:
    """Aggregate q_r and k_eff_sq bands per (mode, pitch), ordered by mean f_r."""
    groups, warnings = group_sites(sites)
    per_mode: dict = {}
    for (mode, pitch), ms, _, f_mean, _ in groups:
        q_mean, q_std = _mean_std([m.q_r for m in ms])
        k_mean, k_std = _mean_std([m.k_eff_sq for m in ms])
        per_mode.setdefault(mode, []).append(TrendPoint(
            mode=mode, pitch_m=pitch, mean_f_hz=f_mean, q_mean=q_mean, q_std=q_std,
            k_mean=k_mean, k_std=k_std, n=len(ms)))
    return TrendSeries({mode: tuple(sorted(pts, key=lambda p: p.mean_f_hz))
                        for mode, pts in per_mode.items()}, warnings)


def simulate_wafer(
    variation: VariationConfig,
    seed: int,
    pitches,
    plate: PlateSpec,
    chip_cfg: ChipConfig,
    wafer_cfg: WaferConfig,
    full_resolve: bool = False,
) -> list:
    """Monte Carlo wafer map: one WaferSite per (die placement, design pitch).

    ``pitches`` is a sequence of design electrode pitches in meters.  Local
    thickness at radius r is thickness_center_m - thickness_edge_drop_m *
    (r/R)^2 plus Gaussian noise (a negative drop thickens the edge); local
    pitch is the design pitch plus Gaussian jitter.  Each die draws its
    thickness, and each design on it its pitch, from a per-die stream spawned
    off ``seed``.  Frequencies come from first-order log sensitivities around
    the nominal plate, or from the dispersion at each site's own thickness and
    pitch when ``full_resolve`` is set.  A site whose perturbed
    evaluation fails is flagged, not fatal; nominal failures propagate.  A
    wafer that holds no die is a PackingError.
    """
    from .dispersion import PlateSpec, pitch_to_frequency, sensitivity
    from .layout import gen_wafer_map
    from .rng import normal_stream

    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"seed must be an integer, got {shown(seed)}")
    if seed < 0:  # the config schema's rule, for a --seed override too
        raise InputError(f"seed must be >= 0, got {shown(seed)}")
    pitches = [float(p) for p in pitches]
    if not pitches:
        raise InputError("no designs to simulate")
    if any(p <= 0.0 for p in pitches):
        raise InputError("design pitches must be positive")
    modes = tuple(variation.mode_quality)
    placements = gen_wafer_map(chip_cfg, wafer_cfg)
    if not placements:
        usable = wafer_cfg.diameter_m - 2.0 * wafer_cfg.edge_exclusion_m
        raise PackingError(
            f"no chip fits the usable wafer diameter of {usable:g} m "
            f"(edge exclusion {wafer_cfg.edge_exclusion_m:g} m)"
        )

    quality = {}  # each mode's f_a/f_r ratio, q_r and k_eff_sq, read once per run
    for mode, entry in variation.mode_quality.items():
        k2 = float(entry["k_eff_sq"])
        quality[mode] = (math.sqrt(1.0 + k2 / (1.0 - k2)), float(entry["q_r"]), k2)
    # Nominal frequency and log sensitivities per (pitch, mode); failures
    # here violate the documented precondition and propagate to the caller.
    designs = [(pitch, [(mode, pitch_to_frequency(pitch, mode, plate),
                         *sensitivity(plate, mode, math.pi / pitch), *quality[mode])
                        for mode in modes]) for pitch in pitches]
    radius = wafer_cfg.radius_m
    sites = []
    for i, placement in enumerate(placements):
        normal = normal_stream(seed, i)
        cx, cy = placement.center(chip_cfg)
        r = math.hypot(cx, cy)
        t_profile = variation.thickness_center_m - variation.thickness_edge_drop_m * (r / radius) ** 2
        t_local = t_profile + normal(0.0, variation.thickness_noise_sigma_m)
        if t_local > 0.0:  # this die's thickness term: its own plate, or ln(t_local/h)
            local_plate = PlateSpec(plate.material, t_local) if full_resolve else None
            ln_t = None if full_resolve else math.log(t_local / plate.h)
        for pitch, terms in designs:
            p_local = pitch + normal(0.0, variation.pitch_sigma_m)
            metrics = {}
            if t_local <= 0.0 or p_local <= 0.0:  # non-physical: every mode fails
                failed = modes
            else:
                failed, ln_p = [], None if full_resolve else math.log(p_local / pitch)
                for mode, f_nom, s_h, s_p, ratio, q_r, k2 in terms:
                    if full_resolve:
                        try:
                            f_site = pitch_to_frequency(p_local, mode, local_plate)
                        except (SolverError, DispersionRangeError):
                            failed.append(mode)
                            continue
                    else:
                        f_site = f_nom * math.exp(s_h * ln_t + s_p * ln_p)
                    metrics[mode] = ModeMetrics(f_site, f_site * ratio, q_r, k2)
            sites.append(WaferSite(placement.site_id, cx * 1e3, cy * 1e3, pitch, metrics,
                                   tuple(failed), t_local, p_local))
    return sites


# ------------------------------------------------------------- serialization


def deviation_csv_rows(report: DeviationReport) -> list:
    return ["mode,pitch,mean_f_Hz,relstd_pct,n",
            *(f"{r.mode},{r.pitch_m:.9g},{r.mean_f_hz:.10g},{r.relstd_pct:.8g},{r.n}"
              for r in report.rows)]


def trend_csv_rows(series: TrendSeries) -> list:
    return ["mode,pitch,mean_f_Hz,q_mean,q_std,k_eff_sq_mean,k_eff_sq_std,n",
            *(f"{p.mode},{p.pitch_m:.9g},{p.mean_f_hz:.10g},"
              f"{p.q_mean:.8g},{p.q_std:.8g},{p.k_mean:.8g},{p.k_std:.8g},{p.n}"
              for mode in sorted(series.points) for p in series.points[mode])]


def heatmap_csv_rows(sites, mode: str, pitch_m: float) -> list:
    """Heatmap-ready rows for one (mode, pitch) group, in site order."""
    return ["x_mm,y_mm,f_Hz", *(f"{s.x_mm:.6g},{s.y_mm:.6g},{s.metrics[mode].f_r:.10g}"
                                for s in sites if mode in s.metrics
                                and math.isclose(s.pitch_m, pitch_m, rel_tol=1e-9))]


def _site_json(s) -> str:
    metrics = ", ".join([f'"{mode}": {{"f_r_hz": {m.f_r!r}, "f_a_hz": {m.f_a!r}, '
                         f'"q_r": {m.q_r!r}, "k_eff_sq": {m.k_eff_sq!r}}}'
                         for mode, m in sorted(s.metrics.items())])
    failed = f', "failed_modes": {json.dumps(list(s.failed_modes))}' if s.failed_modes else ""
    thickness = f', "local_thickness_m": {s.local_thickness_m!r}' if s.local_thickness_m else ""
    pitch = f', "local_pitch_m": {s.local_pitch_m!r}' if s.local_pitch_m else ""
    return (f'{{"site_id": {s.site_id!r}, "x_mm": {s.x_mm!r}, "y_mm": {s.y_mm!r}, '
            f'"pitch_m": {s.pitch_m!r}, "metrics": {{{metrics}}}{failed}{thickness}{pitch}}}')


def sites_json(sites, seed: int | None = None) -> str:
    """JSON document for a wafer map, one site per line, that echoes the seed.
    Each line is what json.dumps writes for the site's object: records hold
    plain ints and floats, whose repr json.dumps writes, mode names need no
    escapes, and a lossless q_r, a site's one non-finite number, reads Infinity."""
    body = ",\n".join(map(_site_json, sites)).replace('"q_r": inf,', '"q_r": Infinity,')
    seed = "" if seed is None else f', "seed": {int(seed)!r}'
    return f'{{"sites": [\n{body}\n]{seed}}}'


def sites_to_dict(sites, seed: int | None = None) -> dict:
    """sites_json's document as Python objects."""
    return json.loads(sites_json(sites, seed))


_METRIC_KEYS = ("f_r_hz", "f_a_hz", "q_r", "k_eff_sq")
_metric_values = itemgetter(*_METRIC_KEYS)
_site_values = itemgetter("site_id", "x_mm", "y_mm", "pitch_m")


def _numbers(obj: dict, keys, path: str, default=None) -> list:
    """obj's values at keys; InputError names path.key of the first non-number (q_r may be inf)."""
    values = [obj.get(key, default) for key in keys]
    for key, value in zip(keys, values):
        if not (key == "q_r" and value == math.inf):
            json_number(value, f"{path}.{key}")
    return values


def _checked_site(entry, path: str) -> list:
    """[metrics, failed_modes, site_id, x, y, pitch, local thickness, local
    pitch] of a site entry, checking one value at a time in document order."""
    entry = json_object(entry, path)
    failed = entry.get("failed_modes", [])
    if not isinstance(failed, list):
        raise InputError(f"{path}.failed_modes must be an array")
    metrics = {}
    for mode, m in json_object(entry.get("metrics", {}), f"{path}.metrics").items():
        at = f"{path}.metrics.{mode}"
        metrics[mode] = ModeMetrics(*_numbers(json_object(m, at), _METRIC_KEYS, at))
    (site_id,) = _numbers(entry, ("site_id",), path)
    if site_id < 0 or site_id != int(site_id):
        raise InputError(f"{path}.site_id must be a non-negative integer, got {site_id!r}")
    return [metrics, failed, site_id, *_numbers(entry, ("x_mm", "y_mm", "pitch_m"), path),
            *_numbers(entry, ("local_thickness_m", "local_pitch_m"), path, 0.0)]


def _site(entry):
    """The WaferSite of a site entry that holds every key, with values the
    records take as they are; None for any other entry."""
    if type(entry) is dict and type(entry.get("failed_modes", [])) is list:
        try:  # a missing key, an array or string for an object, a value a record refuses
            metrics = {mode: ModeMetrics(*_metric_values(m))
                       for mode, m in entry.get("metrics", {}).items()}
            return WaferSite(*_site_values(entry), metrics, tuple(entry.get("failed_modes", ())),
                             entry.get("local_thickness_m", 0.0), entry.get("local_pitch_m", 0.0))
        except (AttributeError, KeyError, TypeError, InputError):
            pass
    return None


def sites_from_dict(doc: dict) -> list:
    """Sites from a wafer map document; InputError names the JSON path of a
    bad value.  Every number must be finite, except a q_r of Infinity: the
    lossless branch of ModeMetrics, which sites_json writes that way.  A
    repeated (site_id, pitch_m) pair, one site counted twice, is an InputError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("sites"), list):
        raise InputError("wafer map document must be an object with a 'sites' array")
    sites, seen = [], {}
    for i, entry in enumerate(doc["sites"]):
        path = f"sites[{i}]"
        site = _site(entry)
        if site is None:  # the first bad value, then a repeat, then the site's own checks
            metrics, failed, site_id, x, y, pitch, *local = _checked_site(entry, path)
        else:
            site_id, pitch = site.site_id, site.pitch_m
        first = seen.setdefault((site_id, pitch), path)
        if first != path:
            raise InputError(f"{path} repeats the site_id {site_id!r} and pitch_m {pitch!r} "
                             f"of {first}")
        sites.append(site if site is not None else
                     WaferSite(int(site_id), x, y, pitch, metrics, tuple(failed), *local))
    return sites

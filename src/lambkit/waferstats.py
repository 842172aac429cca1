"""Wafer-map frequency statistics and a seeded thickness/pitch variation model.

Frequency deviation across the wafer is summarized per (mode, pitch) group as
the population relative standard deviation in percent, reduced with a stdlib
copy of numpy's pairwise sum: numpy's doubles, and no numpy loaded to reduce
a sites document.  Only simulate_wafer imports numpy and dispersion.  Its
Monte Carlo model samples a quadratic radial thickness profile plus Gaussian
noise and a per-design pitch jitter, then maps both to frequency through the
log sensitivities or, with full_resolve, at each site's own geometry.  Both
read the memoised dispersion lattice, so a wafer simulates in milliseconds.
Every random draw comes from a per-site stream spawned from one master seed:
results are bit-reproducible and sites can be evaluated in any order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

from . import MODE_NAMES
from .errors import (
    DispersionRangeError, InputError, SolverError, StatisticsError, json_number, json_object, shown)

if TYPE_CHECKING:  # annotations only: stats loads no numpy, config or layout
    from .config import ChipConfig, ToolkitConfig, WaferConfig
    from .dispersion import PlateSpec

__all__ = [
    "ModeMetrics",
    "VariationModel",
    "WaferSite",
    "DeviationRow",
    "DeviationReport",
    "TrendPoint",
    "TrendSeries",
    "relstd",
    "per_mode_deviation",
    "metrics_vs_frequency",
    "simulate_wafer",
    "deviation_csv_rows",
    "trend_csv_rows",
    "heatmap_csv_rows",
    "sites_to_dict",
    "sites_from_dict",
]

# Flat fallback when a variation model does not override per-mode quality.
_DEFAULT_MODE_QUALITY = {
    "A0": {"q_r": 700.0, "k_eff_sq": 0.008},
    "S0": {"q_r": 300.0, "k_eff_sq": 0.07},
    "A1": {"q_r": 250.0, "k_eff_sq": 0.04},
    "S1": {"q_r": 250.0, "k_eff_sq": 0.05},
}


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


def _mean_std(x) -> tuple:
    """Mean and population standard deviation of a list of floats."""
    mean = _sum(x) / len(x)
    return mean, math.sqrt(_sum([d * d for d in (v - mean for v in x)]) / len(x))


def relstd(values) -> float:
    """Population standard deviation over mean, in percent.

    Needs at least two positive values; constant data gives exactly 0.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise StatisticsError(f"relstd needs >= 2 values, got {len(values)}")
    if not all(v > 0.0 for v in values):
        raise StatisticsError("relstd needs strictly positive values")
    mean, spread = _mean_std(values)
    # identical values can leave rounding dust when the pairwise-summed mean
    # lands an ulp off; snap that to an honest zero
    if spread <= 16.0 * sys.float_info.epsilon * mean:
        return 0.0
    return spread / mean * 100.0


@dataclass(frozen=True)
class ModeMetrics:
    """Per-branch scalar metrics.  q_r is math.inf for a lossless branch."""

    f_r: float
    f_a: float
    q_r: float
    k_eff_sq: float

    def __post_init__(self):
        if not (0 < self.f_r < self.f_a < math.inf):
            raise InputError("need 0 < f_r < f_a < inf")
        if not self.q_r > 0:
            raise InputError("q_r must be positive")
        if not 0 < self.k_eff_sq < 1:
            raise InputError("k_eff_sq must be in (0, 1)")

    def to_dict(self) -> dict:
        return {"f_r_hz": self.f_r, "f_a_hz": self.f_a, "q_r": self.q_r,
                "k_eff_sq": self.k_eff_sq}


@dataclass(frozen=True)
class VariationModel:
    """Across-wafer variation: quadratic radial thickness profile plus noise.

    Local thickness at radius r is center - edge_drop * (r/R)^2 plus Gaussian
    noise; local pitch is the design pitch plus Gaussian jitter.  mode_quality
    supplies the (q_r, k_eff_sq) pair reported for each simulated mode.
    """

    thickness_center_m: float
    thickness_edge_drop_m: float
    thickness_noise_sigma_m: float
    pitch_sigma_m: float
    seed: int
    full_resolve: bool = False
    mode_quality: dict = field(default_factory=lambda: dict(_DEFAULT_MODE_QUALITY))

    def __post_init__(self):
        if self.thickness_center_m <= 0.0:
            raise InputError("thickness_center_m must be positive")
        if self.thickness_edge_drop_m < 0.0:
            raise InputError("thickness_edge_drop_m must be >= 0")
        if self.thickness_center_m - self.thickness_edge_drop_m <= 0.0:
            raise InputError("thickness profile goes non-positive at the wafer edge")
        if self.thickness_noise_sigma_m < 0.0 or self.pitch_sigma_m < 0.0:
            raise InputError("noise sigmas must be >= 0")
        quality = {}
        for mode, entry in dict(self.mode_quality).items():
            if mode not in MODE_NAMES:
                raise InputError(f"unknown mode {mode!r} in mode_quality")
            q = float(entry["q_r"])
            k2 = float(entry["k_eff_sq"])
            if q <= 0.0:
                raise InputError(f"q_r for {mode} must be positive")
            if not 0.0 < k2 < 1.0:
                raise InputError(f"k_eff_sq for {mode} must be in (0, 1)")
            quality[mode] = {"q_r": q, "k_eff_sq": k2}
        if not quality:
            raise InputError("mode_quality must name at least one mode")
        object.__setattr__(self, "mode_quality", quality)

    @classmethod
    def from_config(cls, cfg: ToolkitConfig) -> "VariationModel":
        v = cfg.variation
        return cls(
            thickness_center_m=v.thickness_center_m,
            thickness_edge_drop_m=v.thickness_edge_drop_m,
            thickness_noise_sigma_m=v.thickness_noise_sigma_m,
            pitch_sigma_m=v.pitch_sigma_m,
            seed=cfg.seed,
            full_resolve=v.full_resolve,
            mode_quality=v.mode_quality,
        )

    def thickness_at(self, r_m: float, radius_m: float) -> float:
        """Deterministic profile value at radius r (noise not included)."""
        frac = (r_m / radius_m) ** 2
        return self.thickness_center_m - self.thickness_edge_drop_m * frac


@dataclass(frozen=True)
class WaferSite:
    """Metrics of one design measured on one die.

    Coordinates are die centers in mm from the wafer center.  Modes whose
    perturbed evaluation failed are listed in failed_modes and carry no
    metrics.  local_thickness_m / local_pitch_m echo the sampled values for
    validation; 0 means unknown (hand-built site).
    """

    site_id: int
    x_mm: float
    y_mm: float
    pitch_m: float
    metrics: dict
    failed_modes: tuple = ()
    local_thickness_m: float = 0.0
    local_pitch_m: float = 0.0

    def __post_init__(self):
        if isinstance(self.site_id, bool) or not hasattr(self.site_id, "__index__") or self.site_id < 0:
            raise InputError(f"site_id must be a non-negative integer, got {shown(self.site_id)}")
        if not 0.0 < self.pitch_m < math.inf:
            raise InputError("site pitch must be positive and finite")
        if not (math.isfinite(self.x_mm) and math.isfinite(self.y_mm)):
            raise InputError("site coordinates must be finite")
        if not (math.isfinite(self.local_thickness_m) and math.isfinite(self.local_pitch_m)):
            raise InputError("local thickness and pitch must be finite")
        metrics = dict(self.metrics)
        for mode, m in metrics.items():
            if mode not in MODE_NAMES:
                raise InputError(f"unknown mode {mode!r} in site metrics")
            if not isinstance(m, ModeMetrics):
                raise InputError("site metrics values must be ModeMetrics")
        failed = tuple(self.failed_modes)
        if any(mode not in MODE_NAMES for mode in failed):
            raise InputError(f"unknown mode in failed_modes {shown(failed)}")
        if set(failed) & set(metrics):
            raise InputError("a mode cannot both fail and carry metrics")
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "failed_modes", failed)


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

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "mode": r.mode,
                    "pitch_m": r.pitch_m,
                    "mean_f_hz": r.mean_f_hz,
                    "relstd_pct": r.relstd_pct,
                    "n": r.n,
                    "excluded": r.excluded,
                }
                for r in self.rows
            ],
            "warnings": list(self.warnings),
        }


def _usable_groups(sites):
    """((mode, pitch), [ModeMetrics], n_excluded) for every group with at least
    two usable sites, sorted by (mode, pitch), and one warning per omitted group.

    Metrics are sorted by (site_id, f_r) so every aggregate is evaluated in the
    same order no matter how the caller ordered the sites.
    """
    sites = list(sites)
    if not sites:
        raise StatisticsError("no sites to aggregate")
    groups: dict = {}
    excluded: dict = {}
    for site in sites:
        for mode, m in site.metrics.items():
            groups.setdefault((mode, site.pitch_m), []).append((site.site_id, m))
        for mode in site.failed_modes:
            key = (mode, site.pitch_m)
            excluded[key] = excluded.get(key, 0) + 1
            groups.setdefault(key, [])
    usable = []
    warnings = []
    for key in sorted(groups):
        values = sorted(groups[key], key=lambda item: (item[0], item[1].f_r))
        n_excl = excluded.get(key, 0)
        if len(values) < 2:
            warnings.append(
                f"group ({key[0]}, {key[1] * 1e9:.6g} nm): "
                f"{len(values)} usable site(s), {n_excl} excluded; omitted"
            )
            continue
        usable.append((key, [m for _, m in values], n_excl))
    return usable, tuple(warnings)


def per_mode_deviation(sites) -> DeviationReport:
    """Group sites by (mode, pitch) and report the frequency relstd of each.

    Fit-failed sites are excluded and counted; groups left with fewer than two
    sites are omitted with a warning entry instead of a row.
    """
    groups, warnings = _usable_groups(sites)
    rows = []
    for (mode, pitch), ms, n_excl in groups:
        values = [m.f_r for m in ms]
        rows.append(
            DeviationRow(
                mode=mode,
                pitch_m=pitch,
                mean_f_hz=_sum(values) / len(values),
                relstd_pct=relstd(values),
                n=len(values),
                excluded=n_excl,
            )
        )
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
            pts = self.points[mode]
            qs = [p.q_mean for p in pts]
            ks = [p.k_mean for p in pts]
            if len(qs) >= 3 and (max(qs) - min(qs)) <= self.PLATEAU_REL_SPREAD * (
                sum(qs) / len(qs)
            ):
                lines.append(f"{mode}: q_r plateau near {sum(qs) / len(qs):.3g}")
            else:
                lines.append(f"{mode}: q_r spans {min(qs):.3g}..{max(qs):.3g}")
            if len(ks) >= 2 and all(a > b for a, b in zip(ks, ks[1:])):
                lines.append(
                    f"{mode}: k_eff_sq decreasing from {ks[0]:.3g} to {ks[-1]:.3g}"
                )
            elif len(ks) >= 2 and all(a < b for a, b in zip(ks, ks[1:])):
                lines.append(
                    f"{mode}: k_eff_sq increasing from {ks[0]:.3g} to {ks[-1]:.3g}"
                )
            else:
                lines.append(f"{mode}: k_eff_sq spans {min(ks):.3g}..{max(ks):.3g}")
        return lines


def metrics_vs_frequency(sites) -> TrendSeries:
    """Aggregate q_r and k_eff_sq bands per (mode, pitch), ordered by mean f_r."""
    groups, warnings = _usable_groups(sites)
    per_mode: dict = {}
    for (mode, pitch), ms, _ in groups:
        fs = [m.f_r for m in ms]
        q_mean, q_std = _mean_std([m.q_r for m in ms])
        k_mean, k_std = _mean_std([m.k_eff_sq for m in ms])
        per_mode.setdefault(mode, []).append(
            TrendPoint(
                mode=mode,
                pitch_m=pitch,
                mean_f_hz=_sum(fs) / len(fs),
                q_mean=q_mean,
                q_std=q_std,
                k_mean=k_mean,
                k_std=k_std,
                n=len(ms),
            )
        )
    for mode, pts in per_mode.items():
        pts.sort(key=lambda p: p.mean_f_hz)
        per_mode[mode] = tuple(pts)
    return TrendSeries(per_mode, warnings)


def _mode_metrics(model: VariationModel, mode: str, f_r: float) -> ModeMetrics:
    entry = model.mode_quality[mode]
    k2 = entry["k_eff_sq"]
    f_a = f_r * math.sqrt(1.0 + k2 / (1.0 - k2))
    return ModeMetrics(f_r=f_r, f_a=f_a, q_r=entry["q_r"], k_eff_sq=k2)


def simulate_wafer(
    model: VariationModel,
    designs,
    plate: PlateSpec,
    chip_cfg: ChipConfig,
    wafer_cfg: WaferConfig,
) -> list:
    """Monte Carlo wafer map: one WaferSite per (die placement, design pitch).

    ``designs`` is a sequence of electrode pitches in meters.  Each die draws
    its local film thickness from the radial profile plus noise and each
    design on it draws a pitch jitter, all from a per-die stream spawned off
    the master seed.  Frequencies come from first-order log sensitivities
    around the nominal plate, or from the dispersion at each site's own
    thickness and pitch when ``model.full_resolve`` is set.  A site whose
    perturbed evaluation fails is flagged, not fatal; nominal failures
    propagate.
    """
    import numpy as np

    from .dispersion import PlateSpec, pitch_to_frequency, sensitivity
    from .layout import gen_wafer_map

    pitches = [float(p) for p in designs]
    if not pitches:
        raise InputError("no designs to simulate")
    if any(p <= 0.0 for p in pitches):
        raise InputError("design pitches must be positive")
    modes = tuple(model.mode_quality)

    # Nominal frequency and log sensitivities per (mode, pitch); failures
    # here violate the documented precondition and propagate to the caller.
    nominal = {}
    for pitch in pitches:
        k = math.pi / pitch
        for mode in modes:
            f_nom = pitch_to_frequency(pitch, mode, plate)
            s_h, s_p = sensitivity(plate, mode, k)
            nominal[(mode, pitch)] = (f_nom, s_h, s_p)

    placements = gen_wafer_map(chip_cfg, wafer_cfg)
    streams = np.random.SeedSequence(model.seed).spawn(len(placements))
    radius = wafer_cfg.radius_m

    sites = []
    for placement, stream in zip(placements, streams):
        rng = np.random.default_rng(stream)
        cx, cy = placement.center(chip_cfg)
        r = math.hypot(cx, cy)
        t_local = model.thickness_at(r, radius) + rng.normal(0.0, model.thickness_noise_sigma_m)
        for pitch in pitches:
            p_local = pitch + rng.normal(0.0, model.pitch_sigma_m)
            metrics = {}
            failed = []
            for mode in modes:
                try:
                    if t_local <= 0.0 or p_local <= 0.0:
                        raise SolverError("perturbed geometry is non-physical")
                    if model.full_resolve:
                        f_site = pitch_to_frequency(
                            p_local, mode, PlateSpec(plate.material, t_local)
                        )
                    else:
                        f_nom, s_h, s_p = nominal[(mode, pitch)]
                        f_site = f_nom * math.exp(
                            s_h * math.log(t_local / plate.h)
                            + s_p * math.log(p_local / pitch)
                        )
                    metrics[mode] = _mode_metrics(model, mode, f_site)
                except (SolverError, DispersionRangeError):
                    failed.append(mode)
            sites.append(
                WaferSite(
                    site_id=placement.site_id,
                    x_mm=cx * 1e3,
                    y_mm=cy * 1e3,
                    pitch_m=pitch,
                    metrics=metrics,
                    failed_modes=tuple(failed),
                    local_thickness_m=t_local,
                    local_pitch_m=p_local,
                )
            )
    return sites


# ------------------------------------------------------------- serialization


def deviation_csv_rows(report: DeviationReport) -> list:
    rows = ["mode,pitch,mean_f_Hz,relstd_pct,n"]
    for r in report.rows:
        rows.append(
            f"{r.mode},{r.pitch_m:.9g},{r.mean_f_hz:.10g},{r.relstd_pct:.8g},{r.n}"
        )
    return rows


def trend_csv_rows(series: TrendSeries) -> list:
    rows = ["mode,pitch,mean_f_Hz,q_mean,q_std,k_eff_sq_mean,k_eff_sq_std,n"]
    for mode in sorted(series.points):
        for p in series.points[mode]:
            rows.append(
                f"{p.mode},{p.pitch_m:.9g},{p.mean_f_hz:.10g},"
                f"{p.q_mean:.8g},{p.q_std:.8g},{p.k_mean:.8g},{p.k_std:.8g},{p.n}"
            )
    return rows


def heatmap_csv_rows(sites, mode: str, pitch_m: float) -> list:
    """Heatmap-ready rows for one (mode, pitch) group, in site order."""
    rows = ["x_mm,y_mm,f_Hz"]
    for site in sites:
        if not math.isclose(site.pitch_m, pitch_m, rel_tol=1e-9):
            continue
        m = site.metrics.get(mode)
        if m is None:
            continue
        rows.append(f"{site.x_mm:.6g},{site.y_mm:.6g},{m.f_r:.10g}")
    return rows


def sites_to_dict(sites, seed: int | None = None) -> dict:
    """JSON document for a wafer map; echoes the seed that produced it."""
    doc: dict = {"sites": []}
    if seed is not None:
        doc["seed"] = int(seed)
    for s in sites:
        entry = {
            "site_id": s.site_id,
            "x_mm": s.x_mm,
            "y_mm": s.y_mm,
            "pitch_m": s.pitch_m,
            "metrics": {mode: m.to_dict() for mode, m in sorted(s.metrics.items())},
        }
        if s.failed_modes:
            entry["failed_modes"] = list(s.failed_modes)
        if s.local_thickness_m:
            entry["local_thickness_m"] = s.local_thickness_m
        if s.local_pitch_m:
            entry["local_pitch_m"] = s.local_pitch_m
        doc["sites"].append(entry)
    return doc


def sites_from_dict(doc: dict) -> list:
    """Sites from a wafer map document; InputError names the JSON path of a
    bad value.  Every number must be finite, except a q_r of Infinity: the
    lossless branch of ModeMetrics, which sites_to_dict writes that way."""
    if not isinstance(doc, dict) or not isinstance(doc.get("sites"), list):
        raise InputError("wafer map document must be an object with a 'sites' array")
    sites = []
    for i, entry in enumerate(doc["sites"]):
        path = f"sites[{i}]"
        entry = json_object(entry, path)
        failed = entry.get("failed_modes", [])
        if not isinstance(failed, list):
            raise InputError(f"{path}.failed_modes must be an array")
        metrics = {}
        for mode, m in json_object(entry.get("metrics", {}), f"{path}.metrics").items():
            m = json_object(m, f"{path}.metrics.{mode}")
            metrics[mode] = ModeMetrics(*(
                m[key] if key == "q_r" and m.get(key) == math.inf
                else json_number(m.get(key), f"{path}.metrics.{mode}.{key}")
                for key in ("f_r_hz", "f_a_hz", "q_r", "k_eff_sq")
            ))
        site_id = json_number(entry.get("site_id"), f"{path}.site_id")
        if site_id < 0 or site_id != int(site_id):
            raise InputError(f"{path}.site_id must be a non-negative integer, got {site_id!r}")
        sites.append(
            WaferSite(
                site_id=int(site_id),
                x_mm=json_number(entry.get("x_mm"), f"{path}.x_mm"),
                y_mm=json_number(entry.get("y_mm"), f"{path}.y_mm"),
                pitch_m=json_number(entry.get("pitch_m"), f"{path}.pitch_m"),
                metrics=metrics,
                failed_modes=tuple(failed),
                local_thickness_m=json_number(entry.get("local_thickness_m", 0.0),
                                              f"{path}.local_thickness_m"),
                local_pitch_m=json_number(entry.get("local_pitch_m", 0.0), f"{path}.local_pitch_m"),
            )
        )
    return sites

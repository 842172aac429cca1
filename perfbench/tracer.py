"""Outside-in span recorder for the traced run.

The program carries no instrumentation of its own, so the traced run wraps
public functions from here: ``instrument`` replaces each listed function by a
timing wrapper in every ``lambkit.*`` module namespace that holds it (callers
look names up in their own module globals, so this catches calls between
modules too) and ``restore`` puts the originals back.  No program file is
edited.

Each span records its name, start, end and parent; a span's self time is its
duration minus the time its child spans cover.  Functions called once per
evaluation are counted, not timed, because a timer there would distort what
it measures.  Hooks read counts from arguments and return values.
"""

import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Recorder.spans, -1 for a root span
    end: float = 0.0
    child_s: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)  # indices of unfinished spans

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def of(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def dump(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": s.self_s, "error": s.error}
                for s in self.spans]


# -- hooks: counts taken from arguments and return values --------------------

def _solve_mode_hook(rec, args, curve):
    rec.count("dispersion.solve_mode.k_points", len(args[2]))
    rec.count("dispersion.solve_mode.k_solved", curve.k.size)
    rec.count("dispersion.solve_mode.gaps", len(curve.gaps))


def _polygons(rec, lib):
    rec.count("layout.polygons", sum(len(c.polygons) for c in lib.cells))


def _calibrate_hook(rec, args, corrected):
    rec.count("calibration.points", len(corrected))


def _simulate_wafer_hook(rec, args, sites):
    rec.count("waferstats.simulate_wafer.sites", len(sites))
    rec.count("waferstats.simulate_wafer.failed_modes",
              sum(len(s.failed_modes) for s in sites))


HOOKS = {
    "dispersion.solve_mode": _solve_mode_hook,
    "layout.gen_chip": lambda rec, args, lib: _polygons(rec, lib),
    "layout.build_reticle": lambda rec, args, res: _polygons(rec, res[1]),
    "gdsii.write_gdsii": lambda rec, args, data: rec.count("gdsii.write_gdsii.bytes", len(data)),
    "gdsii.read_gdsii": lambda rec, args, lib: rec.count("gdsii.read_gdsii.bytes", len(args[0])),
    "touchstone.parse_touchstone": lambda rec, args, tf: rec.count(
        "touchstone.parse_touchstone.bytes", len(args[0])),
    "calibration.calibrate_file": _calibrate_hook,
    "waferstats.simulate_wafer": _simulate_wafer_hook,
    # FitResult.iterations holds least_squares' nfev
    "mbvd.fit_mbvd": lambda rec, args, res: rec.count("mbvd.fit_mbvd.nfev", res.iterations),
}

# Layer boundaries, one module each: timed functions and counted-only ones.
TIMED = {
    "cli": ("main",),
    "config": ("load_config",),
    "dispersion": ("solve_mode", "pitch_to_frequency", "sensitivity", "solve_at_k"),
    "design": ("match_finger_count",),
    "layout": ("gen_chip", "build_reticle", "gen_wafer_map"),
    "gdsii": ("write_gdsii", "read_gdsii"),
    "processflow": ("check_flow",),
    "waferstats": ("simulate_wafer", "per_mode_deviation", "metrics_vs_frequency",
                   "sites_to_dict", "sites_from_dict"),
    "touchstone": ("parse_touchstone",),
    "calibration": ("calibrate_file",),
    "mbvd": ("fit_mbvd",),
}
COUNTED = {
    "dispersion": {"rayleigh_lamb_residual": "dispersion.residual.evals"},
    "calibration": {"apply_correction": "calibration.apply_correction.calls"},
    "processflow": {"simulate_stack": "processflow.simulate_stack.calls"},
}


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lambkit" or name.startswith("lambkit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(rec: Recorder) -> list:
    """Wrap every listed function; returns the (original, wrapper) pairs."""
    import importlib

    pairs = []
    for short, names in TIMED.items():
        module = importlib.import_module(f"lambkit.{short}")
        for fn_name in names:
            span = f"{short}.{fn_name}"
            original = getattr(module, fn_name)
            pairs.append((original, rec.timed(span, original, HOOKS.get(span))))
    for short, names in COUNTED.items():
        module = importlib.import_module(f"lambkit.{short}")
        for fn_name, counter in names.items():
            original = getattr(module, fn_name)
            pairs.append((original, rec.counted(counter, original)))
    for original, wrapper in pairs:
        _rebind(original, wrapper)
    return pairs


def restore(pairs: list) -> None:
    for original, wrapper in pairs:
        _rebind(wrapper, original)


# -- per-layer metrics -------------------------------------------------------

def percentile_ms(durations, q: float) -> float:
    """Nearest-rank percentile in milliseconds (0 when there are no samples)."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return 1e3 * ordered[rank - 1]


def layer_metrics(rec: Recorder) -> dict:
    """Every ``<module>.<function>.<stat>`` figure the recorder supports."""
    out = {}
    for short, names in TIMED.items():
        for fn_name in names:
            name = f"{short}.{fn_name}"
            spans = rec.of(name)
            durations = [s.duration for s in spans]
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.s"] = sum(durations)
            out[f"{name}.self_s"] = sum(s.self_s for s in spans)
            out[f"{name}.failed"] = sum(s.error for s in spans)
            out[f"{name}.p50_ms"] = percentile_ms(durations, 50)
            out[f"{name}.p90_ms"] = percentile_ms(durations, 90)
    out.update(rec.counts)
    k_points = rec.counts.get("dispersion.solve_mode.k_points", 0)
    out["dispersion.ms_per_k_point"] = (
        1e3 * out["dispersion.solve_mode.s"] / k_points if k_points else 0.0)
    points = rec.counts.get("calibration.points", 0)
    out["calibration.us_per_point"] = (
        1e6 * out["calibration.calibrate_file.s"] / points if points else 0.0)
    return out

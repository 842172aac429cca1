"""Modified Butterworth-Van Dyke one-port model: types, evaluation, metrics,
fitting, and open/short de-embedding.

Topology: a series resistance r_s feeds the parallel combination of a static
branch (c_0 in series with r_0) and N motional RLC branches (r_m, l_m, c_m
in series).  Admittance:

    Y(w) = 1 / (r_s + 1 / (Y_static + sum_i Y_branch_i))
    Y_static   = 1 / (r_0 + 1/(j w c_0))
    Y_branch_i = 1 / (r_m_i + j w l_m_i + 1/(j w c_m_i))

Per-branch metrics follow the IEEE definitions:

    f_r      = 1 / (2 pi sqrt(l_m c_m))
    q_r      = 1 / (w_r c_m (r_m + r_s))      (inf when r_m + r_s = 0)
    k_eff^2  = c_m / (c_m + c_0)
    f_a      = f_r sqrt(1 + c_m / c_0)        (single branch against c_0)

The fit minimizes the magnitude-relative complex least squares
sum_k |Y_model(f_k) - Y_k|^2 / |Y_k|^2 over log-parameterized positive
parameters.  r_0 is kept in the model with default 0 and is not fitted
unless requested.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateFixtureError,
    FitConvergenceError,
    FitPeakError,
    InputError,
)

__all__ = [
    "MotionalBranch",
    "StaticNetwork",
    "MbvdModel",
    "AdmittanceTrace",
    "ModeMetrics",
    "FitOptions",
    "FitResult",
    "mbvd_admittance",
    "resonance_metrics",
    "fit_mbvd",
    "de_embed_open_short",
]


@dataclass(frozen=True)
class MotionalBranch:
    """One series-RLC motional branch.  Units: Ohm, Henry, Farad."""

    r_m: float
    l_m: float
    c_m: float
    label: str = ""

    def __post_init__(self):
        if not (self.l_m > 0 and self.c_m > 0):
            raise InputError("l_m and c_m must be positive")
        if self.r_m < 0:
            raise InputError("r_m must be >= 0")

    @property
    def f_r(self) -> float:
        return 1.0 / (2.0 * math.pi * math.sqrt(self.l_m * self.c_m))


@dataclass(frozen=True)
class StaticNetwork:
    """Static branch (c_0 series r_0) plus the common series resistance r_s."""

    c_0: float
    r_0: float = 0.0
    r_s: float = 0.0

    def __post_init__(self):
        if not self.c_0 > 0:
            raise InputError("c_0 must be positive")
        if self.r_0 < 0 or self.r_s < 0:
            raise InputError("r_0 and r_s must be >= 0")


@dataclass(frozen=True)
class MbvdModel:
    """Full model: static network plus branches sorted by ascending f_r."""

    static_net: StaticNetwork
    branches: tuple = ()

    def __post_init__(self):
        branches = tuple(sorted(self.branches, key=lambda b: b.f_r))
        object.__setattr__(self, "branches", branches)
        f_rs = [b.f_r for b in branches]
        for a, b in zip(f_rs, f_rs[1:]):
            if not a < b:
                raise InputError("branch resonances must be distinct")

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def admittance(self, frequencies) -> np.ndarray:
        """Complex admittance at the given frequencies (Hz), vectorized."""
        f = np.asarray(frequencies, dtype=float)
        w = 2.0 * math.pi * f
        jw = 1j * w
        net = self.static_net
        y_inner = 1.0 / (net.r_0 + 1.0 / (jw * net.c_0))
        for b in self.branches:
            y_inner = y_inner + 1.0 / (b.r_m + jw * b.l_m + 1.0 / (jw * b.c_m))
        return 1.0 / (net.r_s + 1.0 / y_inner)

    def to_dict(self) -> dict:
        return {
            "static": {
                "c_0_f": self.static_net.c_0,
                "r_0_ohm": self.static_net.r_0,
                "r_s_ohm": self.static_net.r_s,
            },
            "branches": [
                {
                    "r_m_ohm": b.r_m,
                    "l_m_h": b.l_m,
                    "c_m_f": b.c_m,
                    "label": b.label,
                }
                for b in self.branches
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MbvdModel":
        try:
            st = d["static"]
            net = StaticNetwork(
                c_0=float(st["c_0_f"]),
                r_0=float(st.get("r_0_ohm", 0.0)),
                r_s=float(st.get("r_s_ohm", 0.0)),
            )
            branches = tuple(
                MotionalBranch(
                    r_m=float(b["r_m_ohm"]),
                    l_m=float(b["l_m_h"]),
                    c_m=float(b["c_m_f"]),
                    label=str(b.get("label", "")),
                )
                for b in d.get("branches", ())
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed model dict: {exc}") from exc
        return cls(net, branches)

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MbvdModel":
        return cls.from_dict(json.loads(text))


class AdmittanceTrace:
    """Sampled one-port admittance: strictly increasing positive frequencies."""

    def __init__(self, frequencies, admittance):
        f = np.asarray(frequencies, dtype=float)
        y = np.asarray(admittance, dtype=complex)
        if f.ndim != 1 or f.size < 2:
            raise InputError("trace needs at least two frequency points")
        if f.size != y.size:
            raise InputError("frequency and admittance lengths differ")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise InputError("frequencies must be positive and strictly increasing")
        self.frequencies = f
        self.admittance = y

    def __len__(self):
        return self.frequencies.size

    def to_dict(self) -> dict:
        return {
            "frequencies_hz": self.frequencies.tolist(),
            "admittance_s": [[y.real, y.imag] for y in self.admittance],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdmittanceTrace":
        try:
            f = d["frequencies_hz"]
            y = [complex(re, im) for re, im in d["admittance_s"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed trace dict: {exc}") from exc
        return cls(f, y)


def mbvd_admittance(model: MbvdModel, frequencies) -> AdmittanceTrace:
    """Evaluate the model on a grid, returning a validated trace."""
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise InputError("need at least two frequency points")
    if np.any(f <= 0) or np.any(np.diff(f) <= 0):
        raise InputError("frequencies must be positive and strictly increasing")
    return AdmittanceTrace(f, model.admittance(f))


@dataclass(frozen=True)
class ModeMetrics:
    """Per-branch scalar metrics.  q_r is math.inf for a lossless branch."""

    f_r: float
    f_a: float
    q_r: float
    k_eff_sq: float

    def __post_init__(self):
        if not (0 < self.f_r < self.f_a):
            raise InputError("need 0 < f_r < f_a")
        if not self.q_r > 0:
            raise InputError("q_r must be positive")
        if not 0 < self.k_eff_sq < 1:
            raise InputError("k_eff_sq must be in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "f_r_hz": self.f_r,
            "f_a_hz": self.f_a,
            "q_r": self.q_r,
            "k_eff_sq": self.k_eff_sq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModeMetrics":
        return cls(
            f_r=float(d["f_r_hz"]),
            f_a=float(d["f_a_hz"]),
            q_r=float(d["q_r"]),
            k_eff_sq=float(d["k_eff_sq"]),
        )


def resonance_metrics(model: MbvdModel, branch_index: int) -> ModeMetrics:
    """IEEE-definition metrics for one branch of the model."""
    if not 0 <= branch_index < model.n_branches:
        raise InputError(f"branch index {branch_index} out of range")
    b = model.branches[branch_index]
    net = model.static_net
    f_r = b.f_r
    w_r = 2.0 * math.pi * f_r
    loss = b.r_m + net.r_s
    q_r = math.inf if loss == 0.0 else 1.0 / (w_r * b.c_m * loss)
    k_eff_sq = b.c_m / (b.c_m + net.c_0)
    f_a = f_r * math.sqrt(1.0 + b.c_m / net.c_0)
    return ModeMetrics(f_r=f_r, f_a=f_a, q_r=q_r, k_eff_sq=k_eff_sq)


# ---------------------------------------------------------------------------
# Fitting

@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    step_tol: float = 1e-10
    fit_r0: bool = False
    median_window: int = 5

    def __post_init__(self):
        w = self.median_window
        if isinstance(w, bool) or not isinstance(w, int) or w < 1 or w % 2 == 0:
            raise InputError(f"median_window must be a positive odd integer, got {w!r}")


@dataclass
class FitResult:
    model: MbvdModel
    residual_norm: float
    iterations: int
    converged: bool
    confidence_scale: dict = field(default_factory=dict)

    def report_dict(self) -> dict:
        return {
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "confidence_scale": self.confidence_scale,
        }


def _find_peaks(mag: np.ndarray, n: int, window: int):
    """Indices of the n largest interior local maxima of the median-filtered
    magnitude; ties break toward lower frequency."""
    # sliding median over edge-padded input; the window is odd, so the median
    # is the middle sample of each window
    half = window // 2
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(mag, half, mode="edge"), window)
    sm = np.partition(windows, half, axis=1)[:, half]
    cand = [
        i
        for i in range(1, len(sm) - 1)
        if sm[i] > sm[i - 1] and sm[i] >= sm[i + 1]
    ]
    if len(cand) < n:
        raise FitPeakError(found=len(cand), requested=n)
    cand.sort(key=lambda i: (-sm[i], i))
    picked = sorted(cand[:n])
    return picked, sm


def _initial_model(trace: AdmittanceTrace, n_branches: int, options: FitOptions):
    f = trace.frequencies
    y = trace.admittance
    w = 2.0 * math.pi * f
    # Off resonance Im(Y)/w ~ c_0; the median rides out the resonant swings.
    c0 = float(np.median(y.imag / w))
    if not c0 > 0:
        c0 = float(np.abs(y[0]) / w[0])
    # Off resonance Re(1/Y) ~ r_s (r_0 = 0).
    with np.errstate(divide="ignore", invalid="ignore"):
        rs = float(np.median((1.0 / y).real))
    if not math.isfinite(rs) or rs <= 0:
        rs = 1e-6
    rs = max(rs, 1e-6)
    branches = []
    if n_branches > 0:
        mag = np.abs(y)
        peaks, sm = _find_peaks(mag, n_branches, options.median_window)
        for j, i_pk in enumerate(peaks):
            f_r = f[i_pk]
            hi = peaks[j + 1] if j + 1 < len(peaks) else len(f)
            cm = None
            if i_pk + 2 < hi:
                i_min = i_pk + 1 + int(np.argmin(sm[i_pk + 1 : hi]))
                f_a = f[i_min]
                ratio = (f_a / f_r) ** 2 - 1.0
                if 1e-5 < ratio < 2.0:
                    cm = c0 * ratio
            if cm is None:
                cm = 0.02 * c0
            lm = 1.0 / ((2.0 * math.pi * f_r) ** 2 * cm)
            rm = max(1.0 / max(mag[i_pk], 1e-30) - rs, 1e-3)
            branches.append(MotionalBranch(r_m=rm, l_m=lm, c_m=cm))
    return c0, rs, branches


def _pack(c0, rs, r0, branches, fit_r0):
    vals = [c0, rs] + ([r0] if fit_r0 else [])
    for b in branches:
        vals.extend([b.r_m, b.l_m, b.c_m])
    return np.log(np.asarray(vals, dtype=float))


_LOG_PARAM_CAP = 250.0  # keeps exp() finite when the optimizer probes far out


def _unpack(theta, n_branches, fit_r0):
    vals = np.exp(np.clip(theta, -_LOG_PARAM_CAP, _LOG_PARAM_CAP))
    c0, rs = vals[0], vals[1]
    k = 2
    r0 = 0.0
    if fit_r0:
        r0 = vals[2]
        k = 3
    branches = []
    for i in range(n_branches):
        rm, lm, cm = vals[k + 3 * i : k + 3 * i + 3]
        branches.append(MotionalBranch(r_m=rm, l_m=lm, c_m=cm))
    return MbvdModel(StaticNetwork(c_0=c0, r_0=r0, r_s=rs), tuple(branches))


def _param_names(n_branches, fit_r0):
    names = ["c_0", "r_s"] + (["r_0"] if fit_r0 else [])
    for i in range(n_branches):
        names.extend([f"b{i}.r_m", f"b{i}.l_m", f"b{i}.c_m"])
    return names


def fit_mbvd(
    trace: AdmittanceTrace, n_branches: int, options: FitOptions | None = None
) -> FitResult:
    """Fit an mBVD model to a trace with a known number of branches.

    Initialization picks the n largest |Y| peaks (5-point median prefilter)
    for the branch resonances and seeds c_0 from the off-resonance Im(Y)/w.
    On hitting the iteration cap a FitConvergenceError is raised that carries
    the best model found so far.
    """
    from scipy.optimize import least_squares

    if n_branches < 0:
        raise InputError("n_branches must be >= 0")
    options = options or FitOptions()
    n_params = 2 + (1 if options.fit_r0 else 0) + 3 * n_branches
    if 2 * len(trace) < n_params:
        raise InputError("trace too short for the requested branch count")
    c0, rs, branches = _initial_model(trace, n_branches, options)
    theta0 = _pack(c0, rs, 1e-3, branches, options.fit_r0)
    f = trace.frequencies
    y = trace.admittance
    absy = np.abs(y)
    if np.any(absy == 0):
        raise InputError("zero-magnitude admittance sample cannot be weighted")

    def residuals(theta):
        model = _unpack(theta, n_branches, options.fit_r0)
        d = (model.admittance(f) - y) / absy
        return np.concatenate([d.real, d.imag])

    res = least_squares(
        residuals,
        theta0,
        method="lm",
        xtol=options.step_tol,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=options.max_iterations * (n_params + 1),
    )
    model = _unpack(res.x, n_branches, options.fit_r0)
    norm = float(np.linalg.norm(res.fun))
    confidence = {}
    try:
        jtj = res.jac.T @ res.jac
        dof = max(res.fun.size - n_params, 1)
        cov = np.linalg.inv(jtj) * (norm * norm / dof)
        for name, var in zip(_param_names(n_branches, options.fit_r0), np.diag(cov)):
            confidence[name] = float(math.sqrt(max(var, 0.0)))
    except np.linalg.LinAlgError:
        confidence = {
            name: math.inf for name in _param_names(n_branches, options.fit_r0)
        }
    result = FitResult(
        model=model,
        residual_norm=norm,
        iterations=int(res.nfev),
        converged=res.status > 0,
        confidence_scale=confidence,
    )
    if res.status <= 0:
        raise FitConvergenceError(
            f"iteration cap reached after {res.nfev} evaluations",
            model=model,
            report=result,
        )
    return result


# ---------------------------------------------------------------------------
# De-embedding

_SHORT_GUARD = 1e18  # |y| above this is treated as an ideal short


def de_embed_open_short(y_dut, y_open, y_short):
    """Open/short de-embedding of parallel-then-series fixture parasitics.

        Y = 1 / ( 1/(y_dut - y_open) - 1/(y_short - y_open) )

    y_open subtracts the pad shunt branch; the short term removes the series
    interconnect.  A short of effectively infinite magnitude degenerates to
    the open-only correction.
    """
    y_dut = np.asarray(y_dut, dtype=complex)
    y_open = np.asarray(y_open, dtype=complex)
    y_short = np.asarray(y_short, dtype=complex)
    d_dut = y_dut - y_open
    if np.any(np.abs(d_dut) == 0):
        raise DegenerateFixtureError("y_dut equals y_open at some frequency")
    with np.errstate(invalid="ignore"):
        d_short = y_short - y_open
    ideal_short = ~np.isfinite(d_short) | (np.abs(d_short) > _SHORT_GUARD)
    if np.any(np.abs(d_short) == 0):
        raise DegenerateFixtureError("y_short equals y_open at some frequency")
    inv_short = np.where(ideal_short, 0.0, 1.0 / np.where(ideal_short, 1.0, d_short))
    return 1.0 / (1.0 / d_dut - inv_short)

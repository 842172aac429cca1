"""Modified Butterworth-Van Dyke one-port model: types, evaluation, metrics
and fitting.

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
parameters.  r_0 is kept in the model with default 0 and is not fitted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FitConvergenceError, FitPeakError, InputError
from .record import dataclass, field
from .waferstats import ModeMetrics

__all__ = [
    "MotionalBranch",
    "StaticNetwork",
    "MbvdModel",
    "AdmittanceTrace",
    "ModeMetrics",
    "FitResult",
    "mbvd_admittance",
    "resonance_metrics",
    "fit_mbvd",
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


def mbvd_admittance(model: MbvdModel, frequencies) -> AdmittanceTrace:
    """The model evaluated on a grid, as a trace that checks the grid first."""
    trace = AdmittanceTrace(frequencies, np.zeros(np.size(frequencies), dtype=complex))
    trace.admittance = model.admittance(trace.frequencies)
    return trace


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

_MAX_ITERATIONS = 200  # the LM stops after this many evaluations per parameter + 1
_STEP_TOL = 1e-10
_MEDIAN_WINDOW = 5  # odd width of the peak-finding median prefilter


@dataclass
class FitResult:
    """status 1: cost reductions below ftol, 2: step below _STEP_TOL, 0: cap hit."""

    model: MbvdModel
    residual_norm: float
    nfev: int
    status: int
    confidence_scale: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status > 0

    @property
    def iterations(self) -> int:
        return self.nfev

    @property
    def njev(self) -> int:  # each evaluation returns f and J
        return self.nfev

    def report_dict(self) -> dict:
        return {
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "nfev": self.nfev,
            "njev": self.njev,
            "status": self.status,
            "converged": self.converged,
            "confidence_scale": self.confidence_scale,
        }


def _sliding_median(values: np.ndarray, window: int) -> np.ndarray:
    """Median over an odd window of edge-padded input, one value per sample."""
    half = window // 2
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(values, half, mode="edge"), window)
    return np.partition(windows, half, axis=1)[:, half]


def _median(values: np.ndarray):
    """np.median of a 1-d array to the bit, without the numpy.ma it imports."""
    half = values.size // 2
    part = np.partition(values, (half - 1, half, -1))
    if np.isnan(part[-1]):  # NaN sorts last
        return part[-1]
    return part[half - 1 + values.size % 2 : half + 1].mean()


def _find_peaks(values: np.ndarray, n: int, window: int):
    """Indices of the n largest interior local maxima of the median-filtered
    values; ties break toward lower frequency."""
    sm = _sliding_median(values, window)
    mid = sm[1:-1]
    cand = np.flatnonzero((mid > sm[:-2]) & (mid >= sm[2:])) + 1
    if cand.size < n:
        raise FitPeakError(found=int(cand.size), requested=n)
    # a stable sort of ascending indices keeps the lower index first on ties
    return sorted(cand[np.argsort(-sm[cand], kind="stable")[:n]].tolist())


def _initial_model(trace: AdmittanceTrace, n_branches: int):
    f = trace.frequencies
    y = trace.admittance
    w = 2.0 * math.pi * f
    # Off resonance Im(Y)/w ~ c_0; the median rides out the resonant swings.
    c0 = float(_median(y.imag / w))
    if not c0 > 0:
        c0 = float(np.abs(y[0]) / w[0])
    # Off resonance Re(1/Y) ~ r_s (r_0 = 0).
    rs = float(_median((1.0 / y).real))
    if not math.isfinite(rs) or rs <= 0:
        rs = 1e-6
    rs = max(rs, 1e-6)
    branches = []
    if n_branches > 0:
        # Resonances are conductance peaks: c_0 adds nothing to Re(Y), so its
        # w*c_0 background cannot outrank a weak branch as it does in |Y|.
        peaks = _find_peaks(np.maximum(y.real, 0.0), n_branches, _MEDIAN_WINDOW)
        mag = np.abs(y)
        sm = _sliding_median(mag, _MEDIAN_WINDOW)
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


def _pack(c0, rs, branches):
    vals = [c0, rs]
    for b in branches:
        vals.extend([b.r_m, b.l_m, b.c_m])
    return np.log(np.asarray(vals, dtype=float))


_LOG_PARAM_CAP = 250.0  # keeps exp() finite when the optimizer probes far out


def _split(theta):
    """c_0, r_s and the (n, 3) rows of branch (r_m, l_m, c_m) of theta."""
    vals = np.exp(np.clip(theta, -_LOG_PARAM_CAP, _LOG_PARAM_CAP))
    return vals[0], vals[1], vals[2:].reshape(-1, 3)


def _unpack(theta):
    c0, rs, rows = _split(theta)
    branches = tuple(MotionalBranch(r_m=rm, l_m=lm, c_m=cm) for rm, lm, cm in rows)
    return MbvdModel(StaticNetwork(c_0=c0, r_s=rs), branches)


def _param_names(n_branches):
    names = ["c_0", "r_s"]
    for i in range(n_branches):
        names.extend([f"b{i}.r_m", f"b{i}.l_m", f"b{i}.c_m"])
    return names


def _residual_jacobian(theta, jw, inv_jw, y, inv_absy):
    """Residual (Y_model - y)/|y| and its Jacobian in the log-parameters, as
    float views that interleave each sample's real and imaginary part: (2n,)
    and (2n, p).  With Y = 1/(r_s + Z_inner), Z_inner = 1/(Y_static + sum Y_b),
    the chain rule needs dY/dY_inner = (Y Z_inner)^2, dY/d ln r_s = -Y^2 r_s
    and dY_x/d ln p = -Y_x^2 dZ_x/d ln p, which is r, jwl and -1/(jwc) for a
    resistance, inductance and capacitance.  Given 1/jw and 1/|y|, one complex
    reciprocal per branch and two for the outer network make an evaluation.
    """
    c0, rs, branch_vals = _split(theta)
    z_c0 = inv_jw * (1.0 / c0)
    ys = 1.0 / z_c0
    z_b = [(rm, jw * lm, inv_jw * (1.0 / cm)) for rm, lm, cm in branch_vals]
    y_b = [1.0 / (rm + z_l + z_c) for rm, z_l, z_c in z_b]
    z_inner = 1.0 / sum(y_b, ys)
    y_model = 1.0 / (rs + z_inner)
    yy = y_model * y_model * inv_absy
    g = yy * z_inner * z_inner
    jac = np.empty((theta.size, y.size), dtype=complex)
    gs = g * ys * ys
    np.multiply(gs, z_c0, out=jac[0])
    np.multiply(yy, -rs, out=jac[1])
    branch_rows = jac[2:].reshape(-1, 3, y.size)
    for (rm, z_l, z_c), yb, rows in zip(z_b, y_b, branch_rows):
        gb = g * yb * yb
        np.multiply(gb, -rm, out=rows[0])
        np.multiply(gb, -z_l, out=rows[1])
        np.multiply(gb, z_c, out=rows[2])
    return ((y_model - y) * inv_absy).view(float), jac.view(float).T


def _levenberg_marquardt(fun_jac, x0, xtol, ftol, max_nfev):
    """Minimise |f(x)|^2 by Levenberg-Marquardt with Marquardt's diagonal
    scaling and Nielsen's damping update (Madsen, Nielsen & Tingleff 2004,
    section 3.2).  ``fun_jac(x)`` returns (f, J).

    Returns (x, f, J, nfev, status), f and J at the returned x, nfev the calls
    of ``fun_jac``.  status 2: the scaled step |D h| <= xtol |D x|; 1: the
    actual and the predicted reduction are both <= ftol * cost; 0: max_nfev
    evaluations made.
    """
    x = np.asarray(x0, dtype=float)
    f, jac = fun_jac(x)
    nfev = 1
    cost = f @ f
    a, g = jac.T @ jac, jac.T @ f
    # D^2 is the running maximum of diag(J^T J), as MINPACK keeps it
    d2 = np.where(np.diag(a) > 0, np.diag(a), 1.0)
    mu, nu = 1e-3, 2.0
    while nfev < max_nfev:
        d2 = np.maximum(d2, np.diag(a))
        try:
            h = np.linalg.solve(a + mu * np.diag(d2), -g)
        except np.linalg.LinAlgError:
            h = None
        if h is None or not np.all(np.isfinite(h)):
            if not math.isfinite(mu * nu):
                break
            mu, nu = mu * nu, 2.0 * nu
            continue
        dnorm = math.sqrt(d2 @ (h * h))
        if dnorm <= xtol * math.sqrt(d2 @ (x * x)):
            return x, f, jac, nfev, 2
        f_new, jac_new = fun_jac(x + h)
        nfev += 1
        cost_new = f_new @ f_new
        predicted = -(h @ (2.0 * g + a @ h))
        actual = cost - cost_new if math.isfinite(cost_new) else -math.inf
        converged = abs(actual) <= ftol * cost and predicted <= ftol * cost
        if actual > 0:
            rho = actual / predicted
            x, f, jac, cost = x + h, f_new, jac_new, cost_new
            a, g = jac.T @ jac, jac.T @ f
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
        if converged:
            return x, f, jac, nfev, 1
    return x, f, jac, nfev, 0


def fit_mbvd(trace: AdmittanceTrace, n_branches: int) -> FitResult:
    """Fit an mBVD model to a trace with a known number of branches.

    Initialization picks the n largest conductance (Re Y) peaks, after the
    median prefilter, for the branch resonances and seeds c_0 from the
    off-resonance Im(Y)/w.  Levenberg-Marquardt with the analytic Jacobian
    then refines the log-parameters.  On hitting the evaluation cap a
    FitConvergenceError is raised that carries the best model found so far.
    """
    if n_branches < 0:
        raise InputError("n_branches must be >= 0")
    n_params = 2 + 3 * n_branches
    if 2 * len(trace) < n_params:
        raise InputError("trace too short for the requested branch count")
    y = trace.admittance
    absy = np.abs(y)
    if np.any(absy == 0):
        raise InputError("zero-magnitude admittance sample cannot be weighted")
    jw = 2j * math.pi * trace.frequencies
    # over- and underflow on a degenerate trace only yield values that the
    # seed's fallbacks and the LM's finite-step test already reject
    with np.errstate(all="ignore"):
        inv_jw, inv_absy = 1.0 / jw, 1.0 / absy
        c0, rs, branches = _initial_model(trace, n_branches)
        x, fun, jac, nfev, status = _levenberg_marquardt(
            lambda theta: _residual_jacobian(theta, jw, inv_jw, y, inv_absy),
            _pack(c0, rs, branches),
            xtol=_STEP_TOL,
            ftol=1e-14,
            max_nfev=_MAX_ITERATIONS * (n_params + 1),
        )
    model = _unpack(x)
    norm = float(np.linalg.norm(fun))
    names = _param_names(n_branches)
    try:
        dof = max(fun.size - n_params, 1)
        cov = np.linalg.inv(jac.T @ jac) * (norm * norm / dof)
        confidence = {name: float(math.sqrt(max(var, 0.0))) for name, var in zip(names, np.diag(cov))}
    except np.linalg.LinAlgError:
        confidence = {name: math.inf for name in names}
    result = FitResult(model, norm, nfev, status, confidence)
    if status == 0:
        raise FitConvergenceError(
            f"iteration cap reached after {nfev} evaluations", model=model, report=result
        )
    return result

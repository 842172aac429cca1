"""Lamb-wave dispersion for a uniform elastic plate.

The plate is traction-free on both faces and characterized by its bulk
longitudinal and transverse velocities.  Guided modes split into symmetric
(S0, S1, ...) and antisymmetric (A0, A1, ...) families; within a family the
characteristic function has isolated roots in omega at fixed wavenumber k,
ordered so that index 0 is the lowest branch.

The characteristic function is evaluated in an all-real form: with
p^2 = w^2/v_l^2 - k^2 and q^2 = w^2/v_t^2 - k^2, the functions
sin(x*hh)/x and cos(x*hh) are even in x, so they stay real when p^2 or q^2
turns negative (sin -> sinh, cos -> cosh) and the residual is continuous
across the sign changes.  Hyperbolic factors are rescaled by exp(-|x|*hh)
to avoid overflow; the rescaling is a positive common factor per term and
preserves both roots and signs.

solve_at_k is the one root path; solve_mode loops over it.  pitch_to_frequency
and sensitivity read a per-mode master lattice of solve_at_k nodes, the only
interpolator here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MODE_NAMES
from .errors import DispersionRangeError, InputError, SensitivityError, SolverError

__all__ = [
    "PlateMaterial",
    "PlateSpec",
    "DispersionCurve",
    "MODE_NAMES",
    "rayleigh_lamb_residual",
    "solve_mode",
    "solve_at_k",
    "pitch_to_frequency",
    "sensitivity",
    "thin_plate_s0_velocity",
    "curve_to_csv_rows",
]

# Scan-window recipe for root bracketing: omega in (0, 3*v_l*k + 4*pi*v_l/h]
# sampled with SCAN_POINTS abscissae.  The low end uses log spacing because
# the A0 branch sits orders of magnitude below the window top at small k*h.
# The floor must stay below the lowest root but above the region where both
# residual terms cancel to rounding noise, so it tracks a physical estimate
# of the lowest branch (thin-plate flexural law, capped by the Rayleigh
# asymptote) rather than a fixed fraction of the window top.
SCAN_POINTS = 2000
_LOG_FRACTION = 0.35
_FLOOR_MARGIN = 0.02
_ROOT_RTOL = 1e-12


@dataclass(frozen=True)
class PlateMaterial:
    """Isotropic effective plate material (velocities in m/s, density kg/m^3)."""

    rho: float
    v_l: float
    v_t: float
    name: str = ""

    def __post_init__(self):
        if not (self.rho > 0 and self.v_l > 0 and self.v_t > 0):
            raise InputError("material constants must be positive")
        if not self.v_t < self.v_l:
            raise InputError("transverse velocity must be below longitudinal")


@dataclass(frozen=True)
class PlateSpec:
    """A plate: material plus thickness h in meters."""

    material: PlateMaterial
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise InputError("plate thickness must be positive")

    def scaled(self, s: float) -> "PlateSpec":
        return PlateSpec(self.material, self.h * s)


def _mode_family(mode: str) -> str:
    if mode not in MODE_NAMES:
        raise InputError(f"unknown mode name {mode!r}")
    return "symmetric" if mode.startswith("S") else "antisymmetric"


def _even_sin_cos(x2, hh):
    """(sin(x*hh)/x, cos(x*hh)) for x = sqrt(x2), both even in x; the
    hyperbolic branch (x2 < 0) is scaled by exp(-|x|*hh).  Vectorized over x2."""
    x2 = np.asarray(x2, dtype=float)
    x = np.sqrt(np.abs(x2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # sinh(x*hh)/x * exp(-x*hh) = (1 - exp(-2*x*hh)) / (2*x)
        sin = np.where(x2 > 0.0, np.sin(x * hh) / x, -np.expm1(-2.0 * x * hh) / (2.0 * x))
    # cosh(x*hh) * exp(-x*hh) = (1 + exp(-2*x*hh)) / 2
    cos = np.where(x2 >= 0.0, np.cos(x * hh), (1.0 + np.exp(-2.0 * x * hh)) / 2.0)
    return np.where(x2 == 0.0, hh, sin), cos


def _residual_terms(w, k: float, plate: PlateSpec, symmetry: str, sin_cos=_even_sin_cos):
    """Both additive terms of the characteristic function.

    Their sum is the residual; |t1| + |t2| bounds the magnitude that the sum
    cancels against, which calibrates the rounding-noise floor near omega -> 0
    where the two terms annihilate.
    """
    hh = 0.5 * plate.h
    k2 = k * k
    p2 = (w / plate.material.v_l) ** 2 - k2
    q2 = (w / plate.material.v_t) ** 2 - k2
    sin_p, cos_p = sin_cos(p2, hh)
    sin_q, cos_q = sin_cos(q2, hh)
    if symmetry == "symmetric":
        return (q2 - k2) ** 2 * sin_q * cos_p, (4.0 * k2 * p2) * sin_p * cos_q
    return (4.0 * k2 * q2) * sin_q * cos_p, (q2 - k2) ** 2 * sin_p * cos_q


def rayleigh_lamb_residual(omega, k: float, plate: PlateSpec, symmetry: str):
    """Real characteristic residual; zero exactly on a dispersion branch.

    symmetry is "symmetric" or "antisymmetric".  omega may be a scalar or an
    array.  The value is even in the branch choice of p and q, and both terms
    share one p-factor and one q-factor so the overflow rescaling cancels in
    the sign structure.
    """
    if symmetry not in ("symmetric", "antisymmetric"):
        raise InputError(f"unknown symmetry {symmetry!r}")
    if k < 0:
        raise InputError("wavenumber must be >= 0")
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise InputError("omega must be positive")
    t1, t2 = _residual_terms(w, k, plate, symmetry)
    res = t1 + t2
    if np.isscalar(omega):
        return float(res)
    return res


def _scan_grid(plate: PlateSpec, k: float):
    vl = plate.material.v_l
    vt = plate.material.v_t
    w_max = 3.0 * vl * k + 4.0 * math.pi * vl / plate.h
    n_log = int(SCAN_POINTS * _LOG_FRACTION)
    n_lin = SCAN_POINTS - n_log
    c_plate = 2.0 * vt * math.sqrt(1.0 - (vt / vl) ** 2)
    w_flex = k * k * plate.h * c_plate / (2.0 * math.sqrt(3.0))
    lo = _FLOOR_MARGIN * min(w_flex, 0.9 * vt * k)
    split = w_max * 0.02
    lo = min(lo, split * 0.5)
    if not lo > 0.0:
        raise SolverError(f"scan floor underflows to 0 at k={k:.6g} rad/m (k*h too small)")
    return np.concatenate([
        np.geomspace(lo, split, n_log, endpoint=False),
        np.linspace(split, w_max, n_lin),
    ])


# Sign changes are trusted only where the residual stands clear of the
# cancellation noise of its two terms (the terms annihilate as omega -> 0, so
# sub-noise flicker there would otherwise fabricate brackets).
_NOISE_MARGIN = 16.0 * np.finfo(float).eps


def _even_sin_cos_scalar(x2: float, hh: float):
    """_even_sin_cos for one float, without numpy's per-call overhead."""
    if x2 > 0.0:
        x = math.sqrt(x2)
        return math.sin(x * hh) / x, math.cos(x * hh)
    if x2 < 0.0:
        xi = math.sqrt(-x2)
        return -math.expm1(-2.0 * xi * hh) / (2.0 * xi), (1.0 + math.exp(-2.0 * xi * hh)) / 2.0
    return hh, 1.0


def _scalar_residual(w: float, k: float, plate: PlateSpec, symmetry: str) -> float:
    t1, t2 = _residual_terms(w, k, plate, symmetry, _even_sin_cos_scalar)
    return t1 + t2


def _brentq(f, xa, xb, args=(), maxiter=200):
    """Zero of f(x, *args) in [xa, xb] by Brent's method.

    A step-for-step transliteration of scipy's brentq.c, so roots are
    bit-identical to scipy.optimize.brentq(..., rtol=_ROOT_RTOL).  Where scipy
    raises, this raises SolverError: no sign change, a NaN value, or no
    convergence in maxiter iterations.
    """
    def call(x):
        fx = f(x, *args)
        if math.isnan(fx):
            raise SolverError(f"residual is NaN at omega={x:.6g}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolverError(f"no sign change in [{xpre:.6g}, {xcur:.6g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (2e-12 + _ROOT_RTOL * abs(xcur)) / 2.0  # scipy's default xtol
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise SolverError(f"root polish did not converge in {maxiter} iterations")


def _roots_at_k(plate: PlateSpec, symmetry: str, k: float, n_roots: int):
    """Lowest n_roots zeros of the residual in the scan window, ascending.

    Returns (roots, reliable_count): reliable_count is False when grid points
    below the first accepted root were indistinguishable from rounding noise,
    in which case no branch index can be trusted: a lower root may hide there.
    """
    grid = _scan_grid(plate, k)
    t1, t2 = _residual_terms(grid, k, plate, symmetry)
    vals = t1 + t2
    noise = _NOISE_MARGIN * (np.abs(t1) + np.abs(t2))
    resolved = np.abs(vals) > noise
    brackets = np.flatnonzero(resolved[:-1] & resolved[1:] & (vals[:-1] * vals[1:] < 0.0))
    roots = []
    first_root_idx = None
    for i in brackets:
        if len(roots) >= n_roots:
            break
        root = _brentq(_scalar_residual, grid[i], grid[i + 1], (k, plate, symmetry))
        if roots and abs(root - roots[-1]) <= _ROOT_RTOL * root * 10:
            continue
        if first_root_idx is None:
            first_root_idx = i
        roots.append(float(root))
    if first_root_idx is None:
        reliable_count = not np.any(~resolved)
    else:
        reliable_count = bool(np.all(resolved[: first_root_idx + 1]))
    return roots, reliable_count


def solve_at_k(plate: PlateSpec, mode: str, k: float) -> float:
    """Frequency in Hz of one mode at a single wavenumber.

    The only code that picks the branch index and judges its reliability.
    Raises SolverError if the branch index has no root in the scan window,
    or if rounding noise near the scan floor makes the indexing unreliable.
    """
    if not k > 0:
        raise InputError("wavenumber must be positive")
    fam = _mode_family(mode)
    idx = int(mode[1])
    roots, reliable = _roots_at_k(plate, fam, k, idx + 1)
    if not reliable:
        raise SolverError(
            f"branch indexing unreliable at k={k:.6g} rad/m: residual is below "
            "the rounding-noise floor near the scan floor (k*h too small)"
        )
    if len(roots) <= idx:
        raise SolverError(
            f"no {mode} root in scan window at k={k:.6g} rad/m "
            f"(found {len(roots)} root(s), need branch {idx})"
        )
    return roots[idx] / (2.0 * math.pi)


@dataclass
class DispersionCurve:
    """Solved f(k) samples for one mode, plus k-intervals with no root."""

    mode: str
    k: np.ndarray
    f: np.ndarray
    gaps: tuple = ()

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.gaps = tuple((float(lo), float(hi)) for lo, hi in self.gaps)
        if self.k.size != self.f.size:
            raise InputError("k and f arrays must have equal length")
        if self.k.size and (np.any(np.diff(self.k) <= 0) or np.any(self.k <= 0)):
            raise InputError("k samples must be positive and strictly increasing")
        if np.any(self.f <= 0):
            raise InputError("frequencies must be positive")
        if self.mode in ("A0", "S0") and self.f.size > 1:
            # Fundamental branches are non-decreasing in k; tolerate only
            # solver-level jitter.
            dif = np.diff(self.f)
            if np.any(dif < -1e-9 * self.f[:-1]):
                raise InputError(f"{self.mode} curve is not non-decreasing in k")

    @property
    def v_phase(self) -> np.ndarray:
        return 2.0 * math.pi * self.f / self.k


def solve_mode(plate: PlateSpec, mode: str, k_grid) -> DispersionCurve:
    """Solve one mode over a strictly increasing positive wavenumber grid.

    Each point is a solve_at_k call; points where it raises SolverError are
    recorded as gap intervals rather than raising.
    """
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise InputError("k grid must be a non-empty 1-D array")
    if np.any(ks <= 0) or np.any(np.diff(ks) <= 0):
        raise InputError("k grid must be positive and strictly increasing")
    out_k, out_f, gaps = [], [], []
    for i, k in enumerate(ks.tolist()):
        try:
            f = solve_at_k(plate, mode, k)
        except SolverError:
            # consecutive missing grid points collapse into one gap interval
            if gaps and gaps[-1][1] == i - 1:
                gaps[-1][1] = i
            else:
                gaps.append([i, i])
            continue
        out_k.append(k)
        out_f.append(f)
    gaps = [(ks[a], ks[b]) for a, b in gaps]
    return DispersionCurve(mode, np.array(out_k), np.array(out_f), gaps)


# Master lattice: roots obey f*h = F_mode(k*h) for one material.  Node j at
# k*h = exp(j / _LATTICE_DENSITY) holds ln F (None: no reliable root), solved
# on a unit-thickness plate when first needed.  Nodes depend only on
# (material, mode, j), so the shared memo cannot make results order-dependent.
_LATTICE_DENSITY = 64
_LATTICE: dict = {}


def _lattice_eval(plate: PlateSpec, mode: str, k: float):
    """(ln F, dlnF/dln(kh)) at k*h from the cubic through the 4 nodes around it.

    Raises DispersionRangeError when any of the 4 nodes has no root.
    """
    _mode_family(mode)
    kh = k * plate.h
    if not 0.0 < kh < math.inf:
        raise InputError(f"k*h = {kh!r} is not a positive finite number")
    nodes = _LATTICE.setdefault((plate.material, mode), {})
    unit = PlateSpec(plate.material, 1.0)
    u = math.log(kh) * _LATTICE_DENSITY
    j0 = math.floor(u)
    ys = []
    for j in range(j0 - 1, j0 + 3):
        if j not in nodes:
            try:
                nodes[j] = math.log(solve_at_k(unit, mode, math.exp(j / _LATTICE_DENSITY)))
            except SolverError:
                nodes[j] = None
        if nodes[j] is None:
            raise DispersionRangeError(f"no reliable {mode} root near k*h = {kh:.6g}")
        ys.append(nodes[j])
    # the cubic through nodes t = -1, 0, 1, 2, in powers of t = u - j0
    y0, y1, y2, y3 = ys
    c1 = (-2.0 * y0 - 3.0 * y1 + 6.0 * y2 - y3) / 6.0
    c2 = (y0 - 2.0 * y1 + y2) / 2.0
    c3 = (-y0 + 3.0 * y1 - 3.0 * y2 + y3) / 6.0
    t = u - j0
    value = y1 + t * (c1 + t * (c2 + t * c3))
    return value, _LATTICE_DENSITY * (c1 + t * (2.0 * c2 + 3.0 * t * c3))


def pitch_to_frequency(pitch: float, mode: str, plate: PlateSpec) -> float:
    """Frequency at the electrode-pitch-defined wavenumber k = pi/pitch.

    The acoustic wavelength equals twice the pitch.  The value is F(k*h)/h
    from the mode's master lattice, within about 1e-7 of a direct solve;
    DispersionRangeError where the lattice has no reliable root near k*h.
    """
    if not pitch > 0:
        raise InputError("pitch must be positive")
    return math.exp(_lattice_eval(plate, mode, math.pi / pitch)[0]) / plate.h


def sensitivity(plate: PlateSpec, mode: str, k: float):
    """Logarithmic sensitivities (dlnf/dlnh, dlnf/dlnpitch) at fixed mode and k.

    With f = F(k*h)/h and k = pi/pitch, the slope g = dlnF/dln(kh) of the
    master-lattice cubic gives dlnf/dlnh = g - 1 and dlnf/dlnpitch = -g, so
    the two sum to -1 up to rounding (Euler homogeneity of f(k, h)).
    SensitivityError where the lattice has no reliable root near k*h.
    """
    try:
        _, g = _lattice_eval(plate, mode, k)
    except DispersionRangeError as exc:
        raise SensitivityError(f"no sensitivity for {mode}: {exc}") from exc
    return g - 1.0, -g


def thin_plate_s0_velocity(material: PlateMaterial) -> float:
    """Extensional plate velocity 2*v_t*sqrt(1 - v_t^2/v_l^2) (kh -> 0 limit)."""
    r = (material.v_t / material.v_l) ** 2
    return 2.0 * material.v_t * math.sqrt(1.0 - r)


def curve_to_csv_rows(curve: DispersionCurve):
    """Rows of (mode, k_rad_per_m, f_hz, v_phase_m_per_s) as strings."""
    rows = []
    vp = curve.v_phase
    for i in range(curve.k.size):
        rows.append(
            (curve.mode, f"{curve.k[i]:.9e}", f"{curve.f[i]:.9e}", f"{vp[i]:.9e}")
        )
    return rows

"""Independent reference implementations used to cross-check solver output.

The residual here uses complex trigonometry directly (numpy complex sqrt,
sin, cos) instead of the branch-split real forms in the package, so the two
paths share no code.  Roots are located by brute-force dense sign scans.
"""

import numpy as np
import pytest

TINY = 1e-280


def lamb_residual_reference(omega, k, v_l, v_t, h, symmetry):
    """Rayleigh-Lamb residual via complex arithmetic; real part returned.

    Symmetric:      (q^2-k^2)^2 S(q) cos(p hh) + 4 k^2 p^2 S(p) cos(q hh)
    Antisymmetric:  4 k^2 q^2 S(q) cos(p hh) + (q^2-k^2)^2 S(p) cos(q hh)
    with S(x) = sin(x hh)/x and hh = h/2.
    """
    w = np.asarray(omega, dtype=float)
    hh = h / 2.0
    p2 = (w / v_l) ** 2 - k * k + 0j
    q2 = (w / v_t) ** 2 - k * k + 0j
    p = np.sqrt(p2)
    q = np.sqrt(q2)

    def s_over(x):
        safe = np.where(np.abs(x) < TINY, 1.0, x)
        return np.where(np.abs(x) < TINY, hh, np.sin(safe * hh) / safe)

    if symmetry == "symmetric":
        val = (q2 - k * k) ** 2 * s_over(q) * np.cos(p * hh) + 4.0 * k * k * p2 * s_over(p) * np.cos(q * hh)
    else:
        val = 4.0 * k * k * q2 * s_over(q) * np.cos(p * hh) + (q2 - k * k) ** 2 * s_over(p) * np.cos(q * hh)
    return np.real(val)


def lamb_roots_scan(k, v_l, v_t, h, symmetry, n_roots, n_scan=200_000):
    """First n_roots angular frequencies by dense linear sign scan + brentq."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    w_max = 3.0 * v_l * k + 4.0 * np.pi * v_l / h
    grid = np.linspace(w_max * 1e-7, w_max, n_scan)
    vals = lamb_residual_reference(grid, k, v_l, v_t, h, symmetry)
    roots = []
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    f = lambda w: float(lamb_residual_reference(w, k, v_l, v_t, h, symmetry))
    for i in flips:
        r = brentq(f, grid[i], grid[i + 1], rtol=1e-13, maxiter=200)
        if not roots or r > roots[-1] * (1.0 + 1e-9):
            roots.append(r)
        if len(roots) >= n_roots:
            break
    return np.asarray(roots)


def osl_correct_reference(meas, gammas, s_dut):
    """OSL-corrected S11, one 3x3 solve and one scalar correction per point.

    ``meas`` and ``gammas`` are (short, open, load) triples of length-N arrays:
    the measured standards and their actual reflections.  Every product is a
    numpy complex128 scalar product, as a per-frequency loop computes it.
    """
    out = np.empty(len(s_dut), dtype=complex)
    for i in range(len(s_dut)):
        m = [np.complex128(x[i]) for x in meas]
        g = [np.complex128(x[i]) for x in gammas]
        a = np.array([[1.0, m[j] * g[j], -g[j]] for j in range(3)], dtype=complex)
        e00, e11, de = np.linalg.solve(a, np.array(m, dtype=complex))
        num = np.complex128(s_dut[i]) - e00
        out[i] = num / (e00 * e11 - de + e11 * num)
    return out

"""Gaussian-free-field covariance checks for eigenvalue height pairings.

The eigenvalue counting functions of the growing graph, paired against
Chebyshev-U polynomials, converge to half-plane Gaussian free field pairings
along the trajectories Omega(x, t) = e^t (x + i sqrt(1 - x^2)).  The GFF
covariance is the half-plane Green function; pushed through the pairing it
reduces to a double integral whose closed form is

    delta_jk * (pi / 4k) * e^{j (t0 - t1)},   t0 <= t1.

This module evaluates the double integral numerically, handling the
logarithmic singularity on the diagonal at equal times.
"""

from __future__ import annotations

import cmath
import math
import warnings

from .errors import InvalidInputError, NumericError

# absolute error asked of every quadrature in gff_cheb_covariance
QUAD_TOL = 1e-6


def gff_closed_form(j: int, k: int, t0: float, t1: float) -> float:
    """Closed form of the pairing covariance: delta_jk (pi/4k) e^{j(t0-t1)}."""
    if j != k:
        return 0.0
    return math.pi / (4 * k) * math.exp(j * (t0 - t1))


def gff_cheb_covariance(j: int, k: int, t0: float, t1: float) -> float:
    """Numerical pairing covariance of the j-th and k-th Chebyshev-U heights.

    Evaluates -(1/2pi) times the double integral over [0, pi]^2 of

        sin(j u) sin(k v) log | (e^{t0+iu} - e^{t1+iv}) / (e^{t0+iu} - e^{t1-iv}) |.

    At t0 = t1 the integrand has an integrable log singularity on u = v; the
    inner integral is split there.  Raises on a quadrature error estimate
    above 1e-5.
    """
    # imported here, not at module top, so that only a run that integrates
    # pays scipy.integrate's import (about 0.65 s)
    from scipy import integrate

    if j < 1 or k < 1:
        raise InvalidInputError("need j >= 1 and k >= 1")
    if t0 > t1:
        raise InvalidInputError(f"need t0 <= t1, got t0={t0}, t1={t1}")

    def integrand(u: float, w: complex, w_bar: complex, sin_kv: float) -> float:
        # w = e^{t1+iv}, w_bar = e^{t1-iv} and sin_kv = sin(k v) are fixed
        # for a whole inner integral, so they come in through quad's args
        z0 = cmath.exp(complex(t0, u))
        num = abs(z0 - w)
        den = abs(z0 - w_bar)
        if num == 0.0 or den == 0.0:
            return 0.0
        return math.sin(j * u) * sin_kv * math.log(num / den)

    singular = t0 == t1
    err_acc = 0.0

    def inner(v: float) -> float:
        nonlocal err_acc
        args = (cmath.exp(complex(t1, v)), cmath.exp(complex(t1, -v)), math.sin(k * v))
        if singular and 0.0 < v < math.pi:
            a, ea = integrate.quad(integrand, 0.0, v, args=args, epsabs=QUAD_TOL, limit=100)
            b, eb = integrate.quad(
                integrand, v, math.pi, args=args, epsabs=QUAD_TOL, limit=100
            )
            err_acc = max(err_acc, ea + eb)
            return a + b
        val, err = integrate.quad(
            integrand, 0.0, math.pi, args=args, epsabs=QUAD_TOL, limit=100
        )
        err_acc = max(err_acc, err)
        return val

    with warnings.catch_warnings():
        # near the diagonal the log singularity triggers a spurious slow-
        # convergence warning; the explicit error bound below still governs
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total, outer_err = integrate.quad(inner, 0.0, math.pi, epsabs=QUAD_TOL, limit=100)
    bound = outer_err + math.pi * err_acc
    if bound > 1e-5:
        raise NumericError(f"quadrature error estimate {bound:.2e} exceeds 1e-5")
    return -total / (2 * math.pi)

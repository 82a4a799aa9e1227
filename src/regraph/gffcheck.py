"""Gaussian-free-field covariance checks for eigenvalue height pairings.

The eigenvalue counting functions of the growing graph, paired against
Chebyshev-U polynomials, converge to half-plane Gaussian free field pairings
along the trajectories Omega(x, t) = e^t (x + i sqrt(1 - x^2)).  The GFF
covariance is the half-plane Green function; pushed through the pairing it
reduces to a double integral whose closed form is

    delta_jk * (pi / 4k) * e^{j (t0 - t1)},   t0 <= t1.

This module evaluates the double integral numerically with one tanh-sinh
(double-exponential) product rule, in numpy arrays.  The log kernel depends
on the lag t1 - t0 only, not on (j, k), so one evaluation of it on the node
grid serves every pair j <= jmax, k <= kmax:

- The inner integral over u is split at u = v at every lag.  The kernel is
  singular there at lag 0 and sharply peaked at a small lag; split, the
  peak sits at an end of each piece, where the rule's nodes crowd
  double-exponentially.
- sin(j u) comes from the recurrence sin((j+1)u) = 2 cos u sin(ju) -
  sin((j-1)u), one inner sum per j, and one (2 jmax x nodes) . (nodes x
  kmax) product finishes the rule at steps h and 2h together.
- The outer nodes go in blocks whose (row, inner node) arrays stay under
  CHUNK_BYTES whatever jmax is.
- The step h is set from max(jmax, kmax) before the run, so the node count
  and the working set, rule_bytes, are known up front.  Each entry's error
  estimate is |Q_h - Q_2h|, which reads about the error of Q_2h and so
  overstates that of Q_h.

Grounding: Takahasi and Mori, "Double exponential formulas for numerical
integration" (Publ. RIMS, 1974); Bailey, Jeyabalan and Li, "A comparison of
three high-precision quadrature schemes" (Exp. Math., 2005).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidInputError, NumericError, check_bytes

# largest lag whose e^{lag} is a finite float
LAG_MAX = math.log(sys.float_info.max)
# the nodes run over |t| <= T_MAX: there a node lies e^{-pi sinh t} < 1e-22 of
# its interval's length from the interval's end, and its weight is below 1e-20
T_MAX = 3.5
# most bytes the (row, inner node) arrays of one block of outer nodes take,
# whatever jmax is
CHUNK_BYTES = 2**22
# (row, inner node) float64 arrays a block holds at once: the weighted
# kernel at steps h and 2h, 2 cos u and three sines
_BLOCK_ARRAYS = 6
# numpy's own buffers beside the arrays
_NUMPY_BYTES = 2**16
# largest quadrature error estimate a covariance may carry
ERROR_BOUND = 1e-5


def gff_closed_form(j: int, k: int, t0: float, t1: float) -> float:
    """Closed form of the pairing covariance: delta_jk (pi/4k) e^{j(t0-t1)}."""
    if j != k:
        return 0.0
    return math.pi / (4 * k) * math.exp(j * (t0 - t1))


def _step(jmax: int, kmax: int) -> float:
    """The rule's step h, set by the fastest sine it integrates: sin(j u)
    with j up to max(jmax, kmax) oscillates that many half-periods on [0, pi]."""
    return 0.32 / max(8, jmax, kmax)


def _nodes(h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes x of [0, 1] at t = m h, |m h| <= T_MAX, with their
    mirrors 1 - x and weights, each x and 1 - x to full relative precision."""
    t = h * np.arange(-math.ceil(T_MAX / h), math.ceil(T_MAX / h) + 1)
    e = np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(e))
    mirror = 1.0 / (1.0 + np.exp(-e))
    return x, mirror, h * np.pi * np.cosh(t) * x * mirror


def _shape(jmax: int, kmax: int) -> tuple[int, int]:
    """Nodes a dimension of the rule has and rows (an outer node's two inner
    pieces are two rows) of one block."""
    nodes = 2 * math.ceil(T_MAX / _step(jmax, kmax)) + 1
    block = max(1, CHUNK_BYTES // (_BLOCK_ARRAYS * 8 * 2 * nodes))
    return nodes, 2 * min(block, nodes)


def rule_bytes(jmax: int, kmax: int) -> float:
    """Peak bytes of one gff_cheb_covariances call: the inner integrals of
    every sine at every outer node at steps h and 2h, beside the larger of a
    block's (row, inner node) arrays with its sums and the outer sines; then
    the (jmax, kmax) results, the node vectors and numpy's buffers."""
    nodes, rows = _shape(jmax, kmax)
    block = _BLOCK_ARRAYS * rows * nodes + 3 * jmax * rows
    return (8.0 * (2 * jmax * nodes + max(block, nodes * kmax) + 6 * jmax * kmax
                   + 16 * nodes) + _NUMPY_BYTES)


def _inner_sums(v: np.ndarray, rest: np.ndarray, x: np.ndarray, w: np.ndarray,
                coarse: np.ndarray, s2: float, jmax: int) -> np.ndarray:
    """The inner integrals over u of sin(j u) L(u, v), j = 1..jmax, at the
    outer nodes v (with pi - v as ``rest``), at steps h and 2h: (2, jmax, len(v)).

    An outer node's pieces [0, v] and [v, pi] are two rows, u = v + side * d,
    with d the offset from v, so that d, not u - v, is exact near u = v."""
    centre = np.tile(v, 2)[:, None]
    length = np.concatenate([v, rest])
    d = np.multiply.outer(length, x)
    u = d * np.repeat([-1.0, 1.0], len(v))[:, None]
    u += centre
    # the kernel L = log|e^{iu} - e^{lag+iv}| - log|e^{iu} - e^{lag-iv}|, as
    # 1/2 log((s2 + sin^2(d/2)) / (s2 + sin^2((u + v)/2))), times the weights
    d *= 0.5
    np.sin(d, out=d)
    d *= d
    d += s2
    kernel = u + centre
    kernel *= 0.5
    np.sin(kernel, out=kernel)
    kernel *= kernel
    kernel += s2
    np.divide(d, kernel, out=d)
    np.log(d, out=d)
    np.multiply.outer(0.5 * length, w, out=kernel)
    kernel *= d
    kernel_2h = np.multiply(kernel, coarse, out=d)
    # sin(j u) by sin((j + 1) u) = 2 cos u sin(j u) - sin((j - 1) u)
    sine, before, spare = np.sin(u), np.zeros_like(u), np.empty_like(u)
    twice_cos = np.cos(u, out=u)
    twice_cos *= 2.0
    sums = np.empty((2, jmax, len(length)))
    for j in range(jmax):
        np.einsum("ri,ri->r", sine, kernel, out=sums[0, j])
        np.einsum("ri,ri->r", sine, kernel_2h, out=sums[1, j])
        np.multiply(twice_cos, sine, out=spare)
        spare -= before
        before, sine, spare = sine, spare, before
    return sums[:, :, :len(v)] + sums[:, :, len(v):]


def gff_cheb_covariances(jmax: int, kmax: int, lag: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerical pairing covariances of the j-th and k-th Chebyshev-U heights
    for every j <= jmax and k <= kmax, at times t0 and t1 = t0 + lag.

    Entry (j - 1, k - 1) is -(1/2pi) times the double integral over [0, pi]^2 of

        sin(j u) sin(k v) log | (e^{t0+iu} - e^{t1+iv}) / (e^{t0+iu} - e^{t1-iv}) |,

    by one tanh-sinh product rule of step h, with the inner integral split at
    u = v.  Returns the (jmax, kmax) covariances and their error estimates
    |Q_h - Q_2h| / 2pi, read off the same nodes.  Raises NumericError when an
    estimate passes ERROR_BOUND.
    """
    if jmax < 1 or kmax < 1:
        raise InvalidInputError("need j >= 1 and k >= 1")
    if not 0.0 <= lag <= LAG_MAX:
        raise InvalidInputError(f"need 0 <= t1 - t0 <= {LAG_MAX:.2f}, so e^(t1 - t0) "
                                f"is finite; got {lag}")
    check_bytes(rule_bytes(jmax, kmax), f"the GFF rule at jmax={jmax}, kmax={kmax}")
    h = _step(jmax, kmax)
    x, mirror, w = _nodes(h)
    nodes, rows = _shape(jmax, kmax)
    # the rule at step 2h takes every other node at twice the weight
    coarse = np.where(np.arange(nodes) % 2 == 0, 2.0, 0.0)
    v = np.pi * x
    # |e^{iu} - e^{lag+iv}|^2 = 4 e^lag (sinh^2(lag/2) + sin^2((u - v)/2)), and the
    # same with -v, so the kernel's two logs share the factor 4 e^lag
    s2 = math.sinh(lag / 2) ** 2
    inner = np.empty((2, jmax, nodes))
    for start in range(0, nodes, rows // 2):
        block = slice(start, min(start + rows // 2, nodes))
        inner[:, :, block] = _inner_sums(v[block], np.pi * mirror[block], x, w, coarse, s2,
                                         jmax)
    outer = np.multiply.outer(v, np.arange(1, kmax + 1))
    np.sin(outer, out=outer)
    outer *= np.pi * w[:, None]
    inner[1] *= coarse
    q_h, q_2h = (inner @ outer) / (-2.0 * np.pi)
    estimates = np.abs(q_h - q_2h)
    if estimates.max() > ERROR_BOUND:
        raise NumericError(f"quadrature error estimate {estimates.max():.2e} "
                           f"exceeds {ERROR_BOUND:g}")
    return q_h, estimates


def gff_cheb_covariance(j: int, k: int, t0: float, t1: float) -> float:
    """Numerical pairing covariance of the j-th and k-th Chebyshev-U heights:
    entry (j, k) of gff_cheb_covariances(j, k, t1 - t0).  Raises on a
    quadrature error estimate above ERROR_BOUND."""
    if t0 > t1:
        raise InvalidInputError(f"need t0 <= t1, got t0={t0}, t1={t1}")
    return float(gff_cheb_covariances(j, k, t1 - t0)[0][j - 1, k - 1])

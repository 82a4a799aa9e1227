"""Spectra of regular graphs and linear eigenvalue statistics.

For a D-regular graph the eigenvalues are rescaled to the unit interval
(dividing by 2*sqrt(D-1)) or to the half-spectral interval [-2, 2].  The
natural polynomial basis for walk counting is a shifted Chebyshev family:

    P_0 = 1,   P_k(u) = 2 T_k(u) + c_k,   c_k = (D-2)/(D-1)^{k/2} for even k,
                                          c_k = 0 for odd k >= 1,

here called the ``nb_unit`` basis (``nb_half`` is the same family in the
variable x = 2u).  Summed over the unit-scaled spectrum, P_k gives
(D-1)^{-k/2} times the number of closed cyclically non-backtracking walks of
length k, and its Kesten-McKay mean vanishes for k >= 1, which pins down the
centering constant of any polynomial linear statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import integrate

from .errors import InvalidInputError, NumericError, ResourceLimitError
from .graphs import PermGraph, SimpleGraph

_BASES = ("monomial", "cheb_t", "cheb_u", "nb_unit", "nb_half")

# most bytes the dense n x n copies of one eigen-solve may take: the float
# adjacency and the solver's own float copy, 8 bytes each
EIGEN_BYTE_CAP = 2**31
# entries of one row block in the symmetry check of an adjacency array
_CHECK_BLOCK_ENTRIES = 2**16


def _correction(degree: int, k: int) -> float:
    if k == 0 or k % 2:
        return 0.0
    return (degree - 2) / (degree - 1) ** (k // 2)


@dataclass(frozen=True)
class PolySeries:
    """A polynomial held as coefficients in one of the supported bases.

    ``degree`` is the graph degree parameter of the nb bases; it is ignored
    (and may be None) for the plain bases.
    """

    basis: str
    coef: tuple[float, ...]
    degree: Optional[int] = None

    def __post_init__(self):
        if self.basis not in _BASES:
            raise InvalidInputError(f"unknown basis {self.basis!r}")
        if self.basis.startswith("nb_") and (self.degree is None or self.degree < 2):
            raise InvalidInputError("nb bases need a graph degree >= 2")
        object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        if not self.coef:
            raise InvalidInputError("empty coefficient list")

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    # -- conversions ------------------------------------------------------

    def _to_cheb_pair(self) -> tuple[np.ndarray, float]:
        """Chebyshev-T coefficients in a scaled variable; returns (coefs, scale)
        with the polynomial equal to sum b_k T_k(x / scale)."""
        a = np.asarray(self.coef, dtype=float)
        if self.basis == "monomial":
            return _cheb.poly2cheb(a), 1.0
        if self.basis == "cheb_t":
            return a.copy(), 1.0
        if self.basis == "cheb_u":
            # U_k = 2(T_k + T_{k-2} + ...), with the T_0 term counted once
            total = np.zeros(len(a))
            for k, c in enumerate(a):
                j = k
                while j > 0:
                    total[j] += 2 * c
                    j -= 2
                if k % 2 == 0:
                    total[0] += c
            return total, 1.0
        scale = 2.0 if self.basis == "nb_half" else 1.0
        b = np.zeros(len(a))
        b[0] = a[0]
        for k in range(1, len(a)):
            b[k] += 2 * a[k]
            b[0] += a[k] * _correction(self.degree, k)
        return b, scale

    def to_monomial(self) -> "PolySeries":
        b, scale = self._to_cheb_pair()
        mono = np.asarray(_cheb.cheb2poly(b), dtype=float)
        if scale != 1.0:
            mono = mono / scale ** np.arange(len(mono))
        return PolySeries("monomial", tuple(mono))

    def to_basis(self, basis: str, degree: Optional[int] = None) -> "PolySeries":
        if basis == self.basis and (degree is None or degree == self.degree):
            return self
        deg = degree if degree is not None else self.degree
        mono = np.asarray(self.to_monomial().coef, dtype=float)
        if basis == "monomial":
            return PolySeries("monomial", tuple(mono))
        if basis == "cheb_t":
            return PolySeries("cheb_t", tuple(_cheb.poly2cheb(mono)))
        if basis == "cheb_u":
            b = np.asarray(_cheb.poly2cheb(mono), dtype=float)
            return PolySeries("cheb_u", tuple(_t_series_to_u(b)))
        if basis in ("nb_unit", "nb_half"):
            if deg is None:
                raise InvalidInputError("converting to an nb basis needs a degree")
            scale = 2.0 if basis == "nb_half" else 1.0
            scaled = mono * scale ** np.arange(len(mono))
            b = np.asarray(_cheb.poly2cheb(scaled), dtype=float)
            a = np.zeros(len(b))
            for k in range(len(b) - 1, 0, -1):
                a[k] = b[k] / 2
                b[0] -= a[k] * _correction(deg, k)
            a[0] = b[0]
            return PolySeries(basis, tuple(a), degree=deg)
        raise InvalidInputError(f"unknown basis {basis!r}")

    def __call__(self, x) -> np.ndarray:
        b, scale = self._to_cheb_pair()
        return _cheb.chebval(np.asarray(x, dtype=float) / scale, b)


def _t_series_to_u(b: np.ndarray) -> np.ndarray:
    """Rewrite sum b_k T_k as a Chebyshev-U series via T_k = (U_k - U_{k-2})/2."""
    out = np.zeros(len(b))
    for k, c in enumerate(b):
        if k == 0:
            out[0] += c
        elif k == 1:
            out[1] += c / 2
        else:
            out[k] += c / 2
            out[k - 2] -= c / 2
    return out


def nb_basis_poly(degree: int, k: int, scale: str = "unit") -> PolySeries:
    """The k-th member of the walk-counting Chebyshev family."""
    coef = [0.0] * (k + 1)
    coef[k] = 1.0
    basis = "nb_unit" if scale == "unit" else "nb_half"
    return PolySeries(basis, tuple(coef), degree=degree)


def cheb_t_poly(k: int) -> PolySeries:
    coef = [0.0] * (k + 1)
    coef[k] = 1.0
    return PolySeries("cheb_t", tuple(coef))


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a regular graph, largest first, in a chosen scale."""

    values: tuple[float, ...]
    degree: int
    scale: str = "unit"

    @property
    def n(self) -> int:
        return len(self.values)

    def rescaled(self, scale: str) -> "Spectrum":
        ratio = self._factor(self.scale) / self._factor(scale)
        return Spectrum(tuple(v * ratio for v in self.values), self.degree, scale)

    def _factor(self, scale: str) -> float:
        """What a raw eigenvalue is divided by in ``scale``."""
        if scale == "raw":
            return 1.0
        if scale not in ("half", "unit"):
            raise InvalidInputError(f"unknown scale {scale!r}")
        if self.degree < 2:
            raise InvalidInputError(f"the {scale} scale needs degree >= 2, got {self.degree}")
        return (2 if scale == "unit" else 1) * math.sqrt(self.degree - 1)


def eigenvalues(g, scale: str = "unit") -> Spectrum:
    """Adjacency spectrum of a permutation-model or uniform-model graph."""
    graph = isinstance(g, (PermGraph, SimpleGraph))
    shape = (g.n, g.n) if graph else np.shape(g)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidInputError("adjacency must be square")
    n = shape[0]
    if 2 * 8 * n * n > EIGEN_BYTE_CAP:
        raise ResourceLimitError(f"dense eigen-solve at n={n} exceeds {EIGEN_BYTE_CAP} bytes")
    if graph:
        a, degree = g.adjacency(), g.degree
    else:
        a = np.asarray(g, dtype=float)
        # compare row blocks with the matching column blocks, so the check
        # makes no n x n temporary
        rows = max(1, _CHECK_BLOCK_ENTRIES // max(n, 1))
        for lo in range(0, n, rows):
            if not np.allclose(a[lo:lo + rows], a[:, lo:lo + rows].T):
                raise InvalidInputError("adjacency must be symmetric")
        rowsum = a.sum(axis=1)
        if not np.allclose(rowsum, rowsum[0]):
            raise InvalidInputError("graph must be regular")
        degree = int(round(rowsum[0]))
    vals = np.linalg.eigvalsh(a)[::-1]
    raw = Spectrum(tuple(float(v) for v in vals), degree, "raw")
    return raw.rescaled(scale)


def linear_statistic(spectrum: Spectrum, f: PolySeries) -> float:
    """Centered linear eigenvalue statistic tr f = sum f(lambda_i) - n * a0.

    a0 is the constant coefficient of f in the walk-counting basis, which is
    also the Kesten-McKay mean of f.
    """
    spec = spectrum.rescaled("unit")
    fu = f.to_basis("nb_unit", degree=spectrum.degree)
    a0 = fu.coef[0]
    return float(np.sum(fu(np.asarray(spec.values))) - spec.n * a0)


def cnbw_from_spectrum(spectrum: Spectrum, r: int) -> np.ndarray:
    """Closed cyclically non-backtracking walk counts recovered spectrally."""
    spec = spectrum.rescaled("unit")
    vals = np.asarray(spec.values)
    d = spectrum.degree
    out = np.empty(r)
    for k in range(1, r + 1):
        pk = nb_basis_poly(d, k, "unit")
        out[k - 1] = (d - 1) ** (k / 2) * float(np.sum(pk(vals)))
    return out


# ---------------------------------------------------------------------------
# Kesten-McKay law


@dataclass(frozen=True)
class KestenMcKay:
    """The spectral law of the infinite d-regular tree's adjacency operator."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise InvalidInputError(f"need degree >= 2, got {self.d}")

    @property
    def radius(self) -> float:
        return 2 * math.sqrt(self.d - 1)

    def density(self, x) -> np.ndarray:
        """Density on the raw adjacency scale, supported on |x| <= 2 sqrt(d-1)."""
        x = np.asarray(x, dtype=float)
        d = self.d
        inside = np.abs(x) <= self.radius
        xs = np.where(inside, x, 0.0)
        return np.where(
            inside,
            d * np.sqrt(np.maximum(4 * (d - 1) - xs**2, 0.0)) / (2 * math.pi * (d**2 - xs**2)),
            0.0,
        )

    def unit_density(self, u) -> np.ndarray:
        """Density of the spectrum rescaled to [-1, 1]."""
        u = np.asarray(u, dtype=float)
        d = self.d
        inside = np.abs(u) <= 1
        us = np.where(inside, u, 0.0)
        return np.where(
            inside,
            2 * d * (d - 1) * np.sqrt(np.maximum(1 - us**2, 0.0))
            / (math.pi * (d**2 - 4 * (d - 1) * us**2)),
            0.0,
        )

    def a0_of(self, f: PolySeries, tol: float = 1e-10) -> float:
        """Mean of f (as a function of the unit-scaled spectrum) under this law."""
        val, err = integrate.quad(
            lambda u: float(f(u)) * float(self.unit_density(u)), -1.0, 1.0,
            epsabs=tol, epsrel=tol, limit=200,
        )
        if err > max(tol * 100, 1e-8):
            raise NumericError(f"Kesten-McKay quadrature error {err} too large")
        return val


def kesten_mckay(d: int) -> KestenMcKay:
    return KestenMcKay(d)


# ---------------------------------------------------------------------------
# Moebius combination extracting individual cycle counts


def _moebius(m: int) -> int:
    if m == 1:
        return 1
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def mobius_cycle_poly(degree: int, k: int) -> PolySeries:
    """Polynomial whose centered linear statistic equals the number of
    k-cycles whenever all closed non-backtracking k-walks live on cycles."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    coef = np.zeros(k + 1)
    for j in range(1, k + 1):
        if k % j == 0:
            coef[j] = _moebius(k // j) * (degree - 1) ** (j / 2) / (2 * k)
    return PolySeries("nb_unit", tuple(coef), degree=degree)

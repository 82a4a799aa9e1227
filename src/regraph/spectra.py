"""Spectra of regular graphs and linear eigenvalue statistics.

For a D-regular graph the eigenvalues are rescaled to the unit interval
(dividing by 2*sqrt(D-1)) or to the half-spectral interval [-2, 2].  The
natural polynomial basis for walk counting is a shifted Chebyshev family:

    P_0 = 1,   P_k(u) = 2 T_k(u) + c_k,   c_k = (D-2)/(D-1)^{k/2} for even k,
                                          c_k = 0 for odd k >= 1,

here called the ``nb_unit`` basis.  Summed over the unit-scaled spectrum,
P_k gives (D-1)^{-k/2} times the number of closed cyclically
non-backtracking walks of length k, and its Kesten-McKay mean vanishes for
k >= 1, which pins down the centering constant of any polynomial linear
statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import InvalidInputError, check_bytes
from .graphs import PermGraph, SimpleGraph

_BASES = ("monomial", "cheb_t", "nb_unit")


def _correction(degree: int, k: int) -> float:
    if k == 0 or k % 2:
        return 0.0
    return (degree - 2) / (degree - 1) ** (k // 2)


@dataclass(frozen=True)
class PolySeries:
    """A polynomial held as coefficients in one of the supported bases.

    ``degree`` is the graph degree parameter of the nb basis; it is ignored
    (and may be None) for the plain bases.
    """

    basis: str
    coef: tuple[float, ...]
    degree: Optional[int] = None

    def __post_init__(self):
        if self.basis not in _BASES:
            raise InvalidInputError(f"unknown basis {self.basis!r}")
        if self.basis == "nb_unit" and (self.degree is None or self.degree < 2):
            raise InvalidInputError("the nb basis needs a graph degree >= 2")
        object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        if not self.coef:
            raise InvalidInputError("empty coefficient list")

    # -- conversions ------------------------------------------------------

    def _to_cheb(self) -> np.ndarray:
        """Chebyshev-T coefficients b, the polynomial being sum b_k T_k."""
        a = np.asarray(self.coef, dtype=float)
        if self.basis == "monomial":
            return _cheb.poly2cheb(a)
        if self.basis == "cheb_t":
            return a.copy()
        b = np.zeros(len(a))
        b[0] = a[0]
        for k in range(1, len(a)):
            b[k] += 2 * a[k]
            b[0] += a[k] * _correction(self.degree, k)
        return b

    def to_monomial(self) -> "PolySeries":
        return PolySeries("monomial", tuple(_cheb.cheb2poly(self._to_cheb())))

    def to_basis(self, basis: str, degree: Optional[int] = None) -> "PolySeries":
        if basis == self.basis and (degree is None or degree == self.degree):
            return self
        deg = degree if degree is not None else self.degree
        mono = np.asarray(self.to_monomial().coef, dtype=float)
        if basis == "monomial":
            return PolySeries("monomial", tuple(mono))
        if basis == "cheb_t":
            return PolySeries("cheb_t", tuple(_cheb.poly2cheb(mono)))
        if basis == "nb_unit":
            if deg is None:
                raise InvalidInputError("converting to the nb basis needs a degree")
            b = np.asarray(_cheb.poly2cheb(mono), dtype=float)
            a = np.zeros(len(b))
            for k in range(len(b) - 1, 0, -1):
                a[k] = b[k] / 2
                b[0] -= a[k] * _correction(deg, k)
            a[0] = b[0]
            return PolySeries(basis, tuple(a), degree=deg)
        raise InvalidInputError(f"unknown basis {basis!r}")

    def __call__(self, x) -> np.ndarray:
        return _cheb.chebval(np.asarray(x, dtype=float), self._to_cheb())


def nb_basis_poly(degree: int, k: int) -> PolySeries:
    """The k-th member of the walk-counting Chebyshev family."""
    coef = [0.0] * (k + 1)
    coef[k] = 1.0
    return PolySeries("nb_unit", tuple(coef), degree=degree)


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


def eigen_bytes(n: int) -> int:
    """Bytes of an eigen-solve's two n x n float copies, the adjacency and the solver's."""
    return 16 * n * n


def eigenvalues(g: PermGraph | SimpleGraph, scale: str = "unit") -> Spectrum:
    """Adjacency spectrum of a permutation-model or uniform-model graph."""
    if g.n < 1:
        raise InvalidInputError("the graph needs at least one vertex")
    check_bytes(eigen_bytes(g.n), f"dense eigen-solve at n={g.n}")
    vals = np.linalg.eigvalsh(g.adjacency())[::-1]
    raw = Spectrum(tuple(float(v) for v in vals), g.degree, "raw")
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
        pk = nb_basis_poly(d, k)
        out[k - 1] = (d - 1) ** (k / 2) * float(np.sum(pk(vals)))
    return out


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

"""Tests for the Gaussian-field covariance checks."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from regraph.errors import InvalidInputError, NumericError
from regraph.gffcheck import gff_cheb_covariance, gff_closed_form
from regraph.spectra import Spectrum, linear_statistic

from oracles import cheb_t_poly, green_halfplane, height_pairing


def test_green_halfplane_value():
    # g(i, 2i) = (1/2pi) log|(i - (-2i)) / (i - 2i)| = log 3 / (2 pi)
    assert green_halfplane(1j, 2j) == pytest.approx(math.log(3) / (2 * math.pi))


def test_green_halfplane_symmetry_and_boundary():
    z, w = 0.3 + 0.7j, -1.1 + 0.2j
    assert green_halfplane(z, w) == pytest.approx(green_halfplane(w, z))
    # vanishes as a point approaches the real axis
    assert green_halfplane(z, -1.1 + 1e-12j) == pytest.approx(0.0, abs=1e-9)


def test_green_halfplane_validation():
    with pytest.raises(InvalidInputError):
        green_halfplane(1j, 1.0 - 0.5j)
    with pytest.raises(NumericError):
        green_halfplane(1j, 1j)


def test_closed_form_values():
    tau = math.log(2)
    assert gff_closed_form(1, 1, 0.0, 0.0) == pytest.approx(math.pi / 4)
    assert gff_closed_form(2, 2, 0.0, tau) == pytest.approx(math.pi / 32)
    assert gff_closed_form(1, 2, 0.0, 0.5) == 0.0
    assert gff_closed_form(3, 3, 0.2, 0.2) == pytest.approx(math.pi / 12)


def test_numeric_covariance_matches_closed_form():
    for j, k, t0, t1 in [(1, 1, 0.0, 0.0), (2, 2, 0.0, 0.3), (1, 2, 0.0, 0.0),
                         (3, 3, 0.0, 1.0), (2, 3, 0.0, 0.3)]:
        num = gff_cheb_covariance(j, k, t0, t1)
        assert num == pytest.approx(gff_closed_form(j, k, t0, t1), abs=1e-6)


def test_numeric_covariance_validation():
    with pytest.raises(InvalidInputError):
        gff_cheb_covariance(0, 1, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        gff_cheb_covariance(1, 1, 1.0, 0.0)


def test_height_pairing_centering_and_scale():
    rng = np.random.default_rng(0)
    eig = rng.uniform(-1.0, 1.0, size=50)
    spec = Spectrum(tuple(sorted(eig, reverse=True)), 4, scale="unit")
    k = 3
    stat = linear_statistic(spec, cheb_t_poly(k, spec.degree))
    mean = 0.7
    assert height_pairing(spec, 2, k, mean) == pytest.approx(-(stat - mean) / k)


def test_height_pairing_requires_unit_scale():
    spec = Spectrum((4.0, 0.0), 4, scale="adjacency")
    with pytest.raises(InvalidInputError):
        height_pairing(spec, 2, 1, 0.0)


def _two_argument_covariance(j, k, t0, t1, tol=1e-6):
    """gff_cheb_covariance with the integrand of (u, v) that recomputes
    e^{t1 +- iv} and sin(k v) at every point: the oracle for the hoisted one."""
    def integrand(u, v):
        z0 = cmath.exp(complex(t0, u))
        num = abs(z0 - cmath.exp(complex(t1, v)))
        den = abs(z0 - cmath.exp(complex(t1, -v)))
        if num == 0.0 or den == 0.0:
            return 0.0
        return math.sin(j * u) * math.sin(k * v) * math.log(num / den)

    def inner(v):
        if t0 == t1 and 0.0 < v < math.pi:
            return (integrate.quad(integrand, 0.0, v, args=(v,), epsabs=tol, limit=100)[0]
                    + integrate.quad(integrand, v, math.pi, args=(v,), epsabs=tol,
                                     limit=100)[0])
        return integrate.quad(integrand, 0.0, math.pi, args=(v,), epsabs=tol, limit=100)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = integrate.quad(inner, 0.0, math.pi, epsabs=tol, limit=100)[0]
    return -total / (2 * math.pi)


@pytest.mark.parametrize("j, k", [(1, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("lag", [0.0, 0.3])
def test_hoisted_integrand_is_bit_identical(j, k, lag):
    # the fixed-v factors are taken once per inner integral, and the product
    # keeps its order sin(j u) * sin(k v) * log(num / den), so every value
    # is the same float
    assert gff_cheb_covariance(j, k, 0.0, lag) == _two_argument_covariance(j, k, 0.0, lag)

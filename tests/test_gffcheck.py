"""Tests for the Gaussian-field covariance checks."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from regraph import errors, gffcheck
from regraph.errors import InvalidInputError, NumericError, ResourceLimitError
from regraph.gffcheck import gff_cheb_covariance, gff_cheb_covariances, gff_closed_form
from regraph.spectra import Spectrum, linear_statistic

from oracles import cheb_t_poly, green_halfplane, height_pairing, quad_cheb_covariance


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


@pytest.mark.parametrize("t0, t1", [(0.0, 710.0), (0.0, 1e308), (-1e308, 1e308),
                                    (0.0, math.inf), (0.0, math.nan)])
def test_a_lag_past_the_exp_range_is_refused(t0, t1):
    with pytest.raises(InvalidInputError, match="finite"):
        gff_cheb_covariance(1, 1, t0, t1)


# the quad oracle is asked for 1e-10, so that its own error stays far below
# the 1e-8 the rule is held to
_ORACLE_TOL = 1e-10


def _assert_rule_holds(values, estimates, lag, oracle_pairs):
    jmax, kmax = values.shape
    for j in range(1, jmax + 1):
        for k in range(1, kmax + 1):
            error = abs(values[j - 1, k - 1] - gff_closed_form(j, k, 0.0, lag))
            assert error < 1e-8, (j, k, lag)
            # the estimate bounds the true error, but at rounding level
            assert error <= max(estimates[j - 1, k - 1], 1e-12), (j, k, lag)
    for j, k in oracle_pairs:
        oracle = quad_cheb_covariance(j, k, 0.0, lag, tol=_ORACLE_TOL)
        assert abs(values[j - 1, k - 1] - oracle) < 1e-8, (j, k, lag)


@pytest.mark.parametrize("lag", [0.0, 1e-4, 1e-2, 0.3, 1.0, 3.0])
def test_rule_matches_closed_form_and_quad_oracle(lag):
    values, estimates = gff_cheb_covariances(8, 8, lag)
    pairs = [(j, k) for j in range(1, 9) for k in range(1, 9)]
    _assert_rule_holds(values, estimates, lag, pairs)
    # the scalar is the rule's one-entry case
    assert gff_cheb_covariance(8, 8, 0.0, lag) == values[7, 7]


@pytest.mark.parametrize("lag", [0.0, 0.01])
def test_rule_takes_its_step_from_the_largest_index(lag):
    # at max(j, k) = 20 the step of max(j, k) <= 8 reads an estimate of
    # order 1e-2 and would raise; the smaller step holds every pair
    values, estimates = gff_cheb_covariances(20, 20, lag)
    _assert_rule_holds(values, estimates, lag, [(20, 20), (19, 20), (20, 1), (13, 17)])


@pytest.mark.parametrize("jmax, kmax", [(1, 1), (3, 3), (8, 2), (20, 20), (40, 5), (5, 40)])
def test_rule_bytes_bound_tracemalloc_peak(jmax, kmax):
    gff_cheb_covariances(1, 1, 0.3)  # first-call set-up
    tracemalloc.start()
    try:
        gff_cheb_covariances(jmax, kmax, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = gffcheck.rule_bytes(jmax, kmax)
    assert need / 2 < peak <= need


def test_rule_is_refused_over_the_byte_cap_before_it_allocates(monkeypatch):
    need = gffcheck.rule_bytes(3, 3)
    monkeypatch.setattr(errors, "BYTE_CAP", need)
    gff_cheb_covariances(3, 3, 0.3)
    monkeypatch.setattr(errors, "BYTE_CAP", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="jmax=3, kmax=3"):
            gff_cheb_covariances(3, 3, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    """quad_cheb_covariance with the integrand of (u, v) that recomputes
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
    assert quad_cheb_covariance(j, k, 0.0, lag) == _two_argument_covariance(j, k, 0.0, lag)

"""Tests for spectra, polynomial bases, and the Kesten-McKay law."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

from regraph.errors import InvalidInputError, NumericError, ResourceLimitError
from regraph.graphs import PermGraph, SimpleGraph, sample_permutation_model, sample_uniform_model
from regraph.spectra import (
    PolySeries,
    Spectrum,
    cnbw_from_spectrum,
    eigenvalues,
    linear_statistic,
    mobius_cycle_poly,
    nb_basis_poly,
)
from regraph.walks import cnbw_via_nb_matrix, enumerate_cycles

from oracles import cheb_t_poly


U = np.linspace(-1, 1, 201)


@dataclass(frozen=True)
class KestenMcKay:
    """The spectral law of the infinite d-regular tree's adjacency operator,
    the oracle for the Kesten-McKay means that ``spectra`` centers with."""

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


def test_nb_basis_is_shifted_chebyshev():
    d = 6
    for k in range(0, 7):
        pk = nb_basis_poly(d, k)
        tk = np.cos(k * np.arccos(U))
        c = (d - 2) / (d - 1) ** (k // 2) if k >= 2 and k % 2 == 0 else 0.0
        expect = tk if k == 0 else 2 * tk + c
        assert np.allclose(pk(U), expect, atol=1e-12)


def test_spectrum_rescaling():
    rng = np.random.default_rng(1)
    g = sample_uniform_model(10, 3, rng)
    raw = eigenvalues(g, scale="raw")
    unit = raw.rescaled("unit")
    half = raw.rescaled("half")
    assert math.isclose(raw.values[0], 3.0, abs_tol=1e-9)
    assert math.isclose(unit.values[0], 3.0 / (2 * math.sqrt(2)), abs_tol=1e-9)
    assert math.isclose(half.values[0], 3.0 / math.sqrt(2), abs_tol=1e-9)
    assert unit.rescaled("raw").values == pytest.approx(raw.values)


def test_rescaling_below_degree_two():
    # an empty graph (degree 0) and a perfect matching (degree 1) have raw
    # spectra only: their unit and half scales divide by sqrt(degree - 1)
    empty = eigenvalues(SimpleGraph(3, 0, []), scale="raw")
    assert empty == Spectrum((0.0, 0.0, 0.0), 0, "raw")
    matching = eigenvalues(sample_uniform_model(4, 1, np.random.default_rng(2)), scale="raw")
    assert matching.values == pytest.approx((1.0, 1.0, -1.0, -1.0))
    for spec in (empty, matching):
        assert spec.rescaled("raw") == spec
        for scale in ("unit", "half"):
            with pytest.raises(InvalidInputError, match="degree >= 2"):
                spec.rescaled(scale)
        with pytest.raises(InvalidInputError, match="unknown scale"):
            spec.rescaled("bogus")
    with pytest.raises(InvalidInputError, match="degree >= 2"):
        eigenvalues(SimpleGraph(3, 0, []))


def test_eigenvalues_rejects_empty_adjacency():
    # a graph on no vertices has no spectrum
    for scale in ("raw", "unit"):
        with pytest.raises(InvalidInputError, match="at least one vertex"):
            eigenvalues(SimpleGraph(0, 2, []), scale=scale)


def test_eigenvalues_refuses_dense_copies_over_the_byte_cap(monkeypatch):
    # three 8-byte n x n copies at n = 20,000 would take 9.6 GB
    g = sample_permutation_model(20_000, 1, np.random.default_rng(0))
    monkeypatch.setattr(PermGraph, "adjacency", lambda self: pytest.fail("adjacency built"))
    with pytest.raises(ResourceLimitError):
        eigenvalues(g)


def test_cnbw_recovered_from_spectrum_uniform_model():
    rng = np.random.default_rng(2)
    g = sample_uniform_model(12, 3, rng)
    spec = eigenvalues(g)
    assert np.allclose(cnbw_from_spectrum(spec, 5), cnbw_via_nb_matrix(g, 5), atol=1e-6)


def test_cnbw_recovered_from_spectrum_perm_model():
    rng = np.random.default_rng(3)
    g = sample_permutation_model(9, 2, rng)
    spec = eigenvalues(g)
    assert np.allclose(cnbw_from_spectrum(spec, 5), cnbw_via_nb_matrix(g, 5), atol=1e-6)


def test_kesten_mckay_normalization_and_symmetry():
    for d in (3, 4, 6):
        km = kesten_mckay(d)
        mass, err = integrate.quad(km.unit_density, -1, 1)
        assert math.isclose(mass, 1.0, abs_tol=1e-8)
        mass_raw, _ = integrate.quad(km.density, -km.radius, km.radius)
        assert math.isclose(mass_raw, 1.0, abs_tol=1e-8)
        assert np.allclose(km.unit_density(U), km.unit_density(-U))


def test_kesten_mckay_density_value_at_zero():
    # 3-regular raw density at 0: 3*sqrt(8)/(2*pi*9) = sqrt(2)/(3*pi)
    km = kesten_mckay(3)
    assert math.isclose(
        float(km.density(0.0)), math.sqrt(2) / (3 * math.pi), rel_tol=1e-12
    )
    assert float(km.density(km.radius + 0.1)) == 0.0


def test_nb_basis_has_zero_kesten_mckay_mean():
    km = kesten_mckay(6)
    assert math.isclose(km.a0_of(nb_basis_poly(6, 0)), 1.0, abs_tol=1e-8)
    for k in range(1, 7):
        assert abs(km.a0_of(nb_basis_poly(6, k))) < 1e-8


def test_chebyshev_kesten_mckay_mean():
    # mean of T_k under the law is -(d-2)/(2 (d-1)^{k/2}) for even k, 0 for odd
    for d in (3, 6):
        km = kesten_mckay(d)
        for k in range(1, 6):
            expect = -(d - 2) / (2 * (d - 1) ** (k / 2)) if k % 2 == 0 else 0.0
            assert math.isclose(km.a0_of(cheb_t_poly(k, d)), expect, abs_tol=1e-8)


def test_linear_statistic_centers_with_km_mean():
    rng = np.random.default_rng(4)
    g = sample_uniform_model(14, 3, rng)
    spec = eigenvalues(g)
    km = kesten_mckay(6 if False else 3)
    f = cheb_t_poly(4, 3)
    stat = linear_statistic(spec, f)
    direct = float(np.sum(f(np.asarray(spec.values)))) - spec.n * km.a0_of(f)
    assert math.isclose(stat, direct, abs_tol=1e-8)


def test_linear_statistic_refuses_another_degree():
    spec = eigenvalues(sample_uniform_model(14, 3, np.random.default_rng(4)))
    for f in (nb_basis_poly(4, 2), cheb_t_poly(2, 6)):
        with pytest.raises(InvalidInputError, match="degree"):
            linear_statistic(spec, f)


def test_mobius_statistic_counts_cycles():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = sample_uniform_model(20, 3, rng)
        spec = eigenvalues(g)
        cnbw = cnbw_via_nb_matrix(g, 4)
        census = enumerate_cycles(g, 4)
        for k in (3, 4):
            stat = linear_statistic(spec, mobius_cycle_poly(g.degree, k))
            # exact Moebius inversion of the walk counts
            inverted = sum(
                _moebius(k // j) * cnbw[j - 1] for j in range(1, k + 1) if k % j == 0
            ) / (2 * k)
            assert math.isclose(stat, inverted, abs_tol=1e-6)
            assert (cnbw >= 0).all()
            # when short cycles are vertex-disjoint this is the cycle count
            from oracles import bad_walk_probe

            if np.all(bad_walk_probe(g, k) == 0):
                assert round(stat) == census.count(k)


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


def test_poly_series_validation():
    with pytest.raises(InvalidInputError):
        PolySeries((1.0,), 1)  # degree below 2
    with pytest.raises(InvalidInputError):
        PolySeries((), 3)

"""Tests for spectra, polynomial bases, and the Kesten-McKay law."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from regraph.errors import InvalidInputError, ResourceLimitError
from regraph.graphs import PermGraph, sample_permutation_model, sample_uniform_model
from regraph.spectra import (
    PolySeries,
    Spectrum,
    cheb_t_poly,
    cnbw_from_spectrum,
    eigenvalues,
    kesten_mckay,
    linear_statistic,
    mobius_cycle_poly,
    nb_basis_poly,
)
from regraph.walks import cnbw_via_nb_matrix, enumerate_cycles


U = np.linspace(-1, 1, 201)


def test_nb_basis_is_shifted_chebyshev():
    d = 6
    for k in range(0, 7):
        pk = nb_basis_poly(d, k, "unit")
        tk = np.cos(k * np.arccos(U))
        c = (d - 2) / (d - 1) ** (k // 2) if k >= 2 and k % 2 == 0 else 0.0
        expect = tk if k == 0 else 2 * tk + c
        assert np.allclose(pk(U), expect, atol=1e-12)


def test_nb_half_is_unit_in_doubled_variable():
    d = 4
    for k in range(0, 6):
        unit = nb_basis_poly(d, k, "unit")
        half = nb_basis_poly(d, k, "half")
        assert np.allclose(half(2 * U), unit(U), atol=1e-12)


def test_basis_round_trips():
    rng = np.random.default_rng(0)
    coef = tuple(rng.normal(size=6))
    f = PolySeries("nb_unit", coef, degree=6)
    for basis in ("monomial", "cheb_t", "cheb_u"):
        g = f.to_basis(basis)
        assert np.allclose(g(U), f(U), atol=1e-9)
        back = g.to_basis("nb_unit", degree=6)
        assert np.allclose(back.coef, coef, atol=1e-9)


def test_cheb_u_basis_evaluates_correctly():
    f = PolySeries("cheb_u", (0.0, 0.0, 1.0))
    theta = np.arccos(np.clip(U, -1, 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        u2 = np.where(np.abs(U) < 1, np.sin(3 * theta) / np.sin(theta), np.nan)
    mask = np.abs(U) < 0.999
    assert np.allclose(f(U)[mask], u2[mask], atol=1e-9)


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
    empty = eigenvalues(np.zeros((3, 3)), scale="raw")
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
        eigenvalues(np.zeros((3, 3)))


def test_eigenvalues_validates_matrix_input():
    with pytest.raises(InvalidInputError):
        eigenvalues(np.array([[0, 1], [1, 0], [0, 0]]))
    with pytest.raises(InvalidInputError):
        eigenvalues(np.array([[0, 1], [0, 0]]))
    with pytest.raises(InvalidInputError):
        eigenvalues(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))  # irregular


def test_eigenvalues_refuses_dense_copies_over_the_byte_cap(monkeypatch):
    # three 8-byte n x n copies at n = 20,000 would take 9.6 GB
    g = sample_permutation_model(20_000, 1, np.random.default_rng(0))
    monkeypatch.setattr(PermGraph, "adjacency", lambda self: pytest.fail("adjacency built"))
    with pytest.raises(ResourceLimitError):
        eigenvalues(g)


def test_eigenvalues_refuses_array_over_the_byte_cap_before_converting():
    class Huge:
        shape = (20_000, 20_000)

        def __array__(self, *args, **kwargs):
            pytest.fail("array input converted")

    with pytest.raises(ResourceLimitError):
        eigenvalues(Huge())


def test_eigenvalues_array_checks_make_no_dense_temporaries():
    n = 1200
    g = sample_permutation_model(n, 2, np.random.default_rng(1))
    a = g.adjacency()
    want = eigenvalues(g)
    tracemalloc.start()
    try:
        spec = eigenvalues(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec == want
    # the old whole-matrix allclose(a, a.T) took about 2.1 n x n float copies
    assert peak < 0.25 * 8 * n * n
    # an asymmetry within the last row block is still found
    a[n - 1, n - 2] += 1e-3
    with pytest.raises(InvalidInputError, match="symmetric"):
        eigenvalues(a)


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
    assert math.isclose(km.a0_of(nb_basis_poly(6, 0, "unit")), 1.0, abs_tol=1e-8)
    for k in range(1, 7):
        assert abs(km.a0_of(nb_basis_poly(6, k, "unit"))) < 1e-8


def test_chebyshev_kesten_mckay_mean():
    # mean of T_k under the law is -(d-2)/(2 (d-1)^{k/2}) for even k, 0 for odd
    for d in (3, 6):
        km = kesten_mckay(d)
        for k in range(1, 6):
            expect = -(d - 2) / (2 * (d - 1) ** (k / 2)) if k % 2 == 0 else 0.0
            assert math.isclose(km.a0_of(cheb_t_poly(k)), expect, abs_tol=1e-8)


def test_linear_statistic_centers_with_km_mean():
    rng = np.random.default_rng(4)
    g = sample_uniform_model(14, 3, rng)
    spec = eigenvalues(g)
    km = kesten_mckay(6 if False else 3)
    f = cheb_t_poly(4)
    stat = linear_statistic(spec, f)
    direct = float(np.sum(f(np.asarray(spec.values)))) - spec.n * km.a0_of(f)
    assert math.isclose(stat, direct, abs_tol=1e-8)


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
            from regraph.walks import bad_walk_probe

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
        PolySeries("bogus", (1.0,))
    with pytest.raises(InvalidInputError):
        PolySeries("nb_unit", (1.0,))  # missing degree
    with pytest.raises(InvalidInputError):
        PolySeries("monomial", ())

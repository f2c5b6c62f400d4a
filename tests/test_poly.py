import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distvar as dv
from distvar.errors import PoleHit


# ---------------------------------------------------------------------------
# bivariate interpolation


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fit_reproduces_random_poly2(seed):
    rng = np.random.default_rng(seed)
    dz, dw = int(rng.integers(0, 9)), int(rng.integers(0, 5))
    q = dv.Poly2(rng.normal(size=(dz + 1, dw + 1))
                 + 1j * rng.normal(size=(dz + 1, dw + 1)))
    zn, wn = dv.poly.interpolation_nodes(dz, dw)
    vals = np.array([[q(z, w) for w in wn] for z in zn])
    p = dv.fit_tensor_nodes(vals)
    scale = q.scale
    mods = rng.uniform(size=(100, 2))
    args = np.exp(2j * np.pi * rng.uniform(size=(100, 2)))
    pts = mods * args
    worst = max(abs(p(z, w) - q(z, w)) for z, w in pts)
    assert worst <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Blaschke products


def test_blaschke_single_zero_origin():
    b = dv.BlaschkeProduct([(0.0, 1)])
    assert abs(dv.blaschke_eval(b, 0.5)) == pytest.approx(0.5)


def test_blaschke_vanishes_at_zero():
    b = dv.BlaschkeProduct([(0.5, 1)])
    assert abs(dv.blaschke_eval(b, 0.5)) < 1e-15


def test_blaschke_boundary_modulus():
    b = dv.BlaschkeProduct([(0.3 + 0.2j, 2), (-0.5j, 1)], constant=1j)
    for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
        assert abs(abs(dv.blaschke_eval(b, np.exp(1j * t))) - 1.0) < 1e-12


def test_blaschke_modulus_properties():
    rng = np.random.default_rng(1)
    b = dv.BlaschkeProduct([(0.4, 1), (-0.2 + 0.3j, 2)])
    for _ in range(1000):
        z = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(dv.blaschke_eval(b, z)) <= 1.0 + 1e-12
    for t in np.arange(2048) * (2 * np.pi / 2048):
        assert abs(abs(dv.blaschke_eval(b, np.exp(1j * t))) - 1.0) < 1e-10


def test_blaschke_grid_matches_pointwise_evaluation():
    # the array path against a loop of scalar complex arithmetic; numpy's
    # vectorized products round differently, so the values agree to a few
    # units of rounding
    b = dv.BlaschkeProduct([(0.3 + 0.2j, 2), (-0.5j, 1)], constant=1j)
    zs = np.exp(2j * np.pi * np.arange(64) / 64).reshape(8, 8) * 0.999
    grid = dv.blaschke_eval(b, zs)
    assert grid.shape == zs.shape

    def pointwise(z):
        out = b.constant
        for a, m in b.zeros:
            out *= ((a - z) / (1.0 - a.conjugate() * z)) ** m
        return out

    loop = np.array([pointwise(complex(z)) for z in zs.ravel()]).reshape(zs.shape)
    assert np.abs(grid - loop).max() <= 8 * np.finfo(float).eps
    with pytest.raises(PoleHit):
        dv.blaschke_eval(b, np.array([0.0, 1.0 / np.conj(-0.5j)]))


def test_blaschke_pole_hit():
    b = dv.BlaschkeProduct([(0.5, 1)])
    with pytest.raises(PoleHit):
        dv.blaschke_eval(b, 2.0)


_NAN = float("nan")


@pytest.mark.parametrize("zero", [complex(_NAN, 0.0), complex(0.1, _NAN), 1.0, 1j, 2.0])
def test_blaschke_rejects_a_zero_off_the_open_disc(zero):
    # a NaN zero fails the disc test like one on or outside the circle, and
    # the symbol built on it never reaches an eigensolver
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not in the open disc"):
            dv.BlaschkeProduct([(0.2, 1), (zero, 1)])
        with pytest.raises(ValueError, match="not in the open disc"):
            dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(zero, 1)]), 1)


@pytest.mark.parametrize("constant", [_NAN, complex(1.0, _NAN), 2.0, 0.0])
def test_blaschke_rejects_a_constant_off_the_circle(constant):
    with pytest.raises(ValueError, match="unimodular"):
        dv.BlaschkeProduct([(0.2, 1)], constant)


def test_has_simple_roots():
    assert dv.has_simple_roots(dv.BlaschkeProduct([(0.0, 1), (0.5, 1)]), 1e-4)
    assert not dv.has_simple_roots(dv.BlaschkeProduct([(0.0, 2)]), 1e-4)
    assert not dv.has_simple_roots(
        dv.BlaschkeProduct([(0.0, 1), (1e-9, 1)]), 1e-4
    )
    # a separation of 0 flags only coincident zeros and higher multiplicities
    assert dv.has_simple_roots(dv.BlaschkeProduct([(0.0, 1), (1e-9, 1)]), 0.0)
    assert not dv.has_simple_roots(dv.BlaschkeProduct([(0.1, 1), (0.1, 1)]), 0.0)
    assert not dv.has_simple_roots(dv.BlaschkeProduct([(0.0, 2)]), 0.0)


def _blaschke_series(b, z0, n):
    """Taylor series of b at z0 along the symbol path that compress_pair and
    constrained_coextension run: b times the 1x1 identity."""
    return dv.taylor_at(dv.from_scalar_blaschke_identity(b, 1), z0, n)[:, 0, 0]


def test_blaschke_jet_matches_finite_differences():
    b = dv.BlaschkeProduct([(0.3 - 0.1j, 2), (-0.4, 1)], constant=-1.0)
    z0 = 0.2 + 0.25j
    h = 1e-5
    taylor = _blaschke_series(b, z0, 3)
    assert abs(taylor[0] - b(z0)) < 1e-14
    fd1 = (b(z0 + h) - b(z0 - h)) / (2 * h)
    fd2 = (b(z0 + h) - 2 * b(z0) + b(z0 - h)) / h ** 2
    assert abs(taylor[1] - fd1) < 1e-8
    assert abs(2 * taylor[2] - fd2) < 1e-5


def test_blaschke_taylor_past_factorial_range():
    # b(z) = (0.85 - z)/(1 - 0.85 z) needs coefficients past 170!, the last
    # factorial a double holds; they match the colligation A = D = [[0.85]],
    # B = -C = [[sqrt(1 - 0.85^2)]], whose transfer function is b
    b = dv.BlaschkeProduct([(0.85, 1)])
    taylor = _blaschke_series(b, 0.0, 201)
    assert np.all(np.isfinite(taylor))
    s = np.sqrt(1.0 - 0.85 ** 2)
    psi = dv.from_colligation([[0.85]], [[s]], [[-s]], [[0.85]])
    assert np.abs(taylor - dv.taylor_at(psi, 0.0, 201)[:, 0, 0]).max() < 1e-15


# ---------------------------------------------------------------------------
# unit normalization


def test_normalize_unit_canonicalizes_phase():
    p = dv.Poly2([[0, 0, 1j], [-1j, 0, 0]])
    q = dv.normalize_unit(p)
    expected = np.array([[0, 0, 1], [-1, 0, 0]], dtype=complex)
    assert np.max(np.abs(q.coeffs - expected)) < 1e-14


def test_unit_distance_invariant_under_scalar():
    p = dv.Poly2([[1.0, 2.0], [0.5, 0.0]])
    q = (0.3 - 0.7j) * p
    assert dv.unit_distance(p, q) < 1e-14


# ---------------------------------------------------------------------------
# point evaluation through the monomial table


def _polyval2d_reference(p, z, w):
    return np.polynomial.polynomial.polyval2d(z, w, p.coeffs)


def _point_bound(p):
    """values_at's rounding bound at points of the closed bidisc; polyval2d's
    Horner obeys it too, so the two may differ by twice it."""
    a, b = p.coeffs.shape
    return 2 * 3 * (a + b + a * b) * 2.0 ** -53 * float(np.abs(p.coeffs).sum())


def _unit_points(rng, shape):
    def draw():
        return np.sqrt(rng.uniform(size=shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))
    return draw(), draw()


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (1, 7), (3, 4), (5, 13)])
def test_point_table_matches_polyval2d(shape):
    """Constants, z-only, w-only and mixed boxes, on a flat point set."""
    rng = np.random.default_rng(sum(shape))
    p = dv.Poly2(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    z, w = _unit_points(rng, 40)
    got = p(z, w)
    assert got.shape == (40,)
    assert np.abs(got - _polyval2d_reference(p, z, w)).max() <= _point_bound(p)
    family = [p, dv.Poly2([[2.0]]), dv.Poly2(rng.normal(size=(2, 2)))]
    stacked = dv.poly.values_at(family, z, w)
    assert stacked.shape == (3, 40)
    for q, row in zip(family, stacked):
        assert np.abs(row - _polyval2d_reference(q, z, w)).max() <= _point_bound(q)


def test_point_table_keeps_the_shape_of_its_points():
    rng = np.random.default_rng(5)
    p = dv.Poly2(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    ts = np.exp(2j * np.pi * np.arange(24) / 24)
    zz, ww = np.meshgrid(ts, ts)
    grid = p(zz, ww)
    assert grid.shape == (24, 24)
    assert np.abs(grid - _polyval2d_reference(p, zz, ww)).max() <= _point_bound(p)
    value = p(0.3 - 0.2j, -0.5j)
    assert np.ndim(value) == 0
    assert abs(value - _polyval2d_reference(p, 0.3 - 0.2j, -0.5j)) <= _point_bound(p)
    empty = p(np.zeros(0, dtype=complex), np.zeros(0, dtype=complex))
    assert empty.shape == (0,)
    assert dv.poly.values_at([p, p.dz()], [], []).shape == (2, 0)


def test_certification_makes_no_polyval2d_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("polyval2d called")

    monkeypatch.setattr(np.polynomial.polynomial, "polyval2d", refuse)
    warmup = dv.InstanceSpec(theta_zeros=((0j, 2),), psi_spec={"kind": "companion", "d": 2},
                             seed=0, boundary_n=512, disc_grid=(16, 64))
    recipe = dv.random_recipe(1)
    assert recipe.psi_spec["d"] == 3
    for spec in (warmup, recipe):
        report = dv.run_certification(dv.make_instance(spec))
        assert report.to_dict()["entries"]

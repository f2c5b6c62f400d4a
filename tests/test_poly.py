import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distvar as dv
from distvar.errors import PoleHit, SingularInterpolation, ZeroPolynomial


# ---------------------------------------------------------------------------
# roots


def test_roots_symmetric_factorization():
    got = sorted(dv.roots(dv.Poly1([-1, 0, 1])), key=lambda z: z.real)
    assert np.allclose(got, [-1.0, 1.0], atol=1e-10)


def test_roots_repeated_origin():
    got = dv.roots(dv.Poly1([0, 0, 1]))
    assert len(got) == 2
    assert max(abs(r) for r in got) < 1e-6


def test_roots_by_substitution():
    # z^2 - z/2: roots {0, 1/2}, each verified by plugging back in
    p = dv.Poly1([0, -0.5, 1])
    got = sorted(dv.roots(p), key=lambda z: z.real)
    for r in got:
        assert abs(p(r)) < 1e-12
    assert np.allclose(got, [0.0, 0.5], atol=1e-10)


def test_roots_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        dv.roots(dv.Poly1([0.0]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roots_from_roots_roundtrip(data):
    deg = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    rts = []
    while len(rts) < deg:
        c = complex(rng.normal(), rng.normal())
        if all(abs(c - r) > 1e-3 for r in rts):
            rts.append(c)
    p = dv.Poly1.from_roots(rts)
    got = dv.roots(p, dv.DEFAULT.override(tol_root=1e-6))
    assert dv.matching_distance(rts, got) < 1e-5


# ---------------------------------------------------------------------------
# bivariate evaluation and interpolation


def test_eval2_on_curve_points():
    p = dv.Poly2([[0, 0, 1], [-1, 0, 0]])  # w^2 - z
    assert dv.eval2(p, 0.25, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert dv.eval2(p, 0.0, 0.0) == 0.0
    assert dv.eval2(p, 1.0, 0.0) == pytest.approx(-1.0)


def test_fit_tensor_grid_recovers_curve():
    # samples of w^2 - z computed with plain python arithmetic
    zs = [0.1, 0.7]
    ws = [0.2, 0.5 + 0.1j, -0.3]
    samples = {(z, w): w * w - z for z in zs for w in ws}
    p = dv.fit_tensor_grid(samples, 1, 2)
    expected = np.array([[0, 0, 1], [-1, 0, 0]], dtype=complex)
    assert np.max(np.abs(p.coeffs - expected)) < 1e-12


def test_fit_tensor_grid_constant():
    samples = {(z, w): 1.0 for z in [0.0, 1.0] for w in [0.0, 1.0]}
    p = dv.fit_tensor_grid(samples, 1, 1)
    assert p.coeffs.shape == (1, 1)
    assert p.coeffs[0, 0] == pytest.approx(1.0)


def test_fit_tensor_grid_monomial_zw():
    samples = {(z, w): z * w for z in [0.3, 0.9] for w in [0.5, -0.5]}
    p = dv.fit_tensor_grid(samples, 1, 1)
    expected = np.array([[0, 0], [0, 1]], dtype=complex)
    assert np.max(np.abs(p.coeffs - expected)) < 1e-12


def test_fit_tensor_grid_rejects_coincident_nodes():
    with pytest.raises(SingularInterpolation):
        dv.fit_tensor_nodes([0.0, 0.0], [0.0, 1.0], np.zeros((2, 2)))


def test_fit_tensor_grid_rejects_incomplete_grid():
    samples = {(0.0, 0.0): 0.0, (1.0, 1.0): 1.0}
    with pytest.raises(SingularInterpolation):
        dv.fit_tensor_grid(samples, 1, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fit_reproduces_random_poly2(seed):
    rng = np.random.default_rng(seed)
    dz, dw = int(rng.integers(0, 9)), int(rng.integers(0, 5))
    q = dv.Poly2(rng.normal(size=(dz + 1, dw + 1))
                 + 1j * rng.normal(size=(dz + 1, dw + 1)))
    zn, wn = dv.poly.interpolation_nodes(dz, dw)
    vals = np.array([[q(z, w) for w in wn] for z in zn])
    p, _ = dv.fit_tensor_nodes(zn, wn, vals)
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


def test_blaschke_pole_hit():
    b = dv.BlaschkeProduct([(0.5, 1)])
    with pytest.raises(PoleHit):
        dv.blaschke_eval(b, 2.0)


def test_has_simple_roots():
    assert dv.has_simple_roots(dv.BlaschkeProduct([(0.0, 1), (0.5, 1)]), 1e-4)
    assert not dv.has_simple_roots(dv.BlaschkeProduct([(0.0, 2)]), 1e-4)
    assert not dv.has_simple_roots(
        dv.BlaschkeProduct([(0.0, 1), (1e-9, 1)]), 1e-4
    )


def test_blaschke_jet_matches_finite_differences():
    b = dv.BlaschkeProduct([(0.3 - 0.1j, 2), (-0.4, 1)], constant=-1.0)
    z0 = 0.2 + 0.25j
    h = 1e-5
    taylor = b.taylor(z0, 3)
    fd1 = (b(z0 + h) - b(z0 - h)) / (2 * h)
    fd2 = (b(z0 + h) - 2 * b(z0) + b(z0 - h)) / h ** 2
    assert abs(taylor[1] - fd1) < 1e-8
    assert abs(2 * taylor[2] - fd2) < 1e-5


def test_blaschke_taylor_past_factorial_range():
    # b(z) = (0.85 - z)/(1 - 0.85 z) needs coefficients past 170!, the last
    # factorial a double holds; they match the colligation A = D = [[0.85]],
    # B = -C = [[sqrt(1 - 0.85^2)]], whose transfer function is b
    b = dv.BlaschkeProduct([(0.85, 1)])
    taylor = b.taylor(0.0, 201)
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

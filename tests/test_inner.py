import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import distvar as dv
from distvar.certify import VarietySamples
from distvar.errors import NotPureRealization, NotUnitaryColligation, ResolventSingular
from distvar.inner import (
    BP_PRODUCT, COLLIGATION, POLYNOMIAL, MatrixInnerFunction, circle_grid, interior_disc_grid,
    taylor_until,
)
from distvar.instances import build_psi
from conftest import cauchy_coefficients, random_unitary, w2z_poly
from test_workloads import WL


def test_constant_unitary_colligation():
    u = np.array([[0, 1], [1j, 0]], dtype=complex)
    psi = dv.from_colligation(np.zeros((0, 0)), None, None, u)
    assert np.allclose(dv.eval_psi(psi, 0.7j), u)


def test_scalar_shift_colligation():
    psi = dv.from_colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    for z in (0.0, 0.3, -0.9j):
        assert dv.eval_psi(psi, z)[0, 0] == pytest.approx(z)


def test_random_unitary_split_boundary_defect():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 4)
    psi = dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    assert dv.boundary_unitarity_defect(psi, 256) < 1e-10


def test_colligation_rejects_non_unitary():
    with pytest.raises(NotUnitaryColligation):
        dv.from_colligation([[0.5]], [[1.0]], [[1.0]], [[0.0]])


def test_colligation_rejects_non_pure_state():
    with pytest.raises(NotPureRealization):
        dv.from_colligation([[1.0]], [[0.0]], [[0.0]], [[1.0]])


def test_eval_psi_companion(companion_psi_2):
    assert np.allclose(
        dv.eval_psi(companion_psi_2, 0.0), np.array([[0, 0], [1, 0]])
    )
    v = dv.eval_psi(companion_psi_2, 1j)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2), 2) < 1e-12


def test_eval_psi_scalar_identity():
    psi = dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(0.0, 1)]), 1)
    # factor convention (a - z)/(1 - conj(a) z): zero at the origin gives -z
    assert dv.eval_psi(psi, 0.3)[0, 0] == pytest.approx(-0.3)


def test_jet_scalar_shift(scalar_shift_psi):
    taylor = dv.taylor_at(scalar_shift_psi, 0.37 - 0.11j, 2)
    assert taylor[0][0, 0] == pytest.approx(0.37 - 0.11j)
    assert taylor[1][0, 0] == pytest.approx(1.0)


def test_jet_companion_linear(companion_psi_2):
    for lam in (0.0, 0.5j):
        taylor = dv.taylor_at(companion_psi_2, lam, 2)
        assert np.allclose(taylor[0], [[0, lam], [1, 0]])
        assert np.allclose(taylor[1], [[0, 1], [0, 0]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jet_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 5)
    psi = dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    lam = 0.31 - 0.22j
    taylor = dv.taylor_at(psi, lam, 3)
    f = lambda z: dv.eval_psi(psi, z)
    h = 1e-5
    fd1 = (f(lam + h) - f(lam - h)) / (2 * h)
    assert np.linalg.norm(taylor[1] - fd1, 2) < 1e-9
    # 5-point stencil keeps the oracle's own roundoff below the tolerance
    h = 1e-3
    fd2 = (
        -f(lam + 2 * h) + 16 * f(lam + h) - 30 * f(lam)
        + 16 * f(lam - h) - f(lam - 2 * h)
    ) / (12 * h ** 2)
    assert np.linalg.norm(2 * taylor[2] - fd2, 2) < 1e-7


def test_bp_product_jet_matches_finite_differences():
    eye = np.eye(2)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    u = np.array([[0.6, 0.8], [-0.8, 0.6]])
    psi = dv.from_bp_factors([
        dv.BPFactor(0.2 + 0.1j, proj, u),
        dv.BPFactor(-0.3, eye, np.diag([1j, 1.0])),
    ])
    lam = -0.15 + 0.4j
    h = 1e-5
    taylor = dv.taylor_at(psi, lam, 2)
    f = lambda z: dv.eval_psi(psi, z)
    fd1 = (f(lam + h) - f(lam - h)) / (2 * h)
    assert np.linalg.norm(taylor[1] - fd1, 2) < 1e-9
    assert np.allclose(taylor[0], f(lam))


@pytest.mark.parametrize("zero", [complex("nan"), complex(0.0, float("nan")), 1.0, -1j])
def test_bp_factor_rejects_a_zero_off_the_open_disc(zero):
    with pytest.raises(ValueError, match="not in the open disc"):
        dv.BPFactor(zero, np.eye(2), np.eye(2))


def test_bp_factor_checks_take_no_svd_on_exact_identities(monkeypatch):
    # an identity factor's three residuals are exactly zero, so their 2-norms
    # need no SVD; any nonzero residual still takes one, and still decides
    two_norms = []
    norm = np.linalg.norm

    def recording(x, ord=None, *args, **kwargs):
        if ord == 2:
            two_norms.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording)
    eye = np.eye(3)
    dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(0.3, 2), (-0.5j, 1)]), 3)
    assert two_norms == []
    v = random_unitary(np.random.default_rng(3), 3)[:, :1]
    dv.BPFactor(0.3, v @ v.conj().T, eye)
    assert two_norms
    skew = np.diag([1.0, 0.0, 0.0]) + 1e-3 * np.eye(3, k=1)
    for p, u, what in ((skew, eye, "Hermitian"), (2 * eye, eye, "idempotent"),
                       (eye, 1.01 * eye, "unitarity")):
        with pytest.raises(ValueError, match=what):
            dv.BPFactor(0.3, p, u)


def test_taylor_until_past_171_terms():
    # a zero of modulus 0.85 needs 220 terms at 1e-16; k! overflows from k = 171
    a = 0.85
    psi = dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(a, 1)]), 1)
    s = np.sqrt(1.0 - a * a)
    same = dv.from_colligation([[a]], [[s]], [[-s]], [[a]])
    coeffs = taylor_until(psi, 1e-16)
    assert np.isfinite(coeffs).all()
    assert coeffs.shape == (220, 1, 1)
    assert np.abs(coeffs - taylor_until(same, 1e-16)).max() < 1e-14


def test_taylor_until_of_a_polynomial_stops_at_its_degree():
    # the series of a polynomial past its degree is exactly zero
    for seed in range(10):
        psi = dv.make_instance(dv.random_recipe(seed, kinds=("companion",))).psi
        assert np.array_equal(taylor_until(psi, 1e-16), psi.data["coeffs"])


KINDS = ["companion", "colligation", "scalar_blaschke_times_identity"]


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_taylor_at_matches_the_cauchy_integral(kind, repeated):
    for seed in range(4):
        psi = dv.make_instance(dv.random_recipe(seed, repeated=repeated, kinds=(kind,))).psi
        ref = cauchy_coefficients(psi)
        assert np.abs(dv.taylor_at(psi, 0.0, len(ref)) - ref).max() < 1e-14


@pytest.mark.parametrize("kind", KINDS)
def test_taylor_at_of_no_terms_is_empty(kind):
    psi = dv.make_instance(dv.random_recipe(0, kinds=(kind,))).psi
    assert dv.taylor_at(psi, 0.3, 0).shape == (0, psi.d, psi.d)


# ---------------------------------------------------------------------------
# variety polynomial


def test_variety_scalar_shift(scalar_shift_psi):
    v = dv.variety_polynomial(scalar_shift_psi)
    target = dv.Poly2([[0.0, 1.0], [-1.0, 0.0]])  # w - z
    assert dv.unit_distance(v.p, target) < 1e-12


def test_variety_companion(companion_psi_2):
    v = dv.variety_polynomial(companion_psi_2)
    assert dv.unit_distance(v.p, w2z_poly()) < 1e-12
    assert v.degw == 2


def test_variety_scalar_square():
    psi = dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(0.0, 2)]), 1)
    v = dv.variety_polynomial(psi)
    target = dv.Poly2([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])  # w - z^2
    assert dv.unit_distance(v.p, target) < 1e-12


def test_variety_colligation_consistency():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 5)
    psi = dv.from_colligation(u[:3, :3], u[:3, 3:], u[3:, :3], u[3:, 3:])
    v = dv.variety_polynomial(psi)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        for w in dv.fiber(psi, z):
            worst = max(worst, abs(v.p(z, w)))
    assert worst < 1e-8 * v.p.scale


def _recipe_symbols():
    """The symbols of random_recipe 0-39 in both modes, all three kinds among them."""
    return [build_psi(dv.random_recipe(seed, repeated=repeated))
            for repeated in (False, True) for seed in range(40)]


def test_variety_vanishes_on_the_fibers():
    # fibers over the circles of radius 0.35 and 0.85 lie on the curve, to 1e-7 relative
    zs = np.concatenate([0.35 * circle_grid(100), 0.85 * circle_grid(100)])
    symbols = _recipe_symbols()
    assert {psi.kind for psi in symbols} == {COLLIGATION, BP_PRODUCT, POLYNOMIAL}
    for psi in symbols:
        p = dv.variety_polynomial(psi).p
        worst = np.abs(p(np.repeat(zs, psi.d), dv.fibers_grid(psi, zs).ravel())).max()
        assert worst <= 1e-7 * p.scale


def _cleared_determinant(psi, z, w):
    """det(Psi(z) - wI) at the points (z_i, w_j), times the denominator its
    representation clears, from ``eval_psi_grid`` and not ``_pencil_values``."""
    det = np.linalg.det(dv.eval_psi_grid(psi, z)[:, None] - w[:, None, None] * np.eye(psi.d))
    if psi.kind == COLLIGATION:
        a = psi.data["A"]
        det *= np.linalg.det(np.eye(a.shape[0]) - z[:, None, None] * a)[:, None]
    elif psi.kind == BP_PRODUCT:
        for f in psi.data["factors"]:
            det *= ((1.0 - np.conj(f.zero) * z) ** f.rank)[:, None]
    return det


def test_no_degree_bound_is_understated():
    # on a torus grid of twice the bound in each variable, the DFT of a
    # cleared determinant of larger bidegree leaves coefficients outside the box
    for psi in _recipe_symbols():
        v = dv.variety_polynomial(psi)
        box = (v.degz + 1, psi.d + 1)
        z, w = circle_grid(2 * box[0]), circle_grid(2 * box[1])
        c = np.fft.fft2(_cleared_determinant(psi, z, w)) / (z.size * w.size)
        outside = c.copy()
        outside[: box[0], : box[1]] = 0.0
        assert np.abs(outside).max() <= 1e-13 * np.abs(c).max()
        assert dv.unit_distance(dv.Poly2(c[: box[0], : box[1]]), v.p) <= 1e-13


def test_fiber_values(companion_psi_2):
    got = dv.fiber(companion_psi_2, 0.25)
    assert np.allclose(got, [-0.5, 0.5], atol=1e-12)
    assert np.allclose(dv.fiber(companion_psi_2, 0.0), [0.0, 0.0], atol=1e-12)
    psi = dv.from_polynomial(np.array([np.zeros((2, 2)), np.eye(2)]))
    assert np.allclose(dv.fiber(psi, 0.3), [0.3, 0.3])


def test_fiber_continuity():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    psi = dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    for _ in range(100):
        z = 0.98 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        a = dv.fiber(psi, z)
        b = dv.fiber(psi, z + 1e-6)
        assert dv.matching_distance(a, b) < 1e-3


# ---------------------------------------------------------------------------
# certificates and invariants


def test_distinguished_scalar_and_companion(scalar_shift_psi, companion_psi_2):
    assert dv.distinguished_certificate(scalar_shift_psi).passed
    assert dv.distinguished_certificate(companion_psi_2).passed


def test_distinguished_fails_for_constant_unitary():
    psi = dv.from_colligation(np.zeros((0, 0)), None, None, [[1.0]])
    entry = dv.distinguished_certificate(psi)
    assert entry.status == "fail"
    assert not entry.data["conditions"]["meets_open_bidisc"]


def test_boundary_unitarity_invariant_2048(companion_psi_2, scalar_shift_psi):
    for psi in (companion_psi_2, scalar_shift_psi):
        assert dv.boundary_unitarity_defect(psi, 2048) < 1e-8


def test_interior_pureness_invariant():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    psi = dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    worst = 0.0
    for _ in range(1000):
        lam = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        worst = max(worst, max(abs(v) for v in dv.fiber(psi, lam)))
    assert worst < 1.0


def test_taylor_at_matches_eval(companion_psi_2):
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 4)
    psis = [companion_psi_2,
            dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:]),
            dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(0.3, 1)]), 2)]
    z = 0.41 - 0.17j
    for psi in psis:
        for lam in (0.0, 0.2 + 0.1j):
            coeffs = dv.taylor_at(psi, lam, 40)
            acc = sum(coeffs[k] * (z - lam) ** k for k in range(coeffs.shape[0]))
            assert np.linalg.norm(acc - dv.eval_psi(psi, z), 2) < 1e-12


def test_distinguished_reads_pure_margin_from_tolerances():
    # Psi(z) = b(z) for one Blaschke factor with zero 0.8, so rho(Psi(0)) = 0.8
    psi = dv.from_scalar_blaschke_identity(dv.BlaschkeProduct([(0.8, 1)]), 1)
    entry = dv.distinguished_certificate(psi)
    assert entry.data["conditions"]["interior_strict"]
    tol = dv.DEFAULT.override(pure_margin=0.5)
    entry = dv.distinguished_certificate(psi, tol=tol)
    assert not entry.data["conditions"]["interior_strict"]
    assert entry.status == "fail"


def test_distinguished_reads_tol_unitary_from_tolerances():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    psi = dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    assert 0.0 < psi.boundary_defect <= dv.DEFAULT.tol_unitary
    assert dv.distinguished_certificate(psi).passed
    tol = dv.DEFAULT.override(tol_unitary=psi.boundary_defect / 2)
    entry = dv.distinguished_certificate(psi, tol=tol)
    assert not entry.data["conditions"]["boundary_unimodular"]
    # a bound above the tolerance proves no failure
    assert entry.status == "inconclusive"


# ---------------------------------------------------------------------------
# the grid evaluation layer, pinned bit for bit to per-point scalar formulas;
# grid fibers within 1e-13 of LAPACK's


def _oracle_psi(psi, z):
    """Psi(z) at one point, written out per representation."""
    z = complex(z)
    if psi.kind == "polynomial":
        coeffs = psi.data["coeffs"]
        out = coeffs[-1].copy()
        for k in range(coeffs.shape[0] - 2, -1, -1):
            out = z * out + coeffs[k]
        return out
    if psi.kind == "colligation":
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        if A.shape[0] == 0:
            return D.copy()
        return D + z * (C @ np.linalg.solve(np.eye(A.shape[0]) - z * A, B))
    out = psi.data["leading"].copy()
    for f in psi.data["factors"]:
        a, p = f.zero, f.projection
        b = (a - z) / (1.0 - np.conj(a) * z)
        out = out @ (f.unitary @ (np.eye(p.shape[0]) - p + b * p))
    return out


def _oracle_fiber(psi, z):
    vals = np.linalg.eigvals(_oracle_psi(psi, z))
    return sorted((complex(v) for v in vals), key=lambda v: (v.real, v.imag))


def _grid_symbols():
    rng = np.random.default_rng(21)
    coeffs = np.zeros((2, 2, 2), dtype=complex)
    coeffs[0, 1, 0] = 1.0
    coeffs[1, 0, 1] = 1.0
    u = random_unitary(rng, 4)
    s = random_unitary(rng, 2)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    b = dv.BlaschkeProduct([(0.3 + 0.2j, 2), (-0.5, 1)], constant=1j)
    return {
        "companion": dv.from_polynomial(coeffs),
        "colligation": dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:]),
        "colligation-1x1": dv.from_colligation(s[:1, :1], s[:1, 1:], s[1:, :1], s[1:, 1:]),
        "bp-factors": dv.from_bp_factors(
            [dv.BPFactor(0.2 + 0.1j, proj, rot),
             dv.BPFactor(-0.3 + 0.45j, np.eye(2), np.diag([1j, 1.0]))],
            leading=random_unitary(rng, 2),
        ),
        "scalar-identity": dv.from_scalar_blaschke_identity(b, 2),
        "scalar-identity-d1": dv.from_scalar_blaschke_identity(b, 1),
    }


def _grid_points():
    circle = np.exp(1j * (np.arange(64) * (2.0 * np.pi / 64)))
    return np.concatenate([circle, interior_disc_grid(64)])


def _assert_near_oracle(psi, zs, values):
    """Each value within 1e-13 max(1, ||oracle||_2) of ``_oracle_psi``: the
    grid's entry-wise arithmetic rounds apart from the pointwise matrix
    formula."""
    for z, value in zip(zs, values):
        oracle = _oracle_psi(psi, z)
        assert np.abs(value - oracle).max() <= 1e-13 * max(1.0, np.linalg.norm(oracle, 2)), z


@pytest.mark.parametrize("name", sorted(_grid_symbols()))
def test_grid_layer_matches_pointwise_formula(name):
    psi = _grid_symbols()[name]
    zs = _grid_points()
    values = dv.eval_psi_grid(psi, zs)
    fibers = dv.fibers_grid(psi, zs)
    assert values.shape == (zs.size, psi.d, psi.d)
    assert fibers.shape == (zs.size, psi.d)
    _assert_near_oracle(psi, zs, values)
    for k, z in enumerate(zs):
        # the grid's fibers come from the stacked eigenvalue kernel, which
        # agrees with LAPACK to rounding: as multisets, within 1e-13
        assert dv.matching_distance(fibers[k].tolist(), _oracle_fiber(psi, z)) <= 1e-13
        assert fibers[k].tolist() == sorted(fibers[k].tolist(), key=lambda v: (v.real, v.imag))
    # one-point grids and the one-point calls give the bits of the point's
    # row of a 2048-point grid, on the circle and inside the disc
    big = np.concatenate([circle_grid(2048)[:2048 - 64], interior_disc_grid(64)])
    rows = dv.eval_psi_grid(psi, big)
    for k in list(range(0, big.size, 9)) + list(range(big.size - 64, big.size)):
        z = big[k]
        assert np.array_equal(dv.eval_psi_grid(psi, [z])[0], rows[k])
        assert np.array_equal(dv.eval_psi(psi, z), rows[k])
        assert dv.fiber(psi, z) == sorted((complex(v) for v in np.linalg.eigvals(rows[k])),
                                          key=lambda v: (v.real, v.imag))


def _stacked_reference(psi, zs):
    """Psi on a grid by stacked matrix arithmetic: one batched solve of the
    resolvent for a colligation, stacked products of the factor matrices for
    a Blaschke-Potapov product, stacked Horner for a polynomial."""
    zc = zs[:, None, None]
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        if A.shape[0] == 0:
            return np.repeat(D[None], zs.size, axis=0)
        return D + zc * (C @ np.linalg.solve(np.eye(A.shape[0]) - zc * A[None], B[None]))
    if psi.kind == BP_PRODUCT:
        out = np.repeat(psi.data["leading"][None], zs.size, axis=0)
        for f in psi.data["factors"]:
            b = (f.zero - zc) / (1.0 - np.conj(f.zero) * zc)
            out = out @ (f.unitary @ (np.eye(psi.d) - f.projection + b * f.projection[None]))
        return out
    coeffs = psi.data["coeffs"]
    out = np.repeat(coeffs[-1][None], zs.size, axis=0)
    for c in coeffs[-2::-1]:
        out = zc * out + c
    return out


def _sweep_symbols():
    """The symbols of ``random_recipe`` 0-199 in both modes and those
    ``construct_psi`` builds for the pair pools at seeds 0 and 101, whose
    states all have N = 1; Haar colligations with N = 4 and 5 reach the
    batched solve."""
    for repeated in (False, True):
        for seed in range(200):
            yield build_psi(dv.random_recipe(seed, repeated=repeated))
    for seed in (0, 101):
        for item in WL.make_pool(dv, WL.WORKLOADS["pair_construct"], seed):
            yield dv.construct_psi(item.pair)
    rng = np.random.default_rng(40)
    for n in (4, 5):
        for d in (1, 2, 3):
            u = random_unitary(rng, n + d)
            yield dv.from_colligation(u[:n, :n], u[:n, n:], u[n:, :n], u[n:, n:])


def test_grid_layer_matches_stacked_reference_on_the_sweep_symbols():
    zs = np.concatenate([circle_grid(2048), interior_disc_grid(64)])
    states = set()
    for psi in _sweep_symbols():
        ref = _stacked_reference(psi, zs)
        scale = np.maximum(1.0, np.linalg.norm(ref, 2, axis=(1, 2)))
        worst = (np.abs(dv.eval_psi_grid(psi, zs) - ref).max(axis=(1, 2)) / scale).max()
        assert worst <= 1e-13, psi
        if psi.kind == COLLIGATION:
            states.add(psi.data["A"].shape[0])
    # both colligation branches were compared: cofactors and the batched solve
    assert {1, 2, 3} <= states and max(states) > 3


def _sampled_conditions(psi, tol=dv.DEFAULT):
    """The certificate's three conditions decided on sampled fibers, point by
    point: 64 circle points and 64 interior points."""
    circle = np.exp(1j * (np.arange(64) * (2.0 * np.pi / 64)))
    worst_boundary = max(abs(abs(v) - 1.0) for z in circle for v in _oracle_fiber(psi, z))
    interior = [max(abs(v) for v in _oracle_fiber(psi, lam)) for lam in interior_disc_grid(64)]
    return {"boundary_unimodular": worst_boundary <= tol.tol_unitary,
            "interior_strict": max(interior) <= 1.0 - tol.pure_margin,
            "meets_open_bidisc": min(interior) < 1.0 - 1e-9}


@pytest.mark.parametrize("name", sorted(_grid_symbols()))
def test_distinguished_certificate_matches_pointwise_loop(name):
    psi = _grid_symbols()[name]
    data = dv.distinguished_certificate(psi).data
    assert data["conditions"] == _sampled_conditions(psi)
    assert data["boundary_defect"] == psi.boundary_defect
    assert data["interior_max_modulus"] == dv.interior_pureness(psi)


@pytest.mark.parametrize("repeated", [False, True])
def test_distinguished_certificate_matches_pointwise_loop_on_recipes(repeated):
    for seed in range(50):
        psi = dv.make_instance(dv.random_recipe(seed, repeated=repeated)).psi
        conditions = dv.distinguished_certificate(psi).data["conditions"]
        assert conditions == _sampled_conditions(psi), seed


def test_distinguished_certificate_pins_w2z_and_a_non_pure_symbol(companion_psi_2):
    entry = dv.distinguished_certificate(companion_psi_2)
    assert entry.status == "pass"
    assert entry.data["witness"] == [0j, 0j]
    # Psi(z) = diag(z, 1): the constant eigenvalue 1 is an interior fiber on the circle
    diag = dv.from_polynomial(np.array([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]))
    entry = dv.distinguished_certificate(diag)
    assert entry.status == "fail"
    assert entry.data["conditions"] == {"boundary_unimodular": True, "interior_strict": False,
                                        "meets_open_bidisc": False}
    assert "witness" not in entry.data
    assert entry.data["conditions"] == _sampled_conditions(diag)


def test_distinguished_certificate_evaluates_psi_at_the_origin_only(monkeypatch):
    points = []
    grid = dv.inner.eval_psi_grid

    def recording(psi, zs):
        points.extend(np.asarray(zs, dtype=complex).ravel().tolist())
        return grid(psi, zs)

    def no_fibers(psi, zs):
        raise AssertionError("the distinguished certificate sampled fibers")

    monkeypatch.setattr(dv.inner, "eval_psi_grid", recording)
    monkeypatch.setattr(dv.inner, "fibers_grid", no_fibers)
    for psi in _grid_symbols().values():
        points.clear()
        dv.distinguished_certificate(psi)
        assert points == [0j]


@pytest.mark.parametrize("name", ["companion", "colligation", "scalar-identity"])
def test_mesh_matches_matching_distance_loop(name):
    # reference: one linear_sum_assignment call per pair of consecutive fibers
    psi = _grid_symbols()[name]
    variety = dv.variety_polynomial(psi)
    for boundary_n in (128, 2048):
        samples = VarietySamples(variety, boundary_n)
        d = variety.degw
        z = samples.boundary_z.reshape(-1, d)
        w = samples.boundary_w.reshape(-1, d)
        rows = w.shape[0]
        dz = float(np.abs(np.roll(z[:, 0], -1) - z[:, 0]).max())
        dw = 0.0
        for k in range(rows):
            cost = np.abs(w[k][:, None] - w[(k + 1) % rows][None, :])
            dw = max(dw, float(cost[linear_sum_assignment(cost)].max()))
        assert samples.mesh() == dz + dw


@pytest.mark.parametrize("name", ["companion", "colligation", "scalar-identity"])
def test_mesh_makes_no_assignment_solver_call(name, solver_calls):
    variety = dv.variety_polynomial(_grid_symbols()[name])
    VarietySamples(variety, 2048).mesh()
    assert solver_calls == []
    # the patch is live: a stack with tied row minima still reaches the solver
    dv.opcore.assignment_max(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
    assert solver_calls == [(2, 2)]


def test_colligation_grid_as_long_as_the_state():
    # grid size = state size = d, on the cofactor branch (N = 2) and the
    # batched solve (N = 4): the solve must read B as one matrix, not as a
    # stack of vectors (numpy 1.x reads a 2-d right-hand side so)
    for size in (2, 4):
        u = random_unitary(np.random.default_rng(30 + size), 2 * size)
        psi = dv.from_colligation(u[:size, :size], u[:size, size:], u[size:, :size],
                                  u[size:, size:])
        zs = _grid_points()[[3, 70, 90, 120][:size]]
        _assert_near_oracle(psi, zs, dv.eval_psi_grid(psi, zs))
        rows = dv.eval_psi_grid(psi, circle_grid(2048))
        for k in (0, 5, 1024):
            assert np.array_equal(dv.eval_psi_grid(psi, circle_grid(2048)[[k]])[0], rows[k])


def test_eval_psi_grid_rejects_points_outside_the_disc(companion_psi_2):
    with pytest.raises(ValueError, match="outside the closed disc"):
        dv.eval_psi_grid(companion_psi_2, [0.5, 1.0 + 1e-6, 0.0])
    # slightly beyond the circle is tolerated
    assert dv.eval_psi_grid(companion_psi_2, [1.0 + 1e-10]).shape == (1, 2, 2)


def _state_symbol(a):
    """A colligation symbol with state matrix ``a`` and d = 1, built without
    the unitarity and stability checks."""
    a = np.asarray(a, dtype=complex)
    size = a.shape[0]
    data = {"A": a, "B": np.ones((size, 1), dtype=complex),
            "C": np.ones((1, size), dtype=complex), "D": np.eye(1, dtype=complex)}
    return MatrixInnerFunction(COLLIGATION, 1, data, 0.0, 2.0)


def test_eval_psi_grid_singular_resolvent():
    psi = _state_symbol([[2.0]])
    with pytest.raises(ResolventSingular):
        dv.eval_psi_grid(psi, [0.1, 0.5])
    with pytest.raises(ResolventSingular):
        dv.taylor_at(psi, 0.5, 3)
    with pytest.raises(ResolventSingular):
        dv.psi_of_matrix(psi, [[0.5]])
    # I - zA exactly singular at z = 0.5 for N = 2 and 3 (cofactors) and for
    # N = 4 (batched solve): triangular states with an eigenvalue 2
    states = [[[2.0, 0.7], [0.0, 0.3]],
              [[0.3, 0.1, 0.2], [0.0, 2.0, 0.5], [0.0, 0.0, 0.1]],
              np.triu(np.full((4, 4), 0.1)) + np.diag([0.0, 0.0, 1.9, 0.0])]
    for a in states:
        psi = _state_symbol(a)
        assert dv.eval_psi_grid(psi, [0.1, -0.5]).shape == (2, 1, 1)
        with pytest.raises(ResolventSingular):
            dv.eval_psi_grid(psi, [0.1, 0.5])
        with pytest.raises(ResolventSingular):
            dv.eval_psi(psi, 0.5)
    # a non-finite state makes a non-finite det(I - zA)
    for bad in (np.nan, np.inf):
        for size in (1, 2, 3):
            a = np.zeros((size, size), dtype=complex)
            a[0, size - 1] = bad
            with np.errstate(invalid="ignore"), pytest.raises(ResolventSingular):
                dv.eval_psi_grid(_state_symbol(a), [0.1, 0.5])

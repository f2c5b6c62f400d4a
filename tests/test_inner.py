import numpy as np
import pytest

import distvar as dv
from distvar.certify import VarietySamples
from distvar.errors import NotPureRealization, NotUnitaryColligation, ResolventSingular
from distvar.inner import COLLIGATION, MatrixInnerFunction, interior_disc_grid, taylor_until
from conftest import random_unitary, w2z_poly


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
    assert dv.distinguished_certificate(scalar_shift_psi, 128, 128).passed
    assert dv.distinguished_certificate(companion_psi_2, 128, 128).passed


def test_distinguished_fails_for_constant_unitary():
    psi = dv.from_colligation(np.zeros((0, 0)), None, None, [[1.0]])
    entry = dv.distinguished_certificate(psi, 128, 128)
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


def test_distinguished_reads_pure_margin_from_tolerances(companion_psi_2):
    entry = dv.distinguished_certificate(companion_psi_2, 128, 128)
    assert entry.data["conditions"]["interior_strict"]
    tol = dv.DEFAULT.override(pure_margin=0.5)
    entry = dv.distinguished_certificate(companion_psi_2, 128, 128, tol=tol)
    assert not entry.data["conditions"]["interior_strict"]
    assert entry.status == "fail"


# ---------------------------------------------------------------------------
# the grid evaluation layer, pinned bit for bit to per-point scalar formulas


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


@pytest.mark.parametrize("name", sorted(_grid_symbols()))
def test_grid_layer_matches_pointwise_formula(name):
    psi = _grid_symbols()[name]
    zs = _grid_points()
    values = dv.eval_psi_grid(psi, zs)
    fibers = dv.fibers_grid(psi, zs)
    assert values.shape == (zs.size, psi.d, psi.d)
    assert fibers.shape == (zs.size, psi.d)
    for k, z in enumerate(zs):
        assert np.array_equal(values[k], _oracle_psi(psi, z))
        assert fibers[k].tolist() == _oracle_fiber(psi, z)
    # one-point grids and the one-point calls agree with the same formula
    for z in zs[::9]:
        assert np.array_equal(dv.eval_psi_grid(psi, [z])[0], _oracle_psi(psi, z))
        assert np.array_equal(dv.eval_psi(psi, z), _oracle_psi(psi, z))
        assert dv.fiber(psi, z) == _oracle_fiber(psi, z)


@pytest.mark.parametrize("name", sorted(_grid_symbols()))
def test_distinguished_certificate_matches_pointwise_loop(name):
    psi = _grid_symbols()[name]
    circle = np.exp(1j * (np.arange(64) * (2.0 * np.pi / 64)))
    worst_boundary = 0.0
    for z in circle:
        vals = _oracle_fiber(psi, z)
        worst_boundary = max(worst_boundary, max(abs(abs(v) - 1.0) for v in vals))
    worst_interior, witness = 0.0, None
    for lam in interior_disc_grid(64):
        vals = _oracle_fiber(psi, lam)
        m = max(abs(v) for v in vals)
        worst_interior = max(worst_interior, m)
        if witness is None and m < 1.0 - 1e-9:
            witness = [complex(lam), vals[int(np.argmax(np.abs(vals)))]]
    data = dv.distinguished_certificate(psi, 64, 64).data
    assert data["boundary_defect"] == worst_boundary
    assert data["interior_max_modulus"] == worst_interior
    assert data.get("witness") == witness


@pytest.mark.parametrize("name", ["companion", "colligation", "scalar-identity"])
def test_mesh_matches_matching_distance_loop(name):
    psi = _grid_symbols()[name]
    variety = dv.variety_polynomial(psi)
    samples = VarietySamples(variety, 128)
    d = variety.degw
    z = samples.boundary_z.reshape(-1, d)
    w = samples.boundary_w.reshape(-1, d)
    rows = w.shape[0]
    dz = float(np.abs(np.roll(z[:, 0], -1) - z[:, 0]).max())
    dw = max(dv.matching_distance(list(w[k]), list(w[(k + 1) % rows]))
             for k in range(rows))
    assert samples.mesh() == dz + dw


def test_colligation_grid_as_long_as_the_state():
    # grid size = state size = d: the stacked solve must read B as one matrix,
    # not as a stack of vectors (numpy 1.x reads a 2-d right-hand side so)
    psi = _grid_symbols()["colligation"]
    zs = _grid_points()[[3, 70]]
    values = dv.eval_psi_grid(psi, zs)
    for k, z in enumerate(zs):
        assert np.array_equal(values[k], _oracle_psi(psi, z))


def test_eval_psi_grid_rejects_points_outside_the_disc(companion_psi_2):
    with pytest.raises(ValueError, match="outside the closed disc"):
        dv.eval_psi_grid(companion_psi_2, [0.5, 1.0 + 1e-6, 0.0])
    # slightly beyond the circle is tolerated
    assert dv.eval_psi_grid(companion_psi_2, [1.0 + 1e-10]).shape == (1, 2, 2)


def test_eval_psi_grid_singular_resolvent():
    one = np.eye(1, dtype=complex)
    psi = MatrixInnerFunction(COLLIGATION, 1, {"A": 2.0 * one, "B": one, "C": one,
                                               "D": one}, 0.0, 2.0)
    with pytest.raises(ResolventSingular):
        dv.eval_psi_grid(psi, [0.1, 0.5])
    with pytest.raises(ResolventSingular):
        dv.taylor_at(psi, 0.5, 3)

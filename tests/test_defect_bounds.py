"""The boundary defect a symbol records is a bound proved from its
representation, not a sample.

Each builder bounds sup_{|z|=1} ||Psi(z)* Psi(z) - I||_2 in closed form
(README, "Innerness").  These tests check that the bound lies above the
defect sampled on 2^16 circle points, on exactly inner symbols (where the
rounding allowance carries the bound) and on perturbed ones (where the
representation's own defect does), and that building a symbol samples no
circle point.
"""

import numpy as np
import pytest

import distvar as dv
from distvar.errors import NotPureRealization
from distvar.inner import _resolvent_bound, circle_grid, eval_psi_grid
from distvar.instances import build_psi
from distvar.serialize import psi_from_json, psi_to_json
from conftest import random_unitary
from test_workloads import WL

GRID = circle_grid(2 ** 16)


def _assert_bound_dominates(psi):
    """psi.boundary_defect >= the defect sampled on the 2^16-point grid.

    ||G||_2 <= ||G||_F for G = Psi* Psi - I, so a bound above the largest
    Frobenius norm over the grid is above the sampled defect; the sampled
    defect itself is taken only when that cheaper screen does not settle it.
    """
    u = eval_psi_grid(psi, GRID)
    frobenius = np.linalg.norm(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(psi.d), axis=(1, 2))
    if psi.boundary_defect < frobenius.max():
        assert psi.boundary_defect >= dv.boundary_unitarity_defect(psi, GRID.size), psi


@pytest.mark.parametrize("repeated", [False, True])
def test_bound_dominates_on_every_recipe_symbol(repeated):
    for seed in range(200):
        _assert_bound_dominates(build_psi(dv.random_recipe(seed, repeated=repeated)))


def test_bound_dominates_on_the_hand_built_symbols(companion_psi_2, scalar_shift_psi):
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    bp = dv.from_bp_factors(
        [dv.BPFactor(0.2 + 0.1j, np.diag([1.0, 0.0]), rot),
         dv.BPFactor(-0.3 + 0.45j, np.eye(2), np.diag([1j, 1.0]))],
        leading=random_unitary(np.random.default_rng(21), 2),
    )
    for psi in (companion_psi_2, scalar_shift_psi, bp):
        assert 0.0 < psi.boundary_defect < 1e-12
        _assert_bound_dominates(psi)


def test_bound_dominates_on_haar_colligations_up_to_radius_099():
    rng = np.random.default_rng(10)
    radii = []
    while len(radii) < 300:
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        u = random_unitary(rng, n + d)
        radius = np.abs(np.linalg.eigvals(u[:n, :n])).max()
        if radius > 0.99:
            continue
        radii.append(radius)
        _assert_bound_dominates(dv.from_colligation(u[:n, :n], u[:n, n:], u[n:, :n], u[n:, n:]))
    assert max(radii) > 0.98


@pytest.mark.parametrize("seed", [0, 101])
def test_bound_dominates_on_constructed_symbols_of_the_pair_pools(seed):
    for item in WL.make_pool(dv, WL.WORKLOADS["pair_construct"], seed):
        _assert_bound_dominates(dv.construct_psi(item.pair))


@pytest.mark.parametrize("eps", [1e-4, 1e-7])
def test_bound_dominates_on_perturbed_representations(eps):
    # defects far above rounding, so each bound's own terms are tested
    rng = np.random.default_rng(5)
    tol = dv.DEFAULT.override(tol_unitary=1e-2)

    def noise(*shape):
        return eps * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    for _ in range(12):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        u = random_unitary(rng, n + d) + noise(n + d, n + d)
        colligation = dv.from_colligation(u[:n, :n], u[:n, n:], u[n:, :n], u[n:, n:], tol=tol)
        w, p = random_unitary(rng, d), np.diag((np.arange(d) % 2).astype(float))
        polynomial = dv.from_polynomial(np.array([w @ (np.eye(d) - p), w @ p]) + noise(2, d, d),
                                        tol=tol)
        factors = []
        for _ in range(2):
            v = random_unitary(rng, d)[:, :1]
            factors.append(dv.BPFactor(0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
                                       v @ v.conj().T + noise(d, d),
                                       random_unitary(rng, d) + noise(d, d), tol=tol))
        product = dv.from_bp_factors(factors, leading=random_unitary(rng, d) + noise(d, d),
                                     tol=tol)
        for psi in (colligation, polynomial, product):
            assert psi.boundary_defect > eps / 10
            _assert_bound_dominates(psi)


@pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.9j])
def test_resolvent_bound_is_exact_for_a_scalar_state(a):
    # sup_{|z|<=1} |b / (1 - z a)| = |b| / (1 - |a|), which the Stein route attains
    k = _resolvent_bound(np.array([[a]], dtype=complex), np.array([[0.6, 0.8j]]))
    assert k == pytest.approx(1.0 / (1.0 - abs(a)), rel=1e-12)


def test_an_unstable_state_matrix_proves_no_resolvent_bound():
    # P - A*PA = I has the negative solution P = 1 / (1 - |a|^2) for |a| > 1
    with pytest.raises(NotPureRealization, match="Stein equation"):
        _resolvent_bound(np.array([[1.5]], dtype=complex), np.array([[1.0]]))


def test_building_a_symbol_samples_no_circle_point(monkeypatch, companion_psi_2):
    specs = {}
    seed = 0
    while len(specs) < 3:
        spec = dv.random_recipe(seed)
        specs.setdefault(spec.psi_spec["kind"], spec)
        seed += 1
    pair = WL.make_pool(dv, WL.WORKLOADS["pair_construct"], 0, size=1)[0].pair
    files = [psi_to_json(build_psi(s)) for s in specs.values()] + [
        psi_to_json(companion_psi_2),
        psi_to_json(dv.from_bp_factors([dv.BPFactor(0.3, np.eye(2), np.diag([1j, 1.0]))])),
    ]
    evaluate = dv.inner.eval_psi_grid

    def origin_only(psi, zs):
        # construct_psi reads Psi(0) for its pureness check; nothing else
        if np.any(np.asarray(zs) != 0):
            raise AssertionError("a symbol build sampled Psi away from the origin")
        return evaluate(psi, zs)

    def no_sample(psi, n=2048):
        raise AssertionError("a symbol build sampled the boundary defect")

    monkeypatch.setattr(dv.inner, "eval_psi_grid", origin_only)
    monkeypatch.setattr(dv.inner, "boundary_unitarity_defect", no_sample)
    built = [build_psi(s) for s in specs.values()]
    built.append(dv.construct_psi(pair))
    built.extend(psi_from_json(obj) for obj in files)
    assert {psi.kind for psi in built} == {"colligation", "bp_product", "polynomial"}
    assert all(0.0 < psi.boundary_defect < 1e-8 for psi in built)

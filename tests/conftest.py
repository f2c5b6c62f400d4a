import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

import distvar as dv

J2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def companion_psi_2():
    """Psi(z) = [[0, z], [1, 0]]: the curve w^2 = z."""
    coeffs = np.zeros((2, 2, 2), dtype=complex)
    coeffs[0, 1, 0] = 1.0
    coeffs[1, 0, 1] = 1.0
    return dv.from_polynomial(coeffs)


@pytest.fixture
def scalar_shift_psi():
    """Psi(z) = [z]."""
    return dv.from_polynomial(np.array([[[0.0]], [[1.0]]], dtype=complex))


@pytest.fixture
def solver_calls(monkeypatch):
    """Shapes of the cost matrices handed to the assignment solver, recorded
    while the test runs.  The solver is patched where ``assignment_max``
    imports it from at call time, ``scipy.optimize``; a module-level import
    of it is kept out by ``test_imports``."""
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """(shape, full_matrices, compute_uv) of every ``np.linalg.svd`` call
    made while the test runs."""
    calls = []
    svd = np.linalg.svd

    def recording(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), full_matrices, compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


@pytest.fixture
def fallback_calls(monkeypatch):
    """Shapes of the stacks handed to ``np.linalg.eigvals`` while the test
    runs.  On a stack that ``stack_eigvals`` solves itself, those are its
    LAPACK fallbacks: the matrices its certificate rejects."""
    calls = []
    eigvals = np.linalg.eigvals

    def recording(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return calls


@pytest.fixture
def j2_pair():
    return dv.validate_pair(J2, J2, require_pure=True)


def w2z_poly():
    """The polynomial w^2 - z."""
    return dv.Poly2([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cauchy_coefficients(psi, points=4096):
    """Taylor coefficients of Psi at 0 as the discrete Cauchy integral of its
    values on the circle, which shares no code with ``psi_of_matrix``: all
    deg + 1 of a polynomial, else those with rho^k > 1e-18 for rho the
    realization radius (at least 0.1).  Aliasing adds at most about
    rho^points to each."""
    coeffs = np.fft.fft(dv.eval_psi_grid(psi, dv.inner.circle_grid(points)), axis=0) / points
    if psi.kind == "polynomial":
        return coeffs[: psi.data["coeffs"].shape[0]]
    return coeffs[: int(np.ceil(np.log(1e-18) / np.log(max(psi.realization_radius, 0.1))))]

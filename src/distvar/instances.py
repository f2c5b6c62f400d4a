"""Seeded instance generation and the full certification pipeline.

A recipe is fully deterministic given its seed: the scalar Blaschke factor
theta, the symbol descriptor and every random draw come from one generator
stream.  Generated instances are prescreened so that distinct spectral
points stay separated; near-degenerate draws are resampled inside the same
stream, which keeps the whole construction reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .annvar import (
    ann_generators,
    check_projection,
    check_support,
    check_zann_equals_omega,
    omega_psi,
    settle,
    synthesis_report,
    z_ann,
)
from .dilation import compress_pair, constrained_coextension, verify_coextension
from .errors import DegenerateCluster, DistvarError, malformed
from .inner import (
    distinguished_certificate,
    fibers_grid,
    from_colligation,
    from_polynomial,
    from_scalar_blaschke_identity,
    interior_disc_grid,
    variety_polynomial,
)
from .certify import vn_report
from .poly import BlaschkeProduct, Poly2
from .report import INCONCLUSIVE, PASS, CertEntry, CertificateReport, inconclusive
from .tolerances import DEFAULT


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe: theta zeros, symbol descriptor, seed, knobs."""

    theta_zeros: tuple                  # ((complex, mult), ...)
    psi_spec: dict                      # {"kind": ..., ...}
    seed: int = 0
    boundary_n: int = 512               # points of the inequality suite's circle grid
    disc_grid: tuple = (16, 64)         # unread; accepted for callers that pass it
    tolerances: dict = field(default_factory=dict)
    label: str = ""

    @property
    def instance_id(self):
        if self.label:
            return f"{self.label}-seed{self.seed}"
        zeros = ";".join(
            f"{a.real:+.6f}{a.imag:+.6f}j^{m}" for a, m in self.theta_zeros
        )
        return f"theta[{zeros}]-psi[{self.psi_spec['kind']}]-seed{self.seed}"


def build_theta(spec):
    return BlaschkeProduct(list(spec.theta_zeros))


def _finite(field, value):
    """A descriptor value as a complex array; a NaN or infinite entry raises
    ValueError naming ``field``."""
    a = np.asarray(value, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite value in {field}")
    return a


def build_psi(spec, tol=DEFAULT):
    """Materialize the symbol descriptor deterministically.

    A descriptor value of the wrong type or length, or a NaN or infinite
    one, raises ValueError.
    """
    ps = spec.psi_spec
    kind = ps["kind"]
    if kind == "scalar_blaschke_times_identity":
        with malformed("symbol descriptor"):
            zeros = [(complex(*z) if isinstance(z, (list, tuple)) else complex(z), 1)
                     for z in ps["zeros"]]
            _finite("zeros", [a for a, _ in zeros])
            b = BlaschkeProduct(zeros, complex(_finite("constant", ps.get("constant", 1.0))))
            d = int(ps["d"])
        return from_scalar_blaschke_identity(b, d, tol=tol)
    if kind == "companion":
        # cyclic pattern with a z in the corner: det(psi - w) ~ w^d - (phase) z
        with malformed("symbol descriptor"):
            d = int(ps["d"])
            phases = _finite("phases", ps.get("phases", [1.0] * d))
            deg1 = np.zeros((2, d, d), dtype=complex)
            for i in range(1, d):
                deg1[0, i, i - 1] = phases[i]
            deg1[1, 0, d - 1] = phases[0]
        return from_polynomial(deg1, tol=tol)
    if kind == "colligation":
        with malformed("symbol descriptor"):
            blocks = [_finite(k, ps[k]) for k in ("A", "B", "C", "D")]
        return from_colligation(*blocks, tol=tol)
    raise ValueError(f"unknown symbol descriptor kind {kind!r}")


def _draw_separated_points(rng, count, rmax=0.7, sep=0.2):
    pts = []
    for _ in range(200):
        if len(pts) == count:
            break
        c = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(c - p) > sep for p in pts):
            pts.append(complex(c))
    if len(pts) < count:
        raise DistvarError("failed to draw separated points")
    return pts


def _haar_unitary(n, seed):
    """Haar-random n x n unitary: QR of a complex Ginibre draw from
    ``RandomState(seed)``, with R's diagonal phases moved into Q (Mezzadri,
    Notices AMS 54, 2007).  The steps and bits of scipy's
    ``unitary_group.rvs(n, random_state=seed)``, without importing
    ``scipy.stats``."""
    rs = np.random.RandomState(seed)
    z = 1 / np.sqrt(2) * (rs.normal(size=(n, n)) + 1j * rs.normal(size=(n, n)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= (d / abs(d))[np.newaxis, :]
    return q


def _haar_colligation_spec(rng, n_state, d):
    for _ in range(50):
        u = _haar_unitary(n_state + d, int(rng.integers(2 ** 31)))
        a = u[:n_state, :n_state]
        if n_state and np.max(np.abs(np.linalg.eigvals(a))) > 0.9:
            continue
        spec = {
            "kind": "colligation",
            "A": u[:n_state, :n_state].tolist(),
            "B": u[:n_state, n_state:].tolist(),
            "C": u[n_state:, :n_state].tolist(),
            "D": u[n_state:, n_state:].tolist(),
        }
        psi = from_colligation(*(np.asarray(spec[k]) for k in "ABCD"))
        # the sampled acceptance rule every seeded recipe was drawn under;
        # rho(Psi(0)) decides some draws near 1 differently
        if np.abs(fibers_grid(psi, interior_disc_grid(64))).max() < 1.0 - 1e-6:
            return spec
    raise DistvarError("failed to draw a pure colligation")


def _fiber_gap(psi, theta):
    """Smallest gap among all fiber eigenvalues over the zeros of theta,
    within and across fibers, or inf; exact coincidences (multiplicity) do
    not count."""
    vals = fibers_grid(psi, [a for a, _ in theta.zeros]).ravel()
    gap = np.inf
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            dist = abs(vals[i] - vals[j])
            if dist > 1e-12:
                gap = min(gap, dist)
    return gap


def random_recipe(seed, max_theta_deg=4, max_d=3, repeated=False,
                  kinds=("scalar_blaschke_times_identity", "companion", "colligation")):
    """Seeded well-separated instance recipe.

    Zeros of theta respect a pairwise separation of 0.2 and stay inside
    radius 0.7; draws whose symbol fibers over the zeros would bring distinct
    eigenvalues closer than 5e-3 are resampled in-stream.
    """
    rng = np.random.default_rng(seed)
    for _ in range(60):
        if repeated:
            n_distinct = int(rng.integers(1, max(2, max_theta_deg - 1)))
            pts = _draw_separated_points(rng, n_distinct)
            mults = [1] * n_distinct
            extra = max_theta_deg - n_distinct
            bumps = int(rng.integers(1, extra + 1)) if extra >= 1 else 0
            for _ in range(max(bumps, 1)):
                mults[int(rng.integers(n_distinct))] += 1
            zeros = tuple((p, m) for p, m in zip(pts, mults))
        else:
            n_distinct = int(rng.integers(1, max_theta_deg + 1))
            pts = _draw_separated_points(rng, n_distinct)
            zeros = tuple((p, 1) for p in pts)
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "scalar_blaschke_times_identity":
            d = int(rng.integers(1, max_d + 1))
            nb = int(rng.integers(1, 3))
            bz = _draw_separated_points(rng, nb, rmax=0.6, sep=0.25)
            phase = np.exp(2j * np.pi * rng.uniform())
            spec = {"kind": "scalar_blaschke_times_identity",
                    "zeros": [(z.real, z.imag) for z in bz],
                    "constant": complex(phase), "d": d}
        elif kind == "companion":
            d = int(rng.integers(1, max_d + 1))
            phases = [complex(np.exp(2j * np.pi * rng.uniform())) for _ in range(d)]
            spec = {"kind": "companion", "d": d, "phases": phases}
        else:
            d = int(rng.integers(1, max_d + 1))
            n_state = int(rng.integers(1, 4))
            spec = _haar_colligation_spec(rng, n_state, d)
        recipe = InstanceSpec(theta_zeros=zeros, psi_spec=spec, seed=seed)
        theta = build_theta(recipe)
        try:
            psi = build_psi(recipe)
        except DistvarError:
            continue
        if _fiber_gap(psi, theta) >= 5e-3:
            return recipe
    raise DistvarError(f"could not draw a well-separated recipe for seed {seed}")


@dataclass(frozen=True)
class Instance:
    spec: InstanceSpec
    theta: BlaschkeProduct
    psi: object
    pair: object


def make_instance(spec, tol=DEFAULT):
    """Theta, symbol and compressed pair of a recipe, under its tolerances."""
    tol = tol.override(**spec.tolerances)
    theta = build_theta(spec)
    psi = build_psi(spec, tol)
    pair = compress_pair(psi, theta, tol=tol)
    return Instance(spec=spec, theta=theta, psi=psi, pair=pair)


def random_test_polys(rng, count, max_bidegree=(3, 3)):
    out = []
    for _ in range(count):
        dz = int(rng.integers(0, max_bidegree[0] + 1))
        dw = int(rng.integers(0, max_bidegree[1] + 1))
        c = rng.normal(size=(dz + 1, dw + 1)) + 1j * rng.normal(size=(dz + 1, dw + 1))
        out.append(Poly2(c))
    return out


def run_certification(instance, tol=DEFAULT, artifacts=None):
    """Full pipeline on one instance; returns a consolidated report.

    Stages: pair validation, symbol certification, variety polynomial,
    co-extension bundle, annihilator checks, synthesis conditions, and the
    variety-dominates inequalities for seeded test polynomials.  The spec's
    tolerance overrides apply on top of ``tol``, and the report records the
    table every check ran under.  When a dict is passed as ``artifacts`` the
    computed variety, basis and bundle are stashed in it for export.
    """
    spec = instance.spec
    tol = tol.override(**spec.tolerances)
    report = CertificateReport(
        instance_id=spec.instance_id, seed=spec.seed, tolerances=tol.as_dict(),
    )
    pair, psi = instance.pair, instance.psi

    report.add(CertEntry(
        name="pair-valid",
        anchor="commuting-contractive-pure-pair",
        status=PASS,
        margin=float(min(pair.purity_margins)),
        data={
            "n": pair.n,
            "commutator_norm": pair.commutator_norm,
            "norms": list(pair.norms),
            "defect_ranks": list(pair.defect_ranks),
        },
    ))

    report.add(CertEntry(
        name="symbol-inner",
        anchor="boundary-unitarity-certified",
        status=PASS if psi.boundary_defect <= tol.tol_unitary else INCONCLUSIVE,
        margin=float(tol.tol_unitary - psi.boundary_defect),
        data={"boundary_defect": psi.boundary_defect, "d": psi.d},
    ))

    variety = variety_polynomial(psi)
    if artifacts is not None:
        artifacts["variety"] = variety
    report.add(distinguished_certificate(psi, tol=tol))

    try:
        basis = ann_generators(pair, tol=tol)
        bundle = constrained_coextension(pair, psi, basis, tol=tol)
        if artifacts is not None:
            artifacts["basis"] = basis
            artifacts["bundle"] = bundle
    except DegenerateCluster as exc:
        report.add(inconclusive(
            "degenerate-instance", "tolerance-semantics-inconclusive", exc
        ))
        return report

    report.add(CertEntry(
        name="coextension-isometry",
        anchor="embedding-is-isometric",
        status=PASS if bundle.residuals["isometry"] <= tol.tol_trunc else INCONCLUSIVE,
        margin=float(tol.tol_trunc - bundle.residuals["isometry"]),
        data={"residuals": bundle.residuals},
    ))
    worst_tw = max(
        bundle.residuals["intertwine_shift"], bundle.residuals["intertwine_symbol"]
    )
    report.add(CertEntry(
        name="coextension-intertwining",
        anchor="adjoint-intertwining-residuals",
        status=PASS if worst_tw <= tol.tol_intertwine else INCONCLUSIVE,
        margin=float(tol.tol_intertwine - worst_tw),
        data={},
    ))

    report.extend(verify_coextension(bundle, variety, tol=tol))
    # each set is computed once; a check given a degenerate set is inconclusive
    zset = settle(z_ann, basis, pair, tol=tol)
    omega = settle(omega_psi, bundle, tol=tol)
    report.add(check_zann_equals_omega(zset, omega, tol=tol))
    report.add(check_projection(omega, basis.m1, tol=tol))
    report.add(check_support(zset, bundle, variety, tol=tol))
    report.extend(synthesis_report(omega, bundle, basis, tol=tol))

    vn_polys = random_test_polys(np.random.default_rng(spec.seed + 10 ** 6), 5)
    report.extend(vn_report(pair, variety, vn_polys, boundary_n=spec.boundary_n, tol=tol))
    return report

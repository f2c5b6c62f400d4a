"""Spectral-set certificates: sup-norm sampling on varieties and checkers.

By the maximum principle on a distinguished variety, the sup of |q| over its
closure is attained on the boundary fibers, the only ones sampled.  Sampling
can only under-estimate a supremum, so every inequality entry carries a slack
C_lip * h, with h the resolution of the boundary sample net and C_lip the
largest |grad q| seen on a 24 x 24 torus grid.  C_lip is a sampled estimate,
not a proven bound: a finer grid finds a larger gradient for most random q,
so the slack is a heuristic margin.  Entries inside the slack band are
inconclusive rather than failed.
"""

from functools import cached_property

import numpy as np

from .errors import ConstantSymbol, DenominatorVanishes
from .inner import circle_grid, distinguished_certificate, fibers_grid
from .opcore import assignment_max, blaschke_apply, opnorm, opnorms, poly_stack, spectral_radius
from .poly import BlaschkeProduct, Poly1, values_at
from .report import FAIL, INCONCLUSIVE, PASS, CertEntry
from .tolerances import DEFAULT


class VarietySamples:
    """Cached fiber samples of a variety over a uniform grid of the circle.

    The grids for boundary_n and 2*boundary_n nest, so sampled suprema are
    monotone under doubling.  ``interior`` holds a fixed polar cloud of
    interior fibers for the CSV and SVG writers; no certificate reads it.
    """

    def __init__(self, variety, boundary_n=512):
        if boundary_n < 64:
            raise ValueError("the boundary grid needs at least 64 points")
        self.variety = variety
        self.boundary_z, self.boundary_w = _fiber_samples(
            variety.psi, circle_grid(boundary_n)
        )
        self._mesh = None

    @cached_property
    def interior(self):
        """(z, w) fiber samples over radii k/9 (k = 1..8) times 64 angles."""
        radii = np.arange(1, 9) / 9
        return _fiber_samples(
            self.variety.psi, (radii[:, None] * circle_grid(64)[None, :]).ravel()
        )

    def mesh(self):
        """Max distance between consecutive boundary samples in (z, w).

        Fibers of consecutive base points are compared by optimal matching,
        so branch reorderings do not inflate the estimate.  The matchings
        run as one stacked pass (``assignment_max``).  The sum of a cost
        matrix's row minima bounds every assignment from below (LP duality;
        Kuhn 1955), so when each fiber point can take its own nearest
        neighbour (distinct nearest columns, or a diagonal of row minima as
        for repeated fibers) the matching is settled without a solver; any
        other pair of fibers goes to ``linear_sum_assignment``.
        """
        if self._mesh is None:
            d = self.variety.degw
            z = self.boundary_z.reshape(-1, d)
            w = self.boundary_w.reshape(-1, d)
            dz = float(np.abs(np.roll(z[:, 0], -1) - z[:, 0]).max())
            # cost[k, i, j] = |w_k[i] - w_{k+1}[j]|, the last row wrapping
            # round, built entry-major: one (k,) array per pair (i, j)
            wt = np.ascontiguousarray(w.T)
            nxt = np.roll(wt, -1, axis=1)
            cost = np.empty((d, d, wt.shape[1]))
            for i in range(d):
                for j in range(d):
                    cost[i, j] = np.abs(wt[i] - nxt[j])
            dw = float(assignment_max(cost.transpose(2, 0, 1)).max())
            self._mesh = dz + dw
        return self._mesh


def _fiber_samples(psi, zs):
    """Flat (z, w) sample arrays: each base point once per fiber value."""
    ws = fibers_grid(psi, zs)
    return np.repeat(zs, ws.shape[1]), ws.ravel()


def sup_on_variety(variety, q, boundary_n=512, samples=None):
    """Sampled sup of |q| over the closure of the variety, read off its
    boundary fibers, where the maximum principle puts it."""
    if samples is None:
        samples = VarietySamples(variety, boundary_n)
    return float(np.abs(q(samples.boundary_z, samples.boundary_w)).max())


_TORUS_24 = np.meshgrid(*2 * [np.exp(2j * np.pi * np.arange(24) / 24)])


def gradient_bound(q):
    """Sampled estimate of max |grad q| on the closed bidisc, from a 24 x 24
    torus grid; a finer grid can exceed it, so it is not a proven bound."""
    return float(np.abs(values_at([q.dz(), q.dw()], *_TORUS_24)).sum(axis=0).max())


def slack(q, samples):
    """Discretization slack C_lip * h for the sampled supremum of |q|,
    floored at the double-precision headroom of the evaluations."""
    return gradient_bound(q) * samples.mesh() + 1e-12 * max(1.0, q.scale)


def _bound_verdict(nrm, sup, sl):
    """Status and margin of nrm <= sup: inconclusive inside the slack band."""
    if nrm <= sup:
        return PASS, sup - nrm
    return (INCONCLUSIVE if nrm <= sup + sl else FAIL), sup + sl - nrm


def vn_report(pair, variety, polys, boundary_n=512, rationals=None, tol=DEFAULT):
    """Inequality certificates ||q(T1,T2)|| <= sup_variety |q| + slack.

    The defining polynomial gets an annihilation entry; rational symbols
    q = p1/p2 are certified when p2 has no zero on the closure of the variety.
    """
    samples = VarietySamples(variety, boundary_n)
    entries = []

    p, polys = variety.p, list(polys)
    res, *norms = (float(v) for v in opnorms(poly_stack([p, *polys], pair)))
    entries.append(CertEntry(
        name="defining-polynomial-annihilates",
        anchor="defining-polynomial-annihilates-pair",
        status=PASS if res <= tol.tol_ann else FAIL,
        margin=float(tol.tol_ann - res),
        data={"norm": res},
    ))

    for idx, (q, nrm) in enumerate(zip(polys, norms)):
        sup = sup_on_variety(variety, q, samples=samples)
        sl = slack(q, samples)
        status, margin = _bound_verdict(nrm, sup, sl)
        entries.append(CertEntry(
            name=f"variety-dominates-q{idx}",
            anchor="polynomial-norm-bounded-by-variety-sup",
            status=status,
            margin=float(margin),
            data={"norm": nrm, "sup": sup, "slack": sl},
        ))

    bz, bw = samples.boundary_z, samples.boundary_w
    for idx, (p1, p2) in enumerate(rationals or []):
        den = p2(bz, bw)
        den_min = float(np.abs(den).min())
        # a zero may hide between samples: demand clearance above the mesh slack
        den_margin = max(
            10 * tol.tol_zset * max(1.0, p2.scale),
            gradient_bound(p2) * samples.mesh(),
        )
        if den_min <= den_margin:
            raise DenominatorVanishes(
                f"min |denominator| = {den_min:.3e} is below the sampling "
                f"margin {den_margin:.3e} on the boundary fibers"
            )
        # F(z) = det p2(zI, Psi(z)), the product of p2 over the fiber of z, is
        # analytic on the disc: its winding number counts the zeros of p2 on
        # the variety over the open disc (argument principle)
        f = den.reshape(-1, variety.degw).prod(axis=1)
        steps = np.angle(np.roll(f, -1) / f)
        winding = round(float(steps.sum()) / (2 * np.pi))
        if winding or np.abs(steps).max() > np.pi / 2:
            raise DenominatorVanishes(
                f"the denominator's fiber product winds {winding} times, in arg "
                f"steps up to {np.abs(steps).max():.3f} (pi/2 resolves the count)"
            )
        num_t, den_t = poly_stack([p1, p2], pair)
        rat_t = num_t @ np.linalg.inv(den_t)
        nrm = opnorm(rat_t)
        # without zeros on the closure, |p1/p2| peaks on the boundary fibers
        sup = float((np.abs(p1(bz, bw)) / np.abs(den)).max())
        sl = (gradient_bound(p1) / den_min
              + sup * gradient_bound(p2) / den_min) * samples.mesh()
        status, margin = _bound_verdict(nrm, sup, sl)
        entries.append(CertEntry(
            name=f"variety-dominates-rational{idx}",
            anchor="rational-norm-bounded-by-variety-sup",
            status=status,
            margin=float(margin),
            data={"norm": nrm, "sup": sup, "slack": sl, "den_min": den_min},
        ))
    return entries


def _symbol_is_constant(sym):
    if isinstance(sym, (Poly1, BlaschkeProduct)):
        return sym.degree == 0
    if isinstance(sym, tuple):
        num, den = sym
        return num.degree == 0 and den.degree == 0
    raise TypeError(f"unsupported symbol type {type(sym)!r}")


def _symbol_matrix(sym, t):
    t = np.asarray(t, dtype=complex)
    if isinstance(sym, Poly1):
        out = sym.coeffs[-1] * np.eye(t.shape[0], dtype=complex)
        for k in range(sym.coeffs.size - 2, -1, -1):
            out = t @ out + sym.coeffs[k] * np.eye(t.shape[0])
        return out
    if isinstance(sym, BlaschkeProduct):
        return blaschke_apply(sym, t)
    num, den = sym
    for r in np.atleast_1d(np.roots(den.coeffs[::-1])) if den.degree else []:
        if abs(r) <= 1.0 + 1e-9:
            raise DenominatorVanishes(f"denominator root {r} inside the closed disc")
    return _symbol_matrix(num, t) @ np.linalg.inv(_symbol_matrix(den, t))


def _symbol_disc_sup(sym, n=2048):
    ts = np.exp(2j * np.pi * np.arange(n) / n)
    if isinstance(sym, (Poly1, BlaschkeProduct)):
        return float(np.abs(sym(ts)).max())
    num, den = sym
    dv = np.abs(den(ts))
    if dv.min() <= 1e-12:
        raise DenominatorVanishes("denominator vanishes on the circle")
    return float((np.abs(num(ts)) / dv).max())


def min_conditions(pair, variety, phi1, phi2, tol=DEFAULT):
    """Hypothesis checks for minimality of the variety closure as a spectral set.

    Entry 1: the spectrum of T1 is inside the disc with margin; entry 2: both
    symbols have disc sup-norm 1 and the product attains norm 1 on the pair.
    The minimality verdict is conditional on the distinguished certificate,
    which is decided in closed form from the variety's symbol.
    """
    if _symbol_is_constant(phi1) or _symbol_is_constant(phi2):
        raise ConstantSymbol("both symbols must be non-constant")
    entries = []

    rho = pair.radii[0]
    if rho <= 1.0 - tol.margin_spec:
        st, margin = PASS, (1.0 - tol.margin_spec) - rho
    elif rho < 1.0:
        st, margin = INCONCLUSIVE, 1.0 - rho
    else:
        st, margin = FAIL, 1.0 - rho
    entries.append(CertEntry(
        name="spectrum-inside-disc",
        anchor="spectrum-of-t1-inside-open-disc",
        status=st,
        margin=float(margin),
        data={"spectral_radius": rho},
    ))

    sup1 = _symbol_disc_sup(phi1)
    sup2 = _symbol_disc_sup(phi2)
    attain = opnorm(_symbol_matrix(phi1, pair.t1) @ _symbol_matrix(phi2, pair.t2))
    defect = max(abs(sup1 - 1.0), abs(sup2 - 1.0), abs(attain - 1.0))
    entries.append(CertEntry(
        name="attainment",
        anchor="symbol-product-attains-norm-one",
        status=PASS if defect <= tol.tol_attain else FAIL,
        margin=float(tol.tol_attain - defect),
        data={"sup_phi1": sup1, "sup_phi2": sup2, "attained_norm": attain},
    ))

    dist = distinguished_certificate(variety.psi, tol=tol)
    entries.append(dist)

    hyp = [entries[0].status, entries[1].status, dist.status]
    if all(s == PASS for s in hyp):
        st = PASS
    elif FAIL in hyp:
        st = FAIL
    else:
        st = INCONCLUSIVE
    entries.append(CertEntry(
        name="minimality-certified",
        anchor="minimal-spectral-set-certified-conditionally",
        status=st,
        margin=float(min(e.margin for e in entries)),
        data={"note": "minimality is inferred from verified hypotheses, not computed"},
    ))
    return entries


def isometry_variant(pair, tol=DEFAULT):
    """Minimality certificate when T2 is an isometry and ||T1|| = 1.

    Matrix isometries are unitary, so the pair is not pure; this certifies
    only the spectral-set minimality claim.
    """
    iso = opnorm(pair.t2.conj().T @ pair.t2 - np.eye(pair.n))
    norm1 = pair.norms[0]
    rho = pair.radii[0]
    ok_iso = iso <= tol.tol_attain
    ok_norm = abs(norm1 - 1.0) <= tol.tol_attain
    ok_spec = rho <= 1.0 - tol.margin_spec
    margin = min(tol.tol_attain - iso, tol.tol_attain - abs(norm1 - 1.0),
                 (1.0 - tol.margin_spec) - rho)
    status = PASS if (ok_iso and ok_norm and ok_spec) else FAIL
    return CertEntry(
        name="isometry-commutant-minimality",
        anchor="norm-one-operator-commuting-with-isometry",
        status=status,
        margin=float(margin),
        data={
            "isometry_defect": iso,
            "norm_t1": norm1,
            "spectral_radius_t1": rho,
            "note": "matrix isometries are unitary; the pair is not pure and "
                    "the certificate covers the spectral-set claim only",
        },
    )


def williams_check(t, phi, tol=DEFAULT, boundary_n=2048):
    """Disc-case minimality hypotheses for a single contraction.

    Passes iff the spectrum is inside the disc with margin and ||phi(T)|| and
    the disc sup of |phi| both equal 1 within the attainment tolerance.
    """
    t = np.asarray(t, dtype=complex)
    if opnorm(t) > 1.0 + tol.tol_norm:
        raise ValueError("operator norm exceeds 1")
    if _symbol_is_constant(phi):
        raise ConstantSymbol("phi must be non-constant")
    rho = spectral_radius(t)
    sup = _symbol_disc_sup(phi, boundary_n)
    attained = opnorm(_symbol_matrix(phi, t))
    ok = (
        rho <= 1.0 - tol.margin_spec
        and abs(attained - 1.0) <= tol.tol_attain
        and abs(sup - 1.0) <= tol.tol_attain
    )
    margin = min(
        (1.0 - tol.margin_spec) - rho,
        tol.tol_attain - abs(attained - 1.0),
        tol.tol_attain - abs(sup - 1.0),
    )
    return CertEntry(
        name="disc-minimality",
        anchor="disc-is-minimal-spectral-set",
        status=PASS if ok else FAIL,
        margin=float(margin),
        data={"spectral_radius": rho, "attained_norm": attained, "disc_sup": sup},
    )

"""Annihilator ideals, zero sets, joint-eigenvalue sets and synthesis checks.

The bounded-analytic annihilator of a pure matrix pair is represented by its
trace on the monomial box {z^i w^j : i < deg(m1), j < deg(m2)}: reduction
modulo the minimal polynomials of T1 and T2 maps any polynomial into the box
without changing its value on the pair, and values at joint-spectrum points
are preserved as well because those points are roots of both minimal
polynomials.

Polynomial families are evaluated as coefficient rows times a monomial
table, whose entries are products of at most a + b factors of norm at most 1
(which bounds their rounding; ``opcore.poly_stack``): T1^i T2^j, built once
per pair for the evaluation map and the residuals, and lambda^i mu^j at
joint-spectrum points for Z(Ann), the support residual and Omega's ideal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnnTrivial, DegenerateCluster, NotPure
from .inner import eval_psi_grid
from .opcore import (
    _jordan_clusters,
    joint_spectrum_taylor,
    kernel,
    matching_distance,
    minimal_blaschke,
    opnorms,
    pair_table,
)
from .poly import Poly2, coefficient_rows, family_values, has_simple_roots, monomial_table, values_at
from .report import FAIL, INCONCLUSIVE, PASS, CertEntry, inconclusive
from .tolerances import DEFAULT


@dataclass(frozen=True)
class AnnihilatorBasis:
    box: tuple                 # (deg m1, deg m2)
    box_generators: tuple      # Poly2 kernel basis of the evaluation map
    m1: object                 # BlaschkeProduct
    m2: object
    q1: Poly2                  # minimal polynomial of T1, as a Poly2 in z
    q2: Poly2                  # minimal polynomial of T2, as a Poly2 in w

    @property
    def generators(self):
        return tuple(self.box_generators) + (self.q1, self.q2)


@dataclass(frozen=True)
class SupportBounds:
    inner_set: tuple           # Z(Ann)
    lower_boundary: tuple      # joint spectrum of (S1, S2), one point per joint space
    variety: object            # VarietyDescription upper bound


def _evaluation_kernel(table, tol):
    """Kernel basis of p -> p(T1, T2) on the box of a (d1, d2, n, n) monomial
    table, as Poly2 list."""
    d1, d2 = table.shape[:2]
    # the box monomials run row-major over (i, j), as a (d1, d2) array does
    emat = table.reshape(d1 * d2, -1).T  # n^2 x (d1 d2)
    return [Poly2(vec.reshape(d1, d2))
            for vec in kernel(emat, tol.kernel_rel, 1e-12, "evaluation-map", tol=tol).T]


def ann_generators(pair, tol=DEFAULT):
    """Annihilator data of a pure pair on its canonical monomial box.

    Generators are the kernel basis of the evaluation map on the box spanned
    by {z^i w^j : i < deg m1, j < deg m2}, together with the minimal
    polynomials of T1 (in z) and of T2 (in w).  One monomial table of the
    pair, on the box of all generators, serves the map and the residuals.
    """
    if not pair.pure:
        raise NotPure("annihilator machinery requires a pure pair")
    m1 = minimal_blaschke(pair.t1, tol=tol)
    m2 = minimal_blaschke(pair.t2, tol=tol)
    d1, d2 = m1.degree, m2.degree
    table = pair_table(pair, d1 + 1, d2 + 1)
    gens = _evaluation_kernel(table[:d1, :d2], tol)
    q1 = Poly2.from_poly1_in_z(m1.numerator())
    q2 = Poly2.from_poly1_in_w(m2.numerator())
    basis = AnnihilatorBasis(
        box=(d1, d2), box_generators=tuple(gens), m1=m1, m2=m2, q1=q1, q2=q2
    )
    scale = max(1.0, *pair.norms)
    rows = coefficient_rows(basis.generators, (d1 + 1, d2 + 1))
    for g, res in zip(basis.generators, opnorms(family_values(rows, table))):
        if res > tol.tol_ann * scale * max(1.0, g.scale):
            raise DegenerateCluster(
                f"generator annihilation residual {res:.3e} above tolerance"
            )
    return basis


def z_ann(basis, pair, tol=DEFAULT):
    """Common zeros of the annihilator inside the open bidisc.

    Candidates are the joint-spectrum points of the pair; a candidate is kept
    iff every generator vanishes on it, and its repeats are collapsed.
    """
    points = joint_spectrum_taylor(pair, tol=tol).points
    lams, mus = np.array(points, dtype=complex).reshape(-1, 2).T
    caps = tol.tol_zset * np.array([max(1.0, g.scale) for g in basis.generators])
    off = (np.abs(values_at(basis.generators, lams, mus)) > caps[:, None]).any(axis=0)
    return tuple(dict.fromkeys(pt for pt, o in zip(points, off) if not o))


def omega_psi(bundle, tol=DEFAULT):
    """Conjugate joint point spectrum of (S1*, S2*): the set Omega.

    As a set it is the joint spectrum of (S1, S2), read off the traversal
    that ``support_bounds`` reads.  The witnesses at (lambda, mu), in the
    model coordinates, are the guarded kernel of [(S1 - lambda)*; (S2 - mu)*]
    cut at tol_eig * max(1, ||S1||, ||S2||); a point without one is not in
    Omega.
    """
    pair = bundle.constrained
    eye = np.eye(pair.n)
    cut = tol.tol_eig * max(1.0, *pair.norms)
    points, witnesses = [], []
    for lam, mu in dict.fromkeys(joint_spectrum_taylor(pair, tol=tol).points):
        shifts = np.hstack([pair.t1 - lam * eye, pair.t2 - mu * eye]).conj().T
        w = kernel(shifts, 0.0, cut, f"adjoint joint eigenspace at ({lam:.6g}, {mu:.6g}):",
                   tol=tol)
        if w.shape[1]:
            points.append((lam, mu))
            witnesses += list(w.T)
    return tuple(points), tuple(witnesses)


def settle(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the DegenerateCluster it raised.

    The checks below take the sets they compare (the results of z_ann and
    omega_psi) in this form, so that each set is computed once per instance
    and every check that needs a degenerate set reports it as inconclusive.
    """
    try:
        return fn(*args, **kwargs)
    except DegenerateCluster as exc:
        return exc


def _settled(value):
    if isinstance(value, DegenerateCluster):
        raise value
    return value


def _matching_entry(name, anchor, dist, tol, data):
    return CertEntry(
        name=name,
        anchor=anchor,
        status=PASS if dist <= tol.match_cap else FAIL,
        margin=float(tol.match_cap - dist) if np.isfinite(dist) else -1.0,
        data=data,
    )


def _distance_data(dist, **sets):
    """A matching distance as report data: when the cardinalities differ it
    is infinite, which strict JSON cannot hold, so the data give the size of
    each set and a null distance."""
    if np.isfinite(dist):
        return {"matching_distance": dist}
    return {"matching_distance": None, **{f"{k}_count": len(v) for k, v in sets.items()}}


def check_zann_equals_omega(zset, omega, tol=DEFAULT):
    """Set equality Z(Ann) == Omega via optimal matching."""
    name = "zero-set-equals-omega"
    anchor = "zero-set-of-annihilator-equals-joint-adjoint-eigenvalues"
    try:
        zset = _settled(zset)
        omega, _ = _settled(omega)
        dist = matching_distance(list(zset), list(omega))
    except DegenerateCluster as exc:
        return inconclusive(name, anchor, exc)
    return _matching_entry(
        name, anchor, dist, tol,
        {**_distance_data(dist, z_ann=zset, omega=omega),
         "z_ann": list(zset), "omega": list(omega)},
    )


def check_projection(omega, m1, tol=DEFAULT):
    """First-coordinate projection of Omega equals the zero set of m1."""
    if m1.degree == 0:
        raise AnnTrivial("projection check requires a nonconstant m1")
    name, anchor = "omega-projection", "omega-first-coordinates-equal-zeros-of-m1"
    try:
        omega, _ = _settled(omega)
        proj = list(dict.fromkeys(lam for lam, _ in omega))
        zeros = [a for a, _ in m1.zeros]
        dist = matching_distance(proj, zeros)
    except DegenerateCluster as exc:
        return inconclusive(name, anchor, exc)
    return _matching_entry(
        name, anchor, dist, tol, {"projection": proj, "m1_zeros": zeros}
    )


def support_bounds(zset, bundle, variety, tol=DEFAULT):
    """Support sandwich data: Z(Ann), the joint spectrum of (S1,S2), and the variety.

    For matrices the constrained pair has spectral radii < 1, so its joint
    spectrum lies inside the open bidisc and must equal Z(Ann) as a set; every
    point must also lie on the variety.
    """
    zset = _settled(zset)
    lower = tuple(dict.fromkeys(joint_spectrum_taylor(bundle.constrained, tol=tol).points))
    return SupportBounds(inner_set=zset, lower_boundary=lower, variety=variety)


def check_support(zset, bundle, variety, tol=DEFAULT):
    """Certificate for the support collapse and variety membership."""
    name = "support-collapse"
    anchor = "constrained-spectrum-equals-zero-set-inside-bidisc"
    try:
        sb = support_bounds(zset, bundle, variety, tol=tol)
        dist = matching_distance(list(sb.inner_set), list(sb.lower_boundary))
    except DegenerateCluster as exc:
        return inconclusive(name, anchor, exc)
    p = variety.p
    lams, mus = np.array(sb.inner_set + sb.lower_boundary, dtype=complex).reshape(-1, 2).T
    worst = float(np.abs(p(lams, mus)).max(initial=0.0))
    zset_cap = tol.tol_zset * max(1.0, p.scale)
    ok = dist <= tol.match_cap and worst <= zset_cap
    return CertEntry(
        name=name,
        anchor=anchor,
        status=PASS if ok else FAIL,
        margin=float(min(tol.match_cap - dist, zset_cap - worst))
        if np.isfinite(dist)
        else -1.0,
        data={
            **_distance_data(dist, inner_set=sb.inner_set, lower_boundary=sb.lower_boundary),
            "max_variety_residual": worst,
            "inner_set": list(sb.inner_set),
            "lower_boundary": list(sb.lower_boundary),
        },
    )


def _vanishing_space_dim_and_basis(points, d1, d2):
    """Box polynomials vanishing at the given points: (dim, orthonormal basis)."""
    lams, mus = np.array(points, dtype=complex).reshape(-1, 2).T
    vmat = monomial_table(lams, mus, d1, d2, np.ones(lams.shape), np.multiply)
    vmat = vmat.reshape(d1 * d2, -1).T
    basis = kernel(vmat, 1e-10, 1e-12)
    return basis.shape[1], basis


def _span_matrix(polys, d1, d2):
    return np.linalg.qr(coefficient_rows(polys, (d1, d2)).reshape(len(polys), d1 * d2).T)[0]


def _spans_equal(qa, qb):
    if qa.shape[1] != qb.shape[1]:
        return False
    if qa.shape[1] == 0:
        return True
    res = qa - qb @ (qb.conj().T @ qa)
    return float(np.linalg.norm(res, 2)) <= 1e-7


def _require_conclusive_fibers(psi, m1, tol):
    """Degeneracy guard for simple-root instances.

    With simple m1 the witness-span condition reads eigenvector structure of
    the symbol fibers at the zeros; ``_jordan_clusters`` reads each fiber,
    and a degenerate cluster or a Jordan block of size above 1 makes that
    reading unstable, so such instances are routed to DegenerateCluster.
    """
    lams = [a for a, _ in m1.zeros]
    fibers = eval_psi_grid(psi, lams)
    for lam, fiber, norm in zip(lams, fibers, opnorms(fibers)):
        for mu, index, _ in _jordan_clusters(fiber, max(1.0, norm), tol):
            if index > 1:
                raise DegenerateCluster(
                    f"defective symbol fiber at {lam}: eigenvalue {mu} has a "
                    f"Jordan block of size {index}"
                )


def synthesis_report(omega, bundle, basis, tol=DEFAULT):
    """Four independently evaluated synthesis conditions plus a consistency verdict.

    (i)   joint adjoint eigenvector witnesses span the constrained model space,
    (ii)  box-level equality of the annihilator with the vanishing ideal of Omega,
    (iii) radical univariate annihilator (reduces to simple roots),
    (iv)  m1 is a Blaschke product with simple roots.

    ``omega`` is the result of omega_psi (see settle).  With simple m1, a
    symbol fiber whose Jordan analysis is degenerate or has a block of size
    above 1 makes the instance inconclusive.
    """
    m1 = bundle.m1
    if m1.degree == 0:
        raise AnnTrivial("synthesis conditions require a nonconstant m1")
    entries = []
    reason = None

    simple = has_simple_roots(m1, tol.cluster_warn)

    try:
        if simple:
            _require_conclusive_fibers(bundle.psi, m1, tol)
        omega, witnesses = _settled(omega)
        wmat = (
            np.array(witnesses).T
            if witnesses
            else np.zeros((bundle.kpsi_dim, 0), dtype=complex)
        )
        span_dim = wmat.shape[1] - kernel(wmat, 1e-8, 0.0).shape[1]
        cond_i = span_dim == bundle.kpsi_dim
    except DegenerateCluster as exc:
        reason = exc
        omega, span_dim, cond_i = (), -1, None

    if reason is None:
        d1, d2 = basis.box
        dim_plain, basis_plain = _vanishing_space_dim_and_basis(list(omega), d1, d2)
        qa = _span_matrix(basis.box_generators, d1, d2)
        dims_equal = dim_plain == len(basis.box_generators)
        # the annihilator box kernel always sits inside the vanishing space;
        # a repeated root opens a dimension gap, so dims plus spans decide
        cond_ii = dims_equal and _spans_equal(qa, basis_plain)
    else:
        dim_plain, cond_ii = -1, None

    cond_iii = simple
    cond_iv = simple

    conds = {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv}
    labels = {
        "i": ("witness-span", "joint-adjoint-eigenvectors-span-model-space"),
        "ii": ("vanishing-ideal-box", "annihilator-equals-vanishing-ideal-on-box"),
        "iii": ("radical-annihilator", "univariate-annihilator-is-radical"),
        "iv": ("simple-blaschke", "m1-has-simple-roots"),
    }
    # a condition entry records its truth value; its status only says whether
    # the evaluation was conclusive (what the theorem certifies is agreement)
    for key, val in conds.items():
        name, anchor = labels[key]
        if val is None:
            entries.append(inconclusive(name, anchor, reason))
        else:
            data = {"holds": bool(val)}
            if key == "ii":
                data["comparison"] = "box-level equality"
                data["ann_box_dim"] = len(basis.box_generators)
                data["vanishing_box_dim"] = dim_plain
            entries.append(CertEntry(
                name=name, anchor=anchor,
                status=PASS,
                margin=1.0 if val else -1.0,
                data=data,
            ))

    if reason is not None:
        verdict, margin = INCONCLUSIVE, 0.0
    else:
        agree = len({bool(v) for v in conds.values()}) == 1
        verdict = PASS if agree else FAIL
        margin = 1.0 if agree else -1.0
    entries.append(CertEntry(
        name="synthesis-equivalence",
        anchor="four-way-synthesis-agreement",
        status=verdict,
        margin=margin,
        data={
            "conditions": {k: (None if v is None else bool(v)) for k, v in conds.items()},
            "witness_span_dim": span_dim,
            "kpsi_dim": bundle.kpsi_dim,
        },
    ))
    return entries

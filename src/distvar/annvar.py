"""Annihilator ideals, zero sets, joint-eigenvalue sets and synthesis checks.

The bounded-analytic annihilator of a pure matrix pair is represented by its
trace on the monomial box {z^i w^j : i < deg(m1), j < deg(m2)}: reduction
modulo the minimal polynomials of T1 and T2 maps any polynomial into the box
without changing its value on the pair, and values at joint-spectrum points
are preserved as well because those points are roots of both minimal
polynomials.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnnTrivial, DegenerateCluster, NotPure
from .inner import eval_psi
from .opcore import (
    cluster_points,
    dedupe_points,
    joint_point_spectrum,
    joint_spectrum_taylor,
    matching_distance,
    minimal_blaschke,
    opnorm,
    poly_apply,
    validate_pair,
)
from .poly import Poly2, has_simple_roots
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
    lower_boundary: tuple      # joint spectrum of (S1, S2), deduplicated
    variety: object            # VarietyDescription upper bound


def _box_monomials(d1, d2):
    return [(i, j) for i in range(d1) for j in range(d2)]


def _evaluation_kernel(pair, d1, d2, tol):
    """Kernel basis of p -> p(T1, T2) on the monomial box, as Poly2 list."""
    n = pair.n
    monos = _box_monomials(d1, d2)
    cols = []
    pow1 = [np.eye(n, dtype=complex)]
    for _ in range(d1 - 1):
        pow1.append(pow1[-1] @ pair.t1)
    pow2 = [np.eye(n, dtype=complex)]
    for _ in range(d2 - 1):
        pow2.append(pow2[-1] @ pair.t2)
    for i, j in monos:
        cols.append((pow1[i] @ pow2[j]).reshape(-1))
    emat = np.array(cols).T  # n^2 x (d1 d2)
    _, svals, vh = np.linalg.svd(emat)
    smax = svals[0] if svals.size else 0.0
    thresh = max(1e-12, tol.kernel_rel * smax)
    guard = (svals > thresh / tol.rank_guard) & (svals < thresh * tol.rank_guard)
    if np.any(guard):
        raise DegenerateCluster("evaluation-map singular value inside the guard band")
    rank = int(np.count_nonzero(svals > thresh))
    nullity = len(monos) - rank
    gens = []
    for t in range(nullity):
        vec = vh.conj().T[:, len(monos) - nullity + t]
        coeffs = np.zeros((d1, d2), dtype=complex)
        for (i, j), c in zip(monos, vec):
            coeffs[i, j] = c
        gens.append(Poly2(coeffs))
    return gens


def ann_generators(pair, tol=DEFAULT):
    """Annihilator data of a pure pair on its canonical monomial box.

    Generators are the kernel basis of the evaluation map on the box spanned
    by {z^i w^j : i < deg m1, j < deg m2}, together with the minimal
    polynomials of T1 (in z) and of T2 (in w).
    """
    if not pair.pure:
        raise NotPure("annihilator machinery requires a pure pair")
    m1 = minimal_blaschke(pair.t1, tol=tol)
    m2 = minimal_blaschke(pair.t2, tol=tol)
    d1, d2 = m1.degree, m2.degree
    gens = _evaluation_kernel(pair, d1, d2, tol)
    q1 = Poly2.from_poly1_in_z(m1.numerator())
    q2 = Poly2.from_poly1_in_w(m2.numerator())
    basis = AnnihilatorBasis(
        box=(d1, d2), box_generators=tuple(gens), m1=m1, m2=m2, q1=q1, q2=q2
    )
    scale = max(1.0, *pair.norms)
    for g in basis.generators:
        res = opnorm(poly_apply(g, pair))
        if res > tol.tol_ann * scale * max(1.0, g.scale):
            raise DegenerateCluster(
                f"generator annihilation residual {res:.3e} above tolerance"
            )
    return basis


def z_ann(basis, pair, tol=DEFAULT):
    """Common zeros of the annihilator inside the open bidisc.

    Candidates are the joint-spectrum points of the pair; a candidate is kept
    iff every generator vanishes on it.  The result is deduplicated as a set.
    """
    points = joint_spectrum_taylor(pair).points
    lams, mus = np.array(points, dtype=complex).reshape(-1, 2).T
    off = np.zeros(len(points), dtype=bool)
    for g in basis.generators:
        off |= np.abs(g(lams, mus)) > tol.tol_zset * max(1.0, g.scale)
    return tuple(dedupe_points([pt for pt, o in zip(points, off) if not o], tol=tol))


def omega_psi(bundle, tol=DEFAULT):
    """Conjugate joint point spectrum of (S1*, S2*): the set Omega.

    Every returned point lies in the open bidisc and carries an eigenvector
    witness in the model coordinates.
    """
    adj = validate_pair(
        bundle.s1.conj().T, bundle.s2.conj().T, require_pure=True, tol=tol
    )
    spec = joint_point_spectrum(adj, tol=tol)
    pts = [(np.conj(lam), np.conj(mu)) for lam, mu in spec.points]
    deduped = dedupe_points(pts, tol=tol)
    return tuple(deduped), spec.witnesses


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
        {"matching_distance": dist, "z_ann": list(zset), "omega": list(omega)},
    )


def check_projection(omega, m1, tol=DEFAULT):
    """First-coordinate projection of Omega equals the zero set of m1."""
    if m1.degree == 0:
        raise AnnTrivial("projection check requires a nonconstant m1")
    name, anchor = "omega-projection", "omega-first-coordinates-equal-zeros-of-m1"
    try:
        omega, _ = _settled(omega)
        proj = dedupe_points([lam for lam, _ in omega], tol=tol)
        zeros = dedupe_points([a for a, _ in m1.zeros], tol=tol)
        dist = matching_distance(list(proj), list(zeros))
    except DegenerateCluster as exc:
        return inconclusive(name, anchor, exc)
    return _matching_entry(
        name, anchor, dist, tol, {"projection": list(proj), "m1_zeros": list(zeros)}
    )


def support_bounds(zset, bundle, variety, tol=DEFAULT):
    """Support sandwich data: Z(Ann), the joint spectrum of (S1,S2), and the variety.

    For matrices the constrained pair has spectral radii < 1, so its joint
    spectrum lies inside the open bidisc and must equal Z(Ann) as a set; every
    point must also lie on the variety.
    """
    zset = _settled(zset)
    spair = validate_pair(bundle.s1, bundle.s2, require_pure=True, tol=tol)
    staylor = joint_spectrum_taylor(spair)
    lower = tuple(dedupe_points(list(staylor.points), tol=tol))
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
    worst = 0.0
    for lam, mu in sb.inner_set + sb.lower_boundary:
        worst = max(worst, abs(p(lam, mu)))
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
            "matching_distance": dist,
            "max_variety_residual": worst,
            "inner_set": list(sb.inner_set),
            "lower_boundary": list(sb.lower_boundary),
        },
    )


def _vanishing_space_dim_and_basis(points, d1, d2):
    """Box polynomials vanishing at the given points: (dim, orthonormal basis)."""
    monos = _box_monomials(d1, d2)
    if not points:
        return len(monos), np.eye(len(monos), dtype=complex)
    rows = []
    for lam, mu in points:
        rows.append([lam ** i * mu ** j for i, j in monos])
    vmat = np.array(rows, dtype=complex)
    _, svals, vh = np.linalg.svd(vmat)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.count_nonzero(svals > max(1e-12, 1e-10 * smax)))
    nullity = len(monos) - rank
    basis = vh.conj().T[:, len(monos) - nullity :]
    return nullity, basis


def _span_matrix(polys, d1, d2):
    monos = _box_monomials(d1, d2)
    cols = []
    for g in polys:
        c = np.zeros((d1, d2), dtype=complex)
        gc = g.coeffs
        c[: gc.shape[0], : gc.shape[1]] = gc
        cols.append(c.reshape(-1))
    if not cols:
        return np.zeros((len(monos), 0), dtype=complex)
    m = np.array(cols).T
    q, _ = np.linalg.qr(m)
    return q


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
    the symbol fibers at the zeros; repeated fiber eigenvalues carried by a
    deficient eigenspace (or distinct ones inside the warning gap) make that
    reading unstable, so such instances are routed to DegenerateCluster.
    """
    for lam, _ in m1.zeros:
        mat = np.asarray(eval_psi(psi, lam))
        vals = np.linalg.eigvals(mat)
        n = vals.size
        for group in cluster_points(list(vals), tol.cluster_warn):
            if len(group) < 2:
                continue
            pts = vals[group]
            spread = float(np.max(np.abs(pts[:, None] - pts[None, :])))
            if spread > 1e-9:
                raise DegenerateCluster(
                    f"fiber eigenvalues at {lam} separated by {spread:.3e}, "
                    f"inside the warning gap"
                )
            mu = complex(np.mean(pts))
            svals = np.linalg.svd(mat - mu * np.eye(n), compute_uv=False)
            geo = int(np.count_nonzero(svals <= 1e-7 * max(1.0, svals[0])))
            if geo < len(group):
                raise DegenerateCluster(
                    f"defective symbol fiber at {lam}: eigenvalue {mu} has "
                    f"geometric multiplicity {geo} < {len(group)}"
                )


def synthesis_report(omega, bundle, basis, tol=DEFAULT):
    """Four independently evaluated synthesis conditions plus a consistency verdict.

    (i)   joint adjoint eigenvector witnesses span the constrained model space,
    (ii)  box-level equality of the annihilator with the vanishing ideal of Omega,
    (iii) radical univariate annihilator (reduces to simple roots),
    (iv)  m1 is a Blaschke product with simple roots.

    ``omega`` is the result of omega_psi (see settle).  Fiber clusters below
    the warning gap make the instance inconclusive.
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
        if wmat.shape[1]:
            svals = np.linalg.svd(wmat, compute_uv=False)
            span_dim = int(np.count_nonzero(svals > 1e-8 * svals[0]))
        else:
            span_dim = 0
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

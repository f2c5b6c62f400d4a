#!/usr/bin/env python3
"""Norm bounds on the curve and minimality hypothesis checkers.

Every polynomial satisfies ||q(T1, T2)|| <= sup over the curve closure of
|q| for pairs carried by the curve; sampling plus an explicit slack term
certifies the inequality instance by instance.  The second half runs the
single-operator and two-variable minimality checkers on their canonical
examples.
"""

import numpy as np

import distvar as dv

coeffs = np.zeros((2, 2, 2), dtype=complex)
coeffs[0, 1, 0] = 1.0
coeffs[1, 0, 1] = 1.0
psi = dv.from_polynomial(coeffs)                       # curve w^2 = z
variety = dv.variety_polynomial(psi)
pair = dv.compress_pair(psi, dv.BlaschkeProduct([(0.0, 2)]))

rng = np.random.default_rng(0)
polys = [
    dv.Poly2([[0.0], [1.0]]),                          # z
    dv.Poly2([[0.0, 1.0]]),                            # w
    dv.Poly2([[0.0, 0.0], [0.0, 1.0]]),                # zw
    dv.Poly2(rng.normal(size=(3, 3))),
]
entries = dv.vn_report(pair, variety, polys, boundary_n=512)
print("norm vs sampled supremum on the closure of w^2 = z")
print("-" * 72)
for e in entries:
    if "sup" in e.data:
        print(f"{e.name:<26} norm {e.data['norm']:.6f}  "
              f"sup {e.data['sup']:.6f}  slack {e.data['slack']:.2e}  -> {e.status}")
    else:
        print(f"{e.name:<26} norm {e.data['norm']:.2e}  -> {e.status}")

print("\nsingle-operator disc checker")
nil = np.array([[0.0, 1.0], [0.0, 0.0]])
entry = dv.williams_check(nil, dv.Poly1.identity())
print("  nilpotent, phi = z:      ", entry.status,
      " (attained norm", round(entry.data["attained_norm"], 9), ")")
entry = dv.williams_check(np.diag([0.5]), dv.Poly1.identity())
print("  diag(1/2), phi = z:      ", entry.status)

print("\ntwo-variable hypothesis checker")
shift = dv.from_polynomial(np.array([[[0.0]], [[1.0]]], dtype=complex))
diag_variety = dv.variety_polynomial(shift)
pair2 = dv.validate_pair(np.array([[0, 0], [1, 0]]), np.eye(2))
for e in dv.min_conditions(pair2, diag_variety, dv.Poly1.identity(), dv.Poly1.identity()):
    print(f"  {e.name:<26} {e.status}")

print("\nisometry-commutant variant")
t1 = np.zeros((3, 3), dtype=complex)
t1[1, 0] = 1.0
print("  J2 (+) [0] with T2 = I:  ",
      dv.isometry_variant(dv.validate_pair(t1, np.eye(3))).status)

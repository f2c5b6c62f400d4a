#!/usr/bin/env python3
"""From a matrix inner function to its curve on the bidisc.

The running example is Psi(z) = [[0, z], [1, 0]]: a 2x2 polynomial matrix
that is unitary on the circle, strictly contractive eigenvalue-wise inside,
and whose eigenvalue pairs (z, w) sweep out the curve w^2 = z.
"""

import numpy as np

import distvar as dv

coeffs = np.zeros((2, 2, 2), dtype=complex)
coeffs[0, 1, 0] = 1.0   # constant coefficient: [[0,0],[1,0]]
coeffs[1, 0, 1] = 1.0   # z coefficient:        [[0,1],[0,0]]
psi = dv.from_polynomial(coeffs)

print("boundary unitarity defect, proved bound:", psi.boundary_defect)
print("boundary unitarity defect, sampled check on 2048 circle points:",
      dv.boundary_unitarity_defect(psi, 2048))

print("\nfibers (eigenvalues of Psi(z)):")
for z in (0.25, 0.0, -0.49):
    print(f"  z = {z:+.2f}: ", np.round(dv.fiber(psi, z), 6))

variety = dv.variety_polynomial(psi)
print("\ndefining polynomial coefficients (rows = z-degree, cols = w-degree):")
print(np.round(variety.p.coeffs.real, 12))

target = dv.Poly2([[0, 0, 1], [-1, 0, 0]])
print("unit-normalized distance to w^2 - z:", dv.unit_distance(variety.p, target))

cert = dv.distinguished_certificate(psi)
print("\ndistinguished-variety certificate:", cert.status)
for key, val in cert.data["conditions"].items():
    print(f"  {key}: {val}")
print("witness point on the curve inside the open bidisc:",
      cert.data["witness"])

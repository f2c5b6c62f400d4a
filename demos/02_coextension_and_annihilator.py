#!/usr/bin/env python3
"""Co-extension, constrained model, and the zero set of the annihilator.

We compress the pair (multiplication by z, multiplication by Psi) to a
finite model space, recover the embedding J and the constrained pair
(S1, S2), and check that the common zeros of the annihilator coincide with
the conjugate joint eigenvalues of (S1*, S2*).
"""

import numpy as np

import distvar as dv

psi = dv.from_polynomial(np.array([[[0.0]], [[1.0]]], dtype=complex))  # Psi = [z]
theta = dv.BlaschkeProduct([(0.0, 1), (0.5, 1)])                       # zeros 0, 1/2

pair = dv.compress_pair(psi, theta)
print("compressed pair, size", pair.n)
print("T1 =\n", np.round(pair.t1, 6))
print("commutator norm:", pair.commutator_norm,
      " purity margins:", tuple(round(m, 6) for m in pair.purity_margins))

m1 = dv.minimal_blaschke(pair.t1)
print("\nminimal Blaschke product of T1: zeros", m1.zeros)

basis = dv.ann_generators(pair)
print("annihilator box:", basis.box,
      " kernel generators on the box:", len(basis.box_generators))

bundle = dv.constrained_coextension(pair, psi, basis)
print("\nmodel-space dimension of K:", bundle.kpsi_dim)
print("S1 =\n", np.round(bundle.s1, 6))
print("residual table:")
for key, val in sorted(bundle.residuals.items()):
    print(f"  {key}: {val}")

def show(points):
    return [tuple(complex(round(v.real, 6), round(v.imag, 6)) for v in p)
            for p in points]


# each set is computed once and handed to every check that compares it
zset = dv.z_ann(basis, pair)
omega = dv.omega_psi(bundle)            # (points, eigenvector witnesses)
print("\nZ(Ann)  =", show(zset))
print("Omega   =", show(omega[0]))
entry = dv.check_zann_equals_omega(zset, omega)
print("set equality:", entry.status,
      " matching distance:", entry.data["matching_distance"])

proj = dv.check_projection(omega, bundle.m1)
print("projection onto first coordinate equals zeros of m1:", proj.status)

variety = dv.variety_polynomial(psi)
supp = dv.check_support(zset, bundle, variety)
print("support collapse inside the bidisc:", supp.status)

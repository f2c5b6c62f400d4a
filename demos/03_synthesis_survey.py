#!/usr/bin/env python3
"""When is the annihilator the full vanishing ideal of its zero set?

Four conditions are evaluated independently on each instance:
  (i)   joint adjoint eigenvectors span the constrained model space,
  (ii)  box-level equality of the annihilator with the vanishing ideal,
  (iii) the univariate annihilator is radical,
  (iv)  the minimal Blaschke product has simple roots.
They agree on every conclusive instance: all true with simple roots, all
false once a root repeats.
"""

import numpy as np

import distvar as dv
from distvar.instances import make_instance, random_recipe


def survey(pair, psi, label):
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, psi, basis)
    entries = dv.synthesis_report(dv.settle(dv.omega_psi, bundle), bundle, basis)
    verdict = [e for e in entries if e.name == "synthesis-equivalence"][0]
    conds = verdict.data["conditions"]
    print(f"{label:<42} {verdict.status:<13} conditions: {conds}")


shift = dv.from_polynomial(np.array([[[0.0]], [[1.0]]], dtype=complex))

print("named instances")
print("-" * 100)
survey(dv.compress_pair(shift, dv.BlaschkeProduct([(0.0, 2)])), shift,
       "theta = z^2 (double root)")
survey(dv.compress_pair(shift, dv.BlaschkeProduct([(0.0, 1), (0.5, 1)])), shift,
       "theta = z(z-1/2)/(1-z/2) (simple roots)")

print("\nseeded survey: 10 simple-root and 10 repeated-root draws")
print("-" * 100)
for k in range(10):
    spec = random_recipe(400 + k)
    inst = make_instance(spec)
    survey(inst.pair, inst.psi, f"seed {spec.seed} ({spec.psi_spec['kind']})")
for k in range(10):
    spec = random_recipe(600 + k, repeated=True)
    inst = make_instance(spec)
    survey(inst.pair, inst.psi, f"seed {spec.seed} repeated ({spec.psi_spec['kind']})")

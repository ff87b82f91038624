"""Sampled frame bounds of sensing designs.

The probe draws random unit-norm rank-r matrices and records the smallest
and largest energy of the 1/sqrt(M)-scaled measurement map, giving an
optimistic sample estimate (c0, c1) of the restricted frame bounds, the
rescaling c = (c0+c1)/2 and the distortion delta = (c1-c0)/(c1+c0). A
complete orthonormal observable basis is a Parseval frame (delta = 0); a
single functional is maximally distorted; random designs improve steadily
with the number of measurements.
"""

import numpy as np

from superop_sensing import (SensingDesign, build_blockwise_design,
                             empirical_rip_probe, pauli_basis)

n = 4

print("complete scaled-Pauli basis (Parseval frame):")
design = SensingDesign("blockwise", n, pauli_basis(2))
probe = empirical_rip_probe(design, r=2, n_samples=500, seed=0)
print(f"  c0={probe.c0:.6f} c1={probe.c1:.6f} c={probe.c:.6f} "
      f"delta={probe.delta:.2e}  (c = 1/M = {1 / 16:.6f})")

print("\na single observable cannot be an isometry:")
design = SensingDesign("blockwise", n, np.eye(n)[None] / 2)
probe = empirical_rip_probe(design, r=1, n_samples=500, seed=1)
print(f"  delta={probe.delta:.3f}")

print("\nrandom Hermitian observables, distortion vs M_O (rank 2):")
for m_o in (8, 16, 32, 64, 128):
    design = build_blockwise_design(n, m_o, "random", 0, seed=m_o)
    probe = empirical_rip_probe(design, r=2, n_samples=1000, seed=2)
    bar = "#" * int(40 * probe.delta)
    print(f"  M_O={m_o:4d}: delta={probe.delta:.3f} {bar}")

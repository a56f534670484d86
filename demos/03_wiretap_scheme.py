"""
The three-slot wiretap scheme, slot by slot
===========================================

Slot 1 injects artificial noise from both antennas; the legitimate
receiver's observation of it becomes a shared secret key.  Slot 2 sends the
two confidential symbols with that key repeated on antenna 1, and slot 3
retransmits the eavesdropper's overheard combination so the legitimate
receiver can invert a 2x2 system.  Everything is linear-Gaussian, so rates
and leakage come out of closed-form log-determinants.
"""

import numpy as np

from gsdof.gaussian_mi import fit_slope
from gsdof.schemes import (
    build_scheme,
    leakage_bits,
    noiseless_decode_check,
    reliability_bits,
)

alpha = 0.5
scheme = build_scheme("wiretap-gaussian", alpha, seed=1)
print("slots:", scheme.realization.n, "| states:",
      [s.label for s in scheme.realization.states])

# Reliability and leakage across an SNR grid (values in bits per block).
rhos = 10.0 ** np.arange(6, 12.1, 1.0)
rel = np.array([reliability_bits(scheme, float(r))["v"] for r in rhos])
leak = np.array([sum(leakage_bits(scheme, float(r), 1).values()) for r in rhos])
for r, m, l in zip(rhos, rel, leak):
    print(f"  rho=1e{int(np.log10(r)):2d}: I(v; own obs)={m:7.2f} bits, "
          f"I(v; eavesdropper obs)={l:.3f} bits")

# The secure rate slope: 2 symbols over 3 slots, each worth log2(rho).
slope, stderr = fit_slope(np.log2(rhos), rel / 3)
print(f"secure DoF slope: {slope:.4f} (target 2/3), leakage slope: "
      f"{fit_slope(np.log2(rhos), leak / 3)[0]:.4f}")

# Algebraic decodability: zero receiver noise, exact side information.
print("noiseless decode:", noiseless_decode_check(scheme, seed=0))

# The broken variant without noise injection leaks at the eavesdropper's
# full link exponent.
canary = build_scheme("wiretap-nonoise", 0.75, seed=1)
leak_c = np.array([sum(leakage_bits(canary, float(r), 1).values()) for r in rhos])
print("canary leakage slope:", round(fit_slope(np.log2(rhos), leak_c)[0], 3))

"""
Structured noise on integer channels
====================================

On integer channels the artificial noise can be drawn from a scaled integer
lattice.  Integer combinations of lattice points are lattice points, so each
receiver decodes its own noise combination exactly by nearest-point
rounding: the "secret key" becomes available digitally, which closes the gap
between the inner and outer bounds.
"""

import numpy as np

from gsdof.gaussian_mi import fit_slope
from gsdof.lattice import CENTER, P, SCALE, cf_encode, nearest_point
from gsdof.schemes import build_scheme, noiseless_decode_check, reliability_bits

print(f"lattice: P={P}, SCALE={SCALE:.4f}")

# Encode two mod-p symbols, form an integer combination, and recover it
# exactly: the nearest lattice point is the combination's integer, and
# undoing the encoder's centering gives its mod-p class.
rng = np.random.default_rng(0)
u = rng.integers(0, P, size=2)
coeffs = np.array([2, -3])
received = float(coeffs @ cf_encode(u))
point = nearest_point(received)
decoded = (round(point / SCALE) + int(coeffs.sum()) * CENTER) % P
print(f"symbols {u.tolist()}, combination {coeffs.tolist()} -> "
      f"{decoded} (truth {int(coeffs @ u) % P}, "
      f"residual {abs(received - point) / SCALE:.1e})")

alpha = 0.5
rhos = 10.0 ** np.arange(6, 12.1, 1.0)

# The integer wiretap scheme meets the converse: 1 - alpha/3.
scheme = build_scheme("wiretap-lattice", alpha, seed=2)
total = np.array([sum(reliability_bits(scheme, float(r)).values()) for r in rhos])
slope = fit_slope(np.log2(rhos), total / 3)[0]
print(f"integer wiretap secure DoF: {slope:.4f} (converse {1 - alpha / 3})")
print("exact lattice decode:", noiseless_decode_check(scheme, seed=0))

# And the alternating-topology variant achieves the sum DoF of 1.
scheme = build_scheme("int-sym-alt", alpha, seed=2)
total = np.array([sum(reliability_bits(scheme, float(r)).values()) for r in rhos])
print(f"alternating integer scheme sum DoF: {fit_slope(np.log2(rhos), total / 4)[0]:.4f}")

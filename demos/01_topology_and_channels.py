"""
Topology states, deterministic state sequences, and channel draws
=================================================================

The channel alternates between four link-strength states: each receiver's
link is either strong (exponent 1) or weak (exponent alpha).  A profile
fixes the fraction of time spent in each state; sequences realize those
fractions exactly, which keeps every downstream slope fit reproducible.
"""

import numpy as np

from gsdof.topology import (
    TopologyProfile,
    draw_channels,
    realization_to_csv,
    receive,
    state_sequence,
)

# A profile where receiver 1 is strong 30% of the time and both links are
# weak otherwise.
profile = TopologyProfile(alpha=0.5, lambda_1a=0.3, lambda_aa=0.7)
seq = state_sequence(profile, 10)
print("state labels:", [s.label for s in seq])

# The symmetric alternating profile used throughout: each receiver enjoys
# the strong link half of the time.
sym = TopologyProfile.symmetric_alternating(0.5)
print("symmetric sequence:", [s.label for s in state_sequence(sym, 4)])

# Channel draws are seeded and reject any slot whose 2x2 state matrix is
# rank deficient.  A realization is its states, its draw and its mode: it
# does not depend on the SNR, which enters only through the state exponents.
# Integer mode draws nonzero integers in -3..3 for the structured-coding
# schemes.
real = draw_channels(state_sequence(sym, 4), seed=7)
print("min |det S_t| over the block:", f"{real.min_abs_det():.3f}")

int_real = draw_channels(state_sequence(TopologyProfile.fixed("1a", 0.5), 3),
                         seed=7, mode="integer")
print("integer rows:", np.real(int_real.h).astype(int).tolist())

# One use of the channel law: a unit-power input, explicit noise.
y, z = receive(
    np.array([1.0, 0.0]), real.states[0], real.h[0], real.g[0],
    rho=1e4, alpha=0.5, noise=np.zeros(2),
)
print(f"received pair at rho=1e4: y={y:.2f}, z={z:.2f}")

# Realizations serialize to CSV for audit.
print(realization_to_csv(int_real, alpha=0.5))

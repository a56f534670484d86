"""
Topology states, deterministic state sequences, and channel draws
=================================================================

The channel alternates between four link-strength states: each receiver's
link is either strong (exponent 1) or weak (exponent alpha).  A profile
fixes the fraction of time spent in each state; sequences realize those
fractions exactly, which keeps every downstream slope fit reproducible.
"""

import numpy as np

from gsdof.schemes import build_scheme, simulate_noiseless
from gsdof.topology import TopologyProfile, draw_channels, state_sequence

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

# One use of the channel law, as a built scheme applies it: in slot t,
# receiver 1 hears y_t = sqrt(rho^A1) h_t.x_t and receiver 2 hears
# z_t = sqrt(rho^A2) g_t.x_t, with x_t the slot's normalized input (noise
# zeroed).  sym-alt's four slots visit (1, alpha) twice, then (alpha, 1).
scheme = build_scheme("sym-alt", 0.5, seed=7)
_, y, z, _ = simulate_noiseless(scheme, rho=1e4, seed=0)
for t, state in enumerate(scheme.realization.states):
    print(f"slot {t} state {state.label}: |y|={abs(y[t]):.2f}, |z|={abs(z[t]):.2f}")

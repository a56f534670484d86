"""Desk-scale compute-and-forward on integer channels.

Artificial noise (and, in the no-secrecy scheme, message pairs) is drawn
from a scaled one-dimensional integer lattice with a mod-p message space.
Because integer linear combinations of lattice points are lattice points,
each receiver can recover its own combination of the noise codewords
exactly by nearest-point rounding, which is what makes the learned "secret
key" functionals exact on integer channels.  Shaping is deliberately
omitted: it does not affect DoF slopes.

The module holds the one lattice, as the constants ``P``, ``SCALE`` and
``CENTER``, its symbol encoder (``cf_encode``) and its nearest-point
decoder (``nearest_point``), which ``schemes`` applies to every lattice
group, and the two integer-channel builders.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .schemes import LinearScheme, SymbolGroup, build_sym_alt, build_wiretap_gaussian
from .topology import ChannelRealization

__all__ = [
    "P",
    "SCALE",
    "CENTER",
    "cf_encode",
    "nearest_point",
    "build_wiretap_lattice",
    "build_int_sym_alt",
]

# The lattice: P, a prime, keeps integer combinations with coefficients in
# -3..3 unambiguous over the integer channel draw; SCALE maps codeword
# integers to transmit amplitudes, so the largest codeword amplitude,
# CENTER * SCALE, is one.
P = 31  # size of the mod-P message space
SCALE = 2.0 / 30.0  # lattice spacing
CENTER = (P - 1) // 2  # encoder offset: symbol s is sent as s - CENTER


def cf_encode(symbols) -> np.ndarray:
    """Map mod-P symbols to scaled centered-integer lattice amplitudes."""
    symbols = np.asarray(symbols, dtype=int)
    if np.any(symbols < 0) or np.any(symbols >= P):
        raise ValueError("symbols must lie in 0..p-1")
    return SCALE * (symbols - CENTER).astype(float)


def nearest_point(value):
    """Nearest scaled-integer lattice point to the real part of ``value``,
    elementwise for an array (ties round to even, as ``round`` does)."""
    return SCALE * np.round(np.real(value) / SCALE)


# ---------------------------------------------------------------------------
# Integer-channel scheme builders.
# ---------------------------------------------------------------------------


def _with_structured_noise(base: LinearScheme, name: str) -> LinearScheme:
    """Integer-channel variant of a Gaussian noise-injection scheme.

    The artificial noise becomes lattice codewords, which frees a fresh
    receiver-1 layer ``v_low`` at power offset rho**(-alpha) under the noise
    on antenna 1 of slot 1.  ``linear_decode`` decodes it as it decodes
    every scheme: each receiver's slot-1 row touches no unit-power group but
    the noise, so it is peeled, recovering the noise combination exactly by
    nearest-point decoding with the low-power layer as bounded
    interference, and leaving that layer as a row of its own.  A
    trial-batched base gives a trial-batched variant.
    """
    if base.realization.mode != "integer":
        raise ValueError(f"the {name} scheme requires an integer realization")
    low = np.zeros((2, 1), dtype=np.complex128)
    low[0, 0] = 1.0
    slot_maps = ({**base.slot_maps[0], "v_low": low}, *base.slot_maps[1:])
    groups = (SymbolGroup("v_low", 1, (0, -1), "rx1"),) + tuple(
        replace(g, lattice=True) if g.owner == "noise" else g for g in base.groups
    )
    rates = {"v_low": (1, -1), **base.rates}
    return replace(base, groups=groups, slot_maps=slot_maps, rates=rates)


def build_wiretap_lattice(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Three-slot integer-channel confidential scheme meeting the upper bound:
    ``wiretap-gaussian`` with structured noise."""
    return _with_structured_noise(build_wiretap_gaussian(realization, alpha), "wiretap-lattice")


def build_int_sym_alt(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Four-slot integer-channel scheme on the symmetric alternating
    topology: ``sym-alt`` with structured noise."""
    return _with_structured_noise(build_sym_alt(realization, alpha), "int-sym-alt")

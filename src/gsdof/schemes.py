"""Transmission schemes as structured linear maps over a channel realization.

A scheme maps confidential symbols, artificial noise, and common (digitized
side-information) symbols to per-slot channel inputs.  Each symbol group has
a power exponent: its variance scales as rho**exponent relative to the unit
slot budget.  Per-slot inputs are normalized by an SNR-independent constant
so the expected transmit power never exceeds one.

Two views of every scheme coexist:

* a closed-form linear-Gaussian observation model per receiver (physical
  slot outputs plus digitized side channels with unit-variance quantization
  noise), used for exact rate and leakage accounting; and
* a declared decode plan, run on simulated noiseless transmissions with
  exact side information to verify algebraic decodability by inversion.

Reliability accounting conditions each receiver on its decoded noise
functionals (for example h1.u from the first slot) and on the common
digitized layer.  The integer-channel variants realize those functionals
exactly via lattice decoding; the layered common symbols' decodability is
certified separately by their own mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gaussian_mi import conditional_mi
from .topology import (
    STATE_1A,
    STATE_A1,
    ChannelRealization,
    TopologyState,
    draw_channels,
)

__all__ = [
    "SymbolGroup",
    "SideChannel",
    "LinearScheme",
    "SchemeSpec",
    "SCHEMES",
    "SCHEME_KINDS",
    "SECURE_SCHEMES",
    "build_wiretap_gaussian",
    "build_yang_baseline",
    "build_bc_fixed",
    "build_sym_alt",
    "build_gdof_no_secrecy",
    "build_no_noise_canary",
    "build_scheme",
    "smallest_t1",
    "reliability_bits",
    "leakage_bits",
    "accounting_bits",
    "joint_leakage_bits",
    "common_layer_bits",
    "scheme_block_length",
    "simulate_noiseless",
    "noiseless_decode_check",
    "audit_causality",
    "max_slot_power",
    "UniformQuantizer",
    "quantizer_for_power",
    "xor_bits",
    "digitized_side_info_roundtrip",
    "DecodeError",
]

GAUSS_CLIP = 3.5  # truncation radius for symbol draws in decode simulations


class DecodeError(RuntimeError):
    """Raised when a declared decode plan cannot run (rank or margin failure)."""


@dataclass(frozen=True)
class SymbolGroup:
    name: str
    size: int
    exponent: float  # symbol variance = rho**exponent, exponent <= 0
    owner: str  # "rx1" | "rx2" | "noise" | "common"
    lattice: bool = False

    def __post_init__(self) -> None:
        if self.exponent > 1e-12:
            raise ValueError("symbol power exponents must be <= 0")
        if self.owner not in ("rx1", "rx2", "noise", "common"):
            raise ValueError(f"unknown owner {self.owner!r}")


@dataclass(frozen=True)
class SideChannel:
    """Digitized side information delivered to one receiver: what the other
    receiver overheard in the listed slots.

    The content of slot ``t`` is the other receiver's noiseless slot output
    with its link gain stripped (its channel row applied to the normalized
    slot input).  Observation model: rho**(gain_exponent/2) * content + unit
    noise, where the unit noise stands for the bounded quantization
    distortion.
    """

    receiver: int  # the receiver the side information is delivered to
    label: str
    gain_exponent: float
    slots: tuple[int, ...]  # slots whose other-receiver outputs are delivered


@dataclass(frozen=True)
class LinearScheme:
    name: str
    alpha: float
    realization: ChannelRealization
    groups: tuple[SymbolGroup, ...]
    slot_maps: tuple  # per slot: dict group name -> (2, size) array
    slot_norms: tuple[float, ...]
    side_channels: tuple[SideChannel, ...] = ()
    keys: dict = field(default_factory=dict)  # receiver -> {group: (k, size)}
    decode_order: dict = field(default_factory=dict)  # receiver -> own groups
    ledger: dict = field(default_factory=dict)  # group -> log2(rho) multiple per block
    decoder: Callable = None
    meta: dict = field(default_factory=dict)

    def group(self, name: str) -> SymbolGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)


def _normalize(slot_maps) -> tuple[float, ...]:
    norms = []
    for maps in slot_maps:
        total = sum(float((np.abs(m) ** 2).sum()) for m in maps.values())
        norms.append(math.sqrt(total) if total > 0 else 1.0)
    return tuple(norms)


def scheme_block_length(scheme: LinearScheme) -> int:
    return scheme.realization.n


# ---------------------------------------------------------------------------
# Observation model assembly.
# ---------------------------------------------------------------------------


def _layout_signature(scheme: LinearScheme) -> tuple:
    """What a receiver's layout is built from: schemes with equal signatures
    share offsets, masks, exponents, the row plan and the key placement."""
    key_shapes = tuple(
        (receiver, tuple((name, m.shape) for name, m in key_map.items()))
        for receiver, key_map in scheme.keys.items()
    )
    return (
        scheme.name,
        scheme.alpha,
        scheme.realization.states,
        scheme.groups,
        scheme.side_channels,
        key_shapes,
    )


class _ReceiverStructure:
    """Stripped coefficients of one receiver's observations, for one scheme
    or a chunk of schemes of one kind and alpha.

    The layout comes from the first scheme: column offsets, group and owner
    masks, row and column exponents, the row plan (each row's slot and
    channel: the receiver's own, or the other receiver's for a delivered
    side channel) and the key placement.  ``coef`` (B, rows, cols) and
    ``key_coef`` (B, keys, cols) hold each scheme's coefficients; each
    (slot, group) cell is filled for all rows and schemes with one stacked
    ``(B, 1, 2) @ (B, 2, size)`` matmul per row.  For a single scheme the
    leading axis is dropped."""

    def __init__(self, schemes, receiver: int):
        single = isinstance(schemes, LinearScheme)
        schemes = [schemes] if single else list(schemes)
        first = schemes[0]
        signature = _layout_signature(first)
        for i, s in enumerate(schemes[1:], 1):
            if _layout_signature(s) != signature:
                raise ValueError(
                    f"scheme {i} of the chunk differs from scheme 0 in its kind, "
                    "alpha, states, groups, side channels or key shapes"
                )
        real, alpha = first.realization, first.alpha
        offsets = {}
        pos = 0
        for g in first.groups:
            offsets[g.name] = (pos, g.size)
            pos += g.size
        self.total = pos
        self.col_exp = np.zeros(pos)
        self.masks = {}
        for g in first.groups:
            off, size = offsets[g.name]
            self.col_exp[off : off + size] = g.exponent
            mask = np.zeros(pos, dtype=bool)
            mask[off : off + size] = True
            self.masks[g.name] = mask
        self.owner_masks = {}
        for owner in ("rx1", "rx2", "noise", "common"):
            mask = np.zeros(pos, dtype=bool)
            for g in first.groups:
                if g.owner == owner:
                    mask |= self.masks[g.name]
            self.owner_masks[owner] = mask

        # Row plan: one row per own slot output, then one per overheard slot
        # output delivered as side information, each as (slot, channel).
        own, other = ("h", "g") if receiver == 1 else ("g", "h")
        plan = [(t, own) for t in range(real.n)]
        row_exp = [real.states[t].exponents(alpha)[receiver - 1] for t in range(real.n)]
        for ch in first.side_channels:
            if ch.receiver == receiver:
                plan += [(t, other) for t in ch.slots]
                row_exp += [ch.gain_exponent] * len(ch.slots)
        self.row_exp = np.asarray(row_exp, dtype=float)

        channels = {
            "h": np.array([s.realization.h for s in schemes])[:, :, None, :],
            "g": np.array([s.realization.g for s in schemes])[:, :, None, :],
        }
        norms = np.array([s.slot_norms for s in schemes])[:, :, None, None]
        coef = np.zeros((len(schemes), len(plan), pos), dtype=np.complex128)
        for t, maps in enumerate(first.slot_maps):
            rows = [(i, channels[c][:, t]) for i, (slot, c) in enumerate(plan) if slot == t]
            for name in maps:
                off, size = offsets[name]
                m = np.array([s.slot_maps[t][name] for s in schemes])
                # One row per product: a product over several rows may round
                # differently, and the sweep CSVs are pinned bit for bit.
                for i, vec in rows:
                    coef[:, i : i + 1, off : off + size] = (vec @ m) / norms[:, t]

        # Keys must not depend on the SNR, so they may only sit on unit-power
        # groups; scaled() then needs no SNR axis for them.
        key_map = first.keys.get(receiver, {})
        k = next(iter(key_map.values())).shape[0] if key_map else 0
        key_coef = np.zeros((len(schemes), k, pos), dtype=np.complex128)
        for name in key_map:
            exponent = first.group(name).exponent
            if exponent != 0:
                raise ValueError(
                    f"key on group {name!r} with power exponent {exponent}: "
                    "keys must sit on unit-power groups"
                )
            off, size = offsets[name]
            key_coef[:, :, off : off + size] = np.array([s.keys[receiver][name] for s in schemes])
        self.coef, self.key_coef = (coef[0], key_coef[0]) if single else (coef, key_coef)

    def scaled(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """Observation and key matrices at SNR ``rho``, a scalar or an array
        whose shape becomes the batch shape of the observations, after the
        chunk axis if there is one.  The keys do not depend on the SNR: they
        get one size-1 axis per SNR axis, which broadcasts."""
        r = np.asarray(rho, dtype=float)
        lead = self.coef.shape[:-2] + (1,) * r.ndim
        a = self.coef.reshape(lead + self.coef.shape[-2:]) * r[..., None, None] ** (
            (self.row_exp[:, None] + self.col_exp[None, :]) / 2.0
        )
        return a, self.key_coef.reshape(lead + self.key_coef.shape[-2:])


def receiver_structure(schemes, receiver: int) -> _ReceiverStructure:
    """``receiver``'s observation structure for one scheme, or for a chunk
    of schemes of one kind and alpha (refused with a ValueError otherwise)."""
    return _ReceiverStructure(schemes, receiver)


def _own_owner(receiver: int) -> str:
    return "rx1" if receiver == 1 else "rx2"


def _other(receiver: int) -> int:
    return 2 if receiver == 1 else 1


def _first(schemes) -> LinearScheme:
    return schemes if isinstance(schemes, LinearScheme) else schemes[0]


def _reliability_chain(scheme: LinearScheme, receiver: int):
    """(order, known owner) of ``receiver``'s own groups."""
    return scheme.decode_order.get(receiver, ()), _own_owner(_other(receiver))


def _leakage_chain(scheme: LinearScheme, receiver: int):
    """(order, known owner) of the other receiver's groups, as overheard at
    ``receiver``."""
    return scheme.decode_order.get(_other(receiver), ()), _own_owner(receiver)


def _receiver_bits(schemes, rho, receiver: int, chains) -> list[dict]:
    """Chain-rule MI at ``receiver`` for each (order, known owner) chain: the
    groups in ``order``, each given the known owner's messages, the common
    layer, the granted keys and the chain's earlier groups.

    All chains share one stacked (obs, keys) pair and one ``conditional_mi``
    call, which evaluates every distinct conditioning set once.  A sequence
    of schemes stacks the receiver matrices over schemes x SNRs."""
    if not any(order for order, _ in chains):
        return [{} for _ in chains]
    st = receiver_structure(schemes, receiver)
    a, k = st.scaled(rho)
    targets, givens = [], []
    for order, known_owner in chains:
        given = st.owner_masks[known_owner] | st.owner_masks["common"]
        for name in order:
            targets.append(st.masks[name])
            givens.append(given)
            given = given | st.masks[name]
    bits = iter(conditional_mi(a, k, np.array(targets), np.array(givens)))
    return [{name: next(bits) for name in order} for order, _ in chains]


def reliability_bits(schemes, rho) -> dict:
    """Per-group decodable information in bits.

    Chain accounting in declared decode order: each receiver conditions on
    the other receiver's message groups, the common layer, its granted noise
    functionals, and its own already-decoded groups.

    ``schemes`` is one scheme or a sequence of schemes of one kind and
    alpha; ``rho`` is one SNR or an array of SNRs.  Values have shape
    (schemes,) + shape of ``rho``: floats for one scheme at one SNR,
    (schemes, SNRs) arrays for a sequence over an SNR grid.
    """
    out = {}
    for receiver in (1, 2):
        chain = _reliability_chain(_first(schemes), receiver)
        out.update(_receiver_bits(schemes, rho, receiver, [chain])[0])
    return out


def leakage_bits(schemes, rho, owner: int) -> dict:
    """Per-group information leaked to the unintended receiver, in bits.

    The eavesdropping receiver is conditioned on its own messages, the
    common layer, and its granted noise functionals (conservative: granting
    side knowledge can only increase the measured leakage).  Batching is as
    in ``reliability_bits``.
    """
    receiver = _other(owner)
    chain = _leakage_chain(_first(schemes), receiver)
    return _receiver_bits(schemes, rho, receiver, [chain])[0]


def accounting_bits(schemes, rho) -> tuple[dict, dict]:
    """(reliability, leakage) per group: ``reliability_bits`` and the union
    of ``leakage_bits`` for both owners, with the same values.

    Each receiver's reliability and leakage chains share one observation
    stack and one ``conditional_mi`` call, so a conditioning set they have
    in common (such as the noise-only set both chains end on) is evaluated
    once.  Batching is as in ``reliability_bits``.
    """
    first = _first(schemes)
    rel, leak = {}, {}
    for receiver in (1, 2):
        chains = [_reliability_chain(first, receiver), _leakage_chain(first, receiver)]
        own, overheard = _receiver_bits(schemes, rho, receiver, chains)
        rel.update(own)
        leak.update(overheard)
    return rel, leak


def joint_leakage_bits(scheme: LinearScheme, rho: float, owner: int) -> float:
    return sum(leakage_bits(scheme, rho, owner).values())


def common_layer_bits(scheme: LinearScheme, rho: float, receiver: int) -> float:
    """I(common layer ; receiver's observations), the layered-decode budget."""
    st = receiver_structure(scheme, receiver)
    a, k = st.scaled(rho)
    none = np.zeros(st.total, dtype=bool)
    return conditional_mi(a, k, st.owner_masks["common"], none)


def max_slot_power(scheme: LinearScheme, rhos=(1e6, 1e12)) -> float:
    """Largest per-slot expected input power with all variances instantiated."""
    worst = 0.0
    for maps, norm in zip(scheme.slot_maps, scheme.slot_norms):
        for rho in rhos:
            p = 0.0
            for name, m in maps.items():
                g = scheme.group(name)
                p += float(np.sum(np.abs(m) ** 2)) * rho**g.exponent
            worst = max(worst, p / norm**2)
    return worst


# ---------------------------------------------------------------------------
# Quantization and bitwise-XOR digitization of side information.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformQuantizer:
    """Uniform scalar quantizer on real and imaginary parts.

    The dynamic range covers six standard deviations of the quantized signal
    in each real dimension; saturated samples are clipped and counted.
    """

    bits_per_complex: int
    sigma: float  # per-real-dimension standard deviation

    @property
    def bits_re(self) -> int:
        return (self.bits_per_complex + 1) // 2

    @property
    def bits_im(self) -> int:
        return self.bits_per_complex // 2

    def _axis(self, bits: int) -> tuple[float, int]:
        levels = 1 << bits
        span = 12.0 * self.sigma
        return span / levels, levels

    def _enc(self, value: float, bits: int) -> tuple[int, bool]:
        step, levels = self._axis(bits)
        idx = int(math.floor((value + 6.0 * self.sigma) / step))
        sat = idx < 0 or idx >= levels
        return min(max(idx, 0), levels - 1), sat

    def _dec(self, idx: int, bits: int) -> float:
        step, _ = self._axis(bits)
        return -6.0 * self.sigma + (idx + 0.5) * step

    def encode(self, value: complex) -> tuple[int, bool]:
        """Index packing the real and imaginary sub-indices; flag = saturated."""
        ire, sre = self._enc(value.real, self.bits_re)
        iim, sim = self._enc(value.imag, self.bits_im)
        return (ire << self.bits_im) | iim, (sre or sim)

    def decode(self, index: int) -> complex:
        iim = index & ((1 << self.bits_im) - 1)
        ire = index >> self.bits_im
        return complex(self._dec(ire, self.bits_re), self._dec(iim, self.bits_im))

    @property
    def max_error(self) -> float:
        er = self._axis(self.bits_re)[0] / 2
        ei = self._axis(self.bits_im)[0] / 2 if self.bits_im else 6.0 * self.sigma
        return math.hypot(er, ei)


def quantizer_for_power(signal_power: float, rate_bits: int) -> UniformQuantizer:
    """Quantizer for a complex signal of the given power at the given rate."""
    return UniformQuantizer(rate_bits, math.sqrt(max(signal_power, 1e-300) / 2.0))


def xor_bits(i1: int, i2: int) -> int:
    """Bitwise XOR of two equal-width quantization indices."""
    return i1 ^ i2


def _serialize(indices, bits_each: int) -> int:
    out = 0
    for idx in indices:
        out = (out << bits_each) | int(idx)
    return out


def _deserialize(packed: int, bits_each: int, count: int) -> list[int]:
    mask = (1 << bits_each) - 1
    out = [0] * count
    for i in range(count - 1, -1, -1):
        out[i] = packed & mask
        packed >>= bits_each
    return out


def digitized_side_info_roundtrip(scheme: LinearScheme, rho: float, seed: int = 0):
    """Run the real digitization path of the common multicast on a scheme.

    Fixed-topology four-phase schemes quantize the two overheard streams
    separately (the weak-side stream at ceil(alpha*log2 rho) bits per
    complex sample over its rho**alpha level, the strong-side stream at
    ceil(log2 rho) bits over its rho level), bit-serialize and XOR them.
    Alternating schemes instead sum the two same-level signals first and
    quantize the sum once.  Either way receiver 1 reconstructs the
    receiver-2 stream from the common message and its own operand.  Returns
    (max reconstruction error, quantizer error bound, saturation rate).
    """
    if not scheme.side_channels:
        raise ValueError("scheme has no digitized side information")
    alpha = scheme.alpha
    symbols, y, z, side = simulate_noiseless(scheme, rho, seed)
    z2 = side["z2_hat"] * rho ** (alpha / 2.0)  # weak-side stream, level rho**alpha
    strong = scheme.side_channels[1]
    y3 = side["y3_hat"] * rho ** (strong.gain_exponent / 2.0)
    bits_z = math.ceil(alpha * math.log2(rho))

    if abs(strong.gain_exponent - alpha) < 1e-12 and len(y3) == len(z2):
        # Alternating path: quantize the analog sum, subtract the operand.
        summed = y3 + z2
        qs = quantizer_for_power(2.0 * rho**alpha, bits_z)
        saturated = 0
        rec = np.empty(len(z2), dtype=np.complex128)
        for i, s in enumerate(summed):
            idx, sat = qs.encode(complex(s))
            saturated += int(sat)
            rec[i] = qs.decode(idx) - y3[i]
        err = float(np.max(np.abs(rec - z2)))
        return err, qs.max_error, saturated / len(summed)

    # Fixed-topology path: two streams, bit-serialized and XORed.
    bits_y = math.ceil(strong.gain_exponent * math.log2(rho))
    qz = quantizer_for_power(rho**alpha, bits_z)
    qy = quantizer_for_power(rho**strong.gain_exponent, bits_y)
    saturated = 0
    iz, iy = [], []
    for v in z2:
        idx, sat = qz.encode(complex(v))
        saturated += int(sat)
        iz.append(idx)
    for v in y3:
        idx, sat = qy.encode(complex(v))
        saturated += int(sat)
        iy.append(idx)
    # Pad the serialized streams to a common width before the XOR.
    total_z = len(iz) * bits_z
    total_y = len(iy) * bits_y
    width = max(total_z, total_y)
    common = xor_bits(_serialize(iz, bits_z) << (width - total_z),
                      _serialize(iy, bits_y) << (width - total_y))
    # Receiver 1 knows its own strong-side stream exactly (noiseless run),
    # quantizes it identically, and strips it from the common message.
    own = _serialize([qy.encode(complex(v))[0] for v in y3], bits_y) << (width - total_y)
    recovered = _deserialize(xor_bits(common, own) >> (width - total_z), bits_z, len(iz))
    rec = np.array([qz.decode(i) for i in recovered])
    err = float(np.max(np.abs(rec - z2)))
    return err, qz.max_error, saturated / (len(iz) + len(iy))


# ---------------------------------------------------------------------------
# Builders: Gaussian-noise schemes.
# ---------------------------------------------------------------------------


def _require(realization: ChannelRealization, n: int, states) -> None:
    if realization.n != n:
        raise ValueError(f"scheme needs {n} slots, realization has {realization.n}")
    for t, s in enumerate(states):
        if realization.states[t] != s:
            raise ValueError(f"slot {t} must be in state {s.label}")


def _row(vec, size: int, offset: int = 0) -> np.ndarray:
    """(1, size) row with ``vec`` placed at ``offset``."""
    out = np.zeros((1, size), dtype=np.complex128)
    out[0, offset : offset + len(vec)] = vec
    return out


def _antenna1(vec, size: int, offset: int = 0) -> np.ndarray:
    """(2, size) map sending ``vec @ symbols`` on antenna 1 only."""
    out = np.zeros((2, size), dtype=np.complex128)
    out[0, offset : offset + len(vec)] = vec
    return out


def build_wiretap_gaussian(
    realization: ChannelRealization,
    alpha: float,
    state: TopologyState = STATE_1A,
) -> LinearScheme:
    """Three-slot confidential scheme for receiver 1 on a fixed topology.

    Slot 1 injects artificial noise from both antennas; slot 2 sends the two
    confidential symbols with the learned receiver-1 noise observation
    repeated on antenna 1; slot 3 retransmits the receiver-2 side
    information.  With ``state=STATE_A1`` the same construction runs on the
    weak-legitimate-link topology, where each symbol carries alpha bits per
    log2(rho).
    """
    _require(realization, 3, [state] * 3)
    h1, g1 = realization.h[0], realization.g[0]
    h2, g2 = realization.h[1], realization.g[1]
    g21 = realization.g[1][0]

    groups = [
        SymbolGroup("v", 2, 0.0, "rx1"),
        SymbolGroup("u", 2, 0.0, "noise"),
    ]
    slot0 = {"u": np.eye(2, dtype=np.complex128)}
    slot1 = {"v": np.eye(2, dtype=np.complex128), "u": _antenna1(h1, 2)}
    slot2 = {"v": _antenna1(g2, 2), "u": _antenna1(g21 * h1, 2)}
    slot_maps = (slot0, slot1, slot2)
    norms = _normalize(slot_maps)

    per_symbol = 1.0 if state == STATE_1A else alpha
    keys = {1: {"u": _row(h1, 2)}, 2: {"u": _row(g1, 2)}}

    def decoder(scheme, y, z, side, layers, rho):
        real = scheme.realization
        a = [real.states[t].exponents(alpha)[0] for t in range(3)]
        ys = [y[t] / math.sqrt(rho ** a[t]) * scheme.slot_norms[t] for t in range(3)]
        k1 = complex(ys[0])  # h1.u
        eq1 = ys[1] - h2[0] * k1  # h2.v
        h31 = real.h[2][0]
        if abs(h31) < 1e-12:
            raise DecodeError("side-information slot lost: h31 = 0")
        eq2 = ys[2] / h31 - g21 * k1  # g2.v
        m = np.vstack([h2, g2])
        if abs(np.linalg.det(m)) < 1e-9:
            raise DecodeError("decode matrix [h2; g2] is singular")
        v = np.linalg.solve(m, np.array([eq1, eq2]))
        return {"v": v}

    return LinearScheme(
        name="wiretap-gaussian" if state == STATE_1A else "wiretap-gaussian-a1",
        alpha=alpha,
        realization=realization,
        groups=tuple(groups),
        slot_maps=slot_maps,
        slot_norms=norms,
        keys=keys,
        decode_order={1: ("v",)},
        ledger={"v": 2.0 * per_symbol},
        decoder=decoder,
        meta={"decode_rho": max(realization.rho, 1e8)},
    )


def build_no_noise_canary(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Deliberately broken scheme: one uncoded confidential symbol, no cover.

    With the artificial noise omitted the unintended receiver sees the
    secret at its full link level, so the leakage slope equals the
    eavesdropper's link exponent.  Used as a regression canary for the
    leakage engine.
    """
    _require(realization, 1, [STATE_1A])

    groups = (SymbolGroup("v", 1, 0.0, "rx1"),)
    one = np.zeros((2, 1), dtype=np.complex128)
    one[0, 0] = 1.0
    slot_maps = ({"v": one},)
    norms = _normalize(slot_maps)

    def decoder(scheme, y, z, side, layers, rho):
        h11 = scheme.realization.h[0][0]
        if abs(h11) < 1e-12:
            raise DecodeError("antenna path lost")
        return {"v": np.array([y[0] / math.sqrt(rho) * scheme.slot_norms[0] / h11])}

    return LinearScheme(
        name="wiretap-nonoise",
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        slot_norms=norms,
        decode_order={1: ("v",)},
        ledger={"v": 1.0},
        decoder=decoder,
        meta={"decode_rho": max(realization.rho, 1e8)},
    )


def build_yang_baseline(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Four-slot baseline sending two confidential symbols to each receiver.

    Slot 1: noise; slot 2: receiver-1 symbols plus the learned receiver-1
    noise combination; slot 3: receiver-2 symbols plus the learned
    receiver-2 noise combination; slot 4: the sum of the two overheard
    side-information forms, retransmitted on antenna 1.
    """
    _require(realization, 4, [STATE_1A] * 4)
    h1, g1 = realization.h[0], realization.g[0]
    h2, g2 = realization.h[1], realization.g[1]
    h3, g3 = realization.h[2], realization.g[2]
    g21 = realization.g[1][0]
    h31 = realization.h[2][0]

    groups = (
        SymbolGroup("v", 2, 0.0, "rx1"),
        SymbolGroup("w", 2, 0.0, "rx2"),
        SymbolGroup("u", 2, 0.0, "noise"),
    )
    slot_maps = (
        {"u": np.eye(2, dtype=np.complex128)},
        {"v": np.eye(2, dtype=np.complex128), "u": _antenna1(h1, 2)},
        {"w": np.eye(2, dtype=np.complex128), "u": _antenna1(g1, 2)},
        {
            "v": _antenna1(g2, 2),
            "w": _antenna1(h3, 2),
            "u": _antenna1(h31 * g1 + g21 * h1, 2),
        },
    )
    norms = _normalize(slot_maps)

    def decoder(scheme, y, z, side, layers, rho):
        sr = math.sqrt(rho)
        sra = math.sqrt(rho**alpha)
        nrm = scheme.slot_norms
        ys = [y[t] / sr * nrm[t] for t in range(4)]
        zs = [z[t] / sra * nrm[t] for t in range(4)]
        k1 = complex(ys[0])  # h1.u
        k2 = complex(zs[0])  # g1.u
        # Receiver 1: remove own slot-3 observation from slot 4, then invert.
        y3_form = complex(ys[2])  # h3.w + h31*g1.u
        h41 = scheme.realization.h[3][0]
        if abs(h41) < 1e-12:
            raise DecodeError("slot-4 antenna path lost at receiver 1")
        z2_form = ys[3] / h41 - y3_form  # g2.v + g21*h1.u
        eqs = np.array([ys[1] - h2[0] * k1, z2_form - g21 * k1])
        m1 = np.vstack([h2, g2])
        # Receiver 2: remove own slot-2 observation from slot 4, then invert.
        z2_own = complex(zs[1])
        g41 = scheme.realization.g[3][0]
        if abs(g41) < 1e-12:
            raise DecodeError("slot-4 antenna path lost at receiver 2")
        y3_est = zs[3] / g41 - z2_own  # h3.w + h31*g1.u
        eqs2 = np.array([zs[2] - g3[0] * k2, y3_est - h31 * k2])
        m2 = np.vstack([g3, h3])
        if abs(np.linalg.det(m1)) < 1e-9 or abs(np.linalg.det(m2)) < 1e-9:
            raise DecodeError("singular decode matrix")
        return {"v": np.linalg.solve(m1, eqs), "w": np.linalg.solve(m2, eqs2)}

    return LinearScheme(
        name="yang",
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        slot_norms=norms,
        keys={1: {"u": _row(h1, 2)}, 2: {"u": _row(g1, 2)}},
        decode_order={1: ("v",), 2: ("w",)},
        ledger={"v": 2.0, "w": 2.0 * alpha},
        decoder=decoder,
        meta={"decode_rho": max(realization.rho, 1e8)},
    )


def smallest_t1(alpha: float, limit: int = 20) -> int:
    """Smallest phase length T1 <= limit making alpha*T1 a positive integer."""
    for t1 in range(1, limit + 1):
        t2 = alpha * t1
        if t2 > 0.5 and abs(t2 - round(t2)) < 1e-9:
            return t1
    raise ValueError(
        f"alpha must be k/T1 for integers k >= 1 and T1 <= {limit}, so that alpha*T1 "
        f"is a positive integer; got alpha={alpha}"
    )


def build_bc_fixed(
    t1: int,
    realization: ChannelRealization,
    alpha: float,
    theta1: np.ndarray | None = None,
    theta2: np.ndarray | None = None,
    psi1: np.ndarray | None = None,
) -> LinearScheme:
    """Four-phase broadcast scheme on the fixed (strong, weak) topology.

    Phase 1 (T1 slots): artificial noise.  Phase 2 (T1 slots): receiver-1
    symbols plus a known mixing of the phase-1 receiver-1 observations.
    Phase 3 (T2 = alpha*T1 slots): receiver-2 symbols plus a mixing of the
    phase-1 receiver-2 observations.  Phase 4 (T1 slots): common symbols
    carrying the XOR of the two quantized overheard side-information
    streams, with a fresh receiver-1 layer at power offset rho**(-alpha).

    The mixing matrices theta1 (2*T1, T1), theta2 (2*T2, T1) and psi1
    (T1, T2) are known at all nodes; identity-padded defaults are used when
    not supplied, and decode rank is validated at build time.
    """
    t2f = alpha * t1
    t2 = int(round(t2f))
    if t2 < 1 or abs(t2f - t2) > 1e-9:
        raise ValueError(f"alpha*T1 must be a positive integer, got {t2f}")
    n = 3 * t1 + t2
    _require(realization, n, [STATE_1A] * n)

    if theta1 is None:
        theta1 = np.zeros((2 * t1, t1), dtype=np.complex128)
        for t in range(t1):
            theta1[2 * t, t] = 1.0
    if theta2 is None:
        theta2 = np.zeros((2 * t2, t1), dtype=np.complex128)
        for t in range(t2):
            theta2[2 * t, t] = 1.0
    if psi1 is None:
        psi1 = np.zeros((t1, t2), dtype=np.complex128)
        psi1[:t2, :t2] = np.eye(t2)
    theta1 = np.asarray(theta1, dtype=np.complex128)
    theta2 = np.asarray(theta2, dtype=np.complex128)
    psi1 = np.asarray(psi1, dtype=np.complex128)
    if theta1.shape != (2 * t1, t1) or theta2.shape != (2 * t2, t1):
        raise ValueError("theta matrix dimensions do not match the phase lengths")
    if psi1.shape != (t1, t2) or np.linalg.matrix_rank(psi1) < t2:
        raise ValueError("psi1 must be (T1, T2) with full column rank")

    groups = (
        SymbolGroup("v", 2 * t1, 0.0, "rx1"),
        SymbolGroup("w", 2 * t2, 0.0, "rx2"),
        SymbolGroup("v_low", t1, -alpha, "rx1"),
        SymbolGroup("u", 2 * t1, 0.0, "noise"),
        SymbolGroup("c", t1, 0.0, "common"),
    )

    # Phase-1 receiver observations as coefficient rows over u.
    y1_rows = np.zeros((t1, 2 * t1), dtype=np.complex128)
    z1_rows = np.zeros((t1, 2 * t1), dtype=np.complex128)
    for t in range(t1):
        y1_rows[t, 2 * t : 2 * t + 2] = realization.h[t]
        z1_rows[t, 2 * t : 2 * t + 2] = realization.g[t]

    slot_maps = []
    for t in range(t1):  # phase 1
        m = np.zeros((2, 2 * t1), dtype=np.complex128)
        m[:, 2 * t : 2 * t + 2] = np.eye(2)
        slot_maps.append({"u": m})
    theta1_y1 = theta1 @ y1_rows  # (2*T1, 2*T1) over u
    for t in range(t1):  # phase 2
        mv = np.zeros((2, 2 * t1), dtype=np.complex128)
        mv[:, 2 * t : 2 * t + 2] = np.eye(2)
        slot_maps.append({"v": mv, "u": theta1_y1[2 * t : 2 * t + 2, :]})
    theta2_z1 = theta2 @ z1_rows  # (2*T2, 2*T1) over u
    for t in range(t2):  # phase 3
        mw = np.zeros((2, 2 * t2), dtype=np.complex128)
        mw[:, 2 * t : 2 * t + 2] = np.eye(2)
        slot_maps.append({"w": mw, "u": theta2_z1[2 * t : 2 * t + 2, :]})
    for t in range(t1):  # phase 4
        mc = np.zeros((2, t1), dtype=np.complex128)
        mc[0, t] = 1.0
        ml = np.zeros((2, t1), dtype=np.complex128)
        ml[0, t] = 1.0
        slot_maps.append({"c": mc, "v_low": ml})
    slot_maps = tuple(slot_maps)
    norms = _normalize(slot_maps)

    # Overheard side information: receiver 2's phase-2 outputs go to
    # receiver 1, receiver 1's phase-3 outputs go to receiver 2.
    side_channels = (
        SideChannel(1, "z2_hat", alpha, tuple(range(t1, 2 * t1))),
        SideChannel(2, "y3_hat", 1.0, tuple(range(2 * t1, 2 * t1 + t2))),
    )

    # Per-slot decode systems must be invertible.
    for t in range(t1):
        m = np.vstack([realization.h[t1 + t], realization.g[t1 + t]])
        if abs(np.linalg.det(m)) < 1e-9:
            raise ValueError(f"phase-2 slot {t}: decode matrix is singular")
    for t in range(t2):
        m = np.vstack([realization.g[2 * t1 + t], realization.h[2 * t1 + t]])
        if abs(np.linalg.det(m)) < 1e-9:
            raise ValueError(f"phase-3 slot {t}: decode matrix is singular")

    def decoder(scheme, y, z, side, layers, rho):
        real = scheme.realization
        nrm = scheme.slot_norms
        sr, sra = math.sqrt(rho), math.sqrt(rho**alpha)
        # Receiver 1.
        y1 = np.array([y[t] / sr * nrm[t] for t in range(t1)])  # h_t.u_t
        c_true = layers["c"]
        v = np.zeros(2 * t1, dtype=np.complex128)
        z2_hat = side["z2_hat"]  # exact side information
        mix = theta1 @ y1
        for t in range(t1):
            hrow = real.h[t1 + t]
            grow = real.g[t1 + t]
            eq_h = y[t1 + t] / sr * nrm[t1 + t] - hrow @ mix[2 * t : 2 * t + 2]
            eq_g = z2_hat[t] * nrm[t1 + t] - grow @ mix[2 * t : 2 * t + 2]
            sol = np.linalg.solve(np.vstack([hrow, grow]), np.array([eq_h, eq_g]))
            v[2 * t : 2 * t + 2] = sol
        v_low = np.zeros(t1, dtype=np.complex128)
        for t in range(t1):
            slot = 2 * t1 + t2 + t
            h41 = real.h[slot][0]
            if abs(h41) < 1e-12:
                raise DecodeError("phase-4 antenna path lost at receiver 1")
            resid = y[slot] / sr * nrm[slot] / h41 - c_true[t]
            v_low[t] = resid * math.sqrt(rho**alpha)
        # Receiver 2.
        z1 = np.array([z[t] / sra * nrm[t] for t in range(t1)])  # g_t.u_t
        w = np.zeros(2 * t2, dtype=np.complex128)
        y3_hat = side["y3_hat"]
        mix2 = theta2 @ z1
        for t in range(t2):
            grow = real.g[2 * t1 + t]
            hrow = real.h[2 * t1 + t]
            eq_g = z[2 * t1 + t] / sra * nrm[2 * t1 + t] - grow @ mix2[2 * t : 2 * t + 2]
            eq_h = y3_hat[t] * nrm[2 * t1 + t] - hrow @ mix2[2 * t : 2 * t + 2]
            sol = np.linalg.solve(np.vstack([grow, hrow]), np.array([eq_g, eq_h]))
            w[2 * t : 2 * t + 2] = sol
        return {"v": v, "v_low": v_low, "w": w}

    return LinearScheme(
        name="bc-fixed",
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        slot_norms=norms,
        side_channels=side_channels,
        keys={1: {"u": y1_rows}, 2: {"u": z1_rows}},
        decode_order={1: ("v", "v_low"), 2: ("w",)},
        ledger={
            "v": (1 + alpha) * t1,
            "v_low": (1 - alpha) * t1,
            "w": (1 + alpha) * t2,
        },
        decoder=decoder,
        meta={
            "decode_rho": max(realization.rho, 1e8),
            "t1": t1,
            "t2": t2,
            "theta1": theta1,
            "theta2": theta2,
            "psi1": psi1,
            "granted_layers": ("c",),
        },
    )


def build_sym_alt(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Four-slot scheme alternating (1, alpha) then (alpha, 1).

    Slots 1-2 run the noise-injection phases for receiver 1; slot 3 sends
    receiver-2 symbols over the now-strong receiver-2 link with the learned
    receiver-2 noise observation on antenna 1; slot 4 multicasts the
    quantized sum of the two overheard side-information signals together
    with a fresh receiver-2 layer at power offset rho**(-alpha).
    """
    _require(realization, 4, [STATE_1A, STATE_1A, STATE_A1, STATE_A1])
    h1, g1 = realization.h[0], realization.g[0]
    h2, g2 = realization.h[1], realization.g[1]
    h3, g3 = realization.h[2], realization.g[2]

    groups = (
        SymbolGroup("v", 2, 0.0, "rx1"),
        SymbolGroup("w", 2, 0.0, "rx2"),
        SymbolGroup("w_low", 1, -alpha, "rx2"),
        SymbolGroup("u", 2, 0.0, "noise"),
        SymbolGroup("c", 1, 0.0, "common"),
    )
    one = np.ones((2, 1), dtype=np.complex128)
    one[1, 0] = 0.0
    slot_maps = (
        {"u": np.eye(2, dtype=np.complex128)},
        {"v": np.eye(2, dtype=np.complex128), "u": _antenna1(h1, 2)},
        {"w": np.eye(2, dtype=np.complex128), "u": _antenna1(g1, 2)},
        {"c": one.copy(), "w_low": one.copy()},
    )
    norms = _normalize(slot_maps)

    side_channels = (
        SideChannel(1, "z2_hat", alpha, (1,)),
        SideChannel(2, "y3_hat", alpha, (2,)),
    )

    def decoder(scheme, y, z, side, layers, rho):
        real = scheme.realization
        nrm = scheme.slot_norms
        sr, sra = math.sqrt(rho), math.sqrt(rho**alpha)
        k1 = y[0] / sr * nrm[0]  # h1.u
        k2 = z[0] / sra * nrm[0]  # g1.u
        # Receiver 1: slot-2 equation plus exact digitized side information.
        eq_h = y[1] / sr * nrm[1] - h2[0] * k1
        eq_g = side["z2_hat"][0] * nrm[1] - g2[0] * k1
        m1 = np.vstack([h2, g2])
        # Receiver 2: slot-3 equation plus the mirrored side information.
        eq_g2 = z[2] / sr * nrm[2] - g3[0] * k2
        eq_h2 = side["y3_hat"][0] * nrm[2] - h3[0] * k2
        m2 = np.vstack([g3, h3])
        if abs(np.linalg.det(m1)) < 1e-9 or abs(np.linalg.det(m2)) < 1e-9:
            raise DecodeError("singular decode matrix")
        v = np.linalg.solve(m1, np.array([eq_h, eq_g]))
        w = np.linalg.solve(m2, np.array([eq_g2, eq_h2]))
        g41 = real.g[3][0]
        if abs(g41) < 1e-12:
            raise DecodeError("slot-4 antenna path lost at receiver 2")
        w_low = (z[3] / sr * nrm[3] / g41 - layers["c"][0]) * sra
        return {"v": v, "w": w, "w_low": np.array([w_low])}

    return LinearScheme(
        name="sym-alt",
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        slot_norms=norms,
        side_channels=side_channels,
        keys={1: {"u": _row(h1, 2)}, 2: {"u": _row(g1, 2)}},
        decode_order={1: ("v",), 2: ("w", "w_low")},
        ledger={"v": 1.0 + alpha, "w": 1.0 + alpha, "w_low": 1.0 - alpha},
        decoder=decoder,
        meta={"decode_rho": max(realization.rho, 1e8), "granted_layers": ("c",)},
    )


def build_gdof_no_secrecy(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Three-slot scheme without secrecy constraints on integer channels.

    Slot 1: a lattice pair for receiver 1 plus a fresh layer at power offset
    rho**(-alpha); slot 2: a lattice pair for receiver 2 plus another fresh
    layer; slot 3: the combination g1.v + h2.w (itself a lattice point on
    integer channels) plus a third fresh layer.  Each receiver reconstructs
    its visible lattice combinations by nearest-point decoding, peels the
    low-power layers, and inverts a 2x2 integer system.
    """
    from .lattice import LatticeConfig

    _require(realization, 3, [STATE_1A] * 3)
    if realization.mode != "integer":
        raise ValueError("the no-secrecy scheme requires an integer realization")
    h1, g1 = realization.h[0], realization.g[0]
    h2, g2 = realization.h[1], realization.g[1]

    config = LatticeConfig()
    groups = (
        SymbolGroup("v", 2, 0.0, "rx1", lattice=True),
        SymbolGroup("w", 2, 0.0, "rx2", lattice=True),
        SymbolGroup("v_low", 3, -alpha, "rx1"),
    )

    def _low(col: int) -> np.ndarray:
        m = np.zeros((2, 3), dtype=np.complex128)
        m[0, col] = 1.0
        return m

    slot_maps = (
        {"v": np.eye(2, dtype=np.complex128), "v_low": _low(0)},
        {"w": np.eye(2, dtype=np.complex128), "v_low": _low(1)},
        {"v": _antenna1(g1, 2), "w": _antenna1(h2, 2), "v_low": _low(2)},
    )
    norms = _normalize(slot_maps)

    def decoder(scheme, y, z, side, layers, rho):
        from .lattice import nearest_point

        real = scheme.realization
        nrm = scheme.slot_norms
        sr, sra = math.sqrt(rho), math.sqrt(rho**alpha)
        off = rho ** (-alpha / 2.0)
        _check_lattice_margin(off, config)
        # Receiver 1: three nearest-point decodes, peel the fresh layers.
        y0 = y[0] / sr * nrm[0]
        k_h1v = nearest_point(y0, config)
        v3 = (y0 - k_h1v) / h1[0] / off
        y1 = y[1] / sr * nrm[1]
        k_h2w = nearest_point(y1, config)
        v4 = (y1 - k_h2w) / h2[0] / off
        h31 = real.h[2][0]
        g31 = real.g[2][0]
        if abs(h31) < 1e-12 or abs(g31) < 1e-12:
            raise DecodeError("slot-3 antenna path lost")
        y2 = y[2] / sr * nrm[2] / h31
        k_comb = nearest_point(y2, config)
        v5 = (y2 - k_comb) / off
        k_g1v = k_comb - k_h2w
        v = np.linalg.solve(np.vstack([h1, g1]), np.array([k_h1v, k_g1v])) / config.scale
        # Receiver 2: mirrored decode of the other lattice pair.
        z0 = z[0] / sra * nrm[0]
        k_g1v2 = nearest_point(z0, config)
        z1 = z[1] / sra * nrm[1]
        k_g2w = nearest_point(z1, config)
        z2 = z[2] / sra * nrm[2] / g31
        k_comb2 = nearest_point(z2, config)
        k_h2w2 = k_comb2 - k_g1v2
        w = np.linalg.solve(np.vstack([g2, h2]), np.array([k_g2w, k_h2w2])) / config.scale
        return {
            "v": np.round(np.real(v)).astype(int),
            "w": np.round(np.real(w)).astype(int),
            "v_low": np.array([v3, v4, v5]),
        }

    return LinearScheme(
        name="gdof",
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        slot_norms=norms,
        decode_order={1: ("v", "v_low"), 2: ("w",)},
        ledger={"v": 2.0 * alpha, "v_low": 3.0 * (1 - alpha), "w": 2.0 * alpha},
        decoder=decoder,
        meta={
            "decode_rho": _lattice_decode_rho(realization.rho, alpha, config),
            "lattice": config,
        },
    )


def _check_lattice_margin(offset_amplitude: float, config) -> None:
    """Low-power layers must stay below half the lattice spacing."""
    margin = 3.0 * GAUSS_CLIP * offset_amplitude  # |channel coefficient| <= 3
    if margin >= config.scale / 2.0:
        raise DecodeError(
            f"residual layer amplitude {margin:.3g} exceeds half the lattice "
            f"spacing {config.scale / 2.0:.3g}; increase rho"
        )


def _lattice_decode_rho(rho: float, alpha: float, config) -> float:
    """SNR at which every low-power layer sits safely below half the spacing."""
    worst = 2.0 * 3.0 * GAUSS_CLIP / config.scale
    need = worst ** (2.0 / max(alpha, 1e-9))
    return max(rho, 10.0 * need, 1e8)


# ---------------------------------------------------------------------------
# Noiseless simulation and decode verification.
# ---------------------------------------------------------------------------


def _draw_symbols(scheme: LinearScheme, rng: np.random.Generator) -> dict:
    """Stripped symbol draws: truncated CN(0,1) for Gaussian groups, scaled
    centered integers for lattice groups."""
    out = {}
    for g in scheme.groups:
        if g.lattice:
            config = scheme.meta["lattice"]
            ints = rng.integers(0, config.p, size=g.size)
            out[g.name] = config.scale * (ints - (config.p - 1) // 2).astype(float)
            out[f"{g.name}_ints"] = (ints - (config.p - 1) // 2).astype(int)
        else:
            vals = np.empty(g.size, dtype=np.complex128)
            for i in range(g.size):
                while True:
                    s = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
                    if abs(s) <= GAUSS_CLIP:
                        vals[i] = s
                        break
            out[g.name] = vals
    return out


def simulate_noiseless(scheme: LinearScheme, rho: float, seed: int = 0):
    """Draw symbols and run the block through the channel with noise zeroed.

    Returns (symbols, y, z, side_values) where side_values holds the exact
    (unquantized) side-information content per channel label: the other
    receiver's normalized outputs in the channel's slots.
    """
    rng = np.random.default_rng(seed)
    symbols = _draw_symbols(scheme, rng)
    real = scheme.realization
    phys = {
        g.name: np.asarray(symbols[g.name], dtype=np.complex128) * rho ** (g.exponent / 2.0)
        for g in scheme.groups
    }
    y = np.zeros(real.n, dtype=np.complex128)
    z = np.zeros(real.n, dtype=np.complex128)
    xs = []
    for t in range(real.n):
        x = np.zeros(2, dtype=np.complex128)
        for name, m in scheme.slot_maps[t].items():
            x += m @ phys[name]
        x /= scheme.slot_norms[t]
        xs.append(x)
        a1, a2 = real.states[t].exponents(scheme.alpha)
        y[t] = math.sqrt(rho**a1) * (real.h[t] @ x)
        z[t] = math.sqrt(rho**a2) * (real.g[t] @ x)
    side = {}
    for ch in scheme.side_channels:
        other = real.g if ch.receiver == 1 else real.h
        side[ch.label] = np.array([other[t] @ xs[t] for t in ch.slots])
    return symbols, y, z, side


def noiseless_decode_check(scheme: LinearScheme, seed: int = 0, rel_tol: float = 1e-6) -> bool:
    """Run the declared decode plan with zero receiver noise and exact side
    information; True iff every intended symbol is recovered.

    Gaussian symbols must match to ``rel_tol`` relative error; lattice
    symbols must match exactly.
    """
    rho = float(scheme.meta.get("decode_rho", scheme.realization.rho))
    symbols, y, z, side = simulate_noiseless(scheme, rho, seed)
    layers = {}
    for name in scheme.meta.get("granted_layers", ()):
        layers[name] = np.asarray(symbols[name], dtype=np.complex128)
    try:
        recovered = scheme.decoder(scheme, y, z, side, layers, rho)
    except (DecodeError, np.linalg.LinAlgError):
        return False
    for name, rec in recovered.items():
        group = scheme.group(name)
        if group.lattice:
            truth = symbols[f"{name}_ints"]
            if not np.array_equal(np.asarray(rec, dtype=int), truth):
                return False
        else:
            truth = np.asarray(symbols[name], dtype=np.complex128)
            rec = np.asarray(rec, dtype=np.complex128)
            scale = max(float(np.max(np.abs(truth))), 1e-12)
            if float(np.max(np.abs(rec - truth))) > rel_tol * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# Audits.
# ---------------------------------------------------------------------------


def audit_causality(kind: str, alpha: float, seed: int = 0) -> bool:
    """Check the delayed-CSIT contract functionally: the slot-t input map may
    depend only on channel rows from slots before t.

    For every t, rows at slots >= t are replaced by fresh draws and the
    scheme is rebuilt; the maps for slots 0..t must be unchanged.
    """
    base_real = _draw_for(kind, alpha, seed=seed)
    build = SCHEMES[kind].build
    base = build(base_real, alpha)
    n = base_real.n
    for t in range(n):
        alt = _draw_for(kind, alpha, seed=seed + 7919)
        h = base_real.h.copy()
        g = base_real.g.copy()
        h[t:] = alt.h[t:]
        g[t:] = alt.g[t:]
        mutated = ChannelRealization(
            n=n, h=h, g=g, states=base_real.states, rho=base_real.rho, mode=base_real.mode
        )
        rebuilt = build(mutated, alpha)
        for s in range(t + 1):
            b, r = base.slot_maps[s], rebuilt.slot_maps[s]
            if set(b) != set(r):
                return False
            for name in b:
                if not np.allclose(b[name], r[name], atol=1e-12):
                    return False
    return True


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the package knows about one scheme kind."""

    build: Callable  # (realization, alpha) -> LinearScheme
    states: Callable  # alpha -> per-slot TopologyState tuple
    mode: str  # channel draw mode, "complex" or "integer"
    secure: bool  # confidential symbols must not leak
    target: Callable | None  # alpha -> per-slot (d1, d2) in alpha's type; None: canary
    inner: str | None  # experiments.REGION_BUILDERS key; target is one of its vertices
    profile: str  # TopologyProfile.named label; a secure target lies in its bc_outer
    domain: Callable  # alpha -> None; raises ValueError naming the valid alphas


def _ratio(alpha, num: int, den: int):
    """num/den in alpha's number type (exact for a Fraction alpha)."""
    return alpha**0 * num / den


def _lattice():
    """The lattice module, looked up at call time: it imports this one."""
    from . import lattice

    return lattice


def _unit_interval(alpha) -> None:
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _t1_domain(alpha) -> None:
    _unit_interval(alpha)
    smallest_t1(alpha)


def _lattice_domain(alpha) -> None:
    """Alphas whose lattice decode SNR is a finite float; the limit is found
    by bisecting ``_lattice_decode_rho`` itself."""
    _unit_interval(alpha)
    config = _lattice().LatticeConfig()

    def finite(a) -> bool:
        try:
            return math.isfinite(_lattice_decode_rho(1e8, a, config))
        except OverflowError:
            return False

    if not finite(alpha):
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if finite(mid) else (mid, hi)
        raise ValueError(
            f"alpha must exceed {lo:.4g} for a finite lattice decode SNR, got {alpha}"
        )


def _bc_fixed_states(alpha) -> tuple:
    t1 = smallest_t1(alpha)
    return (STATE_1A,) * (3 * t1 + int(round(alpha * t1)))


_SYM_STATES = (STATE_1A, STATE_1A, STATE_A1, STATE_A1)

SCHEMES = {
    "wiretap-gaussian": SchemeSpec(
        build=build_wiretap_gaussian,
        states=lambda a: (STATE_1A,) * 3,
        mode="complex",
        secure=True,
        target=lambda a: (_ratio(a, 2, 3), 0 * a),
        inner="yang",
        profile="1a",
        domain=_unit_interval,
    ),
    "wiretap-gaussian-a1": SchemeSpec(
        build=lambda r, a: build_wiretap_gaussian(r, a, state=STATE_A1),
        states=lambda a: (STATE_A1,) * 3,
        mode="complex",
        secure=True,
        target=lambda a: (2 * a / 3, 0 * a),
        inner=None,
        profile="a1",
        domain=_unit_interval,
    ),
    "yang": SchemeSpec(
        build=build_yang_baseline,
        states=lambda a: (STATE_1A,) * 4,
        mode="complex",
        secure=True,
        target=lambda a: (_ratio(a, 1, 2), a / 2),
        inner="yang",
        profile="1a",
        domain=_unit_interval,
    ),
    "bc-fixed": SchemeSpec(
        build=lambda r, a: build_bc_fixed(smallest_t1(a), r, a),
        states=_bc_fixed_states,
        mode="complex",
        secure=True,
        target=lambda a: (2 / (3 + a), a * (1 + a) / (3 + a)),
        inner="prop2",
        profile="1a",
        domain=_t1_domain,
    ),
    "sym-alt": SchemeSpec(
        build=build_sym_alt,
        states=lambda a: _SYM_STATES,
        mode="complex",
        secure=True,
        target=lambda a: ((1 + a) / 4, _ratio(a, 1, 2)),
        inner="sym-alt",
        profile="sym",
        domain=_unit_interval,
    ),
    "wiretap-lattice": SchemeSpec(
        build=lambda r, a: _lattice().build_wiretap_lattice(r, a),
        states=lambda a: (STATE_1A,) * 3,
        mode="integer",
        secure=True,
        target=lambda a: (1 - a / 3, 0 * a),
        inner=None,
        profile="1a",
        domain=_lattice_domain,
    ),
    "int-sym-alt": SchemeSpec(
        build=lambda r, a: _lattice().build_int_sym_alt(r, a),
        states=lambda a: _SYM_STATES,
        mode="integer",
        secure=True,
        target=lambda a: (_ratio(a, 1, 2), _ratio(a, 1, 2)),
        inner="int-sym-alt",
        profile="sym",
        domain=_lattice_domain,
    ),
    "gdof": SchemeSpec(
        build=build_gdof_no_secrecy,
        states=lambda a: (STATE_1A,) * 3,
        mode="integer",
        secure=False,
        target=lambda a: (1 - a / 3, 2 * a / 3),
        inner="gdof",
        profile="1a",
        domain=_lattice_domain,
    ),
    "wiretap-nonoise": SchemeSpec(
        build=build_no_noise_canary,
        states=lambda a: (STATE_1A,),
        mode="complex",
        secure=False,
        target=None,
        inner=None,
        profile="1a",
        domain=_unit_interval,
    ),
}

SCHEME_KINDS = tuple(SCHEMES)
SECURE_SCHEMES = tuple(kind for kind, spec in SCHEMES.items() if spec.secure)


def _draw_for(kind: str, alpha: float, seed) -> ChannelRealization:
    spec = SCHEMES[kind]
    states = spec.states(alpha)
    if isinstance(seed, np.random.SeedSequence):
        seed = int(seed.generate_state(1)[0])
    return draw_channels(len(states), states, rho=1e8, seed=seed, mode=spec.mode)


def build_scheme(kind: str, alpha: float, seed) -> LinearScheme:
    """Draw a fresh realization matching the scheme's needs and build it."""
    return SCHEMES[kind].build(_draw_for(kind, alpha, seed), alpha)

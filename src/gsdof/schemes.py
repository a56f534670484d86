"""Transmission schemes as structured linear maps over a channel realization.

A scheme maps confidential symbols, artificial noise, and common (digitized
side-information) symbols to per-slot channel inputs.  Each symbol group has
a power exponent: its variance scales as rho**exponent relative to the unit
slot budget.  Per-slot inputs are normalized by an SNR-independent constant
so the expected transmit power never exceeds one.

Every link runs at rho**1 or rho**alpha, so every power exponent,
side-channel gain and claimed rate is p + q*alpha for small integers p and
q.  A scheme declares each as the int pair (p, q), and the pairs reach the
MI engine as pairs: a float p + q*alpha is formed only where it is used.
A kind's slot maps, norms and keys therefore depend on alpha only through
its slot layout: one build serves every alpha of that layout.

A builder chooses only the symbol groups, slot maps, side information, keys
and rates.  ``LinearScheme`` derives the rest from them, once per scheme:
the slot norms, the ledger at its alpha, each receiver's decode order (its
own groups), the common layers that decoding is granted, and the columns
of its lattice groups.  The lattice is ``lattice.P``, ``lattice.SCALE`` and
``lattice.CENTER``.  The decode check takes its SNR when it decodes
(``noiseless_decode_check``).

One linear observation model per receiver (physical slot outputs plus
digitized side channels with unit-variance quantization noise) serves both
exact rate and leakage accounting, as a linear-Gaussian channel, and
decoding: ``linear_decode`` reads each receiver's linear system off it and
inverts for the receiver's own groups, and ``noiseless_decode_check`` runs
it on simulated noiseless transmissions with exact side information.  It is
the one decoder of every scheme: for the lattice schemes it first peels,
by nearest-point decoding, the rows whose unit-power content is a lattice
point, after which what is left is linear.

Accounting, simulation and decoding take a scheme of one trial or a
trial-batched one (``build_scheme`` with a list of seeds) and run the same
code for both; a batch is decoded in one call, with one symbol seed per trial.

Reliability accounting conditions each receiver on its decoded noise
functionals (for example h1.u from the first slot) and on the common
digitized layer.  The integer-channel variants realize those functionals
exactly via lattice decoding; the layered common symbols' decodability is
certified separately by their own mutual information.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import topology
from .gaussian_mi import conditional_mi
from .topology import (
    STATE_1A,
    STATE_A1,
    ChannelRealization,
    TopologyState,
    _full_rank,
    draw_channels,
    seed_generators,
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
    "group_accounting",
    "simulate_noiseless",
    "linear_decode",
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
DECODE_RANK_TOL = 1e-9  # relative singular-value floor of linear_decode's rank tests
DECODE_REL_TOL = 1e-6  # largest relative Gaussian symbol error of a passing decode
POWER_AUDIT_RHOS = (1e6, 1e12)  # SNRs at which max_slot_power instantiates the variances
T1_MAX = 20  # longest phase length T1 that smallest_t1 tries
DECODE_RHO = 1e8  # SNR of a Gaussian scheme's decode check; a lattice scheme's floor


class DecodeError(RuntimeError):
    """Raised when a scheme cannot be decoded (rank or margin failure)."""


_OWNERS = ("rx1", "rx2", "noise", "common")


def _at(pair, alpha):
    """``p + q * alpha`` of an exponent or rate pair ``(p, q)``.  It gives
    the bits of the floats 1.0, alpha and -alpha for (1, 0), (0, 1) and
    (0, -1), except that (0, -1) at alpha = 0 gives 0.0, not -0.0."""
    p, q = pair
    return p + q * alpha


def _ledger(rates: dict, alpha) -> dict:
    """Each group's claimed rate at ``alpha``, in log2(rho) multiples per block."""
    return {name: float(_at(rate, alpha)) for name, rate in rates.items()}


@dataclass(frozen=True)
class SymbolGroup:
    """A group of symbols of one owner.  ``exponent`` is the int pair (p, q)
    of the symbol variance rho**(p + q*alpha), which must not exceed one at
    any alpha in [0, 1]: p <= 0 and p + q <= 0."""

    name: str
    size: int
    exponent: tuple[int, int]
    owner: str  # "rx1" | "rx2" | "noise" | "common"
    lattice: bool = False

    def __post_init__(self) -> None:
        e = self.exponent
        if type(e) is not tuple or len(e) != 2 or {type(x) for x in e} != {int}:
            raise ValueError(f"a power exponent is an int pair (p, q), got {e!r}")
        if e[0] > 0 or e[0] + e[1] > 0:
            raise ValueError(f"symbol power exponent {e} exceeds 0 on alpha in [0, 1]")
        if self.owner not in _OWNERS:
            raise ValueError(f"unknown owner {self.owner!r}")


@dataclass(frozen=True)
class SideChannel:
    """Digitized side information delivered to one receiver: what the other
    receiver overheard in the listed slots.

    The content of slot ``t`` is the other receiver's noiseless slot output
    with its link gain stripped (its channel row applied to the normalized
    slot input).  Observation model: rho**(g/2) * content + unit noise,
    where g = p + q*alpha of the int pair ``gain_exponent`` and the unit
    noise stands for the bounded quantization distortion.
    """

    receiver: int  # the receiver the side information is delivered to
    label: str
    gain_exponent: tuple[int, int]
    slots: tuple[int, ...]  # slots whose other-receiver outputs are delivered


@dataclass(frozen=True)
class LinearScheme:
    """A scheme as its builder chooses it: symbol groups, per-slot maps,
    delivered side information, keys and the claimed ``rates``, each
    group's rate per block as an int pair (p, q), p + q*alpha multiples of
    log2(rho).

    Everything else follows from those and is derived once, in
    ``__post_init__`` (so ``dataclasses.replace`` derives it again, as
    ``replace(scheme, alpha=a)`` gives the scheme at another alpha of its
    layout): ``slot_norms``, the per-slot Frobenius norms of the maps;
    ``ledger``, the rates as floats at ``alpha``; ``decode_order``, each
    receiver's own groups in declaration order, for the receivers that
    have any; ``granted_layers``, the common groups, which decoding is
    given; and the column layout that every receiver's observation
    matrix shares: ``columns``, each group's column slice in declaration
    order; ``col_exp``, each column's exponent pair, (columns, 2) ints;
    ``masks``, each group's columns as a boolean mask; ``owner_masks``, the
    columns of each owner; and ``lattice_mask``, the columns of the lattice
    groups, none in a Gaussian scheme."""

    alpha: float
    realization: ChannelRealization
    groups: tuple[SymbolGroup, ...]
    slot_maps: tuple  # per slot: dict group name -> ([trials,] 2, size) array
    side_channels: tuple[SideChannel, ...] = ()
    keys: dict = field(default_factory=dict)  # receiver -> {group: ([trials,] k, size)}
    rates: dict = field(default_factory=dict)  # group -> (p, q) log2(rho) multiples per block
    ledger: dict = field(init=False)  # group -> float rate at alpha
    slot_norms: tuple = field(init=False)  # per slot: a float, or a (trials,) array
    decode_order: dict = field(init=False)  # receiver -> own groups
    granted_layers: tuple = field(init=False)
    columns: dict = field(init=False)  # group name -> column slice
    col_exp: np.ndarray = field(init=False)  # per column: its group's exponent pair
    masks: dict = field(init=False)  # group name -> column mask
    owner_masks: dict = field(init=False)  # owner -> column mask
    lattice_mask: np.ndarray = field(init=False)  # columns of the lattice groups

    def __post_init__(self) -> None:
        derive = functools.partial(object.__setattr__, self)
        groups = self.groups
        derive("slot_norms", _normalize(self.slot_maps, self.realization))
        derive("ledger", _ledger(self.rates, self.alpha))
        owned = {r: tuple(g.name for g in groups if g.owner == _own_owner(r)) for r in (1, 2)}
        derive("decode_order", {r: names for r, names in owned.items() if names})
        derive("granted_layers", tuple(g.name for g in groups if g.owner == "common"))
        sizes = [g.size for g in groups]
        ids = np.repeat(np.arange(len(groups)), sizes)  # each column's group
        ends = itertools.accumulate(sizes)
        derive("columns", {g.name: slice(e - g.size, e) for g, e in zip(groups, ends)})
        derive("col_exp", np.repeat(np.array([g.exponent for g in groups]), sizes, axis=0))

        def mask(keep) -> np.ndarray:
            return np.array([bool(keep(g)) for g in groups])[ids]

        derive("masks", {g.name: ids == i for i, g in enumerate(groups)})
        derive("owner_masks", {o: mask(lambda g: g.owner == o) for o in _OWNERS})
        derive("lattice_mask", mask(lambda g: g.lattice))

    def group(self, name: str) -> SymbolGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)


def _normalize(slot_maps, realization: ChannelRealization) -> tuple:
    """Per-slot Frobenius norms of the slot maps (1.0 for an empty slot):
    floats for one trial, (trials,) arrays for a batched realization.  Each
    map is summed over its last two axes flattened, so a batched trial sums
    exactly as its one-trial build does."""
    lead = realization.h.shape[:-2]
    norms = []
    for maps in slot_maps:
        total = np.zeros(lead)
        for m in maps.values():
            total = total + (np.abs(m) ** 2).reshape(m.shape[:-2] + (-1,)).sum(-1)
        norm = np.where(total > 0, np.sqrt(total), 1.0)
        norms.append(norm if lead else float(norm))
    return tuple(norms)


def _one_trial(scheme: LinearScheme, what: str) -> None:
    lead = scheme.realization.h.shape[:-2]
    if lead:
        raise ValueError(
            f"{what} takes a one-trial scheme, got one with a trials axis of "
            f"{lead[0]} trials; build it from one seed"
        )


# ---------------------------------------------------------------------------
# Observation model assembly.
# ---------------------------------------------------------------------------


def _row_plan(scheme: LinearScheme, receiver: int) -> list:
    """``receiver``'s observation rows as (slot, channel, exponent pair):
    one per own slot output (channel "h" at receiver 1, "g" at receiver 2),
    then one per overheard slot output delivered to it as side
    information."""
    real = scheme.realization
    own, other = ("h", "g") if receiver == 1 else ("g", "h")
    plan = [(t, own, state.pairs[receiver - 1]) for t, state in enumerate(real.states)]
    for ch in scheme.side_channels:
        if ch.receiver == receiver:
            plan += [(t, other, ch.gain_exponent) for t in ch.slots]
    return plan


class _ReceiverStructure:
    """Stripped coefficients of one receiver's observations for one scheme,
    of one trial or trial-batched.

    The columns are the scheme's: ``total``, ``col_exp``, ``masks`` and
    ``owner_masks`` are its layout, shared, not copied.  The rows follow
    the row plan (``_row_plan``: each row's slot, its channel, the
    receiver's own or the other receiver's for a delivered side channel,
    and its exponent pair), and ``row_exp`` holds their (rows, 2) pairs.
    ``coef`` (rows, cols) and ``key_coef`` (keys, cols) hold the
    coefficients, with the scheme's trials axis leading for a batch; each
    (slot, group) cell is filled for all trials with one
    ``(..., 1, 2) @ (..., 2, size)`` matmul per row."""

    def __init__(self, scheme: LinearScheme, receiver: int):
        real, columns = scheme.realization, scheme.columns
        self.alpha, self.col_exp, self.masks = scheme.alpha, scheme.col_exp, scheme.masks
        self.owner_masks = scheme.owner_masks
        self.total = pos = len(scheme.col_exp)
        self.plan = plan = _row_plan(scheme, receiver)
        self.row_exp = np.array([e for _, _, e in plan])

        lead = real.h.shape[:-2]
        channels = {"h": real.h[..., None, :], "g": real.g[..., None, :]}
        slot_rows = [[] for _ in scheme.slot_maps]  # per slot: (row, channel vector)
        for i, (t, c, _) in enumerate(plan):
            slot_rows[t].append((i, channels[c][..., t, :, :]))
        coef = np.zeros(lead + (len(plan), pos), dtype=np.complex128)
        for t, (maps, rows) in enumerate(zip(scheme.slot_maps, slot_rows)):
            norm = np.asarray(scheme.slot_norms[t])[..., None, None]
            for name, m in maps.items():
                # One row per product: a product over several rows may round
                # differently, and the sweep CSVs are pinned bit for bit.
                for i, vec in rows:
                    coef[..., i : i + 1, columns[name]] = (vec @ m) / norm

        # Keys must not depend on the SNR, so they may only sit on unit-power
        # groups: conditional_mi needs the key projection to commute with the
        # column scaling, and scaled() needs no SNR axis for them.
        key_map = scheme.keys.get(receiver, {})
        k = next(iter(key_map.values())).shape[-2] if key_map else 0
        key_coef = np.zeros(lead + (k, pos), dtype=np.complex128)
        for name, m in key_map.items():
            exponent = scheme.group(name).exponent
            if exponent != (0, 0):
                raise ValueError(
                    f"key on group {name!r} with power exponent {exponent}: "
                    "keys must sit on unit-power groups"
                )
            key_coef[..., columns[name]] = m
        self.coef, self.key_coef = coef, key_coef

    def exponents(self) -> tuple[np.ndarray, np.ndarray]:
        """The float row and column exponents p + q*alpha at the scheme's
        alpha, for the paths that scale by them directly."""
        a = float(self.alpha)
        return tuple(e[:, 0] + e[:, 1] * a for e in (self.row_exp, self.col_exp))

    def scaled(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """Observation and key matrices at SNR ``rho``, a scalar or an array
        whose shape becomes the batch shape of the observations, after the
        trials axis if there is one.  The keys do not depend on the SNR: they
        get one size-1 axis per SNR axis, which broadcasts.

        This is the dense form, a reference for tests; accounting passes
        ``coef``, ``key_coef`` and the exponents to ``conditional_mi``,
        which never forms it."""
        r = np.asarray(rho, dtype=float)
        lead = self.coef.shape[:-2] + (1,) * r.ndim
        row_exp, col_exp = self.exponents()
        a = self.coef.reshape(lead + self.coef.shape[-2:]) * r[..., None, None] ** (
            (row_exp[:, None] + col_exp[None, :]) / 2.0
        )
        return a, self.key_coef.reshape(lead + self.key_coef.shape[-2:])


def receiver_structure(scheme: LinearScheme, receiver: int) -> _ReceiverStructure:
    """``receiver``'s observation structure for one scheme, of one trial or
    trial-batched."""
    return _ReceiverStructure(scheme, receiver)


def _own_owner(receiver: int) -> str:
    return "rx1" if receiver == 1 else "rx2"


def _other(receiver: int) -> int:
    return 2 if receiver == 1 else 1


def _chains(scheme: LinearScheme, receiver: int) -> tuple:
    """``receiver``'s two chain-rule chains, as (groups in decode order,
    owner whose messages are given): its own groups, given the other
    receiver's messages, then the other receiver's groups, given its own."""
    return (
        (scheme.decode_order.get(receiver, ()), _own_owner(_other(receiver))),
        (scheme.decode_order.get(_other(receiver), ()), _own_owner(receiver)),
    )


def group_accounting(builds, rho) -> list[tuple[dict, dict]]:
    """(reliability, leakage) per group of each build, in order, from one
    ``conditional_mi`` call per exponent width: a build is a (scheme,
    alphas) pair, whose exponent batch is ``alphas`` on the scheme's
    coefficients, such as every alpha of the scheme's slot layout, or
    ``[scheme.alpha]``.

    Each receiver of each build is one job: its rho-free coefficients, keys, row
    and column exponent pairs and ``alphas``, and both chains (``_chains``),
    each step given the chain's owner's messages, the common layer, the
    granted keys and the chain's earlier groups.  The SNR enters only in the
    engine, so a batched scheme is projected and its Gram pieces formed once
    per trial, not once per (trial, SNR).  The jobs of the builds of one
    width form one engine pass (see ``conditional_mi``), so the builds of
    one sweep chunk, which hold the same trials, share their evaluations of
    each (rows, key rows, kept columns) shape.  Each receiver is assembled
    as the engine draws its job, and no frame keeps its structure or its
    job once the engine has gathered its stacks, so each receiver's dense
    matrices are released before the next receiver is assembled, and the
    pass holds one receiver's at a time.  Values have the trials axis, if
    any, then the batch axis, then the shape of ``rho``; entry ``j`` of the
    batch axis equals
    ``accounting_bits(replace(scheme, alpha=alphas[j]), rho)`` bit for bit."""
    widths = {}  # exponent width -> indices of its builds
    for i, (_, alphas) in enumerate(builds):
        widths.setdefault(len(alphas), []).append(i)
    out = [None] * len(builds)

    def receiver_job(scheme, receiver, alphas):
        # A function, not a generator, so that no suspended frame keeps the
        # structure while the next receiver is assembled.
        st = receiver_structure(scheme, receiver)
        targets, givens = [], []
        for order, known_owner in _chains(scheme, receiver):
            given = st.owner_masks[known_owner] | st.owner_masks["common"]
            for name in order:
                targets.append(st.masks[name])
                givens.append(given)
                given = given | st.masks[name]
        masks = np.array(targets), np.array(givens)
        return st.coef, st.key_coef, *masks, st.row_exp, st.col_exp, alphas

    for members in widths.values():
        # One job per receiver, assembled as the engine draws it.
        jobs = (receiver_job(builds[i][0], r, builds[i][1]) for i in members for r in (1, 2))
        bits = iter(conditional_mi(jobs, rho=rho))
        for i in members:
            rel, leak = {}, {}
            for receiver in (1, 2):
                steps = iter(next(bits))
                own, overheard = _chains(builds[i][0], receiver)
                rel.update({name: next(steps) for name in own[0]})
                leak.update({name: next(steps) for name in overheard[0]})
            out[i] = (rel, leak)
    return out


def accounting_bits(scheme: LinearScheme, rho) -> tuple[dict, dict]:
    """(reliability, leakage) per group: ``group_accounting`` of one build,
    the scheme's own alpha as a batch of one, whose axis is dropped.

    Reliability is what each receiver decodes of its own groups, in
    ``decode_order``, given the other receiver's message groups, the common
    layer, its granted noise functionals and its own already-decoded
    groups.  Leakage is what the unintended receiver learns of each group,
    given its own messages, the common layer and its granted noise
    functionals (conservative: granting side knowledge can only increase
    the measured leakage).

    ``scheme`` is of one trial or trial-batched; ``rho`` is one SNR or an
    array of SNRs.  Values have the scheme's trials axis, if any, followed
    by the shape of ``rho``: floats for one trial at one SNR, (trials, SNRs)
    arrays for a batched scheme over an SNR grid.
    """
    rho = np.asarray(rho, dtype=float)
    rel, leak = group_accounting([(scheme, [scheme.alpha])], rho)[0]
    return tuple({k: np.take(v, 0, axis=-1 - rho.ndim) for k, v in d.items()} for d in (rel, leak))


def reliability_bits(scheme: LinearScheme, rho) -> dict:
    """Per-group decodable information in bits: ``accounting_bits``'s
    reliability, receiver 1's groups first."""
    return accounting_bits(scheme, rho)[0]


def leakage_bits(scheme: LinearScheme, rho, owner: int) -> dict:
    """Per-group information leaked to the unintended receiver, in bits:
    ``accounting_bits``'s leakage of ``owner``'s groups, in decode order."""
    return {
        name: bits
        for name, bits in accounting_bits(scheme, rho)[1].items()
        if name in scheme.decode_order.get(owner, ())
    }


def max_slot_power(scheme: LinearScheme) -> float:
    """Largest per-slot expected input power with all variances instantiated
    at each SNR of ``POWER_AUDIT_RHOS``."""
    _one_trial(scheme, "max_slot_power")
    worst = 0.0
    for maps, norm in zip(scheme.slot_maps, scheme.slot_norms):
        for rho in POWER_AUDIT_RHOS:
            p = 0.0
            for name, m in maps.items():
                exponent = _at(scheme.group(name).exponent, scheme.alpha)
                p += float(np.sum(np.abs(m) ** 2)) * rho**exponent
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
    Alternating schemes, whose strong-side gain is rho**alpha (the pair
    (0, 1)), instead sum the two same-level signals first and quantize the
    sum once.  Either way receiver 1 reconstructs the
    receiver-2 stream from the common message and its own operand.  Returns
    (max reconstruction error, quantizer error bound, saturation rate).
    """
    _one_trial(scheme, "digitized_side_info_roundtrip")
    if not scheme.side_channels:
        raise ValueError("scheme has no digitized side information")
    alpha = scheme.alpha
    symbols, y, z, side = simulate_noiseless(scheme, rho, seed)
    z2 = side["z2_hat"] * rho ** (alpha / 2.0)  # weak-side stream, level rho**alpha
    strong = scheme.side_channels[1]
    gain = _at(strong.gain_exponent, alpha)
    y3 = side["y3_hat"] * rho ** (gain / 2.0)
    bits_z = math.ceil(alpha * math.log2(rho))

    if strong.gain_exponent == (0, 1):
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
    bits_y = math.ceil(gain * math.log2(rho))
    qz = quantizer_for_power(rho**alpha, bits_z)
    qy = quantizer_for_power(rho**gain, bits_y)
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
#
# A builder takes a realization of one trial or a trial-batched one and runs
# the same code for both: channels are indexed as [..., t, :], maps built
# from them carry the trials axis, and channel-free maps stay unbatched and
# broadcast.  ``linear_decode`` indexes outputs and channels the same way,
# so one call decodes a whole batch.
# ---------------------------------------------------------------------------


def _require(realization: ChannelRealization, states) -> None:
    if realization.n != len(states):
        raise ValueError(f"scheme needs {len(states)} slots, realization has {realization.n}")
    for t, s in enumerate(states):
        if realization.states[t] != s:
            raise ValueError(f"slot {t} must be in state {s.label}")


def _row(vec, size: int, offset: int = 0) -> np.ndarray:
    """(..., 1, size) row with ``vec`` (..., k) placed at ``offset``."""
    out = np.zeros(vec.shape[:-1] + (1, size), dtype=np.complex128)
    out[..., 0, offset : offset + vec.shape[-1]] = vec
    return out


def _antenna1(vec, size: int, offset: int = 0) -> np.ndarray:
    """(..., 2, size) map sending ``vec @ symbols`` on antenna 1 only."""
    out = np.zeros(vec.shape[:-1] + (2, size), dtype=np.complex128)
    out[..., 0, offset : offset + vec.shape[-1]] = vec
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
    _require(realization, [state] * 3)
    h1, g1 = realization.h[..., 0, :], realization.g[..., 0, :]
    g2, g21 = realization.g[..., 1, :], realization.g[..., 1, 0]

    groups = [
        SymbolGroup("v", 2, (0, 0), "rx1"),
        SymbolGroup("u", 2, (0, 0), "noise"),
    ]
    slot0 = {"u": np.eye(2, dtype=np.complex128)}
    slot1 = {"v": np.eye(2, dtype=np.complex128), "u": _antenna1(h1, 2)}
    slot2 = {"v": _antenna1(g2, 2), "u": _antenna1(g21[..., None] * h1, 2)}
    slot_maps = (slot0, slot1, slot2)

    keys = {1: {"u": _row(h1, 2)}, 2: {"u": _row(g1, 2)}}

    return LinearScheme(
        alpha=alpha,
        realization=realization,
        groups=tuple(groups),
        slot_maps=slot_maps,
        keys=keys,
        rates={"v": (2, 0) if state == STATE_1A else (0, 2)},
    )


def build_no_noise_canary(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Deliberately broken scheme: one uncoded confidential symbol, no cover.

    With the artificial noise omitted the unintended receiver sees the
    secret at its full link level, so the leakage slope equals the
    eavesdropper's link exponent.  Used as a regression canary for the
    leakage engine.
    """
    _require(realization, [STATE_1A])

    groups = (SymbolGroup("v", 1, (0, 0), "rx1"),)
    one = np.zeros((2, 1), dtype=np.complex128)
    one[0, 0] = 1.0
    slot_maps = ({"v": one},)

    return LinearScheme(
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        rates={"v": (1, 0)},
    )


def build_yang_baseline(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Four-slot baseline sending two confidential symbols to each receiver.

    Slot 1: noise; slot 2: receiver-1 symbols plus the learned receiver-1
    noise combination; slot 3: receiver-2 symbols plus the learned
    receiver-2 noise combination; slot 4: the sum of the two overheard
    side-information forms, retransmitted on antenna 1.
    """
    _require(realization, [STATE_1A] * 4)
    h1, g1 = realization.h[..., 0, :], realization.g[..., 0, :]
    g2, g21 = realization.g[..., 1, :], realization.g[..., 1, 0]
    h3, h31 = realization.h[..., 2, :], realization.h[..., 2, 0]

    groups = (
        SymbolGroup("v", 2, (0, 0), "rx1"),
        SymbolGroup("w", 2, (0, 0), "rx2"),
        SymbolGroup("u", 2, (0, 0), "noise"),
    )
    slot_maps = (
        {"u": np.eye(2, dtype=np.complex128)},
        {"v": np.eye(2, dtype=np.complex128), "u": _antenna1(h1, 2)},
        {"w": np.eye(2, dtype=np.complex128), "u": _antenna1(g1, 2)},
        {
            "v": _antenna1(g2, 2),
            "w": _antenna1(h3, 2),
            "u": _antenna1(h31[..., None] * g1 + g21[..., None] * h1, 2),
        },
    )

    return LinearScheme(
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        keys={1: {"u": _row(h1, 2)}, 2: {"u": _row(g1, 2)}},
        rates={"v": (2, 0), "w": (0, 2)},
    )


def smallest_t1(alpha: float) -> int:
    """Smallest phase length T1 <= ``T1_MAX`` making alpha*T1 a positive integer."""
    for t1 in range(1, T1_MAX + 1):
        t2 = alpha * t1
        if t2 > 0.5 and abs(t2 - round(t2)) < 1e-9:
            return t1
    raise ValueError(
        f"alpha must be k/T1 for integers k >= 1 and T1 <= {T1_MAX}, so that alpha*T1 "
        f"is a positive integer; got alpha={alpha}"
    )


def _bc_fixed_lengths(alpha) -> tuple[int, int]:
    """bc-fixed's phase lengths (T1, T2): T1 = ``smallest_t1(alpha)`` and
    T2 = alpha*T1, an integer."""
    t1 = smallest_t1(alpha)
    return t1, int(round(alpha * t1))


def build_bc_fixed(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Four-phase broadcast scheme on the fixed (strong, weak) topology.

    Phase 1 (T1 slots): artificial noise.  Phase 2 (T1 slots): receiver-1
    symbols plus a known mixing of the phase-1 receiver-1 observations.
    Phase 3 (T2 = alpha*T1 slots): receiver-2 symbols plus a mixing of the
    phase-1 receiver-2 observations.  Phase 4 (T1 slots): common symbols
    carrying the XOR of the two quantized overheard side-information
    streams, with a fresh receiver-1 layer at power offset rho**(-alpha).

    T1 is ``smallest_t1(alpha)``, which refuses an alpha with no T1.  The
    mixing matrices, known at all nodes, are identity-padded: theta1
    (2*T1, T1) has a one at (2t, t), so slot t of phase 2 puts phase-1
    observation t on antenna 1, and theta2 (2*T2, T1) is its first 2*T2
    rows.  Each phase-2 and phase-3 slot's decode system must pass the
    draw's rank test (``topology._full_rank``) in every trial.
    """
    t1, t2 = _bc_fixed_lengths(alpha)
    _require(realization, [STATE_1A] * (3 * t1 + t2))

    groups = (
        SymbolGroup("v", 2 * t1, (0, 0), "rx1"),
        SymbolGroup("w", 2 * t2, (0, 0), "rx2"),
        SymbolGroup("v_low", t1, (0, -1), "rx1"),
        SymbolGroup("u", 2 * t1, (0, 0), "noise"),
        SymbolGroup("c", t1, (0, 0), "common"),
    )

    # Phase-1 receiver observations as coefficient rows over u.
    lead = realization.h.shape[:-2]
    y1_rows = np.zeros(lead + (t1, 2 * t1), dtype=np.complex128)
    z1_rows = np.zeros(lead + (t1, 2 * t1), dtype=np.complex128)
    for t in range(t1):
        y1_rows[..., t, 2 * t : 2 * t + 2] = realization.h[..., t, :]
        z1_rows[..., t, 2 * t : 2 * t + 2] = realization.g[..., t, :]

    slot_maps = []
    for t in range(t1):  # phase 1
        m = np.zeros((2, 2 * t1), dtype=np.complex128)
        m[:, 2 * t : 2 * t + 2] = np.eye(2)
        slot_maps.append({"u": m})
    theta1 = np.zeros((2 * t1, t1), dtype=np.complex128)
    theta1[2 * np.arange(t1), np.arange(t1)] = 1.0
    theta1_y1 = theta1 @ y1_rows  # (2*T1, 2*T1) over u
    for t in range(t1):  # phase 2
        mv = np.zeros((2, 2 * t1), dtype=np.complex128)
        mv[:, 2 * t : 2 * t + 2] = np.eye(2)
        slot_maps.append({"v": mv, "u": theta1_y1[..., 2 * t : 2 * t + 2, :]})
    theta2_z1 = theta1[: 2 * t2] @ z1_rows  # (2*T2, 2*T1) over u
    for t in range(t2):  # phase 3
        mw = np.zeros((2, 2 * t2), dtype=np.complex128)
        mw[:, 2 * t : 2 * t + 2] = np.eye(2)
        slot_maps.append({"w": mw, "u": theta2_z1[..., 2 * t : 2 * t + 2, :]})
    for t in range(t1):  # phase 4
        mc = np.zeros((2, t1), dtype=np.complex128)
        mc[0, t] = 1.0
        ml = np.zeros((2, t1), dtype=np.complex128)
        ml[0, t] = 1.0
        slot_maps.append({"c": mc, "v_low": ml})
    slot_maps = tuple(slot_maps)

    # Overheard side information: receiver 2's phase-2 outputs go to
    # receiver 1, receiver 1's phase-3 outputs go to receiver 2.
    side_channels = (
        SideChannel(1, "z2_hat", (0, 1), tuple(range(t1, 2 * t1))),
        SideChannel(2, "y3_hat", (1, 0), tuple(range(2 * t1, 2 * t1 + t2))),
    )

    # Per-slot decode systems of phases 2 and 3 must be invertible, in every
    # trial of a batch (the order of the rows does not change |det|).
    h, g = realization.h, realization.g
    for s in range(t1, 2 * t1 + t2):
        if not _full_rank(np.stack([h[..., s, :], g[..., s, :]], axis=-2)).all():
            phase, t = (2, s - t1) if s < 2 * t1 else (3, s - 2 * t1)
            raise ValueError(f"phase-{phase} slot {t}: decode matrix is singular")

    return LinearScheme(
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        side_channels=side_channels,
        keys={1: {"u": y1_rows}, 2: {"u": z1_rows}},
        rates={"v": (t1, t1), "v_low": (t1, -t1), "w": (t2, t2)},
    )


def build_sym_alt(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Four-slot scheme alternating (1, alpha) then (alpha, 1).

    Slots 1-2 run the noise-injection phases for receiver 1; slot 3 sends
    receiver-2 symbols over the now-strong receiver-2 link with the learned
    receiver-2 noise observation on antenna 1; slot 4 multicasts the
    quantized sum of the two overheard side-information signals together
    with a fresh receiver-2 layer at power offset rho**(-alpha).
    """
    _require(realization, [STATE_1A, STATE_1A, STATE_A1, STATE_A1])
    h1, g1 = realization.h[..., 0, :], realization.g[..., 0, :]

    groups = (
        SymbolGroup("v", 2, (0, 0), "rx1"),
        SymbolGroup("w", 2, (0, 0), "rx2"),
        SymbolGroup("w_low", 1, (0, -1), "rx2"),
        SymbolGroup("u", 2, (0, 0), "noise"),
        SymbolGroup("c", 1, (0, 0), "common"),
    )
    one = np.ones((2, 1), dtype=np.complex128)
    one[1, 0] = 0.0
    slot_maps = (
        {"u": np.eye(2, dtype=np.complex128)},
        {"v": np.eye(2, dtype=np.complex128), "u": _antenna1(h1, 2)},
        {"w": np.eye(2, dtype=np.complex128), "u": _antenna1(g1, 2)},
        {"c": one.copy(), "w_low": one.copy()},
    )

    side_channels = (
        SideChannel(1, "z2_hat", (0, 1), (1,)),
        SideChannel(2, "y3_hat", (0, 1), (2,)),
    )

    return LinearScheme(
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        side_channels=side_channels,
        keys={1: {"u": _row(h1, 2)}, 2: {"u": _row(g1, 2)}},
        rates={"v": (1, 1), "w": (1, 1), "w_low": (1, -1)},
    )


def build_gdof_no_secrecy(realization: ChannelRealization, alpha: float) -> LinearScheme:
    """Three-slot scheme without secrecy constraints on integer channels.

    Slot 1: a lattice pair for receiver 1 plus a fresh layer at power offset
    rho**(-alpha); slot 2: a lattice pair for receiver 2 plus another fresh
    layer; slot 3: the combination g1.v + h2.w (itself a lattice point on
    integer channels) plus a third fresh layer.  ``linear_decode`` peels
    each receiver's visible lattice combinations by nearest-point decoding,
    which leaves the low-power layers, and solves for the lattice pairs.
    """
    _require(realization, [STATE_1A] * 3)
    if realization.mode != "integer":
        raise ValueError("the no-secrecy scheme requires an integer realization")
    g1, h2 = realization.g[..., 0, :], realization.h[..., 1, :]

    groups = (
        SymbolGroup("v", 2, (0, 0), "rx1", lattice=True),
        SymbolGroup("w", 2, (0, 0), "rx2", lattice=True),
        SymbolGroup("v_low", 3, (0, -1), "rx1"),
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

    return LinearScheme(
        alpha=alpha,
        realization=realization,
        groups=groups,
        slot_maps=slot_maps,
        rates={"v": (0, 2), "v_low": (3, -3), "w": (0, 2)},
    )


def _channel_bound() -> float:
    """The largest |coefficient| of an integer channel draw, read from
    ``topology._INTEGER_VALUES`` at call time."""
    return float(np.abs(topology._INTEGER_VALUES).max())


def _check_lattice_margin(offset_amplitude: float) -> None:
    """Low-power layers must stay below half the lattice spacing."""
    margin = _channel_bound() * GAUSS_CLIP * offset_amplitude
    half = _lattice().SCALE / 2.0
    if margin >= half:
        raise DecodeError(
            f"residual layer amplitude {margin:.3g} exceeds half the lattice "
            f"spacing {half:.3g}; increase rho"
        )


def _lattice_decode_rho(alpha) -> float:
    """SNR of a lattice scheme's decode check: 10 * worst**(2 / alpha), at
    which every low-power layer sits safely below half the spacing, and at
    least ``DECODE_RHO``.

    That SNR is a finite float only for alpha above 2 ln(worst) / ln(float
    max / 10), about 0.01626 for the lattice and the channel values -3..3
    (worst = 315); at or below that limit this raises a ValueError that
    names it."""
    worst = 2.0 * _channel_bound() * GAUSS_CLIP / _lattice().SCALE
    limit = 2.0 * math.log(worst) / math.log(sys.float_info.max / 10.0)
    if not alpha > limit:
        raise ValueError(
            f"alpha must exceed {limit:.4g} for a finite lattice decode SNR, got {alpha}"
        )
    return max(10.0 * worst ** (2.0 / alpha), DECODE_RHO)


# ---------------------------------------------------------------------------
# Noiseless simulation and decode verification.
# ---------------------------------------------------------------------------


def _gaussian_symbol(rng: np.random.Generator) -> complex:
    """One truncated CN(0,1) symbol: a (re, im) pair of standard normals
    over sqrt(2), redrawn while its magnitude exceeds ``GAUSS_CLIP``."""
    while True:
        s = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        if abs(s) <= GAUSS_CLIP:
            return s


def _draw_symbols(scheme: LinearScheme, rngs) -> dict:
    """Stripped symbol draws of every trial, one generator per trial, each
    group stacked as (trials, size): truncated CN(0,1) symbols
    (``_gaussian_symbol``) for Gaussian groups, scaled centered integers
    (one ``lattice.cf_encode`` per group) for lattice groups.  Groups are
    the outer loop, so each generator reads its own trial's groups in
    order."""
    out = {}
    for g in scheme.groups:
        if g.lattice:
            lattice = _lattice()
            ints = np.array([rng.integers(0, lattice.P, size=g.size) for rng in rngs])
            out[g.name] = lattice.cf_encode(ints)
            out[f"{g.name}_ints"] = ints - lattice.CENTER
        else:
            draws = [[_gaussian_symbol(rng) for _ in range(g.size)] for rng in rngs]
            out[g.name] = np.array(draws, dtype=np.complex128)
    return out


def simulate_noiseless(scheme: LinearScheme, rho: float, seed=0):
    """Draw symbols and run the block through the channel with noise zeroed.

    Returns (symbols, y, z, side_values).  ``symbols`` holds each group's
    stripped symbols by name and, for each lattice group, its centered
    integers as ``<name>_ints``, which ``noiseless_decode_check`` compares
    the decoded integers with.  ``side_values`` holds the exact
    (unquantized) side-information content per channel label: the other
    receiver's normalized outputs in the channel's slots.  A trial-batched
    scheme takes one non-negative int symbol seed per trial, a one-trial
    scheme one such seed.  Trial ``b``'s symbols are drawn from a generator
    equal to ``default_rng(seed[b])``, as ``seed_generators`` derives them;
    a one-trial scheme draws as a batch of one and drops the trials axis,
    and every array of a batch has the trials axis first.
    """
    real = scheme.realization
    lead = real.h.shape[:-2]
    if lead and (np.ndim(seed) != 1 or len(seed) != lead[0]):
        raise ValueError(
            f"a scheme with a trials axis of {lead[0]} trials takes one symbol "
            f"seed per trial, got {seed!r}"
        )
    symbols = _draw_symbols(scheme, seed_generators(seed if lead else [seed]))
    if not lead:
        symbols = {name: s[0] for name, s in symbols.items()}
    phys = {
        g.name: np.asarray(symbols[g.name], dtype=np.complex128)
        * rho ** (_at(g.exponent, scheme.alpha) / 2.0)
        for g in scheme.groups
    }
    y = np.zeros(lead + (real.n,), dtype=np.complex128)
    z = np.zeros(lead + (real.n,), dtype=np.complex128)
    xs = []
    for t in range(real.n):
        x = np.zeros(lead + (2,), dtype=np.complex128)
        for name, m in scheme.slot_maps[t].items():
            x += (m @ phys[name][..., None])[..., 0]
        x /= np.asarray(scheme.slot_norms[t])[..., None]
        xs.append(x)
        a1, a2 = real.states[t].exponents(scheme.alpha)
        y[..., t] = math.sqrt(rho**a1) * (real.h[..., t, :] * x).sum(-1)
        z[..., t] = math.sqrt(rho**a2) * (real.g[..., t, :] * x).sum(-1)
    side = {}
    for ch in scheme.side_channels:
        other = real.g if ch.receiver == 1 else real.h
        side[ch.label] = np.stack([(other[..., t, :] * xs[t]).sum(-1) for t in ch.slots], -1)
    return symbols, y, z, side


def _peel_lattice_rows(scheme: LinearScheme, st, obs):
    """(coef, obs) of a receiver with each lattice row split in two: the
    row's lattice part on the lattice columns and the remainder on the
    others (the lattice step of ``linear_decode``)."""
    lat = scheme.lattice_mask
    touched = (st.coef != 0).reshape((-1,) + st.coef.shape[-2:]).any(0)
    peel = ~(touched & (st.col_exp == 0).all(-1) & ~lat).any(-1)  # unit power: pair (0, 0)
    norm = np.stack([np.asarray(scheme.slot_norms[t]) for t, _, _ in st.plan], -1)[..., peel]
    part = _lattice().nearest_point(obs[..., peel] * norm) / norm
    rest = obs.copy()
    rest[..., peel] -= part
    coef = np.concatenate(
        [np.where(peel[:, None] & lat, 0, st.coef), st.coef[..., peel, :] * lat], axis=-2
    )
    return coef, np.concatenate([rest, part], axis=-1)


def linear_decode(scheme: LinearScheme, y, z, side, layers, rho: float) -> dict:
    """Decode every receiver in ``decode_order`` from its observation model
    (``receiver_structure``), given ``simulate_noiseless``'s outputs ``y``,
    ``z`` and ``side`` and the granted ``layers``; returns the decoded
    groups' symbols by name.

    A receiver stacks its slot outputs, stripped of their link gains, over
    its delivered side information (``_row_plan`` order) and subtracts the
    granted layers.  It projects out the span of every column that is
    neither its own nor granted (the noise, whose functional it learned in
    slot 1, and the other receiver's symbols) and solves for its own groups.
    The unknowns are the symbols at their received powers, so the rank test
    does not depend on ``rho``: a singular value of the projected own
    columns at or below ``DECODE_RANK_TOL`` times the largest raises
    ``DecodeError``.

    A lattice scheme (one with a ``lattice_mask`` column) first checks that
    its low-power layers stay below half the lattice spacing at ``rho``.
    Before the projection, each receiver peels every row whose unit-power
    columns all belong to lattice groups: the row times its slot norm is a
    lattice point plus those layers, so ``nearest_point`` of it, divided by
    the norm again, is the row's lattice part exactly.  The row is split
    into that part on the lattice columns and the remainder on the other
    columns, and the projection, rank test and solve run on the split rows.
    Lattice groups come back as the integers ``round(real(x) /
    lattice.SCALE)``.

    A trial-batched scheme's arrays carry its trials axis first.  Its SVDs
    run on the stacked (trials, rows, cols) coefficients, nuisance
    directions at or below the floor are masked per trial, and the rank
    test raises if any trial fails it."""
    outputs = {1: y, 2: z}
    lead = scheme.realization.h.shape[:-2]
    n = scheme.realization.n
    is_lattice = scheme.lattice_mask.any()
    if is_lattice:
        _check_lattice_margin(rho ** (-scheme.alpha / 2))
    out = {}
    for receiver, order in scheme.decode_order.items():
        st = receiver_structure(scheme, receiver)
        row_exp, col_exp = st.exponents()
        obs = np.concatenate(
            [np.asarray(outputs[receiver], dtype=np.complex128) / rho ** (row_exp[:n] / 2)]
            + [side[ch.label] for ch in scheme.side_channels if ch.receiver == receiver],
            axis=-1,
        )
        gain = rho ** (col_exp / 2)
        own = st.owner_masks[_own_owner(receiver)]
        granted = np.zeros(st.total, dtype=bool)
        known = np.zeros(lead + (st.total,), dtype=np.complex128)
        for name, values in layers.items():
            granted |= st.masks[name]
            known[..., st.masks[name]] = values
        obs = obs - (st.coef @ (known * gain)[..., None])[..., 0]
        coef = st.coef
        if is_lattice:
            coef, obs = _peel_lattice_rows(scheme, st, obs)
        q, s, _ = np.linalg.svd(coef[..., ~(own | granted)], full_matrices=False)
        q = q * (s > DECODE_RANK_TOL * s.max(-1, initial=0.0, keepdims=True))[..., None, :]
        qh = q.conj().swapaxes(-1, -2)
        a = coef[..., own] - q @ (qh @ coef[..., own])
        b = obs[..., None] - q @ (qh @ obs[..., None])
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        if not s.shape[-1] or (s.min(-1) <= DECODE_RANK_TOL * s.max(-1)).any():
            raise DecodeError(f"receiver {receiver} cannot separate its groups {order}")
        x = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ b) / s[..., None])
        solved = np.zeros(lead + (st.total,), dtype=np.complex128)
        solved[..., own] = x[..., 0] / gain[own]
        for name in order:
            out[name] = solved[..., st.masks[name]]
            if scheme.group(name).lattice:
                out[name] = np.round(np.real(out[name]) / _lattice().SCALE).astype(int)
    return out


def noiseless_decode_check(scheme: LinearScheme, seed=0) -> bool:
    """Decode a noiseless simulated block with exact side information; True
    iff every intended symbol is recovered.

    ``linear_decode`` decodes every kind, the lattice schemes included,
    given the ``granted_layers``, at the SNR ``DECODE_RHO`` for a Gaussian
    scheme and ``_lattice_decode_rho`` for a lattice one.  Gaussian symbols
    must match to ``DECODE_REL_TOL`` relative error; lattice symbols must
    match exactly.  A lattice scheme at an alpha whose decode SNR overflows
    a float (alpha at or below about 0.01626) is refused with a ValueError
    that names the limit; its sweeps still run.

    A trial-batched scheme takes one symbol seed per trial (see
    ``simulate_noiseless``) and is decoded in one ``linear_decode`` call;
    the result is still one bool, True iff every trial decoded.
    """
    rho = _lattice_decode_rho(scheme.alpha) if scheme.lattice_mask.any() else DECODE_RHO
    symbols, y, z, side = simulate_noiseless(scheme, rho, seed)
    layers = {}
    for name in scheme.granted_layers:
        layers[name] = np.asarray(symbols[name], dtype=np.complex128)
    try:
        recovered = linear_decode(scheme, y, z, side, layers, rho)
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
            # Per trial: the worst symbol error against the largest symbol.
            scale = np.maximum(np.abs(truth).max(-1), 1e-12)
            if (np.abs(rec - truth).max(-1) > DECODE_REL_TOL * scale).any():
                return False
    return True


# ---------------------------------------------------------------------------
# Audits.
# ---------------------------------------------------------------------------


def audit_causality(kind: str, alpha: float, seed: int = 0) -> bool:
    """Check the delayed-CSIT contract functionally: the slot-t input map may
    depend only on channel rows from slots before t.

    One trial-batched build checks every t at once: trial t keeps the base
    rows before slot t and takes fresh draws from slot t on, so the map of
    each slot s must equal the base map in every trial t >= s.  A map
    without a trials axis is compared as it is.
    """
    base_real = _draw_for(kind, alpha, seed=seed)
    build = SCHEMES[kind].build
    base = build(base_real, alpha)
    n = base_real.n
    alt = _draw_for(kind, alpha, seed=seed + 7919)
    # redrawn[t, s]: trial t takes slot s from the fresh draw.
    redrawn = (np.arange(n)[None, :] >= np.arange(n)[:, None])[..., None]
    mutated = replace(
        base_real, h=np.where(redrawn, alt.h, base_real.h), g=np.where(redrawn, alt.g, base_real.g)
    )
    rebuilt = build(mutated, alpha)
    for s, (b, r) in enumerate(zip(base.slot_maps, rebuilt.slot_maps)):
        if set(b) != set(r):
            return False
        for name in b:
            batch = np.asarray(r[name])
            if batch.ndim > np.ndim(b[name]):
                batch = batch[s:]
            if not np.allclose(b[name], batch, atol=1e-12):
                return False
    return True


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the package knows about one scheme kind.  A kind takes
    every alpha that ``regions._alpha_ratio`` takes and ``states`` does not
    refuse."""

    build: Callable  # (realization, alpha) -> LinearScheme
    states: Callable  # alpha -> per-slot TopologyState tuple; ValueError if none
    mode: str  # channel draw mode, "complex" or "integer"
    secure: bool  # confidential symbols must not leak
    target: Callable | None  # alpha -> per-slot (d1, d2) in alpha's type; None: canary
    inner: str | None  # experiments.REGION_BUILDERS key; target is one of its vertices
    profile: str  # TopologyProfile.named label; a secure target lies in its bc_outer
    rho_db_max: float  # highest SNR in dB of a sweep grid, measured (see SCHEMES)


def _ratio(alpha, num: int, den: int):
    """num/den in alpha's number type (exact for a Fraction alpha)."""
    return alpha**0 * num / den


def _lattice():
    """The lattice module, looked up at call time: it imports this one."""
    from . import lattice

    return lattice


def _bc_fixed_states(alpha) -> tuple:
    t1, t2 = _bc_fixed_lengths(alpha)
    return (STATE_1A,) * (3 * t1 + t2)


_SYM_STATES = (STATE_1A, STATE_1A, STATE_A1, STATE_A1)

# Each kind's rho_db_max is at least 10 dB below the lowest grid top at which
# any sweep raised "singular conditional covariance": 7-point grids
# top-60:top:10, 100 trials, every alpha k/20 in the kind's domain, seeds
# 0-8 and 701.  First failing tops: gdof 151 dB, wiretap-gaussian and
# wiretap-gaussian-a1 152, yang 153, wiretap-lattice 146 (wiretap-gaussian
# and wiretap-lattice first fail at alpha 1).  bc-fixed, sym-alt, int-sym-alt
# and the canary did not fail up to 250 dB, nor at 300 dB (20 trials,
# seeds 0-2 and 701); they stop at 240 dB, 10 dB below the highest top run
# on all ten seeds.

SCHEMES = {
    "wiretap-gaussian": SchemeSpec(
        build=build_wiretap_gaussian,
        states=lambda a: (STATE_1A,) * 3,
        mode="complex",
        secure=True,
        target=lambda a: (_ratio(a, 2, 3), 0 * a),
        inner="yang",
        profile="1a",
        rho_db_max=140.0,
    ),
    "wiretap-gaussian-a1": SchemeSpec(
        build=lambda r, a: build_wiretap_gaussian(r, a, state=STATE_A1),
        states=lambda a: (STATE_A1,) * 3,
        mode="complex",
        secure=True,
        target=lambda a: (2 * a / 3, 0 * a),
        inner=None,
        profile="a1",
        rho_db_max=140.0,
    ),
    "yang": SchemeSpec(
        build=build_yang_baseline,
        states=lambda a: (STATE_1A,) * 4,
        mode="complex",
        secure=True,
        target=lambda a: (_ratio(a, 1, 2), a / 2),
        inner="yang",
        profile="1a",
        rho_db_max=140.0,
    ),
    "bc-fixed": SchemeSpec(
        build=build_bc_fixed,
        states=_bc_fixed_states,
        mode="complex",
        secure=True,
        target=lambda a: (2 / (3 + a), a * (1 + a) / (3 + a)),
        inner="prop2",
        profile="1a",
        rho_db_max=240.0,
    ),
    "sym-alt": SchemeSpec(
        build=build_sym_alt,
        states=lambda a: _SYM_STATES,
        mode="complex",
        secure=True,
        target=lambda a: ((1 + a) / 4, _ratio(a, 1, 2)),
        inner="sym-alt",
        profile="sym",
        rho_db_max=240.0,
    ),
    "wiretap-lattice": SchemeSpec(
        build=lambda r, a: _lattice().build_wiretap_lattice(r, a),
        states=lambda a: (STATE_1A,) * 3,
        mode="integer",
        secure=True,
        target=lambda a: (1 - a / 3, 0 * a),
        inner=None,
        profile="1a",
        rho_db_max=130.0,
    ),
    "int-sym-alt": SchemeSpec(
        build=lambda r, a: _lattice().build_int_sym_alt(r, a),
        states=lambda a: _SYM_STATES,
        mode="integer",
        secure=True,
        target=lambda a: (_ratio(a, 1, 2), _ratio(a, 1, 2)),
        inner="int-sym-alt",
        profile="sym",
        rho_db_max=240.0,
    ),
    "gdof": SchemeSpec(
        build=build_gdof_no_secrecy,
        states=lambda a: (STATE_1A,) * 3,
        mode="integer",
        secure=False,
        target=lambda a: (1 - a / 3, 2 * a / 3),
        inner="gdof",
        profile="1a",
        rho_db_max=140.0,
    ),
    "wiretap-nonoise": SchemeSpec(
        build=build_no_noise_canary,
        states=lambda a: (STATE_1A,),
        mode="complex",
        secure=False,
        target=None,
        inner=None,
        profile="1a",
        rho_db_max=240.0,
    ),
}

SCHEME_KINDS = tuple(SCHEMES)
SECURE_SCHEMES = tuple(kind for kind, spec in SCHEMES.items() if spec.secure)


def _draw_for(kind: str, alpha: float, seed) -> ChannelRealization:
    """The kind's realization for one seed (a non-negative int, such as
    ``topology.trial_seeds`` gives, or a SeedSequence), or a trial-batched
    one for a list or tuple of seeds, in one ``draw_channels`` call.  A
    SeedSequence is mapped to the int seed its first state word gives."""
    spec = SCHEMES[kind]
    states = spec.states(alpha)

    def as_int(s):
        return int(s.generate_state(1)[0]) if isinstance(s, np.random.SeedSequence) else s

    seed = [as_int(s) for s in seed] if isinstance(seed, (list, tuple)) else as_int(seed)
    return draw_channels(states, seed, spec.mode)


def build_scheme(kind: str, alpha: float, seed) -> LinearScheme:
    """Draw a fresh realization matching the scheme's needs and build it.

    ``seed`` is one seed, or a list or tuple of seeds for a trial-batched
    scheme.  An int seed ``s`` draws from a generator equal to
    ``default_rng(s)``; a SeedSequence ``q`` is first mapped to the int
    ``int(q.generate_state(1)[0])``.  ``run_sweep`` draws its chunks
    (``_draw_for``) from the ints of ``topology.trial_seeds``: trial ``i``
    gets that int of child ``i`` of ``SeedSequence(seed).spawn(trials)``,
    computed without building it.  One ``draw_channels`` call draws each
    trial from its own generator as a one-seed build draws it, along a
    leading trials axis, and the builder runs once for the whole batch.
    Trial ``b`` of the batched realization, slot maps, slot norms and keys
    equals the one-seed build from ``seed[b]`` bit for bit.
    """
    return SCHEMES[kind].build(_draw_for(kind, alpha, seed), alpha)

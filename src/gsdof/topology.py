"""Two-state link topology model: state sequences and channel draws.

The transmitter has two antennas; each single-antenna receiver sees its link
at one of two power exponents, strong (1) or weak (``alpha``).  A topology
profile fixes the fraction of time spent in each of the four joint states.
The channel law, y_t = sqrt(rho^A1) h_t.x_t and z_t = sqrt(rho^A2) g_t.x_t
on the slot's normalized input x_t, is applied by
``schemes.simulate_noiseless``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .regions import _alpha_ratio, _ratio

__all__ = [
    "TopologyState",
    "TopologyProfile",
    "ChannelRealization",
    "STATE_11",
    "STATE_1A",
    "STATE_A1",
    "STATE_AA",
    "STATE_BY_LABEL",
    "state_sequence",
    "trial_seeds",
    "seed_generators",
    "draw_channels",
]

STRONG = "strong"
WEAK = "weak"
_PAIRS = {STRONG: (1, 0), WEAK: (0, 1)}

RANK_TOL = 1e-9
_MAX_REDRAWS = 1000
_CHANNEL_MODES = ("complex", "integer")  # the modes _draw_slots draws
# Integer-mode coefficients.  Nonzero integers only: a zero coefficient on a
# reused antenna path breaks decodability and noise cover with constant
# probability.
_INTEGER_VALUES = np.array([-3, -2, -1, 1, 2, 3], dtype=np.complex128)
_INTEGER_VALUES.flags.writeable = False


@dataclass(frozen=True)
class TopologyState:
    """Joint link-strength state: exponent labels for receiver 1 and 2."""

    a1: str
    a2: str

    def __post_init__(self) -> None:
        for label in (self.a1, self.a2):
            if label not in (STRONG, WEAK):
                raise ValueError(f"exponent label must be strong/weak, got {label!r}")

    def exponents(self, alpha: float) -> tuple[float, float]:
        """Exponent values (A1, A2) at weak-link level ``alpha``: each pair's
        p + q*alpha (see ``pairs``)."""
        return tuple(p + q * alpha for p, q in self.pairs)

    @property
    def pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Exponent pairs (p, q) of (A1, A2), each exponent p + q*alpha:
        (1, 0) for a strong link and (0, 1) for a weak one."""
        return _PAIRS[self.a1], _PAIRS[self.a2]

    @property
    def label(self) -> str:
        return ("1" if self.a1 == STRONG else "a") + ("1" if self.a2 == STRONG else "a")


STATE_11 = TopologyState(STRONG, STRONG)
STATE_1A = TopologyState(STRONG, WEAK)
STATE_A1 = TopologyState(WEAK, STRONG)
STATE_AA = TopologyState(WEAK, WEAK)

STATE_BY_LABEL = {"11": STATE_11, "1a": STATE_1A, "a1": STATE_A1, "aa": STATE_AA}

# Canonical emission order for deterministic state sequences.
_STATE_ORDER = (STATE_11, STATE_1A, STATE_A1, STATE_AA)


def _sum_to_one(fracs) -> bool:
    """Whether the fractions sum to exactly 1, decided on their integer
    ratios over one common denominator; False for a value with no ratio."""
    try:
        ratios = [_ratio(f) for f in fracs]
    except (TypeError, OverflowError, ValueError):  # inf has no ratio
        return False
    m = math.lcm(*(d for _, d in ratios))
    return sum(n * (m // d) for n, d in ratios) == m


@dataclass(frozen=True)
class TopologyProfile:
    """Time fractions of the four topology states plus the weak exponent.

    alpha must lie in [0, 1] at its exact value, a float at its binary
    value, as the region constructors decide it (``regions._alpha_ratio``).
    The four fractions must be nonnegative and sum to one (tolerance 1e-12).
    A sum is first tested exactly, on the fractions' integer ratios over one
    common denominator; only a sum that is not exactly one is added up in
    floats and held to the tolerance.  An exact sum of nonnegative fractions
    is within a few ulps of one in floats too, so the refusals are those of
    the float test.  Defaults and the named constructors use integers and
    ``Fraction(1, 2)``, so the outer bounds keep alpha's number type.
    """

    alpha: float
    lambda_11: float = 0
    lambda_1a: float = 0
    lambda_a1: float = 0
    lambda_aa: float = 0

    def __post_init__(self) -> None:
        _alpha_ratio(self.alpha)
        fracs = self.fractions()
        if not all(float(f) >= 0.0 for f in fracs):  # NaN fails too
            raise ValueError(
                "state fractions must be nonnegative numbers, got " + ", ".join(map(str, fracs))
            )
        if not _sum_to_one(fracs) and abs(float(sum(fracs)) - 1.0) > 1e-12:
            raise ValueError(f"state fractions must sum to 1, got {float(sum(fracs))!r}")

    def fractions(self):
        """Fractions in the canonical order (11, 1a, a1, aa)."""
        return (self.lambda_11, self.lambda_1a, self.lambda_a1, self.lambda_aa)

    @classmethod
    def fixed(cls, label: str, alpha: float) -> "TopologyProfile":
        """Profile spending all time in one named state ('11','1a','a1','aa')."""
        if label not in STATE_BY_LABEL:
            raise ValueError(f"unknown state label {label!r}")
        return cls(alpha, **{f"lambda_{label}": 1})

    @classmethod
    def symmetric_alternating(cls, alpha: float) -> "TopologyProfile":
        """Half the time in (1, alpha), half in (alpha, 1)."""
        return cls(alpha, lambda_1a=Fraction(1, 2), lambda_a1=Fraction(1, 2))

    @classmethod
    def named(cls, label: str, alpha: float) -> "TopologyProfile":
        """'sym' for the symmetric alternating profile, else a state label."""
        if label == "sym":
            return cls.symmetric_alternating(alpha)
        return cls.fixed(label, alpha)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-slot channel rows for both receivers over a block of slots, one
    slot per entry of ``states``.

    ``h`` and ``g`` are (n, 2) complex arrays (receiver-1 and receiver-2 rows)
    for one trial, or (trials, n, 2) arrays for a batch of trials that share
    the states and the mode; slot ``t`` is ``h[..., t, :]``, and ``n`` is
    ``len(states)``.  Realizations produced by :func:`draw_channels` satisfy
    |det [h_t; g_t]| > 1e-9 in every slot.  A realization does not depend on
    the SNR: evaluation functions take the SNR explicitly, and one realization
    serves a whole SNR grid.
    """

    h: np.ndarray
    g: np.ndarray
    states: tuple[TopologyState, ...]
    mode: str = "complex"

    def __post_init__(self) -> None:
        if self.mode not in _CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if self.n < 1:
            raise ValueError("slot count must be >= 1")
        if self.h.shape != self.g.shape or self.h.shape[-2:] != (self.n, 2):
            raise ValueError(
                "channel arrays must have equal shapes ending in (n, 2), got "
                f"{self.h.shape} and {self.g.shape} for n={self.n}"
            )

    @property
    def n(self) -> int:
        """Slot count of the block."""
        return len(self.states)

    def min_abs_det(self) -> float:
        """Smallest |det [h_t; g_t]| over the slots (and trials)."""
        return float(np.abs(np.linalg.det(np.stack([self.h, self.g], axis=-2))).min())


def state_sequence(profile: TopologyProfile, n: int) -> tuple[TopologyState, ...]:
    """Deterministic state sequence realizing the profile's fractions exactly.

    Counts follow largest-remainder rounding of ``fraction * n`` so they sum
    to ``n``; slots are emitted in the fixed block order 11, 1a, a1, aa.
    Pure function: identical inputs give identical sequences.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fracs = [float(f) for f in profile.fractions()]
    ideal = [f * n for f in fracs]
    counts = [int(np.floor(x + 1e-12)) for x in ideal]
    short = n - sum(counts)
    # Assign leftover slots by largest fractional remainder; ties resolve in
    # canonical state order.
    remainders = sorted(
        range(4), key=lambda i: (-(ideal[i] - np.floor(ideal[i] + 1e-12)), i)
    )
    for i in remainders[:short]:
        counts[i] += 1
    out: list[TopologyState] = []
    for state, count in zip(_STATE_ORDER, counts):
        out.extend([state] * count)
    return tuple(out)


# numpy's SeedSequence hash (numpy.random.bit_generator: mix_entropy, then
# generate_state), copied onto uint32 arrays with one column per seed, so a
# batch of seeds hashes in one pass.  The arithmetic stays on arrays: numpy
# warns on uint32 overflow in scalar arithmetic but wraps arrays silently.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# The pool words other than word i, which the mixing round updates from i.
_OTHERS = tuple(np.array([d for d in range(_POOL_SIZE) if d != i]) for i in range(_POOL_SIZE))


@functools.lru_cache(maxsize=32)
def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of the first ``steps`` hash steps: step k
    xors with c_k and multiplies by c_(k+1), where c_0 = ``init`` and
    c_(k+1) = c_k * ``mult`` mod 2^32."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    col = np.array(consts, dtype=np.uint32)[:, None]
    col.flags.writeable = False
    return col[:-1], col[1:]


def _hashed(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mult
    return v ^ (v >> _XSHIFT)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_MULT_L - y * _MIX_MULT_R
    return v ^ (v >> _XSHIFT)


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence pools (4, seeds) of the entropy words (words, seeds),
    four or more words, as ``trial_seeds`` and ``seed_generators`` pad
    them."""
    extra = max(len(entropy) - _POOL_SIZE, 0)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * extra)
    pool = _hashed(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        hashed = _hashed(pool[src], xor[k : k + len(dst)], mult[k : k + len(dst)])
        pool[dst] = _mixed(pool[dst], hashed)
        k += len(dst)
    for word in entropy[_POOL_SIZE:]:
        pool = _mixed(pool, _hashed(word, xor[k : k + _POOL_SIZE], mult[k : k + _POOL_SIZE]))
        k += _POOL_SIZE
    return pool


def _state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words)`` of each pool column, as (n_words, seeds)."""
    xor, mult = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashed(pool[np.arange(n_words) % _POOL_SIZE], xor, mult)


def _words(n) -> list[int]:
    """The uint32 entropy words numpy takes from a non-negative int, least
    significant first; 0 is one zero word."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seeds must be non-negative integers, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def trial_seeds(seed: int, count: int) -> list[int]:
    """Int seeds of ``count`` trials, from one hash pass.

    Trial ``i`` gets ``int(SeedSequence(seed).spawn(count)[i].generate_state(1)[0])``:
    the same ints numpy gives, without building a SeedSequence per trial.
    A spawned child's entropy is its parent's words padded with zeros to
    the pool size, then its index.  ``count`` is below 2^32, so ``i`` is
    one word.
    """
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = np.empty((len(words) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(count)
    return _state(_pool(entropy), 1)[0].tolist()


class _FixedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence that answers PCG64's one request,
    ``generate_state(4, np.uint64)``, with a state hashed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state):
            raise ValueError(f"a fixed state has {len(self.state)} words, not {n_words}")
        return self.state


def seed_generators(seeds) -> list[np.random.Generator]:
    """``np.random.default_rng(s)`` for each non-negative int ``s`` of
    ``seeds``, bit for bit: a PCG64 seeded with
    ``SeedSequence(s).generate_state(4, np.uint64)``.  The states of seeds
    with the same entropy word count (4 below 2^128) hash in one pass; a
    lone seed is a batch of one and hashes the same way."""
    words = [_words(s) for s in seeds]
    groups: dict[int, list[int]] = {}
    for b, w in enumerate(words):
        groups.setdefault(max(len(w), _POOL_SIZE), []).append(b)
    states = np.empty((len(words), 8), dtype=np.uint32)
    for length, rows in groups.items():
        padded = [words[b] + [0] * (length - len(words[b])) for b in rows]
        entropy = np.array(padded, dtype=np.uint32)
        states[rows] = _state(_pool(entropy.T), 8).T
    # generate_state(4, uint64) pairs the words little-endian first.
    states = states.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_FixedState(row))) for row in states]


def _draw_slots(rngs, mode: str, shape: tuple) -> np.ndarray:
    """Channel matrices [h_t; g_t] of shape ``(len(rngs),) + shape + (2, 2)``:
    entry ``b`` comes from one call to ``rngs[b]``.  Generator streams are
    sequential, so one call over n slots draws exactly what n one-slot calls
    draw, and the elementwise transform gives each entry the bits it gets
    alone."""
    if mode == "complex":
        # Circularly-symmetric standard complex Gaussian entries: per slot,
        # four real parts, then four imaginary parts.
        raw = np.empty((len(rngs),) + shape + (2, 2, 2))
        for rng, out in zip(rngs, raw):
            rng.standard_normal(out=out)
        return (raw[..., 0, :, :] + 1j * raw[..., 1, :, :]) / np.sqrt(2.0)
    if mode == "integer":
        # Uniform over _INTEGER_VALUES: rng.choice(values, size) draws the
        # indices rng.integers(0, len(values), size, dtype=np.int64).
        size = shape + (2, 2)
        idx = [rng.integers(0, len(_INTEGER_VALUES), size, dtype=np.int64) for rng in rngs]
        return _INTEGER_VALUES[np.array(idx)]
    raise ValueError(f"unknown channel mode {mode!r}")


def _full_rank(m: np.ndarray):
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]) > RANK_TOL


def _top_up(rng: np.random.Generator, mode: str, m: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Keep the full-rank slots of ``m`` in order and draw the shortfall one
    candidate at a time from ``rng``."""
    kept = list(m[ok])
    while len(kept) < len(m):
        for _ in range(_MAX_REDRAWS):
            slot = _draw_slots([rng], mode, ())[0]
            if _full_rank(slot):
                break
        else:
            raise RuntimeError(f"slot {len(kept)}: no full-rank draw in {_MAX_REDRAWS} tries")
        kept.append(slot)
    return np.array(kept)


def draw_channels(states, seed, mode: str = "complex") -> ChannelRealization:
    """Draw a realization of one slot per entry of ``states``; redraws any
    slot with |det| <= 1e-9.  An empty ``states`` is refused.

    Identical seeds give bitwise-identical realizations.  Complex mode draws
    i.i.d. CN(0, 1) coefficients; integer mode draws uniformly from the
    nonzero integers -3..3.

    The realization is the first n full-rank 2x2 candidates of the
    generator's stream, the same as a slot loop that redraws each slot until
    it passes.  All n slots come from one generator call; if some fail the
    rank test, the passing ones are kept in order and only the shortfall is
    drawn, one candidate at a time from the same generator.

    ``seed`` is one non-negative int, or a list or tuple of them for a
    batch of trials.  Seed ``s`` draws from a generator equal to
    ``np.random.default_rng(s)`` bit for bit; the generators, a lone seed's
    too, are derived in one hash pass (see :func:`seed_generators`).  Each
    trial gets its own one-call draw, the complex transform and the rank
    test run once on the stack, and only the trials with a failing slot
    are topped up.  ``h`` and ``g`` are then (trials, n, 2), and trial ``b``
    equals the one-seed draw from ``seed[b]`` bit for bit.
    """
    states = tuple(states)
    n = len(states)
    batched = isinstance(seed, (list, tuple))
    if batched and not seed:
        raise ValueError("a batch needs at least one seed")
    rngs = seed_generators(seed if batched else (seed,))
    m = _draw_slots(rngs, mode, (n,))
    ok = _full_rank(m)
    for b in np.flatnonzero(~ok.all(axis=-1)):
        m[b] = _top_up(rngs[b], mode, m[b], ok[b])
    if not batched:
        m = m[0]
    h, g = m[..., 0, :].copy(), m[..., 1, :].copy()
    return ChannelRealization(h=h, g=g, states=states, mode=mode)


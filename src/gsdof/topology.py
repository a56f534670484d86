"""Two-state link topology model: state sequences, channel draws, channel law.

The transmitter has two antennas; each single-antenna receiver sees its link
at one of two power exponents, strong (1) or weak (``alpha``).  A topology
profile fixes the fraction of time spent in each of the four joint states.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    "draw_channels",
    "receive",
    "realization_to_csv",
]

STRONG = "strong"
WEAK = "weak"

RANK_TOL = 1e-9
_MAX_REDRAWS = 1000
_CHANNEL_MODES = ("complex", "integer")  # the modes _draw_slots draws


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
        """Exponent values (A1, A2) at weak-link level ``alpha``."""
        return (
            1.0 if self.a1 == STRONG else alpha,
            1.0 if self.a2 == STRONG else alpha,
        )

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


@dataclass(frozen=True)
class TopologyProfile:
    """Time fractions of the four topology states plus the weak exponent.

    The four fractions must be nonnegative and sum to one (tolerance 1e-12).
    Defaults and the named constructors use integers and ``Fraction(1, 2)``,
    so the outer bounds keep alpha's number type.
    """

    alpha: float
    lambda_11: float = 0
    lambda_1a: float = 0
    lambda_a1: float = 0
    lambda_aa: float = 0

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        fracs = self.fractions()
        if not all(float(f) >= 0.0 for f in fracs):  # NaN fails too
            raise ValueError(
                "state fractions must be nonnegative numbers, got " + ", ".join(map(str, fracs))
            )
        if abs(float(sum(fracs)) - 1.0) > 1e-12:
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

    def state_matrix(self, t: int) -> np.ndarray:
        """Stacked 2x2 channel matrix [h_t; g_t], per trial for a batch."""
        return np.stack([self.h[..., t, :], self.g[..., t, :]], axis=-2)

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


def _draw_slots(rng: np.random.Generator, mode: str, shape: tuple) -> np.ndarray:
    """Channel matrices [h_t; g_t] of shape ``shape + (2, 2)``, drawn in one
    generator call.  Generator streams are sequential, so one call over n
    slots draws exactly what n one-slot calls draw."""
    if mode == "complex":
        # Circularly-symmetric standard complex Gaussian entries: per slot,
        # four real parts, then four imaginary parts.
        raw = rng.standard_normal(shape + (2, 2, 2))
        return (raw[..., 0, :, :] + 1j * raw[..., 1, :, :]) / np.sqrt(2.0)
    if mode == "integer":
        # Nonzero integers only: a zero coefficient on a reused antenna path
        # breaks decodability and noise cover with constant probability.
        vals = np.array([-3, -2, -1, 1, 2, 3])
        return rng.choice(vals, size=shape + (2, 2)).astype(np.complex128)
    raise ValueError(f"unknown channel mode {mode!r}")


def _full_rank(m: np.ndarray):
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]) > RANK_TOL


def _top_up(rng: np.random.Generator, mode: str, m: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Keep the full-rank slots of ``m`` in order and draw the shortfall one
    candidate at a time from ``rng``."""
    kept = list(m[ok])
    while len(kept) < len(m):
        for _ in range(_MAX_REDRAWS):
            slot = _draw_slots(rng, mode, ())
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

    ``seed`` is one seed, or a list or tuple of seeds for a batch of trials:
    each trial gets its own generator and its own one-call draw, the rank
    test runs once on the stack, and only the trials with a failing slot
    are topped up.  ``h`` and ``g`` are then (trials, n, 2), and trial ``b``
    equals the one-seed draw from ``seed[b]`` bit for bit.
    """
    states = tuple(states)
    n = len(states)
    batched = isinstance(seed, (list, tuple))
    if batched and not seed:
        raise ValueError("a batch needs at least one seed")
    rngs = [np.random.default_rng(s) for s in (seed if batched else (seed,))]
    m = np.stack([_draw_slots(rng, mode, (n,)) for rng in rngs])
    ok = _full_rank(m)
    for b in np.flatnonzero(~ok.all(axis=-1)):
        m[b] = _top_up(rngs[b], mode, m[b], ok[b])
    if not batched:
        m = m[0]
    h, g = m[..., 0, :].copy(), m[..., 1, :].copy()
    return ChannelRealization(h=h, g=g, states=states, mode=mode)


def receive(
    x_t: np.ndarray,
    state: TopologyState,
    h_t: np.ndarray,
    g_t: np.ndarray,
    rho: float,
    alpha: float,
    noise: np.ndarray,
) -> tuple[complex, complex]:
    """One use of the channel law for a normalized input vector.

    Returns (y_t, z_t) with y_t = sqrt(rho^A1) h_t.x_t + noise[0] and
    z_t = sqrt(rho^A2) g_t.x_t + noise[1].  Rejects inputs whose squared
    norm exceeds the unit power budget (tolerance 1e-9).
    """
    x_t = np.asarray(x_t, dtype=np.complex128)
    power = float(np.real(np.vdot(x_t, x_t)))
    if power > 1.0 + 1e-9:
        raise ValueError(f"input power {power} exceeds unit constraint")
    a1, a2 = state.exponents(alpha)
    y = np.sqrt(rho**a1) * (h_t @ x_t) + noise[0]
    z = np.sqrt(rho**a2) * (g_t @ x_t) + noise[1]
    return complex(y), complex(z)


def realization_to_csv(realization: ChannelRealization, alpha: float) -> str:
    """Serialize a realization for audit: one row per slot.

    Columns: t, A1, A2, then Re/Im of h1, h2, g1, g2.
    """
    buf = io.StringIO()
    buf.write("t,A1,A2,h1_re,h1_im,h2_re,h2_im,g1_re,g1_im,g2_re,g2_im\n")
    for t in range(realization.n):
        a1, a2 = realization.states[t].exponents(alpha)
        row = [t, a1, a2]
        for coeff in (*realization.h[t], *realization.g[t]):
            row.extend([coeff.real, coeff.imag])
        buf.write(",".join(format(v, ".12g") if not isinstance(v, int) else str(v) for v in row))
        buf.write("\n")
    return buf.getvalue()

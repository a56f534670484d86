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
        if any(float(f) < 0.0 for f in fracs):
            raise ValueError("state fractions must be nonnegative")
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
    """Per-slot channel rows for both receivers over an ``n``-slot block.

    ``h`` and ``g`` are (n, 2) complex arrays (receiver-1 and receiver-2 rows).
    Realizations produced by :func:`draw_channels` satisfy |det [h_t; g_t]| >
    1e-9 in every slot.  ``rho`` records the SNR parameter the realization was
    drawn for; evaluation functions take an explicit rho and may reuse one
    realization across an SNR grid.
    """

    n: int
    h: np.ndarray
    g: np.ndarray
    states: tuple[TopologyState, ...]
    rho: float
    mode: str = "complex"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("slot count must be >= 1")
        if self.h.shape != (self.n, 2) or self.g.shape != (self.n, 2):
            raise ValueError("channel arrays must have shape (n, 2)")
        if len(self.states) != self.n:
            raise ValueError("states length must equal n")
        if not float(self.rho) > 1.0:
            raise ValueError("rho must exceed 1")

    def state_matrix(self, t: int) -> np.ndarray:
        """Stacked 2x2 channel matrix [h_t; g_t]."""
        return np.vstack([self.h[t], self.g[t]])

    def min_abs_det(self) -> float:
        return min(abs(np.linalg.det(self.state_matrix(t))) for t in range(self.n))


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


def draw_channels(
    n: int,
    states,
    rho: float,
    seed: int,
    mode: str = "complex",
) -> ChannelRealization:
    """Draw an ``n``-slot realization; redraws any slot with |det| <= 1e-9.

    Identical seeds give bitwise-identical realizations.  Complex mode draws
    i.i.d. CN(0, 1) coefficients; integer mode draws uniformly from the
    nonzero integers -3..3.

    All n slots come from one generator call.  If any slot fails the rank
    test, the generator is re-seeded and the slots are drawn one at a time,
    each redrawn until it passes, so the realization is the same as from
    the slot loop alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    states = tuple(states)
    if len(states) != n:
        raise ValueError("states length must equal n")
    m = _draw_slots(np.random.default_rng(seed), mode, (n,))
    if not _full_rank(m).all():
        rng = np.random.default_rng(seed)
        for t in range(n):
            for attempt in range(_MAX_REDRAWS):
                m[t] = _draw_slots(rng, mode, ())
                if _full_rank(m[t]):
                    break
            else:
                raise RuntimeError(f"slot {t}: no full-rank draw in {_MAX_REDRAWS} tries")
    h, g = m[:, 0].copy(), m[:, 1].copy()
    return ChannelRealization(n=n, h=h, g=g, states=states, rho=float(rho), mode=mode)


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

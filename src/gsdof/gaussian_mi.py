"""Exact differential entropy and mutual information for linear-Gaussian models.

Everything here is closed-form log-determinant arithmetic on covariances,
with no estimator noise.  The scheme sweeps and checks are tested on SNR
grids of 60-120 dB.  Known limits of the key conditioning at high SNR:

* precision falls as SNR grows: repeating every key row, which adds no
  knowledge, moves ``wiretap-gaussian-a1`` values by up to 2.1e-4 bits at
  120 dB (3 seeds, alpha = 0.5);
* ``conditional_mi`` raises ``singular conditional covariance`` on some
  realizations above 150 dB (at alpha = 0.5, ``wiretap-gaussian-a1``: 1 of
  20 seeds at 155 dB and 2 at 160 dB; ``yang``: 4 of 20 at 165 dB).

Slopes are fitted by ordinary least squares on the top half of the SNR grid
to suppress additive O(1) offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .topology import TopologyProfile, draw_channels, state_sequence

__all__ = [
    "EntropyLedger",
    "diff_entropy",
    "conditional_mi",
    "fit_slope",
    "lemma1_margins",
    "lemma1_slopes",
    "LEMMA1_IDS",
]

LOG2_PI_E = math.log2(math.pi * math.e)

# Slope tolerance operationalizing the o(log rho) allowance in the
# exponential-order inequalities and secrecy conditions.
SLOPE_TOL = 0.02


def diff_entropy(cov: np.ndarray) -> float:
    """Differential entropy in bits of a circularly-symmetric complex
    Gaussian vector with the given Hermitian positive-definite covariance."""
    cov = np.asarray(cov, dtype=np.complex128)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    herm_gap = float(np.max(np.abs(cov - cov.conj().T)))
    if herm_gap > 1e-8 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError("covariance must be Hermitian")
    try:
        np.linalg.cholesky((cov + cov.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    _, logdet = np.linalg.slogdet(cov)
    return cov.shape[0] * LOG2_PI_E + float(logdet) / math.log(2.0)


def _logdet2(mat: np.ndarray):
    """log2 det of a Hermitian positive-definite matrix, or of each matrix in
    a stack (leading axes are batch axes)."""
    sign, logdet = np.linalg.slogdet(mat)
    if np.any(sign.real <= 0):
        raise ValueError("singular conditional covariance")
    return logdet / math.log(2.0)


def _entropy_given_keys(a: np.ndarray, k: np.ndarray):
    """log2-det part of h(A s + n | K s) for s ~ CN(0, I), unit noise.

    Conditioning on the noiseless functionals K s projects the symbol space
    onto the orthogonal complement of the key rows (Schur complement of the
    joint Gaussian), which keeps the determinant well conditioned at large
    SNR.  Leading axes of ``a`` and ``k`` are batch axes and broadcast."""
    if k.shape[-2]:
        proj = np.eye(k.shape[-1]) - np.linalg.pinv(k) @ k
        a = a @ proj
    return _logdet2(a @ a.conj().swapaxes(-1, -2) + np.eye(a.shape[-2]))


def conditional_mi(
    obs: np.ndarray,
    keys: np.ndarray,
    target: np.ndarray,
    given: np.ndarray,
):
    """I(s_target ; obs | s_given, keys) in bits.

    ``obs`` is the (m, k) column matrix of observations ``obs = A s + n``
    with unit receiver noise and symbol variances already folded into the
    columns; ``keys`` holds noiseless linear functionals of the symbols that
    the receiver is deemed to know exactly.  ``target`` and ``given`` are
    boolean column masks; conditioning on a symbol subset removes its
    columns (symbols are independent).

    ``obs`` and ``keys`` may carry leading batch axes (for example trials x
    SNRs, or trials x 1 for keys that do not depend on the SNR); the result
    then has the broadcast batch shape, and each entry is bit-for-bit the
    value of the unbatched call on that slice.

    ``target`` and ``given`` may also be (pairs, k) stacks of masks, as
    for every chain-rule step one receiver needs.  The result then has a
    leading pair axis, and entry ``p`` equals the call on ``target[p]`` and
    ``given[p]`` bit for bit.  Each distinct set of kept columns costs one
    log-det evaluation per call, so a chain of n steps costs n + 1.
    """
    keep1 = ~np.asarray(given, dtype=bool)
    keep1, keep2 = np.broadcast_arrays(keep1, keep1 & ~np.asarray(target, dtype=bool))
    entropies = {}

    def entropy(keep):
        key = keep.tobytes()
        if key not in entropies:
            entropies[key] = _entropy_given_keys(obs[..., keep], keys[..., keep])
        return entropies[key]

    if keep1.ndim == 1:
        return np.maximum(entropy(keep1) - entropy(keep2), 0.0)
    return np.stack(
        [np.maximum(entropy(k1) - entropy(k2), 0.0) for k1, k2 in zip(keep1, keep2)]
    )


@dataclass
class EntropyLedger:
    """Labelled entropy/MI bookkeeping: (label, rho) -> bits, all finite."""

    entries: dict = field(default_factory=dict)

    def add(self, label: str, rho: float, bits: float) -> None:
        if not math.isfinite(bits):
            raise ValueError(f"non-finite ledger entry for {label!r} at rho={rho}")
        self.entries[(label, float(rho))] = float(bits)

    def get(self, label: str, rho: float) -> float:
        return self.entries[(label, float(rho))]

    def series(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        items = sorted((r, b) for (lab, r), b in self.entries.items() if lab == label)
        rhos = np.array([r for r, _ in items])
        bits = np.array([b for _, b in items])
        return rhos, bits

    def to_csv(self) -> str:
        lines = ["label,rho,bits"]
        for (label, rho), bits in sorted(self.entries.items()):
            lines.append(f"{label},{format(rho, '.12g')},{format(bits, '.12g')}")
        return "\n".join(lines) + "\n"


def fit_slope(log2_rho, bits, top_fraction: float = 0.5) -> tuple[float, float]:
    """OLS slope and its standard error over the top fraction of the grid."""
    x = np.asarray(log2_rho, dtype=float)
    y = np.asarray(bits, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two grid points to fit a slope")
    k = max(2, int(math.ceil(x.size * top_fraction)))
    x, y = x[-k:], y[-k:]
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    if k > 2:
        stderr = math.sqrt(float(np.sum(resid**2)) / (k - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# Entropy-order inequalities for the two-receiver channel law.
# ---------------------------------------------------------------------------

LEMMA1_IDS = ("4a", "4b", "4c", "4d")


def _block_entropies(realization, alpha: float, rho: float) -> tuple[float, float, float]:
    """(h(y^n|S), h(z^n|S), h(y^n, z^n|S)) in bits for i.i.d. unit-power
    Gaussian inputs, x_t ~ CN(0, I/2)."""
    hy = hz = hyz = 0.0
    for t in range(realization.n):
        a1, a2 = realization.states[t].exponents(alpha)
        ht, gt = realization.h[t], realization.g[t]
        m = np.vstack(
            [np.sqrt(rho**a1) * ht, np.sqrt(rho**a2) * gt]
        )
        cov = m @ (0.5 * np.eye(2)) @ m.conj().T + np.eye(2)
        hy += LOG2_PI_E + math.log2(float(np.real(cov[0, 0])))
        hz += LOG2_PI_E + math.log2(float(np.real(cov[1, 1])))
        hyz += 2 * LOG2_PI_E + _logdet2(cov)
    return hy, hz, hyz


def lemma1_slopes(
    profile: TopologyProfile,
    alpha: float,
    rho_grid,
    seed: int,
    n: int = 12,
) -> dict:
    """Per-slot fitted slopes {inequality id: (lhs, rhs)} of all four
    entropy-order inequalities, from one channel draw and one series of
    block entropies.

    The right-hand sides carry the topology surcharge lambda * (1 - alpha) *
    log2(rho) per slot exactly once.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.size < 3:
        raise ValueError("rho_grid must have at least 3 points")
    states = state_sequence(profile, n)
    realization = draw_channels(n, states, float(rho_grid[0]), seed, mode="complex")
    l1a = float(profile.lambda_1a)
    la1 = float(profile.lambda_a1)
    series = {ineq: ([], []) for ineq in LEMMA1_IDS}
    for rho in rho_grid:
        hy, hz, hyz = _block_entropies(realization, alpha, float(rho))
        surcharge_1a = n * l1a * (1 - alpha) * math.log2(rho)
        surcharge_a1 = n * la1 * (1 - alpha) * math.log2(rho)
        sides = {
            "4a": (hyz, 2 * hz + surcharge_1a),
            "4b": (hyz, 2 * hy + surcharge_a1),
            "4c": (hy, 2 * hz + surcharge_1a),
            "4d": (hz, 2 * hy + surcharge_a1),
        }
        for ineq, (lhs, rhs) in sides.items():
            series[ineq][0].append(lhs / n)
            series[ineq][1].append(rhs / n)
    x = np.log2(rho_grid)
    return {
        ineq: (fit_slope(x, lhs)[0], fit_slope(x, rhs)[0])
        for ineq, (lhs, rhs) in series.items()
    }


def lemma1_margins(
    profile: TopologyProfile,
    alpha: float,
    inequality_id: str,
    rho_grid,
    seed: int,
    n: int = 12,
) -> tuple[float, float]:
    """Per-slot fitted slopes (lhs, rhs) of one entropy-order inequality;
    see ``lemma1_slopes``."""
    if inequality_id not in LEMMA1_IDS:
        raise ValueError(f"inequality_id must be one of {LEMMA1_IDS}")
    return lemma1_slopes(profile, alpha, rho_grid, seed, n)[inequality_id]

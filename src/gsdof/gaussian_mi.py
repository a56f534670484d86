"""Exact mutual information for linear-Gaussian models.

``conditional_mi`` is the one MI engine: every scheme rate and leakage,
and every block entropy of lemma 1's entropy-order checks, is a difference
of closed-form log-determinants of covariances, with no estimator noise.
It takes the SNR-free coefficients, the row and column power exponents and
the SNRs, so the key projection and the Gram pieces are formed once per
trial and each SNR adds only elementwise work and a log-det.  Neither step
calls LAPACK per matrix: the projection is a modified Gram-Schmidt of the
key rows and the log-det an LDLᴴ elimination (``_logdet2``, the package's
only log-det), both run over whole stacks in real arithmetic.  The scheme
sweeps and checks are tested on SNR grids of 60-120 dB.  Known limits at
high SNR (alpha = 0.5 unless stated):

* precision falls as SNR grows, about as eps * rho on receivers with
  several full-power rows: against a 50-digit evaluation of the same
  coefficients, entropies are off by up to 6.6e-4 bits at 120 dB
  (``gdof`` receiver 1; 8 seeds, alphas 0.05-0.95, 100-120 dB; 2.9e-4 on
  ``yang``, 2.2e-4 on ``wiretap-lattice``).  Rounding the Gram matrix to
  floats alone puts that ``gdof`` entropy 5.0e-4 bits off, whatever
  eliminates it.  Lemma 1's 2x2 slots keep their precision: its block
  entropies are within 6.8e-13 bits of a 60-digit evaluation at 60-240 dB;
* repeating every key row, which adds no knowledge, moves no value: a
  repeated row adds no basis row (3 seeds, every keyed kind, 120 dB);
* ``conditional_mi`` raises ``singular conditional covariance`` on some
  realizations from about 150 dB, over every alpha k/20: the lowest
  failing grid tops are 146 dB on ``wiretap-lattice``, 151 on ``gdof``,
  152 on ``wiretap-gaussian`` and ``wiretap-gaussian-a1`` and 153 on
  ``yang``.  So each kind's ``SchemeSpec.rho_db_max`` caps its sweep
  grids at least 10 dB lower, and ``SweepConfig`` refuses a grid above it
  before any draw: 130 dB for ``wiretap-lattice``, 140 dB for those four
  and 240 dB for the other kinds, which did not fail up to 250 dB (see
  ``schemes.SCHEMES``).

Slopes are fitted by ordinary least squares on the top half of the SNR grid
to suppress additive O(1) offsets.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .topology import STATE_11, TopologyProfile, draw_channels, state_sequence

__all__ = [
    "conditional_mi",
    "fit_slope",
    "fit_window",
    "lemma1_margins",
    "lemma1_slopes",
    "LEMMA1_IDS",
]

# Slope tolerance operationalizing the o(log rho) allowance in the
# exponential-order inequalities and secrecy conditions.
SLOPE_TOL = 0.02
LEMMA1_SLOTS = 12  # block length of the entropy-order inequality checks


def fit_window(n: int) -> int:
    """How many of an n-point SNR grid's top points a slope is fitted on:
    the top half, and at least two."""
    return max(2, math.ceil(n / 2))


KEY_DEPENDENCE_TOL = 1e-10  # relative remainder of a key row that adds no basis row

_CONJ = np.array([1.0, -1.0])  # (re, im) times this: the conjugate
_LDL_CHUNK = 2**10  # matrices per elimination pass of _logdet2


def _pairs(x: np.ndarray) -> np.ndarray:
    """``x`` as (re, im) float64 pairs, with a trailing axis of 2: a view
    if ``x`` is a C-contiguous complex128 array, else of a copy."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return x.view(np.float64).reshape(x.shape + (2,))


def _remove_component(v: np.ndarray, b: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """v - (v bᴴ) b for each row of ``v``, all as (re, im) pairs: ``v`` is
    (..., rows, n, 2), ``b`` a unit or zero row and ``ib`` = i b, both (...,
    1, n, 2).  Returns a new array of the broadcast shape."""
    zr = (v * b).sum(axis=(-2, -1), keepdims=True)
    zi = (v * ib).sum(axis=(-2, -1), keepdims=True)
    v = v - zr * b
    v -= zi * ib
    return v


def _project_off_keys(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """C P for each matrix of the stack ``c`` (..., rows, n): the rows of
    ``c`` less their parts in the span of the key rows ``k`` (..., key rows,
    n), which is C (I - K⁺K), as a new complex128 array of the broadcast
    shape.

    The key rows are made orthonormal by modified Gram-Schmidt in real
    (re, im) arithmetic, one row at a time, and each basis row's component
    is removed from ``c`` as soon as it is formed.  A key row whose
    remainder, once the basis rows before it are removed, has a norm of at
    most ``KEY_DEPENDENCE_TOL`` = 1e-10 times its own norm gives a zero
    basis row, which removes nothing: a repeated row, a zero row or a row
    in the span of the rows before it adds no knowledge."""
    cv, kv = _pairs(c), _pairs(k)
    basis = []
    for t in range(kv.shape[-3]):
        v = kv[..., t : t + 1, :, :]
        own = (v * v).sum(axis=(-2, -1), keepdims=True)
        for b, ib in basis:
            v = _remove_component(v, b, ib)
        norm2 = (v * v).sum(axis=(-2, -1), keepdims=True)
        keep = norm2 > KEY_DEPENDENCE_TOL**2 * own
        b = v * np.divide(1.0, np.sqrt(norm2), out=np.zeros(norm2.shape), where=keep)
        ib = b[..., ::-1] * -_CONJ  # i b = (-bi, br)
        basis.append((b, ib))
        cv = _remove_component(cv, b, ib)
    return cv.view(np.complex128)[..., 0]


def _logdet2(g: np.ndarray):
    """log2 det of each Hermitian positive-definite matrix of the stack
    ``g`` (..., r, r), as the sum of the pivots' logs of LDLᴴ elimination
    without pivoting.

    ``_LDL_CHUNK`` matrices at a time are copied into (r, r, re/im, chunk)
    float64 planes, so that every step runs over the whole chunk: each
    pivot's rank-one update of the trailing block is real arithmetic, in
    place on the planes.  The chunks bound the temporaries, and every step
    is elementwise, so neither the chunks nor the batch shape change the
    bits.  A pivot that is not positive raises ``singular conditional
    covariance``."""
    r = g.shape[-1]
    flat = _pairs(g).reshape((-1, r, r, 2))
    logdet = np.empty(len(flat))
    for start in range(0, len(flat), _LDL_CHUNK):
        part = np.moveaxis(flat[start : start + _LDL_CHUNK], 0, -1).copy()
        for j in range(r):
            d = part[j, j, 0]
            if not (d > 0).all():
                raise ValueError("singular conditional covariance")
            if j + 1 < r:
                # Trailing block -= w vᴴ, with v the pivot's column below it
                # and w = v / d: entry (i, k) is wr_i conj(v_k) + wi_i (i
                # conj(v_k)), where conj(v) = (vr, -vi) and i conj(v) = (vi, vr).
                v = part[j + 1 :, j]
                w = v / d
                trailing = part[j + 1 :, j + 1 :]
                trailing -= w[:, None, 0:1] * (v * _CONJ[:, None])
                trailing -= w[:, None, 1:2] * v[:, ::-1]
        logdet[start : start + _LDL_CHUNK] = np.log(part[range(r), range(r), 0]).sum(axis=0)
    return logdet.reshape(g.shape[:-2]) / math.log(2.0)


def _levels(col_exp: np.ndarray, cols: np.ndarray) -> tuple:
    """The column levels of an exponent batch ``col_exp`` (batch, ...), whose
    trailing axes match ``cols``, the column index of each entry: each
    distinct vector of one column's exponents across the batch, ascending,
    as ((batch,) exponents, read-only mask of its columns).  A single level
    has no mask, since it holds every column, and no columns make one level
    at exponent 0.

    Every batch entry must split the columns into the same levels, in the
    same ascending order, or its sums would not be those of its own call: a
    ValueError names the columns of two levels that merge or swap at some
    entry (at alpha = 0, for example, the -alpha and 0 levels merge, since
    -0.0 == 0.0)."""
    vectors = col_exp.reshape(len(col_exp), -1).T  # one row per column entry
    values = sorted(set(map(tuple, vectors.tolist()))) or [(0.0,) * len(col_exp)]
    if len(values) == 1:
        return ((np.array(values[0]), None),)
    masks = [(vectors == v).all(axis=1).reshape(col_exp.shape[1:]) for v in values]
    for i, at in enumerate(zip(*values)):
        for j in range(len(values) - 1):
            if not at[j] < at[j + 1]:
                a, b = (sorted(set(cols[mask].tolist())) for mask in masks[j : j + 2])
                raise ValueError(
                    f"exponent batch entry {i} merges or reorders column levels: "
                    f"columns {a} have exponent {at[j]} and columns {b} exponent {at[j + 1]}"
                )
    for mask in masks:
        mask.flags.writeable = False
    return tuple(zip(map(np.array, values), masks))


def _entropy_given_keys(c: np.ndarray, k: np.ndarray, row_exp, levels, rho):
    """log2-det part of h(A s + n | K s) for s ~ CN(0, I) and unit noise,
    where A scales entry (i, j) of the rho-free ``c`` by rho^((r_i + c_j)/2),
    at each entry of an exponent batch: row exponents ``row_exp`` (...,
    batch, rows), column exponents given as ``levels`` (see ``_levels``),
    and an array of SNRs ``rho``.

    Conditioning on the noiseless functionals K s projects the symbol space
    onto the orthogonal complement of the key rows (the Schur complement of
    the joint Gaussian): C P = C - Σ_t (C b_tᴴ) b_t, one orthonormal key
    basis row b_t at a time (``_project_off_keys``).  Key rows touch only
    exponent-0 columns, so P commutes with the column scaling, and

        (A P Aᴴ)_ij = Σ_e rho^((r_i + r_j)/2 + e) (Q_e)_ij,   Q_e = (C P)_e (C P)_eᴴ,

    where (C P)_e keeps the columns of level e.  The projection and the Gram
    pieces are formed once for the whole batch, without the SNR; each
    (batch entry, SNR) point costs one elementwise product and sum per
    level, and the LDLᴴ log-det of ``_logdet2``, with the bits of its own
    call.  At rho = 1 with zero exponents every factor is 1.0, so A = ``c``
    bit for bit: that is the dense call.

    Leading axes of ``c`` and ``k`` are batch axes and broadcast; ``row_exp``
    and the level masks (..., cols) broadcast against them.  The result has
    the batch axes of ``c``, then the exponent batch axis, then ``rho``'s
    axes."""
    if k.shape[-2]:
        c = _project_off_keys(c, k)
    c_h = c.conj().swapaxes(-1, -2)
    r = c.shape[-2]
    snr_axes = (1,) * rho.ndim
    half = (row_exp[..., :, None] + row_exp[..., None, :]) / 2.0
    half = half.reshape(half.shape[:-2] + snr_axes + (r, r))
    rho = rho.reshape(rho.shape + (1, 1))
    g = None
    for e, mask in levels:
        q = (c if mask is None else c * mask[..., None, :]) @ c_h
        # The piece at every (batch entry, SNR): times rho^((r_i + r_j)/2 + e).
        e = e.reshape(e.shape + snr_axes + (1, 1))
        q = q.reshape(q.shape[:-2] + (1,) + snr_axes + (r, r)) * rho ** (half + e)
        if g is None:
            g = q
        else:
            g += q
    diagonal = np.einsum("...ii->...i", g)
    diagonal += 1.0
    return _logdet2(g)


def _support(x: np.ndarray) -> np.ndarray:
    """Nonzero pattern of the trailing (rows, cols) matrices of ``x``, united
    over all batch axes; compared as float pairs, which is faster than a
    complex compare."""
    m, n = x.shape[-2:]
    if not x.size:
        return np.zeros((m, n), dtype=bool)
    pairs = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return (pairs.reshape(-1, 2 * m * n) != 0).any(axis=0).reshape(m, n, 2).any(axis=-1)


def _blocks(support: np.ndarray, m: int) -> list:
    """Independent blocks of a support matrix whose first ``m`` rows are
    observation rows and whose other rows are key rows, as (rows, key rows,
    columns) index arrays ordered by their first column.

    The blocks are the connected components of the graph that links each
    row and key row to the columns it touches.  Rows and key rows with no
    support belong to no block, nor does a component with no observation
    row (its entropy part is 0)."""
    n = support.shape[1]
    # Min-label propagation: every column starts with its own index, a row
    # takes the least label among its columns, and a column the least among
    # its rows, until no label moves.  Rows without support keep label n.
    labels = np.arange(n)
    while True:
        row_labels = np.where(support, labels, n).min(axis=1, initial=n)
        moved = np.minimum(labels, np.where(support, row_labels[:, None], n).min(axis=0))
        if np.array_equal(moved, labels):
            break
        labels = moved
    members = {}  # label -> (rows, key rows, columns)
    for part, part_labels in enumerate((row_labels[:m], row_labels[m:], labels)):
        for i, label in enumerate(part_labels.tolist()):
            members.setdefault(label, ([], [], []))[part].append(i)
    return [
        tuple(np.array(x, dtype=np.intp) for x in members[label])
        for label in sorted(members)
        if label < n and members[label][0]
    ]


@functools.lru_cache(maxsize=128)
def _stack_plan(
    support: bytes,
    support_shape: tuple,
    m: int,
    keeps: tuple,
    batch: int,
    row_exp: bytes,
    col_exp: bytes,
) -> tuple:
    """How ``_entropies_by_block`` evaluates the kept column masks ``keeps``
    on a support matrix (see ``_blocks``), both given as bool bytes;
    ``row_exp`` and ``col_exp`` are the float64 bytes of an exponent batch
    of ``batch`` entries, (batch, m) for the ``m`` observation rows and
    (batch, columns).

    Each distinct (block, kept columns) pair is evaluated once, and pairs
    of equal (rows, key rows, kept columns) shape form one stack.  Returns,
    per stack shape, the flat indices of its pairs into the (rows * cols)
    observation and (key rows * cols) key matrices, shaped (pairs, rows,
    kept) and (pairs, key rows, kept), the (pairs, batch, rows) row
    exponents and the stack's column levels (see ``_levels``); and per
    mask, the (stack shape, pair) of each block part.  A receiver layout
    repeats over chunks and sweeps, and this plan costs about as much as the
    whole evaluation of a small receiver, so it is cached; the exponents are
    part of the key, since they change with alpha on one support.  The
    result is immutable (tuples, read-only arrays), since every caller
    shares it.

    Raises ValueError if a key row touches a column whose exponent is not 0
    at some batch entry, naming the first such (batch entry, key row,
    column) and that entry's exponent: the engine's Gram pieces need the
    key projection to commute with the column scaling."""
    n = support_shape[1]
    row_exp = np.frombuffer(row_exp).reshape(batch, m)
    col_exp = np.frombuffer(col_exp).reshape(batch, n)
    support = np.frombuffer(support, dtype=bool).reshape(support_shape)
    scaled_key = (col_exp != 0)[:, None, :] & support[m:]
    if scaled_key.any():
        b, i, j = np.argwhere(scaled_key)[0].tolist()
        raise ValueError(
            f"key row {i} touches column {j}, whose power exponent is {col_exp[b, j]}: "
            "keys must sit on exponent-0 columns"
        )
    blocks = _blocks(support, m)
    stacks = {}  # stack shape -> [(rows, key rows, kept columns) index arrays]
    where = {}  # (block, kept columns) -> (stack shape, pair)
    parts = []
    for keep in keeps:
        keep = np.frombuffer(keep, dtype=bool)
        part = []
        for b, (rows, key_rows, cols) in enumerate(blocks):
            kept = cols[keep[cols]]
            if not kept.size:
                continue
            pair = (b, kept.tobytes())
            if pair not in where:
                shape = (rows.size, key_rows.size, kept.size)
                stack = stacks.setdefault(shape, [])
                where[pair] = (shape, len(stack))
                stack.append((rows, key_rows, kept))
            part.append(where[pair])
        parts.append(part)
    gathers = []
    for shape, stack in stacks.items():
        rows, key_rows, kept = (np.array(x) for x in zip(*stack))
        cols = kept[:, None, :]
        exps = np.moveaxis(row_exp[:, rows], 0, -2)
        arrays = (rows[:, :, None] * n + cols, key_rows[:, :, None] * n + cols, exps)
        for x in arrays:
            x.flags.writeable = False
        levels = _levels(col_exp[:, kept], kept)
        gathers.append((shape, *arrays, levels))
    return tuple(gathers), tuple(map(tuple, parts))


def _entropies_by_block(coef, keys, keeps, row_exp, col_exp, rho) -> list:
    """``_entropy_given_keys`` of the observations restricted to each kept
    column mask in ``keeps`` (the rows of a bool array), at each entry of
    the exponent batch ``row_exp`` (batch, rows) and ``col_exp`` (batch,
    cols) and each SNR of ``rho``, evaluated per block and summed over
    blocks, with one call per stack of ``_stack_plan``.

    The blocks come from the nonzeros of ``coef`` and ``keys`` united over
    all batch axes.  Each stack is gathered with one take on the flattened
    matrices, a C-contiguous (..., pairs, rows, kept) array."""
    support = np.concatenate([_support(coef), _support(keys)])
    gathers, parts = _stack_plan(
        support.tobytes(),
        support.shape,
        coef.shape[-2],
        tuple(k.tobytes() for k in keeps),
        len(col_exp),
        row_exp.tobytes(),
        col_exp.tobytes(),
    )
    batch = np.broadcast_shapes(coef.shape[:-2], keys.shape[:-2])
    flat_coef, flat_keys = (x.reshape(x.shape[:-2] + (-1,)) for x in (coef, keys))
    values = {
        # The pair axis first, so that values[shape][pair] has the result's shape.
        shape: np.moveaxis(
            _entropy_given_keys(
                np.take(flat_coef, rows, axis=-1),
                np.take(flat_keys, key_rows, axis=-1),
                exps,
                levels,
                rho,
            ),
            len(batch),
            0,
        )
        for shape, rows, key_rows, exps, levels in gathers
    }
    lead = batch + (len(col_exp),) + rho.shape
    out = []
    for part in parts:
        total = np.zeros(lead)
        for shape, pair in part:
            total = total + values[shape][pair]
        out.append(total)
    return out


def conditional_mi(
    coef: np.ndarray,
    keys: np.ndarray,
    target: np.ndarray,
    given: np.ndarray,
    row_exp=None,
    col_exp=None,
    rho=None,
):
    """I(s_target ; obs | s_given, keys) in bits.

    The observations are ``obs = A s + n`` with unit receiver noise, where
    entry (i, j) of A is entry (i, j) of the (m, k) matrix ``coef``, symbol
    variances folded into its columns, scaled by rho^((row_exp[i] +
    col_exp[j]) / 2).  ``keys`` holds noiseless linear functionals of the
    symbols that the receiver is deemed to know exactly; they do not scale
    with the SNR, and a key row may touch only columns of exponent 0 (a
    ValueError names the first column that breaks this).  ``target`` and
    ``given`` are boolean column masks; conditioning on a symbol subset
    removes its columns (symbols are independent).

    ``row_exp`` and ``col_exp`` default to zeros, and ``rho`` to None, which
    is evaluated as rho = 1.0: every scale factor is then 1.0, so A =
    ``coef`` bit for bit (the dense call).  Given ``rho``, a scalar or an
    array of SNRs, the result has the batch shape followed by ``rho``'s
    shape.  The key projection and the Gram pieces are formed once per
    trial, whatever the number of SNRs (see ``_entropy_given_keys``).

    ``row_exp`` (batch, m) and ``col_exp`` (batch, k) are an exponent
    batch, such as one row per alpha of a scheme whose coefficients do not
    depend on alpha; it needs ``rho``.  The key projection, the Gram pieces,
    the support and the block plan are then formed once for the whole
    batch, each (batch entry, SNR) point is evaluated elementwise, and the
    result carries the batch axis after the batch axes of ``coef`` and
    before ``rho``'s axes.  Each entry equals the call on its own exponents
    bit for bit: columns are split into levels by their exponent vectors
    across the batch, and a batch whose entries would split or order the
    levels otherwise, such as alpha = 0 (whose -alpha and 0 levels merge)
    beside an alpha > 0, is refused with a ValueError naming the columns.
    1-D exponents are evaluated as a batch of one, whose axis is dropped on
    return, so there is one evaluation path.

    ``coef`` and ``keys`` may carry leading batch axes (for example trials,
    or trials x 1 for keys shared over a second axis); the result then has
    the broadcast batch shape.

    ``target`` and ``given`` may also be (pairs, k) stacks of masks, as
    for every chain-rule step one receiver needs.  The result then has a
    leading pair axis, and entry ``p`` equals the call on ``target[p]`` and
    ``given[p]`` bit for bit.

    The symbols and the noise are independent, so the log-det splits over
    the independent blocks of the observations (see ``_blocks``).  Each
    distinct (block, kept columns) pair is evaluated once, on its block's
    rows and kept columns, and all pairs of one (rows, key rows, kept
    columns) shape share one stacked log-det call: a call makes one log-det
    call per distinct pair shape, whatever the number of conditioning sets.
    A receiver whose support is one block with no all-zero row gets exactly
    the bits of ``_entropy_given_keys`` on the whole masked matrix; other
    receivers differ from it by rounding only (about 1e-12 bits on the
    scheme sweeps).

    The blocks come from the nonzeros of the whole batch, so an entry of a
    batched call equals the unbatched call on its slice bit for bit only if
    that slice has the batch's nonzero pattern.  Every trial of a scheme
    chunk has its chunk's pattern (a tier-1 test checks each kind at every
    alpha k/20), which keeps sweep CSVs independent of the chunking.  Each
    SNR of an array ``rho`` is evaluated elementwise, so an entry also
    equals the call at its SNR alone bit for bit.
    """
    m, n = coef.shape[-2:]
    row_exp = np.zeros(m) if row_exp is None else np.asarray(row_exp, dtype=float)
    col_exp = np.zeros(n) if col_exp is None else np.asarray(col_exp, dtype=float)
    single = row_exp.ndim == col_exp.ndim == 1
    if not single:
        if row_exp.shape[:-1] != col_exp.shape[:-1] or row_exp.ndim > 2 or rho is None:
            raise ValueError(
                "an exponent batch is one leading axis of both exponents, and needs rho"
            )
    rho = np.asarray(1.0 if rho is None else rho, dtype=float)
    keep1 = ~np.asarray(given, dtype=bool)
    keep1, keep2 = np.broadcast_arrays(keep1, keep1 & ~np.asarray(target, dtype=bool))
    keeps = np.stack([keep1, keep2]).reshape(-1, keep1.shape[-1])
    exps = row_exp.reshape(-1, m), col_exp.reshape(-1, n)
    h = np.stack(_entropies_by_block(coef, keys, keeps, *exps, rho))
    mi = np.maximum(h[: len(h) // 2] - h[len(h) // 2 :], 0.0)
    if single:
        mi = mi.squeeze(axis=-1 - rho.ndim)
    return mi[0] if keep1.ndim == 1 else mi


def fit_slope(log2_rho, bits) -> tuple[float, float]:
    """OLS slope and its standard error over the grid's ``fit_window``."""
    x = np.asarray(log2_rho, dtype=float)
    y = np.asarray(bits, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two grid points to fit a slope")
    k = fit_window(x.size)
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


def _lemma1_entropies(cases, rho, seed: int) -> np.ndarray:
    """h(y^n), h(z^n) and h(y^n, z^n) in bits, less their n log2(pi e) per
    receiver, of each (profile, alpha) of ``cases`` at each SNR of ``rho``
    (a scalar or an array): a (3, cases) + ``rho``'s shape array from one
    ``LEMMA1_SLOTS``-slot complex draw of ``seed`` and one
    ``conditional_mi`` call.

    The inputs x_t ~ CN(0, I/2) are i.i.d., so these are the log-dets of a
    keyless block: row t is sqrt(1/2) h_t and row n + t is sqrt(1/2) g_t,
    both on slot t's two antenna columns, every column at exponent 0 and in
    the target.  A leading coefficient axis of 3 keeps the y rows, the z
    rows and both; each case is one entry of the exponent batch, with its
    rows at the exponents of its profile's ``state_sequence``.  The engine
    splits the block into its slots and sums them in slot order, so each
    entry has the bits of its own one-case, one-SNR call."""
    n = LEMMA1_SLOTS
    realization = draw_channels((STATE_11,) * n, seed, mode="complex")
    slot = np.arange(n)[:, None]
    cols = 2 * slot + np.arange(2)
    coef = np.zeros((3, 2 * n, 2 * n), dtype=complex)
    coef[0, slot, cols] = math.sqrt(0.5) * realization.h
    coef[1, n + slot, cols] = math.sqrt(0.5) * realization.g
    coef[2] = coef[0] + coef[1]
    exps = [[s.exponents(a) for s in state_sequence(p, n)] for p, a in cases]
    row_exp = np.array(exps, dtype=float).swapaxes(1, 2).reshape(len(cases), 2 * n)
    every = np.ones(2 * n, dtype=bool)
    keys = np.zeros((0, 2 * n))
    return conditional_mi(coef, keys, every, ~every, row_exp, np.zeros_like(row_exp), rho)


def _lemma1_slopes(cases, rho_grid, seed: int) -> list:
    """``lemma1_slopes`` of each (profile, alpha) of ``cases``, in order,
    all from one ``_lemma1_entropies`` call."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.size < 3:
        raise ValueError("rho_grid must have at least 3 points")
    n = LEMMA1_SLOTS
    x = np.log2(rho_grid)
    out = []
    for (profile, alpha), hy, hz, hyz in zip(cases, *_lemma1_entropies(cases, rho_grid, seed)):
        surcharge_1a = n * float(profile.lambda_1a) * (1 - alpha) * x
        surcharge_a1 = n * float(profile.lambda_a1) * (1 - alpha) * x
        sides = {
            "4a": (hyz, 2 * hz + surcharge_1a),
            "4b": (hyz, 2 * hy + surcharge_a1),
            "4c": (hy, 2 * hz + surcharge_1a),
            "4d": (hz, 2 * hy + surcharge_a1),
        }
        out.append(
            {
                ineq: (fit_slope(x, lhs / n)[0], fit_slope(x, rhs / n)[0])
                for ineq, (lhs, rhs) in sides.items()
            }
        )
    return out


def lemma1_slopes(
    profile: TopologyProfile,
    alpha: float,
    rho_grid,
    seed: int,
) -> dict:
    """Per-slot fitted slopes {inequality id: (lhs, rhs)} of all four
    entropy-order inequalities, from one channel draw of ``LEMMA1_SLOTS``
    slots and one ``conditional_mi`` call over the whole grid: a batch of
    one of ``_lemma1_slopes``.

    The right-hand sides carry the topology surcharge lambda * (1 - alpha) *
    log2(rho) per slot exactly once.
    """
    return _lemma1_slopes([(profile, alpha)], rho_grid, seed)[0]


def lemma1_margins(
    profile: TopologyProfile,
    alpha: float,
    inequality_id: str,
    rho_grid,
    seed: int,
) -> tuple[float, float]:
    """Per-slot fitted slopes (lhs, rhs) of one entropy-order inequality;
    see ``lemma1_slopes``."""
    if inequality_id not in LEMMA1_IDS:
        raise ValueError(f"inequality_id must be one of {LEMMA1_IDS}")
    return lemma1_slopes(profile, alpha, rho_grid, seed)[inequality_id]
